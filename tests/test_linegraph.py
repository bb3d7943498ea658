"""Line graph construction and the budget-bounded neighbor store."""

import io
import math
import random
from itertools import combinations

import pytest

from mochy import (
    MemoizedNeighborStore,
    build_line_graph,
    from_edge_sets,
    hyperedge_degrees,
    hyperedge_neighbors,
)
from mochy.linegraph import dump_line_graph

from conftest import random_hypergraph


def pairwise_oracle(h):
    """All overlapping pairs with weights, by direct intersection."""
    out = {}
    for i, j in combinations(range(h.num_edges), 2):
        w = len(h.edge_sets[i] & h.edge_sets[j])
        if w:
            out[(i, j)] = w
    return out


class TestBuild:
    def test_chain_wedges(self, chain3):
        lg = build_line_graph(chain3)
        assert lg.wedge_count == 3
        assert lg.neighbors[0] == {1: 2, 2: 1}
        assert lg.neighbors[1] == {0: 2, 2: 2}

    def test_disjoint(self, disjoint3):
        assert build_line_graph(disjoint3).wedge_count == 0

    def test_fig1_style_structure(self):
        # e1 overlaps e2, e3, e4; e2 and e3 overlap; e4 only touches e1
        h = from_edge_sets([{1, 2, 3}, {2, 3, 4}, {3, 5}, {1, 6}])
        lg = build_line_graph(h)
        wedges = {
            (i, j) for i in range(4) for j in lg.neighbors[i] if i < j
        }
        assert wedges == {(0, 1), (0, 2), (1, 2), (0, 3)}
        assert lg.wedge_count == 4

    def test_matches_pairwise_oracle(self):
        rng = random.Random(23)
        for _ in range(25):
            h = random_hypergraph(rng)
            lg = build_line_graph(h)
            expected = pairwise_oracle(h)
            got = {
                (i, j): w
                for i, nbrs in enumerate(lg.neighbors)
                for j, w in nbrs.items()
                if i < j
            }
            assert got == expected

    def test_symmetry_and_wedge_count(self):
        rng = random.Random(29)
        for _ in range(10):
            h = random_hypergraph(rng)
            lg = build_line_graph(h)
            for i, nbrs in enumerate(lg.neighbors):
                for j, w in nbrs.items():
                    assert lg.neighbors[j][i] == w
            assert lg.wedge_count * 2 == sum(len(n) for n in lg.neighbors)

    def test_worker_count_invariance(self):
        rng = random.Random(31)
        h = random_hypergraph(rng, max_edges=12)
        lg1 = build_line_graph(h, workers=1)
        lg4 = build_line_graph(h, workers=4)
        assert lg1.neighbors == lg4.neighbors

    def test_weight_sum_bound(self):
        # total overlap weight stays below sum of size * degree
        rng = random.Random(37)
        checked = 0
        while checked < 10:
            h = random_hypergraph(rng)
            lg = build_line_graph(h)
            if lg.wedge_count == 0:
                continue
            checked += 1
            lhs = sum(
                w for i, n in enumerate(lg.neighbors) for j, w in n.items() if i < j
            )
            rhs = sum(
                len(h.edges[i]) * len(lg.neighbors[i]) for i in range(h.num_edges)
            )
            assert lhs < rhs

    def test_dump_format(self, chain3):
        buf = io.StringIO()
        dump_line_graph(build_line_graph(chain3), buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "i,j,weight"
        assert "0,1,2" in lines and "1,2,2" in lines and "0,2,1" in lines


class TestNeighbors:
    def test_basic(self):
        h = from_edge_sets([{0, 1}, {1, 2}, {3}])
        assert hyperedge_neighbors(h, 0) == {1: 1}
        assert hyperedge_neighbors(h, 2) == {}

    def test_subset_overlap(self):
        h = from_edge_sets([{0, 1, 2}, {0, 1, 2, 3}])
        assert hyperedge_neighbors(h, 0) == {1: 3}

    def test_out_of_range(self, chain3):
        with pytest.raises(IndexError):
            hyperedge_neighbors(chain3, 9)

    def test_degrees_match_line_graph(self):
        rng = random.Random(41)
        for _ in range(10):
            h = random_hypergraph(rng)
            assert hyperedge_degrees(h) == build_line_graph(h).degrees()


class TestMemoStore:
    def test_agrees_with_full_build_under_any_budget(self):
        rng = random.Random(43)
        for _ in range(12):
            h = random_hypergraph(rng, max_edges=12)
            lg = build_line_graph(h)
            full = sum(lg.degrees())
            for budget in {0, 1, math.ceil(full / 2), full}:
                store = MemoizedNeighborStore(h, budget)
                for i in range(h.num_edges):
                    assert store.get(i) == lg.neighbors[i]
                assert store.memoized_entries() <= budget

    def test_unbounded_budget_memoizes_everything(self, chain3):
        store = MemoizedNeighborStore(chain3, budget=100)
        for i in range(3):
            store.get(i)
        assert store.recomputations == 3
        for i in range(3):
            store.get(i)
        assert store.recomputations == 3  # all hits now

    def test_zero_budget_always_recomputes(self, chain3):
        store = MemoizedNeighborStore(chain3, budget=0)
        for _ in range(2):
            for i in range(3):
                store.get(i)
        assert store.recomputations == 6
        assert not store.store

    def test_eviction_is_lowest_degree_first(self):
        # degrees: e0 -> 1, e1 -> 2, e2 -> 1; budget fits only d_max
        h = from_edge_sets([{0, 1}, {1, 2}, {2, 3}])
        store = MemoizedNeighborStore(h, budget=2)
        store.get(0)
        assert 0 in store
        store.get(1)  # needs 2 entries: evicts e0 (lowest degree, lowest index)
        assert 0 not in store and 1 in store
        store.get(2)  # needs 1: evicts e1, the only memoized edge
        assert 1 not in store and 2 in store

    def test_pinned_edges_survive_eviction(self):
        h = from_edge_sets([{0, 1}, {1, 2}, {2, 3}])
        store = MemoizedNeighborStore(h, budget=2)
        store.get(0)
        store.get(2)  # store now holds e0 and e2 (1 entry each)
        store.get(1, pinned=frozenset({0}))  # must not evict pinned e0
        assert 0 in store and 2 not in store

    def test_oversized_edge_served_without_memoizing(self):
        h = from_edge_sets([{0, 1}, {0, 2}, {0, 3}])  # every degree is 2
        store = MemoizedNeighborStore(h, budget=1)
        nbrs = store.get(0)
        assert nbrs == hyperedge_neighbors(h, 0)
        assert 0 not in store

    def test_negative_budget_rejected(self, chain3):
        with pytest.raises(ValueError):
            MemoizedNeighborStore(chain3, budget=-1)
