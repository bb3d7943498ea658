"""Line graph construction and the budget-bounded neighbor store."""

import io
import math
import random
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mochy import (
    MemoizedNeighborStore,
    build_line_graph,
    from_edge_sets,
    hyperedge_degrees,
    hyperedge_neighbors,
)
from mochy import linegraph
from mochy.linegraph import csv_rows, dump_line_graph

from conftest import edge_sets, random_hypergraph


def pairwise_oracle(h):
    """All overlapping pairs with weights, by direct intersection."""
    out = {}
    sets = edge_sets(h)
    for i, j in combinations(range(h.num_edges), 2):
        w = len(sets[i] & sets[j])
        if w:
            out[(i, j)] = w
    return out


def csr_rows(lg):
    """Per hyperedge, its CSR row as a map neighbor -> overlap weight."""
    bounds = lg.indptr.tolist()
    idx, w = lg.indices.tolist(), lg.weights.tolist()
    return [dict(zip(idx[a:b], w[a:b])) for a, b in zip(bounds, bounds[1:])]


class TestBuild:
    def test_chain_wedges(self, chain3):
        lg = build_line_graph(chain3)
        assert lg.wedge_count == 3
        assert csr_rows(lg)[0] == {1: 2, 2: 1}
        assert csr_rows(lg)[1] == {0: 2, 2: 2}

    def test_disjoint(self, disjoint3):
        assert build_line_graph(disjoint3).wedge_count == 0

    def test_fig1_style_structure(self):
        # e1 overlaps e2, e3, e4; e2 and e3 overlap; e4 only touches e1
        h = from_edge_sets([{1, 2, 3}, {2, 3, 4}, {3, 5}, {1, 6}])
        lg = build_line_graph(h)
        wedges = {
            (i, j) for i in range(4) for j in csr_rows(lg)[i] if i < j
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
                for i, nbrs in enumerate(csr_rows(lg))
                for j, w in nbrs.items()
                if i < j
            }
            assert got == expected

    def test_symmetry_and_wedge_count(self):
        rng = random.Random(29)
        for _ in range(10):
            h = random_hypergraph(rng)
            lg = build_line_graph(h)
            rows = csr_rows(lg)
            for i, nbrs in enumerate(rows):
                for j, w in nbrs.items():
                    assert rows[j][i] == w
            assert lg.wedge_count * 2 == sum(len(n) for n in rows)

    def test_worker_count_invariance(self):
        rng = random.Random(31)
        h = random_hypergraph(rng, max_edges=12)
        lg1 = build_line_graph(h, workers=1)
        lg4 = build_line_graph(h, workers=4)
        assert csr_rows(lg1) == csr_rows(lg4)

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
            rows = csr_rows(lg)
            lhs = sum(w for i, n in enumerate(rows) for j, w in n.items() if i < j)
            sizes = np.diff(h.edge_ptr).tolist()
            rhs = sum(sizes[i] * len(rows[i]) for i in range(h.num_edges))
            assert lhs < rhs

    def test_dump_format(self, chain3):
        buf = io.StringIO()
        dump_line_graph(build_line_graph(chain3), buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "i,j,weight"
        assert "0,1,2" in lines and "1,2,2" in lines and "0,2,1" in lines

    def test_dump_caches_no_pair_keys(self, chain3):
        lg = build_line_graph(chain3)
        dump_line_graph(lg, io.StringIO())
        assert "keys" not in lg.__dict__  # rows come from indptr, columns from indices


def fstring_rows(*columns):
    """csv_rows' reference: one f-string per row."""
    return "".join(",".join(f"{x}" for x in row) + "\n" for row in zip(*columns))


# digit-count boundaries, and the largest hyperedge index or weight
EDGE_VALUES = [0, 1, 9, 10, 99, 100, 999, 1000, 2**31 - 1]
VALUES = st.one_of(st.sampled_from(EDGE_VALUES), st.integers(0, 2**31 - 1))


class TestCsvRows:
    @settings(max_examples=200, deadline=None)
    @given(
        width=st.integers(1, 5),
        dtype=st.sampled_from([np.int32, np.int64, np.uint32]),
        data=st.data(),
    )
    def test_equals_fstrings(self, width, dtype, data):
        rows = data.draw(st.lists(st.tuples(*[VALUES] * width), max_size=40))
        columns = [[row[c] for row in rows] for c in range(width)]
        arrays = [np.array(c, dtype=dtype) for c in columns]
        assert csv_rows(*arrays) == fstring_rows(*columns)

    def test_zero_rows(self):
        assert csv_rows(np.zeros(0, np.int32), np.zeros(0, np.int64)) == ""

    def test_all_zero_columns(self):
        zeros = np.zeros(3, np.int32)
        assert csv_rows(zeros, np.array([5, 0, 12]), zeros) == "0,5,0\n0,0,0\n0,12,0\n"

    def test_digit_boundaries(self):
        values = np.array(EDGE_VALUES)
        assert csv_rows(values, values[::-1]) == fstring_rows(EDGE_VALUES, EDGE_VALUES[::-1])

    @pytest.mark.parametrize("block", [1, 2, 1 << 16])
    def test_dump_blocks_change_no_byte(self, block, monkeypatch):
        h = random_hypergraph(random.Random(5), 30, 60)
        lg = build_line_graph(h)
        expected = "i,j,weight\n" + "".join(
            f"{i},{j},{w}\n" for i, row in enumerate(csr_rows(lg))
            for j, w in sorted(row.items()) if i < j
        )
        monkeypatch.setattr(linegraph, "DUMP_BLOCK", block)
        buf = io.StringIO()
        dump_line_graph(lg, buf)
        assert buf.getvalue() == expected


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
            assert hyperedge_degrees(h) == np.diff(build_line_graph(h).indptr).tolist()


def csr_row(lg, i):
    lo, hi = lg.indptr[i], lg.indptr[i + 1]
    return lg.indices[lo:hi].tolist(), lg.weights[lo:hi].tolist()


def stored_row(store, i):
    """Hyperedge i's row served by one store lookup, as (neighbors, weights)."""
    owner, nbr, weight = store.rows([store.get(i)])
    assert not owner.any()
    return nbr.tolist(), weight.tolist()


class TestMemoStore:
    def test_agrees_with_full_build_under_any_budget(self):
        rng = random.Random(43)
        for _ in range(12):
            h = random_hypergraph(rng, max_edges=12)
            lg = build_line_graph(h)
            full = int(np.diff(lg.indptr).sum())
            for budget in {0, 1, math.ceil(full / 2), full}:
                store = MemoizedNeighborStore(h, budget)
                for i in range(h.num_edges):
                    assert stored_row(store, i) == csr_row(lg, i)
                assert h.line_degrees[list(store.store)].sum() <= budget

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
        assert 0 in store.store
        store.get(1)  # needs 2 entries: evicts e0 (lowest degree, lowest index)
        assert 0 not in store.store and 1 in store.store
        store.get(2)  # needs 1: evicts e1, the only memoized edge
        assert 1 not in store.store and 2 in store.store

    def test_pinned_edges_survive_eviction(self):
        h = from_edge_sets([{0, 1}, {1, 2}, {2, 3}])
        store = MemoizedNeighborStore(h, budget=2)
        store.get(0)
        store.get(2)  # store now holds e0 and e2 (1 entry each)
        store.get(1, pinned=0)  # must not evict pinned e0
        assert 0 in store.store and 2 not in store.store

    def test_oversized_edge_served_without_memoizing(self):
        h = from_edge_sets([{0, 1}, {0, 2}, {0, 3}])  # every degree is 2
        store = MemoizedNeighborStore(h, budget=1)
        assert stored_row(store, 0) == csr_row(build_line_graph(h), 0)
        assert 0 not in store.store

    def test_negative_budget_rejected(self, chain3):
        with pytest.raises(ValueError):
            MemoizedNeighborStore(chain3, budget=-1)
