"""On-the-fly counting against an oracle: the dict-based memo store and the
lookup loop, run one lookup at a time on neighbor maps from set arithmetic.

The library decides its store's lookups on integers and computes the rows
a block misses in one call; the oracle decides and computes each lookup on
its own. Patching the block sizes down to a few entries makes the library
cross a block boundary between almost any two lookups.
"""

from __future__ import annotations

import heapq
from unittest import mock

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from mochy import build_line_graph, count_otf, enumerate_catalog, from_edge_sets
from mochy import counting, linegraph
from mochy.counting import _wedge_draws

from conftest import edge_sets, oracle_pattern


class OracleStore:
    """Neighbor maps memoized under a budget of total stored entries,
    evicting in ascending (degree, index) order and skipping pinned ones."""

    def __init__(self, neighbors: list[dict[int, int]], budget: int):
        self.neighbors = neighbors
        self.degrees = [len(n) for n in neighbors]
        self.cap = budget
        self.store: dict[int, dict[int, int]] = {}
        self._heap: list[tuple[int, int]] = []
        self.recomputations = self.hits = self.evictions = 0

    def _evict_one(self, pinned) -> bool:
        parked = []
        evicted = False
        while self._heap:
            d, m = heapq.heappop(self._heap)
            if m not in self.store:
                continue
            if m in pinned:
                parked.append((d, m))
                continue
            del self.store[m]
            self.cap += d
            self.evictions += 1
            evicted = True
            break
        for item in parked:
            heapq.heappush(self._heap, item)
        return evicted

    def get(self, i: int, pinned: frozenset[int]) -> dict[int, int]:
        hit = self.store.get(i)
        if hit is not None:
            self.hits += 1
            return hit
        nbrs = dict(self.neighbors[i])
        self.recomputations += 1
        d = self.degrees[i]
        while self.cap < d:
            if not self._evict_one(pinned):
                return nbrs
        self.store[i] = nbrs
        self.cap -= d
        heapq.heappush(self._heap, (d, i))
        return nbrs

    def evict(self, i: int) -> None:
        if i in self.store:
            del self.store[i]
            self.cap += self.degrees[i]
            self.evictions += 1


def oracle_neighbors(sets: list[frozenset[int]]) -> list[dict[int, int]]:
    return [
        {j: len(a & b) for j, b in enumerate(sets) if j != i and a & b}
        for i, a in enumerate(sets)
    ]


def oracle_otf(sets, r: int, budget: int, seed: int, variant: str):
    """(counts, meta counters) of on-the-fly counting, binary motifs."""
    neighbors = oracle_neighbors(sets)
    degrees = [len(n) for n in neighbors]
    store = OracleStore(neighbors, budget)
    i, pos = _wedge_draws(seed, range(r), np.cumsum([0, *degrees]))
    draws = list(zip(i.tolist(), pos.tolist()))
    if variant == "basic":
        # every draw's first endpoint, in draw order, then the wedges in draw order
        pairs = [(i, sorted(store.get(i, frozenset((i,))))[pos]) for i, pos in draws]
        groups = [(None, pairs)]
    else:
        positions: dict[int, list[int]] = {}
        for i, pos in draws:
            positions.setdefault(i, []).append(pos)
        by_key: dict[int, list[tuple[int, int]]] = {}
        for i, drawn in positions.items():
            row = sorted(store.get(i, frozenset((i,))))
            for pos in drawn:
                j = row[pos]
                key = i if (degrees[i], i) > (degrees[j], j) else j
                by_key.setdefault(key, []).append((i, j))
        order = sorted(by_key, key=lambda e: (degrees[e], e), reverse=True)
        groups = [(key, by_key[key]) for key in order]
    catalog = enumerate_catalog(3, 2)
    index = dict(zip(catalog.patterns, catalog.ids))
    tallies = [0] * len(catalog)
    for key, pairs in groups:
        for i, j in pairs:
            pinned = frozenset((i, j))
            nbrs_i, nbrs_j = store.get(i, pinned), store.get(j, pinned)
            for k in (set(nbrs_i) | set(nbrs_j)) - {i, j}:
                tallies[index[oracle_pattern(sets[i], sets[j], sets[k])] - 1] += 1
        if key is not None:
            store.evict(key)
    wedges = sum(degrees) // 2
    counts = [
        c * (wedges / (2 * r) if catalog.is_open(t) else wedges / (3 * r))
        for t, c in zip(catalog.ids, tallies)
    ]
    meta = {
        "recomputations": store.recomputations,
        "neighbor_computations": store.recomputations,
        "store_hits": store.hits,
        "store_evictions": store.evictions,
    }
    return counts, meta


@st.composite
def hub_edge_lists(draw):
    """Distinct hyperedges over 40-70 nodes: one or two hubs of at least 40
    nodes, small edges of 1-4 nodes, sometimes an isolated one."""
    n = draw(st.integers(40, 70))
    nodes = st.integers(0, n - 1)
    edges = [
        frozenset(draw(st.lists(nodes, min_size=40, max_size=n, unique=True)))
        for _ in range(draw(st.integers(1, 2)))
    ]
    edges += draw(st.lists(st.frozensets(nodes, min_size=1, max_size=4), min_size=2, max_size=14))
    if draw(st.booleans()):
        edges.append(frozenset({n}))
    return list(dict.fromkeys(edges))


@settings(max_examples=60, deadline=None)
@given(
    edges=hub_edge_lists(),
    r=st.integers(1, 40),
    seed=st.integers(0, 2**64 - 1),
    share=st.sampled_from(["0", "1", "half", "full"]),
    variant=st.sampled_from(["basic", "advanced"]),
    chunk=st.integers(1, 9),
)
def test_count_otf_matches_the_oracle(edges, r, seed, share, variant, chunk):
    h = from_edge_sets(edges)
    full = int(np.diff(build_line_graph(h).indptr).sum())
    assume(full > 0)
    budget = {"0": 0, "1": 1, "half": full // 2, "full": full}[share]
    with mock.patch.object(counting, "CHUNK", chunk):
        cv = count_otf(h, r, budget, seed, variant)
    # the arrays did the work: no tuple view was built
    assert "edges" not in h.__dict__ and "incidence" not in h.__dict__
    counts, meta = oracle_otf(list(edge_sets(h)), r, budget, seed, variant)
    assert cv.counts == counts
    assert {k: cv.meta[k] for k in meta} == meta


@settings(max_examples=60, deadline=None)
@given(edges=hub_edge_lists(), block=st.integers(1, 9), data=st.data())
def test_degrees_and_rows_match_the_line_graph(edges, block, data):
    h = from_edge_sets(edges)
    lg = build_line_graph(h)
    with mock.patch.object(linegraph, "DEGREE_BLOCK", block):
        assert linegraph.line_degrees(h).tolist() == np.diff(lg.indptr).tolist()
    assert linegraph.hyperedge_degrees(h) == np.diff(lg.indptr).tolist()
    assert "edges" not in h.__dict__ and "incidence" not in h.__dict__
    ids = data.draw(st.lists(st.integers(0, h.num_edges - 1), max_size=12))
    owner, nbr, weight = linegraph.neighbor_rows(h, np.array(ids, dtype=np.int64))
    expected = [
        (o, int(lg.indices[e]), int(lg.weights[e]))
        for o, i in enumerate(ids)
        for e in range(lg.indptr[i], lg.indptr[i + 1])
    ]
    assert list(zip(owner.tolist(), nbr.tolist(), weight.tolist())) == expected


def test_count_otf_matches_the_oracle_on_a_larger_graph():
    # enough draws that groups mix first endpoints and evictions skip pinned rows
    rng = np.random.default_rng(5)
    edges = {frozenset(rng.choice(240, 4, replace=False).tolist()) for _ in range(300)}
    h = from_edge_sets(sorted(edges, key=sorted))
    budget = int(np.diff(build_line_graph(h).indptr).sum()) // 10
    sets = list(edge_sets(h))
    for variant in ("basic", "advanced"):
        counts, meta = oracle_otf(sets, 600, budget, 1, variant)
        for chunk in (7, counting.CHUNK):
            with mock.patch.object(counting, "CHUNK", chunk):
                cv = count_otf(h, 600, budget, 1, variant)
            assert cv.counts == counts
            assert {k: cv.meta[k] for k in meta} == meta
