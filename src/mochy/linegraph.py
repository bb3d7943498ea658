"""Weighted line graph of a hypergraph, plus a budget-bounded neighbor store.

Hyperedges become vertices; two are adjacent iff they share a node, with
edge weight equal to the overlap size. The line graph is stored in CSR form
(row pointers, sorted neighbor indices, overlap weights) and built in one
sequential numpy pass over the incidence lists, so it does not depend on any
worker count. The memoized store recomputes neighborhoods on demand under a
total-entry budget, evicting lowest-degree hyperedges first (ties broken
toward the lower index).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

import numpy as np

from .hypergraph import Hypergraph

# Pairs per block while the line graph is built; bounds its temporaries.
BUILD_BLOCK = 1 << 16


def blocks(cost: np.ndarray, limit: int) -> Iterator[slice]:
    """Consecutive slices of items whose costs add up to at most `limit`; an
    item that alone costs more is a slice of its own."""
    ends = np.cumsum(cost)
    lo = 0
    while lo < len(ends):
        base = int(ends[lo - 1]) if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, base + limit, "right")))
        yield slice(lo, hi)
        lo = hi


def find(keys: np.ndarray, query: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions of query in the sorted, non-empty keys (clipped to the last
    one) and whether each query is present."""
    pos = np.minimum(np.searchsorted(keys, query), len(keys) - 1)
    return pos, keys[pos] == query


def ragged_range(starts: np.ndarray, stops: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every position in [starts[o], stops[o]) for every owner o, in owner
    then position order, as one (owner, position) pair of arrays; positions
    keep the dtype of `starts`."""
    starts = np.asarray(starts)
    lengths = stops - starts
    owner = np.repeat(np.arange(len(lengths), dtype=np.int32), lengths)
    offset = np.repeat(starts - np.cumsum(lengths, dtype=starts.dtype) + lengths, lengths)
    return owner, offset + np.arange(len(owner), dtype=offset.dtype)


def ragged_ranges(
    starts: np.ndarray, stops: np.ndarray, block: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """ragged_range(starts, stops) in pieces of at most `block` pairs."""
    for group in blocks(stops - starts, block):
        owner, pos = ragged_range(starts[group], stops[group])
        owner += group.start
        for first in range(0, len(owner), block):
            yield owner[first : first + block], pos[first : first + block]


@dataclass(frozen=True, eq=False)
class LineGraph:
    """CSR line graph: row i's neighbors are indices[indptr[i]:indptr[i + 1]],
    in ascending order, with overlap sizes in the same positions of weights.
    """

    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray

    @property
    def num_edges(self) -> int:
        return len(self.indptr) - 1

    @property
    def wedge_count(self) -> int:
        return len(self.indices) // 2

    def degrees(self) -> list[int]:
        return np.diff(self.indptr).tolist()

    @cached_property
    def keys(self) -> np.ndarray:
        """Row-major pair key i * num_edges + j of every entry, hence sorted."""
        n = self.num_edges
        dtype = np.int32 if n * n < 1 << 31 else np.int64
        keys = np.repeat(np.arange(n, dtype=dtype) * n, np.diff(self.indptr))
        keys += self.indices
        return keys

    def weight(self, i, j):
        """Overlap of hyperedges i and j (0 if disjoint); scalars or arrays."""
        query = (np.asarray(i, dtype=np.int64) * self.num_edges + j).astype(self.keys.dtype)
        if not len(self.keys):
            return np.zeros_like(query)
        pos, found = find(self.keys, query)
        return np.where(found, self.weights[pos], 0)

    @cached_property
    def neighbors(self) -> tuple[dict[int, int], ...]:
        """Per hyperedge, a map adjacent index -> overlap weight (built on first use)."""
        bounds = self.indptr.tolist()
        idx, w = self.indices.tolist(), self.weights.tolist()
        return tuple(dict(zip(idx[a:b], w[a:b])) for a, b in zip(bounds, bounds[1:]))

    @cached_property
    def sorted_neighbors(self) -> tuple[tuple[int, ...], ...]:
        """Per hyperedge, its adjacent indices in ascending order (built on first use)."""
        return tuple(tuple(nbrs) for nbrs in self.neighbors)


def hyperedge_neighbors(h: Hypergraph, i: int) -> dict[int, int]:
    """Neighbor map of hyperedge i computed from incidence lists alone."""
    if not 0 <= i < h.num_edges:
        raise IndexError(f"hyperedge index {i} out of range (|E|={h.num_edges})")
    out: dict[int, int] = {}
    for v in h.edges[i]:
        for j in h.incidence[v]:
            if j != i:
                out[j] = out.get(j, 0) + 1
    return out


def hyperedge_degrees(h: Hypergraph, workers: int = 1) -> list[int]:
    """Line-graph degree of every hyperedge, without storing neighbor maps.

    The degrees are computed once per hypergraph and cached on it; `workers`
    is accepted for compatibility and has no effect.
    """
    return list(h.line_degrees)


def build_line_graph(h: Hypergraph, workers: int = 1) -> LineGraph:
    """Materialize the full weighted line graph.

    Two hyperedges sharing a node v make a pair in v's ascending incidence
    list, once per shared node. The pairs are written as row-major keys
    i * |E| + j (i < j) into one array and sorted in place: runs of equal
    keys are the upper triangle's entries, and their lengths are the overlap
    weights. Mirroring places each entry (i, j) in row i after the row's
    lower entries, and (j, i) in row j in ascending i. `workers` is accepted
    for compatibility and has no effect.
    """
    n = h.num_edges
    dtype = np.int32 if n * n < 1 << 31 else np.int64
    run = np.diff(h.node_ptr)
    inc = h.node_edges.astype(dtype)
    keys = np.empty(int((run * (run - 1) // 2).sum()), dtype)
    # each incidence entry pairs with the later entries of its node's run
    run_end = np.repeat(np.cumsum(run), run)
    at = 0
    for owner, pos in ragged_ranges(np.arange(1, len(inc) + 1), run_end, BUILD_BLOCK):
        keys[at : at + len(owner)] = inc[owner] * n + inc[pos]
        at += len(owner)
    del run, inc, run_end
    keys.sort()
    starts = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=starts[1:])
    first = np.flatnonzero(starts)
    upper_w = np.diff(first, append=len(keys)).astype(np.int32)
    rows, cols = np.divmod(keys[first], n)
    del keys, starts, first
    low, up = np.bincount(cols, minlength=n), np.bincount(rows, minlength=n)
    indptr = np.concatenate([[0], np.cumsum(low + up)])
    indptr = indptr.astype(np.int32 if indptr[-1] < 1 << 31 else np.int64)
    indices = np.empty(indptr[-1], np.int32)
    weights = np.empty(indptr[-1], np.int32)
    entry = np.arange(len(rows), dtype=indptr.dtype)
    # (i, j) follows the lower entries of rows 0..i and the upper ones before it
    pos = np.cumsum(low, dtype=indptr.dtype)[rows] + entry
    indices[pos], weights[pos] = cols, upper_w
    # (j, i), in ascending (j, i), follows the upper entries of rows 0..j-1
    order = np.argsort(cols * n + rows)
    del pos, cols
    pos = np.repeat(np.cumsum(up, dtype=indptr.dtype) - up, low) + entry
    indices[pos], weights[pos] = rows[order], upper_w[order]
    return LineGraph(indptr=indptr, indices=indices, weights=weights)


def dump_line_graph(lg: LineGraph, out) -> None:
    """CSV rows "i,j,weight" with i < j."""
    out.write("i,j,weight\n")
    rows, cols = np.divmod(lg.keys, lg.num_edges)
    upper = rows < cols
    for i, j, w in zip(rows[upper].tolist(), cols[upper].tolist(), lg.weights[upper].tolist()):
        out.write(f"{i},{j},{w}\n")


class MemoizedNeighborStore:
    """Neighbor maps memoized under a budget of total stored entries.

    The sum of line-graph degrees of memoized hyperedges never exceeds the
    budget. When space is needed, memoized hyperedges are evicted in
    ascending (degree, index) order, skipping pinned indices. A hyperedge
    whose degree exceeds what the budget can ever hold is computed but not
    stored.
    """

    def __init__(self, h: Hypergraph, budget: int, degrees: list[int] | None = None):
        if budget < 0:
            raise ValueError("budget must be non-negative")
        self.h = h
        self.budget = budget
        self.degrees = degrees if degrees is not None else hyperedge_degrees(h)
        self.cap = budget
        self.store: dict[int, dict[int, int]] = {}
        self._heap: list[tuple[int, int]] = []  # (degree, index), lazy deletion
        self.recomputations = 0

    def __contains__(self, i: int) -> bool:
        return i in self.store

    def memoized_entries(self) -> int:
        return sum(self.degrees[i] for i in self.store)

    def _evict_one(self, pinned: frozenset[int]) -> bool:
        parked = []
        evicted = False
        while self._heap:
            d, m = heapq.heappop(self._heap)
            if m not in self.store:
                continue  # stale entry
            if m in pinned:
                parked.append((d, m))
                continue
            del self.store[m]
            self.cap += d
            evicted = True
            break
        for item in parked:
            heapq.heappush(self._heap, item)
        return evicted

    def get(self, i: int, pinned: frozenset[int] = frozenset()) -> dict[int, int]:
        """Neighbor map of hyperedge i, memoizing it if the budget allows."""
        hit = self.store.get(i)
        if hit is not None:
            return hit
        nbrs = hyperedge_neighbors(self.h, i)
        self.recomputations += 1
        d = self.degrees[i]
        while self.cap < d:
            if not self._evict_one(pinned):
                return nbrs  # cannot fit: serve without memoizing
        self.store[i] = nbrs
        self.cap -= d
        heapq.heappush(self._heap, (d, i))
        return nbrs

    def evict(self, i: int) -> None:
        """Permanently drop hyperedge i's memoized neighbors, if present."""
        if i in self.store:
            del self.store[i]
            self.cap += self.degrees[i]


def memo_get(
    store: MemoizedNeighborStore, i: int, pinned: frozenset[int] = frozenset()
) -> dict[int, int]:
    return store.get(i, pinned)
