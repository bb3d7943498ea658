"""Weighted line graph of a hypergraph, plus a budget-bounded neighbor store.

Hyperedges become vertices; two are adjacent iff they share a node, with
edge weight equal to the overlap size. One row kernel, neighbor_rows,
computes the rows of any hyperedges in one ragged gather over the incidence
lists. Run over consecutive blocks of hyperedges, it yields the CSR line
graph (row pointers, sorted neighbor indices, overlap weights) and the
line-graph degrees, neither depending on any worker count; without the line
graph, the memoized store serves its rows on demand under a total-entry
budget, evicting lowest-degree hyperedges first (ties broken toward the
lower index).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

import numpy as np

from .hypergraph import Hypergraph

# Member-incidence pairs per neighbor_rows call while the line graph is
# built, or while the degrees are counted; each bounds its pass's temporaries.
BUILD_BLOCK = 1 << 13
DEGREE_BLOCK = 1 << 12
# Line-graph rows per csv_rows call in dump_line_graph: bounds the text
# matrix, about 20 bytes a row, whatever the size of the line graph.
DUMP_BLOCK = 1 << 16


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


def csv_rows(*columns: np.ndarray) -> str:
    """Rows of integer columns (values in [0, 2**32)) as CSV lines, the text
    "".join(f"{a},{b},...\\n") gives, formatted at once: each column's digits
    fill its positions of a uint8 matrix, leading zeros as zero bytes, and
    the matrix is read back row-major without the zero bytes."""
    values = [np.asarray(c).astype(np.uint32) for c in columns]
    widths = [len(str(int(v.max()))) if len(v) else 1 for v in values]
    text = np.empty((len(values[0]), sum(widths) + len(values)), np.uint8)
    end = 0
    for v, width in zip(values, widths):
        end += width
        for p in range(end - 1, end - width - 1, -1):
            digit = v % 10 + ord("0")
            if p < end - 1:  # a leading zero is dropped, a value 0 keeps its one
                digit *= v > 0
            text[:, p] = digit
            v = v // 10
        text[:, end] = ord(",")
        end += 1
    text[:, -1] = ord("\n")
    return text[text != 0].tobytes().decode("ascii")


def ragged_ranges(
    starts: np.ndarray, stops: np.ndarray, block: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """ragged_range(starts, stops) in pieces of at most `block` pairs: one
    piece, without splitting, when all of them fit."""
    lengths = stops - starts
    if lengths.sum() <= block:
        yield ragged_range(starts, stops)
        return
    for group in blocks(lengths, block):
        owner, pos = ragged_range(starts[group], stops[group])
        owner += group.start
        for first in range(0, len(owner), block):
            yield owner[first : first + block], pos[first : first + block]


@dataclass(frozen=True, eq=False)
class LineGraph:
    """CSR line graph: row i's neighbors are indices[indptr[i]:indptr[i + 1]],
    in ascending order, with overlap sizes in the same positions of weights.
    indices and weights are int32, indptr int32 unless it needs int64.
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
        keys = self.keys
        query = np.asarray(i, dtype=keys.dtype) * keys.dtype.type(self.num_edges) + j
        if not len(keys):
            return np.zeros_like(query)
        pos, found = find(keys, query)
        return self.weights[pos] * found


def neighbor_rows(h: Hypergraph, ids) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Line-graph rows of the hyperedges `ids` in one ragged gather over the
    CSR arrays, as ragged arrays (owner, neighbor, weight) sorted by owner,
    a position in `ids`, then neighbor; a repeated id gets a row each."""
    ids = np.asarray(ids, dtype=np.int64)
    owner, pos = ragged_range(h.edge_ptr[ids], h.edge_ptr[ids + 1])
    nodes = h.edge_nodes[pos]
    at, pos = ragged_range(h.node_ptr[nodes], h.node_ptr[nodes + 1])
    owner, nbr = owner[at], h.node_edges[pos]
    keep = nbr != ids[owner]
    n = h.num_edges
    dtype = np.int32 if len(ids) * n < 1 << 31 else np.int64
    keys = np.sort(owner[keep].astype(dtype) * n + nbr[keep])
    first = np.flatnonzero(np.diff(keys, prepend=-1))
    owner, nbr = np.divmod(keys[first], n)
    weight = np.diff(first, append=len(keys)).astype(np.int32)
    return owner.astype(np.int32), nbr.astype(np.int32), weight


def hyperedge_neighbors(h: Hypergraph, i: int) -> dict[int, int]:
    """Neighbor map of hyperedge i (adjacent index -> overlap size)."""
    if not 0 <= i < h.num_edges:
        raise IndexError(f"hyperedge index {i} out of range (|E|={h.num_edges})")
    _, nbr, weight = neighbor_rows(h, [i])
    return dict(zip(nbr.tolist(), weight.tolist()))


def row_blocks(h: Hypergraph, limit: int) -> Iterator[tuple]:
    """(block, owner, neighbor, weight): neighbor_rows of the hyperedges in
    `block`, for consecutive blocks whose member-incidence pairs add up to
    about `limit`; owner counts from block.start."""
    cost = np.add.reduceat(np.diff(h.node_ptr)[h.edge_nodes], h.edge_ptr[:-1])
    for block in blocks(cost, limit):
        yield block, *neighbor_rows(h, np.arange(block.start, block.stop))


def line_degrees(h: Hypergraph) -> np.ndarray:
    """Line-graph degree of every hyperedge, read-only: the entries of each
    row, over row_blocks of DEGREE_BLOCK pairs."""
    degrees = np.zeros(h.num_edges, dtype=np.int64)
    for block, owner, _, _ in row_blocks(h, DEGREE_BLOCK):
        degrees[block] = np.bincount(owner, minlength=block.stop - block.start)
    degrees.flags.writeable = False
    return degrees


def hyperedge_degrees(h: Hypergraph, workers: int = 1) -> list[int]:
    """Line-graph degree of every hyperedge, without storing neighbor maps.

    The degrees are computed once per hypergraph and cached on it; `workers`
    is accepted for compatibility and has no effect.
    """
    return h.line_degrees.tolist()


def build_line_graph(h: Hypergraph, workers: int = 1) -> LineGraph:
    """Materialize the full weighted line graph: the rows of row_blocks of
    BUILD_BLOCK pairs, concatenated. `workers` is accepted for compatibility
    and has no effect.
    """
    lengths, indices, weights = [], [], []
    for block, owner, nbr, weight in row_blocks(h, BUILD_BLOCK):
        lengths.append(np.bincount(owner, minlength=block.stop - block.start))
        indices.append(nbr)
        weights.append(weight)
    indptr = np.concatenate([[0], np.cumsum(np.concatenate(lengths))])
    indptr = indptr.astype(np.int32 if indptr[-1] < 1 << 31 else np.int64)
    return LineGraph(indptr, np.concatenate(indices), np.concatenate(weights))


def dump_line_graph(lg: LineGraph, out) -> None:
    """CSV rows "i,j,weight" with i < j, formatted DUMP_BLOCK rows at a time."""
    out.write("i,j,weight\n")
    rows, cols = np.divmod(lg.keys, lg.num_edges)
    upper = rows < cols
    i, j, w = rows[upper], cols[upper], lg.weights[upper]
    for lo in range(0, len(i), DUMP_BLOCK):
        part = slice(lo, lo + DUMP_BLOCK)
        out.write(csv_rows(i[part], j[part], w[part]))


class MemoizedNeighborStore:
    """Neighbor rows memoized under a budget of total stored entries.

    The sum of line-graph degrees of memoized hyperedges never exceeds the
    budget. When space is needed, memoized hyperedges are evicted in
    ascending (degree, index) order, skipping pinned indices. A hyperedge
    whose degree exceeds what the budget can ever hold is computed but not
    stored.

    get(i) decides a lookup on integers alone (the memoized ids, the free
    capacity and a heap) and returns a slot, a handle to i's row; rows(slots)
    computes the rows missed since its last call in one neighbor_rows call
    and gathers the slots' rows. Rows live in one pool of (neighbor, weight)
    arrays, which drops the rows no longer memoized once they outnumber the
    memoized entries.
    """

    def __init__(self, h: Hypergraph, budget: int):
        if budget < 0:
            raise ValueError("budget must be non-negative")
        self.h = h
        self.budget = budget
        self.degrees = h.line_degrees.tolist()  # ints for get's per-lookup loop
        self.cap = budget
        self.store: dict[int, int] = {}  # memoized hyperedge -> its slot
        self._heap: list[tuple[int, int]] = []  # (degree, index), lazy deletion
        self.recomputations = self.hits = self.evictions = 0
        self._pending: list[int] = []  # hyperedges of the newest slots, not computed yet
        # slot s holds its row at [_ptr[s], _ptr[s + 1]) of _nbr and _wt
        self._ptr = np.zeros(1, dtype=np.int64)
        self._nbr = self._wt = np.zeros(0, dtype=np.int32)

    def _evict_one(self, pinned) -> bool:
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
            self.evictions += 1
            evicted = True
            break
        for item in parked:
            heapq.heappush(self._heap, item)
        return evicted

    def get(self, i: int, pinned=()) -> int:
        """Slot of hyperedge i's row, memoizing the row if the budget allows;
        `pinned` holds hyperedges this lookup must not evict. The slot is
        valid until the next rows() call."""
        slot = self.store.get(i)
        if slot is not None:
            self.hits += 1
            return slot
        slot = len(self._ptr) - 1 + len(self._pending)
        self._pending.append(i)
        self.recomputations += 1
        d = self.degrees[i]
        while self.cap < d:
            if not self._evict_one(pinned):
                return slot  # cannot fit: serve without memoizing
        self.store[i] = slot
        self.cap -= d
        heapq.heappush(self._heap, (d, i))
        return slot

    def rows(self, slots) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The rows of the given slots as ragged arrays (owner, neighbor,
        weight), owner being a position in `slots`, sorted by owner then
        neighbor."""
        if self._pending:
            owner, nbr, wt = neighbor_rows(self.h, self._pending)
            lengths = np.bincount(owner, minlength=len(self._pending))
            self._ptr = np.concatenate([self._ptr, self._ptr[-1] + np.cumsum(lengths)])
            self._nbr = np.concatenate([self._nbr, nbr])
            self._wt = np.concatenate([self._wt, wt])
            self._pending = []
        out = self._gather(slots)
        if len(self._nbr) > 2 * (self.budget - self.cap):  # keep the memoized rows
            owner, self._nbr, self._wt = self._gather(list(self.store.values()))
            lengths = np.bincount(owner, minlength=len(self.store))
            self._ptr = np.concatenate([[0], np.cumsum(lengths)])
            self.store = {i: slot for slot, i in enumerate(self.store)}
        return out

    def _gather(self, slots) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        slots = np.asarray(slots, dtype=np.int64)
        owner, pos = ragged_range(self._ptr[slots], self._ptr[slots + 1])
        return owner, self._nbr[pos], self._wt[pos]

    def evict(self, i: int) -> None:
        """Permanently drop hyperedge i's memoized row, if present."""
        if i in self.store:
            del self.store[i]
            self.cap += self.degrees[i]
            self.evictions += 1
