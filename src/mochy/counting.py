"""Motif-instance counting: exact, enumerative, sampling, and on-the-fly.

Every engine is one sequential, chunked numpy pass in three steps: a
candidate generator yields hyperedge triples (i, j, k) with their pairwise
overlaps as arrays of about CHUNK triples, catalog.classify_batch maps
each chunk to motif ids, and np.bincount tallies them. Tallies are integers,
so exact counts are exact Python ints and sampling estimators rescale once
at the end. `workers` changes no result and no work: it is accepted and
recorded in `meta` only. Each sample index draws from its own RNG stream
derived from (seed, index).
"""

from __future__ import annotations

import math
import random
import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterable, Iterator

import numpy as np

from .catalog import BINARY, MotifMode, classify_batch
from .hypergraph import Hypergraph, _run_starts
from .linegraph import (
    LineGraph,
    MemoizedNeighborStore,
    blocks,
    find,
    ragged_range,
    ragged_ranges,
)

ALGORITHMS = ("exact", "edge-sample", "wedge-sample", "otf-basic", "otf-advanced")

# Most triples a candidate generator yields at once (or the triples of one
# hyperwedge, if those alone are more): bounds the kernel's temporaries
# whatever the size of the graph.
CHUNK = 8192

# _draws replays the seeding of LANE_MIN sample streams or more at once,
# LANE_BLOCK streams at a time, and keeps each stream's first LANE_WORDS
# output words. The replay costs ~8 ms plus ~1.3 us per stream, reseeding
# ~7.3 us per stream: both took ~11 ms for 1,500 streams (2-core x86-64,
# Python 3.11, numpy 2.4).
LANE_MIN = 1600
LANE_BLOCK = 1 << 16
LANE_WORDS = 8

# A chunk of candidate triples: arrays i, j, k, w_ij, w_ik, w_jk.
Triples = tuple[np.ndarray, ...]


@dataclass
class CountVector:
    """Per-motif counts (exact Python ints or rescaled estimates) plus run info."""

    mode: MotifMode
    counts: list[int] | list[float]
    meta: dict = field(default_factory=dict)

    def __getitem__(self, motif_id: int) -> float:
        if not 1 <= motif_id <= len(self.counts):
            raise IndexError(f"motif id {motif_id} lies outside 1..{len(self.counts)}")
        return self.counts[motif_id - 1]

    def __len__(self) -> int:
        return len(self.counts)

    def __iter__(self):
        return iter(self.counts)

    def total(self) -> float:
        return sum(self.counts)

    def nonzero(self) -> dict[int, float]:
        return {t + 1: c for t, c in enumerate(self.counts) if c}


def _stream(seed: int, index: int) -> random.Random:
    # unique integer per (seed, index); Mersenne init hashes it internally
    return random.Random((seed << 64) ^ index)


def _draws(seed: int, indices: range, bound: int) -> np.ndarray:
    """_stream(seed, n).randrange(bound) for every n in indices, as an array.

    From LANE_MIN indices on, the streams' seeding is replayed for blocks of
    LANE_BLOCK indices at once (_lane_draws). Fewer indices, a bound of
    2**32 or more (randrange then reads two words per try) or a seed outside
    [0, 2**64) reseed one generator per index (_reseed_draws).
    """
    lanes = (
        len(indices) >= LANE_MIN
        and 1 <= bound < 1 << 32
        and 0 <= seed < 1 << 64
        and 0 <= indices[0] <= indices[-1] < 1 << 64
    )
    if not lanes:
        return _reseed_draws(seed, indices, bound)
    out = np.empty(len(indices), np.int64)
    for start in range(0, len(indices), LANE_BLOCK):
        n = np.fromiter(indices[start : start + LANE_BLOCK], np.uint64)
        out[start : start + len(n)] = _lane_draws(seed, n, bound)
    return out


def _reseed_draws(seed: int, indices, bound: int) -> np.ndarray:
    """_draws for any sized sequence of indices, one index at a time.

    One generator is reseeded per index instead of built anew: its C-level
    seed is what random.Random(x) runs for an int x, and the draw repeats
    randrange's rejection sampling over getrandbits, so the values are equal.
    """
    rng = random.Random()
    reseed = super(random.Random, rng).seed
    bits = rng.getrandbits
    width = bound.bit_length()

    def draw(n: int) -> int:
        reseed((seed << 64) ^ n)
        r = bits(width)
        while r >= bound:
            r = bits(width)
        return r

    return np.fromiter(map(draw, indices), np.int64, count=len(indices))


# CPython's MT19937 (Modules/_randommodule.c): random.Random(x) for an int
# x >= 0 runs init_by_array on x's 32-bit words, low word first and at least
# one, starting from the init_genrand(19650218) state.
_MT_N, _MT_M = 624, 397


@lru_cache(maxsize=None)
def _genrand_table() -> tuple[np.uint32, ...]:
    """The state init_genrand(19650218) leaves: init_by_array's start."""
    mt = [19650218]
    for i in range(1, _MT_N):
        mt.append((1812433253 * (mt[-1] ^ mt[-1] >> 30) + i) & 0xFFFFFFFF)
    return tuple(map(np.uint32, mt))


def _key_terms(seed: int, n: np.ndarray) -> list:
    """init_by_array's term key[j] + j for the keys (seed << 64) ^ n, where
    step s of its first pass reads term s % len(terms). A seed of 0 mixes
    one-word keys (n < 2**32) and two-word ones, so its terms take key[0]
    at odd steps for the one-word keys."""
    lo, hi = n.astype(np.uint32), (n >> np.uint64(32)).astype(np.uint32)
    if not seed:
        return [lo, np.where(hi > 0, hi + np.uint32(1), lo)]
    words = [seed & 0xFFFFFFFF, seed >> 32][: 1 if seed < 1 << 32 else 2]
    seed_terms = [np.uint32((w + j) & 0xFFFFFFFF) for j, w in enumerate(words, start=2)]
    return [lo, hi + np.uint32(1), *seed_terms]


def _lane_draws(seed: int, n: np.ndarray, bound: int) -> np.ndarray:
    """_stream(seed, x).randrange(bound) for each x in the uint64 array n,
    with 1 <= bound < 2**32 and 0 <= seed < 2**64, one numpy lane per x.

    init_by_array's first pass runs once to find its final word at position
    1 (which its last step rewrites), then again in lockstep with the second
    pass, which reads the first pass's word at the position it writes; so a
    lane holds a few words, never its 624-word state. The second pass's
    words at positions 2..LANE_WORDS and 397..396 + LANE_WORDS are kept:
    they give the first LANE_WORDS output words of the twist, which are
    tempered and cut to bound's width. A lane takes its first word below
    bound, as randrange does; a lane with none is drawn by _reseed_draws.
    """
    table, terms = _genrand_table(), _key_terms(seed, n)
    period, u32 = len(terms), np.uint32
    rshift, xor, mul = np.right_shift, np.bitwise_xor, np.multiply
    add, sub = np.add, np.subtract
    c30, index = u32(30), tuple(map(u32, range(_MT_N)))
    mult = np.array([[1664525], [1566083941]], u32)
    keep = set(range(2, LANE_WORDS + 1)) | set(range(_MT_M, _MT_M + LANE_WORDS))
    # first pass, mt[i] = (mt[i] ^ (mt[i-1] ^ mt[i-1] >> 30) * 1664525) + key[j] + j
    word = np.full(len(n), table[0])
    tmp = np.empty_like(word)
    for i in range(1, _MT_N):
        rshift(word, c30, out=tmp)
        xor(tmp, word, out=tmp)
        mul(tmp, mult[0], out=tmp)
        xor(tmp, table[i], out=tmp)
        add(tmp, terms[(i - 1) % period], out=word)
        if i == 1:
            first = word.copy()
    # ... whose 624th step wraps to position 1, after mt[0] = mt[623]
    second = (first ^ (word ^ word >> c30) * mult[0]) + terms[(_MT_N - 1) % period]
    # row p replays the first pass, row q runs the second:
    # mt[i] = (mt[i] ^ (mt[i-1] ^ mt[i-1] >> 30) * 1566083941) - i
    rows = np.stack([first, second])
    tmp = np.empty_like(rows)
    (p, q), (tp, tq) = rows, tmp
    final = {}
    for i in range(2, _MT_N):
        rshift(rows, c30, out=tmp)
        xor(tmp, rows, out=tmp)
        mul(tmp, mult, out=tmp)
        xor(tp, table[i], out=tp)
        add(tp, terms[(i - 1) % period], out=p)
        xor(tq, p, out=tq)
        sub(tq, index[i], out=q)
        if i in keep:
            final[i] = q.copy()
    # its last step wraps to position 1 too; then mt[0] = 0x80000000
    final[1] = (second ^ (q ^ q >> c30) * mult[1]) - index[1]
    final[0] = u32(0x80000000)
    out = np.zeros(len(n), np.int64)
    pending = np.ones(len(n), bool)
    cut = u32(32 - bound.bit_length())
    for k in range(LANE_WORDS):
        y = final[k] & u32(0x80000000) | final[k + 1] & u32(0x7FFFFFFF)
        w = final[k + _MT_M] ^ y >> u32(1) ^ (y & u32(1)) * u32(0x9908B0DF)
        w ^= w >> u32(11)
        w ^= w << u32(7) & u32(0x9D2C5680)
        w ^= w << u32(15) & u32(0xEFC60000)
        w ^= w >> u32(18)
        w >>= cut
        hit = pending & (w < bound)
        out[hit] = w[hit]
        pending &= ~hit
    rest = np.flatnonzero(pending)
    out[rest] = _reseed_draws(seed, n[rest].tolist(), bound)
    return out


# ---------------------------------------------------------------------------
# Candidate generators over the CSR line graph


def _pairs(
    lg: LineGraph, rows: np.ndarray, entries: np.ndarray, exact: bool = False
) -> Iterator[Triples]:
    """For each CSR entry (i, j) in `entries`, i being the matching element of
    `rows`, the triples (i, j, k) with k a neighbor of i that comes after j;
    with `exact`, only those _exact_triples keeps, filtered before the
    overlaps w_ij and w_ik are gathered."""
    indices, weights = lg.indices, lg.weights
    for owner, pos in ragged_ranges(entries + 1, lg.indptr[rows + 1], CHUNK):
        e = entries[owner]
        i, j, k = rows[owner], indices[e], indices[pos]
        w_jk = lg.weight(j, k)
        if exact:
            keep = np.flatnonzero((w_jk == 0) | (i < j))
            i, j, k, w_jk, e, pos = (x[keep] for x in (i, j, k, w_jk, e, pos))
        yield i, j, k, weights[e], weights[pos], w_jk


def _row_entries(lg: LineGraph, rows: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The CSR entries of the given rows, as (row, entry) arrays, for groups
    of rows whose entries and neighbor pairs add up to at most CHUNK (a row
    with more is a group of its own)."""
    indptr = lg.indptr
    deg = (indptr[rows + 1] - indptr[rows]).astype(np.int64)
    for group in blocks(deg * (deg + 1) // 2, CHUNK):
        owner, entries = ragged_range(indptr[rows[group]], indptr[rows[group] + 1])
        yield rows[group][owner], entries


def _exact_triples(lg: LineGraph) -> Iterator[Triples]:
    """Every motif instance once: for each hyperedge i and neighbors j < k,
    the triple is kept iff e_j and e_k are disjoint or i is the smallest
    index. Row-major order, as enumerate_instances emits it."""
    for rows, entries in _row_entries(lg, np.arange(lg.num_edges, dtype=np.int32)):
        yield from _pairs(lg, rows, entries, exact=True)


def _edge_triples(lg: LineGraph, centers: np.ndarray) -> Iterator[Triples]:
    """Every instance containing a center hyperedge e, once per occurrence of
    e in `centers`: pairs of e's neighbors, plus the triples closed through a
    neighbor j against some k adjacent to j but not to e."""
    for rows, entries in _row_entries(lg, centers):
        yield from _pairs(lg, rows, entries)
        yield from _wedge_triples(lg, rows, lg.indices[entries], lg.weights[entries], inner=False)


def _merge_wedges(i, j, w_ij, row_i, row_j, n: int, inner: bool = True) -> Triples:
    """Every instance containing the hyperwedge {e_i, e_j} once, for a block
    of wedges (i, j, w_ij): k runs over the neighbors of i other than j (only
    if `inner`), then over the neighbors of j that are neither i nor adjacent
    to i. Each endpoint's rows are ragged arrays (owner, neighbor, weight),
    owner being the wedge's position in the block, sorted by owner then
    neighbor (< n); merging them finds w_jk and the neighbors i and j share.
    """
    own_i, k_i, wt_i = row_i
    own_j, k_j, wt_j = row_j
    # int64: a block's wedge count times n can pass 2**31
    key_i = own_i.astype(np.int64) * n + k_i
    key_j = own_j.astype(np.int64) * n + k_j
    # one merge: where each neighbor of j sits among the neighbors of i
    at, common = find(key_i, key_j)
    keep = ~common & (k_j != i[own_j])
    w_jk = wt_j[keep]
    parts = [(own_j[keep], k_j[keep], np.zeros_like(w_jk), w_jk)]
    if inner:
        w_jk = np.zeros(len(key_i), wt_j.dtype)
        w_jk[at[common]] = wt_j[common]
        keep = k_i != j[own_i]
        parts.insert(0, (own_i[keep], k_i[keep], wt_i[keep], w_jk[keep]))
    own, k, w_ik, w_jk = (np.concatenate(x) for x in zip(*parts))
    return i[own], j[own], k, w_ij[own], w_ik, w_jk


def _wedge_triples(lg: LineGraph, i, j, w_ij, inner: bool = True) -> Iterator[Triples]:
    """_merge_wedges over the wedges (i, j, w_ij) of the line graph, in blocks
    whose two neighbor rows hold at most CHUNK entries together."""
    indptr, indices, weights = lg.indptr, lg.indices, lg.weights
    for block in blocks(indptr[i + 1] - indptr[i] + indptr[j + 1] - indptr[j], CHUNK):
        bi, bj = i[block], j[block]
        rows = []
        for e in (bi, bj):
            owner, pos = ragged_range(indptr[e], indptr[e + 1])
            rows.append((owner, indices[pos], weights[pos]))
        yield _merge_wedges(bi, bj, w_ij[block], *rows, lg.num_edges, inner)


# ---------------------------------------------------------------------------
# Classification and tallies


def _triple_intersections(h: Hypergraph, i, j, k, closed) -> np.ndarray:
    """|e_i & e_j & e_k| where `closed` holds, else 0.

    Every generator yields the triples of one pair (i, j) consecutively. The
    nodes e_i and e_j share are found once per such run, by looking up the
    smaller hyperedge's members in the other; each closed triple then looks
    up only its pair's shared nodes in e_k. Each of the two phases is one
    ragged range of lookups, split into pieces only beyond CHUNK lookups.
    """
    out = np.zeros(len(i), dtype=np.int32)
    idx = np.flatnonzero(closed)
    if not len(idx):
        return out
    sizes, keys = h.member_arrays
    ptr, n = h.edge_ptr, h.num_nodes
    a, b = i[idx], j[idx]
    new_pair = _run_starts(a) | _run_starts(b)
    first, pair_of = np.flatnonzero(new_pair), np.cumsum(new_pair) - 1
    a, b = a[first], b[first]
    a_small = sizes[a] <= sizes[b]
    small, other = np.where(a_small, a, b), np.where(a_small, b, a)
    shared = []
    for p, pos in ragged_ranges(ptr[small], ptr[small + 1], CHUNK):
        node = h.edge_nodes[pos]
        hit = find(keys, other[p].astype(np.int64) * n + node)[1]
        shared.append((p[hit], node[hit]))
    p, node = shared[0] if len(shared) == 1 else (np.concatenate(x) for x in zip(*shared))
    bounds = np.zeros(len(first) + 1, dtype=np.int64)
    np.cumsum(np.bincount(p, minlength=len(first)), out=bounds[1:])
    third = k[idx].astype(np.int64) * n
    for t, at in ragged_ranges(bounds[pair_of], bounds[pair_of + 1], CHUNK):
        hit = find(keys, third[t] + node[at])[1]
        out[idx] += np.bincount(t[hit], minlength=len(idx))
    return out


def _classify(h: Hypergraph, mode: MotifMode, triples: Triples) -> np.ndarray:
    i, j, k, w_ij, w_ik, w_jk = triples
    sizes = h.member_arrays[0]
    c_ijk = _triple_intersections(h, i, j, k, (w_ij > 0) & (w_ik > 0) & (w_jk > 0))
    return classify_batch(mode, (sizes[i], sizes[j], sizes[k]), w_ij, w_jk, w_ik, c_ijk)


def _instances(
    h: Hypergraph, lg: LineGraph, mode: MotifMode
) -> Iterator[tuple[np.ndarray, ...]]:
    """Every motif instance once, as chunks of arrays (i, j, k, motif_id) in
    _exact_triples' row-major order."""
    for triples in _exact_triples(lg):
        yield *triples[:3], _classify(h, mode, triples)


def _result(
    h: Hypergraph, mode: MotifMode, algorithm: str, chunks: Iterable[Triples],
    scale: tuple[float, float] | None = None, **fields,
) -> CountVector:
    """Every engine's CountVector: per-motif tallies of the candidate triples
    as Python ints, or times scale's (closed, open) factor by motif, and meta
    holding algorithm, num_edges, the engine's fields, then the number of
    triples classified."""
    catalog = mode.catalog()
    tally = np.zeros(len(catalog) + 1, dtype=np.int64)
    for triples in chunks:
        tally += np.bincount(_classify(h, mode, triples), minlength=len(tally))
    counts = tally[1:].tolist()
    if scale is not None:
        counts = [c * scale[is_open] for c, is_open in zip(counts, catalog.open_flags)]
    meta = {"algorithm": algorithm, "num_edges": h.num_edges, **fields}
    return CountVector(mode, counts, {**meta, "triples": int(tally.sum())})


# ---------------------------------------------------------------------------
# Exact counting and enumeration


def count_exact(
    h: Hypergraph, lg: LineGraph, mode: MotifMode = BINARY, workers: int = 1
) -> CountVector:
    """Exact per-motif instance counts, as Python ints.

    For every hyperedge e_i and unordered neighbor pair {e_j, e_k}, the triple
    is tallied iff e_j and e_k are disjoint or i is the smallest index, so
    each instance is counted exactly once.
    """
    fields = {"num_wedges": lg.wedge_count, "workers": workers}
    return _result(h, mode, "exact", _exact_triples(lg), **fields)


class EnumerationAborted(RuntimeError):
    """Raised when the enumeration sink, or a write of the enumerate command's
    CSV, fails; carries the count of instances emitted before it."""

    def __init__(self, partial_count: int):
        self.partial_count = partial_count
        super().__init__(f"enumeration sink failed after {partial_count} instances")


def enumerate_instances(
    h: Hypergraph, lg: LineGraph, sink: Callable[[int, int, int, int], None],
    mode: MotifMode = BINARY,
) -> int:
    """Invoke sink(i, j, k, motif_id) exactly once per motif instance.

    Returns the number of instances emitted. A sink exception aborts the
    walk, reporting the partial count.
    """
    emitted = 0
    for chunk in _instances(h, lg, mode):
        for row in zip(*(x.tolist() for x in chunk)):
            try:
                sink(*row)
            except Exception as exc:
                raise EnumerationAborted(emitted) from exc
            emitted += 1
    return emitted


# ---------------------------------------------------------------------------
# Sampling estimators


def count_sample_hyperedge(
    h: Hypergraph,
    lg: LineGraph,
    s: int,
    seed: int = 0,
    mode: MotifMode = BINARY,
    workers: int = 1,
) -> CountVector:
    """Unbiased estimate from s uniform hyperedge draws (with replacement).

    Each draw tallies every instance containing the drawn hyperedge once;
    final counts are rescaled by |E| / (3s).
    """
    if s < 1:
        raise ValueError("sample count s must be >= 1")
    if h.num_edges < 3:
        raise ValueError("hyperedge sampling needs at least 3 hyperedges")
    centers = _draws(seed, range(s), h.num_edges)
    scale = h.num_edges / (3 * s)
    fields = {"num_wedges": lg.wedge_count, "samples": s, "seed": seed, "workers": workers}
    return _result(h, mode, "edge-sample", _edge_triples(lg, centers), (scale, scale), **fields)


def _wedge_draws(seed: int, draws: range, prefix: np.ndarray):
    """Uniform hyperwedges for the given sample indices, as arrays (i, pos):
    a degree-weighted endpoint i, then the position of the other endpoint
    among i's sorted neighbors. prefix holds the cumulative degrees from 0.
    A graph without hyperwedges gets no draws, and a warning."""
    if not prefix[-1]:
        warnings.warn("hypergraph has no hyperwedges; estimate is all-zero")
        draws = range(0)
    m = _draws(seed, draws, int(prefix[-1]))
    i = np.searchsorted(prefix, m, side="right") - 1
    return i, m - prefix[i]


def count_sample_hyperwedge(
    h: Hypergraph,
    lg: LineGraph,
    r: int,
    seed: int = 0,
    mode: MotifMode = BINARY,
    workers: int = 1,
) -> CountVector:
    """Unbiased estimate from r uniform hyperwedge draws (with replacement).

    Each draw scans the neighbor union of the wedge endpoints; open motifs
    are rescaled by |wedges| / (2r), closed ones by |wedges| / (3r).
    """
    if r < 1:
        raise ValueError("sample count r must be >= 1")
    wedges = lg.wedge_count
    i, pos = _wedge_draws(seed, range(r), lg.indptr)
    entries = lg.indptr[i] + pos
    j, w_ij = lg.indices[entries], lg.weights[entries]
    scale = (wedges / (3 * r), wedges / (2 * r))
    fields = {"num_wedges": wedges, "samples": r, "seed": seed, "workers": workers}
    return _result(h, mode, "wedge-sample", _wedge_triples(lg, i, j, w_ij), scale, **fields)


def _second_endpoints(store, degrees, i, pos, variant: str):
    """(j, w_ij, lookup): each draw's other endpoint and overlap, the entry at
    pos in the row of i, and the store lookup that read that row. Basic looks
    up every draw in draw order, advanced each distinct i in order of first
    appearance; lookups go through the store in blocks of about CHUNK row
    entries."""
    if variant == "basic":
        lookup = np.arange(len(i))
    else:
        _, first, inverse = np.unique(i, return_index=True, return_inverse=True)
        lookup = np.argsort(np.argsort(first))[inverse]
    by_lookup = np.argsort(lookup, kind="stable")
    bounds = np.searchsorted(lookup[by_lookup], np.arange(lookup.max(initial=-1) + 2))
    ids = i[by_lookup[bounds[:-1]]]
    j, w_ij = np.empty(len(i), np.int32), np.empty(len(i), np.int32)
    for block in blocks(degrees[ids], CHUNK):
        _, nbr, wt = store.rows([store.get(e) for e in ids[block].tolist()])
        start = np.cumsum(degrees[ids[block]]) - degrees[ids[block]]
        d = by_lookup[bounds[block.start] : bounds[block.stop]]
        at = start[lookup[d] - block.start] + pos[d]
        j[d], w_ij[d] = nbr[at], wt[at]
    return j, w_ij, lookup


def _wedge_order(degrees, i, j, lookup, variant: str) -> tuple[np.ndarray, np.ndarray]:
    """The order in which the wedges (i, j) are processed and, in that order,
    the hyperedge to evict after each, or -1. Advanced groups wedges by their
    higher-(degree, index) endpoint in descending order and evicts it after
    its group; a group keeps its draws' lookup, then draw order."""
    if variant == "basic":
        return np.arange(len(i)), np.full(len(i), -1)
    i_wins = (degrees[i] > degrees[j]) | ((degrees[i] == degrees[j]) & (i > j))
    key = np.where(i_wins, i, j)
    order = np.lexsort((lookup, -key, -degrees[key]))
    key = key[order]
    return order, np.where(np.append(key[1:] != key[:-1], True), key, -1)


def _store_triples(store, degrees, i, j, w_ij, evict_after) -> Iterator[Triples]:
    """_merge_wedges over the wedges (i, j, w_ij) in order, in blocks whose
    two rows hold at most CHUNK entries together: a block's lookups (two per
    wedge, then its eviction) go through the store, then one rows() call."""
    get, evict = store.get, store.evict
    for block in blocks(degrees[i] + degrees[j], CHUNK):
        bi, bj = i[block], j[block]
        slots_i, slots_j = [], []
        for x, y, key in zip(bi.tolist(), bj.tolist(), evict_after[block].tolist()):
            slots_i.append(get(x, y))  # each lookup keeps the wedge's other row
            slots_j.append(get(y, x))
            if key >= 0:
                evict(key)
        owner, nbr, wt = store.rows(slots_i + slots_j)
        split = np.searchsorted(owner, len(bi))
        row_i = owner[:split], nbr[:split], wt[:split]
        row_j = owner[split:] - len(bi), nbr[split:], wt[split:]
        yield _merge_wedges(bi, bj, w_ij[block], row_i, row_j, store.h.num_edges)


def count_otf(
    h: Hypergraph,
    r: int,
    budget: int,
    seed: int = 0,
    variant: str = "basic",
    mode: MotifMode = BINARY,
    workers: int = 1,
) -> CountVector:
    """Hyperwedge-sampling estimate without a precomputed line graph.

    A light pre-pass finds line-graph degrees (hence the wedge count);
    neighbor rows are then computed on demand by one store of at most
    `budget` entries. Both variants first look up each draw's first
    endpoint to find the second one, basic once per draw, advanced once per
    distinct endpoint. Basic then processes the wedges in draw order;
    advanced groups them by their higher-(degree, index) endpoint, processes
    groups in descending order, and permanently evicts each group's key
    afterwards. Triples go through count_sample_hyperwedge's merge, so
    estimates are bit-identical to it at the same seed. `workers` changes no
    result and no work. The store computes every row, once per miss, so
    meta's recomputations (store misses) counts every neighbor-row
    computation; store_hits and store_evictions count the rest of its work.
    """
    if r < 1:
        raise ValueError("sample count r must be >= 1")
    if variant not in {"basic", "advanced"}:
        raise ValueError(f"unknown on-the-fly variant {variant!r}")
    store = MemoizedNeighborStore(h, budget)
    degrees = h.line_degrees
    prefix = np.concatenate([[0], np.cumsum(degrees)])
    wedges = int(prefix[-1]) // 2
    i, pos = _wedge_draws(seed, range(r), prefix)
    j, w_ij, lookup = _second_endpoints(store, degrees, i, pos, variant)
    order, evict_after = _wedge_order(degrees, i, j, lookup, variant)
    # only the ordered wedges stay alive through the wedge pass
    i, j, w_ij = i[order], j[order], w_ij[order]
    del pos, lookup, order
    chunks = _store_triples(store, degrees, i, j, w_ij, evict_after)
    scale = (wedges / (3 * r), wedges / (2 * r))
    fields = {"num_wedges": wedges, "samples": r, "seed": seed, "workers": workers}
    out = _result(h, mode, f"otf-{variant}", chunks, scale, **fields)
    out.meta.update(budget=budget, recomputations=store.recomputations,
                    store_hits=store.hits, store_evictions=store.evictions)
    return out


# ---------------------------------------------------------------------------
# Estimator-quality calculators


class InstanceCapExceeded(RuntimeError):
    """pair_overlap_stats refused to enumerate past its instance cap."""


@dataclass
class PairOverlapStats:
    """Per-motif unordered instance-pair tallies.

    p[t] = (p0, p1, p2): pairs of motif-t instances sharing 0/1/2 hyperedges.
    q[t] = (q0, q1): pairs sharing 0/1 hyperwedges.
    """

    mode: MotifMode
    counts: dict[int, int]
    p: dict[int, tuple[int, int, int]]
    q: dict[int, tuple[int, int]]


def _shared(motifs: np.ndarray, size: int, *columns: np.ndarray) -> list[int]:
    """Per motif id below size, the sum of C(c, 2) over the runs of c equal
    rows (motif, *columns)."""
    order = np.lexsort((*columns[::-1], motifs))
    new = [_run_starts(x[order]) for x in (motifs, *columns)]
    starts = np.flatnonzero(np.logical_or.reduce(new))
    c = np.diff(starts, append=len(order))
    out = np.zeros(size, dtype=np.int64)
    np.add.at(out, motifs[order[starts]], c * (c - 1) // 2)
    return out.tolist()


def pair_overlap_stats(
    h: Hypergraph,
    lg: LineGraph,
    mode: MotifMode = BINARY,
    max_instances: int = 100_000,
) -> PairOverlapStats:
    """Same-motif instance-pair statistics, counted without comparing pairs.

    With c_t(e) and c_t(a, b) the motif-t instances containing hyperedge e and
    pair {a, b}: p2 = sum C(c_t(a, b), 2), p1 = sum C(c_t(e), 2) - 2 p2 and
    p0 = C(N_t, 2) - p1 - p2, as two instances share at most two hyperedges;
    q1 is p2's sum over overlapping pairs, q0 = C(N_t, 2) - q1. Refuses past
    max_instances, which bounds the instance arrays held, not the time.
    """
    chunks, seen = [], 0
    for chunk in _instances(h, lg, mode):
        seen += len(chunk[0])
        if seen > max_instances:
            raise InstanceCapExceeded(
                f"more than {max_instances} instances; raise max_instances to proceed"
            )
        chunks.append(chunk)
    if not seen:
        return PairOverlapStats(mode, {}, {}, {})
    i, j, k, ids = (np.concatenate(x) for x in zip(*chunks))
    counts = np.bincount(ids).tolist()
    per_row = np.tile(ids, 3)
    a, b = np.concatenate([i, i, j]), np.concatenate([j, k, k])
    a, b = np.minimum(a, b), np.maximum(a, b)
    adjacent = lg.weight(a, b) > 0
    shared_edge = _shared(per_row, len(counts), np.concatenate([i, j, k]))
    shared_pair = _shared(per_row, len(counts), a, b)
    shared_wedge = _shared(per_row[adjacent], len(counts), a[adjacent], b[adjacent])
    p, q = {}, {}
    for t in np.flatnonzero(counts).tolist():
        total = math.comb(counts[t], 2)
        p2 = shared_pair[t]
        p1 = shared_edge[t] - 2 * p2
        p[t] = (total - p1 - p2, p1, p2)
        q[t] = (total - shared_wedge[t], shared_wedge[t])
    return PairOverlapStats(mode, {t: counts[t] for t in p}, p, q)


def estimator_variance(
    count: float,
    stats: PairOverlapStats,
    motif_id: int,
    samples: int,
    population: int,
    estimator: str,
) -> float:
    """Closed-form variance of the requested estimator for one motif.

    An instance is reached through c of the `population` sampled units: its
    3 hyperedges for the edge estimator, and for the wedge estimator its 3
    hyperwedges if the motif is closed, 2 if it is open. Pairs sharing n
    units are the p (edge) or q (wedge) tallies; the pair sums use ordered
    instance pairs, i.e. twice the unordered tallies held by PairOverlapStats.
    A count of 0 has variance 0.0; else a motif id outside the catalog, or a
    population below c, is a ValueError.
    """
    if estimator not in {"edge", "wedge"}:
        raise ValueError(f"unknown estimator {estimator!r}")
    if samples < 1:
        raise ValueError("sample count must be >= 1")
    if motif_id in stats.counts and stats.counts[motif_id] != count:
        raise ValueError(
            f"count {count} disagrees with enumerated count {stats.counts[motif_id]}"
        )
    if count == 0:
        return 0.0
    catalog = stats.mode.catalog()
    if not 1 <= motif_id <= len(catalog):
        raise ValueError(f"motif id {motif_id} lies outside the catalog of {len(catalog)} motifs")
    pairs = (stats.p if estimator == "edge" else stats.q).get(motif_id, ())
    c = 2 if estimator == "wedge" and catalog.is_open(motif_id) else 3
    if population < c:
        raise ValueError(f"population {population} is below the {c} units one instance holds")
    return count * (population - c) / (c * samples) + sum(
        2 * x * (n * population - c * c) for n, x in enumerate(pairs)
    ) / (c * c * samples)


def recommend_samples(
    epsilon: float,
    delta: float,
    d_max: int,
    count: float,
    population: int,
    estimator: str,
    is_open: bool = False,
) -> int:
    """Samples sufficient for a relative-error concentration guarantee.

    Returns one more than the ceiling of the Hoeffding-based bound; the edge
    estimator squares d_max inside the ratio, the wedge estimator does not,
    and open motifs enjoy a 1/8 constant instead of 1/18.
    """
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    if not 0 < delta < 1:
        raise ValueError("delta must be in (0, 1)")
    if not (d_max >= 1 and population >= 1):
        raise ValueError("d_max and population must be at least 1")
    if not math.isfinite(count):
        raise ValueError(f"count must be finite, not {count}")
    if count <= 0:
        raise ValueError("bound undefined for motifs with zero instances")
    if estimator not in {"edge", "wedge"}:
        raise ValueError(f"unknown estimator {estimator!r}")
    log_term = math.log(2 / delta)
    try:
        if estimator == "edge":
            ratio, constant = population * d_max * d_max / count, 18
        else:
            ratio, constant = population * d_max / count, 8 if is_open else 18
        return math.ceil(ratio * ratio * log_term / (constant * epsilon * epsilon)) + 1
    except (OverflowError, ZeroDivisionError):  # beyond the float range
        raise ValueError("the bound is too large to compute") from None
