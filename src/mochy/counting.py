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
from itertools import chain
from typing import Callable, Iterable, Iterator

import numpy as np

from . import linegraph
from .catalog import BINARY, MotifMode, classify_batch
from .hypergraph import Hypergraph
from .linegraph import (
    LineGraph,
    MemoizedNeighborStore,
    blocks,
    find,
    hyperedge_degrees,
    ragged_range,
    ragged_ranges,
)

ALGORITHMS = ("exact", "edge-sample", "wedge-sample", "otf-basic", "otf-advanced")

# Most triples a candidate generator yields at once (or the triples of one
# hyperwedge, if those alone are more): bounds the kernel's temporaries
# whatever the size of the graph.
CHUNK = 4096

# A chunk of candidate triples: arrays i, j, k, w_ij, w_ik, w_jk.
Triples = tuple[np.ndarray, ...]


@dataclass
class CountVector:
    """Per-motif counts (exact Python ints or rescaled estimates) plus run info."""

    mode: MotifMode
    counts: list[int] | list[float]
    meta: dict = field(default_factory=dict)

    def __getitem__(self, motif_id: int) -> float:
        return self.counts[motif_id - 1]

    def __len__(self) -> int:
        return len(self.counts)

    def total(self) -> float:
        return sum(self.counts)

    def nonzero(self) -> dict[int, float]:
        return {t + 1: c for t, c in enumerate(self.counts) if c}


def _stream(seed: int, index: int) -> random.Random:
    # unique integer per (seed, index); Mersenne init hashes it internally
    return random.Random((seed << 64) ^ index)


def _draws(seed: int, indices: range, bound: int) -> np.ndarray:
    """_stream(seed, n).randrange(bound) for every n in indices, as an array.

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


# ---------------------------------------------------------------------------
# Candidate generators over the CSR line graph


def _pairs(lg: LineGraph, rows: np.ndarray, entries: np.ndarray) -> Iterator[Triples]:
    """For each CSR entry (i, j) in `entries`, i being the matching element of
    `rows`, the triples (i, j, k) with k a neighbor of i that comes after j."""
    indices, weights = lg.indices, lg.weights
    for owner, pos in ragged_ranges(entries + 1, lg.indptr[rows + 1], CHUNK):
        e = entries[owner]
        j, k = indices[e], indices[pos]
        yield rows[owner], j, k, weights[e], weights[pos], lg.weight(j, k)


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
        for triples in _pairs(lg, rows, entries):
            keep = (triples[5] == 0) | (triples[0] < triples[1])
            # rebound, so that the unfiltered chunk is freed while this one is used
            triples = tuple(x[keep] for x in triples)
            yield triples


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


def _memo_triples(wedges: Iterable[tuple[int, int, dict, dict]], n: int) -> Iterator[Triples]:
    """_merge_wedges over wedges (i, j, nbrs_i, nbrs_j) given with their
    endpoints' neighbor maps, in blocks whose maps hold about CHUNK entries."""

    def merge(block):
        i, j, maps_i, maps_j = zip(*block)
        w_ij = np.array([nbrs[b] for nbrs, b in zip(maps_i, j)])
        maps = maps_i + maps_j
        lengths = np.fromiter(map(len, maps), np.int64, len(maps))
        owner = np.repeat(np.arange(len(maps)), lengths)
        k = np.fromiter(chain.from_iterable(maps), np.int64, len(owner))
        w = np.fromiter(chain.from_iterable(map(dict.values, maps)), np.int64, len(owner))
        # one sort orders both endpoints' rows: owners of j's rows follow i's
        order = np.argsort(owner * n + k)
        owner, k, w = owner[order], k[order], w[order]
        split = int(lengths[: len(i)].sum())
        row_i = owner[:split], k[:split], w[:split]
        row_j = owner[split:] - len(i), k[split:], w[split:]
        return _merge_wedges(np.array(i), np.array(j), w_ij, row_i, row_j, n)

    block, size = [], 0
    for wedge in wedges:
        block.append(wedge)
        size += len(wedge[2]) + len(wedge[3])
        if size >= CHUNK:
            yield merge(block)
            block, size = [], 0
    if block:
        yield merge(block)


# ---------------------------------------------------------------------------
# Classification and tallies


def _triple_intersections(h: Hypergraph, i, j, k, closed) -> np.ndarray:
    """|e_i & e_j & e_k| where `closed` holds, else 0.

    Every generator yields the triples of one pair (i, j) consecutively. The
    nodes e_i and e_j share are found once per such run, by looking up the
    smaller hyperedge's members in the other; each closed triple then looks
    up only its pair's shared nodes in e_k.
    """
    out = np.zeros(len(i), dtype=np.int32)
    idx = np.flatnonzero(closed)
    if not len(idx):
        return out
    sizes, offsets, keys = h.member_arrays
    n = h.num_nodes
    a, b = i[idx], j[idx]
    new_pair = (np.diff(a, prepend=-1) != 0) | (np.diff(b, prepend=-1) != 0)
    first, pair_of = np.flatnonzero(new_pair), np.cumsum(new_pair) - 1
    a, b = a[first].astype(np.int64), b[first].astype(np.int64)
    a_small = sizes[a] <= sizes[b]
    small, other = np.where(a_small, a, b), np.where(a_small, b, a)
    shared = []
    for p, pos in ragged_ranges(offsets[small], offsets[small + 1], CHUNK):
        node = keys[pos] - small[p] * n
        hit = find(keys, other[p] * n + node)[1]
        shared.append((p[hit], node[hit]))
    p, node = (np.concatenate(x) for x in zip(*shared))
    bounds = np.searchsorted(p, np.arange(len(first) + 1))
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


def _tally(h: Hypergraph, mode: MotifMode, chunks: Iterable[Triples]) -> list[int]:
    """Per-motif instance tallies of the candidate triples, as Python ints."""
    counts = np.zeros(len(mode.catalog()) + 1, dtype=np.int64)
    for triples in chunks:
        counts += np.bincount(_classify(h, mode, triples), minlength=len(counts))
    return counts[1:].tolist()


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
    meta = {
        "algorithm": "exact",
        "num_edges": h.num_edges,
        "num_wedges": lg.wedge_count,
        "workers": workers,
    }
    return CountVector(mode, _tally(h, mode, _exact_triples(lg)), meta)


class EnumerationAborted(RuntimeError):
    """Raised when the enumeration sink fails; carries the partial count."""

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
    for triples in _exact_triples(lg):
        ids = _classify(h, mode, triples)
        for row in zip(*(x.tolist() for x in triples[:3]), ids.tolist()):
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
    merged = _tally(h, mode, _edge_triples(lg, centers))
    scale = h.num_edges / (3 * s)
    meta = {
        "algorithm": "edge-sample",
        "num_edges": h.num_edges,
        "num_wedges": lg.wedge_count,
        "samples": s,
        "seed": seed,
        "workers": workers,
    }
    return CountVector(mode, [c * scale for c in merged], meta)


def _no_wedges(mode: MotifMode, algorithm: str, r: int, seed: int) -> CountVector:
    warnings.warn("hypergraph has no hyperwedges; estimate is all-zero")
    meta = {"algorithm": algorithm, "num_wedges": 0, "samples": r, "seed": seed}
    return CountVector(mode, [0.0] * len(mode.catalog()), meta)


def _rescale_wedge_estimate(counts: list[int], mode: MotifMode, wedges: int, r: int):
    catalog = mode.catalog()
    open_scale = wedges / (2 * r)
    closed_scale = wedges / (3 * r)
    return [
        c * (open_scale if is_open else closed_scale)
        for c, is_open in zip(counts, catalog.open_flags)
    ]


def _wedge_draws(seed: int, draws: range, prefix: np.ndarray):
    """Uniform hyperwedges for the given sample indices, as arrays (i, pos):
    a degree-weighted endpoint i, then the position of the other endpoint
    among i's sorted neighbors. prefix holds the cumulative degrees from 0."""
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
    if wedges == 0:
        return _no_wedges(mode, "wedge-sample", r, seed)
    i, pos = _wedge_draws(seed, range(r), lg.indptr)
    entries = lg.indptr[i] + pos
    merged = _tally(h, mode, _wedge_triples(lg, i, lg.indices[entries], lg.weights[entries]))
    meta = {
        "algorithm": "wedge-sample",
        "num_edges": h.num_edges,
        "num_wedges": wedges,
        "samples": r,
        "seed": seed,
        "workers": workers,
    }
    return CountVector(mode, _rescale_wedge_estimate(merged, mode, wedges, r), meta)


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
    neighborhoods are then computed on demand by one store of at most
    `budget` entries. The basic variant processes samples in draw order; the
    advanced variant groups wedges by their higher-(degree, index) endpoint,
    processes groups in descending order, and permanently evicts each
    group's key afterwards. Triples go through count_sample_hyperwedge's
    merge, so estimates are bit-identical to it at the same seed. `workers`
    changes no result and no work. meta counts the store's misses
    (recomputations) and every neighbor map computed, the advanced grouping
    pass's one per draw included (neighbor_computations).
    """
    if r < 1:
        raise ValueError("sample count r must be >= 1")
    if budget < 0:
        raise ValueError("budget must be non-negative")
    if variant not in {"basic", "advanced"}:
        raise ValueError(f"unknown on-the-fly variant {variant!r}")
    degrees = hyperedge_degrees(h, workers=workers)
    prefix = np.cumsum([0, *degrees])
    wedges = int(prefix[-1]) // 2
    if wedges == 0:
        return _no_wedges(mode, f"otf-{variant}", r, seed)
    store = MemoizedNeighborStore(h, budget, degrees)
    draws = zip(*(x.tolist() for x in _wedge_draws(seed, range(r), prefix)))

    def resolve(pairs):
        for i, j in pairs:
            pinned = frozenset((i, j))
            yield i, j, store.get(i, pinned), store.get(j, pinned)

    def basic():
        # lazy, so that each draw finds j right before its wedge's two gets
        pairs = ((i, sorted(store.get(i, frozenset((i,))))[pos]) for i, pos in draws)
        yield from resolve(pairs)

    def advanced():
        groups: dict[int, list[tuple[int, int]]] = {}
        for i, pos in draws:
            # called through the module, as the store calls it: one patch sees every call
            j = sorted(linegraph.hyperedge_neighbors(h, i))[pos]
            key = i if (degrees[i], i) > (degrees[j], j) else j
            groups.setdefault(key, []).append((i, j))
        for key in sorted(groups, key=lambda e: (degrees[e], e), reverse=True):
            yield from resolve(groups[key])
            store.evict(key)

    scan = basic() if variant == "basic" else advanced()
    merged = _tally(h, mode, _memo_triples(scan, h.num_edges))
    meta = {
        "algorithm": f"otf-{variant}",
        "num_edges": h.num_edges,
        "num_wedges": wedges,
        "samples": r,
        "seed": seed,
        "workers": workers,
        "budget": budget,
        "recomputations": store.recomputations,
        "neighbor_computations": store.recomputations + (r if variant == "advanced" else 0),
    }
    return CountVector(mode, _rescale_wedge_estimate(merged, mode, wedges, r), meta)


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


def pair_overlap_stats(
    h: Hypergraph,
    lg: LineGraph,
    mode: MotifMode = BINARY,
    max_instances: int = 100_000,
) -> PairOverlapStats:
    """Brute-force overlap statistics for variance validation.

    Enumerates all instances and all same-motif instance pairs; refuses when
    the instance count exceeds max_instances.
    """
    by_motif: dict[int, list[tuple[int, int, int]]] = {}
    seen = 0

    def sink(i, j, k, t):
        nonlocal seen
        seen += 1
        if seen > max_instances:
            raise InstanceCapExceeded(
                f"more than {max_instances} instances; raise max_instances to proceed"
            )
        by_motif.setdefault(t, []).append((i, j, k))

    try:
        enumerate_instances(h, lg, sink, mode)
    except EnumerationAborted as exc:
        raise exc.__cause__ from None
    p = {}
    q = {}
    for t, triples in by_motif.items():
        p_l = [0, 0, 0]
        q_n = [0, 0]
        tsets = [frozenset(tr) for tr in triples]
        for x in range(len(tsets)):
            for y in range(x + 1, len(tsets)):
                shared = tsets[x] & tsets[y]
                l = len(shared)
                p_l[l] += 1
                if l == 2:
                    a, b = sorted(shared)
                    q_n[1 if lg.weight(a, b) else 0] += 1
                else:
                    q_n[0] += 1
        p[t] = tuple(p_l)
        q[t] = tuple(q_n)
    return PairOverlapStats(
        mode=mode, counts={t: len(v) for t, v in by_motif.items()}, p=p, q=q
    )


def estimator_variance(
    count: float,
    stats: PairOverlapStats,
    motif_id: int,
    samples: int,
    population: int,
    estimator: str,
) -> float:
    """Closed-form variance of the requested estimator for one motif.

    The pair sums use ordered instance pairs, i.e. twice the unordered
    tallies held by PairOverlapStats.
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
    if estimator == "edge":
        pairs = stats.p.get(motif_id, (0, 0, 0))
        var = count * (population - 3) / (3 * samples)
        var += sum(
            2 * p_l * (l * population - 9) for l, p_l in enumerate(pairs)
        ) / (9 * samples)
        return var
    pairs = stats.q.get(motif_id, (0, 0))
    if stats.mode.catalog().is_open(motif_id):
        var = count * (population - 2) / (2 * samples)
        var += sum(
            2 * q_n * (n * population - 4) for n, q_n in enumerate(pairs)
        ) / (4 * samples)
    else:
        var = count * (population - 3) / (3 * samples)
        var += sum(
            2 * q_n * (n * population - 9) for n, q_n in enumerate(pairs)
        ) / (9 * samples)
    return var


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
    if epsilon <= 0 or delta <= 0:
        raise ValueError("epsilon and delta must be positive")
    if count <= 0:
        raise ValueError("bound undefined for motifs with zero instances")
    if estimator not in {"edge", "wedge"}:
        raise ValueError(f"unknown estimator {estimator!r}")
    log_term = math.log(2 / delta)
    if estimator == "edge":
        ratio = population * d_max * d_max / count
        bound = ratio * ratio * log_term / (18 * epsilon * epsilon)
    else:
        ratio = population * d_max / count
        constant = 8 if is_open else 18
        bound = ratio * ratio * log_term / (constant * epsilon * epsilon)
    return math.ceil(bound) + 1
