"""Motif-instance counting: exact, enumerative, sampling, and on-the-fly.

Every engine is one sequential, chunked numpy pass in three steps: a
candidate generator yields hyperedge triples (i, j, k) with their pairwise
overlaps as arrays of about CHUNK triples, catalog.classify_batch maps
each chunk to motif ids, and np.bincount tallies them. Tallies are integers,
so exact counts are exact Python ints and sampling estimators rescale once
at the end. No result depends on `workers`: it is accepted and recorded in
`meta`, and only the on-the-fly estimators use it, to split their draws and
memo budget into that many consecutive chunks with a store each. Each
sample index draws from its own RNG stream derived from (seed, index).
"""

from __future__ import annotations

import math
import random
import warnings
from array import array
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

import numpy as np

from .catalog import BINARY, MotifMode, classify_batch
from .hypergraph import Hypergraph
from .linegraph import (
    LineGraph,
    MemoizedNeighborStore,
    blocks,
    find,
    hyperedge_degrees,
    hyperedge_neighbors,
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


def _chunks(n: int, workers: int) -> list[range]:
    workers = max(1, min(workers, n)) if n else 1
    bounds = [round(n * w / workers) for w in range(workers + 1)]
    return [range(a, b) for a, b in zip(bounds, bounds[1:]) if a < b]


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


def _wedge_triples(lg: LineGraph, i, j, w_ij, inner: bool = True) -> Iterator[Triples]:
    """Every instance containing the hyperwedge {e_i, e_j} once, per wedge:
    k runs over the neighbors of i other than j (only if `inner`), then over
    the neighbors of j that are neither i nor adjacent to i.

    Wedges go in blocks whose two neighbor lists hold at most CHUNK entries
    together, one chunk per block; a block finds w_jk and the neighbors
    shared by i and j by merging its own two sorted lists, not by lookups in
    the whole line graph.
    """
    indptr, indices, weights, n = lg.indptr, lg.indices, lg.weights, lg.num_edges
    for block in blocks(indptr[i + 1] - indptr[i] + indptr[j + 1] - indptr[j], CHUNK):
        bi, bj, bw = i[block], j[block], w_ij[block]
        own_i, pos_i = ragged_range(indptr[bi], indptr[bi + 1])
        own_j, pos_j = ragged_range(indptr[bj], indptr[bj + 1])
        k_i, k_j = indices[pos_i], indices[pos_j]
        # int64: a block's wedge count times num_edges can pass 2**31
        key_i = own_i.astype(np.int64) * n + k_i
        key_j = own_j.astype(np.int64) * n + k_j
        # one merge: where each neighbor of j sits among the neighbors of i
        at, common = find(key_i, key_j)
        keep = ~common & (k_j != bi[own_j])
        w_jk = weights[pos_j[keep]]
        parts = [(own_j[keep], k_j[keep], np.zeros_like(w_jk), w_jk)]
        if inner:
            w_jk = np.zeros(len(key_i), weights.dtype)
            w_jk[at[common]] = weights[pos_j[common]]
            keep = k_i != bj[own_i]
            parts.insert(0, (own_i[keep], k_i[keep], weights[pos_i[keep]], w_jk[keep]))
        own, k, w_ik, w_jk = (np.concatenate(x) for x in zip(*parts))
        yield bi[own], bj[own], k, bw[own], w_ik, w_jk


def _map_triples(wedges: Iterable[tuple[int, int, dict, dict]]) -> Iterator[Triples]:
    """The triples _wedge_triples yields, gathered from the neighbor maps of
    each (i, j, nbrs_i, nbrs_j) instead of from a line graph."""
    cols = [array("q") for _ in range(6)]
    for i, j, nbrs_i, nbrs_j in wedges:
        inner = [k for k in nbrs_i if k != j]
        outer = [k for k in nbrs_j if k != i and k not in nbrs_i]
        n = len(inner) + len(outer)
        for col, values in zip(cols, (
            [i] * n, [j] * n, inner + outer, [nbrs_i[j]] * n,
            [nbrs_i[k] for k in inner] + [0] * len(outer),
            [nbrs_j.get(k, 0) for k in inner] + [nbrs_j[k] for k in outer],
        )):
            col.extend(values)
        if len(cols[2]) >= CHUNK:
            yield tuple(np.frombuffer(c, dtype=np.int64) for c in cols)
            cols = [array("q") for _ in range(6)]
    if cols[2]:
        yield tuple(np.frombuffer(c, dtype=np.int64) for c in cols)


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
    neighborhoods are then computed on demand under the memoization budget.
    The draws are split into `workers` consecutive chunks, each with its own
    store holding budget // chunks entries. The basic variant processes
    samples in draw order; the advanced variant groups wedges by their
    higher-(degree, index) endpoint, processes groups in descending order,
    and permanently evicts each group's key afterwards. Estimates are
    bit-identical to count_sample_hyperwedge at the same seed.
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
    chunk_list = _chunks(r, workers)
    chunk_budget = budget // len(chunk_list) if len(chunk_list) > 1 else budget
    stores: list[MemoizedNeighborStore] = []

    def basic(store, chunk: range):
        for i, pos in zip(*(x.tolist() for x in _wedge_draws(seed, chunk, prefix))):
            pin = frozenset((i,))
            j = sorted(store.get(i, pin))[pos]
            pinned = frozenset((i, j))
            yield i, j, store.get(i, pinned), store.get(j, pinned)

    def advanced(store, chunk: range):
        groups: dict[int, list[tuple[int, int]]] = {}
        for i, pos in zip(*(x.tolist() for x in _wedge_draws(seed, chunk, prefix))):
            j = sorted(hyperedge_neighbors(h, i))[pos]
            key = i if (degrees[i], i) > (degrees[j], j) else j
            groups.setdefault(key, []).append((i, j))
        for key in sorted(groups, key=lambda e: (degrees[e], e), reverse=True):
            for i, j in groups[key]:
                pinned = frozenset((i, j))
                yield i, j, store.get(i, pinned), store.get(j, pinned)
            store.evict(key)

    def wedge_maps():
        scan = basic if variant == "basic" else advanced
        for chunk in chunk_list:
            stores.append(MemoizedNeighborStore(h, chunk_budget, degrees))
            yield from scan(stores[-1], chunk)

    merged = _tally(h, mode, _map_triples(wedge_maps()))
    meta = {
        "algorithm": f"otf-{variant}",
        "num_edges": h.num_edges,
        "num_wedges": wedges,
        "samples": r,
        "seed": seed,
        "workers": workers,
        "budget": budget,
        "recomputations": sum(s.recomputations for s in stores),
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
