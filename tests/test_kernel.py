"""Property tests of the batched triple kernel against independent oracles.

Every test patches the generators' chunk size to a few triples, so chunk
boundaries fall inside a hyperedge's neighbor row, inside a hyperwedge's
triples and inside the member lists scanned for triple intersections.
"""

import random
import tracemalloc
from bisect import bisect_right
from itertools import combinations, permutations
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from mochy import (
    MotifMode,
    build_line_graph,
    classify,
    count_exact,
    count_otf,
    count_sample_hyperedge,
    count_sample_hyperwedge,
    enumerate_instances,
    from_edge_sets,
)
from mochy import linegraph
from mochy.linegraph import LineGraph, hyperedge_neighbors
from mochy import counting
from mochy.counting import _draws, _stream

from conftest import edge_sets, oracle_count_vector, oracle_regions

KERNEL = settings(max_examples=40, deadline=None)


@st.composite
def hypergraphs(draw):
    """Up to 10 small hyperedges plus up to two hubs of 60 or more nodes."""
    num_nodes = draw(st.integers(60, 90))
    node = st.integers(0, num_nodes - 1)
    small = st.frozensets(node, min_size=1, max_size=6)
    hub = st.integers(60, num_nodes).flatmap(
        lambda size: st.permutations(range(num_nodes)).map(lambda p: frozenset(p[:size]))
    )
    edges = draw(st.lists(small, min_size=3, max_size=10, unique=True))
    edges += draw(st.lists(hub, max_size=2, unique=True))
    return from_edge_sets(sorted(set(edges), key=sorted))


chunks = st.integers(1, 9)
ternary_modes = st.one_of(
    st.builds(MotifMode, st.just("mr"), p=st.sampled_from([0.1, 0.25, 0.5, 0.7])),
    st.builds(
        MotifMode,
        st.just("hr"),
        p=st.sampled_from([0.1, 0.3, 0.5, 0.8]),
        sigma=st.sampled_from(["mean", "max", "min"]),
    ),
)


COVERING = ((0,), (1,), (2,), (0, 1), (1, 2), (0, 2), (0, 1, 2))


def oracle_id(a, b, c, mode):
    """Catalog id from sets alone: each region's ratio to the node union (mr)
    or the sigma of its ratios to the covering hyperedges (hr), minimized
    over the orderings of (a, b, c)."""

    def states(x, y, z):
        sizes, union = (len(x), len(y), len(z)), len(x | y | z)
        out = []
        for card, covering in zip(oracle_regions(x, y, z), COVERING):
            ratios = [card / sizes[q] for q in covering]
            ratio = card / union if mode.kind == "mr" else {
                "mean": sum(ratios) / len(ratios), "max": max(ratios), "min": min(ratios)
            }[mode.sigma]
            out.append(0 if card == 0 else 1 if ratio <= mode.p else 2)
        return tuple(out)

    pattern = min(states(*order) for order in permutations((a, b, c)))
    return mode.catalog().patterns.index(pattern) + 1


def neighbors(h, i):
    sets = edge_sets(h)
    return [j for j in range(h.num_edges) if j != i and sets[i] & sets[j]]


def reference_instances(h, mode):
    """(i, j, k, id) in the engines' order, from sets and the scalar classify:
    row i, then neighbor pairs j < k of i, kept iff e_j, e_k are disjoint or
    i is the smallest index of a closed triple."""
    sets = edge_sets(h)
    for i in range(h.num_edges):
        for j, k in combinations(neighbors(h, i), 2):
            if not sets[j] & sets[k] or i < j:
                yield i, j, k, classify(sets[i], sets[j], sets[k], mode)


def reference_tally(h, mode, triples):
    counts = [0] * len(mode.catalog())
    sets = edge_sets(h)
    for i, j, k in triples:
        counts[classify(sets[i], sets[j], sets[k], mode) - 1] += 1
    return counts


def wedge_triples(h, i, j):
    """Every instance containing the hyperwedge {e_i, e_j} once."""
    inner = [k for k in neighbors(h, i) if k != j]
    outer = [k for k in neighbors(h, j) if k != i and k not in neighbors(h, i)]
    return [(i, j, k) for k in inner + outer]


def enumerated(h, mode):
    rows = []
    enumerate_instances(h, build_line_graph(h), lambda *row: rows.append(row), mode)
    return rows


@KERNEL
@given(hypergraphs(), chunks, st.lists(st.integers(0, 12), min_size=1, max_size=3))
def test_line_graph_rows_match_incidence(h, block, spots):
    # hyperedges on fresh nodes overlap no other: their rows are empty
    edges = [sorted(e) for e in edge_sets(h)]
    for k, at in enumerate(spots):
        edges.insert(at, [1000 + k])
    h = from_edge_sets(edges)
    with mock.patch.object(linegraph, "BUILD_BLOCK", block):
        lg = build_line_graph(h)
    assert lg.indices.dtype == lg.weights.dtype == np.int32
    assert lg.indptr.dtype == np.int32  # far fewer than 2**31 entries
    assert lg.indptr[0] == 0 and len(lg.indptr) == h.num_edges + 1
    sets = edge_sets(h)
    for i in range(h.num_edges):
        expected = [
            (j, len(sets[i] & sets[j]))
            for j in range(h.num_edges)
            if j != i and sets[i] & sets[j]
        ]
        row = slice(lg.indptr[i], lg.indptr[i + 1])
        assert list(zip(lg.indices[row].tolist(), lg.weights[row].tolist())) == expected
        assert hyperedge_neighbors(h, i) == dict(expected)


@KERNEL
@given(hypergraphs(), chunks, st.sampled_from([(2, 1), (3, 1), (3, 2)]))
def test_exact_counts_match_oracle(h, chunk, states_theta):
    states, theta = states_theta
    mode = MotifMode("binary") if states == 2 else MotifMode("abs", theta=theta)
    with mock.patch.object(counting, "CHUNK", chunk):
        exact = count_exact(h, build_line_graph(h), mode)
    assert exact.counts == oracle_count_vector(h, states, theta)
    assert all(type(c) is int for c in exact.counts)
    # every candidate exact counting classifies is an instance
    assert exact.meta["triples"] == sum(exact.counts) == len(list(reference_instances(h, mode)))


@KERNEL
@given(hypergraphs(), chunks, ternary_modes)
def test_batch_ids_match_scalar_classify(h, chunk, mode):
    sets = edge_sets(h)
    with mock.patch.object(counting, "CHUNK", chunk):
        rows = enumerated(h, mode)
    for i, j, k, t in rows:
        assert t == classify(sets[i], sets[j], sets[k], mode)
        assert t == oracle_id(sets[i], sets[j], sets[k], mode)


@KERNEL
@given(hypergraphs(), chunks, st.sampled_from([MotifMode("binary"), MotifMode("abs", theta=2)]))
def test_enumerate_matches_reference_sequence(h, chunk, mode):
    with mock.patch.object(counting, "CHUNK", chunk):
        assert enumerated(h, mode) == list(reference_instances(h, mode))


@KERNEL
@given(hypergraphs(), chunks, st.integers(0, 1 << 64), st.integers(1, 30))
def test_samplers_match_set_references(h, chunk, seed, samples):
    mode = MotifMode("binary")
    lg = build_line_graph(h)
    degrees = [len(neighbors(h, i)) for i in range(h.num_edges)]
    prefix = [0]
    for d in degrees:
        prefix.append(prefix[-1] + d)
    # every sampler draws through the seeding replay, however few its draws
    lanes = mock.patch.object(counting, "LANE_MIN", 1)
    with mock.patch.object(counting, "CHUNK", chunk), lanes:
        wedge_cv = count_sample_hyperwedge(h, lg, samples, seed, mode)
        edge_cv = count_sample_hyperedge(h, lg, samples, seed, mode)
        otf_cvs = [
            count_otf(h, samples, budget, seed, variant, mode, workers)
            for variant in ("basic", "advanced") for budget in (0, 5) for workers in (1, 3)
        ]
    wedge, edge = wedge_cv.counts, edge_cv.counts
    otf = [cv.counts for cv in otf_cvs]
    if prefix[-1]:
        triples = []
        for n in range(samples):
            m = _stream(seed, n).randrange(prefix[-1])
            i = bisect_right(prefix, m) - 1
            triples += wedge_triples(h, i, neighbors(h, i)[m - prefix[i]])
        tally = reference_tally(h, mode, triples)
        scales = [prefix[-1] / 2 / (2 * samples), prefix[-1] / 2 / (3 * samples)]
        closed = [not is_open for is_open in mode.catalog().open_flags]
        assert wedge == [c * scales[x] for c, x in zip(tally, closed)]
        assert all(o == wedge for o in otf)
        assert wedge_cv.meta["triples"] == len(triples)
        assert all(cv.meta["triples"] == len(triples) for cv in otf_cvs)
    triples = []
    for n in range(samples):
        i = _stream(seed, n).randrange(h.num_edges)
        triples += [(i, j, k) for j, k in combinations(neighbors(h, i), 2)]
        triples += [
            (i, j, k) for j in neighbors(h, i) for k in neighbors(h, j)
            if k != i and k not in neighbors(h, i)
        ]
    scale = h.num_edges / (3 * samples)
    assert edge == [c * scale for c in reference_tally(h, mode, triples)]
    assert edge_cv.meta["triples"] == len(triples)


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(st.sampled_from([0, 1, 1 << 32, (1 << 64) - 1]), st.integers(0, 1 << 70)),
    # 2**31 + 1 rejects about half of all words; 2**32 needs two words a try
    st.one_of(
        st.sampled_from([1, 2, 3, (1 << 31) + 1, (1 << 32) - 1, 1 << 32]),
        st.integers(1, 1 << 40),
    ),
    # near 2**32 a key's high word changes within the indices
    st.one_of(st.integers(0, 1 << 20), st.integers((1 << 32) - 20, (1 << 32) + 4)),
    st.booleans(),
)
def test_draws_equal_per_index_streams(seed, bound, first, lanes):
    indices = range(first, first + 16)
    expected = [_stream(seed, n).randrange(bound) for n in indices]
    with mock.patch.object(counting, "LANE_MIN", 1 if lanes else counting.LANE_MIN):
        assert _draws(seed, indices, bound).tolist() == expected


def test_draws_redraw_streams_whose_kept_words_are_all_rejected():
    """At bound 2**31 + 1 about one stream in 2**LANE_WORDS rejects every
    word the seeding replay keeps; those streams are reseeded one by one."""
    indices, bound = range((1 << 32) - 1000, (1 << 32) + 1000), (1 << 31) + 1
    reseed = mock.patch.object(counting, "_reseed_draws", wraps=counting._reseed_draws)
    with mock.patch.object(counting, "LANE_MIN", 1), reseed as spy:
        got = _draws(0, indices, bound).tolist()
    ((_, redrawn, _),) = [call.args for call in spy.call_args_list]
    assert 0 < len(redrawn) < 50
    assert got == [_stream(0, n).randrange(bound) for n in indices]


def test_wedge_triples_on_many_edges():
    """A block's merge keys (wedge in block) * num_edges + neighbor exceed
    2**31 here: 18,000 wedges of 3,000 triangles among 2**18 hyperedges, in
    blocks of up to 16,384 wedges."""
    n, triangles = 1 << 18, 3000
    first = n - 3 * triangles
    deg = np.zeros(n, dtype=np.int32)
    deg[first:] = 2
    indptr = np.concatenate([[0], np.cumsum(deg)]).astype(np.int32)
    a = np.arange(first, n, 3)
    b, c = a + 1, a + 2
    indices = np.stack([b, c, a, c, a, b], axis=1).ravel().astype(np.int32)
    weights = np.tile(np.array([1, 3, 1, 2, 3, 2], dtype=np.int32), triangles)
    lg = LineGraph(indptr, indices, weights)
    i = np.concatenate([a, b, b, c, a, c]).astype(np.int32)
    j = np.concatenate([b, a, c, b, c, a]).astype(np.int32)
    w_ij = np.repeat(np.array([1, 2, 3], dtype=np.int32), 2 * triangles)

    def row(e):
        lo, hi = indptr[e], indptr[e + 1]
        return dict(zip(indices[lo:hi].tolist(), weights[lo:hi].tolist()))

    expected = []
    for x, y, w in zip(i.tolist(), j.tolist(), w_ij.tolist()):
        nx, ny = row(x), row(y)
        expected += [(x, y, k, w, nx[k], ny.get(k, 0)) for k in nx if k != y]
        expected += [(x, y, k, w, 0, ny[k]) for k in ny if k != x and k not in nx]
    with mock.patch.object(counting, "CHUNK", 1 << 16):
        chunks = list(counting._wedge_triples(lg, i, j, w_ij))
    got = [tuple(map(int, t)) for c in chunks for t in zip(*c)]
    # each wedge here makes one triple, so a chunk's length is its block's wedge count
    assert max(len(c[0]) for c in chunks) * n > 1 << 31
    assert sorted(got) == sorted(expected)


def uniform_graph(edges: int, nodes: int, seed: int):
    """`edges` distinct random 4-node hyperedges over `nodes` nodes."""
    rng = random.Random(seed)
    sets = set()
    while len(sets) < edges:
        sets.add(frozenset(rng.sample(range(nodes), 4)))
    return from_edge_sets(sorted(sets, key=sorted))


# Bytes per chunk triple that one count_exact may hold at its peak.
PEAK_PER_CHUNK_TRIPLE = 128


def test_exact_peak_memory_is_bounded_by_the_chunk():
    """The tracemalloc peak of count_exact stays under a fixed multiple of
    CHUNK on a uniform4-size graph and on the acceptance-criterion-11 graph,
    which has 5x its hyperedges, line-graph entries and instances. The line
    graph's lookup keys and the member arrays are built first: they belong to
    the graphs. Only per-hyperedge arrays (about 20 bytes a hyperedge) grow
    with the graph, so the larger graph's peak stays within 1.5x the
    smaller's."""
    peaks, sizes = [], []
    for edges, nodes, seed in ((2_000, 1_540, 1), (10_500, 8_000, 4242)):
        h = uniform_graph(edges, nodes, seed)
        lg = build_line_graph(h)
        lg.keys, h.member_arrays
        tracemalloc.start()
        try:
            exact = count_exact(h, lg)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        sizes.append((lg.wedge_count, exact.meta["triples"]))
    assert sizes[1][0] > 5 * sizes[0][0] and sizes[1][1] > 5 * sizes[0][1]
    assert max(peaks) < PEAK_PER_CHUNK_TRIPLE * counting.CHUNK
    assert peaks[1] < 1.5 * peaks[0]


def hub_heavy_graph(edges: int, labels: int, seed: int):
    """Distinct hyperedges with power-law sizes (exponent 2) on [2, 200] and
    members drawn with Zipf(0.3) weights over `labels` nodes, like perfbench's
    heavytail workload: hub hyperedges share many nodes with each other."""
    rng = random.Random(seed)
    weights = [1 / (x + 1) ** 0.3 for x in range(labels)]
    sets = set()
    while len(sets) < edges:
        size = min(200, int(2 / (1 - rng.random())))
        members = set()
        while len(members) < size:
            members.update(rng.choices(range(labels), weights, k=size - len(members)))
        sets.add(frozenset(members))
    return from_edge_sets(sorted(sets, key=sorted))


def test_triple_intersections_on_hub_heavy_chunks():
    """_triple_intersections equals set intersections on the closed triples of
    real-size exact chunks, both at CHUNK, where a phase's lookups mostly fit
    in one ragged range, and at a CHUNK smaller than most phases, where they
    are split into blocks."""
    h = hub_heavy_graph(200, 800, 5)
    sets = edge_sets(h)
    chunks = list(counting._exact_triples(build_line_graph(h)))
    expected = []
    for i, j, k, w_ij, w_ik, w_jk in chunks:
        closed = (w_ij > 0) & (w_ik > 0) & (w_jk > 0)
        expected.append([
            len(sets[a] & sets[b] & sets[c]) if x else 0
            for a, b, c, x in zip(i.tolist(), j.tolist(), k.tolist(), closed.tolist())
        ])
    assert max(len(c[0]) for c in chunks) > counting.CHUNK // 2
    # hubs share many nodes, so some triple intersections are large
    assert max(map(max, expected)) >= 10
    for chunk in (counting.CHUNK, 200):
        spy = mock.patch.object(counting, "ragged_ranges", wraps=counting.ragged_ranges)
        with mock.patch.object(counting, "CHUNK", chunk), spy as ranges:
            for (i, j, k, w_ij, w_ik, w_jk), want in zip(chunks, expected):
                closed = (w_ij > 0) & (w_ik > 0) & (w_jk > 0)
                got = counting._triple_intersections(h, i, j, k, closed)
                assert got.tolist() == want
        # a phase's lookups in one ragged range, or split into blocks
        whole = [
            int((stops - starts).sum()) <= block
            for starts, stops, block in (call.args for call in ranges.call_args_list)
        ]
        assert any(whole) and not all(whole)
