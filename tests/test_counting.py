"""Exact counting, enumeration, and estimator-quality calculators."""

import io
import math
import random
import warnings
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from mochy import (
    MotifMode,
    build_line_graph,
    count_exact,
    count_otf,
    count_sample_hyperedge,
    count_sample_hyperwedge,
    enumerate_catalog,
    enumerate_instances,
    estimator_variance,
    from_edge_sets,
    hyperedge_profile,
    load_hypergraph,
    node_profile,
    pair_overlap_stats,
    recommend_samples,
    ternary_refinement_map,
)
from mochy import counting
from mochy.counting import ALGORITHMS, EnumerationAborted, InstanceCapExceeded, PairOverlapStats

from conftest import oracle_count_vector, oracle_pair_overlap_stats, random_hypergraph
from test_golden import golden_input


class TestExact:
    def test_chain_single_instance(self, chain3):
        cv = count_exact(chain3, build_line_graph(chain3))
        assert cv.total() == 1
        assert cv.nonzero() == {18: 1.0}
        assert (cv[18], cv[1], cv[26]) == (1, 0, 0)
        assert list(cv) == cv.counts  # in id order
        assert sum(cv) == cv.total()
        for motif_id in (0, -1, 27):
            with pytest.raises(IndexError, match=f"^motif id {motif_id} lies outside 1..26$"):
                cv[motif_id]

    def test_disjoint_all_zero(self, disjoint3):
        cv = count_exact(disjoint3, build_line_graph(disjoint3))
        assert cv.total() == 0

    def test_star_counts(self, star4):
        cv = count_exact(star4, build_line_graph(star4))
        assert cv.total() == 4
        assert len(cv.nonzero()) == 1

    def test_matches_naive_oracle(self):
        rng = random.Random(101)
        for _ in range(20):
            h = random_hypergraph(rng)
            cv = count_exact(h, build_line_graph(h))
            assert [int(c) for c in cv.counts] == oracle_count_vector(h)

    def test_ternary_matches_naive_oracle(self):
        rng = random.Random(103)
        mode = MotifMode("abs", theta=1)
        for _ in range(10):
            h = random_hypergraph(rng)
            cv = count_exact(h, build_line_graph(h), mode)
            assert [int(c) for c in cv.counts] == oracle_count_vector(h, states=3)

    def test_worker_invariance(self):
        rng = random.Random(107)
        h = random_hypergraph(rng, max_edges=14)
        lg = build_line_graph(h)
        assert count_exact(h, lg, workers=1).counts == \
            count_exact(h, lg, workers=4).counts

    def test_ternary_sums_reproduce_binary(self):
        rng = random.Random(109)
        refinement = ternary_refinement_map()
        for _ in range(8):
            h = random_hypergraph(rng)
            lg = build_line_graph(h)
            binary = count_exact(h, lg)
            ternary = count_exact(h, lg, MotifMode("abs", theta=1))
            summed = [0.0] * 26
            for tid, bid in refinement.items():
                summed[bid - 1] += ternary.counts[tid - 1]
            assert summed == binary.counts


class TestEnumerate:
    def test_chain_one_callback(self, chain3):
        hits = []
        n = enumerate_instances(
            chain3, build_line_graph(chain3), lambda *a: hits.append(a)
        )
        assert n == 1 and len(hits) == 1
        i, j, k, t = hits[0]
        assert sorted((i, j, k)) == [0, 1, 2]

    def test_disjoint_zero_callbacks(self, disjoint3):
        assert enumerate_instances(
            disjoint3, build_line_graph(disjoint3), lambda *a: None
        ) == 0

    def test_star_four_callbacks(self, star4):
        hits = []
        enumerate_instances(star4, build_line_graph(star4), lambda *a: hits.append(a))
        assert len(hits) == 4
        assert {frozenset(hit[:3]) for hit in hits} == {
            frozenset(c) for c in combinations(range(4), 3)
        }

    def test_each_instance_exactly_once(self):
        rng = random.Random(113)
        for _ in range(15):
            h = random_hypergraph(rng)
            lg = build_line_graph(h)
            triples = []
            enumerate_instances(h, lg, lambda i, j, k, t: triples.append(
                tuple(sorted((i, j, k)))
            ))
            assert len(triples) == len(set(triples))
            assert len(triples) == count_exact(h, lg).total()

    def test_aggregate_matches_exact_per_motif(self):
        rng = random.Random(127)
        h = random_hypergraph(rng)
        lg = build_line_graph(h)
        tallies = {}
        enumerate_instances(
            h, lg, lambda i, j, k, t: tallies.update({t: tallies.get(t, 0) + 1})
        )
        assert tallies == {t: int(c) for t, c in count_exact(h, lg).nonzero().items()}

    def test_sink_failure_reports_partial_count(self, star4):
        calls = []

        def sink(i, j, k, t):
            calls.append(1)
            if len(calls) == 2:
                raise RuntimeError("sink broke")

        with pytest.raises(EnumerationAborted) as info:
            enumerate_instances(star4, build_line_graph(star4), sink)
        assert info.value.partial_count == 1
        assert isinstance(info.value.__cause__, RuntimeError)


# Path of four 2-node hyperedges: two open instances of one motif that share
# one hyperwedge. Hand-computed estimator variances: 4/9 (edge, s=1) and
# 1/2 (wedge, r=1); both estimators are unbiased with mean 2.
PATH4 = [{0, 1}, {1, 2}, {2, 3}, {3, 4}]


class TestPairOverlapStats:
    def test_single_instance_no_pairs(self, chain3):
        stats = pair_overlap_stats(chain3, build_line_graph(chain3))
        assert stats.counts == {18: 1}
        assert stats.p[18] == (0, 0, 0)
        assert stats.q[18] == (0, 0)

    def test_star_pairs_share_two_edges_one_wedge(self, star4):
        stats = pair_overlap_stats(star4, build_line_graph(star4))
        (t, n) = next(iter(stats.counts.items()))
        assert n == 4
        assert stats.p[t] == (0, 0, 6)
        assert sum(stats.p[t]) == math.comb(4, 2)
        assert stats.q[t] == (0, 6)

    def test_two_far_apart_instances(self):
        h = from_edge_sets([{1, 2}, {2, 3}, {3, 1}, {11, 12}, {12, 13}, {13, 11}])
        stats = pair_overlap_stats(h, build_line_graph(h))
        (t, n) = next(iter(stats.counts.items()))
        assert n == 2
        assert stats.p[t] == (1, 0, 0)
        assert stats.q[t] == (1, 0)

    def test_path4_hand_tally(self):
        h = from_edge_sets(PATH4)
        stats = pair_overlap_stats(h, build_line_graph(h))
        (t, n) = next(iter(stats.counts.items()))
        assert n == 2
        assert stats.p[t] == (0, 0, 1)
        assert stats.q[t] == (0, 1)

    def test_cap_refuses(self, star4):
        with pytest.raises(InstanceCapExceeded):
            pair_overlap_stats(star4, build_line_graph(star4), max_instances=3)

    # up to 14 hyperedges over 10 nodes: dozens to hundreds of instances,
    # many sharing a hyperedge or a pair; chunks of 1-9 triples put chunk
    # boundaries inside every hyperedge's run of triples
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.frozensets(st.integers(0, 9), min_size=1, max_size=5),
            min_size=3, max_size=14, unique=True,
        ),
        st.integers(1, 9),
        st.sampled_from([MotifMode("binary"), MotifMode("abs", theta=1),
                         MotifMode("hr", p=0.5)]),
    )
    def test_matches_pairwise_oracle(self, edges, chunk, mode):
        h = from_edge_sets(sorted(edges, key=sorted))
        with mock.patch.object(counting, "CHUNK", chunk):
            stats = pair_overlap_stats(h, build_line_graph(h), mode)
        assert (stats.counts, stats.p, stats.q) == oracle_pair_overlap_stats(h, mode)
        values = [*stats.counts.values(), *sum(stats.p.values(), ()), *sum(stats.q.values(), ())]
        assert all(type(x) is int for x in values)


class TestEstimatorVariance:
    def test_zero_count_zero_variance(self, star4):
        stats = pair_overlap_stats(star4, build_line_graph(star4))
        assert estimator_variance(0, stats, 99, 5, 4, "edge") == 0.0
        # at any population, even one below the units an instance holds
        for population in (0, 1, 2):
            assert estimator_variance(0, stats, 1, 5, population, "wedge") == 0.0

    @pytest.mark.parametrize("estimator", ["edge", "wedge"])
    @pytest.mark.parametrize("motif_id", [0, -1, 27, 99])
    def test_motif_id_outside_the_catalog_rejected(self, star4, estimator, motif_id):
        stats = pair_overlap_stats(star4, build_line_graph(star4))
        with pytest.raises(ValueError, match=f"motif id {motif_id} lies outside the catalog of 26"):
            estimator_variance(1, stats, motif_id, 1, 10, estimator)

    def test_population_below_the_units_of_an_instance_rejected(self):
        stats = PairOverlapStats(MotifMode("binary"), {}, {}, {})
        flags = MotifMode("binary").catalog().open_flags
        opened, closed = flags.index(True) + 1, flags.index(False) + 1
        for estimator, motif_id, units in (
            ("edge", closed, 3), ("edge", opened, 3), ("wedge", closed, 3), ("wedge", opened, 2),
        ):
            for population in range(units):
                with pytest.raises(ValueError, match=f"below the {units} units"):
                    estimator_variance(1, stats, motif_id, 1, population, estimator)
            assert estimator_variance(1, stats, motif_id, 1, units, estimator) == 0.0

    def test_spec_plug_in_value(self):
        stats = PairOverlapStats(
            mode=MotifMode("binary"), counts={1: 1}, p={1: (0, 0, 0)}, q={1: (0, 0)}
        )
        got = estimator_variance(1, stats, 1, samples=1, population=5, estimator="edge")
        assert got == pytest.approx(2 / 3)

    def test_star_both_estimators_deterministic(self, star4):
        # every hyperedge is in 3 instances and every wedge in 2, so both
        # estimators are constant: variance must be exactly zero
        lg = build_line_graph(star4)
        stats = pair_overlap_stats(star4, lg)
        t = next(iter(stats.counts))
        assert estimator_variance(4, stats, t, 1, star4.num_edges, "edge") == 0.0
        assert estimator_variance(4, stats, t, 1, lg.wedge_count, "wedge") == 0.0

    def test_path4_hand_derived_values(self):
        h = from_edge_sets(PATH4)
        lg = build_line_graph(h)
        stats = pair_overlap_stats(h, lg)
        t = next(iter(stats.counts))
        edge_var = estimator_variance(2, stats, t, 1, h.num_edges, "edge")
        wedge_var = estimator_variance(2, stats, t, 1, lg.wedge_count, "wedge")
        assert edge_var == pytest.approx(4 / 9)
        assert wedge_var == pytest.approx(1 / 2)

    def test_inconsistent_count_rejected(self, star4):
        stats = pair_overlap_stats(star4, build_line_graph(star4))
        t = next(iter(stats.counts))
        with pytest.raises(ValueError):
            estimator_variance(7, stats, t, 1, 4, "edge")

    def test_unknown_estimator_rejected(self, star4):
        stats = pair_overlap_stats(star4, build_line_graph(star4))
        with pytest.raises(ValueError):
            estimator_variance(1, stats, 1, 1, 4, "triangle")


class TestRecommendSamples:
    def test_wedge_closed_frozen_value(self):
        # closed-motif bound (1/(18*0.1^2)) * (100*2/10)^2 * ln(2/0.1), ceil + 1
        got = recommend_samples(
            0.1, 0.1, d_max=2, count=10, population=100, estimator="wedge"
        )
        assert got == 6659

    def test_doubling_count_quarters_bound(self):
        b10 = recommend_samples(0.1, 0.1, 2, 10, 100, "wedge")
        b20 = recommend_samples(0.1, 0.1, 2, 20, 100, "wedge")
        assert b20 == 1666
        assert (b10 - 1) / (b20 - 1) == pytest.approx(4.0, rel=1e-3)
        e10 = recommend_samples(0.1, 0.1, 2, 10, 100, "edge")
        e20 = recommend_samples(0.1, 0.1, 2, 20, 100, "edge")
        assert (e10 - 1) / (e20 - 1) == pytest.approx(4.0, rel=1e-3)

    def test_edge_to_wedge_ratio(self):
        # bound ratio = d_max^2 * (|E| / wedges)^2 for closed motifs
        num_edges, wedges, d, m = 200, 400, 3, 5
        edge_b = recommend_samples(0.1, 0.1, d, m, num_edges, "edge")
        wedge_b = recommend_samples(0.1, 0.1, d, m, wedges, "wedge")
        expected = d**2 * (num_edges / wedges) ** 2
        assert (edge_b - 1) / (wedge_b - 1) == pytest.approx(expected, rel=1e-3)

    def test_open_uses_looser_constant(self):
        closed = recommend_samples(0.1, 0.1, 2, 10, 100, "wedge", is_open=False)
        opened = recommend_samples(0.1, 0.1, 2, 10, 100, "wedge", is_open=True)
        assert (opened - 1) / (closed - 1) == pytest.approx(18 / 8, rel=1e-3)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            recommend_samples(0.1, 0.1, 2, 0, 100, "wedge")
        with pytest.raises(ValueError):
            recommend_samples(0.0, 0.1, 2, 10, 100, "wedge")
        with pytest.raises(ValueError, match="epsilon must be positive"):
            recommend_samples(math.nan, 0.1, 2, 10, 100, "wedge")
        for count in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="count must be finite"):
                recommend_samples(0.1, 0.1, 2, count, 100, "edge")
        with pytest.raises(ValueError):
            recommend_samples(0.1, 0.1, 2, 10, 100, "line")

    @pytest.mark.parametrize("estimator", ["edge", "wedge"])
    @pytest.mark.parametrize("delta", [-0.5, 0.0, 1.0, 3.0, 5.0])
    def test_delta_outside_the_unit_interval_rejected(self, delta, estimator):
        with pytest.raises(ValueError, match="delta"):
            recommend_samples(0.1, delta, 2, 10, 100, estimator)

    @pytest.mark.parametrize("d_max, population", [
        (0, 100), (-3, 100), (2, 0), (-3, -100), (math.nan, 100), (2, math.nan),
    ])
    def test_d_max_or_population_below_one_rejected(self, d_max, population):
        with pytest.raises(ValueError, match="at least 1"):
            recommend_samples(0.1, 0.1, d_max, 10, population, "wedge")

    @pytest.mark.parametrize("args", [
        (0.1, 0.1, 3, 1e-300, 100),  # the ratio squared overflows
        (1e-200, 0.1, 3, 10, 100),  # epsilon squared underflows to 0
        (0.1, 0.1, 10**400, 10, 100),  # d_max beyond a float
    ])
    def test_bound_beyond_the_float_range_rejected(self, args):
        with pytest.raises(ValueError, match="too large"):
            recommend_samples(*args, "edge")


# Each engine's meta keys, in order; the same with hyperwedges or without.
SAMPLED_KEYS = ["algorithm", "num_edges", "num_wedges", "samples", "seed", "workers", "triples"]
STORE_KEYS = ["budget", "recomputations", "store_hits", "store_evictions"]
META_KEYS = {
    "exact": ["algorithm", "num_edges", "num_wedges", "workers", "triples"],
    "edge-sample": SAMPLED_KEYS,
    "wedge-sample": SAMPLED_KEYS,
    "otf-basic": SAMPLED_KEYS + STORE_KEYS,
    "otf-advanced": SAMPLED_KEYS + STORE_KEYS,
}
META_GRAPHS = {"golden": golden_input(), "wedgeless": "1 2\n3 4\n5 6\n"}


def _count(algorithm, h):
    lg = build_line_graph(h)
    if algorithm == "exact":
        return count_exact(h, lg)
    if algorithm == "edge-sample":
        return count_sample_hyperedge(h, lg, 20, seed=1)
    if algorithm == "wedge-sample":
        return count_sample_hyperwedge(h, lg, 20, seed=1)
    return count_otf(h, 20, 10, seed=1, variant=algorithm[4:])


class TestMeta:
    @pytest.mark.parametrize("graph", sorted(META_GRAPHS))
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_keys_in_order_with_or_without_wedges(self, algorithm, graph):
        h = load_hypergraph(io.StringIO(META_GRAPHS[graph]))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the wedgeless wedge estimates warn
            meta = _count(algorithm, h).meta
        assert list(meta) == META_KEYS[algorithm]
        assert meta["num_edges"] == h.num_edges
        if graph == "wedgeless":
            assert meta["num_wedges"] == meta["triples"] == 0
            assert [meta[key] for key in STORE_KEYS[1:] if key in meta] in ([], [0, 0, 0])
        else:
            assert meta["triples"] > 0

    def test_hyperedge_profile_keys_in_order(self):
        h = load_hypergraph(io.StringIO(golden_input()))
        meta = hyperedge_profile(h, build_line_graph(h), 3).meta
        assert list(meta) == ["algorithm", "num_edges", "hyperedge", "triples"]
        assert (meta["algorithm"], meta["num_edges"], meta["hyperedge"]) == (
            "hyperedge-profile", h.num_edges, 3,
        )

    @pytest.mark.parametrize("kind", ["star", "radial", "contracted"])
    def test_node_profile_keys_in_order(self, kind):
        h = load_hypergraph(io.StringIO(golden_input()))
        meta = node_profile(h, 8, kind).meta
        assert list(meta) == ["algorithm", "num_edges", "num_wedges", "node", "ego_kind", "triples"]
        # node id 8 has input label 4; meta records the label
        assert (meta["algorithm"], meta["node"], meta["ego_kind"]) == ("node-profile", 4, kind)
