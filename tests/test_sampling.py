"""Sampling estimators: unbiasedness, determinism, on-the-fly equivalence."""

import math
import random
import statistics

import numpy as np
import pytest

from mochy import (
    MotifMode,
    build_line_graph,
    count_exact,
    count_otf,
    count_sample_hyperedge,
    count_sample_hyperwedge,
    estimator_variance,
    from_edge_sets,
    pair_overlap_stats,
)
from mochy import linegraph
from mochy.linegraph import hyperedge_degrees

from conftest import random_hypergraph

PATH4 = [{0, 1}, {1, 2}, {2, 3}, {3, 4}]


class TestEdgeSampling:
    def test_chain_every_seed_exact(self, chain3):
        # the single instance contains all three hyperedges, so each draw
        # tallies it once and the rescale is exact
        lg = build_line_graph(chain3)
        for seed in range(20):
            cv = count_sample_hyperedge(chain3, lg, s=2, seed=seed)
            assert cv.nonzero() == {18: 1.0}

    def test_star_single_draw_already_exact(self, star4):
        lg = build_line_graph(star4)
        for seed in range(20):
            cv = count_sample_hyperedge(star4, lg, s=1, seed=seed)
            assert cv.total() == 4.0

    def test_path4_exhaustive_expectation(self):
        # per-draw tallies over the 4 equally likely hyperedges: 1, 2, 2, 1
        h = from_edge_sets(PATH4)
        lg = build_line_graph(h)
        draws = [count_sample_hyperedge(h, lg, 1, seed).total() for seed in range(4000)]
        assert statistics.mean(draws) == pytest.approx(2.0, abs=0.1)
        assert set(draws) == {4 / 3, 8 / 3}

    def test_validation(self, chain3, disjoint3):
        lg = build_line_graph(chain3)
        with pytest.raises(ValueError):
            count_sample_hyperedge(chain3, lg, s=0)
        two = from_edge_sets([{0, 1}, {1, 2}])
        with pytest.raises(ValueError):
            count_sample_hyperedge(two, build_line_graph(two), s=1)

    def test_deterministic_and_worker_invariant(self, twelve):
        lg = build_line_graph(twelve)
        a = count_sample_hyperedge(twelve, lg, 50, seed=9, workers=1)
        b = count_sample_hyperedge(twelve, lg, 50, seed=9, workers=3)
        c = count_sample_hyperedge(twelve, lg, 50, seed=9, workers=1)
        assert a.counts == b.counts == c.counts

    def test_mean_tracks_exact(self, twelve):
        lg = build_line_graph(twelve)
        exact = count_exact(twelve, lg)
        runs = [count_sample_hyperedge(twelve, lg, s=12, seed=s) for s in range(600)]
        for t, m in exact.nonzero().items():
            values = [cv[t] for cv in runs]
            se = statistics.stdev(values) / math.sqrt(len(values))
            if se == 0:
                assert values[0] == m
            else:
                assert abs(statistics.mean(values) - m) <= 4 * se


class TestWedgeSampling:
    def test_chain_every_draw_exact(self, chain3):
        lg = build_line_graph(chain3)
        for seed in range(20):
            cv = count_sample_hyperwedge(chain3, lg, r=1, seed=seed)
            assert cv.nonzero() == {18: 1.0}

    def test_open_only_graph_keeps_closed_at_zero(self):
        h = from_edge_sets(PATH4)
        lg = build_line_graph(h)
        catalog = MotifMode("binary").catalog()
        for seed in range(30):
            cv = count_sample_hyperwedge(h, lg, r=3, seed=seed)
            for t in catalog.ids:
                if not catalog.is_open(t):
                    assert cv[t] == 0.0

    def test_path4_exhaustive_expectation_and_variance(self):
        # wedge draws yield estimates 1.5, 3.0, 1.5; mean 2, variance 1/2
        h = from_edge_sets(PATH4)
        lg = build_line_graph(h)
        t = next(iter(count_exact(h, lg).nonzero()))
        draws = [count_sample_hyperwedge(h, lg, 1, seed)[t] for seed in range(6000)]
        assert set(draws) == {1.5, 3.0}
        assert statistics.mean(draws) == pytest.approx(2.0, abs=0.08)
        assert statistics.pvariance(draws) == pytest.approx(0.5, rel=0.12)

    def test_no_wedges_warns_and_zeroes(self, disjoint3):
        lg = build_line_graph(disjoint3)
        with pytest.warns(UserWarning):
            cv = count_sample_hyperwedge(disjoint3, lg, r=5)
        assert cv.total() == 0.0

    def test_deterministic_and_worker_invariant(self, twelve):
        lg = build_line_graph(twelve)
        a = count_sample_hyperwedge(twelve, lg, 60, seed=4, workers=1)
        b = count_sample_hyperwedge(twelve, lg, 60, seed=4, workers=4)
        assert a.counts == b.counts

    def test_mean_tracks_exact(self, twelve):
        lg = build_line_graph(twelve)
        exact = count_exact(twelve, lg)
        r = lg.wedge_count
        runs = [count_sample_hyperwedge(twelve, lg, r, seed=s) for s in range(600)]
        for t, m in exact.nonzero().items():
            values = [cv[t] for cv in runs]
            se = statistics.stdev(values) / math.sqrt(len(values))
            if se == 0:
                assert values[0] == m
            else:
                assert abs(statistics.mean(values) - m) <= 4 * se

    def test_ternary_mode_unbiased_on_chain(self, chain3):
        lg = build_line_graph(chain3)
        mode = MotifMode("abs", theta=1)
        exact = count_exact(chain3, lg, mode)
        cv = count_sample_hyperwedge(chain3, lg, 4, seed=0, mode=mode)
        assert cv.nonzero() == exact.nonzero()


def flower_chain(components: int):
    """Disjoint double-stars bridged by one shared edge per component.

    Same-motif instance pairs overwhelmingly share exactly one hyperedge,
    the regime where hyperwedge sampling should beat hyperedge sampling.
    """
    edges = []
    base = 0
    for comp in range(components):
        u, w = base, base + 1
        edges.append({u, base + 2})
        edges.append({u, base + 3})
        if comp == 0:  # extra petal so neither estimator is degenerate
            edges.append({u, base + 6})
        edges.append({u, w})
        edges.append({w, base + 4})
        edges.append({w, base + 5})
        base += 8
    return from_edge_sets(edges)


class TestEstimatorTradeoff:
    def test_wedge_variance_dominates_on_p1_heavy_graph(self):
        from mochy import classify, pair_overlap_stats

        h = flower_chain(12)
        lg = build_line_graph(h)
        t_star = classify(frozenset({0, 2}), frozenset({0, 3}), frozenset({0, 1}))
        stats = pair_overlap_stats(h, lg)
        p1 = stats.p[t_star][1]
        assert p1 > stats.p[t_star][2] and p1 > stats.q[t_star][1]
        # matched sampling fractions s/|E| = r/|wedges| (~0.2)
        s = round(0.2 * h.num_edges)
        r = round(0.2 * lg.wedge_count)
        runs = 1500
        var_edge = statistics.pvariance(
            [count_sample_hyperedge(h, lg, s, seed)[t_star] for seed in range(runs)]
        )
        var_wedge = statistics.pvariance(
            [count_sample_hyperwedge(h, lg, r, seed)[t_star] for seed in range(runs)]
        )
        assert var_wedge <= var_edge * 1.05


class TestVarianceTheoremAtScale:
    def test_sample_variance_matches_formula(self):
        # 1,000 random 4-node hyperedges over 1,000 nodes: 103,954 instances
        # and 7,942 hyperwedges, above the default instance cap
        rng = random.Random(11)
        h = from_edge_sets([set(rng.sample(range(1000), 4)) for _ in range(1000)])
        lg = build_line_graph(h)
        stats = pair_overlap_stats(h, lg, max_instances=200_000)
        assert sum(stats.counts.values()) > 100_000
        top = sorted(stats.counts, key=stats.counts.get, reverse=True)[:4]
        # For n independent estimates, the sample variance's relative standard
        # error is sqrt(2 / (n - 1) + kurtosis / n); each estimate is a mean of
        # r (or s) independent draws, so its excess kurtosis is the draw's
        # divided by r and the first term dominates: 0.100 at n = 200. A band
        # of four standard errors (0.40) leaves a normal tail of 6e-5 per check.
        runs, r, s = 200, 100, 50
        tolerance = 4 * math.sqrt(2 / (runs - 1))
        for estimator, samples, population, runner in (
            ("wedge", r, lg.wedge_count, lambda seed: count_sample_hyperwedge(h, lg, r, seed)),
            ("edge", s, h.num_edges, lambda seed: count_sample_hyperedge(h, lg, s, seed)),
        ):
            estimates = [runner(seed) for seed in range(runs)]
            for t in top:
                empirical = statistics.variance([e[t] for e in estimates])
                formula = estimator_variance(
                    stats.counts[t], stats, t, samples, population, estimator
                )
                assert abs(empirical / formula - 1) <= tolerance, (estimator, t)


class TestOnTheFly:
    @pytest.mark.parametrize("variant", ["basic", "advanced"])
    def test_bitwise_equal_to_wedge_sampling_any_budget(self, variant):
        rng = random.Random(211)
        for _ in range(8):
            h = random_hypergraph(rng, max_edges=14)
            lg = build_line_graph(h)
            if lg.wedge_count == 0:
                continue
            full = int(np.diff(lg.indptr).sum())
            reference = count_sample_hyperwedge(h, lg, 25, seed=7)
            for budget in (full, full // 2, 1, 0):
                got = count_otf(h, 25, budget, seed=7, variant=variant)
                assert got.counts == reference.counts

    def test_zero_budget_recomputes_but_matches(self, twelve):
        lg = build_line_graph(twelve)
        reference = count_sample_hyperwedge(twelve, lg, 40, seed=3)
        frugal = count_otf(twelve, 40, 0, seed=3, variant="basic")
        assert frugal.counts == reference.counts
        assert frugal.meta["recomputations"] >= 40

    def test_full_budget_memoizes(self, twelve):
        lg = build_line_graph(twelve)
        full = int(np.diff(lg.indptr).sum())
        cv = count_otf(twelve, 40, full, seed=3, variant="basic")
        assert cv.meta["recomputations"] <= twelve.num_edges + 40

    def test_advanced_groups_do_fewer_recomputations(self):
        # with a tight budget, grouped processing should not recompute more
        # than the draw-ordered variant on a shared workload
        rng = random.Random(223)
        h = random_hypergraph(rng, max_nodes=12, max_edges=15, max_size=4)
        lg = build_line_graph(h)
        if lg.wedge_count == 0:
            pytest.skip("degenerate draw")
        budget = int(np.diff(lg.indptr).max())
        basic = count_otf(h, 60, budget, seed=5, variant="basic")
        advanced = count_otf(h, 60, budget, seed=5, variant="advanced")
        assert advanced.counts == basic.counts
        assert advanced.meta["recomputations"] <= basic.meta["recomputations"]

    def test_advanced_computes_no_more_neighbor_maps_than_basic(self):
        # every endpoint, the grouping pass's included, goes through the store
        rng = random.Random(5)
        edges = set()
        while len(edges) < 300:
            edges.add(tuple(sorted(rng.sample(range(240), 4))))
        h = from_edge_sets([set(e) for e in sorted(edges)])
        budget = int(np.diff(build_line_graph(h).indptr).sum()) // 10
        basic = count_otf(h, 600, budget, seed=1, variant="basic")
        advanced = count_otf(h, 600, budget, seed=1, variant="advanced")
        assert advanced.counts == basic.counts
        assert advanced.meta["recomputations"] <= basic.meta["recomputations"]

    def test_worker_invariance(self, twelve):
        a = count_otf(twelve, 48, 10, seed=11, variant="advanced", workers=1)
        b = count_otf(twelve, 48, 10, seed=11, variant="advanced", workers=4)
        assert a.counts == b.counts
        assert a.meta["recomputations"] == b.meta["recomputations"]

    @pytest.mark.parametrize("variant", ["basic", "advanced"])
    def test_neighbor_computations_count_every_call(self, twelve, monkeypatch, variant):
        calls = []
        original = linegraph.neighbor_rows

        def counted(h, ids):
            calls.extend(ids)
            return original(h, ids)

        hyperedge_degrees(twelve)  # the degree pass, cached on the hypergraph
        monkeypatch.setattr(linegraph, "neighbor_rows", counted)
        for budget in (0, 10, 1000):
            calls.clear()
            cv = count_otf(twelve, 48, budget, seed=11, variant=variant)
            assert cv.meta["recomputations"] == len(calls)

    def test_validation(self, twelve):
        with pytest.raises(ValueError):
            count_otf(twelve, 0, 5)
        with pytest.raises(ValueError):
            count_otf(twelve, 5, -1)
        with pytest.raises(ValueError):
            count_otf(twelve, 5, 5, variant="lru")

    def test_no_wedges_warns(self, disjoint3):
        with pytest.warns(UserWarning):
            cv = count_otf(disjoint3, 5, 10)
        assert cv.total() == 0.0
