"""Chung-Lu randomization: degree preservation, reproducibility, plumbing."""

import random
import statistics

import numpy as np
import pytest

from mochy import (
    NullModelConfig,
    build_line_graph,
    count_exact,
    count_sample_hyperwedge,
    from_edge_sets,
    null_counts,
    randomize_chung_lu,
)
from mochy.counting import _stream

from conftest import assert_valid, edge_sets, random_hypergraph, sample_incidence_slots


def label_degrees(h):
    return dict(zip(h.node_labels.tolist(), np.diff(h.node_ptr).tolist()))


def synthetic_hundred():
    """100 hyperedges of size 5-8 over a 150-node pool; dozens of nodes reach
    degree >= 5, which the preservation checks single out."""
    rng = random.Random(2024)
    edges = set()
    while len(edges) < 100:
        size = rng.randint(5, 8)
        edges.add(frozenset(rng.sample(range(150), size)))
    return from_edge_sets(sorted(edges, key=sorted))


class TestRandomize:
    def test_degenerate_single_edge(self):
        h = from_edge_sets([{0}])
        for seed in range(10):
            out = randomize_chung_lu(h, seed)
            assert (out.edge_ptr.tolist(), out.edge_nodes.tolist()) == ([0, 1], [0])
            assert out.node_labels.tolist() == [0]

    def test_reproducible(self):
        h = synthetic_hundred()
        a = randomize_chung_lu(h, seed=5)
        b = randomize_chung_lu(h, seed=5)
        assert edge_sets(a) == edge_sets(b)
        assert a.node_labels.tolist() == b.node_labels.tolist()

    def test_draw_count_equals_incidence_count(self):
        # the redraw leaves the stream exactly where 2 * |incidences| calls
        # of randrange(total) leave a same-seeded generator
        rng = random.Random(7)
        for _ in range(5):
            h = random_hypergraph(rng)
            total = h.total_incidences()
            drawn, calls = random.Random(1), random.Random(1)
            sample_incidence_slots(h, drawn)
            for _ in range(2 * total):
                calls.randrange(total)
            assert drawn.getstate() == calls.getstate()

    def test_output_is_valid_hypergraph(self):
        rng = random.Random(9)
        for seed in range(10):
            h = random_hypergraph(rng, min_edges=5)
            out = randomize_chung_lu(h, seed)
            assert_valid(out)
            assert (np.diff(out.edge_ptr) > 0).all()

    def test_degrees_and_sizes_preserved_in_expectation(self):
        # output labels are input node ids, so degrees line up by id; the
        # expectation check aggregates over qualifying nodes/edges because
        # set-collapse bias plus 60-replicate noise dominates any single node
        h = synthetic_hundred()
        replicates = 60
        degree_sums = {v: 0 for v in range(h.num_nodes)}
        size_sums = [0] * h.num_edges
        for rep in range(replicates):
            rng = random.Random(rep)
            slots = sample_incidence_slots(h, rng)
            for j, slot in enumerate(slots):
                size_sums[j] += len(slot)
            out = from_edge_sets(s for s in slots if s)
            for v, d in label_degrees(out).items():
                degree_sums[v] += d
        degree, size = np.diff(h.node_ptr).tolist(), np.diff(h.edge_ptr).tolist()
        qual_nodes = [v for v in range(h.num_nodes) if degree[v] >= 5]
        qual_edges = [j for j in range(h.num_edges) if size[j] >= 5]
        assert qual_nodes and qual_edges
        deg_ratio = sum(degree_sums[v] / replicates for v in qual_nodes) / sum(
            degree[v] for v in qual_nodes
        )
        size_ratio = sum(size_sums[j] / replicates for j in qual_edges) / sum(
            size[j] for j in qual_edges
        )
        assert abs(deg_ratio - 1.0) < 0.06
        assert abs(size_ratio - 1.0) < 0.06
        for v in qual_nodes:  # loose per-node sanity on top of the aggregate
            d = degree[v]
            assert abs(degree_sums[v] / replicates - d) / d < 0.20


class TestNullCounts:
    @staticmethod
    def exact_counter(h_rand, rng):
        return count_exact(h_rand, build_line_graph(h_rand))

    def test_single_replicate_equals_one_randomized_count(self, twelve):
        received = []

        def counter(h_rand, rng):
            received.append(h_rand)
            return self.exact_counter(h_rand, rng)

        mean, reps = null_counts(twelve, counter, NullModelConfig(replicates=1, seed=3))
        rng = _stream(3, 0)
        h_rand = from_edge_sets(
            s for s in sample_incidence_slots(twelve, rng) if s
        )
        assert mean.counts == count_exact(h_rand, build_line_graph(h_rand)).counts
        assert edge_sets(received[0]) == edge_sets(h_rand)
        assert reps[0].counts == mean.counts

    def test_mean_is_reproducible(self, twelve):
        cfg = NullModelConfig(replicates=5, seed=11)
        a, _ = null_counts(twelve, self.exact_counter, cfg)
        b, _ = null_counts(twelve, self.exact_counter, cfg)
        assert a.counts == b.counts
        assert a.meta["replicates"] == 5

    def test_worker_invariance(self, twelve):
        cfg = NullModelConfig(replicates=4, seed=13)
        a, _ = null_counts(twelve, self.exact_counter, cfg, workers=1)
        b, _ = null_counts(twelve, self.exact_counter, cfg, workers=4)
        assert a.counts == b.counts

    @pytest.mark.parametrize("replicates", [1, 2, 7])
    @pytest.mark.parametrize("algo", ["exact", "wedge-sample"])
    def test_mean_is_the_replicate_sum_over_the_count(self, twelve, algo, replicates):
        def counter(h_rand, rng):
            lg = build_line_graph(h_rand)
            if algo == "exact":
                return count_exact(h_rand, lg)
            return count_sample_hyperwedge(h_rand, lg, 25, rng.randrange(1 << 62))

        mean, reps = null_counts(twelve, counter, NullModelConfig(replicates, seed=6))
        assert len(reps) == replicates and mean.meta["replicates"] == replicates
        assert {type(c) for cv in reps for c in cv.counts} == {int if algo == "exact" else float}
        columns = zip(*(cv.counts for cv in reps))
        assert mean.counts == [sum(column) / replicates for column in columns]
        assert all(type(c) is float for c in mean.counts) and any(mean.counts)

    def test_singleton_edges_never_form_instances(self):
        h = from_edge_sets([{0}, {1}, {2}])
        mean, _ = null_counts(
            h, self.exact_counter, NullModelConfig(replicates=5, seed=1)
        )
        assert mean.total() == 0.0

    def test_replicate_validation(self):
        with pytest.raises(ValueError):
            NullModelConfig(replicates=0)
