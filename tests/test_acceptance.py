"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import math
import os
import random
import statistics
import time
from pathlib import Path

import numpy as np
import pytest

from mochy import (
    MotifMode,
    build_line_graph,
    characteristic_profile,
    conditional_entropy,
    count_exact,
    count_otf,
    count_sample_hyperedge,
    count_sample_hyperwedge,
    count_state_motifs,
    ego_network,
    enumerate_instances,
    estimator_variance,
    from_edge_sets,
    hyperedge_profile,
    load_hypergraph_path,
    pair_overlap_stats,
    significance,
    ternary_refinement_map,
)
from mochy.catalog import enumerate_catalog
from mochy.hypergraph import convert_nverts_format, from_edge_sets as build

from conftest import (
    TWELVE_EDGES,
    edge_sets,
    oracle_count_vector,
    random_hypergraph,
    sample_incidence_slots,
)

TERNARY = MotifMode("abs", theta=1)


def report(n: int, ok: bool, message: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {n}: {message}")
    assert ok, f"criterion {n}: {message}"


def corpus(count=50):
    rng = random.Random(20_26)
    return [random_hypergraph(rng, max_nodes=20, max_edges=15, max_size=6)
            for _ in range(count)]


def test_criterion_01_catalog_counts():
    start = time.perf_counter()
    sizes = {}
    opens = None
    for arity, states in ((2, 2), (3, 2), (3, 3), (4, 2)):
        cat = enumerate_catalog.__wrapped__(arity, states)  # bypass the cache
        sizes[(arity, states)] = len(cat)
        if (arity, states) == (3, 2):
            opens = sum(cat.open_flags)
    elapsed = time.perf_counter() - start
    ok = (
        sizes == {(2, 2): 2, (3, 2): 26, (3, 3): 431, (4, 2): 1853}
        and opens == 6
        and elapsed < 5.0
    )
    report(1, ok, f"catalog sizes {sizes}, {opens} open binary motifs, "
                  f"{elapsed:.2f}s (< 5s)")


def test_criterion_02_count_formula():
    got = [count_state_motifs(k) for k in range(2, 7)]
    ok = got == [26, 431, 3076, 14190, 49750]
    report(2, ok, f"state-motif counts for 2..6 states: {got}")


def test_criterion_03_exact_matches_bruteforce():
    start = time.perf_counter()
    graphs = corpus(50)
    mismatches = 0
    for h in graphs:
        cv = count_exact(h, build_line_graph(h))
        if [int(c) for c in cv.counts] != oracle_count_vector(h):
            mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 30.0
    report(3, ok, f"exact counts equal the naive enumeration oracle on "
                  f"{len(graphs)} random hypergraphs, {elapsed:.1f}s (< 30s)")


def test_criterion_04_enumeration_uniqueness():
    graphs = corpus(50)
    ok = True
    for h in graphs:
        lg = build_line_graph(h)
        triples = []
        enumerate_instances(h, lg, lambda i, j, k, t: triples.append(
            tuple(sorted((i, j, k)))
        ))
        if len(triples) != len(set(triples)):
            ok = False
        if len(triples) != count_exact(h, lg).total():
            ok = False
    report(4, ok, f"every instance emitted exactly once on {len(graphs)} graphs")


def test_criterion_05_unbiasedness():
    start = time.perf_counter()
    h = from_edge_sets(TWELVE_EDGES)
    lg = build_line_graph(h)
    exact = count_exact(h, lg)
    runs = 2000
    s, r = h.num_edges, lg.wedge_count
    failures = []
    for name, runner in (
        ("edge", lambda seed: count_sample_hyperedge(h, lg, s, seed)),
        ("wedge", lambda seed: count_sample_hyperwedge(h, lg, r, seed)),
    ):
        estimates = [runner(seed) for seed in range(runs)]
        for t, m in exact.nonzero().items():
            values = [cv[t] for cv in estimates]
            mean = statistics.mean(values)
            se = statistics.stdev(values) / math.sqrt(runs)
            if se == 0:
                if mean != m:
                    failures.append((name, t))
            elif abs(mean - m) > 4 * se:
                failures.append((name, t))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 120.0
    report(5, ok, f"estimator means within 4 standard errors of exact for "
                  f"{len(exact.nonzero())} motifs x 2 estimators over {runs} "
                  f"runs, {elapsed:.1f}s (< 2min); failures: {failures}")


def test_criterion_06_variance_formula():
    start = time.perf_counter()
    runs = 10_000
    results = []

    star = from_edge_sets([{0, 1}, {0, 2}, {0, 3}, {0, 4}])
    lg = build_line_graph(star)
    stats = pair_overlap_stats(star, lg)
    t = max(stats.counts, key=stats.counts.get)
    for estimator, population, runner in (
        ("edge", star.num_edges, lambda seed: count_sample_hyperedge(star, lg, 2, seed)),
        ("wedge", lg.wedge_count, lambda seed: count_sample_hyperwedge(star, lg, 2, seed)),
    ):
        formula = estimator_variance(stats.counts[t], stats, t, 2, population, estimator)
        empirical = statistics.pvariance([runner(seed)[t] for seed in range(runs)])
        # the star estimators are provably constant: formula and sample
        # variance must both vanish
        results.append((f"star-{estimator}", empirical, formula,
                        empirical == 0.0 and formula == 0.0))

    path = from_edge_sets([{0, 1}, {1, 2}, {2, 3}, {3, 4}])
    lg_p = build_line_graph(path)
    stats_p = pair_overlap_stats(path, lg_p)
    t_p = max(stats_p.counts, key=stats_p.counts.get)
    for estimator, population, runner in (
        ("edge", path.num_edges, lambda seed: count_sample_hyperedge(path, lg_p, 1, seed)),
        ("wedge", lg_p.wedge_count, lambda seed: count_sample_hyperwedge(path, lg_p, 1, seed)),
    ):
        formula = estimator_variance(stats_p.counts[t_p], stats_p, t_p, 1,
                                     population, estimator)
        empirical = statistics.pvariance([runner(seed)[t_p] for seed in range(runs)])
        results.append((f"path-{estimator}", empirical, formula,
                        abs(empirical - formula) <= 0.10 * formula))

    elapsed = time.perf_counter() - start
    ok = all(r[3] for r in results) and elapsed < 120.0
    detail = ", ".join(f"{name} emp={emp:.4f} vs formula={form:.4f}"
                       for name, emp, form, _ in results)
    report(6, ok, f"{detail}; {elapsed:.1f}s (< 2min)")


def test_criterion_07_on_the_fly_equivalence():
    rng = random.Random(77)
    graphs = [from_edge_sets(TWELVE_EDGES)] + [
        random_hypergraph(rng, max_edges=14) for _ in range(6)
    ]
    ok = True
    for h in graphs:
        lg = build_line_graph(h)
        if lg.wedge_count == 0:
            continue
        full = int(np.diff(lg.indptr).sum())
        for seed in (0, 9):
            reference = count_sample_hyperwedge(h, lg, 30, seed)
            for variant in ("basic", "advanced"):
                for budget in (full, 0):
                    got = count_otf(h, 30, budget, seed, variant)
                    if got.counts != reference.counts:
                        ok = False
    report(7, ok, "on-the-fly estimates (both variants, full and zero budget) "
                  "are bit-identical to hyperwedge sampling at equal seeds")


def test_criterion_08_null_model_preservation():
    rng = random.Random(2024)
    edges = set()
    while len(edges) < 100:
        edges.add(frozenset(rng.sample(range(150), rng.randint(5, 8))))
    h = build(sorted(edges, key=sorted))
    replicates = 200
    degree_sums = [0.0] * h.num_nodes
    size_sums = [0.0] * h.num_edges
    for rep in range(replicates):
        slots = sample_incidence_slots(h, random.Random(rep))
        for j, slot in enumerate(slots):
            size_sums[j] += len(slot)
        out = build(s for s in slots if s)
        for label, d in zip(out.node_labels.tolist(), np.diff(out.node_ptr).tolist()):
            degree_sums[label] += d
    degree, size = np.diff(h.node_ptr).tolist(), np.diff(h.edge_ptr).tolist()
    qual_nodes = [v for v in range(h.num_nodes) if degree[v] >= 5]
    qual_edges = [j for j in range(h.num_edges) if size[j] >= 5]
    deg_ratio = sum(degree_sums[v] / replicates for v in qual_nodes) / sum(
        degree[v] for v in qual_nodes
    )
    size_ratio = sum(size_sums[j] / replicates for j in qual_edges) / sum(
        size[j] for j in qual_edges
    )
    ok = abs(deg_ratio - 1) < 0.05 and abs(size_ratio - 1) < 0.05
    report(8, ok, f"mean degree over {len(qual_nodes)} qualifying nodes at "
                  f"{deg_ratio:.3f} and mean size over {len(qual_edges)} "
                  f"qualifying edges at {size_ratio:.3f} of original (within 5%)")


def test_criterion_09_profiles():
    h = from_edge_sets(TWELVE_EDGES)
    lg = build_line_graph(h)
    exact = count_exact(h, lg)

    def null_counter(h_rand, rng):
        return count_exact(h_rand, build_line_graph(h_rand))

    from mochy import NullModelConfig, null_counts

    null_mean, _ = null_counts(h, null_counter, NullModelConfig(replicates=3, seed=2))
    cp = characteristic_profile(significance(exact, null_mean))
    norm = math.sqrt(sum(x * x for x in cp.cp))
    norm_ok = abs(norm - 1.0) <= 1e-12

    hp_ok = True
    for g in corpus(12):
        g_lg = build_line_graph(g)
        per_motif = [0.0] * 26
        for e in range(g.num_edges):
            for t, c in hyperedge_profile(g, g_lg, e).nonzero().items():
                per_motif[t - 1] += c
        if per_motif != [3 * c for c in count_exact(g, g_lg).counts]:
            hp_ok = False

    ego_ok = True
    for g in corpus(12):
        for v in range(g.num_nodes):
            fams = {}
            for kind in ("star", "radial", "contracted"):
                sub = ego_network(g, v, kind).hypergraph
                labels = sub.node_labels.tolist()
                fams[kind] = {
                    frozenset(labels[u] for u in e) for e in edge_sets(sub)
                }
            if not (fams["star"] <= fams["radial"] <= fams["contracted"]):
                ego_ok = False

    ok = norm_ok and hp_ok and ego_ok
    report(9, ok, f"CP norm {norm:.15f} (1 +/- 1e-12), hyperedge-profile mass "
                  f"= 3x instance count, ego nesting star<=radial<=contracted "
                  f"on every node")


def test_criterion_10_ternary_refinement_and_entropy():
    refinement = ternary_refinement_map()
    sums_ok = True
    for h in corpus(10):
        lg = build_line_graph(h)
        binary = count_exact(h, lg)
        ternary = count_exact(h, lg, TERNARY)
        summed = [0.0] * 26
        for tid, bid in refinement.items():
            summed[bid - 1] += ternary.counts[tid - 1]
        if summed != binary.counts:
            sums_ok = False

    groups = {}
    for tid, bid in refinement.items():
        groups.setdefault(bid, []).append(tid)
    some_bid, tids = next((b, ts) for b, ts in groups.items() if len(ts) >= 2)
    binary_counts = [0.0] * 26
    ternary_counts = [0.0] * 431

    binary_counts[some_bid - 1] = 5.0
    ternary_counts[tids[0] - 1] = 5.0
    single = conditional_entropy(binary_counts, ternary_counts, refinement)

    ternary_counts[tids[0] - 1] = 2.0
    ternary_counts[tids[1] - 1] = 2.0
    binary_counts[some_bid - 1] = 4.0
    split = conditional_entropy(binary_counts, ternary_counts, refinement)

    ok = sums_ok and single == 0.0 and abs(split - math.log(2)) < 1e-12
    report(10, ok, f"ternary counts collapse to binary exactly; entropy of a "
                   f"single refinement {single} and of an even split "
                   f"{split:.6f} (ln 2 = {math.log(2):.6f})")


def test_criterion_11_sampling_speed_and_error():
    rng = random.Random(4242)
    edges = set()
    while len(edges) < 10_500:
        edges.add(frozenset(rng.sample(range(8000), 4)))
    h = build(sorted(edges, key=sorted))
    lg = build_line_graph(h)
    wedges = lg.wedge_count
    assert wedges >= 100_000

    t0 = time.perf_counter()
    exact = count_exact(h, lg)
    t_exact = time.perf_counter() - t0

    r = int(0.05 * wedges)
    t0 = time.perf_counter()
    estimate = count_sample_hyperwedge(h, lg, r, seed=1)
    t_sample = time.perf_counter() - t0

    rel_err = sum(
        abs(a - b) for a, b in zip(estimate.counts, exact.counts)
    ) / exact.total()
    speedup = t_exact / t_sample
    ok = speedup >= 5.0 and rel_err <= 0.15
    report(11, ok, f"{wedges} wedges: exact {t_exact:.2f}s vs wedge sampling "
                   f"(r=0.05|wedges|) {t_sample:.2f}s = {speedup:.1f}x "
                   f"(>= 5x), relative error {rel_err:.4f} (<= 0.15)")


def _find_enron():
    candidates = []
    env = os.environ.get("MOCHY_ENRON")
    if env:
        candidates.append(Path(env))
    here = Path(__file__).resolve().parent.parent
    candidates += [here / "data" / "email-Enron", here / "data"]
    for base in candidates:
        if base.is_file():
            return load_hypergraph_path(base)
        if base.is_dir():
            flat = base / "email-Enron.txt"
            if flat.exists():
                return load_hypergraph_path(flat)
            nverts = base / "email-Enron-nverts.txt"
            simplices = base / "email-Enron-simplices.txt"
            if nverts.exists() and simplices.exists():
                with open(nverts) as nf, open(simplices) as sf:
                    return build(convert_nverts_format(
                        nf.readlines(), sf.readlines()
                    ))
    return None


def test_criterion_12_enron_totals():
    h = _find_enron()
    if h is None:
        pytest.skip("email-Enron dataset not supplied (set MOCHY_ENRON)")
    lg = build_line_graph(h)
    total = count_exact(h, lg, workers=4).total()
    ok = (
        h.num_edges == 1512
        and round(lg.wedge_count / 100) == 878
        and round(total / 1e5) == 96
    )
    report(12, ok, f"|E|={h.num_edges} (1512), wedges={lg.wedge_count} "
                   f"(87.8K), total instances={total:.0f} (9.6M)")
