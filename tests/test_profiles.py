"""Significance, CP, hyperedge/node profiles, importance, entropy."""

import math
import random
import re
import statistics
from itertools import combinations

import numpy as np
import pytest

from mochy import (
    CountVector,
    MotifMode,
    build_line_graph,
    characteristic_profile,
    conditional_entropy,
    count_exact,
    cp_similarity_matrix,
    ego_network,
    enumerate_catalog,
    from_edge_sets,
    hyperedge_profile,
    motif_importance,
    node_profile,
    relative_counts,
    significance,
    ternary_refinement_map,
)

from conftest import (
    cached_names,
    edge_sets,
    oracle_connected,
    oracle_pattern,
    random_hypergraph,
)


def vec(values, mode=MotifMode("binary")):
    counts = [0.0] * len(mode.catalog())
    for t, c in values.items():
        counts[t - 1] = c
    return CountVector(mode=mode, counts=counts)


def seeded_pair(seed, kind):
    """Two seeded binary count vectors: exact ints or sampled estimates
    (int tallies times a scale). Motifs 1-3 are 0 in both, a third of the
    rest 0 in each; "zero" makes the second all 0."""
    rng = random.Random(seed)
    scale = rng.choice((1 / 3, 0.37, 2.5, 1e4 / 7))

    def count():
        c = rng.choice((0, rng.randrange(1, 60), rng.randrange(10**6)))
        return c if kind == "int" else c * scale

    m = vec({t: count() for t in range(4, 27)})
    mr = vec({} if kind == "zero" else {t: count() for t in range(4, 27)})
    return m, mr


class TestSignificance:
    def test_zero_counts_zero_delta(self):
        sig = significance(vec({}), vec({}))
        assert set(sig.delta) == {0.0}

    def test_plug_in_values(self):
        sig = significance(vec({1: 100}), vec({}))
        assert sig.delta[0] == pytest.approx(100 / 101)
        sig = significance(vec({}), vec({1: 100}))
        assert sig.delta[0] == pytest.approx(-100 / 101)

    def test_sign_matches_count_difference(self):
        rng = random.Random(3)
        m = vec({t: rng.randrange(50) for t in range(1, 27)})
        mr = vec({t: rng.randrange(50) for t in range(1, 27)})
        sig = significance(m, mr)
        for d, a, b in zip(sig.delta, m.counts, mr.counts):
            assert (d > 0) == (a > b) and (d < 0) == (a < b)

    @pytest.mark.parametrize("epsilon", [1.0, 0.5, 3])
    @pytest.mark.parametrize("kind", ["int", "float", "zero"])
    @pytest.mark.parametrize("seed", range(4))
    def test_formula_holds_exactly_on_seeded_vectors(self, seed, kind, epsilon):
        m, mr = seeded_pair(seed, kind)
        sig = significance(m, mr, epsilon)
        assert sig.epsilon == epsilon and len(sig.delta) == 26
        for d, a, b in zip(sig.delta, m.counts, mr.counts):
            assert type(d) is float and d == (a - b) / (a + b + epsilon)

    def test_catalog_mismatch_rejected(self):
        with pytest.raises(ValueError):
            significance(vec({}), vec({}, MotifMode("abs", theta=1)))

    @pytest.mark.parametrize("epsilon", [0.0, -1.0, math.nan])
    def test_epsilon_must_be_positive(self, epsilon):
        # a motif counted 0 times in both vectors would be 0 / 0
        with pytest.raises(ValueError, match="epsilon must be positive"):
            significance(vec({1: 3}), vec({}), epsilon=epsilon)


class TestCharacteristicProfile:
    def test_uniform_delta(self):
        sig = significance(vec({t: 10 for t in range(1, 27)}), vec({}))
        cp = characteristic_profile(sig)
        assert cp.cp == pytest.approx([1 / math.sqrt(26)] * 26, abs=1e-15)

    def test_one_hot(self):
        sig = significance(vec({5: 100}), vec({}))
        cp = characteristic_profile(sig)
        assert cp.cp[4] == 1.0 and sum(cp.cp) == 1.0

    def test_unit_norm_on_random(self):
        rng = random.Random(5)
        for _ in range(25):
            m = vec({t: rng.randrange(100) for t in range(1, 27)})
            mr = vec({t: rng.randrange(100) for t in range(1, 27)})
            cp = characteristic_profile(significance(m, mr))
            assert math.sqrt(sum(x * x for x in cp.cp)) == pytest.approx(1.0, abs=1e-12)
            assert all(-1.0 <= x <= 1.0 for x in cp.cp)

    def test_all_zero_warns(self):
        with pytest.warns(UserWarning):
            cp = characteristic_profile(significance(vec({}), vec({})))
        assert set(cp.cp) == {0.0}


class TestRelativeCounts:
    def test_equal_counts(self):
        m = vec({t: 7 for t in range(1, 27)})
        assert set(relative_counts(m, m)) == {0.0}

    def test_large_imbalance(self):
        rc = relative_counts(vec({1: 500_000}), vec({1: 500_000_000}))
        assert rc[0] == pytest.approx(-0.998002, abs=1e-6)

    def test_zero_null_gives_one(self):
        rc = relative_counts(vec({1: 10}), vec({}))
        assert rc[0] == 1.0

    @pytest.mark.parametrize("kind", ["int", "float", "zero"])
    @pytest.mark.parametrize("seed", range(4))
    def test_formula_holds_exactly_on_seeded_vectors(self, seed, kind):
        m, mr = seeded_pair(seed, kind)
        rc = relative_counts(m, mr)
        assert len(rc) == 26 and rc[:3] == (0.0, 0.0, 0.0)
        for r, a, b in zip(rc, m.counts, mr.counts):
            assert type(r) is float and r == ((a - b) / (a + b) if a + b else 0.0)

    def test_catalog_mismatch_rejected(self):
        with pytest.raises(ValueError, match="different catalogs"):
            relative_counts(vec({}), vec({}, MotifMode("abs", theta=1)))


def hp_oracle(h, e):
    """Instances containing hyperedge e, by naive triple enumeration."""
    catalog = enumerate_catalog(3, 2)
    index = {p: t for t, p in zip(catalog.ids, catalog.patterns)}
    counts = {}
    sets = edge_sets(h)
    for x, y, z in combinations(range(h.num_edges), 3):
        if e not in (x, y, z):
            continue
        a, b, c = sets[x], sets[y], sets[z]
        if oracle_connected(a, b, c):
            t = index[oracle_pattern(a, b, c)]
            counts[t] = counts.get(t, 0) + 1
    return counts


class TestHyperedgeProfile:
    def test_chain_middle_edge(self, chain3):
        hp = hyperedge_profile(chain3, build_line_graph(chain3), 1)
        assert hp.total() == 1

    def test_isolated_edge_zero(self):
        h = from_edge_sets([{0, 1}, {1, 2}, {2, 3}, {8, 9}])
        hp = hyperedge_profile(h, build_line_graph(h), 3)
        assert hp.total() == 0

    def test_matches_naive_oracle(self):
        rng = random.Random(7)
        for _ in range(10):
            h = random_hypergraph(rng, max_edges=10)
            lg = build_line_graph(h)
            for e in range(h.num_edges):
                hp = hyperedge_profile(h, lg, e)
                assert hp.nonzero() == hp_oracle(h, e)

    def test_total_mass_is_three_times_instances(self):
        rng = random.Random(11)
        for _ in range(10):
            h = random_hypergraph(rng)
            lg = build_line_graph(h)
            total = sum(
                hyperedge_profile(h, lg, e).total() for e in range(h.num_edges)
            )
            assert total == 3 * count_exact(h, lg).total()

    def test_out_of_range(self, chain3):
        with pytest.raises(IndexError):
            hyperedge_profile(chain3, build_line_graph(chain3), 99)


def member_families(h):
    labels = h.node_labels.tolist()
    return {frozenset(labels[v] for v in e) for e in edge_sets(h)}


class TestEgoNetwork:
    def test_closed_single_edge_all_kinds_coincide(self):
        h = from_edge_sets([{0, 1, 2}, {5, 6}])
        fams = {
            kind: member_families(ego_network(h, 0, kind).hypergraph)
            for kind in ("star", "radial", "contracted")
        }
        assert fams["star"] == fams["radial"] == fams["contracted"] == {
            frozenset({0, 1, 2})
        }

    def test_outside_edge_stays_out_of_radial(self):
        # V_0 = {0, 1}, so {1, 2} is not a subset and only its cut {1}
        # enters the contracted flavor
        h = from_edge_sets([{0, 1}, {1, 2}])
        star = member_families(ego_network(h, 0, "star").hypergraph)
        radial = member_families(ego_network(h, 0, "radial").hypergraph)
        contracted = member_families(ego_network(h, 0, "contracted").hypergraph)
        assert star == radial == {frozenset({0, 1})}
        assert contracted == {frozenset({0, 1}), frozenset({1})}

    def test_radial_picks_up_fully_inside_neighbor_edge(self):
        # V_0 = {0, 1, 2}: the edge {1, 2} avoids node 0 yet lies inside
        h = from_edge_sets([{0, 1, 2}, {1, 2}])
        star = member_families(ego_network(h, 0, "star").hypergraph)
        radial = member_families(ego_network(h, 0, "radial").hypergraph)
        assert star == {frozenset({0, 1, 2})}
        assert radial == {frozenset({0, 1, 2}), frozenset({1, 2})}

    def test_contracted_truncates_outside_nodes(self):
        h = from_edge_sets([{0, 1}, {1, 2, 3}])  # node 3 outside V_0 = {0, 1}
        radial = member_families(ego_network(h, 0, "radial").hypergraph)
        contracted = member_families(ego_network(h, 0, "contracted").hypergraph)
        assert radial == {frozenset({0, 1})}
        assert contracted == {frozenset({0, 1}), frozenset({1})}

    def test_nesting_everywhere(self):
        rng = random.Random(13)
        for _ in range(10):
            h = random_hypergraph(rng, max_edges=10)
            sets = edge_sets(h)
            for v in range(h.num_nodes):
                neighborhood = set()
                for i in h.node_edges[h.node_ptr[v] : h.node_ptr[v + 1]].tolist():
                    neighborhood.update(sets[i])
                star = member_families(ego_network(h, v, "star").hypergraph)
                radial = member_families(ego_network(h, v, "radial").hypergraph)
                contracted = member_families(ego_network(h, v, "contracted").hypergraph)
                assert star <= radial <= contracted
                assert all(e <= neighborhood for e in radial)
                expected_cuts = {
                    frozenset(s & neighborhood)
                    for s in sets
                    if s & neighborhood
                }
                assert contracted == expected_cuts

    def test_matches_the_set_construction(self):
        # the ego hypergraph built from sets, as the library once did: same
        # node ids, same CSR arrays in value and dtype
        rng = random.Random(41)
        for _ in range(20):
            h = random_hypergraph(rng, max_edges=12)
            sets = edge_sets(h)
            for v in range(h.num_nodes):
                incident = h.node_edges[h.node_ptr[v] : h.node_ptr[v + 1]].tolist()
                nodes = set().union(*(sets[i] for i in incident))
                expected = {
                    "star": [sorted(sets[i]) for i in incident],
                    "radial": [sorted(s) for s in sets if nodes.issuperset(s)],
                    "contracted": [sorted(s & nodes) for s in sets if s & nodes],
                }
                for kind, members in expected.items():
                    ego = ego_network(h, v, kind)
                    assert ego.nodes == nodes
                    want, got = from_edge_sets(members), ego.hypergraph
                    arrays = ("edge_ptr", "edge_nodes", "node_ptr", "node_edges", "node_labels")
                    for name in arrays:
                        a, b = getattr(want, name), getattr(got, name)
                        assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_bad_kind_and_node(self, chain3):
        with pytest.raises(ValueError):
            ego_network(chain3, 0, "spherical")
        with pytest.raises(IndexError):
            ego_network(chain3, 99)


class TestNodeProfile:
    def test_tiny_ego_is_zero(self):
        h = from_edge_sets([{0, 1}, {5, 6}, {6, 7}])
        assert node_profile(h, 0, "star").total() == 0

    def test_chain_center_radial_equals_global(self, chain3):
        lg = build_line_graph(chain3)
        center = chain3.node_labels.tolist().index(3)
        np_counts = node_profile(chain3, center, "radial")
        assert np_counts.counts == count_exact(chain3, lg).counts

    @pytest.mark.parametrize("kind", ["star", "radial", "contracted"])
    def test_builds_no_tuple_views(self, kind):
        h = random_hypergraph(random.Random(43), max_edges=12)
        for v in range(h.num_nodes):
            node_profile(h, v, kind)
        assert cached_names(h) <= {"line_degrees", "member_arrays"}

    def test_mass_monotone_across_kinds(self):
        rng = random.Random(17)
        for _ in range(6):
            h = random_hypergraph(rng, max_edges=10)
            for v in range(min(h.num_nodes, 6)):
                snp = node_profile(h, v, "star").total()
                rnp = node_profile(h, v, "radial").total()
                cnp = node_profile(h, v, "contracted").total()
                assert snp <= rnp <= cnp


def cp_corpus(seed):
    """Seeded labeled CPs: 3-12 profiles from at least two domains, with a
    same-domain pair, over 26 or 431 motifs, a fifth of them equal in every
    profile (so with no cross-domain gap)."""
    rng = random.Random(seed)
    size, n = rng.choice((26, 431)), rng.randint(3, 12)
    domains = ["ab"[i % 2] if i < 3 else rng.choice("abcde") for i in range(n)]
    cps = np.array([[rng.gauss(0, 1) for _ in range(size)] for _ in range(n)])
    cps /= np.sqrt((cps**2).sum(axis=1, keepdims=True))
    shared = rng.sample(range(size), size // 5)
    cps[:, shared] = [rng.uniform(-0.2, 0.2) for _ in shared]
    return list(zip(domains, map(tuple, cps.tolist())))


class TestImportance:
    def test_hand_computed_two_domains(self):
        cps = [
            ("x", (0.0, 1.0)),
            ("x", (0.2, 1.0)),
            ("y", (1.0, 0.0)),
        ]
        # within pairs: one (x,x): |0-0.2| = 0.2 on motif 1, 0 on motif 2
        # across pairs: (x,y) twice: (1.0 + 0.8)/2 = 0.9 and 1.0
        got = motif_importance(cps)
        assert got[0] == pytest.approx(1 - 0.2 / 0.9)
        assert got[1] == pytest.approx(1.0)

    def test_identical_within_distinct_across(self):
        cps = [("x", (0.5, 0.1)), ("x", (0.5, 0.1)), ("y", (0.3, 0.1))]
        got = motif_importance(cps)
        assert got[0] == 1.0
        assert got[1] == 0.0  # across distance is zero on that motif

    def test_all_identical_is_zero(self):
        cps = [("x", (0.5,)), ("x", (0.5,)), ("y", (0.5,))]
        assert motif_importance(cps) == (0.0,)

    def test_insufficient_structure_rejected(self):
        with pytest.raises(ValueError):
            motif_importance([("x", (1.0,)), ("x", (0.5,))])
        with pytest.raises(ValueError):
            motif_importance([("x", (1.0,)), ("y", (0.5,))])

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_definition_on_seeded_corpora(self, seed):
        labeled = cp_corpus(seed)
        labels = np.array([d for d, _ in labeled])
        cps = np.array([cp for _, cp in labeled])
        # |CP_t(a) - CP_t(b)| for every ordered pair; each unordered pair once
        gap = np.abs(cps[:, None, :] - cps[None, :, :])
        upper = np.triu(np.ones((len(cps), len(cps)), dtype=bool), k=1)
        same = labels[:, None] == labels[None, :]
        within = gap[upper & same].mean(axis=0)
        across = gap[upper & ~same].mean(axis=0)
        flat = across == 0
        assert flat.sum() >= len(cps[0]) // 5
        want = np.where(flat, 0.0, 1.0 - within / np.where(flat, 1.0, across))
        got = motif_importance(labeled)
        assert len(got) == len(want)
        assert np.allclose(got, want, rtol=0, atol=1e-12)
        assert all(got[t] == 0.0 for t in np.flatnonzero(flat))

    @pytest.mark.parametrize("short", [0, 1, 2])
    def test_unequal_lengths_rejected(self, short):
        labeled = [("x", (0.1, 0.2)), ("x", (0.3, 0.4)), ("y", (0.5, 0.6))]
        labeled[short] = (labeled[short][0], (0.1,))
        # profile 0 sets the length; the first profile unlike it is named
        message = {
            0: "profile 1 ('x') has length 2, profile 0 has 1",
            1: "profile 1 ('x') has length 1, profile 0 has 2",
            2: "profile 2 ('y') has length 1, profile 0 has 2",
        }[short]
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            motif_importance(labeled)


class TestSimilarityMatrix:
    def test_self_and_negation(self):
        cp = [0.3, -0.2, 0.8, 0.1]
        m = cp_similarity_matrix([cp, [-x for x in cp]])
        assert m[0, 0] == 1.0 and m[1, 1] == 1.0
        assert m[0, 1] == pytest.approx(-1.0)

    def test_matches_stdlib_pearson(self):
        rng = random.Random(19)
        a = [rng.uniform(-1, 1) for _ in range(26)]
        b = [rng.uniform(-1, 1) for _ in range(26)]
        m = cp_similarity_matrix([a, b])
        assert m[0, 1] == pytest.approx(statistics.correlation(a, b), abs=1e-12)
        assert np.allclose(m, m.T)
        for seed in range(8):
            cps = [cp for _, cp in cp_corpus(seed)]
            m = cp_similarity_matrix(cps)
            want = np.eye(len(cps))
            for i, j in combinations(range(len(cps)), 2):
                want[i, j] = want[j, i] = statistics.correlation(cps[i], cps[j])
            assert np.array_equal(m, m.T) and np.all(np.diag(m) == 1.0)
            assert np.allclose(m, want, rtol=0, atol=1e-12)

    def test_zero_variance_profile(self):
        with pytest.warns(UserWarning):
            m = cp_similarity_matrix([[0.5, 0.5, 0.5], [0.1, 0.2, 0.3]])
        assert m[0, 1] == 0.0 and m[0, 0] == 1.0
        cps = [cp for _, cp in cp_corpus(3)]
        cps[2] = (0.25,) * len(cps[0])
        with pytest.warns(UserWarning) as record:
            m = cp_similarity_matrix(cps)
        assert len(record) == 1
        others = [i for i in range(len(cps)) if i != 2]
        assert np.all(m[2, others] == 0.0) and np.all(m[others, 2] == 0.0)
        assert m[2, 2] == 1.0 and np.all(np.diag(m) == 1.0)

    def test_unequal_lengths_rejected(self):
        for cps, message in (
            ([[0.1, 0.2], [0.3, 0.4, 0.5]], "profile 1 has length 3, profile 0 has 2"),
            ([[0.1, 0.2, 0.3], [0.4, 0.5]], "profile 1 has length 2, profile 0 has 3"),
            ([[0.1, 0.2], [0.3, 0.4], [0.5]], "profile 2 has length 1, profile 0 has 2"),
        ):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                cp_similarity_matrix(cps)

    def test_needs_two_profiles(self):
        with pytest.raises(ValueError):
            cp_similarity_matrix([[1.0, 2.0]])


class TestExports:
    def test_importance_csv(self):
        import io

        from mochy.profiles import write_importance_csv

        buf = io.StringIO()
        write_importance_csv(buf, (0.5, 1.0))
        assert buf.getvalue() == "motif_id,importance\n1,0.5\n2,1\n"

    def test_similarity_csv(self):
        import io

        from mochy.profiles import write_similarity_csv

        m = cp_similarity_matrix([[0.1, 0.9], [0.9, 0.1]])
        buf = io.StringIO()
        write_similarity_csv(buf, ["a", "b"], m)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "label,a,b"
        assert lines[1].startswith("a,1,")


class TestConditionalEntropy:
    def test_single_refinement_is_zero(self):
        refinement = {1: 1, 2: 1, 3: 2}
        binary = [4.0, 2.0]
        ternary = [4.0, 0.0, 2.0]
        assert conditional_entropy(binary, ternary, refinement) == 0.0

    def test_even_split_is_ln2(self):
        refinement = {1: 1, 2: 1}
        assert conditional_entropy([2.0], [1.0, 1.0], refinement) == pytest.approx(
            math.log(2)
        )

    def test_upper_bound_on_random_inputs(self):
        rng = random.Random(23)
        refinement = ternary_refinement_map()
        groups = {}
        for tid, bid in refinement.items():
            groups.setdefault(bid, []).append(tid)
        for _ in range(20):
            ternary = [0.0] * 431
            binary = [0.0] * 26
            for bid, tids in groups.items():
                for tid in tids:
                    ternary[tid - 1] = rng.randrange(5)
                binary[bid - 1] = sum(ternary[tid - 1] for tid in tids)
            h = conditional_entropy(binary, ternary, refinement)
            total = sum(binary)
            bound = sum(
                (binary[bid - 1] / total) * math.log(len(tids))
                for bid, tids in groups.items()
                if binary[bid - 1] > 0
            )
            assert 0.0 <= h <= bound + 1e-12

    def test_partition_violation_rejected(self):
        with pytest.raises(ValueError):
            conditional_entropy([3.0], [1.0, 1.0], {1: 1, 2: 1})
        binary, ternary, refinement = self.corpus(random.Random(5))
        t = max(range(1, 27), key=lambda b: binary[b - 1])
        assert binary[t - 1] < 1000  # so 1e-6 exceeds the 1e-9 relative tolerance
        binary[t - 1] += 1e-6
        parts = sum(ternary[f - 1] for f, b in refinement.items() if b == t)
        message = f"fine counts for motif {t} sum to {parts}, expected {binary[t - 1]}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            conditional_entropy(binary, ternary, refinement)

    @pytest.mark.parametrize("binary, ternary, refinement, entry", [
        ([1.0], [1.0, 0.0, 0.0], {1: 1, 2: 1, 3: 5}, "3 -> 5"),  # coarse id past the end
        ([1.0], [1.0, 0.0], {1: 1, 2: 0}, "2 -> 0"),  # coarse id 0
        ([2.0], [1.0, 1.0], {1: 1, 3: 1}, "3 -> 1"),  # fine id past the end
        ([2.0], [1.0, 1.0], {0: 1, 2: -1}, "0 -> 1"),  # the first bad entry is named
        ([0.0], [0.0, 0.0], {1: 1, 2: 2}, "2 -> 2"),  # even with no instances
    ])
    def test_ids_outside_the_catalogs_rejected(self, binary, ternary, refinement, entry):
        message = f"refinement entry {entry} lies outside the motif catalogs"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            conditional_entropy(binary, ternary, refinement)

    @staticmethod
    def corpus(rng):
        """Ternary counts, many of them 0, and the binary counts they refine."""
        refinement = ternary_refinement_map()
        ternary = [rng.choice((0, 0, 1, 2, rng.randrange(100))) for _ in range(431)]
        binary = [0] * 26
        for f, b in refinement.items():
            binary[b - 1] += ternary[f - 1]
        return binary, ternary, refinement

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_definition_on_seeded_corpora(self, seed):
        binary, ternary, refinement = self.corpus(random.Random(seed))
        total = sum(binary)
        want = -math.fsum(
            ternary[f - 1] / total * math.log(ternary[f - 1] / binary[b - 1])
            for f, b in refinement.items()
            if ternary[f - 1] > 0
        )
        assert conditional_entropy(binary, ternary, refinement) == pytest.approx(
            want, rel=1e-12
        )

    def test_exact_counts_from_refinement(self, twelve):
        lg = build_line_graph(twelve)
        binary = count_exact(twelve, lg)
        ternary = count_exact(twelve, lg, MotifMode("abs", theta=1))
        h = conditional_entropy(
            binary.counts, ternary.counts, ternary_refinement_map()
        )
        assert h >= 0.0
