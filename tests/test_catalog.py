"""Catalog enumeration, canonicalization, and triple classification."""

import random
from itertools import combinations, permutations, product

import pytest

from mochy import (
    MotifMode,
    canonicalize,
    classify,
    count_state_motifs,
    enumerate_catalog,
    is_valid_pattern,
    region_cardinalities,
    ternary_refinement_map,
)
from mochy.catalog import region_subsets

from conftest import (
    oracle_connected,
    oracle_pattern,
    oracle_regions,
    oracle_ternary_state,
)


class TestCanonicalize:
    def test_same_orbit(self):
        assert canonicalize((0, 1, 1, 1, 1, 0, 1)) == canonicalize((1, 0, 1, 1, 0, 1, 1))

    def test_symmetric_fixed_point(self):
        assert canonicalize((1, 1, 1, 1, 1, 1, 1)) == (1, 1, 1, 1, 1, 1, 1)

    def test_idempotent_on_all_binary_patterns(self):
        for raw in product((0, 1), repeat=7):
            canon = canonicalize(raw)
            assert canonicalize(canon) == canon
            assert canon <= raw

    def test_idempotent_on_random_ternary(self):
        rng = random.Random(5)
        for _ in range(500):
            raw = tuple(rng.randrange(3) for _ in range(7))
            canon = canonicalize(raw)
            assert canonicalize(canon) == canon

    def test_length_checked(self):
        with pytest.raises(ValueError):
            canonicalize((1, 0, 1), k=3)


class TestValidity:
    def test_all_identical_rejected(self):
        assert not is_valid_pattern((0, 0, 0, 0, 0, 0, 1))

    def test_disconnected_rejected(self):
        assert not is_valid_pattern((1, 1, 1, 0, 0, 0, 0))

    def test_open_chain_accepted(self):
        assert is_valid_pattern((1, 0, 1, 1, 1, 0, 0))

    def test_unsupported_arity(self):
        with pytest.raises(ValueError):
            is_valid_pattern((1,), k=1)

    def test_every_realizable_pattern_is_valid(self):
        # patterns derived from actual distinct connected sets must pass
        rng = random.Random(17)
        for _ in range(300):
            sets = set()
            while len(sets) < 3:
                sets.add(frozenset(rng.sample(range(8), rng.randint(1, 5))))
            a, b, c = sets
            if oracle_connected(a, b, c):
                assert is_valid_pattern(oracle_pattern(a, b, c))


class TestEnumerate:
    @pytest.mark.parametrize(
        "arity,states,expected",
        [(2, 2, 2), (3, 2, 26), (3, 3, 431), (4, 2, 1853)],
    )
    def test_sizes(self, arity, states, expected):
        assert len(enumerate_catalog(arity, states)) == expected

    def test_six_open_binary_motifs(self):
        assert sum(enumerate_catalog(3, 2).open_flags) == 6

    def test_ids_follow_lexicographic_order(self):
        cat = enumerate_catalog(3, 2)
        assert list(cat.patterns) == sorted(cat.patterns)
        assert cat.id_of(cat.patterns[4]) == 5

    @pytest.mark.parametrize("pattern", [
        (0, 0, 0, 1, 1, 0, 2), (0, 0, 0, 1, 1, 0, -1), (1, 1, 0), (0, 0, 0, 1, 1, 0, 0, 0),
        (0, 0, 0, 1.5, 1, 0, 0), (0, 0, 0, 1.0, 1, 0, 0), ("0",) * 7, (),
    ])
    def test_id_of_rejects_what_is_not_a_binary_pattern(self, pattern):
        with pytest.raises(ValueError, match="not a valid motif"):
            enumerate_catalog(3, 2).id_of(pattern)

    def test_unsupported_combination(self):
        with pytest.raises(ValueError):
            enumerate_catalog(5, 2)
        with pytest.raises(ValueError):
            enumerate_catalog(2, 3)

    @pytest.mark.parametrize("arity,states", [(2, 2), (3, 2), (3, 3), (4, 2)])
    def test_arrays_match_the_scalar_functions(self, arity, states):
        """Each raw pattern, classified alone by canonicalize and
        is_valid_pattern, against the catalog and id table built as arrays."""
        cat = enumerate_catalog(arity, states)
        ids = {pattern: t for t, pattern in zip(cat.ids, cat.patterns)}
        canonical = set()
        raws = product(range(states), repeat=(1 << arity) - 1)
        for key, raw in enumerate(raws):  # packed keys count up in this order
            if is_valid_pattern(raw, arity):
                canon = canonicalize(raw, arity)
                canonical.add(canon)
                assert cat.packed_id_table[key] == cat.id_of(raw) == ids[canon]
            else:
                assert cat.packed_id_table[key] == 0
                with pytest.raises(ValueError):
                    cat.id_of(raw)
        assert cat.patterns == tuple(sorted(canonical))
        subsets = region_subsets(arity)
        assert cat.open_flags == tuple(
            any(
                not any(state for s, state in zip(subsets, pattern) if x in s and y in s)
                for x, y in combinations(range(arity), 2)
            )
            for pattern in cat.patterns
        )

    def test_open_iff_some_pair_shares_nothing(self):
        cat = enumerate_catalog(3, 2)
        for pattern, is_open in zip(cat.patterns, cat.open_flags):
            ab = pattern[3] or pattern[6]
            bc = pattern[4] or pattern[6]
            ca = pattern[5] or pattern[6]
            assert is_open == (not (ab and bc and ca))


class TestFormula:
    @pytest.mark.parametrize(
        "states,expected",
        [(2, 26), (3, 431), (4, 3076), (5, 14190), (6, 49750)],
    )
    def test_known_values(self, states, expected):
        assert count_state_motifs(states) == expected

    def test_matches_enumeration(self):
        assert count_state_motifs(3) == len(enumerate_catalog(3, 3))

    def test_domain(self):
        with pytest.raises(ValueError):
            count_state_motifs(1)


class TestRegionCardinalities:
    def test_chain_triple(self):
        got = region_cardinalities(
            frozenset({1, 2, 3}), frozenset({2, 3, 4}), frozenset({3, 4, 5})
        )
        assert got == (1, 0, 1, 1, 1, 0, 1)

    def test_star_triple(self):
        got = region_cardinalities(
            frozenset({1, 2}), frozenset({1, 3}), frozenset({1, 4})
        )
        assert got == (1, 1, 1, 0, 0, 0, 1)

    def test_path_triple(self):
        got = region_cardinalities(
            frozenset({1, 2}), frozenset({2, 3}), frozenset({3, 4})
        )
        assert got == (1, 0, 1, 1, 1, 0, 0)

    def test_duplicate_rejected(self):
        e = frozenset({1, 2})
        with pytest.raises(ValueError):
            region_cardinalities(e, frozenset({1, 2}), frozenset({3}))

    def test_matches_set_arithmetic_oracle(self):
        rng = random.Random(19)
        for _ in range(400):
            sets = set()
            while len(sets) < 3:
                sets.add(frozenset(rng.sample(range(9), rng.randint(1, 6))))
            a, b, c = sets
            assert region_cardinalities(a, b, c) == oracle_regions(a, b, c)

    def test_region_sums_cover_each_edge(self):
        rng = random.Random(21)
        for _ in range(200):
            sets = set()
            while len(sets) < 3:
                sets.add(frozenset(rng.sample(range(9), rng.randint(1, 6))))
            a, b, c = sets
            r = region_cardinalities(a, b, c)
            assert r[0] + r[3] + r[5] + r[6] == len(a)
            assert r[1] + r[3] + r[4] + r[6] == len(b)
            assert r[2] + r[4] + r[5] + r[6] == len(c)


def _random_connected_triple(rng, universe=9, max_size=6):
    while True:
        sets = set()
        while len(sets) < 3:
            sets.add(frozenset(rng.sample(range(universe), rng.randint(1, max_size))))
        a, b, c = sets
        if oracle_connected(a, b, c):
            return a, b, c


class TestClassify:
    def test_star_triple_closed(self):
        cat = enumerate_catalog(3, 2)
        t = classify(frozenset({1, 2}), frozenset({1, 3}), frozenset({1, 4}))
        assert cat.patterns[t - 1] == canonicalize((1, 1, 1, 0, 0, 0, 1))
        assert not cat.is_open(t)

    def test_ternary_theta1_on_singleton_regions(self):
        # every nonzero region has cardinality 1, so states mirror emptiness
        mode = MotifMode("abs", theta=1)
        cat = mode.catalog()
        t = classify(
            frozenset({1, 2}), frozenset({1, 3}), frozenset({1, 4}), mode
        )
        assert cat.patterns[t - 1] == canonicalize((1, 1, 1, 0, 0, 0, 1))

    def test_ternary_state_two_exactly_at_large_regions(self):
        mode = MotifMode("abs", theta=1)
        a, b, c = frozenset({1, 2, 3, 4}), frozenset({3, 4, 5}), frozenset({4, 5, 6})
        t = classify(a, b, c, mode)
        expected = min(
            tuple(
                oracle_ternary_state(1)(card) for card in oracle_regions(x, y, z)
            )
            for x, y, z in permutations((a, b, c))
        )
        assert mode.catalog().patterns[t - 1] == expected
        assert 2 in expected  # the size-2 private region

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError, match="not connected"):
            classify(frozenset({1, 2}), frozenset({2, 3}), frozenset({9}))

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            classify(frozenset({1, 2}), frozenset({1, 2}), frozenset({2, 3}))

    def test_exhaustive_and_unique_over_random_triples(self):
        rng = random.Random(33)
        cat = enumerate_catalog(3, 2)
        for _ in range(10_000):
            a, b, c = _random_connected_triple(rng)
            t = classify(a, b, c)
            assert 1 <= t <= 26
            assert cat.patterns[t - 1] == oracle_pattern(a, b, c)

    def test_permutation_invariance(self):
        rng = random.Random(35)
        for _ in range(500):
            triple = _random_connected_triple(rng)
            ids = {classify(x, y, z) for x, y, z in permutations(triple)}
            assert len(ids) == 1

    def test_ternary_refines_binary(self):
        rng = random.Random(39)
        refinement = ternary_refinement_map()
        ternary = MotifMode("abs", theta=1)
        for _ in range(1000):
            a, b, c = _random_connected_triple(rng)
            assert refinement[classify(a, b, c, ternary)] == classify(a, b, c)

    def test_closed_iff_all_pairs_overlap(self):
        rng = random.Random(45)
        cat = enumerate_catalog(3, 2)
        for _ in range(1000):
            a, b, c = _random_connected_triple(rng)
            t = classify(a, b, c)
            closed = bool(a & b) and bool(b & c) and bool(c & a)
            assert cat.is_open(t) == (not closed)


def _variant_oracle(a, b, c, state_of_region):
    """Canonical pattern where states may depend on the ordered sets."""
    best = None
    for x, y, z in permutations((a, b, c)):
        cards = oracle_regions(x, y, z)
        covers = [(x,), (y,), (z,), (x, y), (y, z), (z, x), (x, y, z)]
        pat = tuple(
            state_of_region(card, cover, (x, y, z))
            for card, cover in zip(cards, covers)
        )
        if best is None or pat < best:
            best = pat
    return best


class TestVariantModes:
    def test_motif_ratio_states(self):
        a, b, c = frozenset({1, 2, 3, 4}), frozenset({3, 4, 5}), frozenset({4, 5, 6})

        def mr_state(p):
            def state(card, cover, sets):
                if card == 0:
                    return 0
                n = len(sets[0] | sets[1] | sets[2])
                return 1 if card / n <= p else 2

            return state

        for p in (0.2, 0.4):
            mode = MotifMode("mr", p=p)
            t = classify(a, b, c, mode)
            assert mode.catalog().patterns[t - 1] == _variant_oracle(
                a, b, c, mr_state(p)
            )

    @pytest.mark.parametrize("sigma,agg", [
        ("mean", lambda v: sum(v) / len(v)),
        ("max", max),
        ("min", min),
    ])
    def test_hyperedge_ratio_states(self, sigma, agg):
        rng = random.Random(47)

        def hr_state(p):
            def state(card, cover, sets):
                if card == 0:
                    return 0
                return 1 if agg([card / len(e) for e in cover]) <= p else 2

            return state

        for _ in range(200):
            a, b, c = _random_connected_triple(rng)
            for p in (0.3, 0.6):
                mode = MotifMode("hr", p=p, sigma=sigma)
                t = classify(a, b, c, mode)
                assert mode.catalog().patterns[t - 1] == _variant_oracle(
                    a, b, c, hr_state(p)
                )

    def test_variants_share_the_ternary_catalog(self):
        assert MotifMode("mr", p=0.3).catalog() is enumerate_catalog(3, 3)
        assert MotifMode("hr", p=0.3).catalog() is enumerate_catalog(3, 3)

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            MotifMode("abs", theta=0)
        with pytest.raises(ValueError):
            MotifMode("mr", p=1.5)
        with pytest.raises(ValueError):
            MotifMode("hr", p=0.5, sigma="median")
        with pytest.raises(ValueError):
            MotifMode("quaternary")
