"""Shared fixtures and independent oracles.

The oracles here recompute everything from raw sets with no access to the
library's line graph, inclusion-exclusion shortcuts, or permutation tables,
so they can vouch for the counting path end to end.
"""

from __future__ import annotations

import random
from itertools import combinations, permutations

import numpy as np
import pytest

from mochy import Hypergraph, classify, enumerate_catalog, from_edge_sets
from mochy.nullmodel import redraw_incidences


def edge_sets(h: Hypergraph) -> tuple[frozenset[int], ...]:
    """Per hyperedge, its member node ids as a frozenset."""
    bounds = h.edge_ptr.tolist()
    nodes = h.edge_nodes.tolist()
    return tuple(frozenset(nodes[a:b]) for a, b in zip(bounds, bounds[1:]))


def assert_valid(h: Hypergraph) -> None:
    """The structural invariants, read from the CSR arrays: no hyperedge is
    empty, members ascend strictly within each hyperedge, no two hyperedges
    are equal, and every incidence entry is a membership, as many as there
    are memberships."""
    sizes = np.diff(h.edge_ptr)
    assert (sizes > 0).all(), "empty hyperedge"
    owner = np.repeat(np.arange(h.num_edges), sizes)
    same_edge = owner[1:] == owner[:-1]
    assert (np.diff(h.edge_nodes)[same_edge] > 0).all(), "members not sorted/unique"
    assert len(set(edge_sets(h))) == h.num_edges, "duplicate hyperedge"
    node_of = np.repeat(np.arange(h.num_nodes), np.diff(h.node_ptr))
    members = owner * h.num_nodes + h.edge_nodes
    assert np.isin(h.node_edges.astype(np.int64) * h.num_nodes + node_of, members).all()
    assert np.diff(h.node_ptr).sum() == h.total_incidences()


def oracle_regions(a: frozenset, b: frozenset, c: frozenset) -> tuple[int, ...]:
    """Region cardinalities by direct set arithmetic, in catalog order."""
    return (
        len(a - b - c),
        len(b - c - a),
        len(c - a - b),
        len((a & b) - c),
        len((b & c) - a),
        len((c & a) - b),
        len(a & b & c),
    )


def oracle_connected(a: frozenset, b: frozenset, c: frozenset) -> bool:
    overlaps = [bool(a & b), bool(b & c), bool(c & a)]
    return sum(overlaps) >= 2


def oracle_pattern(a, b, c, state_of=lambda card: 1 if card else 0):
    """Canonical state vector, minimized over explicit set orderings."""
    return min(
        tuple(state_of(card) for card in oracle_regions(x, y, z))
        for x, y, z in permutations((a, b, c))
    )


def oracle_ternary_state(theta: int):
    return lambda card: 0 if card == 0 else (1 if card <= theta else 2)


def oracle_counts(h: Hypergraph, state_of=lambda card: 1 if card else 0):
    """Naive O(|E|^3) per-pattern instance counts over connected triples."""
    out: dict[tuple[int, ...], int] = {}
    sets = edge_sets(h)
    for x, y, z in combinations(range(h.num_edges), 3):
        a, b, c = sets[x], sets[y], sets[z]
        if oracle_connected(a, b, c):
            pat = oracle_pattern(a, b, c, state_of)
            out[pat] = out.get(pat, 0) + 1
    return out


def oracle_count_vector(h: Hypergraph, states: int = 2, theta: int = 1):
    """Naive counts arranged per catalog id."""
    catalog = enumerate_catalog(3, states)
    state_of = (
        (lambda card: 1 if card else 0) if states == 2 else oracle_ternary_state(theta)
    )
    by_pattern = oracle_counts(h, state_of)
    index = {p: t for t, p in zip(catalog.ids, catalog.patterns)}
    counts = [0] * len(catalog)
    for pat, n in by_pattern.items():
        counts[index[pat] - 1] = n
    return counts


def oracle_pair_overlap_stats(h: Hypergraph, mode):
    """(counts, p, q) as in PairOverlapStats, by comparing every pair of
    same-motif instances; instances come from connected triples and the
    scalar classifier, adjacency from set intersection."""
    sets = edge_sets(h)
    by_motif: dict[int, list[frozenset[int]]] = {}
    for triple in combinations(range(h.num_edges), 3):
        a, b, c = (sets[x] for x in triple)
        if oracle_connected(a, b, c):
            by_motif.setdefault(classify(a, b, c, mode), []).append(frozenset(triple))
    p, q = {}, {}
    for t, triples in by_motif.items():
        p_l = [0, 0, 0]
        q_n = [0, 0]
        for x, y in combinations(triples, 2):
            shared = x & y
            p_l[len(shared)] += 1
            if len(shared) == 2:
                a, b = shared
                q_n[1 if sets[a] & sets[b] else 0] += 1
            else:
                q_n[0] += 1
        p[t] = tuple(p_l)
        q[t] = tuple(q_n)
    return {t: len(v) for t, v in by_motif.items()}, p, q


def sample_incidence_slots(h: Hypergraph, rng: random.Random) -> list[set[int]]:
    """Redraw all incidence pairs; returns the raw per-slot node sets.

    Draw count equals the number of incidence pairs in h. Slots may come
    back empty; repeated (node, slot) draws collapse because slots are sets.
    """
    slots: list[set[int]] = [set() for _ in range(h.num_edges)]
    for j, v in zip(*(a.tolist() for a in redraw_incidences(h, rng))):
        slots[j].add(v)
    return slots


def random_hypergraph(
    rng: random.Random,
    max_nodes: int = 20,
    max_edges: int = 15,
    max_size: int = 6,
    min_edges: int = 3,
) -> Hypergraph:
    """Small random hypergraph; duplicate member sets are retried."""
    num_nodes = rng.randint(4, max_nodes)
    target = rng.randint(min_edges, max_edges)
    edges: set[frozenset[int]] = set()
    attempts = 0
    while len(edges) < target and attempts < 50 * target:
        attempts += 1
        size = rng.randint(1, min(max_size, num_nodes))
        edges.add(frozenset(rng.sample(range(num_nodes), size)))
    return from_edge_sets(sorted(edges, key=sorted))


@pytest.fixture
def chain3() -> Hypergraph:
    """Three overlapping hyperedges forming one closed instance."""
    return from_edge_sets([{1, 2, 3}, {2, 3, 4}, {3, 4, 5}])


@pytest.fixture
def star4() -> Hypergraph:
    """Four hyperedges sharing exactly one node: 4 instances of one motif."""
    return from_edge_sets([{0, 1}, {0, 2}, {0, 3}, {0, 4}])


@pytest.fixture
def disjoint3() -> Hypergraph:
    return from_edge_sets([{0, 1}, {2, 3}, {4, 5}])


# Frozen 12-edge hypergraph used by the estimator statistics tests: varied
# sizes and overlaps, several motifs populated, no isolated hyperedges.
TWELVE_EDGES = [
    {0, 1, 2, 3},
    {2, 3, 4},
    {4, 5, 6, 7},
    {1, 4, 8},
    {8, 9},
    {0, 9, 10},
    {3, 6, 10, 11},
    {5, 11},
    {7, 8, 11},
    {0, 2, 5, 9},
    {1, 6, 9, 11},
    {10, 11},
]


@pytest.fixture
def twelve() -> Hypergraph:
    return from_edge_sets(TWELVE_EDGES)
