"""Canonical motif catalogs and triple classification.

An overlap pattern of three connected hyperedges (a, b, c) is described by
the seven intersection-region cardinalities, in this fixed order:

    0: a \\ b \\ c      (only a)
    1: b \\ c \\ a      (only b)
    2: c \\ a \\ b      (only c)
    3: a & b \\ c
    4: b & c \\ a
    5: c & a \\ b
    6: a & b & c

Mapping each region to a small number of states (2 for the binary motifs,
3 for the ternary ones) and reducing modulo hyperedge relabeling yields the
canonical pattern catalogs: 26 binary and 431 ternary patterns for triples,
2 binary patterns for pairs, 1853 for quadruples. Catalog ids are 1-based
positions in the lexicographically sorted list of canonical vectors.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from typing import Sequence

import numpy as np

SUPPORTED = {(2, 2), (3, 2), (3, 3), (4, 2)}

# Region order for triples matches the module docstring; for other arities
# regions are the nonempty position subsets sorted by (size, members).
_TRIPLE_SUBSETS = ((0,), (1,), (2,), (0, 1), (1, 2), (0, 2), (0, 1, 2))


@lru_cache(maxsize=None)
def region_subsets(k: int) -> tuple[tuple[int, ...], ...]:
    """Covering-position subsets for the 2^k - 1 regions of a k-edge pattern."""
    if k == 3:
        return _TRIPLE_SUBSETS
    return tuple(s for n in range(1, k + 1) for s in itertools.combinations(range(k), n))


@lru_cache(maxsize=None)
def _perm_tables(k: int) -> tuple[tuple[int, ...], ...]:
    """For each relabeling of the k hyperedges, the induced region index map.

    Applying table t to vector v gives w with w[r] = v[t[r]].
    """
    subsets = region_subsets(k)
    index_of = {frozenset(s): r for r, s in enumerate(subsets)}
    return tuple(
        tuple(index_of[frozenset(perm[x] for x in s)] for s in subsets)
        for perm in itertools.permutations(range(k))
    )


def canonicalize(pattern: Sequence[int], k: int = 3) -> tuple[int, ...]:
    """Lexicographic minimum of the pattern over all k! hyperedge relabelings."""
    if len(pattern) != (1 << k) - 1:
        raise ValueError(f"pattern length {len(pattern)} does not match k={k}")
    p = tuple(pattern)
    return min(tuple(p[t[r]] for r in range(len(p))) for t in _perm_tables(k))


def is_valid_pattern(pattern: Sequence[int], k: int = 3) -> bool:
    """True iff the pattern can arise from k distinct, connected, non-empty
    hyperedges: every edge covers a nonzero region, the edge adjacency graph
    is connected, and every edge pair is distinguished by a nonzero region.
    """
    if k not in {2, 3, 4}:
        raise ValueError(f"unsupported arity k={k}")
    if len(pattern) != (1 << k) - 1:
        raise ValueError(f"pattern length {len(pattern)} does not match k={k}")
    subsets = region_subsets(k)
    nonzero = [s for s, state in zip(subsets, pattern) if state != 0]
    for x in range(k):
        if not any(x in s for s in nonzero):
            return False  # empty hyperedge
    for x, y in itertools.combinations(range(k), 2):
        if not any((x in s) != (y in s) for s in nonzero):
            return False  # the two hyperedges would be identical sets
    adjacent = {x: set() for x in range(k)}
    for s in nonzero:
        for x, y in itertools.combinations(s, 2):
            adjacent[x].add(y)
            adjacent[y].add(x)
    seen = {0}
    stack = [0]
    while stack:
        for y in adjacent[stack.pop()]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == k


def _digit_weights(arity: int, states: int) -> np.ndarray:
    """Place values of a pattern's packed base-`states` key, first region
    most significant, so packed keys sort as the patterns do."""
    return states ** np.arange((1 << arity) - 2, -1, -1)


def _raw_patterns(arity: int, states: int) -> np.ndarray:
    """Every raw pattern as a row of region states, row x being the pattern
    whose packed key is x."""
    weights = _digit_weights(arity, states)
    return np.arange(states * weights[0])[:, None] // weights % states


@lru_cache(maxsize=None)
def _canonical_keys(arity: int, states: int) -> np.ndarray:
    """For every packed key, its canonical pattern's key: the smallest packed
    key over the k! hyperedge relabelings."""
    raw, weights = _raw_patterns(arity, states), _digit_weights(arity, states)
    return np.min([raw[:, t] @ weights for t in _perm_tables(arity)], axis=0)


@dataclass(frozen=True)
class MotifCatalog:
    """Canonical pattern list for (arity, states) with stable 1-based ids."""

    arity: int
    states: int
    patterns: tuple[tuple[int, ...], ...]
    open_flags: tuple[bool, ...]

    def __len__(self) -> int:
        return len(self.patterns)

    @property
    def ids(self) -> range:
        return range(1, len(self.patterns) + 1)

    def id_of(self, pattern: Sequence[int]) -> int:
        """Catalog id of an arbitrary (not necessarily canonical) pattern."""
        p = np.asarray(pattern)
        in_range = p.dtype.kind in "biu" and ((0 <= p) & (p < self.states)).all()
        if p.shape == ((1 << self.arity) - 1,) and in_range:
            if motif := self.packed_id_table[p @ _digit_weights(self.arity, self.states)]:
                return int(motif)
        raise ValueError(f"pattern {tuple(pattern)} is not a valid motif")

    def is_open(self, motif_id: int) -> bool:
        return self.open_flags[motif_id - 1]

    @cached_property
    def packed_id_table(self) -> np.ndarray:
        """Raw-pattern lookup: packed base-`states` key -> id (0 = invalid)."""
        canon = _canonical_keys(self.arity, self.states)
        ids = np.zeros(len(canon), dtype=np.int64)
        ids[np.array(self.patterns) @ _digit_weights(self.arity, self.states)] = self.ids
        return ids[canon]


@lru_cache(maxsize=None)
def enumerate_catalog(arity: int = 3, states: int = 2) -> MotifCatalog:
    """Enumerate all canonical valid patterns for (arity, states).

    Supported combinations: (2,2), (3,2), (3,3), (4,2). Sizes: 2, 26, 431, 1853.
    One array pass over all raw patterns applies is_valid_pattern's tests
    and keeps each valid pattern that is its own canonical form.
    """
    if (arity, states) not in SUPPORTED:
        raise ValueError(f"unsupported catalog ({arity}, {states})")
    raw = _raw_patterns(arity, states)
    canon = _canonical_keys(arity, states)
    k, nonzero = arity, raw != 0
    member = np.array([[x in s for s in region_subsets(k)] for x in range(k)])

    def any_region(regions: np.ndarray) -> np.ndarray:
        """[pattern, x, y]: some region in regions[x, y] is nonzero."""
        return (nonzero @ regions.reshape(k * k, -1).T).reshape(-1, k, k)

    # regions in both hyperedges x and y (in x alone, on the diagonal), and
    # in exactly one of them
    both = any_region(member[:, None] & member[None])
    one = any_region(member[:, None] != member[None])
    # paths of up to 2**k hyperedges through shared nonzero regions
    reach = both
    for _ in range(k):
        reach = reach @ reach
    # not np.triu_indices, which pages in ~0.25 MiB more numpy code per process
    x, y = np.array(list(itertools.combinations(range(k), 2))).T
    # every hyperedge is non-empty, every pair differs, all are connected
    valid = both.diagonal(0, 1, 2).all(1) & one[:, x, y].all(1) & reach[:, 0].all(1)
    is_open = ~both[:, x, y].all(1)
    kept = valid & (canon == np.arange(len(canon)))
    return MotifCatalog(
        arity=arity,
        states=states,
        patterns=tuple(map(tuple, raw[kept].tolist())),
        open_flags=tuple(is_open[kept].tolist()),
    )


def count_state_motifs(states: int) -> int:
    """Closed-form count of canonical triple motifs with the given number of
    per-region states: 26 for 2 states, 431 for 3, 3076 for 4, ...
    """
    k = states
    if k < 2:
        raise ValueError("state count must be >= 2")
    return k * (k - 1) * (k**5 + k**4 + 4 * k**3 + k**2 - 4 * k + 2) // 6


def ternary_refinement_map() -> dict[int, int]:
    """Ternary motif id -> binary motif id obtained by collapsing states
    {1, 2} to "non-empty"."""
    binary, ternary = enumerate_catalog(3, 2), enumerate_catalog(3, 3)
    collapsed = (np.array(ternary.patterns) > 0) @ _digit_weights(3, 2)
    return dict(zip(ternary.ids, binary.packed_id_table[collapsed].tolist()))


# ---------------------------------------------------------------------------
# Classification of concrete hyperedge triples


def _regions(sizes, w_ab, w_bc, w_ca, c_abc) -> tuple:
    """The seven region cardinalities, in catalog region order, from the three
    hyperedge sizes, the pairwise overlaps and the triple intersection by
    inclusion-exclusion; works on Python ints and on numpy arrays alike."""
    s_a, s_b, s_c = sizes
    return (
        s_a - w_ab - w_ca + c_abc,
        s_b - w_ab - w_bc + c_abc,
        s_c - w_ca - w_bc + c_abc,
        w_ab - c_abc,
        w_bc - c_abc,
        w_ca - c_abc,
        c_abc,
    )


def region_cardinalities(a: frozenset | set, b: frozenset | set, c: frozenset | set) -> tuple:
    """Cardinalities of the seven intersection regions of three distinct
    hyperedges, in catalog region order, by inclusion-exclusion."""
    if a == b or b == c or a == c:
        raise ValueError("hyperedges of a motif instance must be distinct")
    return _regions((len(a), len(b), len(c)), len(a & b), len(b & c), len(c & a), len(a & b & c))


@dataclass(frozen=True)
class MotifMode:
    """Region-to-state mapping used when classifying triples.

    kind "binary" uses emptiness (2 states). The 3-state kinds are
    "abs" (cardinality threshold theta), "mr" (cardinality over the
    instance's node-union size, against p), and "hr" (an aggregate sigma of
    cardinality over the sizes of the covering hyperedges, against p).
    """

    kind: str = "binary"
    theta: int = 1
    p: float = 0.5
    sigma: str = "mean"

    def __post_init__(self):
        if self.kind not in {"binary", "abs", "mr", "hr"}:
            raise ValueError(f"unknown mode kind {self.kind!r}")
        if self.kind == "abs" and self.theta < 1:
            raise ValueError("theta must be >= 1")
        if self.kind in {"mr", "hr"} and not 0.0 < self.p < 1.0:
            raise ValueError("p must lie in (0, 1)")
        if self.kind == "hr" and self.sigma not in {"mean", "max", "min"}:
            raise ValueError("sigma must be mean, max, or min")

    @property
    def states(self) -> int:
        return 2 if self.kind == "binary" else 3

    def catalog(self) -> MotifCatalog:
        return enumerate_catalog(3, self.states)

    def region_states(
        self, cards: Sequence[np.ndarray], sizes: Sequence[np.ndarray]
    ) -> list[np.ndarray]:
        """int8 states of the seven region-cardinality arrays, given the three
        hyperedge size arrays: 0 if empty, else 1, or 2 when above the
        threshold. An empty region's ratio is 0, never above p; hr-mean sums
        its ratios left to right, then divides."""
        total = reduce(np.add, cards) if self.kind == "mr" else None
        combine = {"mean": np.add, "max": np.maximum, "min": np.minimum}[self.sigma]
        states = []
        for card, covering in zip(cards, _TRIPLE_SUBSETS):
            state = (card > 0).view(np.int8)
            if self.kind == "abs":
                state = state + (card > self.theta).view(np.int8)
            elif self.kind == "mr":
                state = state + (card / total > self.p).view(np.int8)
            elif self.kind == "hr":
                ratio = card / sizes[covering[0]]
                for x in covering[1:]:
                    combine(ratio, card / sizes[x], out=ratio)
                if self.sigma == "mean":
                    ratio /= len(covering)
                state = state + (ratio > self.p).view(np.int8)
            states.append(state)
        return states


BINARY = MotifMode("binary")
TERNARY = MotifMode("abs", theta=1)


def classify_batch(mode: MotifMode, sizes, w_ab, w_bc, w_ca, c_abc) -> np.ndarray:
    """Motif ids of n connected triples of distinct hyperedges (a, b, c).

    sizes is the three size arrays; w_ab, w_bc, w_ca the pairwise overlaps and
    c_abc the triple intersections, each an integer array of length n. The
    int8 region states pack into an int16 key (3**7 - 1 at most).
    """
    key = np.zeros(len(c_abc), dtype=np.int16)
    for state in mode.region_states(_regions(sizes, w_ab, w_bc, w_ca, c_abc), sizes):
        key *= mode.states
        key += state
    return mode.catalog().packed_id_table[key]


def classify(a: frozenset | set, b: frozenset | set, c: frozenset | set,
             mode: MotifMode = BINARY) -> int:
    """Catalog id of the motif of the connected triple (a, b, c), by
    classify_batch on this one triple; a disconnected one is a ValueError."""
    region_cardinalities(a, b, c)  # rejects a repeated hyperedge
    one = [np.array([len(x)]) for x in (a, b, c, a & b, b & c, c & a, a & b & c)]
    with np.errstate(invalid="ignore"):  # hr: an empty set's regions are 0 / 0
        if motif := int(classify_batch(mode, one[:3], *one[3:])[0]):
            return motif
    raise ValueError("hyperedge triple is not connected")
