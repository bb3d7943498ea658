"""Significance, characteristic/hyperedge/node profiles, and comparisons.

Significance compares counts against a null model; the characteristic
profile (CP) is the L2-normalized significance vector. Hyperedge and node
profiles use absolute instance counts, the latter inside one of three
ego-network flavors (star, radial, contracted).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

from .catalog import BINARY, MotifMode
from .counting import CountVector, _edge_triples, _tally, count_exact
from .hypergraph import Hypergraph, from_pairs
from .linegraph import LineGraph, build_line_graph, ragged_range

EGO_KINDS = ("star", "radial", "contracted")


@dataclass(frozen=True)
class SignificanceVector:
    mode: MotifMode
    delta: tuple[float, ...]
    epsilon: float


@dataclass(frozen=True)
class CharacteristicProfile:
    mode: MotifMode
    cp: tuple[float, ...]


def significance(
    counts: CountVector, null: CountVector, epsilon: float = 1.0
) -> SignificanceVector:
    """Per-motif significance (M - M_rand) / (M + M_rand + epsilon); epsilon
    must be positive, so that a motif counted 0 times in both is 0, not 0/0."""
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    if counts.mode != null.mode or len(counts.counts) != len(null.counts):
        raise ValueError("count vectors come from different catalogs")
    delta = tuple(
        (m - mr) / (m + mr + epsilon)
        for m, mr in zip(counts.counts, null.counts)
    )
    return SignificanceVector(mode=counts.mode, delta=delta, epsilon=epsilon)


def characteristic_profile(sig: SignificanceVector) -> CharacteristicProfile:
    """L2-normalized significance; all-zero input yields zeros with a warning."""
    norm = math.sqrt(sum(d * d for d in sig.delta))
    if norm == 0.0:
        warnings.warn("all significances are zero; characteristic profile is zero")
        return CharacteristicProfile(mode=sig.mode, cp=tuple(sig.delta))
    return CharacteristicProfile(mode=sig.mode, cp=tuple(d / norm for d in sig.delta))


def relative_counts(counts: CountVector, null: CountVector) -> tuple[float, ...]:
    """(M - M_rand) / (M + M_rand) per motif, with 0/0 defined as 0."""
    if counts.mode != null.mode or len(counts.counts) != len(null.counts):
        raise ValueError("count vectors come from different catalogs")
    out = []
    for m, mr in zip(counts.counts, null.counts):
        out.append(0.0 if m + mr == 0 else (m - mr) / (m + mr))
    return tuple(out)


def hyperedge_profile(
    h: Hypergraph, lg: LineGraph, e: int, mode: MotifMode = BINARY
) -> CountVector:
    """Counts of motif instances containing hyperedge e, each exactly once,
    as Python ints.

    Instances are pairs of e's neighbors, plus triples closed through a
    neighbor j against some k adjacent to j but not to e.
    """
    if not 0 <= e < h.num_edges:
        raise IndexError(f"hyperedge index {e} out of range (|E|={h.num_edges})")
    counts, _ = _tally(h, mode, _edge_triples(lg, np.array([e])))
    return CountVector(mode, counts, {"algorithm": "hyperedge-profile", "hyperedge": e})


@dataclass(frozen=True)
class EgoNetwork:
    """Ego hypergraph of a center node; labels are original node ids."""

    kind: str
    center: int
    nodes: frozenset[int]
    hypergraph: Hypergraph


def ego_network(h: Hypergraph, v: int, kind: str = "radial") -> EgoNetwork:
    """Extract the star, radial, or contracted ego-network of node v.

    Star keeps the hyperedges containing v; radial keeps those inside v's
    neighborhood; contracted intersects every hyperedge with the
    neighborhood (duplicates merged).
    """
    if kind not in EGO_KINDS:
        raise ValueError(f"unknown ego-network kind {kind!r}")
    if not 0 <= v < h.num_nodes:
        raise IndexError(f"node id {v} out of range (|V|={h.num_nodes})")
    incident = h.node_edges[h.node_ptr[v] : h.node_ptr[v + 1]]
    _, star = ragged_range(h.edge_ptr[incident], h.edge_ptr[incident + 1])
    inside = np.zeros(h.num_nodes, dtype=bool)
    inside[h.edge_nodes[star]] = True
    # the memberships kept, as positions (star) or a mask, with their hyperedges
    sizes = np.diff(h.edge_ptr)
    row = np.repeat(np.arange(h.num_edges), sizes)
    if kind == "star":
        keep = star
    elif kind == "radial":
        whole = np.logical_and.reduceat(inside[h.edge_nodes], h.edge_ptr[:-1])
        keep = np.repeat(whole, sizes)
    else:
        keep = inside[h.edge_nodes]
    return EgoNetwork(
        kind=kind,
        center=v,
        nodes=frozenset(np.flatnonzero(inside).tolist()),
        hypergraph=from_pairs(row[keep], h.edge_nodes[keep]),
    )


def node_profile(
    h: Hypergraph, v: int, kind: str = "radial", mode: MotifMode = BINARY
) -> CountVector:
    """Exact motif counts (Python ints) inside an ego-network of node v."""
    ego = ego_network(h, v, kind)
    sub = ego.hypergraph
    out = count_exact(sub, build_line_graph(sub), mode)
    out.meta.update({"algorithm": "node-profile", "node": v, "ego_kind": kind})
    return out


def motif_importance(
    labeled_cps: Sequence[tuple[str, Sequence[float]]]
) -> tuple[float, ...]:
    """Per-motif contribution to separating domains of labeled CPs.

    importance[t] = 1 - within/across, where within (across) is the mean
    |CP_t(a) - CP_t(b)| over same-domain (cross-domain) pairs; degenerate
    zero across-distances give 0.
    """
    domains = [d for d, _ in labeled_cps]
    if len(set(domains)) < 2:
        raise ValueError("importance needs profiles from at least two domains")
    pairs = list(combinations(range(len(labeled_cps)), 2))
    within = [(a, b) for a, b in pairs if domains[a] == domains[b]]
    across = [(a, b) for a, b in pairs if domains[a] != domains[b]]
    if not within:
        raise ValueError("importance needs at least one same-domain pair")
    size = len(labeled_cps[0][1])
    out = []
    for t in range(size):
        d_within = sum(
            abs(labeled_cps[a][1][t] - labeled_cps[b][1][t]) for a, b in within
        ) / len(within)
        d_across = sum(
            abs(labeled_cps[a][1][t] - labeled_cps[b][1][t]) for a, b in across
        ) / len(across)
        if d_across == 0.0:
            out.append(0.0)
        else:
            out.append(1.0 - d_within / d_across)
    return tuple(out)


def cp_similarity_matrix(cps: Sequence[Sequence[float]]) -> np.ndarray:
    """Pearson correlation matrix of CP vectors; unit diagonal.

    A zero-variance profile correlates 0 with everything else, with a
    warning.
    """
    if len(cps) < 2:
        raise ValueError("similarity matrix needs at least two profiles")
    arr = np.asarray(cps, dtype=float)
    centered = arr - arr.mean(axis=1, keepdims=True)
    norms = np.sqrt((centered**2).sum(axis=1))
    flat = norms == 0
    if flat.any():
        warnings.warn("zero-variance profile; its correlations are set to 0")
    out = np.zeros((len(cps), len(cps)))
    for a in range(len(cps)):
        for b in range(a + 1, len(cps)):
            if not (flat[a] or flat[b]):
                out[a, b] = out[b, a] = float(
                    centered[a] @ centered[b] / (norms[a] * norms[b])
                )
    np.fill_diagonal(out, 1.0)
    return out


def write_importance_csv(out, importance: Sequence[float]) -> None:
    """CSV rows "motif_id,importance"."""
    out.write("motif_id,importance\n")
    for t, value in enumerate(importance, start=1):
        out.write(f"{t},{value:.17g}\n")


def write_similarity_csv(out, labels: Sequence[str], matrix: np.ndarray) -> None:
    """Square correlation matrix with a label header column."""
    out.write("label," + ",".join(labels) + "\n")
    for label, row in zip(labels, matrix):
        out.write(label + "," + ",".join(f"{x:.17g}" for x in row) + "\n")


def conditional_entropy(
    binary_counts: Sequence[float],
    ternary_counts: Sequence[float],
    refinement: dict[int, int],
) -> float:
    """Extra information (nats) in the finer counts given the coarser ones.

    refinement maps fine motif ids to coarse motif ids and must partition
    the coarse counts exactly.
    """
    groups: dict[int, list[float]] = {}
    for fine_id, coarse_id in refinement.items():
        groups.setdefault(coarse_id, []).append(ternary_counts[fine_id - 1])
    total = sum(binary_counts)
    if total == 0:
        return 0.0
    entropy = 0.0
    for coarse_id, n_coarse in enumerate(binary_counts, start=1):
        parts = groups.get(coarse_id, [])
        if not math.isclose(sum(parts), n_coarse, rel_tol=1e-9, abs_tol=1e-9):
            raise ValueError(
                f"fine counts for motif {coarse_id} sum to {sum(parts)}, "
                f"expected {n_coarse}"
            )
        if n_coarse == 0:
            continue
        inner = 0.0
        for n_fine in parts:
            if n_fine > 0:
                frac = n_fine / n_coarse
                inner -= frac * math.log(frac)
        entropy += (n_coarse / total) * inner
    return entropy
