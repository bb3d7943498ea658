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
from .counting import CountVector, _edge_triples, _exact_triples, _result
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
    m, mr = (np.asarray(c.counts, dtype=float) for c in (counts, null))
    delta = tuple(((m - mr) / (m + mr + epsilon)).tolist())
    return SignificanceVector(mode=counts.mode, delta=delta, epsilon=epsilon)


def characteristic_profile(sig: SignificanceVector) -> CharacteristicProfile:
    """L2-normalized significance; all-zero input yields zeros with a warning."""
    delta = np.asarray(sig.delta, dtype=float)
    # cumsum adds in motif order, as a sum() over the motifs does; np.sum may add pairwise
    norm = math.sqrt(np.cumsum(delta * delta)[-1])
    if norm == 0.0:
        warnings.warn("all significances are zero; characteristic profile is zero")
        return CharacteristicProfile(mode=sig.mode, cp=tuple(sig.delta))
    return CharacteristicProfile(mode=sig.mode, cp=tuple((delta / norm).tolist()))


def relative_counts(counts: CountVector, null: CountVector) -> tuple[float, ...]:
    """(M - M_rand) / (M + M_rand) per motif, with 0/0 defined as 0."""
    if counts.mode != null.mode or len(counts.counts) != len(null.counts):
        raise ValueError("count vectors come from different catalogs")
    m, mr = (np.asarray(c.counts, dtype=float) for c in (counts, null))
    total = m + mr
    return tuple(np.divide(m - mr, total, out=np.zeros_like(total), where=total != 0).tolist())


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
    return _result(h, mode, "hyperedge-profile", _edge_triples(lg, np.array([e])), hyperedge=e)


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
    """Exact motif counts (Python ints) inside an ego-network of node v;
    meta["node"] is v's input label, h.node_labels[v]."""
    sub = ego_network(h, v, kind).hypergraph
    lg = build_line_graph(sub)
    fields = {"num_wedges": lg.wedge_count, "node": int(h.node_labels[v]), "ego_kind": kind}
    return _result(sub, mode, "node-profile", _exact_triples(lg), **fields)


def _profile_array(cps: Sequence[Sequence[float]], labels=None) -> np.ndarray:
    """The profiles as rows of a float array; one whose length differs from
    profile 0's is a ValueError naming it and, given labels, its label."""
    for n, cp in enumerate(cps):
        if len(cp) != len(cps[0]):
            name = f"profile {n}" + (f" ({labels[n]!r})" if labels else "")
            raise ValueError(f"{name} has length {len(cp)}, profile 0 has {len(cps[0])}")
    return np.asarray(cps, dtype=float)


def motif_importance(
    labeled_cps: Sequence[tuple[str, Sequence[float]]]
) -> tuple[float, ...]:
    """Per-motif contribution to separating domains of labeled CPs.

    importance[t] = 1 - within/across, where within (across) is the mean
    |CP_t(a) - CP_t(b)| over same-domain (cross-domain) pairs; degenerate
    zero across-distances give 0. Profiles of unequal lengths are a ValueError.
    """
    domains = [d for d, _ in labeled_cps]
    if len(set(domains)) < 2:
        raise ValueError("importance needs profiles from at least two domains")
    a, b = np.array(list(combinations(range(len(domains)), 2))).T
    same = np.array(domains)[a] == np.array(domains)[b]
    if not same.any():
        raise ValueError("importance needs at least one same-domain pair")
    cps = _profile_array([cp for _, cp in labeled_cps], domains)
    gaps = np.abs(cps[a] - cps[b])
    d_within, d_across = gaps[same].mean(axis=0), gaps[~same].mean(axis=0)
    ratio = np.divide(d_within, d_across, out=np.ones_like(d_across), where=d_across != 0)
    return tuple((1.0 - ratio).tolist())


def cp_similarity_matrix(cps: Sequence[Sequence[float]]) -> np.ndarray:
    """Pearson correlation matrix of CP vectors; unit diagonal.

    A zero-variance profile correlates 0 with everything else, with a
    warning. Profiles of unequal lengths are a ValueError.
    """
    if len(cps) < 2:
        raise ValueError("similarity matrix needs at least two profiles")
    arr = _profile_array(cps)
    centered = arr - arr.mean(axis=1, keepdims=True)
    norms = np.sqrt((centered**2).sum(axis=1))
    if (flat := norms == 0).any():
        warnings.warn("zero-variance profile; its correlations are set to 0")
    norms[flat] = 1.0
    out = centered @ centered.T / np.outer(norms, norms)
    out[flat] = out[:, flat] = 0.0
    np.fill_diagonal(out, 1.0)
    return out


def conditional_entropy(
    binary_counts: Sequence[float],
    ternary_counts: Sequence[float],
    refinement: dict[int, int],
) -> float:
    """Extra information (nats) in the finer counts given the coarser ones.

    refinement maps fine motif ids to coarse motif ids and must partition
    the coarse counts exactly; an id outside its catalog is a ValueError.
    """
    ids = np.array([list(refinement), list(refinement.values())], dtype=np.int64)
    inside = ((ids >= 1) & (ids <= [[len(ternary_counts)], [len(binary_counts)]])).all(axis=0)
    if not inside.all():
        f, c = ids[:, inside.argmin()]
        raise ValueError(f"refinement entry {f} -> {c} lies outside the motif catalogs")
    fine_ids, coarse_ids = ids
    fine = np.asarray(ternary_counts, dtype=float)[fine_ids - 1]
    total = sum(binary_counts)
    if total == 0:
        return 0.0
    coarse = np.asarray(binary_counts, dtype=float)
    sums = np.bincount(coarse_ids - 1, weights=fine, minlength=len(coarse))
    # math.isclose(sums, coarse, rel_tol=1e-9, abs_tol=1e-9), elementwise
    gap, size = np.abs(sums - coarse), np.maximum(np.abs(sums), np.abs(coarse))
    if (wrong := ~((sums == coarse) | (gap <= np.maximum(1e-9 * size, 1e-9)))).any():
        t = wrong.argmax() + 1
        parts = sum(ternary_counts[f - 1] for f, c in refinement.items() if c == t)
        raise ValueError(
            f"fine counts for motif {t} sum to {parts}, expected {binary_counts[t - 1]}"
        )
    n_coarse = coarse[coarse_ids - 1]
    frac = np.divide(fine, n_coarse, out=np.zeros_like(fine), where=n_coarse != 0)
    pos = frac > 0
    return 0.0 - float(np.sum(n_coarse[pos] / total * frac[pos] * np.log(frac[pos])))
