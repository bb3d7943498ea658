"""Hypergraph data model: ingestion, deduplication, incidence indexing.

A hypergraph is a set of nodes plus a list of unique, non-empty hyperedges
(node subsets). Node labels from input files are remapped to dense 0-based
ids; the original labels are kept for round-tripping.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import IO, Iterable, Sequence

import numpy as np


class ParseError(ValueError):
    """Malformed token in an edge-list stream."""

    def __init__(self, line_no: int, token: str):
        self.line_no = line_no
        self.token = token
        super().__init__(f"line {line_no}: non-integer node label {token!r}")


class EmptyInputError(ValueError):
    """No hyperedges remained after parsing and filtering."""


@dataclass(frozen=True)
class Hypergraph:
    """Immutable hypergraph with dense node ids and a node->edges index.

    Attributes:
        edges: per hyperedge, a sorted tuple of member node ids.
        incidence: per node id, sorted tuple of incident hyperedge indices.
        labels: node id -> original input label.
        edge_sets: the same memberships as frozensets (built on first use).
    """

    edges: tuple[tuple[int, ...], ...]
    incidence: tuple[tuple[int, ...], ...]
    labels: tuple[int, ...]

    @cached_property
    def edge_sets(self) -> tuple[frozenset[int], ...]:
        return tuple(frozenset(e) for e in self.edges)

    @property
    def num_nodes(self) -> int:
        return len(self.incidence)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @cached_property
    def line_degrees(self) -> tuple[int, ...]:
        """Per hyperedge, the number of other hyperedges sharing a node with
        it (its line-graph degree); computed once per hypergraph."""
        inc = self.incidence
        return tuple(len(set().union(*(inc[v] for v in e))) - 1 for e in self.edges)

    @cached_property
    def member_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(sizes, offsets, keys): hyperedge i's members are stored, sorted, at
        keys[offsets[i]:offsets[i + 1]] as i * num_nodes + node, so a single
        searchsorted on keys tests many (hyperedge, node) memberships."""
        sizes = np.fromiter(map(len, self.edges), np.int32, count=self.num_edges)
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        keys = np.repeat(np.arange(self.num_edges, dtype=np.int64) * self.num_nodes, sizes)
        keys += np.fromiter(chain.from_iterable(self.edges), np.int64, count=len(keys))
        return sizes, offsets, keys

    def edge_size(self, i: int) -> int:
        return len(self.edges[i])

    def node_degree(self, v: int) -> int:
        """Number of hyperedges containing node v."""
        if not 0 <= v < len(self.incidence):
            raise IndexError(f"node id {v} out of range (|V|={len(self.incidence)})")
        return len(self.incidence[v])

    def total_incidences(self) -> int:
        """Sum of hyperedge sizes (= number of incidence pairs)."""
        return sum(len(e) for e in self.edges)

    def validate(self) -> None:
        """Check structural invariants; raises AssertionError on violation."""
        seen = set()
        for e in self.edges:
            assert e, "empty hyperedge"
            assert list(e) == sorted(set(e)), "members not sorted/unique"
            assert e not in seen, f"duplicate hyperedge {e}"
            seen.add(e)
        for v, incident in enumerate(self.incidence):
            for i in incident:
                assert v in self.edge_sets[i]
        assert sum(len(inc) for inc in self.incidence) == self.total_incidences()


@dataclass(frozen=True)
class IncidenceGraph:
    """Bipartite node/hyperedge membership graph (star expansion)."""

    node_ids: tuple[int, ...]
    edge_ids: tuple[int, ...]
    pairs: tuple[tuple[int, int], ...]


def from_edge_sets(edge_sets: Iterable[Iterable[int]]) -> Hypergraph:
    """Build a Hypergraph from an iterable of node-label collections.

    Labels are remapped to dense ids in order of first appearance; duplicate
    member sets collapse to their first occurrence; empty sets are skipped.
    """
    label_to_id: dict[int, int] = {}
    labels: list[int] = []
    edges: list[tuple[int, ...]] = []
    seen: set[frozenset[int]] = set()
    for raw in edge_sets:
        members = set(raw)
        if not members:
            continue
        ids = []
        for lab in sorted(members):
            if lab not in label_to_id:
                label_to_id[lab] = len(labels)
                labels.append(lab)
            ids.append(label_to_id[lab])
        key = frozenset(ids)
        if key in seen:
            continue
        seen.add(key)
        edges.append(tuple(sorted(ids)))
    if not edges:
        raise EmptyInputError("no hyperedges after filtering")
    incidence: list[list[int]] = [[] for _ in labels]
    for i, e in enumerate(edges):
        for v in e:
            incidence[v].append(i)
    return Hypergraph(
        edges=tuple(edges),
        incidence=tuple(tuple(inc) for inc in incidence),
        labels=tuple(labels),
    )


def _parse_line(line: str, line_no: int) -> list[int]:
    members = []
    for tok in line.replace(",", " ").split():
        try:
            members.append(int(tok))
        except ValueError:
            raise ParseError(line_no, tok) from None
    return members


def load_hypergraph(source: IO[str] | Iterable[str]) -> Hypergraph:
    """Parse an edge-list stream: one hyperedge per line, integer labels,
    whitespace or comma separated. Blank lines and '#' comments are skipped.
    """
    edge_sets = []
    for line_no, line in enumerate(source, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        edge_sets.append(_parse_line(stripped, line_no))
    return from_edge_sets(edge_sets)


def load_hypergraph_path(path) -> Hypergraph:
    with open(path, "r", encoding="utf-8") as fh:
        return load_hypergraph(fh)


def dump_hypergraph(h: Hypergraph, out: IO[str]) -> None:
    """Write the edge list using original labels, one hyperedge per line."""
    for e in h.edges:
        out.write(" ".join(str(h.labels[v]) for v in e))
        out.write("\n")


def incidence_graph(h: Hypergraph) -> IncidenceGraph:
    """Star expansion: one (node, hyperedge) pair per membership."""
    pairs = tuple((v, i) for i, e in enumerate(h.edges) for v in e)
    return IncidenceGraph(
        node_ids=tuple(range(h.num_nodes)),
        edge_ids=tuple(range(h.num_edges)),
        pairs=pairs,
    )


def node_degree(h: Hypergraph, v: int) -> int:
    return h.node_degree(v)


def convert_nverts_format(nverts_lines: Sequence[str], simplices_lines: Sequence[str]) -> list[list[int]]:
    """Convert the public two-file layout (per-edge vertex counts + flattened
    member stream) into edge-list rows. Returns a list of label lists."""
    counts = [int(tok) for line in nverts_lines for tok in line.split()]
    flat = [int(tok) for line in simplices_lines for tok in line.split()]
    if sum(counts) != len(flat):
        raise ValueError(
            f"member stream has {len(flat)} labels but counts sum to {sum(counts)}"
        )
    edges = []
    pos = 0
    for c in counts:
        edges.append(flat[pos : pos + c])
        pos += c
    return edges
