"""Hypergraph data model: ingestion, deduplication, incidence indexing.

A hypergraph is a set of nodes plus a list of unique, non-empty hyperedges
(node subsets). Node labels from input files are remapped to dense 0-based
ids; the original labels are kept for round-tripping. Parsing, in-memory
construction and the null model's replicates all go through one numpy
builder, `from_pairs`, which turns (row, label) membership pairs into CSR
membership and incidence arrays.
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


@dataclass(frozen=True, eq=False)
class Hypergraph:
    """Immutable hypergraph with dense node ids and a node->edges index.

    Stored as two CSR arrays, both sorted within each row: hyperedge i's
    member node ids are edge_nodes[edge_ptr[i]:edge_ptr[i + 1]], and node v's
    incident hyperedge indices are node_edges[node_ptr[v]:node_ptr[v + 1]];
    node_labels[v] is node v's original input label. Build one with
    `from_pairs` (or `from_edge_sets`/`load_hypergraph`, which call it).
    """

    edge_ptr: np.ndarray
    edge_nodes: np.ndarray
    node_ptr: np.ndarray
    node_edges: np.ndarray
    node_labels: np.ndarray

    @property
    def num_nodes(self) -> int:
        return len(self.node_ptr) - 1

    @property
    def num_edges(self) -> int:
        return len(self.edge_ptr) - 1

    @cached_property
    def line_degrees(self) -> np.ndarray:
        """Per hyperedge, the number of other hyperedges sharing a node with
        it (its line-graph degree); computed once per hypergraph."""
        from .linegraph import line_degrees

        return line_degrees(self)

    @cached_property
    def member_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(sizes, keys): hyperedge i's members are stored, sorted, at
        keys[edge_ptr[i]:edge_ptr[i + 1]] as i * num_nodes + node, so a single
        searchsorted on keys tests many (hyperedge, node) memberships."""
        sizes = np.diff(self.edge_ptr).astype(np.int32)
        keys = np.repeat(np.arange(self.num_edges, dtype=np.int64) * self.num_nodes, sizes)
        keys += self.edge_nodes
        return sizes, keys

    def total_incidences(self) -> int:
        """Sum of hyperedge sizes (= number of incidence pairs)."""
        return len(self.edge_nodes)


def _first_copies(ptr: np.ndarray, members: np.ndarray) -> np.ndarray:
    """Per row of a CSR array with sorted rows, whether no earlier row holds
    the same members.

    An order-free 64-bit hash of each row's members (a sum of splitmix64
    mixes, wrapping) sets most rows apart at once; only rows that share a
    hash are compared member by member, one row size at a time.
    """
    x = members.astype(np.uint64)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    digest = np.add.reduceat(x ^ (x >> np.uint64(31)), ptr[:-1])
    _, group, shared = np.unique(digest, return_inverse=True, return_counts=True)
    suspects = np.flatnonzero(shared[group] > 1)
    sizes = np.diff(ptr)
    keep = np.ones(len(sizes), dtype=bool)
    # a set, not np.unique: numpy 2.4 imports numpy.ma (~15 ms) on a
    # process's first plain np.unique call
    for size in sorted(set(sizes[suspects].tolist())):
        rows = suspects[sizes[suspects] == size]
        block = members[ptr[rows, None] + np.arange(size)]
        firsts = np.unique(block, axis=0, return_index=True)[1]
        keep[rows] = False
        keep[rows[firsts]] = True
    return keep


def from_pairs(rows, labels) -> Hypergraph:
    """Build a Hypergraph from membership pairs: labels[t] is a member of
    input row rows[t]. Rows are small non-negative integers (positions in
    the input), labels any integers that fit in 64 bits.

    Repeated pairs collapse. Labels get dense ids in order of first
    appearance, reading rows in ascending order and each row's labels in
    ascending order. Of rows with identical member sets only the first is
    kept, and the kept rows become hyperedges 0, 1, ... in row order; a row
    without pairs does not exist.
    """
    rows = np.asarray(rows, dtype=np.int64)
    try:
        labels = np.asarray(labels, dtype=np.int64)
    except OverflowError:
        raise ValueError("node labels must fit in 64-bit signed integers") from None
    if not len(rows):
        raise EmptyInputError("no hyperedges after filtering")
    distinct, label_at = np.unique(labels, return_inverse=True)
    n = len(distinct)
    # first appearance = (first row holding the label, label); those keys are unique
    first_row = np.full(n, rows.max())
    np.minimum.at(first_row, label_at, rows)
    by_id = np.argsort(first_row * n + np.arange(n))
    ids = np.empty(n, dtype=np.int64)
    ids[by_id] = np.arange(n)
    # (row, id) order, repeated pairs dropped
    pairs = np.sort(rows * n + ids[label_at])
    row, node = np.divmod(pairs[np.diff(pairs, prepend=-1) != 0], n)
    ptr = np.append(np.flatnonzero(np.diff(row, prepend=-1)), len(row))
    keep = _first_copies(ptr, node)
    edge_nodes = node[np.repeat(keep, np.diff(ptr))].astype(np.int32)
    sizes = np.diff(ptr)[keep]
    edge_ptr = np.concatenate([[0], np.cumsum(sizes)])
    num_edges = len(sizes)
    # (node, hyperedge) order of the same memberships
    edge_of = np.repeat(np.arange(num_edges), sizes)
    by_node = np.sort(edge_nodes.astype(np.int64) * num_edges + edge_of)
    node_edges = (by_node % num_edges).astype(np.int32)
    node_ptr = np.concatenate([[0], np.cumsum(np.bincount(edge_nodes, minlength=n))])
    return Hypergraph(
        edge_ptr=edge_ptr,
        edge_nodes=edge_nodes,
        node_ptr=node_ptr,
        node_edges=node_edges,
        node_labels=distinct[by_id],
    )


def from_edge_sets(edge_sets: Iterable[Iterable[int]]) -> Hypergraph:
    """Build a Hypergraph from an iterable of node-label collections.

    Labels are remapped to dense ids in order of first appearance; duplicate
    member sets collapse to their first occurrence; empty sets are skipped.
    """
    rows = [tuple(raw) for raw in edge_sets]
    sizes = np.fromiter(map(len, rows), np.int64, count=len(rows))
    members = list(chain.from_iterable(rows))
    return from_pairs(np.repeat(np.arange(len(rows)), sizes), members)


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
    labels: list[int] = []
    sizes: list[int] = []
    for line_no, line in enumerate(source, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        members = _parse_line(stripped, line_no)
        labels += members
        sizes.append(len(members))
    return from_pairs(np.repeat(np.arange(len(sizes)), sizes), labels)


def load_hypergraph_path(path) -> Hypergraph:
    with open(path, "r", encoding="utf-8") as fh:
        return load_hypergraph(fh)


def dump_hypergraph(h: Hypergraph, out: IO[str]) -> None:
    """Write the edge list using original labels, one hyperedge per line."""
    words = list(map(str, h.node_labels[h.edge_nodes].tolist()))
    bounds = h.edge_ptr.tolist()
    for a, b in zip(bounds, bounds[1:]):
        out.write(" ".join(words[a:b]) + "\n")


def convert_nverts_format(nverts_lines: Sequence[str], simplices_lines: Sequence[str]) -> list[list[int]]:
    """Convert the public two-file layout (per-edge vertex counts + flattened
    member stream) into edge-list rows. Returns a list of label lists."""
    counts = [int(tok) for line in nverts_lines for tok in line.split()]
    flat = [int(tok) for line in simplices_lines for tok in line.split()]
    for n, c in enumerate(counts, start=1):
        if c < 0:
            raise ValueError(f"vertex count {c} of simplex {n} is negative")
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
