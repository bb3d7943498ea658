"""Hypergraph data model: ingestion, deduplication, incidence indexing.

A hypergraph is a set of nodes plus a list of unique, non-empty hyperedges
(node subsets). Node labels from input files are remapped to dense 0-based
ids; the original labels are kept for round-tripping. Parsing, in-memory
construction and the null model's replicates all go through one numpy
builder, `from_pairs`, which turns (row, label) membership pairs into CSR
membership and incidence arrays.

The parse gathers labels in an array('q'), 8 bytes each, a block of lines
at a time, and `from_pairs` keeps its per-pair temporaries int32 where the
values fit and frees each after its last use. On sparse input (hyperedges
of 2 to 5 members, about 0.8 distinct labels per incidence)
`load_hypergraph` peaks at about 47 bytes per incidence under tracemalloc,
the 23 of its result included.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, islice
from typing import IO, Iterable, Sequence

import numpy as np


_TOO_WIDE = "node labels must fit in 64-bit signed integers"


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


def _run_starts(a: np.ndarray) -> np.ndarray:
    """Per position of a, whether it starts a run of equal values."""
    out = np.empty(len(a), dtype=bool)
    out[:1] = True
    np.not_equal(a[1:], a[:-1], out=out[1:])
    return out


def _first_copies(ptr: np.ndarray, members: np.ndarray) -> np.ndarray:
    """Per row of a CSR array with sorted rows, whether no earlier row holds
    the same members.

    An order-free 64-bit hash of each row's members (a sum of splitmix64
    mixes, wrapping) sets most rows apart at once; only rows that share a
    hash are compared member by member, one row size at a time.
    """
    x = members.astype(np.uint64)
    t = np.empty_like(x)
    x ^= np.right_shift(x, np.uint64(30), out=t)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= np.right_shift(x, np.uint64(27), out=t)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= np.right_shift(x, np.uint64(31), out=t)
    del t
    digest = np.add.reduceat(x, ptr[:-1])
    del x
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
    input row rows[t]. Rows are non-negative integers below 2**31 (positions
    in the input), labels any integers that fit in 64 bits.

    Repeated pairs collapse. Labels get dense ids in order of first
    appearance, reading rows in ascending order and each row's labels in
    ascending order. Of rows with identical member sets only the first is
    kept, and the kept rows become hyperedges 0, 1, ... in row order; a row
    without pairs does not exist.

    Per-pair temporaries are int32 where the values fit, and each is freed
    after its last use.
    """
    rows = np.asarray(rows, dtype=np.int32)
    # int32 labels (node ids of a hypergraph) are ranked as they are
    if getattr(labels, "dtype", None) != np.int32:
        try:
            labels = np.asarray(labels, dtype=np.int64)
        except OverflowError:
            raise ValueError(_TOO_WIDE) from None
    if not len(rows):
        raise EmptyInputError("no hyperedges after filtering")
    # dense ranks of the labels: distinct[label_at] == labels
    order = np.argsort(labels)
    ranked = labels[order]
    new = _run_starts(ranked)
    distinct = ranked[new]
    del ranked
    n = len(distinct)
    rank = np.cumsum(new, dtype=np.int32)
    rank -= 1
    label_at = np.empty(len(rows), dtype=np.int32)
    label_at[order] = rank
    del order, new, rank
    # ids by first appearance: (first row holding the label, label) ascending
    first_row = np.full(n, rows.max(), dtype=np.int64)
    np.minimum.at(first_row, label_at, rows)
    first_row *= n
    first_row += np.arange(n)
    by_id = np.argsort(first_row)
    del first_row
    node_labels = distinct[by_id].astype(np.int64, copy=False)
    del distinct
    ids = np.empty(n, dtype=np.int32)
    ids[by_id] = np.arange(n, dtype=np.int32)
    del by_id
    # (row, id) order, repeated pairs dropped
    key = rows.astype(np.int64)
    del rows
    key *= n
    key += ids[label_at]
    del label_at, ids
    key.sort()
    fresh = _run_starts(key)
    node = np.remainder(key, n, out=np.empty(len(key), np.int32), casting="unsafe")
    key -= node
    starts = _run_starts(key)
    del key
    if not fresh.all():
        node, starts = node[fresh], starts[fresh]
    ptr = np.append(np.flatnonzero(starts), len(node))
    del fresh, starts
    keep = _first_copies(ptr, node)
    sizes = np.diff(ptr)
    del ptr
    if keep.all():
        edge_nodes = node
    else:
        edge_nodes = node[np.repeat(keep, sizes)]
        sizes = sizes[keep]
    del node
    num_edges = len(sizes)
    edge_ptr = np.zeros(num_edges + 1, dtype=np.int64)
    np.cumsum(sizes, out=edge_ptr[1:])
    node_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(edge_nodes, minlength=n), out=node_ptr[1:])
    # (node, hyperedge) order of the same memberships
    key = edge_nodes.astype(np.int64)
    key *= num_edges
    key += np.repeat(np.arange(num_edges, dtype=np.int32), sizes)
    key.sort()
    node_edges = np.remainder(key, num_edges, out=np.empty(len(key), np.int32), casting="unsafe")
    del key
    return Hypergraph(
        edge_ptr=edge_ptr,
        edge_nodes=edge_nodes,
        node_ptr=node_ptr,
        node_edges=node_edges,
        node_labels=node_labels,
    )


def _from_rows(labels: array, sizes: array) -> Hypergraph:
    """from_pairs over rows given as their labels, row after row, and their
    sizes, both in array('q') buffers (8 bytes a label; a list of ints
    takes about 36)."""
    return from_pairs(np.repeat(np.arange(len(sizes), dtype=np.int32), sizes), labels)


def from_edge_sets(edge_sets: Iterable[Iterable[int]]) -> Hypergraph:
    """Build a Hypergraph from an iterable of node-label collections.

    Labels are remapped to dense ids in order of first appearance; duplicate
    member sets collapse to their first occurrence; empty sets are skipped.
    """
    labels, sizes = array("q"), array("q")
    for raw in edge_sets:
        start = len(labels)
        try:
            labels.extend(raw)
        except OverflowError:
            raise ValueError(_TOO_WIDE) from None
        sizes.append(len(labels) - start)
    return _from_rows(labels, sizes)


# Input lines whose labels are converted in one call: each call holds this
# many lines' tokens as str and int objects, about 100 bytes a label.
_LINE_BLOCK = 128


def _reject(rows: list[list[str]], first_line: int) -> None:
    """Raise ParseError for the first non-integer token of rows, the tokens
    of the lines numbered from first_line on, if there is one."""
    for line_no, row in enumerate(rows, start=first_line):
        for tok in row:
            try:
                int(tok)
            except ValueError:
                raise ParseError(line_no, tok) from None


def load_hypergraph(source: IO[str] | Iterable[str]) -> Hypergraph:
    """Parse an edge-list stream: one hyperedge per line, integer labels,
    whitespace or comma separated. Blank lines and '#' comments are skipped.

    Labels go into an array('q') _LINE_BLOCK lines at a time. A label
    outside 64 bits is reported after the whole stream has been read, so a
    non-integer token on a later line is reported first.
    """
    labels, sizes = array("q"), array("q")
    too_wide = False
    lines = iter(source)
    line_no = 1
    while block := list(islice(lines, _LINE_BLOCK)):
        # a blank or comment line is a row without labels, which from_pairs drops
        rows = [
            [] if s.startswith("#") else s.replace(",", " ").split()
            for s in map(str.strip, block)
        ]
        sizes.fromlist(list(map(len, rows)))
        try:
            labels.fromlist(list(map(int, chain.from_iterable(rows))))
        except (ValueError, OverflowError):
            _reject(rows, line_no)
            too_wide = True
        line_no += len(block)
    if too_wide:
        raise ValueError(_TOO_WIDE)
    return _from_rows(labels, sizes)


def load_hypergraph_path(path) -> Hypergraph:
    with open(path, "r", encoding="utf-8") as fh:
        return load_hypergraph(fh)


def dump_hypergraph(h: Hypergraph, out: IO[str]) -> None:
    """Write the edge list using original labels, one hyperedge per line."""
    words = list(map(str, h.node_labels[h.edge_nodes].tolist()))
    bounds = h.edge_ptr.tolist()
    for a, b in zip(bounds, bounds[1:]):
        out.write(" ".join(words[a:b]) + "\n")


def _int(token: str, name: str, line: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ValueError(f"{name} line {line}: {token!r} is not an integer") from None


def convert_nverts_format(nverts_lines: Sequence[str], simplices_lines: Sequence[str]) -> list[list[int]]:
    """Convert the public two-file layout (per-edge vertex counts + flattened
    member stream) into edge-list rows. Returns a list of label lists."""
    counts, flat = (
        [_int(tok, name, n) for n, line in enumerate(lines, start=1) for tok in line.split()]
        for lines, name in ((nverts_lines, "vertex counts"), (simplices_lines, "member stream"))
    )
    for n, c in enumerate(counts, start=1):
        if c < 0:
            raise ValueError(f"vertex count {c} of simplex {n} is negative")
    if sum(counts) != len(flat):
        raise ValueError(
            f"member stream has {len(flat)} labels but counts sum to {sum(counts)}"
        )
    bounds = list(accumulate(counts, initial=0))
    return [flat[a:b] for a, b in zip(bounds, bounds[1:])]
