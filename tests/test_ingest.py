"""Property tests of the array ingest against the loops it replaced.

The reference oracles below are the call-by-call Chung-Lu redraw and the
tuple-by-tuple hypergraph builder: the vectorized redraw must return the
same slots and leave the generator in the same state, and the array builder
must give the same hyperedges, incidence lists and labels.
"""

import io
import random
from bisect import bisect_right
from itertools import accumulate, chain
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mochy import EmptyInputError, from_edge_sets, load_hypergraph
from mochy import nullmodel
from mochy.counting import _stream
from mochy.hypergraph import from_pairs
from mochy.nullmodel import _randbelow, randomize_chung_lu

from conftest import sample_incidence_slots

INGEST = settings(max_examples=80, deadline=None)


def reference_slots(h, rng):
    """The call-by-call redraw: two randrange(total) calls per incidence."""
    node_prefix, slot_prefix = h.node_ptr.tolist(), h.edge_ptr.tolist()
    total = node_prefix[-1]
    slots = [set() for _ in range(h.num_edges)]
    for _ in range(total):
        v = bisect_right(node_prefix, rng.randrange(total)) - 1
        j = bisect_right(slot_prefix, rng.randrange(total)) - 1
        slots[j].add(v)
    return slots


def reference_build(edge_sets):
    """(edges, incidence, labels) as the tuple-by-tuple builder made them."""
    label_to_id, labels, edges, seen = {}, [], [], set()
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
    incidence = [[] for _ in labels]
    for i, e in enumerate(edges):
        for v in e:
            incidence[v].append(i)
    return tuple(edges), tuple(map(tuple, incidence)), tuple(labels)


def assert_matches_reference(h, edge_sets):
    edges, incidence, labels = reference_build(edge_sets)
    assert h.node_labels.tolist() == list(labels)
    # the CSR arrays hold the reference's hyperedges and incidence lists
    assert h.edge_nodes.tolist() == list(chain.from_iterable(edges))
    assert h.node_edges.tolist() == list(chain.from_iterable(incidence))
    assert h.edge_ptr.tolist() == [0, *accumulate(map(len, edges))]
    assert h.node_ptr.tolist() == [0, *accumulate(map(len, incidence))]
    arrays = (h.edge_ptr, h.edge_nodes, h.node_ptr, h.node_edges, h.node_labels)
    assert [a.dtype for a in arrays] == [np.int64, np.int32, np.int64, np.int32, np.int64]
    sizes, keys = h.member_arrays
    assert sizes.tolist() == list(map(len, edges))
    assert keys.tolist() == [i * len(labels) + v for i, e in enumerate(edges) for v in e]


# A few sparse labels (negative, large, near the int64 ends) among small ones.
labels = st.one_of(
    st.integers(0, 12),
    st.sampled_from([-7, -(1 << 63), (1 << 63) - 1, 10**12, 1 << 40, 99]),
)


@st.composite
def rows_with_repeats(draw):
    """Rows with repeated labels and empty rows, plus reordered and
    label-repeating copies of earlier rows."""
    rows = draw(st.lists(st.lists(labels, max_size=6), min_size=1, max_size=12))
    for _ in range(draw(st.integers(0, 4))):
        copy = list(draw(st.sampled_from(rows)))
        copy = draw(st.permutations(copy)) + copy[: draw(st.integers(0, len(copy)))]
        rows.insert(draw(st.integers(0, len(rows))), copy)
    return rows


@st.composite
def hypergraphs(draw):
    edge = st.frozensets(st.integers(0, 15), min_size=1, max_size=6)
    return from_edge_sets(draw(st.lists(edge, min_size=1, max_size=10)))


@INGEST
@given(rows_with_repeats())
def test_builder_matches_tuple_builder(rows):
    if not any(rows):
        with pytest.raises(EmptyInputError):
            from_edge_sets(rows)
        return
    assert_matches_reference(from_edge_sets(rows), rows)
    row_of = np.repeat(np.arange(len(rows)), list(map(len, rows)))
    h = from_pairs(row_of, list(chain.from_iterable(rows)))
    assert_matches_reference(h, rows)


@INGEST
@given(rows_with_repeats(), st.randoms(use_true_random=False))
def test_parse_matches_tuple_builder(rows, rng):
    lines = ["# comment"]
    for row in rows:
        sep = rng.choice([" ", ",", " , ", "\t"])
        lines.append(sep.join(map(str, row)) if row else rng.choice(["", "   ", "#"]))
    text = io.StringIO("\n".join(lines) + "\n")
    nonempty = [row for row in rows if row]
    if not nonempty:
        with pytest.raises(EmptyInputError):
            load_hypergraph(text)
        return
    assert_matches_reference(load_hypergraph(text), nonempty)


def test_duplicate_rows_of_one_size_keep_the_first():
    rows = [[3, 1], [2, 1], [1, 3], [5, 4], [1, 2], [4, 5], [1, 3, 2], [2, 3, 1]]
    assert_matches_reference(from_edge_sets(rows), rows)


@INGEST
@given(hypergraphs(), st.integers(0, 1 << 64))
def test_redraw_matches_call_by_call_loop(h, seed):
    drawn, reference = random.Random(seed), random.Random(seed)
    assert sample_incidence_slots(h, drawn) == reference_slots(h, reference)
    assert drawn.getstate() == reference.getstate()


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 7), st.integers(0, 1 << 32), st.data())
def test_redraw_when_total_is_a_power_of_two(exponent, seed, data):
    # distinct starts make distinct ranges, so no row collapses
    total = 1 << exponent
    cuts = sorted(data.draw(st.sets(st.integers(1, total - 1), max_size=total - 1)))
    sizes = [b - a for a, b in zip([0, *cuts], [*cuts, total])]
    h = from_edge_sets(range(start, start + size) for start, size in enumerate(sizes))
    assert h.total_incidences() == total
    drawn, reference = random.Random(seed), random.Random(seed)
    assert sample_incidence_slots(h, drawn) == reference_slots(h, reference)
    assert drawn.getstate() == reference.getstate()


def test_redraw_when_total_is_one():
    h = from_edge_sets([{4}])
    for seed in range(20):
        drawn, reference = random.Random(seed), random.Random(seed)
        assert sample_incidence_slots(h, drawn) == reference_slots(h, reference) == [{0}]
        assert drawn.getstate() == reference.getstate()


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(st.integers(1, (1 << 32) - 1), st.integers(0, 31).map(lambda e: 1 << e)),
    st.integers(1, 300),
    st.integers(0, 1 << 64),
)
def test_randbelow_equals_randrange_calls(bound, count, seed):
    # the default block reads all words at once here; 7 words a block splits them
    for block in (nullmodel._WORD_BLOCK, 7):
        drawn, reference = random.Random(seed), random.Random(seed)
        with mock.patch.object(nullmodel, "_WORD_BLOCK", block):
            values = _randbelow(drawn, bound, count)
        assert values.tolist() == [reference.randrange(bound) for _ in range(count)]
        assert drawn.getstate() == reference.getstate()


@INGEST
@given(hypergraphs(), st.integers(0, 1 << 64))
def test_randomize_matches_tuple_builder_on_reference_slots(h, seed):
    slots = reference_slots(h, _stream(seed, 0))
    assert_matches_reference(randomize_chung_lu(h, seed), [s for s in slots if s])
