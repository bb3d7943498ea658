"""Ingestion, deduplication, incidence indexing, round trips."""

import io
import random

import pytest

from mochy import (
    EmptyInputError,
    ParseError,
    dump_hypergraph,
    from_edge_sets,
    incidence_graph,
    load_hypergraph,
)
from mochy.hypergraph import convert_nverts_format

from conftest import random_hypergraph


def load_lines(*lines):
    return load_hypergraph(io.StringIO("\n".join(lines) + "\n"))


class TestLoad:
    def test_duplicates_collapse(self):
        h = load_lines("1 2 3", "2 3 4", "1 2 3")
        assert h.num_nodes == 4
        assert h.num_edges == 2

    def test_singleton(self):
        h = load_lines("7")
        assert h.num_nodes == 1
        assert h.num_edges == 1
        assert h.edges == ((0,),)
        assert h.labels == (7,)

    def test_incidence_membership(self):
        h = load_lines("1 2 3", "2 3 4", "3 4 5")
        assert h.num_edges == 3
        v3 = h.labels.index(3)
        assert h.incidence[v3] == (0, 1, 2)

    def test_comments_blanks_commas(self):
        h = load_lines("# header", "", "1,2,3", "  ", "4 5")
        assert h.num_edges == 2

    def test_parse_error_carries_line(self):
        with pytest.raises(ParseError, match="line 2"):
            load_lines("1 2", "1 x")

    def test_empty_input(self):
        with pytest.raises(EmptyInputError):
            load_lines("# nothing here")

    def test_label_outside_int64_is_rejected(self):
        with pytest.raises(ValueError, match="64-bit"):
            load_lines(f"1 {1 << 63}")

    def test_within_line_repeats_collapse(self):
        h = load_lines("5 5 6")
        assert h.edges == ((0, 1),)

    def test_validate_passes(self):
        rng = random.Random(7)
        for _ in range(20):
            random_hypergraph(rng).validate()


class TestRoundTrip:
    def test_dump_reload_identical(self):
        rng = random.Random(3)
        for _ in range(20):
            h = random_hypergraph(rng)
            buf = io.StringIO()
            dump_hypergraph(h, buf)
            h2 = load_hypergraph(io.StringIO(buf.getvalue()))
            original = {frozenset(h.labels[v] for v in e) for e in h.edges}
            reloaded = {frozenset(h2.labels[v] for v in e) for e in h2.edges}
            assert original == reloaded

    def test_dedup_idempotent(self):
        h = load_lines("1 2 3", "3 2 1", "4 5")
        buf = io.StringIO()
        dump_hypergraph(h, buf)
        h2 = load_hypergraph(io.StringIO(buf.getvalue()))
        assert h2.num_edges == h.num_edges


class TestIncidenceGraph:
    def test_single_edge_expansion(self):
        h = from_edge_sets([{0, 1}])
        g = incidence_graph(h)
        assert set(g.pairs) == {(0, 0), (1, 0)}

    def test_pair_count_is_size_sum(self):
        h = from_edge_sets([{0, 1, 2}, {1, 2, 3}])
        assert len(incidence_graph(h).pairs) == 6

    def test_pairs_match_membership(self):
        rng = random.Random(11)
        for _ in range(10):
            h = random_hypergraph(rng)
            g = incidence_graph(h)
            assert set(g.pairs) == {
                (v, i) for i, e in enumerate(h.edges) for v in e
            }
            assert len(g.pairs) == h.total_incidences()


class TestDegrees:
    def test_two_edges(self):
        h = from_edge_sets([{0, 1}, {0, 2}])
        assert h.node_degree(0) == 2

    def test_singleton_edge(self):
        h = from_edge_sets([{0}])
        assert h.node_degree(0) == 1

    def test_out_of_range(self):
        h = from_edge_sets([{0}])
        with pytest.raises(IndexError):
            h.node_degree(5)

    def test_incidence_sum_invariant(self):
        rng = random.Random(13)
        for _ in range(10):
            h = random_hypergraph(rng)
            assert sum(h.node_degree(v) for v in range(h.num_nodes)) == \
                h.total_incidences()


class TestConvert:
    def test_two_file_layout(self):
        edges = convert_nverts_format(["2", "3"], ["1 2", "3 4 5"])
        assert edges == [[1, 2], [3, 4, 5]]

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            convert_nverts_format(["2", "3"], ["1 2 3"])
