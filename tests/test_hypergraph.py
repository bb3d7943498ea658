"""Ingestion, deduplication, incidence indexing, round trips."""

import io
import random

import numpy as np
import pytest

from mochy import (
    EmptyInputError,
    ParseError,
    dump_hypergraph,
    from_edge_sets,
    load_hypergraph,
)
from mochy.cli import main
from mochy.hypergraph import _LINE_BLOCK, convert_nverts_format

from conftest import assert_valid, edge_sets, random_hypergraph


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
        assert (h.edge_ptr.tolist(), h.edge_nodes.tolist()) == ([0, 1], [0])
        assert h.node_labels.tolist() == [7]

    def test_incidence_membership(self):
        h = load_lines("1 2 3", "2 3 4", "3 4 5")
        assert h.num_edges == 3
        v3 = h.node_labels.tolist().index(3)
        assert h.node_edges[h.node_ptr[v3] : h.node_ptr[v3 + 1]].tolist() == [0, 1, 2]

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

    @pytest.mark.parametrize(
        "lines, line_no, token",
        [
            (["1 99999999999999999999", "2 x"], 2, "x"),
            (["99999999999999999999 x"], 1, "x"),
            (["1 y 99999999999999999999"], 1, "y"),
            # the wide label and the bad token in different blocks of lines
            (["-99999999999999999999 1", *["2 3"] * _LINE_BLOCK, "4,z"], _LINE_BLOCK + 2, "z"),
        ],
    )
    def test_parse_error_comes_before_a_label_outside_int64(self, lines, line_no, token):
        with pytest.raises(ParseError, match=f"^line {line_no}: non-integer node label '{token}'$"):
            load_lines(*lines)

    def test_cli_reports_the_parse_error_before_a_label_outside_int64(self, tmp_path, capsys):
        path = tmp_path / "in.txt"
        path.write_text("1 99999999999999999999\n2 x\n")
        assert main(["count", str(path)]) == 1
        assert capsys.readouterr().err == "mochy: error: line 2: non-integer node label 'x'\n"

    def test_from_edge_sets_rejects_a_label_outside_int64(self):
        with pytest.raises(ValueError, match="64-bit"):
            from_edge_sets([[1, 2], [1 << 63]])

    def test_within_line_repeats_collapse(self):
        h = load_lines("5 5 6")
        assert (h.edge_ptr.tolist(), h.edge_nodes.tolist()) == ([0, 2], [0, 1])

    def test_validate_passes(self):
        rng = random.Random(7)
        for _ in range(20):
            assert_valid(random_hypergraph(rng))


class TestRoundTrip:
    def test_dump_reload_identical(self):
        rng = random.Random(3)
        for _ in range(20):
            h = random_hypergraph(rng)
            buf = io.StringIO()
            dump_hypergraph(h, buf)
            h2 = load_hypergraph(io.StringIO(buf.getvalue()))
            original = {frozenset(h.node_labels[list(e)].tolist()) for e in edge_sets(h)}
            reloaded = {frozenset(h2.node_labels[list(e)].tolist()) for e in edge_sets(h2)}
            assert original == reloaded

    def test_dedup_idempotent(self):
        h = load_lines("1 2 3", "3 2 1", "4 5")
        buf = io.StringIO()
        dump_hypergraph(h, buf)
        h2 = load_hypergraph(io.StringIO(buf.getvalue()))
        assert h2.num_edges == h.num_edges


class TestDegrees:
    def test_two_edges(self):
        h = from_edge_sets([{0, 1}, {0, 2}])
        assert np.diff(h.node_ptr)[0] == 2

    def test_singleton_edge(self):
        h = from_edge_sets([{0}])
        assert np.diff(h.node_ptr)[0] == 1

    def test_out_of_range(self):
        h = from_edge_sets([{0}])
        with pytest.raises(IndexError):
            np.diff(h.node_ptr)[5]

    def test_incidence_sum_invariant(self):
        rng = random.Random(13)
        for _ in range(10):
            h = random_hypergraph(rng)
            assert np.diff(h.node_ptr).sum() == h.total_incidences()


class TestConvert:
    def test_two_file_layout(self):
        edges = convert_nverts_format(["2", "3"], ["1 2", "3 4 5"])
        assert edges == [[1, 2], [3, 4, 5]]

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            convert_nverts_format(["2", "3"], ["1 2 3"])

    def test_negative_count_rejected(self):
        # 3 + -1 matches the two labels, which would drop a simplex silently
        with pytest.raises(ValueError, match="vertex count -1 of simplex 2"):
            convert_nverts_format(["3 -1"], ["1 2"])
