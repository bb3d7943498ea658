"""Command-line interface: outputs, manifests, determinism, exit codes."""

import argparse
import csv
import errno
import hashlib
import importlib.util
import io
import json
import math
import os
import random
import re
import stat
import subprocess
import sys
import threading
import warnings
from contextlib import suppress
from pathlib import Path

import numpy as np
import pytest

from mochy import (
    MotifMode,
    NullModelConfig,
    build_line_graph,
    characteristic_profile,
    count_exact,
    count_otf,
    count_sample_hyperedge,
    count_sample_hyperwedge,
    dump_hypergraph,
    enumerate_instances,
    hyperedge_profile,
    load_hypergraph_path,
    node_profile,
    null_counts,
    randomize_chung_lu,
    significance,
)
from mochy.cli import _validate, _write_rows, build_parser, main
from mochy.linegraph import dump_line_graph

from conftest import TWELVE_EDGES, random_hypergraph

CHAIN = "1 2 3\n2 3 4\n3 4 5\n"
TWELVE = "".join(" ".join(map(str, sorted(e))) + "\n" for e in TWELVE_EDGES)
SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture
def chain_file(tmp_path):
    path = tmp_path / "chain.txt"
    path.write_text(CHAIN)
    return str(path)


@pytest.fixture
def twelve_file(tmp_path):
    path = tmp_path / "twelve.txt"
    path.write_text(TWELVE)
    return str(path)


def read_counts_csv(path):
    with open(path) as fh:
        return {int(row["id"]): float(row["count"]) for row in csv.DictReader(fh)}


class TestCount:
    def test_exact_chain(self, chain_file, tmp_path):
        out = str(tmp_path / "counts.csv")
        assert main(["count", "--algo", "exact", chain_file, "--out", out]) == 0
        counts = read_counts_csv(out)
        assert len(counts) == 26
        assert sum(counts.values()) == 1.0

    def test_manifest_written_with_checksum(self, chain_file, tmp_path):
        out = str(tmp_path / "counts.csv")
        main(["count", chain_file, "--out", out])
        manifest = json.loads((tmp_path / "counts.csv.manifest.json").read_text())
        assert manifest["command"] == "count"
        assert manifest["input"] == chain_file
        assert len(manifest["outputs"][out]) == 64
        assert manifest["elapsed_seconds"] >= 0

    def test_zero_samples_is_usage_error(self, chain_file):
        with pytest.raises(SystemExit) as info:
            main(["count", "--algo", "wedge-sample", "-r", "0", chain_file])
        assert info.value.code == 2

    def test_missing_samples_is_usage_error(self, chain_file):
        with pytest.raises(SystemExit) as info:
            main(["count", "--algo", "edge-sample", chain_file])
        assert info.value.code == 2

    def test_missing_file_is_runtime_error(self, tmp_path):
        assert main(["count", str(tmp_path / "nope.txt")]) == 1

    def test_malformed_input_is_runtime_error(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("1 2\n3 x\n")
        assert main(["count", str(bad)]) == 1

    def test_otf_deterministic_across_runs(self, twelve_file, tmp_path):
        outs = []
        for run in range(2):
            out = str(tmp_path / f"otf{run}.csv")
            code = main([
                "count", "--algo", "otf-advanced", "--budget", "0.1",
                "--seed", "7", "--threads", "4", "-r", "30",
                twelve_file, "--out", out,
            ])
            assert code == 0
            outs.append(open(out).read())
        assert outs[0] == outs[1]

    def test_otf_matches_wedge_sample(self, twelve_file, tmp_path):
        args = ["--seed", "3", "-r", "25", "--threads", "2"]
        a = str(tmp_path / "a.csv")
        b = str(tmp_path / "b.csv")
        main(["count", "--algo", "wedge-sample", *args, twelve_file, "--out", a])
        main(["count", "--algo", "otf-basic", "--budget", "1.0", *args,
              twelve_file, "--out", b])
        assert open(a).read() == open(b).read()

    def test_json_output(self, chain_file, tmp_path):
        out = str(tmp_path / "counts.json")
        main(["count", chain_file, "--json", "--out", out])
        payload = json.loads(open(out).read())
        assert payload["meta"]["algorithm"] == "exact"
        assert len(payload["counts"]) == 26

    def test_ternary_mode(self, chain_file, tmp_path):
        out = str(tmp_path / "t.csv")
        main(["count", chain_file, "--motifs", "ternary", "--out", out])
        assert len(read_counts_csv(out)) == 431


class TestCp:
    def test_reproducible(self, twelve_file, tmp_path):
        outs = []
        for run in range(2):
            out = str(tmp_path / f"cp{run}.csv")
            code = main([
                "cp", twelve_file, "--replicates", "2", "--seed", "5",
                "--out", out,
            ])
            assert code == 0
            outs.append(open(out).read())
        assert outs[0] == outs[1]

    def test_norm_is_one(self, twelve_file, tmp_path):
        out = str(tmp_path / "cp.csv")
        main(["cp", twelve_file, "--replicates", "2", "--seed", "5", "--out", out])
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 26
        norm = math.sqrt(sum(float(r["cp"]) ** 2 for r in rows))
        assert norm == pytest.approx(1.0, abs=1e-12)

    def test_identical_inputs_identical_cps(self, twelve_file, tmp_path):
        copy = tmp_path / "copy.txt"
        copy.write_text(open(twelve_file).read())
        a = str(tmp_path / "a.csv")
        b = str(tmp_path / "b.csv")
        main(["cp", twelve_file, "--replicates", "2", "--seed", "9", "--out", a])
        main(["cp", str(copy), "--replicates", "2", "--seed", "9", "--out", b])
        assert open(a).read() == open(b).read()


class TestMisc:
    def test_catalog_row_counts(self, tmp_path):
        for states, expected in (("2", 26), ("3", 431)):
            out = str(tmp_path / f"cat{states}.csv")
            assert main(["catalog", "--arity", "3", "--states", states,
                         "--out", out]) == 0
            with open(out) as fh:
                rows = list(csv.DictReader(fh))
            assert len(rows) == expected
        opens = [r["open"] for r in rows]
        assert len(rows[0]["pattern"]) == 7

    def test_catalog_open_count(self, tmp_path):
        out = str(tmp_path / "cat.csv")
        main(["catalog", "--arity", "3", "--states", "2", "--out", out])
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert sum(int(r["open"]) for r in rows) == 6

    def test_enumerate_has_no_json_flag(self, chain_file):
        with pytest.raises(SystemExit) as info:
            main(["enumerate", chain_file, "--json"])
        assert info.value.code == 2

    def test_enumerate_chain(self, chain_file, tmp_path):
        out = str(tmp_path / "inst.csv")
        assert main(["enumerate", chain_file, "--out", out]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert sorted((rows[0]["i"], rows[0]["j"], rows[0]["k"])) == ["0", "1", "2"]

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("motifs, mode", [
        ([], MotifMode("binary")),
        (["--motifs", "ternary", "--variant", "hr-mean"], MotifMode("hr", sigma="mean")),
        (["--motifs", "ternary", "--theta", "2"], MotifMode("abs", theta=2)),
    ])
    def test_enumerate_csv_equals_the_sink_rows(self, seed, motifs, mode, tmp_path):
        src = tmp_path / "in.txt"
        with open(src, "w") as fh:
            dump_hypergraph(random_hypergraph(random.Random(seed), 30, 60), fh)
        out = tmp_path / "inst.csv"
        assert main(["enumerate", str(src), *motifs, "--out", str(out)]) == 0
        h = load_hypergraph_path(str(src))
        rows = ["i,j,k,motif_id\n"]
        enumerate_instances(
            h, build_line_graph(h), lambda i, j, k, t: rows.append(f"{i},{j},{k},{t}\n"), mode
        )
        assert len(rows) > 1
        assert out.read_text() == "".join(rows)

    def test_randomize_writes_replicates(self, twelve_file, tmp_path):
        prefix = str(tmp_path / "rand")
        assert main(["randomize", twelve_file, "--replicates", "3",
                     "--seed", "1", "--out", prefix]) == 0
        for rep in range(3):
            lines = open(f"{prefix}.{rep}.txt").read().strip().splitlines()
            assert lines
        manifest = json.loads(open(f"{prefix}.0.txt.manifest.json").read())
        assert len(manifest["outputs"]) == 3

    def test_randomize_writes_the_null_models_replicates(self, twelve_file, tmp_path):
        prefix = str(tmp_path / "rand")
        assert main(["randomize", twelve_file, "--replicates", "2",
                     "--seed", "5", "--out", prefix]) == 0
        replicates = []

        def dump(h_rand):
            text = io.StringIO()
            dump_hypergraph(h_rand, text)
            return text.getvalue()

        def counter(h_rand, rng):
            replicates.append(dump(h_rand))
            return count_exact(h_rand, build_line_graph(h_rand))

        h = load_hypergraph_path(twelve_file)
        null_counts(h, counter, NullModelConfig(2, 5))
        written = [Path(f"{prefix}.{rep}.txt").read_text() for rep in range(2)]
        assert written == replicates == [dump(randomize_chung_lu(h, 5, rep)) for rep in range(2)]

    def test_profile_node(self, chain_file, tmp_path):
        out = str(tmp_path / "np.csv")
        assert main(["profile-node", chain_file, "--node", "3",
                     "--kind", "radial", "--out", out]) == 0
        assert sum(read_counts_csv(out).values()) == 1.0

    def test_profile_edge(self, chain_file, tmp_path):
        out = str(tmp_path / "hp.csv")
        assert main(["profile-edge", chain_file, "--edge", "1", "--out", out]) == 0
        assert sum(read_counts_csv(out).values()) == 1.0

    def test_profile_missing_node_label(self, chain_file):
        assert main(["profile-node", chain_file, "--node", "99"]) == 1

    def test_recommend_samples(self, capsys):
        assert main([
            "recommend-samples", "--estimator", "wedge", "--epsilon", "0.1",
            "--delta", "0.1", "--d-max", "2", "--count", "10",
            "--population", "100",
        ]) == 0
        assert capsys.readouterr().out.strip() == "6659"

    def test_stats_and_linegraph_dump(self, chain_file, tmp_path):
        out = str(tmp_path / "stats.csv")
        lg_out = str(tmp_path / "lg.csv")
        assert main(["stats", chain_file, "--out", out,
                     "--linegraph-out", lg_out]) == 0
        with open(out) as fh:
            stats = {row["key"]: row["value"] for row in csv.DictReader(fh)}
        assert stats["num_edges"] == "3"
        assert stats["num_wedges"] == "3"
        assert open(lg_out).readline().strip() == "i,j,weight"

    def test_convert(self, tmp_path, capsys):
        nv = tmp_path / "nverts.txt"
        sx = tmp_path / "simplices.txt"
        nv.write_text("2\n3\n")
        sx.write_text("1\n2\n3\n4\n5\n")
        assert main(["convert", "--nverts", str(nv), "--simplices", str(sx)]) == 0
        assert capsys.readouterr().out == "1 2\n3 4 5\n"

    def test_convert_negative_count_is_one_line_error(self, tmp_path, capsys):
        nv = tmp_path / "nverts.txt"
        sx = tmp_path / "simplices.txt"
        nv.write_text("3\n-1\n")
        sx.write_text("1\n2\n")
        assert main(["convert", "--nverts", str(nv), "--simplices", str(sx)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "mochy: error: vertex count -1 of simplex 2 is negative\n"

    @pytest.mark.parametrize("nverts, simplices, message", [
        ("2\n1 x\n", "1 2\n3\n", "vertex counts line 2: 'x' is not an integer"),
        ("2\n1\n", "1 2\n\n3.0\n", "member stream line 3: '3.0' is not an integer"),
    ], ids=["nverts", "simplices"])
    def test_convert_bad_token_names_its_line(self, tmp_path, capsys, nverts, simplices, message):
        nv = tmp_path / "nverts.txt"
        sx = tmp_path / "simplices.txt"
        nv.write_text(nverts)
        sx.write_text(simplices)
        assert main(["convert", "--nverts", str(nv), "--simplices", str(sx)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"mochy: error: {message}\n"


def _columns(cv, **columns):
    """A count vector as --json reads: its meta, then one list per motif column."""
    return {"meta": cv.meta, "count": cv.counts, **{k: list(v) for k, v in columns.items()}}


def _cp(h, seed):
    counts = count_sample_hyperwedge(h, build_line_graph(h), 30, seed)

    def replicate_counter(h_rand, rng):
        lg = build_line_graph(h_rand)
        return count_sample_hyperwedge(h_rand, lg, 30, rng.randrange(1 << 62))

    null, _ = null_counts(h, replicate_counter, NullModelConfig(replicates=3, seed=seed))
    sig = significance(counts, null)
    cp = characteristic_profile(sig).cp
    return _columns(counts, null_count=null.counts, delta=sig.delta, cp=cp)


def _stats(h, seed):
    lg = build_line_graph(h)
    text = io.StringIO()
    dump_line_graph(lg, text)
    return {
        "num_nodes": h.num_nodes,
        "num_edges": h.num_edges,
        "incidences": h.total_incidences(),
        "max_edge_size": int(np.diff(h.edge_ptr).max()),
        "num_wedges": lg.wedge_count,
        "max_line_degree": int(np.diff(lg.indptr).max()),
        "linegraph": text.getvalue(),
    }


def _label(h, label):
    return int(np.flatnonzero(h.node_labels == label)[0])


def _sampled(sample):
    return lambda h, seed: _columns(sample(h, build_line_graph(h), 30, seed))


def _otf(variant):
    return lambda h, seed: _columns(
        count_otf(h, 30, int(0.5 * h.line_degrees.sum()), seed, variant)
    )


SAMPLED = ["-r", "30", "--seed", "{seed}"]

# command -> its options ({seed} is the seed, {lg} a file) and the library
# calls that give its --json values at that seed; profile-node and
# profile-edge take no seed and use it as the node label and edge index
EQUIVALENCES = {
    "count-exact": (["count"], lambda h, seed: _columns(count_exact(h, build_line_graph(h)))),
    "count-edge-sample": (["count", "--algo", "edge-sample", *SAMPLED],
                          _sampled(count_sample_hyperedge)),
    "count-wedge-sample": (["count", "--algo", "wedge-sample", *SAMPLED],
                           _sampled(count_sample_hyperwedge)),
    "count-otf-basic": (["count", "--algo", "otf-basic", "--budget", "0.5", *SAMPLED],
                        _otf("basic")),
    "count-otf-advanced": (["count", "--algo", "otf-advanced", "--budget", "0.5", *SAMPLED],
                           _otf("advanced")),
    "cp": (["cp", "--algo", "wedge-sample", "--replicates", "3", *SAMPLED], _cp),
    "profile-node": (["profile-node", "--node", "{seed}"],
                     lambda h, seed: _columns(node_profile(h, _label(h, seed)))),
    "profile-edge": (["profile-edge", "--edge", "{seed}"],
                     lambda h, seed: _columns(hyperedge_profile(h, build_line_graph(h), seed))),
    "stats": (["stats", "--linegraph-out", "{lg}"], _stats),
}


@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("command", EQUIVALENCES)
def test_library_reproduces_the_command(command, seed, twelve_file, tmp_path):
    options, library = EQUIVALENCES[command]
    out, lg_out = tmp_path / "out.json", tmp_path / "lg.csv"
    argv = [option.format(seed=seed, lg=lg_out) for option in options]
    assert main([argv[0], twelve_file, *argv[1:], "--json", "--out", str(out)]) == 0
    document = json.loads(out.read_text())
    if "meta" in document:
        (rows,) = (value for key, value in document.items() if key != "meta")
        document = {"meta": document["meta"], **{
            key: [row[key] for row in rows] for key in rows[0] if key not in ("id", "pattern")
        }}
    else:
        document["linegraph"] = lg_out.read_text()
    assert document == library(load_hypergraph_path(twelve_file), seed)


class TestWriteRows:
    def test_integers_are_exact(self):
        out = io.StringIO()
        rows = [
            {"id": 1, "count": 2**53 + 1},
            {"id": 2, "count": 10**17},
            {"id": 3, "count": np.int64(2**62 + 1)},
        ]
        _write_rows(out, False, rows, {}, "counts")
        assert out.getvalue() == (
            "id,count\n"
            "1,9007199254740993\n"
            "2,100000000000000000\n"
            f"3,{2**62 + 1}\n"
        )

    def test_floats_and_flags_keep_their_format(self):
        out = io.StringIO()
        rows = [{"x": 12.0, "y": 0.1, "flag": True, "name": "011"}]
        _write_rows(out, False, rows, {}, "rows")
        assert out.getvalue() == "x,y,flag,name\n12,0.10000000000000001,1,011\n"


class TestSeedRange:
    @pytest.mark.parametrize("seed", ["-5", str(1 << 64)])
    def test_out_of_range_seed_is_usage_error(self, seed, chain_file, tmp_path):
        for argv in (
            ["count", chain_file, "--seed", seed],
            ["cp", chain_file, "--replicates", "1", "--seed", seed],
            ["randomize", chain_file, "--seed", seed, "--out", str(tmp_path / "r")],
        ):
            with pytest.raises(SystemExit) as info:
                main(argv)
            assert info.value.code == 2

    def test_largest_seed_is_accepted(self, chain_file, tmp_path):
        out = str(tmp_path / "c.csv")
        seed = str((1 << 64) - 1)
        assert main(["count", chain_file, "--algo", "wedge-sample", "-r", "5",
                     "--seed", seed, "--out", out]) == 0


class TestNonFiniteOptions:
    RECOMMEND = ["recommend-samples", "--estimator", "wedge", "--epsilon", "0.1",
                 "--delta", "0.1", "--d-max", "2", "--count", "10", "--population", "100"]

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize("argv", [  # "--x=-inf", as "-inf" alone reads as an option
        ["count", "{in}", "--algo", "otf-basic", "-r", "5", "--budget={v}"],
        ["cp", "{in}", "--replicates", "1", "--budget={v}"],
        ["cp", "{in}", "--replicates", "1", "--epsilon={v}"],
        ["count", "{in}", "--motifs", "ternary", "--variant", "mr", "--p={v}"],
        [*RECOMMEND, "--epsilon={v}"],
        [*RECOMMEND, "--delta={v}"],
        [*RECOMMEND, "--count={v}"],
    ])
    def test_is_one_line_usage_error(self, argv, value, chain_file, capsys):
        with pytest.raises(SystemExit) as info:
            main([a.format(**{"in": chain_file, "v": value}) for a in argv])
        assert info.value.code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err[-1].endswith("must be finite")
        assert not any("Traceback" in line for line in err)


class TestOutOfRangeInputs:
    RECOMMEND = TestNonFiniteOptions.RECOMMEND
    HUGE = str(10**20)

    @pytest.mark.parametrize("argv, code", [
        (["count", "{in}", "--algo", "otf-basic", "-r", "3", "--budget", "1e308"], 1),
        (["count", "{in}", "--algo", "edge-sample", "-s", HUGE], 2),
        (["count", "{in}", "--algo", "wedge-sample", "-r", HUGE], 2),
        (["count", "{in}", "--algo", "otf-basic", "-r", HUGE], 2),
        (["count", "{in}", "--algo", "otf-advanced", "-r", str(1 << 63)], 2),
        ([*RECOMMEND, "--delta", "5"], 1),
        ([*RECOMMEND, "--estimator", "edge", "--delta", "3"], 1),
        ([*RECOMMEND, "--delta", "1"], 1),
        ([*RECOMMEND, "--d-max", "-3", "--population", "-100"], 1),
        ([*RECOMMEND, "--count", "1e-300"], 1),
        ([*RECOMMEND, "--epsilon", "0"], 1),
        # 0 would make a motif counted 0 times in the input and the null 0 / 0
        (["cp", "{in}", "--replicates", "1", "--epsilon", "0"], 2),
        (["cp", "{in}", "--replicates", "1", "--epsilon=-1"], 2),
        # p is a ratio threshold of mr and hr-*, decided before the input is read
        (["count", "{in}", "--motifs", "ternary", "--variant", "mr", "--p", "1.5"], 2),
        (["count", "{in}", "--motifs", "ternary", "--variant", "hr-max", "--p", "0"], 2),
    ])
    def test_is_one_line_error(self, argv, code, chain_file, capsys):
        argv = [a.format(**{"in": chain_file}) for a in argv]
        if code == 2:
            with pytest.raises(SystemExit) as info:
                main(argv)
            assert info.value.code == 2
        else:
            assert main(argv) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert [line for line in err if "error" in line] == err[-1:]
        # a usage error is the command's, a runtime error the program's
        assert err[-1].startswith(f"mochy {argv[0]}: error: " if code == 2 else "mochy: error: ")
        assert not any("Traceback" in line for line in err)

    def test_p_out_of_range_is_rejected_before_the_input_is_read(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.txt")
        with pytest.raises(SystemExit) as info:
            main(["count", missing, "--motifs", "ternary", "--variant", "hr-max", "--p", "0"])
        assert info.value.code == 2
        assert capsys.readouterr().err.strip().splitlines()[-1] == (
            "mochy count: error: --p must lie in (0, 1)"
        )

    def test_p_is_not_checked_where_the_run_does_not_read_it(self, chain_file, capsys):
        assert main(["count", chain_file, "--p", "1.5"]) == 0
        assert main(["count", chain_file, "--motifs", "ternary", "--variant", "abs", "--p", "0"]) == 0


def _subparsers() -> dict:
    parser = build_parser()
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices


def _subcommands():
    return list(_subparsers())


# One run per subcommand: argv with {in} for the input file and {out} for
# --out, plus the files besides --out that the run writes.
RUNS = {
    "count": (["count", "{in}", "--out", "{out}"], []),
    "cp": (["cp", "{in}", "--replicates", "1", "--out", "{out}"], []),
    "enumerate": (["enumerate", "{in}", "--out", "{out}"], []),
    "randomize": (["randomize", "{in}", "--replicates", "2", "--out", "{out}"],
                  ["{out}.0.txt", "{out}.1.txt"]),
    "catalog": (["catalog", "--out", "{out}"], []),
    "profile-node": (["profile-node", "{in}", "--node", "3", "--out", "{out}"], []),
    "profile-edge": (["profile-edge", "{in}", "--edge", "1", "--out", "{out}"], []),
    "recommend-samples": ([
        "recommend-samples", "--estimator", "edge", "--epsilon", "0.1", "--delta",
        "0.1", "--d-max", "2", "--count", "10", "--population", "100", "--out", "{out}",
    ], []),
    "stats": (["stats", "{in}", "--out", "{out}", "--linegraph-out", "{out}.lg"],
              ["{out}.lg"]),
    "convert": (["convert", "--nverts", "{nverts}", "--simplices", "{in}",
                 "--out", "{out}"], []),
}


def _argv(command, tmp_path, text):
    """The command's argv and its written files besides --out, with the
    input holding text and every output in tmp_path/"out"."""
    inputs = tmp_path / "in"
    inputs.mkdir(exist_ok=True)
    (tmp_path / "out").mkdir(exist_ok=True)
    (inputs / "input.txt").write_text(text)
    (inputs / "nverts.txt").write_text("3\n3\n3\n")  # CHAIN's nine labels, three simplices
    paths = {
        "in": str(inputs / "input.txt"),
        "nverts": str(inputs / "nverts.txt"),
        "out": str(tmp_path / "out" / "result"),
    }
    argv, extra = RUNS[command]
    return [a.format(**paths) for a in argv], [f.format(**paths) for f in extra]


MANIFEST_KEYS = {
    "command", "input", "input_sha256", "input_bytes", "options", "elapsed_seconds",
    "outputs", "version",
}
# Parsed attributes the manifest's options leave out
NOT_OPTIONS = {"func", "parser", "command", "input"}


def _manifest(argv, extra) -> dict:
    """The manifest a run of argv wrote: beside randomize's first replicate,
    else beside --out."""
    anchor = extra[0] if argv[0] == "randomize" else argv[argv.index("--out") + 1]
    return json.loads(Path(anchor + ".manifest.json").read_text())


def _replay_argv(manifest) -> list[str]:
    """The command line a manifest records: its command and input, then each
    of its options as the option string of the subparser action that stores
    it (a store_true flag only when set, an option holding None not at all)."""
    options = dict(manifest["options"])
    argv = [manifest["command"], *([manifest["input"]] if manifest["input"] else [])]
    for action in _subparsers()[manifest["command"]]._actions:
        value = options.pop(action.dest, None)
        if value is True:
            argv.append(action.option_strings[-1])
        elif value is not None and value is not False:
            argv += [action.option_strings[-1], str(value)]
    assert not options, f"options no action stores: {options}"
    return argv


def _rerun(manifest) -> None:
    """Delete the outputs a manifest vouches for, then run its command line
    again."""
    for path in manifest["outputs"]:
        os.remove(path)
    assert main(_replay_argv(manifest)) == 0


class TestManifest:
    @pytest.mark.parametrize("command", _subcommands())
    def test_has_the_same_keys_for_every_command(self, command, tmp_path):
        argv, extra = _argv(command, tmp_path, CHAIN)
        assert main(argv) == 0
        manifest = _manifest(argv, extra)
        assert set(manifest) == MANIFEST_KEYS

    @pytest.mark.parametrize("command", _subcommands())
    def test_options_are_every_parsed_option(self, command, tmp_path):
        argv, extra = _argv(command, tmp_path, CHAIN)
        assert main(argv) == 0
        parsed = vars(build_parser().parse_args(argv))
        expected = {k: v for k, v in parsed.items() if k not in NOT_OPTIONS}
        assert _manifest(argv, extra)["options"] == expected

    @pytest.mark.parametrize("command", _subcommands())
    def test_rerun_from_the_manifest_reproduces_every_output(self, command, tmp_path):
        argv, extra = _argv(command, tmp_path, CHAIN)
        assert main(argv) == 0
        recorded = _manifest(argv, extra)
        _rerun(recorded)
        rerun = _manifest(argv, extra)
        del recorded["elapsed_seconds"], rerun["elapsed_seconds"]
        assert rerun == recorded

    # Each option changes the output on the input used, TWELVE (CHAIN for
    # convert, whose nverts file counts CHAIN's nine labels); {alt} is a
    # second member stream of nine labels.
    @pytest.mark.parametrize("command, flags", [
        ("count", ["--json"]),
        ("cp", ["--epsilon", "2"]),
        ("profile-node", ["--node", "2"]),
        ("profile-node", ["--kind", "star"]),
        ("profile-edge", ["--edge", "0"]),
        ("catalog", ["--arity", "2"]),
        ("catalog", ["--states", "3"]),
        ("recommend-samples", ["--count", "20"]),
        ("stats", ["--json"]),
        ("convert", ["--simplices", "{alt}"]),
    ])
    def test_each_option_is_recorded_and_replays(self, command, flags, tmp_path):
        argv, extra = _argv(command, tmp_path, CHAIN if command == "convert" else TWELVE)
        alt = tmp_path / "in" / "alt.txt"
        alt.write_text("5 4 3\n4 3 2\n3 2 1\n")
        changed_argv = [*argv, *(flag.format(alt=alt) for flag in flags)]
        assert main(argv) == 0
        base = _manifest(argv, extra)
        assert main(changed_argv) == 0
        changed = _manifest(changed_argv, extra)
        assert changed["outputs"] != base["outputs"]

        def given(manifest):  # all but what the run measured and wrote
            return {k: v for k, v in manifest.items() if k not in ("elapsed_seconds", "outputs")}

        assert given(changed) != given(base)
        _rerun(changed)
        assert _manifest(argv, extra)["outputs"] == changed["outputs"]

    @pytest.mark.parametrize("flags, same_as", [
        (["--motifs", "binary", "--variant", "mr", "--p", "0.3", "--theta", "2"], []),
        (["--motifs", "ternary", "--variant", "mr", "--theta", "7"],
         ["--motifs", "ternary", "--variant", "mr", "--theta", "1"]),
        (["--motifs", "ternary", "--variant", "abs", "--p", "0.9"],
         ["--motifs", "ternary", "--variant", "abs"]),
    ])
    def test_options_the_run_does_not_read_change_no_output(self, flags, same_as,
                                                             twelve_file, tmp_path):
        written = []
        for n, options in enumerate((flags, same_as)):
            out = tmp_path / f"{n}.csv"
            assert main(["count", twelve_file, *options, "--out", str(out)]) == 0
            written.append(out.read_bytes())
        assert written[0] == written[1]

    @pytest.mark.parametrize("command", _subcommands())
    def test_every_command_vouches_for_what_it_wrote(self, command, tmp_path):
        argv, extra = _argv(command, tmp_path, CHAIN)
        out = argv[argv.index("--out") + 1]
        assert main(argv) == 0
        written = extra if command == "randomize" else [out, *extra]
        manifest = json.loads(Path(written[0] + ".manifest.json").read_text())
        assert manifest["command"] == command
        threaded = command in ("count", "cp", "enumerate")
        assert manifest["options"].get("threads") == (1 if threaded else None)
        assert manifest["elapsed_seconds"] > 0
        assert set(manifest["outputs"]) == set(written)
        for path in written:
            digest = manifest["outputs"][path]
            assert re.fullmatch("[0-9a-f]{64}", digest)
            assert digest == hashlib.sha256(Path(path).read_bytes()).hexdigest()

    @pytest.mark.parametrize("command", _subcommands())
    def test_records_the_input_checksum_and_size(self, command, tmp_path):
        argv, extra = _argv(command, tmp_path, CHAIN)
        assert main(argv) == 0
        manifest = _manifest(argv, extra)
        source = getattr(build_parser().parse_args(argv), "input", None)
        if source is None:  # no input argument: catalog, recommend-samples, convert
            assert manifest["input_sha256"] is manifest["input_bytes"] is None
        else:
            data = Path(source).read_bytes()
            assert manifest["input_sha256"] == hashlib.sha256(data).hexdigest()
            assert manifest["input_bytes"] == len(data)

    @pytest.mark.parametrize(
        "command", [c for c in _subcommands() if "{in}" in RUNS[c][0]]
    )
    def test_failed_rerun_leaves_the_good_run_untouched(self, command, tmp_path):
        def snapshot():
            return {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()}

        assert main(_argv(command, tmp_path, CHAIN)[0]) == 0
        before = snapshot()
        assert main(_argv(command, tmp_path, "1 2\n3 x\n")[0]) == 1
        assert snapshot() == before


class TestOptionsNoRunReads:
    @pytest.mark.parametrize("command, option", [
        ("enumerate", "--seed"), ("stats", "--seed"), ("profile-node", "--seed"),
        ("profile-edge", "--seed"), ("stats", "--threads"), ("profile-node", "--threads"),
        ("profile-edge", "--threads"),
    ])
    def test_are_usage_errors(self, command, option, tmp_path):
        argv, _ = _argv(command, tmp_path, CHAIN)
        with pytest.raises(SystemExit) as info:
            main([*argv, option, "2"])
        assert info.value.code == 2
        assert not any((tmp_path / "out").iterdir())

    def test_randomize_prefix_dash_is_usage_error(self, chain_file, tmp_path, monkeypatch,
                                                  capsys):
        monkeypatch.chdir(tmp_path)
        before = _listing(tmp_path)
        with pytest.raises(SystemExit) as info:
            main(["randomize", chain_file, "--out", "-"])
        assert info.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert err[-1] == "mochy randomize: error: randomize's --out is a file-name prefix, not '-'"
        assert _listing(tmp_path) == before

    @pytest.mark.parametrize("command, option, error", [
        ("count", ["--theta", "0"], "--theta must be >= 1"),
        ("stats", ["--threads", "2"], "unrecognized arguments: --threads 2"),
    ])
    def test_usage_error_is_the_commands(self, command, option, error, chain_file, capsys):
        with pytest.raises(SystemExit) as info:
            main([command, chain_file, *option])
        assert info.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith(f"usage: mochy {command} ")
        assert err[-1] == f"mochy {command}: error: {error}"

    @pytest.mark.parametrize("argv, option", [
        (["count", ""], "input"),
        (["count", "{in}", "--out", ""], "--out"),
        (["stats", "{in}", "--linegraph-out", ""], "--linegraph-out"),
        (["randomize", "{in}", "--out", ""], "--out"),
    ])
    def test_empty_path_is_usage_error(self, argv, option, chain_file, tmp_path, monkeypatch,
                                       capsys):
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        before = sorted(os.listdir(tmp_path)), _listing(work)
        with pytest.raises(SystemExit) as info:
            main([a.format(**{"in": chain_file}) for a in argv])
        assert info.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith(f"usage: mochy {argv[0]} ")
        assert err[-1] == f"mochy {argv[0]}: error: {option} must not be an empty path"
        assert (sorted(os.listdir(tmp_path)), _listing(work)) == before


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _perfbench_module(name, monkeypatch):
    """perfbench/<name>.py, loaded without writing bytecode beside it; its
    sibling modules import from perfbench/."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBenchmarkCommands:
    """Every command line the benchmark runs parses and passes validation,
    and its traced run calls the library as it is, so a change that drops an
    option or changes a signature the benchmark uses fails here."""

    def test_every_workload_command_parses(self, tmp_path, monkeypatch):
        workloads = _perfbench_module("workloads", monkeypatch)
        parser = build_parser()
        for workload in workloads.SAMPLES:
            for command in workloads.ARGS:
                argv = [*workloads.command_args(workload, command, str(tmp_path / "in.txt")),
                        "--out", str(tmp_path / "out.csv")]
                try:
                    _validate(parser.parse_args(argv))
                except SystemExit:
                    pytest.fail(f"mochy {' '.join(argv)} is a usage error")

    def test_traced_run_reads_every_layer(self, tmp_path, monkeypatch):
        # tracing wraps MemoizedNeighborStore.get and passes its pin positionally
        tracing = _perfbench_module("tracing", monkeypatch)
        path = tmp_path / "in.txt"
        path.write_bytes(tracing.workloads.generate("heavytail", 1))
        metrics = tracing.layer_metrics(tracing.traced_run("heavytail", 1, path))
        assert all(math.isfinite(value) for value, _ in metrics.values())
        assert metrics["linegraph.store_gets"][0] > 0


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs RLIMIT_AS")
class TestOutOfMemory:
    @pytest.mark.parametrize("algo", ["wedge-sample", "otf-advanced"])
    def test_is_one_line_error(self, algo, tmp_path):
        src = tmp_path / "four.txt"
        src.write_text("1 2 3\n2 3 4\n3 4 5\n4 5 6\n")
        out = tmp_path / "counts.csv"
        # The child caps its own address space at 1 GiB, so the per-draw
        # arrays of 10**11 samples cannot be allocated; no other process is
        # limited.
        code = (
            "import resource, sys; "
            "hard = resource.getrlimit(resource.RLIMIT_AS)[1]; "
            "soft = 1 << 30 if hard == resource.RLIM_INFINITY else min(1 << 30, hard); "
            "resource.setrlimit(resource.RLIMIT_AS, (soft, hard)); "
            "from mochy.cli import main; sys.exit(main(sys.argv[1:]))"
        )
        done = subprocess.run(
            [sys.executable, "-c", code, "count", str(src), "--algo", algo,
             "-r", str(10**11), "--out", str(out)],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": SRC},
        )
        assert done.returncode == 1, done.stderr
        err = done.stderr.splitlines()
        assert len(err) == 1
        assert err[0].startswith("mochy: error: out of memory: ")
        assert not out.exists()


# 150 random 4-node hyperedges over 60 nodes: thousands of instances, far
# more rows than one write buffer holds
@pytest.fixture
def busy_file(tmp_path):
    rng = random.Random(3)
    path = tmp_path / "busy.txt"
    path.write_text("".join(
        " ".join(map(str, rng.sample(range(60), 4))) + "\n" for _ in range(150)
    ))
    return str(path)


class TestEnumerateOutputFailure:
    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_device_is_one_line_error(self, busy_file, capsys):
        assert main(["enumerate", busy_file, "--out", "/dev/full"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert re.fullmatch(r"mochy: error: .*after \d+ instances.*", err[0])

    def test_closed_pipe_is_one_line_error(self, busy_file, tmp_path):
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        with open(tmp_path / "stderr.txt", "w") as stderr:
            proc = subprocess.Popen(
                [sys.executable, "-c",
                 "import sys; from mochy.cli import main; sys.exit(main(sys.argv[1:]))",
                 "enumerate", busy_file],
                stdout=subprocess.PIPE, stderr=stderr,
                env={**os.environ, "PYTHONPATH": src},
            )
            assert proc.stdout.readline() == b"i,j,k,motif_id\n"
            proc.stdout.close()  # what `| head -1` does
            assert proc.wait(timeout=60) == 1
        err = (tmp_path / "stderr.txt").read_text().splitlines()
        assert len(err) == 1
        assert re.fullmatch(r"mochy: error: .*after \d+ instances.*", err[0])



def _listing(directory):
    """Every file in directory, hidden ones included, with its bytes."""
    return {p.name: p.read_bytes() for p in Path(directory).iterdir()}


class TestAtomicOutputs:
    @pytest.mark.skipif(sys.platform == "win32", reason="needs RLIMIT_FSIZE")
    def test_file_size_limit_keeps_the_earlier_output(self, busy_file, tmp_path):
        (tmp_path / "out").mkdir()
        out = str(tmp_path / "out" / "enum.csv")
        assert main(["enumerate", busy_file, "--out", out]) == 0
        before = _listing(tmp_path / "out")
        limit = 1 << 16
        assert len(before["enum.csv"]) > limit
        # Python ignores SIGXFSZ, so a write past the limit fails with EFBIG.
        # The child lowers its own limit: preexec_fn is unsafe in a parent
        # that runs threads.
        code = (
            "import resource, sys; "
            "hard = resource.getrlimit(resource.RLIMIT_FSIZE)[1]; "
            f"resource.setrlimit(resource.RLIMIT_FSIZE, ({limit}, hard)); "
            "from mochy.cli import main; sys.exit(main(sys.argv[1:]))"
        )
        done = subprocess.run(
            [sys.executable, "-c", code, "enumerate", busy_file, "--out", out],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": SRC},
        )
        assert done.returncode == 1
        err = done.stderr.splitlines()
        assert len(err) == 1
        # the write's own error, not the one closing the handle raises
        assert re.fullmatch(
            rf"mochy: error: .*after \d+ instances: \[Errno {errno.EFBIG}\].*", err[0]
        )
        assert _listing(tmp_path / "out") == before

    def test_failed_extra_file_replaces_no_output(self, chain_file, twelve_file, tmp_path):
        (tmp_path / "out").mkdir()
        out = str(tmp_path / "out" / "stats.csv")
        lg_out = str(tmp_path / "out" / "lg.csv")
        assert main(["stats", chain_file, "--out", out, "--linegraph-out", lg_out]) == 0
        before = _listing(tmp_path / "out")
        missing = str(tmp_path / "missing" / "lg.csv")
        assert main(["stats", twelve_file, "--out", out, "--linegraph-out", missing]) == 1
        assert _listing(tmp_path / "out") == before

    @pytest.mark.parametrize("lg_name", ["stats.csv", "./stats.csv", "stats.csv.manifest.json"])
    def test_two_outputs_on_one_file_write_nothing(self, lg_name, chain_file, tmp_path, capsys):
        (tmp_path / "out").mkdir()
        out = str(tmp_path / "out" / "stats.csv")
        lg_out = str(tmp_path / "out" / lg_name)
        assert main(["stats", chain_file, "--out", out, "--linegraph-out", lg_out]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("mochy: error: two outputs would write the same file")
        assert _listing(tmp_path / "out") == {}

    def test_outputs_keep_the_mode_an_in_place_write_gives(self, chain_file, tmp_path):
        reference = tmp_path / "reference"
        reference.write_text("")
        kept = tmp_path / "kept.csv"
        kept.write_text("")
        kept.chmod(0o640)
        fresh = tmp_path / "fresh.csv"
        for path in (kept, fresh):
            assert main(["count", chain_file, "--out", str(path)]) == 0
        assert stat.S_IMODE(kept.stat().st_mode) == 0o640
        assert fresh.stat().st_mode == reference.stat().st_mode
        manifest = tmp_path / "fresh.csv.manifest.json"
        assert manifest.stat().st_mode == reference.stat().st_mode


class TestInPlaceOutputs:
    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_pipe_is_written_and_never_read_back(self, chain_file, tmp_path):
        regular = tmp_path / "counts.csv"
        assert main(["count", chain_file, "--out", str(regular)]) == 0
        fifo = str(tmp_path / "fifo")
        os.mkfifo(fifo)
        received = []

        def drain():
            with open(fifo, "rb") as fh:
                received.append(fh.read())

        reader = threading.Thread(target=drain, daemon=True)
        reader.start()
        try:
            # a run that opened the pipe again to checksum it would block
            # there; the timeout fails this test instead of hanging the suite
            done = subprocess.run(
                [sys.executable, "-c",
                 "import sys; from mochy.cli import main; sys.exit(main(sys.argv[1:]))",
                 "count", chain_file, "--out", fifo],
                capture_output=True, text=True, timeout=60,
                env={**os.environ, "PYTHONPATH": SRC},
            )
        finally:
            with suppress(OSError):  # end a reader still waiting for a writer
                os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
            reader.join(timeout=10)
        assert done.returncode == 0
        assert received == [regular.read_bytes()]
        manifest = json.loads(done.stderr)
        assert manifest["outputs"] == {}
        assert not os.path.exists(fifo + ".manifest.json")

    @pytest.mark.skipif(not os.path.exists("/dev/null"), reason="needs /dev/null")
    def test_device_gets_no_manifest_beside_it(self, chain_file, capsys):
        assert main(["count", chain_file, "--out", "/dev/null"]) == 0
        manifest = json.loads(capsys.readouterr().err)
        assert manifest["command"] == "count"
        assert manifest["outputs"] == {}

    def test_manifest_goes_next_to_the_first_regular_file(self, chain_file, tmp_path, capsys):
        lg_out = str(tmp_path / "lg.csv")
        assert main(["stats", chain_file, "--linegraph-out", lg_out]) == 0
        out, err = capsys.readouterr()
        assert out.startswith("key,value\n")
        assert err == ""
        manifest = json.loads(Path(lg_out + ".manifest.json").read_text())
        digest = hashlib.sha256(Path(lg_out).read_bytes()).hexdigest()
        assert manifest["outputs"] == {lg_out: digest}

    def test_dash_is_stdout_for_every_output(self, chain_file, tmp_path, monkeypatch, capsys):
        lg_file = tmp_path / "lg.csv"
        assert main(["stats", chain_file, "--out", str(tmp_path / "a.csv"),
                     "--linegraph-out", str(lg_file)]) == 0
        capsys.readouterr()
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "b.csv"
        assert main(["stats", chain_file, "--out", str(out), "--linegraph-out", "-"]) == 0
        assert capsys.readouterr().out == lg_file.read_text()
        assert not os.path.exists(tmp_path / "-")
        manifest = json.loads(Path(f"{out}.manifest.json").read_text())
        assert list(manifest["outputs"]) == [str(out)]

    def test_two_dashes_write_nothing(self, chain_file, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        before = _listing(tmp_path)
        # --out defaults to '-'
        assert main(["stats", chain_file, "--linegraph-out", "-"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "mochy: error: two outputs would write the same file: -\n"
        assert _listing(tmp_path) == before


class TestWarnings:
    def test_are_one_line_each(self, tmp_path, capsys):
        src = tmp_path / "nowedge.txt"
        src.write_text("1 2\n3 4\n5 6\n")
        out = str(tmp_path / "counts.csv")
        shown = warnings.showwarning
        assert main(["count", str(src), "--algo", "wedge-sample", "-r", "5", "--out", out]) == 0
        err = capsys.readouterr().err
        assert err == "mochy: warning: hypergraph has no hyperwedges; estimate is all-zero\n"
        assert warnings.showwarning is shown  # library callers see warnings as before


def _run_child(argv, **kwargs):
    return subprocess.run(
        [sys.executable, "-c",
         "import sys; from mochy.cli import main; sys.exit(main(sys.argv[1:]))", *argv],
        capture_output=True, timeout=60, env={**os.environ, "PYTHONPATH": SRC}, **kwargs,
    )


def _counts_of(path, tmp_path):
    """The count output of the input file at path."""
    out = tmp_path / "reference.csv"
    assert main(["count", path, "--out", str(out)]) == 0
    return out.read_text()


class TestInputReadOnce:
    """The manifest's input checksum and size are those of the bytes the
    run parsed, also where the input cannot be read a second time."""

    def _check_manifest(self, out, data):
        manifest = json.loads(Path(f"{out}.manifest.json").read_text())
        assert manifest["input_sha256"] == hashlib.sha256(data).hexdigest()
        assert manifest["input_bytes"] == len(data)

    @pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
    def test_piped_stdin(self, chain_file, tmp_path):
        data = Path(chain_file).read_bytes()
        out = tmp_path / "counts.csv"
        done = _run_child(["count", "/dev/stdin", "--out", str(out)], input=data)
        assert done.returncode == 0, done.stderr
        assert out.read_text() == _counts_of(chain_file, tmp_path)
        self._check_manifest(out, data)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_named_pipe(self, chain_file, tmp_path):
        data = Path(chain_file).read_bytes()
        fifo = str(tmp_path / "fifo")
        os.mkfifo(fifo)

        def feed():
            with suppress(OSError), open(fifo, "wb") as fh:
                fh.write(data)

        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        out = tmp_path / "counts.csv"
        try:
            # a run that opened the pipe again to checksum it would wait
            # there for a second writer; the timeout fails this test instead
            done = _run_child(["count", fifo, "--out", str(out)])
        finally:
            with suppress(OSError):  # end a writer still waiting for a reader
                os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
            writer.join(timeout=10)
        assert done.returncode == 0, done.stderr
        assert out.read_text() == _counts_of(chain_file, tmp_path)
        self._check_manifest(out, data)
