"""Command-line interface: outputs, manifests, determinism, exit codes."""

import csv
import io
import json
import math

import numpy as np
import pytest

from mochy.cli import _write_rows, main

CHAIN = "1 2 3\n2 3 4\n3 4 5\n"


@pytest.fixture
def chain_file(tmp_path):
    path = tmp_path / "chain.txt"
    path.write_text(CHAIN)
    return str(path)


@pytest.fixture
def twelve_file(tmp_path):
    from conftest import TWELVE_EDGES

    path = tmp_path / "twelve.txt"
    path.write_text(
        "\n".join(" ".join(str(v) for v in sorted(e)) for e in TWELVE_EDGES) + "\n"
    )
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

    def test_enumerate_chain(self, chain_file, tmp_path):
        out = str(tmp_path / "inst.csv")
        assert main(["enumerate", chain_file, "--out", out]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert sorted((rows[0]["i"], rows[0]["j"], rows[0]["k"])) == ["0", "1", "2"]

    def test_randomize_writes_replicates(self, twelve_file, tmp_path):
        prefix = str(tmp_path / "rand")
        assert main(["randomize", twelve_file, "--replicates", "3",
                     "--seed", "1", "--out", prefix]) == 0
        for rep in range(3):
            lines = open(f"{prefix}.{rep}.txt").read().strip().splitlines()
            assert lines
        manifest = json.loads(open(f"{prefix}.0.txt.manifest.json").read())
        assert len(manifest["outputs"]) == 3

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

    def test_env_threads_fallback(self, chain_file, tmp_path, monkeypatch):
        monkeypatch.setenv("MOCHY_THREADS", "2")
        out = str(tmp_path / "c.csv")
        assert main(["count", chain_file, "--out", out]) == 0
        manifest = json.loads((tmp_path / "c.csv.manifest.json").read_text())
        assert manifest["workers"] == 2


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
