"""mochy benchmark: seeded workloads timed through the real CLI.

    python3 perfbench/run.py --workload uniform4 --seed 1 --seconds 40 --trace 0

One driver process writes the workload's input from --seed, then runs the
`mochy` CLI on it as child processes, one command at a time (a closed loop
with one client). Rounds of start-up and set-up samples and the workload's
commands repeat until --seconds have passed. Each command's wall time (spawn
to exit) and peak RSS come from os.wait4; the metrics are medians over all
samples. The driver imports mochy only after the rounds, so that its own
memory stays below every child's (a child's peak RSS includes the driver's
at spawn). Every output is checked, and a failed check makes the run exit 1.

With --trace 1 the run then starts tracing.py in a fresh interpreter, which
calls each layer's public functions inside spans, and the last line reports
the per-layer metrics derived from those spans instead of the end-to-end
ones. The last line of stdout is always one JSON object with the keys
correct, attempted, failed and metrics. Full records (provenance, samples,
checks, spans) go under .perfbench-out/ at the root of the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracing import cli_overhead, layer_metrics, spans_path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

# A run must end well within 180 s; the alarm stops a hung child.
DEADLINE_S = 170
# Seconds of samples each command gets per round, and the most repeats.
ROUND_SHARE_S = 1.2
MAX_REPEATS = 4

CLI = "import sys; from mochy.cli import main; sys.exit(main())"
# Interpreter start-up and `import mochy` alone: the share of each command's
# wall time that is not mochy's work.
STARTUP = "import mochy"
SETUP = ("import sys, mochy; "
         "mochy.build_line_graph(mochy.load_hypergraph_path(sys.argv[1]), workers=2)")


class Run:
    """Tally of attempted operations (child processes and output checks)."""

    def __init__(self, work: Path):
        self.work = work
        self.env = {k: v for k, v in os.environ.items() if k != "MOCHY_THREADS"}
        self.env["PYTHONPATH"] = str(SRC)
        self.attempted = 0
        self.failed = 0
        self.checks: dict[str, bool] = {}
        self.errors: list[str] = []

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        self.failed += not ok
        self.checks[name] = self.checks.get(name, True) and ok
        if not ok:
            self.errors.append(f"check {name} failed {detail}".rstrip())
        return ok

    def spawn(self, argv: list[str], label: str) -> tuple[float, float, bool]:
        """Run one child to completion: (wall seconds, peak RSS MiB, ok)."""
        log = self.work / f"{label}.stderr"
        with open(log, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        ok = proc.returncode == 0
        self.attempted += 1
        if not ok:
            self.failed += 1
            tail = log.read_text(errors="replace").strip().splitlines()[-1:]
            self.errors.append(f"{label} exited {proc.returncode}: {' '.join(tail)}")
        return wall, usage.ru_maxrss / 1024, ok


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def file_sha256(path: Path) -> str:
    """sha256 of a file, read in blocks so the driver's memory stays small."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def source_digest() -> str:
    """sha256 over every file under src/ (path and bytes), bytecode excluded."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
    except OSError:
        return None
    return done.stdout.strip() or None


def read_csv(path: Path) -> list[list[str]]:
    return [line.split(",") for line in path.read_text().splitlines()[1:]]


def measure(run: Run, workload: str, input_path: Path, seconds: float):
    """Rounds of the start-up and set-up probes and the workload's commands
    until `seconds` pass; at least one round. Interleaving spreads every
    metric's samples over the whole run, so a slow spell of the machine hits
    them all alike. A single short timing is noisier than a long one, so from
    the second round on each item repeats until it has had about
    ROUND_SHARE_S. Returns wall times and peak RSS per item, and the output
    digests per command."""
    commands = workloads.COMMANDS[workload]
    probes = {"startup": [sys.executable, "-c", STARTUP],
              "setup": [sys.executable, "-c", SETUP, str(input_path)]}
    walls: dict[str, list[float]] = {c: [] for c in (*probes, *commands)}
    rss: dict[str, list[float]] = {c: [] for c in walls}
    digests: dict[str, list[str]] = {c: [] for c in commands}
    repeats = dict.fromkeys(walls, 1)
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for c in walls:
            for _ in range(repeats[c]):
                if c in probes:
                    wall, peak, _ = run.spawn(probes[c], c)
                else:
                    out = run.work / f"{c}.csv"
                    out.unlink(missing_ok=True)
                    argv = [sys.executable, "-c", CLI,
                            *workloads.command_args(workload, c, str(input_path)),
                            "--out", str(out)]
                    wall, peak, ok = run.spawn(argv, c)
                    if ok and run.check(f"{c}_output_written", out.is_file()):
                        digests[c].append(file_sha256(out))
                walls[c].append(wall)
                rss[c].append(peak)
        now = time.perf_counter()
        if now + (now - round_start) > start + seconds:
            return walls, rss, digests
        repeats = {c: min(MAX_REPEATS, max(1, round(ROUND_SHARE_S / statistics.median(w))))
                   for c, w in walls.items()}


def check_outputs(run: Run, workload: str, h, lg, digests: dict) -> float:
    """Correctness of every command's last output; returns wedge_rel_err.
    An output that is missing or unreadable fails the run's checks."""
    try:
        return _check_outputs(run, workload, h, lg, digests)
    except (OSError, ValueError, IndexError, KeyError) as exc:
        run.check("outputs_readable", False, repr(exc))
        return math.nan


def _check_outputs(run: Run, workload: str, h, lg, digests: dict) -> float:
    from mochy import count_exact, ternary_refinement_map

    work = run.work
    reference = count_exact(h, lg).counts
    total = sum(reference)
    exact = [float(row[2]) for row in read_csv(work / "count_exact.csv")]
    run.check("exact_matches_library", exact == reference)
    for c, ds in digests.items():
        run.check("checksums_repeat_in_run", len(set(ds)) == 1, c)
    commands = workloads.COMMANDS[workload]
    if "enumerate" in commands:
        with open(work / "enumerate.csv", "rb") as fh:
            rows = sum(block.count(b"\n") for block in iter(lambda: fh.read(1 << 20), b"")) - 1
        run.check("enumerate_rows_equal_exact_total", rows == total, f"{rows} != {total}")
    if "count_ternary" in commands:
        collapsed = [0.0] * len(reference)
        refinement = ternary_refinement_map()
        for row in read_csv(work / "count_ternary.csv"):
            collapsed[refinement[int(row[0])] - 1] += float(row[2])
        run.check("ternary_collapses_to_binary", collapsed == reference)
    otf = (work / "otf.csv").read_bytes()
    wedge = (work / "wedge_sample.csv").read_bytes()
    run.check("otf_bytes_equal_wedge_sample", otf == wedge)
    if "cp" in commands:
        rows = read_csv(work / "cp.csv")
        run.check("cp_counts_match_exact", [float(row[2]) for row in rows] == reference)
        norm = math.sqrt(sum(float(row[5]) ** 2 for row in rows))
        run.check("cp_unit_l2_norm", abs(norm - 1.0) < 1e-9, f"norm {norm!r}")
    estimate = [float(row[2]) for row in read_csv(work / "wedge_sample.csv")]
    return sum(abs(a - b) for a, b in zip(estimate, reference)) / total


def check_ledger(run: Run, key: str, entry: dict) -> None:
    """Same source, workload and seed must give the same digests in every
    run made in this checkout."""
    ledger_path = OUT / "ledger.json"
    ledger = json.loads(ledger_path.read_text()) if ledger_path.is_file() else {}
    previous = ledger.setdefault(key, entry)
    for name, digest in entry.items():
        run.check("checksums_repeat_across_runs", previous.get(name, digest) == digest, name)
        previous.setdefault(name, digest)
    tmp = ledger_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True))
    os.replace(tmp, ledger_path)


def traced_layers(run: Run, workload: str, seed: int, input_sha: str,
                  cli_medians: dict) -> tuple[dict, dict]:
    """Run tracing.py in a fresh interpreter; derive the per-layer metrics."""
    argv = [sys.executable, str(HERE / "tracing.py"), "--workload", workload,
            "--seed", str(seed)]
    if not run.spawn(argv, "tracing")[2]:
        return {}, {}
    path = spans_path(workload, seed)
    traced = json.loads(path.read_text())
    run.check("traced_input_equals_cli_input", traced["input_sha256"] == input_sha)
    run.check("traced_mochy_from_checkout",
              Path(traced["mochy"]).resolve().is_relative_to(SRC.resolve()))
    counts = traced["counts"]
    run.check("traced_enumerate_equals_exact_total",
              counts["enumerated"] == counts["instances"])
    overhead = cli_overhead(traced, cli_medians)
    layers = layer_metrics(traced)
    layers["cli.overhead_s"] = (sum(overhead.values()), "s")
    return layers, {"cli_overhead_per_command_s": overhead, "counts": counts,
                    "spans_file": str(path.relative_to(ROOT))}


def print_table(title: str, rows: list[tuple[str, float, str, object]]) -> None:
    print(title)
    print(f"  {'metric':38} {'value':>14} {'unit':6} n")
    for name, value, unit, n in rows:
        print(f"  {name:38} {value:14.6g} {unit:6} {n}")


def main() -> int:
    parser = argparse.ArgumentParser(description="mochy benchmark driver")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.COMMANDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "mochy" / "__init__.py").is_file():
        print(f"run.py: no mochy sources under {SRC}", file=sys.stderr)
        return 2
    work = OUT / "work" / f"{args.workload}-s{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        run = Run(work)
        data = workloads.generate(args.workload, args.seed)
        run.check("inputs_regenerate_identically",
                  sha256(workloads.generate(args.workload, args.seed)) == sha256(data))
        input_path = work / "input.txt"
        input_path.write_bytes(data)

        walls, rss, digests = measure(run, args.workload, input_path, args.seconds)
        driver_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        setup, startup = walls.pop("setup"), walls.pop("startup")
        startup_rss = rss.pop("startup")
        del rss["setup"]
        run.check("driver_rss_below_children", driver_rss < min(startup_rss),
                  f"driver {driver_rss:.1f} MiB")

        sys.path.insert(0, str(SRC))
        import mochy
        import numpy
        from mochy import build_line_graph, load_hypergraph_path

        run.check("mochy_from_checkout",
                  Path(mochy.__file__).resolve().is_relative_to(SRC.resolve()),
                  mochy.__file__)
        h = load_hypergraph_path(input_path)
        lg = build_line_graph(h)
        wedge_rel_err = check_outputs(run, args.workload, h, lg, digests)
        src_digest = source_digest()
        check_ledger(run, f"{src_digest[:16]}/{args.workload}/{args.seed}",
                     {"input": sha256(data), **{c: d[0] for c, d in digests.items() if d}})

        medians = {c: statistics.median(w) for c, w in walls.items()}
        startup_s = statistics.median(startup)
        e2e = {
            "setup_s": (statistics.median(setup), "s", len(setup)),
            **{f"{c}_s": (medians[c], "s", len(walls[c])) for c in walls},
            "pass_s": (sum(medians.values()), "s", min(len(w) for w in walls.values())),
            "peak_rss_mb": (max(max(v) for v in rss.values()), "MiB",
                            sum(len(v) for v in rss.values())),
            "wedge_rel_err": (wedge_rel_err, "ratio", 1),
            "startup_s": (startup_s, "s", len(startup)),
        }
        layers, trace_details = ({}, {})
        if args.trace:
            layers, trace_details = traced_layers(run, args.workload, args.seed,
                                                  sha256(data), medians)
        e2e["error_rate"] = (run.failed / run.attempted, "ratio", run.attempted)

        provenance = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "generator": workloads.PARAMS[args.workload],
            "input_sha256": sha256(data), "input_bytes": len(data),
            "edges": h.num_edges, "wedges": lg.wedge_count,
            "samples_r": workloads.SAMPLES[args.workload],
            "threads": workloads.THREADS, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "platform": platform.platform(), "git_sha": git_sha(),
            "src_sha256": src_digest,
        }
        record = {
            "provenance": provenance,
            "end_to_end": {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in e2e.items()},
            "samples_s": walls, "setup_samples_s": setup, "startup_samples_s": startup,
            "startup_share": {c: startup_s / m for c, m in medians.items()},
            "peak_rss_mib": rss, "startup_rss_mib": startup_rss, "driver_rss_mib": driver_rss,
            "output_sha256": {c: d[:1] for c, d in digests.items()},
            "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in layers.items()},
            **trace_details, "checks": run.checks, "errors": run.errors,
        }
        runs_dir = OUT / "runs"
        runs_dir.mkdir(parents=True, exist_ok=True)
        record_path = runs_dir / f"{args.workload}-s{args.seed}-t{args.trace}.json"
        record_path.write_text(json.dumps(record, indent=1))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"provenance {json.dumps(provenance, sort_keys=True)}")
    print_table(f"{args.workload} seed {args.seed}: end to end, median of n "
                f"(closed loop, 1 client, --threads {workloads.THREADS})",
                [(k, v, u, n) for k, (v, u, n) in e2e.items()])
    if layers:
        print_table("per layer (traced run)", [(k, v, u, "") for k, (v, u) in layers.items()])
    for line in run.errors:
        print(f"FAILED {line}")
    print(f"record {record_path.relative_to(ROOT)}")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = "per_layer" if args.trace else "end_to_end"
    source = layers if args.trace else {k: (v, u) for k, (v, u, _) in e2e.items()}
    metrics = {m["name"]: {"value": source[m["name"]][0], "unit": m["unit"]}
               for m in declared[section] if m["name"] in source}
    correct = run.failed == 0 and len(metrics) == len(declared[section])
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


def _stop(signum, frame):
    """SIGALRM (the run's deadline) or SIGTERM: raise, so that the child
    running now is killed and reaped before the run exits."""
    raise SystemExit(f"run.py: stopped by {signal.Signals(signum).name}")


if __name__ == "__main__":
    signal.signal(signal.SIGALRM, _stop)
    signal.signal(signal.SIGTERM, _stop)
    signal.alarm(DEADLINE_S)
    sys.exit(main())
