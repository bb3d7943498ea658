"""Traced in-process run: each layer's public calls inside a span.

    python3 perfbench/tracing.py --workload uniform4 --seed 1

It writes the workload's input for the seed, then, in this fresh
interpreter, imports mochy and calls the public functions of each module in
the order the CLI does. Each call is one span (name, start, end, parent, run
id). The spans stay in memory and are written as one JSON document at the
end, with the work counts the layers returned; the per-layer metrics derived
from them are printed. No file of the program changes: layers are measured
from outside, through their public API. run.py starts this file for --trace 1
and adds cli.overhead_s, which needs the CLI timings. The spans go to
spans_path(workload, seed).
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench-out"
# Null-model replicates: the cp command's count on sparse-cp, one replicate
# elsewhere so that the layer is timed on every workload at a bounded cost.
REPLICATES = {"uniform4": 1, "heavytail": 1, "sparse-cp": 5}

# Each CLI command's equivalent here, as the spans whose sum is its
# in-process cost; cli.overhead_s is what the CLI spends beyond them.
TRACED_EQUIVALENT = {
    "count_exact": ("hypergraph.load", "linegraph.build", "counting.exact"),
    "count_ternary": ("hypergraph.load", "linegraph.build", "counting.ternary"),
    "enumerate": ("hypergraph.load", "linegraph.build", "counting.enumerate"),
    "wedge_sample": ("hypergraph.load", "linegraph.build", "counting.wedge_sample"),
    "otf": ("hypergraph.load", "linegraph.degrees", "counting.otf"),
    "cp": ("hypergraph.load", "linegraph.build", "counting.exact",
           "nullmodel.null_counts", "profiles.cp"),
}


class Tracer:
    """Spans of one run. Each thread nests spans on its own stack; a span
    opened in a worker thread names its parent explicitly."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name: str, parent: int | None = None):
        stack = self._local.__dict__.setdefault("stack", [])
        if parent is None and stack:
            parent = stack[-1]
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append({
                    "run": self.run_id, "id": span_id, "parent": parent,
                    "name": name, "start": start, "end": end,
                })


class NeighborCounters:
    """Counts every neighbourhood computation and every memo-store lookup.

    Wraps ``hyperedge_neighbors`` in both modules that bind it (the store
    calls the one in ``linegraph``; the on-the-fly grouping pass calls the
    copy imported into ``counting``) and ``MemoizedNeighborStore.get``.
    A computation made inside ``get`` is a store miss. Counting takes a lock,
    so the totals are exact with any worker count.
    """

    def __init__(self, mochy_linegraph, mochy_counting):
        self.modules = (mochy_linegraph, mochy_counting)
        self.store_cls = mochy_linegraph.MemoizedNeighborStore
        self.calls = self.gets = self.misses = 0
        self._lock = threading.Lock()
        self._inside = threading.local()

    def __enter__(self):
        original_nbrs = self.modules[0].hyperedge_neighbors
        original_get = self.store_cls.get
        self._saved = (original_nbrs, original_get)

        def hyperedge_neighbors(h, i):
            with self._lock:
                self.calls += 1
                self.misses += getattr(self._inside, "get", False)
            return original_nbrs(h, i)

        def get(store, i, pinned=frozenset()):
            with self._lock:
                self.gets += 1
            self._inside.get = True
            try:
                return original_get(store, i, pinned)
            finally:
                self._inside.get = False

        for module in self.modules:
            module.hyperedge_neighbors = hyperedge_neighbors
        self.store_cls.get = get
        return self

    def __exit__(self, *exc):
        original_nbrs, original_get = self._saved
        for module in self.modules:
            module.hyperedge_neighbors = original_nbrs
        self.store_cls.get = original_get
        return False


def traced_run(workload: str, seed: int, input_path: Path) -> dict:
    """Every layer once, in CLI order; returns the spans and work counts."""
    threads, sample_seed = workloads.THREADS, workloads.SAMPLE_SEED
    tracer = Tracer(f"{workload}-s{seed}")
    span = tracer.span
    with span("cli.import"):
        import mochy
        from mochy import catalog, counting, hypergraph, linegraph, nullmodel, profiles
    counts: dict = {}

    with span("hypergraph.load"):
        h = hypergraph.load_hypergraph_path(input_path)
    counts["incidences"] = h.total_incidences()
    with span("linegraph.degrees"):
        degrees = linegraph.hyperedge_degrees(h, workers=threads)
    with span("linegraph.build"):
        lg = linegraph.build_line_graph(h, workers=threads)
    with span("linegraph.build_w1"):
        linegraph.build_line_graph(h, workers=1)
    counts["wedges"] = lg.wedge_count
    r = counts["samples_r"] = workloads.SAMPLES[workload]

    with span("counting.exact"):
        exact = counting.count_exact(h, lg, catalog.BINARY, workers=threads)
    with span("counting.exact_w1"):
        counting.count_exact(h, lg, catalog.BINARY, workers=1)
    counts["instances"] = int(exact.total())
    emitted = [0]

    def sink(i, j, k, t):
        emitted[0] += 1

    with span("counting.enumerate"):
        counting.enumerate_instances(h, lg, sink)
    counts["enumerated"] = emitted[0]
    hr_mean = catalog.MotifMode("hr", p=0.5, sigma="mean")
    with span("counting.ternary"):
        counting.count_exact(h, lg, hr_mean, workers=threads)

    with span("counting.wedge_sample"):
        counting.count_sample_hyperwedge(h, lg, r, sample_seed, workers=threads)
    budget = int(workloads.OTF_BUDGET * sum(degrees))
    with span("counting.otf"):
        counting.count_otf(h, r, budget, sample_seed, "advanced", workers=threads)
    # The counters' wrappers take a lock on every call, so they ride on a
    # second, untimed call with the same arguments; the counts are the same.
    with NeighborCounters(linegraph, counting) as counters:
        otf = counting.count_otf(h, r, budget, sample_seed, "advanced", workers=threads)
    counts.update(
        neighbor_calls=counters.calls,
        store_gets=counters.gets,
        store_misses=counters.misses,
        otf_recomputations_reported=otf.meta["recomputations"],
    )
    with span("counting.otf_w1"):
        counting.count_otf(h, r, budget, sample_seed, "advanced", workers=1)

    replicate_instances = []
    with span("nullmodel.null_counts") as null_span:

        def counter(h_rand, rng):
            rng.randrange(1 << 62)  # the CLI draws a counter seed per replicate
            with span("nullmodel.replicate_count", parent=null_span):
                lg_rand = linegraph.build_line_graph(h_rand, workers=threads)
                cv = counting.count_exact(h_rand, lg_rand, catalog.BINARY, workers=threads)
            replicate_instances.append(int(cv.total()))
            return cv

        cfg = nullmodel.NullModelConfig(REPLICATES[workload], sample_seed)
        null_mean, _ = nullmodel.null_counts(h, counter, cfg, workers=threads)
    counts["replicate_instances"] = sum(replicate_instances)
    with span("profiles.cp"):
        profiles.characteristic_profile(profiles.significance(exact, null_mean))

    return {"run": tracer.run_id, "mochy": mochy.__file__, "spans": tracer.spans,
            "counts": counts}


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals
    (children in worker threads may overlap each other)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        for a, b in sorted(children.get(s["id"], [])):
            a, b = max(a, reach), min(b, s["end"])
            if b > a:
                covered += b - a
                reach = b
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def durations(spans: list[dict]) -> dict[str, float]:
    """Span name -> summed duration of the spans with that name."""
    dur: dict[str, float] = {}
    for s in spans:
        dur[s["name"]] = dur.get(s["name"], 0.0) + s["end"] - s["start"]
    return dur


def layer_metrics(traced: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics (value, unit) from one traced run's spans and counts."""
    spans, counts = traced["spans"], traced["counts"]
    dur = durations(spans)
    null_span = next(s["id"] for s in spans if s["name"] == "nullmodel.null_counts")
    return {
        "hypergraph.load_s": (dur["hypergraph.load"], "s"),
        "hypergraph.incidences": (counts["incidences"], "count"),
        "linegraph.build_s": (dur["linegraph.build"], "s"),
        "linegraph.build_w1_s": (dur["linegraph.build_w1"], "s"),
        "linegraph.degrees_s": (dur["linegraph.degrees"], "s"),
        "linegraph.wedges": (counts["wedges"], "count"),
        "linegraph.neighbor_calls": (counts["neighbor_calls"], "count"),
        "linegraph.store_gets": (counts["store_gets"], "count"),
        "linegraph.memo_hit_ratio": (1 - counts["store_misses"] / counts["store_gets"], "ratio"),
        "counting.otf_recomputations_reported": (counts["otf_recomputations_reported"], "count"),
        "counting.exact_s": (dur["counting.exact"], "s"),
        "counting.exact_w1_s": (dur["counting.exact_w1"], "s"),
        "counting.instances": (counts["instances"], "count"),
        "counting.exact_ns_per_instance":
            (dur["counting.exact"] / counts["instances"] * 1e9, "ns"),
        "counting.enumerate_s": (dur["counting.enumerate"], "s"),
        "counting.wedge_sample_s": (dur["counting.wedge_sample"], "s"),
        "counting.wedge_us_per_sample":
            (dur["counting.wedge_sample"] / counts["samples_r"] * 1e6, "us"),
        "counting.otf_s": (dur["counting.otf"], "s"),
        "counting.otf_w1_s": (dur["counting.otf_w1"], "s"),
        "counting.ternary_s": (dur["counting.ternary"], "s"),
        "catalog.state_map_s": (dur["counting.ternary"] - dur["counting.exact"], "s"),
        "nullmodel.null_counts_s": (dur["nullmodel.null_counts"], "s"),
        "nullmodel.self_s": (self_times(spans)[null_span], "s"),
        "nullmodel.replicate_count_s": (dur["nullmodel.replicate_count"], "s"),
        "nullmodel.replicate_instances": (counts["replicate_instances"], "count"),
        "profiles.cp_s": (dur["profiles.cp"], "s"),
        "cli.import_s": (dur["cli.import"], "s"),
    }


def cli_overhead(traced: dict, cli_medians: dict[str, float]) -> dict[str, float]:
    """Per command: CLI median wall time minus its traced equivalent."""
    dur = durations(traced["spans"])
    return {c: t - sum(dur[n] for n in TRACED_EQUIVALENT[c]) for c, t in cli_medians.items()}


def spans_path(workload: str, seed: int) -> Path:
    """Where the traced run of a workload and seed writes its spans."""
    return OUT / "spans" / f"{workload}-s{seed}.json"


def main() -> None:
    parser = argparse.ArgumentParser(description="mochy traced layer run")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.COMMANDS))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    out_path = spans_path(args.workload, args.seed)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    data = workloads.generate(args.workload, args.seed)
    input_path = out_path.with_suffix(".input.txt")
    input_path.write_bytes(data)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        traced = traced_run(args.workload, args.seed, input_path)
    finally:
        input_path.unlink()
    traced["input_sha256"] = hashlib.sha256(data).hexdigest()
    out_path.write_text(json.dumps(traced))
    for name, (value, unit) in layer_metrics(traced).items():
        print(f"{name:38} {value:14.6g} {unit}")
    print(f"spans {out_path}")


if __name__ == "__main__":
    main()
