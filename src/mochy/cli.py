"""Command-line front end: load -> line graph -> count/profile pipelines.

Every run emits a manifest (flags, seed, elapsed time, output checksums)
sufficient to reproduce its outputs bit-for-bit. Counts and profiles are
written as CSV by default or JSON with --json; integers are written exactly
and floats carry 17 significant digits.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__
from .catalog import MotifMode, enumerate_catalog
from .counting import (
    ALGORITHMS,
    CountVector,
    count_exact,
    count_otf,
    count_sample_hyperedge,
    count_sample_hyperwedge,
    enumerate_instances,
    recommend_samples,
)
from .hypergraph import (
    EmptyInputError,
    ParseError,
    convert_nverts_format,
    dump_hypergraph,
    load_hypergraph_path,
)
from .linegraph import build_line_graph, dump_line_graph, hyperedge_degrees
from .nullmodel import NullModelConfig, null_counts, randomize_chung_lu
from .profiles import (
    characteristic_profile,
    hyperedge_profile,
    node_profile,
    significance,
)


@dataclass
class RunManifest:
    command: str
    input: str | None
    algorithm: str | None
    samples: int | None
    budget: float | None
    workers: int
    seed: int
    motifs: str
    variant: str | None
    theta: int
    p: float
    replicates: int | None
    elapsed_seconds: float = 0.0
    outputs: dict = field(default_factory=dict)
    version: str = __version__


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


@contextmanager
def _output(path: str | None):
    """A text handle on the path, or stdout for None or "-"."""
    if path in (None, "-"):
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8") as handle:
            yield handle


def _emit_manifest(manifest: RunManifest, out_path: str | None) -> None:
    for path in list(manifest.outputs):
        manifest.outputs[path] = _sha256(path)
    payload = json.dumps(asdict(manifest), indent=2, sort_keys=True)
    if out_path and out_path != "-":
        with open(out_path + ".manifest.json", "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
    else:
        print(payload, file=sys.stderr)


def _finish(args, manifest: RunManifest, start: float | None = None) -> int:
    """Record --out in the manifest, stamp the elapsed time, emit it."""
    if args.out and args.out != "-":
        manifest.outputs[args.out] = ""
    if start is not None:
        manifest.elapsed_seconds = time.perf_counter() - start
    _emit_manifest(manifest, args.out)
    return 0


def _finish_counts(args, command: str, cv: CountVector, start: float) -> int:
    """Write a count vector to --out and emit the run's manifest."""
    manifest = _manifest_for(args, command)
    catalog = cv.mode.catalog()
    rows = [
        {"id": t, "pattern": pattern, "count": count}
        for t, pattern, count in zip(catalog.ids, _patterns(catalog), cv.counts)
    ]
    with _output(args.out) as out:
        _write_rows(out, args.json, rows, {"meta": cv.meta}, "counts")
    return _finish(args, manifest, start)


def _default_threads() -> int:
    env = os.environ.get("MOCHY_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return os.cpu_count() or 1


def _mode_from_args(args) -> MotifMode:
    if args.motifs == "binary":
        return MotifMode("binary")
    variant = getattr(args, "variant", "abs") or "abs"
    if variant == "abs":
        return MotifMode("abs", theta=args.theta)
    if variant == "mr":
        return MotifMode("mr", p=args.p)
    return MotifMode("hr", p=args.p, sigma=variant.split("-", 1)[1])


def _patterns(catalog) -> list[str]:
    return ["".join(map(str, pattern)) for pattern in catalog.patterns]


def _write_rows(out, as_json: bool, rows: list[dict], document: dict, key: str) -> None:
    """Rows as CSV under a header of their keys, or as JSON in document[key]."""
    if as_json:
        json.dump({**document, key: rows}, out, indent=2)
        out.write("\n")
        return
    out.write(",".join(rows[0]) + "\n")
    for row in rows:
        out.write(",".join(map(_cell, row.values())) + "\n")


def _cell(value) -> str:
    """A CSV cell: flags as 0/1, text and integers as is (exact at any size),
    floats with 17 significant digits."""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, (str, int, np.integer)):
        return str(value)
    return f"{value:.17g}"


def _run_counter(args, h, mode: MotifMode, seed: int) -> CountVector:
    if args.algo.startswith("otf-"):
        budget = int(args.budget * sum(hyperedge_degrees(h, workers=args.threads)))
        return count_otf(h, args.samples, budget, seed, args.algo[4:], mode, args.threads)
    lg = build_line_graph(h, workers=args.threads)
    if args.algo == "exact":
        return count_exact(h, lg, mode, workers=args.threads)
    sample = count_sample_hyperedge if args.algo == "edge-sample" else count_sample_hyperwedge
    return sample(h, lg, args.samples, seed, mode, args.threads)


def _manifest_for(args, command: str) -> RunManifest:
    return RunManifest(
        command=command,
        input=getattr(args, "input", None),
        algorithm=getattr(args, "algo", None),
        samples=getattr(args, "samples", None),
        budget=getattr(args, "budget", None),
        workers=getattr(args, "threads", 1),
        seed=getattr(args, "seed", 0),
        motifs=getattr(args, "motifs", "binary"),
        variant=getattr(args, "variant", None),
        theta=getattr(args, "theta", 1),
        p=getattr(args, "p", 0.5),
        replicates=getattr(args, "replicates", None),
    )


def cmd_count(args) -> int:
    start = time.perf_counter()
    h = load_hypergraph_path(args.input)
    cv = _run_counter(args, h, _mode_from_args(args), args.seed)
    return _finish_counts(args, "count", cv, start)


def cmd_cp(args) -> int:
    start = time.perf_counter()
    h = load_hypergraph_path(args.input)
    mode = _mode_from_args(args)
    counts = _run_counter(args, h, mode, args.seed)

    def replicate_counter(h_rand, rng):
        return _run_counter(args, h_rand, mode, rng.randrange(1 << 62))

    null_mean, replicates = null_counts(
        h,
        replicate_counter,
        NullModelConfig(replicates=args.replicates, seed=args.seed),
        workers=args.threads,
    )
    sig = significance(counts, null_mean, epsilon=args.epsilon)
    cp = characteristic_profile(sig)
    catalog = mode.catalog()
    rows = [
        {
            "id": t,
            "pattern": pattern,
            "count": count,
            "null_count": null_count,
            "delta": delta,
            "cp": value,
        }
        for t, pattern, count, null_count, delta, value in zip(
            catalog.ids, _patterns(catalog), counts.counts, null_mean.counts, sig.delta, cp.cp
        )
    ]
    manifest = _manifest_for(args, "cp")
    manifest.outputs = {}
    with _output(args.out) as out:
        _write_rows(out, args.json, rows, {"meta": counts.meta}, "profile")
    return _finish(args, manifest, start)


def cmd_enumerate(args) -> int:
    start = time.perf_counter()
    h = load_hypergraph_path(args.input)
    mode = _mode_from_args(args)
    lg = build_line_graph(h, workers=args.threads)
    manifest = _manifest_for(args, "enumerate")
    with _output(args.out) as out:
        out.write("i,j,k,motif_id\n")
        enumerate_instances(
            h, lg, lambda i, j, k, t: out.write(f"{i},{j},{k},{t}\n"), mode
        )
    return _finish(args, manifest, start)


def cmd_randomize(args) -> int:
    start = time.perf_counter()
    h = load_hypergraph_path(args.input)
    manifest = _manifest_for(args, "randomize")
    for rep in range(args.replicates):
        path = f"{args.out}.{rep}.txt"
        h_rand = randomize_chung_lu(h, seed=(args.seed << 64) ^ rep)
        with open(path, "w", encoding="utf-8") as fh:
            dump_hypergraph(h_rand, fh)
        manifest.outputs[path] = ""
    manifest.elapsed_seconds = time.perf_counter() - start
    _emit_manifest(manifest, args.out + ".0.txt")
    return 0


def cmd_catalog(args) -> int:
    catalog = enumerate_catalog(args.arity, args.states)
    rows = [
        {"id": t, "pattern": pattern, "open": is_open}
        for t, pattern, is_open in zip(catalog.ids, _patterns(catalog), catalog.open_flags)
    ]
    with _output(args.out) as out:
        document = {"arity": args.arity, "states": args.states}
        _write_rows(out, args.json, rows, document, "patterns")
    return _finish(args, _manifest_for(args, "catalog"))


def cmd_profile_node(args) -> int:
    start = time.perf_counter()
    h = load_hypergraph_path(args.input)
    mode = _mode_from_args(args)
    try:
        v = h.labels.index(args.node)
    except ValueError:
        raise EmptyInputError(f"node label {args.node} not present") from None
    cv = node_profile(h, v, kind=args.kind, mode=mode)
    return _finish_counts(args, "profile-node", cv, start)


def cmd_profile_edge(args) -> int:
    start = time.perf_counter()
    h = load_hypergraph_path(args.input)
    mode = _mode_from_args(args)
    lg = build_line_graph(h, workers=args.threads)
    cv = hyperedge_profile(h, lg, args.edge, mode)
    return _finish_counts(args, "profile-edge", cv, start)


def cmd_recommend_samples(args) -> int:
    n = recommend_samples(
        epsilon=args.epsilon,
        delta=args.delta,
        d_max=args.d_max,
        count=args.count,
        population=args.population,
        estimator=args.estimator,
        is_open=args.open,
    )
    with _output(args.out) as out:
        out.write(f"{n}\n")
    manifest = _manifest_for(args, "recommend-samples")
    _emit_manifest(manifest, args.out)
    return 0


def cmd_stats(args) -> int:
    start = time.perf_counter()
    h = load_hypergraph_path(args.input)
    lg = build_line_graph(h, workers=args.threads)
    degrees = lg.degrees()
    stats = {
        "num_nodes": h.num_nodes,
        "num_edges": h.num_edges,
        "incidences": h.total_incidences(),
        "max_edge_size": max(len(e) for e in h.edges),
        "num_wedges": lg.wedge_count,
        "max_line_degree": max(degrees) if degrees else 0,
    }
    manifest = _manifest_for(args, "stats")
    with _output(args.out) as out:
        if args.json:
            json.dump(stats, out, indent=2)
            out.write("\n")
        else:
            out.write("key,value\n")
            for key, value in stats.items():
                out.write(f"{key},{value}\n")
    if args.linegraph_out:
        with open(args.linegraph_out, "w", encoding="utf-8") as fh:
            dump_line_graph(lg, fh)
        manifest.outputs[args.linegraph_out] = ""
    return _finish(args, manifest, start)


def cmd_convert(args) -> int:
    with open(args.nverts, encoding="utf-8") as fh:
        nverts = fh.readlines()
    with open(args.simplices, encoding="utf-8") as fh:
        simplices = fh.readlines()
    edges = convert_nverts_format(nverts, simplices)
    with _output(args.out) as out:
        for e in edges:
            out.write(" ".join(map(str, e)) + "\n")
    manifest = _manifest_for(args, "convert")
    return _finish(args, manifest)


def _add_common(p, with_mode=True, with_threads=True):
    p.add_argument("--seed", type=int, default=0, help="RNG seed (u64)")
    p.add_argument("--out", default="-", help="output path ('-' = stdout)")
    p.add_argument("--json", action="store_true", help="JSON instead of CSV")
    if with_threads:
        p.add_argument(
            "--threads",
            type=int,
            default=None,
            help="worker count (default: MOCHY_THREADS or machine parallelism)",
        )
    if with_mode:
        p.add_argument("--motifs", choices=("binary", "ternary"), default="binary")
        p.add_argument("--theta", type=int, default=1, help="ternary cardinality threshold")
        p.add_argument(
            "--variant",
            choices=("abs", "mr", "hr-mean", "hr-max", "hr-min"),
            default="abs",
            help="ternary state map",
        )
        p.add_argument("--p", type=float, default=0.5, help="ratio threshold for mr/hr")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mochy",
        description="Hypergraph motif counting, profiles, and null models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="count motif instances")
    p.add_argument("input")
    p.add_argument("--algo", choices=ALGORITHMS, default="exact")
    p.add_argument("-s", "-r", "--samples", dest="samples", type=int, default=None)
    p.add_argument("--budget", type=float, default=1.0,
                   help="on-the-fly memo budget as fraction of full line-graph entries")
    _add_common(p)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("cp", help="significances and characteristic profile")
    p.add_argument("input")
    p.add_argument("--algo", choices=ALGORITHMS, default="exact")
    p.add_argument("-s", "-r", "--samples", dest="samples", type=int, default=None)
    p.add_argument("--budget", type=float, default=1.0)
    p.add_argument("--replicates", type=int, default=5)
    p.add_argument("--epsilon", type=float, default=1.0)
    _add_common(p)
    p.set_defaults(func=cmd_cp)

    p = sub.add_parser("enumerate", help="list every motif instance")
    p.add_argument("input")
    _add_common(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("randomize", help="write Chung-Lu randomized replicates")
    p.add_argument("input")
    p.add_argument("--replicates", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output path prefix")
    p.set_defaults(func=cmd_randomize)

    p = sub.add_parser("catalog", help="dump a motif catalog")
    p.add_argument("--arity", type=int, default=3)
    p.add_argument("--states", type=int, default=2)
    p.add_argument("--out", default="-")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("profile-node", help="motif counts in a node's ego-network")
    p.add_argument("input")
    p.add_argument("--node", type=int, required=True, help="original node label")
    p.add_argument("--kind", choices=("star", "radial", "contracted"), default="radial")
    _add_common(p)
    p.set_defaults(func=cmd_profile_node)

    p = sub.add_parser("profile-edge", help="motif counts containing a hyperedge")
    p.add_argument("input")
    p.add_argument("--edge", type=int, required=True, help="hyperedge index")
    _add_common(p)
    p.set_defaults(func=cmd_profile_edge)

    p = sub.add_parser("recommend-samples", help="concentration-bound sample size")
    p.add_argument("--estimator", choices=("edge", "wedge"), required=True)
    p.add_argument("--open", action="store_true", help="motif is open")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--d-max", dest="d_max", type=int, required=True)
    p.add_argument("--count", type=float, required=True)
    p.add_argument("--population", type=int, required=True,
                   help="|E| for the edge estimator, wedge count for the wedge one")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_recommend_samples)

    p = sub.add_parser("stats", help="basic hypergraph and line-graph statistics")
    p.add_argument("input")
    p.add_argument("--linegraph-out", default=None, help="also dump line-graph CSV")
    _add_common(p, with_mode=False)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("convert", help="convert the two-file public layout to an edge list")
    p.add_argument("--nverts", required=True)
    p.add_argument("--simplices", required=True)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_convert)

    return parser


def _validate(parser, args) -> None:
    sampling = getattr(args, "algo", None) in (
        "edge-sample", "wedge-sample", "otf-basic", "otf-advanced"
    )
    if sampling:
        if args.samples is None or args.samples < 1:
            parser.error("sampling algorithms need --samples >= 1 (-s/-r)")
    if getattr(args, "budget", None) is not None and args.budget < 0:
        parser.error("--budget must be non-negative")
    if getattr(args, "replicates", None) is not None and args.replicates < 1:
        parser.error("--replicates must be >= 1")
    if getattr(args, "theta", 1) < 1:
        parser.error("--theta must be >= 1")
    if getattr(args, "threads", None) is not None and args.threads < 1:
        parser.error("--threads must be >= 1")
    # random.Random seeds on abs(), so a negative seed would repeat a positive one
    if hasattr(args, "seed") and not 0 <= args.seed < 1 << 64:
        parser.error("--seed must be in [0, 2**64)")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _validate(parser, args)
    if getattr(args, "threads", None) is None and hasattr(args, "threads"):
        args.threads = _default_threads()
    try:
        return args.func(args)
    except (OSError, ParseError, EmptyInputError, ValueError, IndexError) as exc:
        print(f"mochy: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
