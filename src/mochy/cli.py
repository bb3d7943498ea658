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
import math
import os
import stat
import sys
import time
from contextlib import suppress
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from .catalog import MotifMode, enumerate_catalog
from .counting import (
    ALGORITHMS,
    CountVector,
    EnumerationAborted,
    _instances,
    count_exact,
    count_otf,
    count_sample_hyperedge,
    count_sample_hyperwedge,
    recommend_samples,
)
from .hypergraph import (
    EmptyInputError,
    ParseError,
    convert_nverts_format,
    dump_hypergraph,
    load_hypergraph_path,
)
from .linegraph import build_line_graph, csv_rows, dump_line_graph


@dataclass
class RunManifest:
    command: str
    input: str | None
    algorithm: str | None
    samples: int | None
    budget: float | None
    workers: int
    seed: int
    motifs: str | None
    variant: str | None
    theta: int | None
    p: float | None
    replicates: int | None
    elapsed_seconds: float
    outputs: dict
    version: str = __version__


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def _run(args) -> int:
    """Time one command, write its result to --out, emit the run's manifest.

    A command loads and computes, then returns (write, extra): a function
    that writes its result to a text handle (None when --out is not a file,
    as randomize's prefix), and the (path, write) pairs of its other files.
    The manifest holds a checksum of every file written; it goes next to
    --out (next to the first other file without one), or to stderr when
    --out is stdout. Two outputs (the manifest included) that resolve to the
    same file are an error, raised before anything is written. Every regular
    file is written to a temporary file beside it, and all of them replace
    their targets only once every write has succeeded, so a failed run
    leaves the earlier outputs and manifest as they were.
    """
    start = time.perf_counter()
    write, extra = args.func(args)
    to_stdout = write and args.out == "-"
    outputs = [(args.out, write)] if write and not to_stdout else []
    outputs += extra
    anchor = "-" if to_stdout else outputs[0][0]
    paths = [path for path, _ in outputs]
    if anchor != "-":
        paths.append(anchor + ".manifest.json")
    targets = [os.path.realpath(path) for path in paths]
    for n, target in enumerate(targets):
        if target in targets[:n]:
            raise ValueError(f"two outputs would write the same file: {paths[n]}")
    if to_stdout:
        write(sys.stdout)
    files = dict(outputs)
    staged: dict[str, str] = {}  # output path -> the temporary file that replaces it
    try:
        for path, write_file in files.items():
            _write_file(_stage(path, staged), write_file)
        elapsed = time.perf_counter() - start
        manifest = RunManifest(
            command=args.command,
            input=getattr(args, "input", None),
            algorithm=getattr(args, "algo", None),
            samples=getattr(args, "samples", None),
            budget=getattr(args, "budget", None),
            workers=getattr(args, "threads", 1),
            seed=getattr(args, "seed", 0),
            **_mode_fields(args),
            replicates=getattr(args, "replicates", None),
            elapsed_seconds=elapsed,
            outputs={path: _sha256(staged.get(path, path)) for path in files},
        )
        payload = json.dumps(asdict(manifest), indent=2, sort_keys=True) + "\n"
        if anchor == "-":
            sys.stderr.write(payload)
        else:
            path = anchor + ".manifest.json"
            _write_file(_stage(path, staged), lambda fh: fh.write(payload))
        for path, temp in list(staged.items()):
            os.replace(temp, os.path.realpath(path))
            del staged[path]
    finally:
        for temp in staged.values():
            with suppress(OSError):
                os.unlink(temp)
    return 0


def _stage(path: str, staged: dict[str, str]) -> str:
    """Where to write path's new content: a new temporary file in path's
    directory, recorded in staged, for a regular file or one that does not
    exist yet; path itself for a device or a pipe, which cannot be replaced.
    The temporary file gets the mode that writing path in place would give."""
    target = os.path.realpath(path)
    try:
        mode = os.stat(target).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        return path
    head, tail = os.path.split(target)
    temp = os.path.join(head, f".{tail}.{os.urandom(4).hex()}.tmp")
    try:
        open(temp, "xb").close()
    except OSError as exc:  # name the output, not the temporary file
        raise OSError(exc.errno, exc.strerror, path) from None
    staged[path] = temp
    if mode is not None:
        os.chmod(temp, stat.S_IMODE(mode))
    return temp


def _write_file(path: str, write) -> None:
    """Call write on a text handle to path. When it fails, its own error is
    the one raised, not the second one that closing the handle raises while
    it flushes what is left in its buffer."""
    out = open(path, "w", encoding="utf-8")
    try:
        write(out)
    except BaseException:
        with suppress(OSError):
            out.close()
        raise
    out.close()


def _mode_fields(args) -> dict:
    """The manifest's motifs, variant, theta and p: each None where the
    command has no such option or the chosen motif mode does not read it."""
    motifs = getattr(args, "motifs", None)
    variant = args.variant if motifs == "ternary" else None
    return {
        "motifs": motifs,
        "variant": variant,
        "theta": args.theta if variant == "abs" else None,
        "p": args.p if variant not in (None, "abs") else None,
    }


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


def _counts_writer(args, cv: CountVector):
    """The --out writer of a count vector's rows."""
    catalog = cv.mode.catalog()
    rows = [
        {"id": t, "pattern": pattern, "count": count}
        for t, pattern, count in zip(catalog.ids, _patterns(catalog), cv.counts)
    ]
    return lambda out: _write_rows(out, args.json, rows, {"meta": cv.meta}, "counts")


def _run_counter(args, h, mode: MotifMode, seed: int) -> CountVector:
    if args.algo.startswith("otf-"):
        # a Python int, so that an overflow is an inf, not a numpy warning
        budget = args.budget * int(h.line_degrees.sum())
        if not math.isfinite(budget):
            raise ValueError(f"--budget {args.budget} times the line-graph entries overflows")
        return count_otf(h, args.samples, int(budget), seed, args.algo[4:], mode, args.threads)
    lg = build_line_graph(h, workers=args.threads)
    if args.algo == "exact":
        return count_exact(h, lg, mode, workers=args.threads)
    sample = count_sample_hyperedge if args.algo == "edge-sample" else count_sample_hyperwedge
    return sample(h, lg, args.samples, seed, mode, args.threads)


def cmd_count(args):
    h = load_hypergraph_path(args.input)
    return _counts_writer(args, _run_counter(args, h, _mode_from_args(args), args.seed)), []


def cmd_cp(args):
    from .nullmodel import NullModelConfig, null_counts
    from .profiles import characteristic_profile, significance

    h = load_hypergraph_path(args.input)
    mode = _mode_from_args(args)
    counts = _run_counter(args, h, mode, args.seed)

    def replicate_counter(h_rand, rng):
        return _run_counter(args, h_rand, mode, rng.randrange(1 << 62))

    null_mean, _ = null_counts(
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
    return (lambda out: _write_rows(out, args.json, rows, {"meta": counts.meta}, "profile")), []


def cmd_enumerate(args):
    h = load_hypergraph_path(args.input)
    mode = _mode_from_args(args)
    lg = build_line_graph(h, workers=args.threads)

    def write(out):
        """One write per chunk of instances; a failed write reports the rows
        of the chunks written before it."""
        out.write("i,j,k,motif_id\n")
        written = 0
        for chunk in _instances(h, lg, mode):
            try:
                out.write(csv_rows(*chunk))
            except OSError as exc:
                raise EnumerationAborted(written) from exc
            written += len(chunk[0])

    return write, []


def cmd_randomize(args):
    from .nullmodel import randomize_chung_lu

    h = load_hypergraph_path(args.input)

    def writer(rep):
        return lambda out: dump_hypergraph(randomize_chung_lu(h, seed=(args.seed << 64) ^ rep), out)

    return None, [(f"{args.out}.{rep}.txt", writer(rep)) for rep in range(args.replicates)]


def cmd_catalog(args):
    catalog = enumerate_catalog(args.arity, args.states)
    rows = [
        {"id": t, "pattern": pattern, "open": is_open}
        for t, pattern, is_open in zip(catalog.ids, _patterns(catalog), catalog.open_flags)
    ]
    document = {"arity": args.arity, "states": args.states}
    return (lambda out: _write_rows(out, args.json, rows, document, "patterns")), []


def cmd_profile_node(args):
    from .profiles import node_profile

    h = load_hypergraph_path(args.input)
    mode = _mode_from_args(args)
    found = np.flatnonzero(h.node_labels == args.node)
    if not len(found):
        raise EmptyInputError(f"node label {args.node} not present")
    return _counts_writer(args, node_profile(h, int(found[0]), kind=args.kind, mode=mode)), []


def cmd_profile_edge(args):
    from .profiles import hyperedge_profile

    h = load_hypergraph_path(args.input)
    mode = _mode_from_args(args)
    lg = build_line_graph(h, workers=args.threads)
    return _counts_writer(args, hyperedge_profile(h, lg, args.edge, mode)), []


def cmd_recommend_samples(args):
    n = recommend_samples(
        epsilon=args.epsilon,
        delta=args.delta,
        d_max=args.d_max,
        count=args.count,
        population=args.population,
        estimator=args.estimator,
        is_open=args.open,
    )
    return (lambda out: out.write(f"{n}\n")), []


def cmd_stats(args):
    h = load_hypergraph_path(args.input)
    lg = build_line_graph(h, workers=args.threads)
    stats = {
        "num_nodes": h.num_nodes,
        "num_edges": h.num_edges,
        "incidences": h.total_incidences(),
        "max_edge_size": int(np.diff(h.edge_ptr).max()),
        "num_wedges": lg.wedge_count,
        "max_line_degree": int(np.diff(lg.indptr).max(initial=0)),
    }

    def write(out):
        if args.json:
            json.dump(stats, out, indent=2)
            out.write("\n")
        else:
            out.write("key,value\n")
            for key, value in stats.items():
                out.write(f"{key},{value}\n")

    if not args.linegraph_out:
        return write, []
    return write, [(args.linegraph_out, lambda out: dump_line_graph(lg, out))]


def cmd_convert(args):
    with open(args.nverts, encoding="utf-8") as fh:
        nverts = fh.readlines()
    with open(args.simplices, encoding="utf-8") as fh:
        simplices = fh.readlines()
    edges = convert_nverts_format(nverts, simplices)
    return (lambda out: out.writelines(" ".join(map(str, e)) + "\n" for e in edges)), []


def _add_common(p, with_mode=True, with_threads=True, with_json=True):
    p.add_argument("--seed", type=int, default=0, help="RNG seed (u64)")
    p.add_argument("--out", default="-", help="output path ('-' = stdout)")
    if with_json:
        p.add_argument("--json", action="store_true", help="JSON instead of CSV")
    if with_threads:
        p.add_argument(
            "--threads",
            type=int,
            default=1,
            help="worker count, recorded only",
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

    p = sub.add_parser("enumerate", help="list every motif instance (CSV only)")
    p.add_argument("input")
    _add_common(p, with_json=False)
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
        # numpy sizes the draw arrays with a C ssize_t
        if args.samples is None or not 1 <= args.samples < 1 << 63:
            parser.error("sampling algorithms need 1 <= --samples < 2**63 (-s/-r)")
    for name in ("budget", "p", "epsilon", "delta", "count"):
        value = getattr(args, name, None)
        if value is not None and not math.isfinite(value):
            parser.error(f"--{name} must be finite")
    if args.command == "cp" and args.epsilon <= 0:
        parser.error("--epsilon must be positive")
    if getattr(args, "budget", None) is not None and args.budget < 0:
        parser.error("--budget must be non-negative")
    if getattr(args, "replicates", None) is not None and args.replicates < 1:
        parser.error("--replicates must be >= 1")
    if getattr(args, "theta", 1) < 1:
        parser.error("--theta must be >= 1")
    if getattr(args, "threads", 1) < 1:
        parser.error("--threads must be >= 1")
    # random.Random seeds on abs(), so a negative seed would repeat a positive one
    if hasattr(args, "seed") and not 0 <= args.seed < 1 << 64:
        parser.error("--seed must be in [0, 2**64)")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _validate(parser, args)
    try:
        return _run(args)
    except EnumerationAborted as exc:
        print(f"mochy: error: {exc}: {exc.__cause__}", file=sys.stderr)
        return 1
    except (OSError, ParseError, EmptyInputError, ValueError, IndexError) as exc:
        print(f"mochy: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
