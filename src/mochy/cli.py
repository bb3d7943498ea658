"""Command-line front end: load -> line graph -> count/profile pipelines.

COMMANDS lists the commands and the options each one takes, which are
only those its runs read. Every run emits a manifest (flags, seed, elapsed
time, output checksums) sufficient to reproduce its outputs bit-for-bit. Counts and profiles are
written as CSV by default or JSON with --json; integers are written exactly
and floats carry 17 significant digits.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import stat
import sys
import time
import warnings
from contextlib import suppress

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
    load_hypergraph,
)
from .linegraph import build_line_graph, csv_rows, dump_line_graph


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def _run(args) -> int:
    """Time one command, write its result to --out, emit the run's manifest.

    The input file, if any, is read once: the manifest's input_sha256 and
    input_bytes are those of its bytes, and the command receives the
    hypergraph parsed from them as UTF-8 text (else None). It computes, then
    returns (write, extra): a function that writes its result to a text
    handle (None when --out is not a file, as randomize's prefix), and the
    (path, write) pairs of its other files. Every regular file (or one that
    does not exist yet) is written to a temporary file beside it, and all of
    them replace their targets only once every write has succeeded, so a
    failed run leaves the earlier outputs and manifest as they were. Any
    output path '-' is stdout; it, devices and pipes are written in place
    and never read back. The manifest holds a checksum of every staged file;
    it goes next to the first of them, or to stderr when there is none. Two
    outputs (the manifest included) that resolve to the same file, two '-'
    among them, are an error, raised before anything is written.
    """
    start = time.perf_counter()
    source = getattr(args, "input", None)
    h = digest = size = None
    if source:
        with open(source, "rb") as fh:
            data = fh.read()
        digest, size = hashlib.sha256(data).hexdigest(), len(data)
        h = load_hypergraph(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
        del data
    write, extra = args.func(args, h)
    outputs = ([(args.out, write)] if write else []) + extra
    regular = [path for path, _ in outputs if not _in_place(path)]
    anchor = regular[0] + ".manifest.json" if regular else None
    paths = [path for path, _ in outputs] + ([anchor] if anchor else [])
    targets = [os.path.realpath(path) for path in paths]
    for n, target in enumerate(targets):
        if target in targets[:n]:
            raise ValueError(f"two outputs would write the same file: {paths[n]}")
    staged: dict[str, str] = {}  # output path -> the temporary file that replaces it
    try:
        for path, write_file in outputs:
            _write_file(_stage(path, staged) if path in regular else path, write_file)
        manifest = {
            "command": args.command,
            "input": source,
            "input_sha256": digest,
            "input_bytes": size,
            **_option_fields(args),
            "elapsed_seconds": time.perf_counter() - start,
            "outputs": {path: _sha256(temp) for path, temp in staged.items()},
            "version": __version__,
        }
        payload = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        if anchor is None:
            sys.stderr.write(payload)
        else:
            _write_file(_stage(anchor, staged), lambda fh: fh.write(payload))
        for path, temp in list(staged.items()):
            os.replace(temp, os.path.realpath(path))
            del staged[path]
    finally:
        for temp in staged.values():
            with suppress(OSError):
                os.unlink(temp)
    return 0


def _in_place(path: str) -> bool:
    """Whether path is '-' (stdout) or an existing device, pipe or other
    file that is not a regular one, and so cannot be replaced: it is
    written where it is."""
    try:
        return path == "-" or not stat.S_ISREG(os.stat(path).st_mode)
    except FileNotFoundError:
        return False


def _stage(path: str, staged: dict[str, str]) -> str:
    """A new temporary file in path's directory that will replace path,
    recorded in staged. It gets the mode that writing path in place would
    give."""
    target = os.path.realpath(path)
    head, tail = os.path.split(target)
    temp = os.path.join(head, f".{tail}.{os.urandom(4).hex()}.tmp")
    try:
        open(temp, "xb").close()
    except OSError as exc:  # name the output, not the temporary file
        raise OSError(exc.errno, exc.strerror, path) from None
    staged[path] = temp
    with suppress(FileNotFoundError):
        os.chmod(temp, stat.S_IMODE(os.stat(target).st_mode))
    return temp


def _write_file(path: str, write) -> None:
    """Call write on a text handle to path, or on stdout for '-'. When it
    fails, its own error is the one raised, not the second one that closing
    the handle raises while it flushes what is left in its buffer."""
    if path == "-":
        write(sys.stdout)
        return
    out = open(path, "w", encoding="utf-8")
    try:
        write(out)
    except BaseException:
        with suppress(OSError):
            out.close()
        raise
    out.close()


# The manifest field of each option whose name differs from its attribute
_FIELD_ATTRS = {"algorithm": "algo", "workers": "threads"}


def _option_fields(args) -> dict:
    """The manifest's ten option fields. Each holds its option's value where
    the command has the option and the run reads it, and None otherwise:
    seed for a sampling algorithm or the null model's replicates (cp,
    randomize), samples for a sampling algorithm, budget for otf-*, variant
    for ternary motifs, theta for abs and p for mr and hr-*."""
    algo = getattr(args, "algo", None)
    variant = args.variant if getattr(args, "motifs", None) == "ternary" else None
    read = {
        **dict.fromkeys(("algorithm", "workers", "replicates", "motifs"), True),
        "seed": algo != "exact" or hasattr(args, "replicates"),
        "samples": algo != "exact",
        "budget": str(algo).startswith("otf-"),
        "variant": variant is not None,
        "theta": variant == "abs",
        "p": variant not in (None, "abs"),
    }
    return {
        name: getattr(args, _FIELD_ATTRS.get(name, name), None) if on else None
        for name, on in read.items()
    }


def _mode_from_args(args) -> MotifMode:
    fields = _option_fields(args)
    kind, _, sigma = (fields["variant"] or "binary").partition("-")
    options = {name: fields[name] for name in ("theta", "p") if fields[name] is not None}
    return MotifMode(kind, sigma=sigma or "mean", **options)


def _motif_rows(catalog, **columns) -> list[dict]:
    """One row per motif of catalog: its id, its pattern, then its entry of
    each column."""
    return [
        {"id": t, "pattern": "".join(map(str, pattern)), **dict(zip(columns, values))}
        for t, pattern, *values in zip(catalog.ids, catalog.patterns, *columns.values())
    ]


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
    rows = _motif_rows(cv.mode.catalog(), count=cv.counts)
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


def cmd_count(args, h):
    return _counts_writer(args, _run_counter(args, h, _mode_from_args(args), args.seed)), []


def cmd_cp(args, h):
    from .nullmodel import NullModelConfig, null_counts
    from .profiles import characteristic_profile, significance

    mode = _mode_from_args(args)
    counts = _run_counter(args, h, mode, args.seed)

    def replicate_counter(h_rand, rng):
        return _run_counter(args, h_rand, mode, rng.randrange(1 << 62))

    config = NullModelConfig(replicates=args.replicates, seed=args.seed)
    null_mean, _ = null_counts(h, replicate_counter, config, workers=args.threads)
    sig = significance(counts, null_mean, epsilon=args.epsilon)
    rows = _motif_rows(mode.catalog(), count=counts.counts, null_count=null_mean.counts,
                       delta=sig.delta, cp=characteristic_profile(sig).cp)
    return (lambda out: _write_rows(out, args.json, rows, {"meta": counts.meta}, "profile")), []


def cmd_enumerate(args, h):
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


def cmd_randomize(args, h):
    from .nullmodel import _replicate

    def writer(rep):
        return lambda out: dump_hypergraph(_replicate(h, args.seed, rep)[0], out)

    return None, [(f"{args.out}.{rep}.txt", writer(rep)) for rep in range(args.replicates)]


def cmd_catalog(args, _):
    catalog = enumerate_catalog(args.arity, args.states)
    rows = _motif_rows(catalog, open=catalog.open_flags)
    document = {"arity": args.arity, "states": args.states}
    return (lambda out: _write_rows(out, args.json, rows, document, "patterns")), []


def cmd_profile_node(args, h):
    from .profiles import node_profile

    mode = _mode_from_args(args)
    found = np.flatnonzero(h.node_labels == args.node)
    if not len(found):
        raise EmptyInputError(f"node label {args.node} not present")
    return _counts_writer(args, node_profile(h, int(found[0]), kind=args.kind, mode=mode)), []


def cmd_profile_edge(args, h):
    from .profiles import hyperedge_profile

    cv = hyperedge_profile(h, build_line_graph(h), args.edge, _mode_from_args(args))
    return _counts_writer(args, cv), []


def cmd_recommend_samples(args, _):
    names = ("epsilon", "delta", "d_max", "count", "population", "estimator")
    n = recommend_samples(**{name: getattr(args, name) for name in names}, is_open=args.open)
    return (lambda out: out.write(f"{n}\n")), []


def cmd_stats(args, h):
    lg = build_line_graph(h)
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

    if args.linegraph_out is None:
        return write, []
    return write, [(args.linegraph_out, lambda out: dump_line_graph(lg, out))]


def cmd_convert(args, _):
    with open(args.nverts, encoding="utf-8") as fh:
        nverts = fh.readlines()
    with open(args.simplices, encoding="utf-8") as fh:
        simplices = fh.readlines()
    edges = convert_nverts_format(nverts, simplices)
    return (lambda out: out.writelines(" ".join(map(str, e)) + "\n" for e in edges)), []


def _option(*flags, **settings):
    return flags, settings


# Option groups that several commands share
_OUT = [_option("--out", default="-", help="output path ('-' = stdout)")]
_JSON = [_option("--json", action="store_true", help="JSON instead of CSV")]
_SEED = [_option("--seed", type=int, default=0, help="RNG seed (u64)")]
_THREADS = [_option("--threads", type=int, default=1, help="worker count, recorded only")]
_REPLICATES = [_option("--replicates", type=int, default=5)]
_MODE = [
    _option("--motifs", choices=("binary", "ternary"), default="binary"),
    _option("--theta", type=int, default=1, help="ternary cardinality threshold"),
    _option("--variant", choices=("abs", "mr", "hr-mean", "hr-max", "hr-min"),
            default="abs", help="ternary state map"),
    _option("--p", type=float, default=0.5, help="ratio threshold for mr/hr"),
]
_COUNTER = [
    _option("--algo", choices=ALGORITHMS, default="exact"),
    _option("-s", "-r", "--samples", dest="samples", type=int, default=None),
    _option("--budget", type=float, default=1.0,
            help="on-the-fly memo budget as fraction of full line-graph entries"),
]

# name -> (handler, help, whether it reads an input file, its options)
COMMANDS = {
    "count": (cmd_count, "count motif instances", True,
              [*_COUNTER, *_SEED, *_OUT, *_JSON, *_THREADS, *_MODE]),
    "cp": (cmd_cp, "significances and characteristic profile", True, [
        *_COUNTER, *_REPLICATES, _option("--epsilon", type=float, default=1.0),
        *_SEED, *_OUT, *_JSON, *_THREADS, *_MODE,
    ]),
    "enumerate": (cmd_enumerate, "list every motif instance (CSV only)", True,
                  [*_OUT, *_THREADS, *_MODE]),
    "randomize": (cmd_randomize, "write Chung-Lu randomized replicates", True, [
        *_REPLICATES, *_SEED, _option("--out", required=True, help="output path prefix"),
    ]),
    "catalog": (cmd_catalog, "dump a motif catalog", False, [
        _option("--arity", type=int, default=3), _option("--states", type=int, default=2),
        *_OUT, *_JSON,
    ]),
    "profile-node": (cmd_profile_node, "motif counts in a node's ego-network", True, [
        _option("--node", type=int, required=True, help="original node label"),
        _option("--kind", choices=("star", "radial", "contracted"), default="radial"),
        *_OUT, *_JSON, *_MODE,
    ]),
    "profile-edge": (cmd_profile_edge, "motif counts containing a hyperedge", True, [
        _option("--edge", type=int, required=True, help="hyperedge index"),
        *_OUT, *_JSON, *_MODE,
    ]),
    "recommend-samples": (cmd_recommend_samples, "concentration-bound sample size", False, [
        _option("--estimator", choices=("edge", "wedge"), required=True),
        _option("--open", action="store_true", help="motif is open"),
        _option("--epsilon", type=float, required=True),
        _option("--delta", type=float, required=True),
        _option("--d-max", dest="d_max", type=int, required=True),
        _option("--count", type=float, required=True),
        _option("--population", type=int, required=True,
                help="|E| for the edge estimator, wedge count for the wedge one"),
        *_OUT,
    ]),
    "stats": (cmd_stats, "basic hypergraph and line-graph statistics", True, [
        _option("--linegraph-out", default=None, help="also dump line-graph CSV"),
        *_OUT, *_JSON,
    ]),
    "convert": (cmd_convert, "convert the two-file public layout to an edge list", False, [
        _option("--nverts", required=True), _option("--simplices", required=True), *_OUT,
    ]),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mochy",
        description="Hypergraph motif counting, profiles, and null models",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help_text, reads_input, options) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if reads_input:
            p.add_argument("input")
        for flags, settings in options:
            p.add_argument(*flags, **settings)
        p.set_defaults(func=handler, parser=p)
    return parser


def _validate(args) -> None:
    """Range checks argparse does not make, as usage errors of the command."""
    parser = args.parser
    for name in ("input", "out", "linegraph-out", "nverts", "simplices"):
        if getattr(args, name.replace("-", "_"), None) == "":
            parser.error(f"{'--' * (name != 'input')}{name} must not be an empty path")
    if getattr(args, "algo", "exact") != "exact":
        # numpy sizes the draw arrays with a C ssize_t
        if args.samples is None or not 1 <= args.samples < 1 << 63:
            parser.error("sampling algorithms need 1 <= --samples < 2**63 (-s/-r)")
    for name in ("budget", "p", "epsilon", "delta", "count"):
        value = getattr(args, name, None)
        if value is not None and not math.isfinite(value):
            parser.error(f"--{name} must be finite")
    p = _option_fields(args)["p"]
    if p is not None and not 0 < p < 1:
        parser.error("--p must lie in (0, 1)")
    if args.command == "cp" and args.epsilon <= 0:
        parser.error("--epsilon must be positive")
    for name, low in (("budget", 0), ("replicates", 1), ("theta", 1), ("threads", 1)):
        if getattr(args, name, low) < low:
            parser.error(f"--{name} must be >= {low}")
    if args.command == "randomize" and args.out == "-":
        parser.error("randomize's --out is a file-name prefix, not '-'")
    # random.Random seeds on abs(), so a negative seed would repeat a positive one
    if hasattr(args, "seed") and not 0 <= args.seed < 1 << 64:
        parser.error("--seed must be in [0, 2**64)")


def _warn(message, *_) -> None:
    print(f"mochy: warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    args, unknown = build_parser().parse_known_args(argv)
    if unknown:
        args.parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    _validate(args)
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _warn
            return _run(args)
    except EnumerationAborted as exc:
        message = f"{exc}: {exc.__cause__}"
    except MemoryError as exc:
        message = f"out of memory: {exc}"
    except (OSError, ParseError, EmptyInputError, ValueError, IndexError) as exc:
        message = str(exc)
    print(f"mochy: error: {message}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
