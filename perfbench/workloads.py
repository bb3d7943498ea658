"""Seeded input generators and the CLI command list of each workload.

Every generator draws from ``random.Random`` seeded with a string built from
the workload name and the benchmark seed, so the same seed rewrites the same
bytes on any machine and Python version that keeps the Mersenne Twister
stream (string seeds hash with SHA-512, independent of PYTHONHASHSEED).
Each input is one hyperedge per line, members sorted, in draw order.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from itertools import accumulate

# On-the-fly memo budget as a share of the full line-graph entries.
OTF_BUDGET = 0.1
SAMPLE_SEED = 1  # --seed of the sampling and cp commands
# Worker count passed to every command as --threads; fixed so the figures do
# not depend on the core count of the machine that runs the benchmark.
THREADS = 2

# Generator parameters per workload. The sizes follow the two regimes of the
# motif-counting literature: many small overlaps (uniform4, sparse-cp) and
# skewed hub hyperedges (heavytail).
PARAMS = {
    "uniform4": {"edges": 2_000, "labels": 1_540, "size_min": 4, "size_max": 4},
    "heavytail": {
        "edges": 1_200, "labels": 9_000, "size_min": 2, "size_max": 200,
        "size_alpha": 2.0, "zipf_s": 0.3,
    },
    "sparse-cp": {"edges": 9_000, "labels": 60_000, "size_min": 2, "size_max": 5},
}

# Wedge draws of the sampling commands (-r), fixed per workload rather than a
# share of the wedges: each sampling command then does a fixed amount of work
# on every seed, and enough of it that the kernel, not interpreter start-up,
# makes most of its wall time (sparse-cp has fewer wedges than draws; the
# draws are with replacement).
SAMPLES = {"uniform4": 4_000, "heavytail": 2_000, "sparse-cp": 12_000}

# The commands each workload runs through the CLI, in order. "{r}" is the
# workload's SAMPLES.
COMMANDS = {
    "uniform4": ("count_exact", "enumerate", "wedge_sample", "otf"),
    "heavytail": ("count_exact", "count_ternary", "wedge_sample", "otf"),
    "sparse-cp": ("count_exact", "wedge_sample", "otf", "cp"),
}

ARGS = {
    "count_exact": ["count", "{input}", "--algo", "exact"],
    "count_ternary": ["count", "{input}", "--algo", "exact", "--motifs", "ternary",
                      "--variant", "hr-mean"],
    "enumerate": ["enumerate", "{input}"],
    "wedge_sample": ["count", "{input}", "--algo", "wedge-sample", "-r", "{r}",
                     "--seed", str(SAMPLE_SEED)],
    "otf": ["count", "{input}", "--algo", "otf-advanced", "-r", "{r}",
            "--budget", str(OTF_BUDGET), "--seed", str(SAMPLE_SEED)],
    "cp": ["cp", "{input}", "--replicates", "5", "--algo", "exact",
           "--seed", str(SAMPLE_SEED)],
}


def _sizes(rng: random.Random, p: dict) -> list[int]:
    """Hyperedge sizes: the law's quantiles at the midpoints of n equal strata,
    shuffled. The size multiset is the same for every seed, so the seed moves
    memberships only and the work per run stays comparable across seeds."""
    sizes = range(p["size_min"], p["size_max"] + 1)
    cum = list(accumulate(k ** -p.get("size_alpha", 0.0) for k in sizes))
    n = p["edges"]
    out = [sizes[bisect_left(cum, (i + 0.5) / n * cum[-1])] for i in range(n)]
    rng.shuffle(out)
    return out


def _edges(rng: random.Random, p: dict) -> list[tuple[int, ...]]:
    """Distinct hyperedges; a duplicate is redrawn with the same size."""
    if "zipf_s" in p:
        cum = list(accumulate((r + 1) ** -p["zipf_s"] for r in range(p["labels"])))

        def members(size: int) -> tuple[int, ...]:
            drawn: set[int] = set()
            while len(drawn) < size:
                drawn.add(bisect_left(cum, rng.random() * cum[-1]))
            return tuple(sorted(drawn))
    else:
        labels = range(p["labels"])

        def members(size: int) -> tuple[int, ...]:
            return tuple(sorted(rng.sample(labels, size)))

    edges: dict[tuple[int, ...], None] = {}
    for size in _sizes(rng, p):
        e = members(size)
        while e in edges:
            e = members(size)
        edges[e] = None
    return list(edges)


def generate(workload: str, seed: int) -> bytes:
    """Edge-list file contents of the workload's input for this seed."""
    edges = _edges(random.Random(f"{workload}:{seed}"), PARAMS[workload])
    return "".join(" ".join(map(str, e)) + "\n" for e in edges).encode()


def command_args(workload: str, command: str, input_path: str) -> list[str]:
    """CLI arguments (after the program name) of one workload command."""
    return [a.format(input=input_path, r=SAMPLES[workload]) for a in ARGS[command]] + [
        "--threads", str(THREADS),
    ]
