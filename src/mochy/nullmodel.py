"""Degree-preserving hypergraph randomization via the incidence graph.

Incidence pairs are redrawn independently, nodes proportionally to degree
and hyperedge slots proportionally to size, which preserves both
distributions in expectation. Slot node-multisets collapse to sets, empty
slots are dropped, and duplicate hyperedges are merged on re-ingestion.

The redraw is one vectorized draw over the stdlib stream: it reads the
Mersenne Twister's 32-bit words in blocks and repeats randrange's rejection
sampling on them, so it gives the same values as, and leaves the generator
in the same state as, one `rng.randrange(total)` call per node and per slot.
Replicates are built by the same array builder as parsed input and run one
after another. A block holds at most _WORD_BLOCK words, and the drawn
positions become nodes and slots through int32 lookup tables, so one
replicate, redraw and rebuild together, peaks at about 40 bytes per
incidence under tracemalloc on sparse input (see `hypergraph`), its result
included.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .counting import CountVector, _stream
from .hypergraph import Hypergraph, from_pairs


@dataclass(frozen=True)
class NullModelConfig:
    replicates: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")


# 32-bit words read per getrandbits call: 64 KiB of the stream at a time.
_WORD_BLOCK = 1 << 14


def _randbelow(rng: random.Random, bound: int, count: int) -> np.ndarray:
    """The values of count >= 1 successive rng.randrange(bound) calls, as an array.

    Each call takes 32-bit words w from the generator until one has
    w >> (32 - bound.bit_length()) below bound. A round reads one word per
    value still missing, at most _WORD_BLOCK, in a single getrandbits call,
    whose result holds the words in order from the least significant end;
    so rounds read the stream as one call would, no word is read past the
    last value, and rng ends where the calls would leave it.
    """
    width = bound.bit_length()
    if width > 32:
        raise ValueError(f"cannot redraw {bound} incidences (at most 2**32 - 1)")
    out = np.empty(count, dtype=np.uint32)
    filled = 0
    while filled < count:
        words = min(count - filled, _WORD_BLOCK)
        block = rng.getrandbits(32 * words).to_bytes(4 * words, "little")
        values = np.frombuffer(block, dtype="<u4") >> (32 - width)
        values = values[values < bound]
        out[filled : filled + len(values)] = values
        filled += len(values)
    return out


def redraw_incidences(h: Hypergraph, rng: random.Random) -> tuple[np.ndarray, np.ndarray]:
    """Redraw all incidence pairs: (slots, nodes), int32, one entry per drawn pair.

    Draw t is the pair of rng.randrange(total) calls 2t and 2t + 1. The
    first picks the node owning that position in node-major incidence order
    (a node with probability degree / total), the second the slot, a
    hyperedge index of h, owning it in hyperedge-major order (probability
    size / total).
    """
    total = h.total_incidences()
    draws = _randbelow(rng, total, 2 * total)
    nodes = np.repeat(np.arange(h.num_nodes, dtype=np.int32), np.diff(h.node_ptr))[draws[0::2]]
    slots = np.repeat(np.arange(h.num_edges, dtype=np.int32), np.diff(h.edge_ptr))[draws[1::2]]
    return slots, nodes


def randomize_chung_lu(h: Hypergraph, seed: int = 0, replicate: int = 0) -> Hypergraph:
    """Replicate `replicate` of the null model seeded with seed: the file
    <prefix>.<replicate>.txt of `mochy randomize --seed seed`, and the
    hypergraph null_counts counts. Node labels in the output are the input's
    node ids, so degrees remain comparable across replicates."""
    return _replicate(h, seed, replicate)[0]


def _replicate(h: Hypergraph, seed: int, rep: int) -> tuple[Hypergraph, random.Random]:
    """randomize_chung_lu(h, seed, rep), and its stream, derived from
    (seed, rep), right after the redraw."""
    rng = _stream(seed, rep)
    return from_pairs(*redraw_incidences(h, rng)), rng


def null_counts(
    h: Hypergraph,
    counter: Callable[[Hypergraph, random.Random], CountVector],
    cfg: NullModelConfig = NullModelConfig(),
    workers: int = 1,
) -> tuple[CountVector, list[CountVector]]:
    """Mean per-motif counts over randomized replicates.

    counter(h_rand, rng) runs any counting pipeline on one replicate,
    h_rand = randomize_chung_lu(h, seed, rep); rng is that replicate's
    stream, derived from (seed, rep), right after the redraw. Replicates run
    one after another, and only one is held at a time; `workers` is accepted
    for compatibility and has no effect. Returns the mean vector and the
    per-replicate vectors it averages.
    """
    vectors = [counter(*_replicate(h, cfg.seed, rep)) for rep in range(cfg.replicates)]
    # cumsum adds in replicate order, as a per-motif sum() does; np.sum may add pairwise
    mean = np.cumsum([cv.counts for cv in vectors], axis=0)[-1] / cfg.replicates
    out = CountVector(
        mode=vectors[0].mode,
        counts=mean.tolist(),
        meta={
            "algorithm": "null-mean",
            "replicates": cfg.replicates,
            "seed": cfg.seed,
            "component": vectors[0].meta.get("algorithm"),
        },
    )
    return out, vectors
