"""Golden CLI outputs: byte identity at equal seeds on a small seeded graph.

The counting digests were produced by the per-triple reference implementation
that the batched kernel replaced, and the cp/randomize digests by the
call-by-call Chung-Lu redraw that the vectorized one replaced, and the
stats/profile-node digests by the tuple-view reads that the array reads
replaced; any change to counting, sampling draws, the null model's draws,
on-the-fly access order or output formatting shows up here as a different
sha256.
"""

import hashlib
import random

import pytest

from mochy.cli import main


def golden_input() -> str:
    """35 small edges plus one 14-node hub edge over 30 labels."""
    rng = random.Random(7)
    edges = {frozenset(rng.sample(range(30), 14))}
    while len(edges) < 36:
        edges.add(frozenset(rng.sample(range(30), rng.randint(2, 6))))
    rows = sorted(sorted(e) for e in edges)
    rng.shuffle(rows)
    return "".join(" ".join(map(str, e)) + "\n" for e in rows)


SAMPLING = ["--seed", "3", "--threads", "2"]
# otf-basic and otf-advanced must equal wedge-sample byte for byte.
WEDGE = "9e505a104b4ffd84cd95332470138ab3d1f844e3435cd971f7c72d3776fdd0a8"

GOLDEN = {
    "exact-binary": (
        ["count", "--algo", "exact"],
        "a506f70b4133843e7135ac1906df2ee053a66a196197c76f59639db4bd4c2fc2",
    ),
    "exact-abs": (
        ["count", "--motifs", "ternary", "--variant", "abs", "--theta", "2"],
        "cdab0c5e06aa6d59675184844d99a8940337c0a6e939d491c3144fadcd3d9061",
    ),
    "exact-mr": (
        ["count", "--motifs", "ternary", "--variant", "mr", "--p", "0.3"],
        "2b8560fcff0d3588cb183bd9806e7509cdd664d9519f160710c2cee9d42a9807",
    ),
    "exact-hr-mean": (
        ["count", "--motifs", "ternary", "--variant", "hr-mean"],
        "0034197f690c8374907400ad998a7d5f15761106c6b8e2f54b4ced78f730fd62",
    ),
    "edge-sample": (
        ["count", "--algo", "edge-sample", "-s", "30", *SAMPLING],
        "72b55087dd593a8d1fb9414320f69ffcfdc6ce63a1783066e0f6eb8992654e8c",
    ),
    "wedge-sample": (["count", "--algo", "wedge-sample", "-r", "40", *SAMPLING], WEDGE),
    "otf-basic": (
        ["count", "--algo", "otf-basic", "-r", "40", "--budget", "0.3", *SAMPLING],
        WEDGE,
    ),
    "otf-advanced": (
        ["count", "--algo", "otf-advanced", "-r", "40", "--budget", "0.3", *SAMPLING],
        WEDGE,
    ),
    "enumerate": (
        ["enumerate"],
        "9bfaa3cae1bc7805b1d192b26d97a5e8c875d121cf53f58e43d1ac5beb32c7c7",
    ),
    # three-digit motif ids
    "enumerate-hr-mean": (
        ["enumerate", "--motifs", "ternary", "--variant", "hr-mean"],
        "74b215c26c40c93a8b980901ce7e59423aaa8cef688165b7c17a98e9ba49bc71",
    ),
    "stats": (
        ["stats"],
        "6311580e8eebf7913ad5c054b9e9c4eeb6ffa7d4008f28cad125a0f8ea41a5f0",
    ),
    "stats-json": (
        ["stats", "--json"],
        "0680c13b4f9e427bc41c95c093401518943f109132794ccf4a25288185d39b6e",
    ),
    "profile-node": (
        ["profile-node", "--node", "4"],
        "2dd33f73f72e61533fcc73ab3156f8435f8b2cf3f821d9950319c9f2dcf7a5d7",
    ),
    "profile-edge": (
        ["profile-edge", "--edge", "3"],
        "ab632f544daf0c911505423db007c5f4d8d5e95db4129a64a0e5ee904e6ffd76",
    ),
    # meta keys: algorithm, num_edges, num_wedges, node (the label given), ego_kind, triples
    "profile-node-json": (
        ["profile-node", "--node", "4", "--json"],
        "4251fa898d949e73959d8dc8436bbc76ebddb7a9904bec5957596041cd1cd042",
    ),
    # --json carries each engine's meta, so its keys and their order are pinned
    "exact-json": (
        ["count", "--algo", "exact", "--json"],
        "f5cec30c27e5f8ec3398a606bda8d51208e1260e6ac7b42b783a439c9187b7b1",
    ),
    "edge-sample-json": (
        ["count", "--algo", "edge-sample", "-s", "30", *SAMPLING, "--json"],
        "967aff3b1975fc240c5aabb831ff055ae2e187166065403a175661aa165c91a9",
    ),
    "wedge-sample-json": (
        ["count", "--algo", "wedge-sample", "-r", "40", *SAMPLING, "--json"],
        "c17803376fd46a49d05b545c1e19c0cae9e5abf2f469a260730c991f4b8bd624",
    ),
    "otf-basic-json": (
        ["count", "--algo", "otf-basic", "-r", "40", "--budget", "0.3", *SAMPLING, "--json"],
        "d78965115ac105ce923ae9c46092b97e5e00c173b637b1f50f2bdfa0e84018b2",
    ),
    "otf-advanced-json": (
        ["count", "--algo", "otf-advanced", "-r", "40", "--budget", "0.3", *SAMPLING, "--json"],
        "10f6db726cc2d54c49ec66bb7b80a95581342b9ccff3aabb521d61031eb5cae0",
    ),
}

# `catalog` reads no input: the binary and the 3-state ternary catalogs.
CATALOG = {
    "binary": (
        [],
        "dae90d387793352a00418188f09920ac91c37a967d5371939eb8af7e6afcb305",
    ),
    "ternary": (
        ["--states", "3"],
        "8e18fa876f83c15d23745a360870bfe10447cfca36b56bb3611c9babb6ea1f6b",
    ),
}

# The file `stats --linegraph-out` writes.
LINEGRAPH = "86e0aa936cc610b952a222bad112fc209bf1686a6b1082b173fcc0591b0d06ba"


# The null model's redraw: `cp` counts two replicates, `randomize` writes three.
CP = (
    ["cp", "--replicates", "2", "--seed", "5"],
    "145db3c0ea85ddabe5802f9b8dad9f0ac8e002d5e533b119ef5a1f0cc0ebd150",
)
RANDOMIZE = (
    ["randomize", "--replicates", "3", "--seed", "5"],
    [
        "27f46a409556dbf0a80fe5734cce51b8676243b17e370bd5ea893da14f3c4414",
        "506d60436b99a6ccc620d3658261a30e0351dafda2a57547b9bc62f6841a48c3",
        "93d67346fa288e5d351468735f9dd70a27e55d6e507e078c2c0f59aa0ab0f1b0",
    ],
)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cli_output_bytes_are_pinned(name, tmp_path):
    argv, digest = GOLDEN[name]
    src = tmp_path / "in.txt"
    src.write_text(golden_input())
    out = tmp_path / "out.csv"
    assert main([argv[0], str(src), *argv[1:], "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_linegraph_output_bytes_are_pinned(tmp_path):
    src = tmp_path / "in.txt"
    src.write_text(golden_input())
    out, lg_out = tmp_path / "stats.csv", tmp_path / "lg.csv"
    assert main(["stats", str(src), "--out", str(out), "--linegraph-out", str(lg_out)]) == 0
    assert hashlib.sha256(lg_out.read_bytes()).hexdigest() == LINEGRAPH


@pytest.mark.parametrize("threads", ["1", "2"])
def test_cp_output_bytes_are_pinned(threads, tmp_path):
    argv, digest = CP
    src = tmp_path / "in.txt"
    src.write_text(golden_input())
    out = tmp_path / "cp.csv"
    assert main([argv[0], str(src), *argv[1:], "--threads", threads, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_randomize_output_bytes_are_pinned(tmp_path):
    argv, digests = RANDOMIZE
    src = tmp_path / "in.txt"
    src.write_text(golden_input())
    prefix = tmp_path / "rand"
    assert main([argv[0], str(src), *argv[1:], "--out", str(prefix)]) == 0
    written = [(tmp_path / f"rand.{rep}.txt").read_bytes() for rep in range(len(digests))]
    assert [hashlib.sha256(data).hexdigest() for data in written] == digests


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_catalog_output_bytes_are_pinned(name, tmp_path):
    flags, digest = CATALOG[name]
    out = tmp_path / "catalog.csv"
    assert main(["catalog", *flags, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
