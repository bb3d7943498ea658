"""Start-up: `import mochy` loads numpy without OpenBLAS's thread pool and
imports each submodule only when a name from it is first used.

Every case runs in a fresh interpreter, where numpy is not loaded yet."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

# mochy.__all__: 44 names and 6 submodules
ALL = [
    "BINARY", "CharacteristicProfile", "CountVector", "EgoNetwork", "EmptyInputError",
    "Hypergraph", "LineGraph", "MotifCatalog", "MotifMode", "NullModelConfig",
    "PairOverlapStats", "ParseError", "SignificanceVector", "TERNARY", "build_line_graph",
    "canonicalize", "catalog", "characteristic_profile", "classify", "conditional_entropy",
    "count_exact", "count_otf", "count_sample_hyperedge", "count_sample_hyperwedge",
    "count_state_motifs", "counting", "cp_similarity_matrix", "dump_hypergraph",
    "ego_network", "enumerate_catalog", "enumerate_instances", "estimator_variance",
    "from_edge_sets", "hyperedge_profile", "hypergraph", "is_valid_pattern", "linegraph",
    "load_hypergraph", "load_hypergraph_path", "motif_importance", "node_profile",
    "null_counts", "nullmodel", "pair_overlap_stats", "profiles", "randomize_chung_lu",
    "recommend_samples", "relative_counts", "significance", "ternary_refinement_map",
]


def fresh(code: str, **env) -> object:
    """Run code in a new interpreter with none of THREAD_VARIABLES set
    unless given in env; return the JSON it prints last."""
    base = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env={**base, "PYTHONPATH": SRC, **env}, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


LOADED = "json.dumps(sorted(m for m in sys.modules if m.startswith('mochy.')))"


def test_import_loads_no_submodule():
    assert fresh(f"import json, sys, mochy; print({LOADED})") == []


def test_line_graph_loads_only_its_modules():
    # the repeated row takes the build through the duplicate-row check, where
    # a plain np.unique would load numpy.ma on numpy 2.4
    code = (
        "import json, sys, mochy; "
        "mochy.build_line_graph(mochy.from_edge_sets([[1, 2, 3], [2, 3, 4], [3, 2, 1]])); "
        "print(json.dumps([m for m in sorted(sys.modules) "
        "if m.startswith('mochy.') or m == 'numpy.ma']))"
    )
    assert fresh(code) == ["mochy.hypergraph", "mochy.linegraph"]


def test_every_public_name_resolves():
    code = (
        "import json, types, mochy; "
        "print(json.dumps({name: isinstance(getattr(mochy, name), types.ModuleType) "
        "for name in mochy.__all__}))"
    )
    resolved = fresh(code)
    assert sorted(resolved) == ALL
    assert sorted(name for name, is_module in resolved.items() if is_module) == [
        "catalog", "counting", "hypergraph", "linegraph", "nullmodel", "profiles",
    ]


def test_star_import_and_unknown_name():
    code = (
        "import json, mochy\n"
        "from mochy import *\n"
        "try:\n"
        "    mochy.no_such_name\n"
        "    missing = False\n"
        "except AttributeError:\n"
        "    missing = True\n"
        "print(json.dumps([missing, count_exact is mochy.counting.count_exact,\n"
        "                  sorted(set(mochy.__all__) - set(globals()))]))\n"
    )
    assert fresh(code) == [True, True, []]


def test_numpy_loads_without_the_thread_pool():
    code = (
        "import json, os, mochy; "
        "tasks = os.listdir('/proc/self/task') if os.path.isdir('/proc/self/task') else None; "
        "print(json.dumps(['OPENBLAS_NUM_THREADS' in os.environ, "
        "None if tasks is None else len(tasks)]))"
    )
    in_environ, threads = fresh(code)
    assert not in_environ
    if threads is None:
        pytest.skip("no /proc/self/task to count threads in")
    assert threads == 1


@pytest.mark.parametrize("variable", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
def test_users_thread_setting_is_kept(variable):
    code = (
        "import json, os, mochy; "
        f"print(json.dumps([os.environ.get(v) for v in {THREAD_VARIABLES!r}]))"
    )
    expected = [("2" if v == variable else None) for v in THREAD_VARIABLES]
    assert fresh(code, **{variable: "2"}) == expected


def test_count_loads_no_null_model_or_profiles(tmp_path):
    path = tmp_path / "chain.txt"
    path.write_text("1 2 3\n2 3 4\n3 4 5\n")
    code = (
        "import json, sys; from mochy.cli import main; "
        f"main(['count', {str(path)!r}, '--out', {str(tmp_path / 'c.csv')!r}]); "
        f"print({LOADED})"
    )
    loaded = fresh(code)
    assert "mochy.counting" in loaded
    assert "mochy.nullmodel" not in loaded and "mochy.profiles" not in loaded
