"""Hypergraph motif analysis: catalogs, counting, null models, profiles.

Importing mochy loads numpy and nothing else. Each public name, and each
submodule, is imported on first use (PEP 562).
"""

import importlib
import os
import sys

__version__ = "0.1.0"

# mochy sorts, searches and tallies integers, and calls no BLAS routine large
# enough for OpenBLAS to split over threads; yet numpy's import starts
# OpenBLAS's worker pool, whose threads spin on the cores this process uses.
# So numpy is loaded here, first, with one OpenBLAS thread, unless it is
# loaded already or the user chose a thread count. The variable is removed
# again, so os.environ and child processes stay as the user set them.
_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
if "numpy" in sys.modules or any(v in os.environ for v in _THREAD_VARIABLES):
    import numpy
else:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy
    finally:
        os.environ.pop("OPENBLAS_NUM_THREADS", None)
del numpy

# submodule -> the public names it provides
_EXPORTS = {
    "catalog": (
        "BINARY",
        "TERNARY",
        "MotifCatalog",
        "MotifMode",
        "canonicalize",
        "classify",
        "count_state_motifs",
        "enumerate_catalog",
        "is_valid_pattern",
        "ternary_refinement_map",
    ),
    "counting": (
        "CountVector",
        "PairOverlapStats",
        "count_exact",
        "count_otf",
        "count_sample_hyperedge",
        "count_sample_hyperwedge",
        "enumerate_instances",
        "estimator_variance",
        "pair_overlap_stats",
        "recommend_samples",
    ),
    "hypergraph": (
        "EmptyInputError",
        "Hypergraph",
        "ParseError",
        "dump_hypergraph",
        "from_edge_sets",
        "load_hypergraph",
        "load_hypergraph_path",
    ),
    "linegraph": ("LineGraph", "build_line_graph"),
    "nullmodel": ("NullModelConfig", "null_counts", "randomize_chung_lu"),
    "profiles": (
        "CharacteristicProfile",
        "EgoNetwork",
        "SignificanceVector",
        "characteristic_profile",
        "conditional_entropy",
        "cp_similarity_matrix",
        "ego_network",
        "hyperedge_profile",
        "motif_importance",
        "node_profile",
        "relative_counts",
        "significance",
    ),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_ORIGIN])


def __getattr__(name: str):
    if name in _EXPORTS:
        # importing a submodule also binds it here, so this runs once per name
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_ORIGIN[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
