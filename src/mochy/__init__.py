"""Hypergraph motif analysis: catalogs, counting, null models, profiles."""

__version__ = "0.1.0"

from .catalog import (
    BINARY,
    TERNARY,
    MotifCatalog,
    MotifMode,
    canonicalize,
    classify,
    count_state_motifs,
    enumerate_catalog,
    is_valid_pattern,
    region_cardinalities,
    ternary_refinement_map,
)
from .counting import (
    CountVector,
    PairOverlapStats,
    count_exact,
    count_otf,
    count_sample_hyperedge,
    count_sample_hyperwedge,
    enumerate_instances,
    estimator_variance,
    pair_overlap_stats,
    recommend_samples,
)
from .hypergraph import (
    EmptyInputError,
    Hypergraph,
    IncidenceGraph,
    ParseError,
    dump_hypergraph,
    from_edge_sets,
    incidence_graph,
    load_hypergraph,
    load_hypergraph_path,
)
from .linegraph import (
    LineGraph,
    MemoizedNeighborStore,
    build_line_graph,
    hyperedge_degrees,
    hyperedge_neighbors,
)
from .nullmodel import NullModelConfig, null_counts, randomize_chung_lu
from .profiles import (
    CharacteristicProfile,
    EgoNetwork,
    SignificanceVector,
    characteristic_profile,
    conditional_entropy,
    cp_similarity_matrix,
    ego_network,
    hyperedge_profile,
    motif_importance,
    node_profile,
    relative_counts,
    significance,
    write_importance_csv,
    write_similarity_csv,
)

__all__ = [name for name in dir() if not name.startswith("_")]
