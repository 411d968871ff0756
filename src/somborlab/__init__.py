"""somborlab: extremal graphs for degree-based indices, with an exhaustive oracle.

Construct the canonical extremal graph of a pendant degree sequence with
`extremal_graph` (the greedy tree, BFS-unicyclic or BFS-bicyclic graph, all
from one seeded breadth-first fill), evaluate the general Sombor index and
arbitrary connectivity functions, recognize BFS-graphs, and verify the
extremality/majorization claims by exhaustive enumeration at desk scale.
"""

from .bfs import (
    BfsWitness,
    bfs_distances,
    is_bfs_graph,
    is_special_extremal_bfs,
    witness_violation,
)
from .construct import ConstructionResult, extremal_graph
from .graphs import (
    CanonicalCode,
    DegreeSequence,
    Graph,
    canonical_code,
    canonical_form,
    degree_sequence_of,
    format_degree_sequence,
    format_edge_list,
    format_graph6,
    is_connected,
    parse_degree_sequence,
    parse_edge_list,
    parse_graph6,
    reduced_graph,
    to_dot,
    validate_connected_c_cyclic,
)
from .indices import (
    AlphaRegime,
    BivariateFunction,
    GridSpec,
    check_escalating,
    check_good_escalating,
    classify_alpha,
    connectivity_function,
    sombor_general,
)
from .oracle import (
    Caps,
    Deadline,
    ExtremaReport,
    MajorizationVerdict,
    Objective,
    enumerate_gamma,
    generate_c_cyclic_sequences,
    is_majorized,
    load_caps,
    objective_for_alpha,
    oracle_extrema,
    verify_enumeration_cross_check,
    verify_special_bfs_existence,
    verify_theorem2,
    verify_theorem3,
)

__version__ = "1.0.0"

__all__ = [
    "AlphaRegime",
    "BfsWitness",
    "BivariateFunction",
    "CanonicalCode",
    "Caps",
    "ConstructionResult",
    "Deadline",
    "DegreeSequence",
    "ExtremaReport",
    "Graph",
    "GridSpec",
    "MajorizationVerdict",
    "Objective",
    "bfs_distances",
    "canonical_code",
    "canonical_form",
    "check_escalating",
    "check_good_escalating",
    "classify_alpha",
    "connectivity_function",
    "degree_sequence_of",
    "enumerate_gamma",
    "extremal_graph",
    "format_degree_sequence",
    "format_edge_list",
    "format_graph6",
    "generate_c_cyclic_sequences",
    "is_bfs_graph",
    "is_connected",
    "is_majorized",
    "is_special_extremal_bfs",
    "load_caps",
    "objective_for_alpha",
    "oracle_extrema",
    "parse_degree_sequence",
    "parse_edge_list",
    "parse_graph6",
    "reduced_graph",
    "sombor_general",
    "to_dot",
    "validate_connected_c_cyclic",
    "verify_enumeration_cross_check",
    "verify_special_bfs_existence",
    "verify_theorem2",
    "verify_theorem3",
    "witness_violation",
]
