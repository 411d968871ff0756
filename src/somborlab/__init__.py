"""somborlab: extremal graphs for degree-based indices, with an exhaustive oracle.

Construct the canonical extremal graph of a pendant degree sequence with
`extremal_graph` (the greedy tree, BFS-unicyclic or BFS-bicyclic graph, all
from one seeded breadth-first fill), evaluate the general Sombor index and
arbitrary connectivity functions, recognize BFS-graphs, and verify the
extremality/majorization claims by exhaustive enumeration at desk scale.

Importing the package loads none of its modules. Each exported name, and
each submodule reached as an attribute, is imported on first access
(PEP 562), so a caller loads only the layers it uses.
"""

from importlib import import_module

__version__ = "1.0.0"

#: home module -> the names the package exports from it
_EXPORTS = {
    "bfs": ("BfsWitness", "bfs_distances", "is_bfs_graph", "is_special_extremal_bfs",
            "witness_violation"),
    "construct": ("ConstructionResult", "extremal_graph"),
    "formats": ("format_edge_list", "parse_degree_sequence", "parse_edge_list",
                "parse_graph6", "reduced_graph", "to_dot"),
    "graphs": ("DegreeSequence", "Graph", "MajorizationVerdict", "degree_sequence_of",
               "format_degree_sequence", "format_graph6", "is_connected", "is_majorized",
               "validate_connected_c_cyclic"),
    "indices": ("BivariateFunction", "GridSpec", "check_escalating", "check_good_escalating"),
    "limits": ("Caps", "Deadline", "load_caps"),
    "oracle": ("ExtremaReport", "enumerate_gamma", "generate_c_cyclic_sequences",
               "oracle_extrema", "verify_special_bfs_existence", "verify_theorem2",
               "verify_theorem3"),
    "sombor": ("AlphaRegime", "Objective", "classify_alpha", "connectivity_function",
               "objective_for_alpha", "sombor_general"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(("_kernels", "errors", *_EXPORTS))

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | _HOME.keys())
