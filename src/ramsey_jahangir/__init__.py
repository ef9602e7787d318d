"""Dichotomy witnesses, extremal certificates, and exhaustive small-order
Ramsey oracles for paths versus generalized Jahangir graphs.

The names in ``__all__`` are the public API, listed in the README under
"Public API"; everything else is internal to its module.  Each name is
imported from its module on first use, so importing the package loads none
of its modules, and a command that needs a few of them loads only those.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each module and the public names it defines.
_MODULES = {
    "graphs": (
        "Graph", "Graph6Error", "empty", "complete", "from_edges", "complement",
        "disjoint_union", "relabel", "component_masks", "to_graph6", "from_graph6",
    ),
    "families": (
        "Path", "Cycle", "Wheel", "Jahangir", "DisjointPaths", "CliqueUnion",
        "Complete", "PatternSpec", "build", "parse_spec", "TheoremCase", "Thm1",
        "Thm2EvenM", "Thm2OddM", "Thm3", "PreconditionError", "MaximalityViolation",
        "BudgetExhausted", "extremal_graph", "require_thresholds",
    ),
    "embedding": (
        "Budget", "DEFAULT_BUDGET", "Embedding", "check_embedding",
        "SubgraphSearch", "find_subgraph", "fits_complete_multipartite", "longest_path",
    ),
    "witness": (
        "extract", "DichotomyWitness", "ExtractionTrace", "verify_witness",
        "trace_document", "trace_json", "PathSystem", "build_path_system",
        "ExtremalReport", "verify_extremal",
    ),
    "oracle": (
        "canonical_graph", "CANONICAL_CAP", "CanonicalCapError", "enumerate_graphs",
        "ENUMERATION_CAP", "EnumerationCapError", "count_classes_cycle_index", "arrows",
        "ArrowsReport", "ramsey", "RamseyCertificate", "RamseyIndeterminate",
        "certificate_to_json", "certificate_from_json", "CertificateError",
    ),
    "suites": ("SUITES", "SuiteSpec", "generate_case", "run_suite", "splitmix64"),
}
_EXPORTS = {name: module for module, names in _MODULES.items() for name in names}

__all__ = list(_EXPORTS)


def __getattr__(name: str) -> object:
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
