"""Dichotomy witnesses, extremal certificates, and exhaustive small-order
Ramsey oracles for paths versus generalized Jahangir graphs.

The names imported here are the public API, listed in the README under
"Public API"; everything else is internal to its module.
"""

from .embedding import (
    Budget,
    BudgetExhausted,
    DEFAULT_BUDGET,
    Embedding,
    SubgraphSearch,
    check_embedding,
    find_subgraph,
    fits_complete_multipartite,
    longest_path,
)
from .families import (
    CliqueUnion,
    Complete,
    Cycle,
    DisjointPaths,
    Jahangir,
    Path,
    PatternSpec,
    PreconditionError,
    TheoremCase,
    Thm1,
    Thm2EvenM,
    Thm2OddM,
    Thm3,
    Wheel,
    build,
    extremal_graph,
    parse_spec,
    require_thresholds,
)
from .graphs import (
    Graph,
    Graph6Error,
    complement,
    complete,
    component_masks,
    disjoint_union,
    empty,
    from_edges,
    from_graph6,
    relabel,
    to_graph6,
)
from .oracle import (
    ArrowsReport,
    CANONICAL_CAP,
    CanonicalCapError,
    CertificateError,
    ENUMERATION_CAP,
    EnumerationCapError,
    RamseyCertificate,
    RamseyIndeterminate,
    arrows,
    canonical_graph,
    certificate_from_json,
    certificate_to_json,
    count_classes_cycle_index,
    enumerate_graphs,
    ramsey,
)
from .suites import (
    SUITES,
    SuiteSpec,
    generate_case,
    run_suite,
    splitmix64,
)
from .witness import (
    DichotomyWitness,
    ExtractionTrace,
    ExtremalReport,
    MaximalityViolation,
    PathSystem,
    build_path_system,
    extract,
    trace_document,
    trace_json,
    verify_extremal,
    verify_witness,
)

__version__ = "0.1.0"
