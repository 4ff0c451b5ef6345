"""Strong control dependencies on control flow graphs.

Computes non-termination sensitive control dependence (NTSCD), decisive
order dependence (DOD), and strong control closures, together with the
historical worklist/formula algorithms (including their known flaws),
brute-force semantic oracles, graph generators, and a benchmark harness.
"""

from .cfg import (
    Cfg,
    ParseError,
    parse_cfg,
    predicates,
    reachable_set,
    serialize_cfg,
)
from .closures import (
    ClosureSpec,
    ClosureSpecError,
    ClosureVerdict,
    dependence_closure,
    is_strongly_control_closed,
    strong_closure,
    theta,
)
from .coloring import VpMap, vp_sets
from .dod import (
    DodRelation,
    ProjectionGraph,
    ProjectionStructureError,
    StripSegments,
    SuccessorClasses,
    build_ap,
    compute_v1_v2,
    dod_and_ntscd,
    dod_formula,
    dod_new,
    extract_segments,
    match_unfolding_pattern,
    unfold_cycle,
)
from .generate import random_cfg, random_reducible_cfg, worst_case_dod_cfg
from .ntscd import (
    NtscdRelation,
    ntscd_from_vp,
    ntscd_new,
    ntscd_ranganath,
    ntscd_ranganath_fixed,
    ntscd_ranganath_fixed_with_table,
    ntscd_ranganath_with_table,
)
from .oracle import (
    BudgetError,
    MinClosureResult,
    oracle_dod,
    oracle_exists_maximal_avoiding,
    oracle_first_before,
    oracle_min_closure,
    oracle_ntscd,
)

__all__ = [
    "Cfg",
    "ParseError",
    "parse_cfg",
    "serialize_cfg",
    "predicates",
    "reachable_set",
    "random_cfg",
    "random_reducible_cfg",
    "worst_case_dod_cfg",
    "VpMap",
    "vp_sets",
    "NtscdRelation",
    "ntscd_new",
    "ntscd_from_vp",
    "ntscd_ranganath",
    "ntscd_ranganath_with_table",
    "ntscd_ranganath_fixed",
    "ntscd_ranganath_fixed_with_table",
    "DodRelation",
    "ProjectionGraph",
    "ProjectionStructureError",
    "SuccessorClasses",
    "StripSegments",
    "build_ap",
    "compute_v1_v2",
    "unfold_cycle",
    "match_unfolding_pattern",
    "extract_segments",
    "dod_new",
    "dod_and_ntscd",
    "dod_formula",
    "ClosureSpec",
    "ClosureSpecError",
    "ClosureVerdict",
    "theta",
    "is_strongly_control_closed",
    "dependence_closure",
    "strong_closure",
    "BudgetError",
    "MinClosureResult",
    "oracle_exists_maximal_avoiding",
    "oracle_ntscd",
    "oracle_first_before",
    "oracle_dod",
    "oracle_min_closure",
]

__version__ = "0.1.0"
