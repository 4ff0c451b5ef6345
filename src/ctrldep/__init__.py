"""Strong control dependencies on control flow graphs.

Computes non-termination sensitive control dependence (NTSCD), decisive
order dependence (DOD), and strong control closures, together with the
historical worklist/formula algorithms (including their known flaws),
brute-force semantic oracles, graph generators, and a benchmark harness.
The package root exports the user API; the staged and whole-relation
references that tests and the benchmark compare against stay importable
from their modules.
"""

from .cfg import Cfg, ParseError, parse_cfg, predicates, serialize_cfg
from .closures import ClosureSpec, ClosureSpecError, ClosureVerdict, is_strongly_control_closed, strong_closure
from .dod import DodRelation, dod_formula, dod_new
from .generate import random_cfg, random_reducible_cfg, worst_case_dod_cfg
from .ntscd import NtscdRelation, ntscd_new, ntscd_ranganath, ntscd_ranganath_fixed
from .oracle import BudgetError, MinClosureResult, oracle_dod, oracle_min_closure, oracle_ntscd

__all__ = [
    "Cfg",
    "ParseError",
    "parse_cfg",
    "serialize_cfg",
    "predicates",
    "random_cfg",
    "random_reducible_cfg",
    "worst_case_dod_cfg",
    "NtscdRelation",
    "ntscd_new",
    "ntscd_ranganath",
    "ntscd_ranganath_fixed",
    "DodRelation",
    "dod_new",
    "dod_formula",
    "ClosureSpec",
    "ClosureSpecError",
    "ClosureVerdict",
    "is_strongly_control_closed",
    "strong_closure",
    "BudgetError",
    "MinClosureResult",
    "oracle_ntscd",
    "oracle_dod",
    "oracle_min_closure",
]

__version__ = "0.1.0"
