"""The public surface: what the package root exports, that the README
documents it and names only what exists, that modules import each other in
layers and keep each other's internals private, and that every entry point
taking node labels rejects an unknown one cleanly."""

from __future__ import annotations

import ast
import importlib
import re
from pathlib import Path

import pytest

import ctrldep
from ctrldep import (
    ClosureSpec,
    is_strongly_control_closed,
    ntscd_ranganath,
    oracle_min_closure,
    strong_closure,
)
from ctrldep.closures import dependence_closure, theta
from ctrldep.dod import build_ap, compute_v1_v2
from ctrldep.oracle import oracle_exists_maximal_avoiding, oracle_first_before

ROOT = Path(__file__).resolve().parents[1]

EXPORTS = [
    "BudgetError",
    "Cfg",
    "ClosureSpec",
    "ClosureSpecError",
    "ClosureVerdict",
    "DodRelation",
    "MinClosureResult",
    "NtscdRelation",
    "ParseError",
    "dod_formula",
    "dod_new",
    "is_strongly_control_closed",
    "ntscd_new",
    "ntscd_ranganath",
    "ntscd_ranganath_fixed",
    "oracle_dod",
    "oracle_min_closure",
    "oracle_ntscd",
    "parse_cfg",
    "predicates",
    "random_cfg",
    "random_reducible_cfg",
    "serialize_cfg",
    "strong_closure",
    "worst_case_dod_cfg",
]


def test_root_exports_the_user_api():
    assert sorted(ctrldep.__all__) == EXPORTS
    for name in EXPORTS:
        assert getattr(ctrldep, name) is not None, name


def test_readme_library_section_names_every_export():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    library = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"`([A-Za-z_][\w.]*)", library))
    assert [name for name in EXPORTS if name not in named] == []


def test_readme_names_only_what_resolves():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    dotted = sorted(set(re.findall(r"\bctrldep(?:\.[A-Za-z_]\w*)+", readme)))
    assert len(dotted) >= 17
    unresolved = []
    for name in dotted:
        _, module, *attrs = name.split(".")
        try:
            obj = importlib.import_module(f"ctrldep.{module}")
            for attr in attrs:
                obj = getattr(obj, attr)
        except (ImportError, AttributeError):
            unresolved.append(name)
    assert unresolved == []


# Each module's ``from .x import`` sources: cfg < coloring < {ntscd, dod} <
# closures < cli, with oracle and generate on cfg alone.
LAYERS = {
    "__init__": {"cfg", "closures", "dod", "generate", "ntscd", "oracle"},
    "cfg": set(),
    "cli": {"cfg", "closures", "coloring", "dod", "generate", "ntscd", "oracle"},
    "closures": {"cfg", "coloring", "dod", "ntscd"},
    "coloring": {"cfg"},
    "dod": {"cfg", "coloring"},
    "generate": {"cfg"},
    "ntscd": {"cfg", "coloring"},
    "oracle": {"cfg"},
}


def test_modules_import_each_other_in_layers():
    found = {}
    for path in sorted((ROOT / "src" / "ctrldep").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found[path.stem] = {
            node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level == 1
        }
    assert found == LAYERS


def _foreign_private_reads(tree: ast.AST) -> list[tuple[int, str]]:
    """Accesses ``x._name`` where x is not ``self`` or ``cls``; dunder names
    are protocol, not private."""
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute) or not node.attr.startswith("_"):
            continue
        if node.attr.startswith("__") and node.attr.endswith("__"):
            continue
        if isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"):
            continue
        out.append((node.lineno, node.attr))
    return out


def test_no_module_reads_another_objects_private_attributes():
    found = {}
    for path in sorted((ROOT / "src" / "ctrldep").glob("*.py")):
        reads = _foreign_private_reads(ast.parse(path.read_text(encoding="utf-8")))
        if reads:
            found[path.name] = reads
    assert found == {}


def test_private_read_scan_sees_a_foreign_read():
    tree = ast.parse("def f(eng):\n    self._ok = eng.__class__\n    return eng._stamp\n")
    assert _foreign_private_reads(tree) == [(3, "_stamp")]


# A process or thread pool, or a knob read from the environment: ``check``
# and every other command run serially and are configured by flags alone.
CONCURRENCY_MODULES = {"concurrent", "multiprocessing", "threading"}
ENVIRONMENT_READS = {"os.environ", "os.environb", "os.getenv", "os.getenvb"}


def _pools_and_env_reads(tree: ast.AST) -> list[tuple[int, str]]:
    """Imports of a concurrency module, and reads of the environment through
    ``os`` (``os.environ``, ``os.getenv``, or those names imported from it)."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.lineno, node.module))
            if node.module == "os":
                found += [(node.lineno, f"os.{alias.name}") for alias in node.names]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "os":
            found.append((node.lineno, f"os.{node.attr}"))
    return sorted(
        (line, name) for line, name in found if name.split(".")[0] in CONCURRENCY_MODULES or name in ENVIRONMENT_READS
    )


def test_no_module_starts_a_pool_or_reads_the_environment():
    found = {}
    for path in sorted((ROOT / "src" / "ctrldep").glob("*.py")):
        hits = _pools_and_env_reads(ast.parse(path.read_text(encoding="utf-8")))
        if hits:
            found[path.name] = hits
    assert found == {}


def test_pool_and_environment_scan_sees_each_form():
    source = (
        "import os, threading\n"
        "from concurrent.futures import ProcessPoolExecutor\n"
        "import multiprocessing.pool as mp\n"
        "from os import getenv, path\n"
        "x = os.environ.get('A') or os.getenv('B') or os.path.join('c')\n"
    )
    assert _pools_and_env_reads(ast.parse(source)) == [
        (1, "threading"),
        (2, "concurrent.futures"),
        (3, "multiprocessing.pool"),
        (4, "os.getenv"),
        (5, "os.environ"),
        (5, "os.getenv"),
    ]


# The collector's switches are process-global, so a library that turned it
# off while building a graph would do so for every thread sharing the
# process; ``Cfg`` keeps its allocations down instead.
def _gc_uses(tree: ast.AST) -> list[tuple[int, str]]:
    """Imports of ``gc`` or of names from it, ``gc.<name>`` reads, and calls
    such as ``__import__("gc")`` that name it in a string."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names if alias.name == "gc"]
        elif isinstance(node, ast.ImportFrom) and node.module == "gc":
            found += [(node.lineno, f"gc.{alias.name}") for alias in node.names]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "gc":
            found.append((node.lineno, f"gc.{node.attr}"))
        elif isinstance(node, ast.Call) and any(isinstance(a, ast.Constant) and a.value == "gc" for a in node.args):
            found.append((node.lineno, "gc"))
    return sorted(found)


def test_no_module_imports_or_calls_gc():
    found = {}
    for path in sorted((ROOT / "src" / "ctrldep").glob("*.py")):
        hits = _gc_uses(ast.parse(path.read_text(encoding="utf-8")))
        if hits:
            found[path.name] = hits
    assert found == {}


def test_gc_scan_sees_each_form():
    source = (
        "import os, gc as collector\n"
        "from gc import disable, freeze\n"
        "gc.collect() or gc.isenabled\n"
        "m = __import__('gc') or importlib.import_module('gc')\n"
        "import gcx, logging\n"
        "x = 'gc'\n"
    )
    assert _gc_uses(ast.parse(source)) == [
        (1, "gc"),
        (2, "gc.disable"),
        (2, "gc.freeze"),
        (3, "gc.collect"),
        (3, "gc.isenabled"),
        (4, "gc"),
        (4, "gc"),
    ]


LABEL_ENTRY_POINTS = {
    "strong_closure-start": lambda g: strong_closure(g, ClosureSpec(w=frozenset({"a"}), start="zz")),
    "strong_closure-criterion": lambda g: strong_closure(g, ClosureSpec(w=frozenset({"a", "zz"}), start="a")),
    "is_strongly_control_closed": lambda g: is_strongly_control_closed(g, {"zz"}),
    "theta-node": lambda g: theta(g, "zz", {"b"}),
    "theta-set": lambda g: theta(g, "a", {"zz"}),
    "dependence_closure": lambda g: dependence_closure(g, {"zz"}, frozenset(), frozenset()),
    "ntscd_ranganath-order": lambda g: ntscd_ranganath(g, ["a", "zz"]),
    "build_ap": lambda g: build_ap(g, "a", {"a", "zz"}),
    "compute_v1_v2": lambda g: compute_v1_v2(g, "zz", {"b"}),
    "oracle_min_closure": lambda g: oracle_min_closure(g, {"zz"}),
    "oracle_first_before": lambda g: oracle_first_before(g, "a", "b", "zz"),
    "oracle_exists_maximal_avoiding": lambda g: oracle_exists_maximal_avoiding(g, "zz", "b"),
}


@pytest.mark.parametrize("entry", sorted(LABEL_ENTRY_POINTS))
def test_label_entry_point_rejects_an_unknown_node(entry, fig4):
    with pytest.raises(ValueError, match="unknown node 'zz'"):
        LABEL_ENTRY_POINTS[entry](fig4)
