"""The brute-force oracles: spec examples, budgets, and independence."""

from __future__ import annotations

import inspect

import pytest

import ctrldep.oracle as oracle_module
from ctrldep import (
    BudgetError,
    Cfg,
    oracle_dod,
    oracle_min_closure,
    oracle_ntscd,
    random_cfg,
    worst_case_dod_cfg,
)
from ctrldep.oracle import oracle_exists_maximal_avoiding, oracle_first_before

from conftest import FIG3_NTSCD


def test_exists_maximal_avoiding_fig3(fig3):
    assert oracle_exists_maximal_avoiding(fig3, "2", "5") is False


def test_exists_maximal_avoiding_same_node(fig3):
    assert oracle_exists_maximal_avoiding(fig3, "5", "5") is False


def test_exists_maximal_avoiding_fig1(fig1):
    # b can get stuck in the self-loop on d and never reach e
    assert oracle_exists_maximal_avoiding(fig1, "b", "e") is True


def test_oracle_ntscd_fig3(fig3):
    assert oracle_ntscd(fig3) == FIG3_NTSCD


def test_oracle_ntscd_edgeless():
    assert oracle_ntscd(Cfg(["a", "b"], [])) == frozenset()


def test_oracle_ntscd_fig4(fig4):
    assert oracle_ntscd(fig4) == frozenset()


def test_oracle_first_before_fig4(fig4):
    assert oracle_first_before(fig4, "b", "b", "c") is True
    assert oracle_first_before(fig4, "c", "b", "c") is False  # start equals the 'before any' node


def test_oracle_first_before_fig5(fig5):
    assert oracle_first_before(fig5, "b", "a", "b") is False


def test_oracle_first_before_rejects_equal(fig4):
    with pytest.raises(ValueError):
        oracle_first_before(fig4, "a", "b", "b")


def test_oracle_dod_fig4(fig4):
    assert oracle_dod(fig4) == {("a", "b", "c")}


def test_oracle_dod_fig5(fig5):
    assert oracle_dod(fig5) == frozenset()


def test_oracle_dod_worst_case_8():
    assert len(oracle_dod(worst_case_dod_cfg(8))) == 16


def test_oracle_min_closure_whole_set(fig3):
    result = oracle_min_closure(fig3, set(fig3.labels))
    assert result.nodes == set(fig3.labels)
    assert not result.ambiguous


def test_oracle_min_closure_fig3(fig3):
    result = oracle_min_closure(fig3, {"1", "6"})
    assert result.nodes == {"1", "6"}
    assert not result.ambiguous


def test_oracle_min_closure_fig4_with_start(fig4_with_start):
    # {s,b,c} itself is not closed: a has two first-reachable elements
    result = oracle_min_closure(fig4_with_start, {"s", "b", "c"})
    assert result.nodes == {"s", "a", "b", "c"}


def test_budgets():
    big = random_cfg(65, 10, 0)
    with pytest.raises(BudgetError):
        oracle_ntscd(big)
    with pytest.raises(BudgetError):
        oracle_dod(big)
    with pytest.raises(BudgetError):
        oracle_exists_maximal_avoiding(big, "n00", "n01")
    with pytest.raises(BudgetError):
        oracle_first_before(big, "n00", "n01", "n02")
    with pytest.raises(BudgetError):
        oracle_min_closure(random_cfg(11, 10, 0), {"n00"})


def test_oracle_is_deterministic(fig3):
    assert oracle_ntscd(fig3) == oracle_ntscd(fig3)
    assert oracle_dod(fig3) == oracle_dod(fig3)


def test_oracle_module_does_not_reuse_the_propagation_engine():
    """The documented code-review gate: the oracles must be plain BFS/DFS
    over explicit subgraphs, never the counter-propagation kernel."""
    source = inspect.getsource(oracle_module)
    import_lines = [
        line for line in source.splitlines() if line.strip().startswith(("import ", "from "))
    ]
    assert import_lines, "oracle module should have imports to audit"
    assert not any("coloring" in line for line in import_lines)
