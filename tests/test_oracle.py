"""The brute-force oracles: spec examples, budgets, and independence."""

from __future__ import annotations

import inspect
import time
from itertools import combinations

import pytest
from hypothesis import given, settings

import ctrldep.oracle as oracle_module
from ctrldep import (
    BudgetError,
    Cfg,
    oracle_dod,
    oracle_min_closure,
    oracle_ntscd,
    predicates,
    random_cfg,
    worst_case_dod_cfg,
)
from ctrldep.oracle import oracle_exists_maximal_avoiding, oracle_first_before, oracle_relations

from conftest import FIG3_NTSCD, fed_cycle_cfg, small_cfgs


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
        oracle_relations(big)
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


def per_query_relations(g: Cfg) -> dict[str, frozenset]:
    """NTSCD and DOD from their definitions, one per-query oracle call per
    condition, so no search code is shared with ``oracle_relations``."""
    labels = sorted(g.labels)
    succs = {p: [g.labels[t] for t in g.succs[g.index[p]]] for p in predicates(g)}

    def on_all(s: str, n: str) -> bool:
        return not oracle_exists_maximal_avoiding(g, s, n)

    ntscd = {(p, n) for p, (s1, s2) in succs.items() for n in labels if on_all(s1, n) != on_all(s2, n)}
    fb = oracle_first_before
    dod = set()
    for p, (s1, s2) in succs.items():
        for a, b in combinations(labels, 2):
            if p in (a, b) or not (on_all(p, a) and on_all(p, b)):
                continue
            if (fb(g, s1, a, b) and fb(g, s2, b, a)) or (fb(g, s1, b, a) and fb(g, s2, a, b)):
                dod.add((p, a, b))
    return {"ntscd": frozenset(ntscd), "dod": frozenset(dod)}


def assert_tables_match_the_per_query_oracle(g: Cfg) -> None:
    relations = oracle_relations(g)
    assert relations == per_query_relations(g)
    assert oracle_ntscd(g) == relations["ntscd"]
    assert oracle_dod(g) == relations["dod"]


@pytest.mark.parametrize("figure", ["fig1", "fig3", "fig4", "fig5", "fig7"])
def test_tables_match_the_per_query_oracle_on_the_figures(figure, request):
    assert_tables_match_the_per_query_oracle(request.getfixturevalue(figure))


@pytest.mark.parametrize(
    "g",
    [worst_case_dod_cfg(8), worst_case_dod_cfg(12)] + [fed_cycle_cfg(seed, cycle=(3, 8), feeders=(1, 3)) for seed in range(6)],
)
def test_tables_match_the_per_query_oracle_on_dod_shapes(g):
    assert oracle_relations(g)["dod"]
    assert_tables_match_the_per_query_oracle(g)


@settings(max_examples=150, deadline=None)
@given(small_cfgs(max_nodes=10))
def test_tables_match_the_per_query_oracle_on_random_graphs(g):
    assert_tables_match_the_per_query_oracle(g)


def test_oracle_relations_throughput_on_fed_cycles():
    # 120 fed cycles of up to 53 nodes.  Answering each query with its own
    # reach search and cycle search took about 15 s for both oracles on a
    # 2-vCPU x86_64 machine; one set of tables per graph takes about 0.3 s.
    graphs = [fed_cycle_cfg(seed) for seed in range(120)]
    start = time.perf_counter()
    for g in graphs:
        oracle_relations(g)
    assert time.perf_counter() - start < 3.0
