"""The four NTSCD computations and the worklist-order flaw reproduction."""

from __future__ import annotations

from random import Random

import pytest
from hypothesis import given, settings

from ctrldep import (
    Cfg,
    ntscd_from_vp,
    ntscd_new,
    ntscd_ranganath,
    ntscd_ranganath_fixed,
    ntscd_ranganath_fixed_with_table,
    ntscd_ranganath_with_table,
    oracle_exists_maximal_avoiding,
    oracle_ntscd,
    vp_sets,
)

from conftest import FIG1_NTSCD, FIG3_NTSCD, FIG3_NTSCD_FIFO, small_cfgs


def test_ntscd_new_fig3(fig3):
    assert ntscd_new(fig3) == FIG3_NTSCD


def test_ntscd_new_edgeless():
    assert ntscd_new(Cfg(["a", "b"], [])) == frozenset()


def test_ntscd_new_fig1(fig1):
    assert oracle_ntscd(fig1) == FIG1_NTSCD
    assert ntscd_new(fig1) == FIG1_NTSCD


def test_ntscd_from_vp_fig3(fig3):
    assert ntscd_from_vp(fig3, vp_sets(fig3)) == FIG3_NTSCD


def test_ntscd_from_vp_fig4(fig4):
    # both branch targets force the same nodes, so nothing is dependent
    assert ntscd_from_vp(fig4, vp_sets(fig4)) == frozenset()


def test_ranganath_fifo_reproduces_the_flaw(fig3):
    rel, table = ntscd_ranganath_with_table(fig3, "fifo")
    assert rel == FIG3_NTSCD_FIFO
    assert ("1", "6") in rel and ("1", "5") not in rel
    # final symbol table, oldest-first column
    assert table[("2", "1")] == {("1", "2")}
    assert table[("6", "1")] == {("1", "6")}
    assert table[("3", "2")] == {("2", "3")}
    assert table[("4", "2")] == {("2", "4")}
    assert table[("5", "2")] == {("2", "3"), ("2", "4")}
    assert table[("6", "2")] == {("2", "3"), ("2", "4")}
    assert ("5", "1") not in table


def test_ranganath_explicit_order_gets_it_right(fig3):
    rel, table = ntscd_ranganath_with_table(fig3, ["3", "4", "2", "5", "6"])
    assert rel == FIG3_NTSCD
    assert table[("5", "1")] == {("1", "2")}
    assert table[("6", "1")] == {("1", "2"), ("1", "6")}


def test_ranganath_edgeless():
    assert ntscd_ranganath(Cfg(["a"], []), "fifo") == frozenset()


def test_ranganath_rejects_bad_policy(fig3):
    with pytest.raises(ValueError):
        ntscd_ranganath(fig3, "random")


def test_ranganath_explicit_order_must_cover_pushed_nodes(fig3):
    with pytest.raises(ValueError, match="does not cover"):
        ntscd_ranganath(fig3, ["3"])


def test_ranganath_explicit_order_rejects_unknown_labels(fig3):
    with pytest.raises(ValueError, match="unknown node 'zz'"):
        ntscd_ranganath(fig3, ["3", "zz", "4"])


def test_ranganath_fixed_fig3(fig3):
    rel, table = ntscd_ranganath_fixed_with_table(fig3)
    assert rel == FIG3_NTSCD
    assert table[("5", "1")] == {("1", "2")}
    assert table[("6", "1")] == {("1", "2"), ("1", "6")}


def test_ranganath_fixed_fig4(fig4):
    assert ntscd_ranganath_fixed(fig4) == ntscd_new(fig4) == frozenset()


def test_ranganath_fixed_pass_order_is_irrelevant(fig3, fig1, fig7):
    for g in (fig3, fig1, fig7):
        assert ntscd_ranganath_fixed(g) == ntscd_ranganath_fixed(g, reverse_order=True)


def test_ntscd_new_is_node_order_independent(fig3):
    relabeled = Cfg(
        ["5", "3", "1", "6", "2", "4"],
        [("1", "2"), ("1", "6"), ("2", "3"), ("2", "4"), ("3", "5"), ("4", "5"), ("5", "6")],
    )
    assert ntscd_new(relabeled) == ntscd_new(fig3)


@settings(max_examples=100, deadline=None)
@given(small_cfgs(max_nodes=8))
def test_differential_small(g):
    reference = ntscd_new(g)
    assert reference == oracle_ntscd(g)
    assert ntscd_from_vp(g, vp_sets(g)) == reference
    assert ntscd_ranganath_fixed(g) == reference


@settings(max_examples=50, deadline=None)
@given(small_cfgs(max_nodes=7))
def test_ranganath_is_sound_under_any_policy(g):
    """Whatever the popping order, every recorded symbol is true: the node
    really lies on all maximal paths from the predicate through that branch."""
    rng = Random(0)
    policies = ["fifo", "lifo", rng.sample(list(g.labels), len(g.labels))]
    for policy in policies:
        _, table = ntscd_ranganath_with_table(g, policy)
        for (n, p), symbols in table.items():
            for _, branch_target in symbols:
                # paths p . branch_target . ... all contain n
                assert n == p or not oracle_exists_maximal_avoiding(g, branch_target, n)
