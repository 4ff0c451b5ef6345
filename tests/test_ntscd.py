"""The four NTSCD computations and the worklist-order flaw reproduction."""

from __future__ import annotations

import time
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctrldep import (
    Cfg,
    ClosureSpec,
    ntscd_new,
    ntscd_ranganath,
    ntscd_ranganath_fixed,
    oracle_ntscd,
    random_cfg,
    strong_closure,
)
from ctrldep.cfg import predicate_indices, reach
from ctrldep.closures import dependence_closure, dod_and_ntscd
from ctrldep.coloring import Coloring, vp_sets
from ctrldep.ntscd import (
    ntscd_from_vp,
    ntscd_from_vp_rows,
    ntscd_labels,
    ntscd_new_rows,
    ntscd_ranganath_fixed_with_table,
    ntscd_ranganath_with_table,
)
from ctrldep.oracle import ORACLE_MAX_NODES, oracle_exists_maximal_avoiding

from conftest import (
    FIG1_NTSCD,
    FIG3_NTSCD,
    FIG3_NTSCD_FIFO,
    continuation_corpus,
    diamond_ladder,
    predicate_free_region_corpus,
    small_cfgs,
)


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


def test_ranganath_lifo_gets_fig3_right(fig3):
    rel = ntscd_ranganath(fig3, "lifo")
    assert rel == FIG3_NTSCD
    assert ("1", "5") in rel


def test_ranganath_lifo_adds_a_wrong_pair():
    # lifo pops n0 first, before n2 hands n1 the second branch symbol of n0,
    # and never pops n0 again; so n0 never passes the symbol of n1 -> n0 on
    # to n1's own cell, and n1 wrongly controls itself.
    g = random_cfg(3, 5, 12)
    assert g.edges() == [("n0", "n1"), ("n0", "n2"), ("n1", "n0"), ("n1", "n1"), ("n2", "n1")]
    fifo = ntscd_ranganath(g, "fifo")
    assert fifo == ntscd_new(g) == {("n0", "n2"), ("n1", "n0")}
    assert ntscd_ranganath(g, "lifo") == fifo | {("n1", "n1")}


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


def test_predicate_free_regions_leave_every_relation_unchanged():
    # A propagation walks in-edges only of nodes some predicate reaches;
    # that must not lose or add a controller, on graphs whose predicates
    # sit behind, beside and ahead of predicate-free regions.
    graphs = predicate_free_region_corpus()
    assert len(graphs) >= 180
    assert sum(not predicate_indices(g) for g in graphs) >= 60
    oracle_checked = closure_checked = with_dod = 0
    for g in graphs:
        rows = ntscd_new_rows(g)
        assert len(rows) == len(set(rows))
        assert set(rows) == set(ntscd_from_vp_rows(g, vp_sets(g)))
        if len(g) <= ORACLE_MAX_NODES:
            assert ntscd_labels(g, rows) == oracle_ntscd(g)
            oracle_checked += 1
        if len(reach(g.succs, (0,))) == len(g):
            dod, ntscd = dod_and_ntscd(g)
            prefix = [lab for lab in g.labels if lab.startswith("h")] or [g.labels[0]]
            criteria = [{prefix[0]}, {prefix[0], prefix[-1]}, {prefix[0], prefix[len(prefix) // 2]}]
            for w in criteria + [{prefix[0], g.labels[-1]}]:
                spec = ClosureSpec(w=frozenset(w), start=prefix[0])
                assert strong_closure(g, spec) == dependence_closure(g, w, ntscd, dod)
            closure_checked += 1
            with_dod += bool(dod)
    assert oracle_checked >= 180 and closure_checked >= 150 and with_dod >= 15


def test_ntscd_new_is_linear_on_a_chain():
    # Criterion 11's 10,000-node chain, alone and feeding a 10-rung
    # ladder: no propagation may walk above the first predicate.
    labels = [f"c{i:05d}" for i in range(10_000)]
    edges = list(zip(labels, labels[1:]))
    ladder = diamond_ladder(10, closed=False)
    fed = Cfg(labels + list(ladder.labels), edges + [(labels[-1], "p0")] + ladder.edges())
    for g, expected in ((Cfg(labels, edges), frozenset()), (fed, ntscd_new(ladder))):
        started = time.perf_counter()
        rows = ntscd_new_rows(g)
        seconds = time.perf_counter() - started
        assert seconds < 0.5, f"ntscd-new on the {len(g)}-node graph took {seconds:.2f}s"
        assert ntscd_labels(g, rows) == expected


def test_ntscd_new_is_linear_on_a_loop_body():
    # One while loop whose body is a 10,000-node path.  Its head h controls
    # every node but the entry s: the loop may never be left.  Each body
    # node past the first is entered only from the one before, which has no
    # other out-edge, so it copies that node's row instead of walking the
    # loop again.
    body = [f"b{i:05d}" for i in range(10_000)]
    labels = ["s", "h", *body, "e"]
    g = Cfg(labels, [("s", "h"), ("h", body[0]), *zip(body, body[1:]), (body[-1], "h"), ("h", "e")])
    started = time.perf_counter()
    rows = ntscd_new_rows(g)
    seconds = time.perf_counter() - started
    assert seconds < 0.5, f"ntscd-new on the {len(g)}-node loop took {seconds:.2f}s"
    assert ntscd_labels(g, rows) == {("h", x) for x in labels if x != "s"}


def continuations(g: Cfg) -> list[tuple[int, int]]:
    """Every (u, t) where u -> t is both u's only out-edge and t's only
    in-edge, and u != t."""
    return [(u, ss[0]) for u, ss in enumerate(g.succs) if len(ss) == 1 and ss[0] != u and g.preds[ss[0]] == (u,)]


def assert_continuations_share_controllers(g: Cfg, seed: int) -> int:
    """A continuation has its predecessor's controllers, alone and in the
    pass over every node; that pass equals one single-target pass per node
    (which has no earlier target to copy from) and, within budget, the
    oracle, lists its targets in ascending order, and keeps its relation
    under a seeded redeclaration and relabelling.  Returns the number of
    continuations."""
    pairs = continuations(g)
    for u, t in pairs:
        assert {p for p, _ in Coloring(g).controllers([t])} == {p for p, _ in Coloring(g).controllers([u])}
    rows = ntscd_new_rows(g)
    targets = [n for _, n in rows]
    assert targets == sorted(targets)
    assert len(rows) == len(set(rows))
    eng = Coloring(g)
    assert set(rows) == {(p, t) for t in range(len(g)) for p, _ in eng.controllers([t])}
    relation = ntscd_labels(g, rows)
    if len(g) <= ORACLE_MAX_NODES:
        assert relation == oracle_ntscd(g)
    rng = Random(seed)
    order = rng.sample(g.labels, len(g))
    rename = dict(zip(g.labels, (f"v{k}" for k in rng.sample(range(10 * len(g)), len(g)))))
    edges = [(rename[a], rename[g.labels[t]]) for a in order for t in g.succs[g.index[a]]]
    shuffled = Cfg([rename[a] for a in order], edges)
    assert ntscd_new(shuffled) == {(rename[p], rename[n]) for p, n in relation}
    return len(pairs)


def test_continuations_share_controllers_on_structured_graphs():
    # Chain prefixes and sink tails, cycle segments between feeders, and
    # ladder arms longer than one node all hold continuations; so do the
    # whole of a ring and of the prefix ahead of a self-loop.
    counts = [assert_continuations_share_controllers(g, seed) for seed, g in enumerate(continuation_corpus())]
    assert sum(counts) >= 3000 and sum(map(bool, counts)) >= 280


@settings(max_examples=150, deadline=None)
@given(small_cfgs(max_nodes=9), st.integers(0, 2**16))
def test_continuations_share_controllers(g, seed):
    assert_continuations_share_controllers(g, seed)
