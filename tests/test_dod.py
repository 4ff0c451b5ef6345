"""Decisive order dependence: projection machinery, both algorithms, flaws."""

from __future__ import annotations

import hashlib
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctrldep import (
    Cfg,
    cli,
    dod_formula,
    dod_new,
    ntscd_new,
    oracle_dod,
    predicates,
    random_cfg,
    random_reducible_cfg,
    worst_case_dod_cfg,
)
from ctrldep.closures import dod_and_ntscd
from ctrldep.coloring import vp_sets
from ctrldep.dod import (
    ProjectionGraph,
    ProjectionStructureError,
    SuccessorClasses,
    build_ap,
    compute_v1_v2,
    dod_labels,
    extract_segments,
    match_unfolding_pattern,
    unfold_cycle,
)

from conftest import fed_cycle_corpus, small_cfgs


def test_build_ap_fig4(fig4):
    ap = build_ap(fig4, "a", vp_sets(fig4)["a"])
    assert ap.edges == {("a", "b"), ("a", "c"), ("b", "c"), ("c", "b")}


def test_build_ap_singleton():
    g = Cfg(["p", "x"], [("p", "x")])
    ap = build_ap(g, "p", {"p"})
    assert ap.nodes == ("p",)
    assert ap.edges == frozenset()


def test_build_ap_fig3_p1(fig3):
    ap = build_ap(fig3, "1", vp_sets(fig3)["1"])
    assert ap.nodes == ("1", "6")
    assert ap.edges == {("1", "6")}


def test_compute_v1_v2_fig4(fig4):
    classes = compute_v1_v2(fig4, "a", vp_sets(fig4)["a"])
    assert classes.v1 == {"b"}
    assert classes.v2 == {"c"}
    assert classes.u == frozenset()


def test_compute_v1_v2_fig7(fig7):
    classes = compute_v1_v2(fig7, "p", vp_sets(fig7)["p"])
    assert classes.v1 == {"n1", "n7"}
    assert classes.v2 == {"n2", "n5"}


def test_compute_v1_v2_same_first_hit():
    g = Cfg(["p", "x", "y", "m"], [("p", "x"), ("p", "y"), ("x", "m"), ("y", "m")])
    classes = compute_v1_v2(g, "p", vp_sets(g)["p"])
    assert classes.v1 == classes.v2 == {"m"}


def test_unfold_cycle_fig7(fig7):
    vp = vp_sets(fig7)["p"]
    ap = build_ap(fig7, "p", vp)
    classes = compute_v1_v2(fig7, "p", vp)
    assert unfold_cycle(ap, classes.v1) == ("n1", "n2", "n3", "n4", "n5", "n6", "n7", "n8")


def test_unfold_cycle_fig4(fig4):
    ap = build_ap(fig4, "a", vp_sets(fig4)["a"])
    assert unfold_cycle(ap, {"b"}) == ("b", "c")


def test_unfold_cycle_rotation():
    ap = ProjectionGraph(p="p", nodes=("p", "x", "y"), succ={"p": ("x", "y"), "x": ("y",), "y": ("x",)})
    assert unfold_cycle(ap, {"y"}) == ("y", "x")


def test_unfold_cycle_detects_broken_structure():
    ap = ProjectionGraph(p="p", nodes=("p", "x", "y"), succ={"p": ("x", "y"), "x": ("y",), "y": ()})
    with pytest.raises(ProjectionStructureError):
        unfold_cycle(ap, {"x"})


def classes_of(word: str) -> tuple[tuple[str, ...], SuccessorClasses]:
    """Synthetic sequence from a class word: '1', '2', or 'u' per node."""
    seq = tuple(f"x{i}" for i in range(len(word)))
    v1 = frozenset(s for s, c in zip(seq, word) if c == "1")
    v2 = frozenset(s for s, c in zip(seq, word) if c == "2")
    u = frozenset(s for s, c in zip(seq, word) if c == "u")
    return seq, SuccessorClasses(v1=v1, v2=v2, u=u)


def test_pattern_fig7(fig7):
    vp = vp_sets(fig7)["p"]
    ap = build_ap(fig7, "p", vp)
    classes = compute_v1_v2(fig7, "p", vp)
    assert match_unfolding_pattern(unfold_cycle(ap, classes.v1), classes) is True


def test_pattern_two_alternations_fail():
    seq, classes = classes_of("1212")
    assert match_unfolding_pattern(seq, classes) is False


def test_pattern_requires_a_v2():
    seq, classes = classes_of("1uu")
    assert match_unfolding_pattern(seq, classes) is False


@given(st.text(alphabet="12u", min_size=1, max_size=10).filter(lambda w: w[0] == "1"))
@settings(max_examples=300, deadline=None)
def test_pattern_agrees_with_regex_oracle(word):
    seq, classes = classes_of(word)
    regex = re.compile(r"(1u*)*1u*(2u*)*2u*(1u*)*\Z")
    assert match_unfolding_pattern(seq, classes) == bool(regex.match(word))


def test_extract_segments_fig7(fig7):
    vp = vp_sets(fig7)["p"]
    ap = build_ap(fig7, "p", vp)
    classes = compute_v1_v2(fig7, "p", vp)
    segments = extract_segments(unfold_cycle(ap, classes.v1), classes)
    assert segments.m_segment == ("n1",)
    assert segments.o_segment == ("n5", "n6")


def test_extract_segments_fig4(fig4):
    seq, classes = ("b", "c"), SuccessorClasses(frozenset("b"), frozenset("c"), frozenset())
    segments = extract_segments(seq, classes)
    assert segments.m_segment == ("b",)
    assert segments.o_segment == ("c",)


def test_extract_segments_worst_case():
    g = worst_case_dod_cfg(8)
    p = "p0"
    vp = vp_sets(g)[p]
    ap = build_ap(g, p, vp)
    classes = compute_v1_v2(g, p, vp)
    segments = extract_segments(unfold_cycle(ap, classes.v1), classes)
    assert segments.m_segment == ("c0", "c1")
    assert segments.o_segment == ("c2", "c3")


def test_dod_new_fig4(fig4):
    assert dod_new(fig4) == {("a", "b", "c")}


def test_dod_new_fig5(fig5):
    assert dod_new(fig5) == frozenset()


def test_dod_new_reducible_is_empty():
    for seed in range(20):
        assert dod_new(random_reducible_cfg(seed % 6, seed)) == frozenset()


def test_dod_formula_fig5(fig5):
    assert dod_formula(fig5, "original") == {("p", "a", "b")}
    assert dod_formula(fig5, "fixed") == frozenset()


def test_dod_formula_fig4(fig4):
    assert dod_formula(fig4, "original") == {("a", "b", "c")}
    assert dod_formula(fig4, "fixed") == {("a", "b", "c")}


def test_dod_formula_rejects_unknown_variant(fig4):
    with pytest.raises(ValueError):
        dod_formula(fig4, "both")


def test_dod_and_ntscd_consistent(fig7):
    dod, ntscd = dod_and_ntscd(fig7)
    assert dod == dod_new(fig7)
    assert ntscd == ntscd_new(fig7)


def test_unfold_start_choice_is_irrelevant(fig7):
    vp = vp_sets(fig7)["p"]
    ap = build_ap(fig7, "p", vp)
    classes = compute_v1_v2(fig7, "p", vp)
    assert len(classes.v1) == 2
    results = set()
    for start in classes.v1:
        segments = extract_segments(unfold_cycle(ap, {start}), classes)
        results.add(frozenset(("p", *sorted((a, b))) for a in segments.m_segment for b in segments.o_segment))
    assert results == {frozenset(t for t in dod_new(fig7) if t[0] == "p")}


def test_worst_case_counts():
    for n in (8, 16, 32):
        assert len(dod_new(worst_case_dod_cfg(n))) == n**3 // 32
    assert dod_new(worst_case_dod_cfg(8)) == oracle_dod(worst_case_dod_cfg(8))


@settings(max_examples=100, deadline=None)
@given(small_cfgs(max_nodes=8))
def test_differential_small(g):
    reference = dod_new(g)
    assert reference == oracle_dod(g)
    assert dod_formula(g, "fixed") == reference
    assert dod_formula(g, "original") >= reference


@settings(max_examples=60, deadline=None)
@given(small_cfgs(max_nodes=8))
def test_dod_triples_are_distinct_and_normalized(g):
    for p, a, b in dod_new(g):
        assert a < b
        assert p not in (a, b)


DOD_IDS = sorted(a for a, row in cli.ALGORITHMS.items() if row.kind == "dod")


def block_relation(g: Cfg, blocks) -> frozenset:
    """Check the block contract, sides non-empty and disjoint, without p,
    and each pair in at most one block of p, and return the label relation
    the blocks expand to, which ``dod_labels`` must give."""
    pairs = []
    for p, a_side, b_side in blocks:
        assert a_side and b_side and not set(a_side) & set(b_side)
        assert p not in a_side and p not in b_side
        pairs += [(p, frozenset((a, b))) for a in a_side for b in b_side]
    assert len(set(pairs)) == len(pairs)
    labels = g.labels
    relation = frozenset((labels[p], *sorted(labels[x] for x in pair)) for p, pair in pairs)
    assert dod_labels(g, blocks) == relation
    return relation


def test_dod_new_blocks_grow_linearly_on_the_worst_case():
    # The relation is cubic; its blocks are at most one per predicate.
    for n in (16, 32, 64, 128):
        blocks = cli.ALGORITHMS["dod-new"].run(worst_case_dod_cfg(n), cli.DEFAULT_OPTIONS)
        assert len(blocks) <= n // 2
        assert sum(len(a_side) * len(b_side) for _, a_side, b_side in blocks) == n**3 // 32


@settings(max_examples=100, deadline=None)
@given(small_cfgs(max_nodes=8))
def test_dod_blocks_keep_their_contract(g):
    truth = oracle_dod(g)
    for algo in DOD_IDS:
        relation = block_relation(g, cli.ALGORITHMS[algo].run(g, cli.DEFAULT_OPTIONS))
        assert relation >= truth if algo == "dod-formula" else relation == truth


def test_dod_blocks_keep_their_contract_on_fed_cycles():
    # On these graphs the original formula is exact too; the digest is of
    # the relation every DOD id gave before its rows became blocks.
    for algo in DOD_IDS:
        h = hashlib.sha256()
        for g in fed_cycle_corpus():
            h.update(repr(sorted(block_relation(g, cli.ALGORITHMS[algo].run(g, cli.DEFAULT_OPTIONS)))).encode())
            h.update(b"\n")
        assert h.hexdigest() == "d042642306781af1d9212ea79dfc5f9ff016e71e6e0ac32e36ce2058b9fafa32", algo


def staged_dod(g: Cfg) -> frozenset:
    """The staged reference: project every predicate with at least three
    all-paths members, classify, unfold from the smallest v1 node, match and
    cut the segments."""
    vp = vp_sets(g)
    out = set()
    for p in predicates(g):
        members = vp[p]
        if len(members) < 3:
            continue
        ap = build_ap(g, p, members)
        classes = compute_v1_v2(g, p, members)
        if len(ap.succ[p]) < 2 or classes.v1 & classes.v2:
            continue
        seq = unfold_cycle(ap, classes.v1)
        if match_unfolding_pattern(seq, classes):
            segments = extract_segments(seq, classes)
            out |= {(p, *sorted((a, b))) for a in segments.m_segment for b in segments.o_segment}
    return frozenset(out)


def test_staged_reference_and_the_pointer_cycle_agree():
    # dod_new reads the cycle off the pointers instead of projecting; for
    # every predicate that feeds a pointer cycle through two distinct first
    # hits, the projection must be that cycle fed by the predicate, and
    # unfolding it from any v1 node must give the cycle in pointer order
    # from that node.  The random and reducible graphs add predicates with
    # three or more members that feed no cycle.
    graphs = fed_cycle_corpus() + [random_cfg(n, (3 * n) // 2, s) for n in range(4, 41) for s in range(10)]
    graphs += [random_reducible_cfg(depth, seed) for depth in range(3, 7) for seed in range(5)]
    fed = 0
    for g in graphs:
        vp = vp_sets(g)
        for p in predicates(g):
            if vp.fed_root(g.index[p]) < 0:
                continue
            cycle = tuple(g.labels[i] for i in vp.chain(vp.parent[g.index[p]]))
            members = vp[p]
            assert members == {p, *cycle}
            ap = build_ap(g, p, members)
            classes = compute_v1_v2(g, p, members)
            if len(classes.v1 | classes.v2) < 2:
                continue  # both branches first hit one node: no triple, and a cycle node may enter p
            fed += 1
            assert not any(p in ts for ts in ap.succ.values())
            assert all(len(ts) == 1 for a, ts in ap.succ.items() if a != p)
            assert set(ap.succ[p]) == classes.v1 | classes.v2
            for start in classes.v1:
                i = cycle.index(start)
                assert unfold_cycle(ap, {start}) == cycle[i:] + cycle[:i]
        assert staged_dod(g) == dod_new(g)
    assert fed >= 1000
