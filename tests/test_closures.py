"""Strong control closure: checker, backward closure, and minimality."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ctrldep.closures
import ctrldep.dod
import ctrldep.ntscd
from ctrldep import (
    Cfg,
    ClosureSpec,
    ClosureSpecError,
    is_strongly_control_closed,
    oracle_min_closure,
    strong_closure,
    worst_case_dod_cfg,
)
from ctrldep.cfg import reach
from ctrldep.closures import dependence_closure, dod_and_ntscd, theta

from conftest import FIG3_NTSCD, fed_cycle_corpus, small_cfgs


def test_theta_fig4(fig4):
    assert theta(fig4, "a", {"b", "c"}) == {"b", "c"}


def test_theta_unreachable():
    g = Cfg(["v", "w"], [])
    assert theta(g, "v", {"w"}) == frozenset()


def test_theta_fig3(fig3):
    assert theta(fig3, "2", {"5", "6"}) == {"5"}


def test_theta_rejects_member(fig4):
    with pytest.raises(ValueError):
        theta(fig4, "b", {"b", "c"})


@settings(max_examples=80, deadline=None)
@given(small_cfgs(max_nodes=8), st.data())
def test_theta_properties(g, data):
    labels = list(g.labels)
    vset = data.draw(st.sets(st.sampled_from(labels), min_size=1))
    outside = [x for x in labels if x not in vset]
    for v in outside:
        th = theta(g, v, vset)
        assert th <= vset
        reached = {g.labels[i] for i in reach(g.succs, (g.index[v],))}
        assert (len(th) == 0) == (not (reached & vset))


def test_is_closed_whole_graph(fig4):
    assert is_strongly_control_closed(fig4, {"a", "b", "c"}).closed


def test_is_closed_fig4_ab(fig4):
    # c always returns to b immediately, so {a, b} is closed
    assert is_strongly_control_closed(fig4, {"a", "b"}).closed


def test_is_closed_fig3_16(fig3):
    assert is_strongly_control_closed(fig3, {"1", "6"}).closed


def test_not_closed_witnesses(fig4_with_start, fig5):
    # Theta(a, {s,b,c}) = {b, c}: two first-reachable elements.
    verdict = is_strongly_control_closed(fig4_with_start, {"s", "b", "c"})
    assert not verdict.closed
    assert verdict.witness == ("a", "theta-ambiguous")
    # From a the loop can be escaped through c while b stays reachable.
    verdict = is_strongly_control_closed(fig5, {"p", "c"})
    assert not verdict.closed
    assert verdict.witness is not None and verdict.witness[1] == "escapes-then-returns"


def test_dependence_closure_whole_set(fig3):
    everything = frozenset(fig3.labels)
    assert dependence_closure(fig3, everything, FIG3_NTSCD, frozenset()) == everything


def test_dependence_closure_fig3(fig3):
    assert dependence_closure(fig3, {"5"}, FIG3_NTSCD, frozenset()) == {"1", "5"}


def test_dependence_closure_fig4(fig4):
    dod = frozenset({("a", "b", "c")})
    assert dependence_closure(fig4, {"b", "c"}, frozenset(), dod) == {"a", "b", "c"}
    # with only one pair member inside, the rule must not fire
    assert dependence_closure(fig4, {"b"}, frozenset(), dod) == {"b"}


@settings(max_examples=60, deadline=None)
@given(small_cfgs(max_nodes=8), st.data())
def test_dependence_closure_monotone_idempotent(g, data):
    labels = list(g.labels)
    w2 = data.draw(st.sets(st.sampled_from(labels), min_size=1))
    w1 = data.draw(st.sets(st.sampled_from(sorted(w2)), min_size=1))
    dod, ntscd = dod_and_ntscd(g)
    c1 = dependence_closure(g, w1, ntscd, dod)
    c2 = dependence_closure(g, w2, ntscd, dod)
    assert c1 <= c2
    assert dependence_closure(g, c2, ntscd, dod) == c2


def test_strong_closure_fig3(fig3):
    result = strong_closure(fig3, ClosureSpec(w=frozenset({"1", "6"}), start="1"))
    assert result == {"1", "6"}
    assert is_strongly_control_closed(fig3, result).closed


def test_strong_closure_fig4_with_start(fig4_with_start):
    spec = ClosureSpec(w=frozenset({"s", "b", "c"}), start="s")
    result = strong_closure(fig4_with_start, spec)
    assert result == {"s", "a", "b", "c"}
    assert is_strongly_control_closed(fig4_with_start, result).closed


def test_strong_closure_singleton_start():
    g = Cfg(["s", "x"], [("s", "x")])
    assert strong_closure(g, ClosureSpec(w=frozenset({"s"}), start="s")) == {"s"}


def test_strong_closure_validates_spec(fig3, fig4):
    with pytest.raises(ClosureSpecError, match="must belong"):
        strong_closure(fig3, ClosureSpec(w=frozenset({"6"}), start="1"))
    # fig4 has no node reaching everything back: "a" is unreachable from b/c
    with pytest.raises(ClosureSpecError, match="unreachable"):
        strong_closure(fig4, ClosureSpec(w=frozenset({"b"}), start="b"))
    # without the reachability requirement, the dependence closure pulls in "a"
    dod, ntscd = dod_and_ntscd(fig4)
    assert dependence_closure(fig4, {"b", "c"}, ntscd, dod) == {"a", "b", "c"}


def test_oracle_min_closure_matches_fig4_with_start(fig4_with_start):
    result = oracle_min_closure(fig4_with_start, {"s", "b", "c"})
    assert result.nodes == {"s", "a", "b", "c"}
    assert not result.ambiguous


def behind_dispatch(g: Cfg) -> tuple[Cfg, str]:
    """``g`` and a start node that reaches every node: its first node when
    that already does, else the first of a chain of fresh dispatch
    branches, each to the next and to one node no earlier target reaches."""
    targets: list[str] = []
    covered: set[str] = set()
    for lab in g.labels:
        if lab not in covered:
            targets.append(lab)
            covered |= {g.labels[i] for i in reach(g.succs, (g.index[lab],))}
    if targets == list(g.labels[:1]):
        return g, targets[0]
    chain = [f"d{i}" for i in range(len(targets))]
    edges = list(g.edges()) + list(zip(chain, targets)) + list(zip(chain, chain[1:]))
    return Cfg(chain + list(g.labels), edges), chain[0]


FED_CYCLES = fed_cycle_corpus()


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        small_cfgs(max_nodes=10),
        st.sampled_from(FED_CYCLES),
        st.sampled_from([worst_case_dod_cfg(8), worst_case_dod_cfg(12)]),
    ),
    st.data(),
)
def test_strong_closure_equals_the_closure_over_whole_relations(g, data):
    g, start = behind_dispatch(g)
    w = {start} | data.draw(st.sets(st.sampled_from(g.labels), max_size=4))
    dod, ntscd = dod_and_ntscd(g)
    expected = dependence_closure(g, w, ntscd, dod)
    assert strong_closure(g, ClosureSpec(w=frozenset(w), start=start)) == expected


def test_strong_closure_builds_neither_whole_relation(fig7, monkeypatch):
    # Criteria of the start and two opposite cycle nodes, so DOD triples
    # pull predicates in.
    cases = [(fig7, frozenset({"p", "n1", "n5"}))]
    for g in FED_CYCLES[:100]:
        ring = sorted(x for x in g.labels if x.startswith("c"))
        cases.append((g, frozenset({g.labels[0], ring[0], ring[len(ring) // 2]})))
    expected = []
    dod_counts = 0
    for g, w in cases:
        dod, ntscd = dod_and_ntscd(g)
        expected.append(dependence_closure(g, w, ntscd, dod))
        dod_counts += expected[-1] != dependence_closure(g, w, ntscd, frozenset())
    assert dod_counts >= 50

    def refuse(*args, **kwargs):
        raise AssertionError("a whole relation was built")

    for module, name in [
        (ctrldep.closures, "dod_and_ntscd"),
        (ctrldep.closures, "dependence_closure"),
        (ctrldep.closures, "dod_from_vp"),
        (ctrldep.closures, "ntscd_from_vp"),
        (ctrldep.dod, "dod_from_vp"),
        (ctrldep.ntscd, "ntscd_from_vp"),
    ]:
        monkeypatch.setattr(module, name, refuse)
    for (g, w), e in zip(cases, expected):
        assert strong_closure(g, ClosureSpec(w=w, start=g.labels[0])) == e
