"""The backward propagation kernel and the all-paths pointers.

Expected values for the worked examples are recomputed here through the
brute-force oracle, so the two implementations vouch for each other.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctrldep import Cfg, random_cfg, random_reducible_cfg, worst_case_dod_cfg
from ctrldep.cfg import predicate_indices
from ctrldep.coloring import Coloring, vp_sets
from ctrldep.ntscd import ntscd_new_rows
from ctrldep.oracle import oracle_exists_maximal_avoiding

from conftest import diamond_ladder, fed_cycle_corpus, small_cfgs


def color(g: Cfg, targets) -> frozenset[str]:
    """Labels of the nodes from which every maximal path hits ``targets``."""
    return frozenset(g.labels[i] for i in Coloring(g).run(g.index[t] for t in targets))


def oracle_color(g: Cfg, target: str) -> frozenset[str]:
    return frozenset(
        m for m in g.labels if not oracle_exists_maximal_avoiding(g, m, target)
    )


def test_color_fig3_target_5(fig3):
    expected = oracle_color(fig3, "5")
    assert expected == {"2", "3", "4", "5"}
    assert color(fig3, ["5"]) == expected


def test_color_isolated_target():
    g = Cfg(["n", "m"], [])
    assert color(g, ["n"]) == {"n"}


def test_color_fig1_target_e(fig1):
    # b, c, d can all diverge into the self-loop on d and never reach e.
    expected = oracle_color(fig1, "e")
    assert expected == {"e"}
    assert color(fig1, ["e"]) == expected


def test_color_multi_target_seed_set(fig3):
    # From 1 every maximal path reaches 6; seeding {5, 6} must cover everything.
    assert color(fig3, ["5", "6"]) == set(fig3.labels)


@settings(max_examples=120, deadline=None)
@given(small_cfgs(max_nodes=8))
def test_color_matches_oracle(g):
    for target in g.labels:
        got = color(g, [target])
        for m in g.labels:
            assert (m in got) == (not oracle_exists_maximal_avoiding(g, m, target))


@settings(max_examples=60, deadline=None)
@given(small_cfgs(max_nodes=7), st.data())
def test_seed_monotonicity(g, data):
    labels = list(g.labels)
    t2 = data.draw(st.sets(st.sampled_from(labels), min_size=1))
    t1 = data.draw(st.sets(st.sampled_from(sorted(t2)), min_size=1))
    assert color(g, t1) <= color(g, t2)


def test_vp_sets_fig3(fig3):
    vp = vp_sets(fig3)
    assert vp["1"] == {"1", "6"}
    assert vp["2"] == {"2", "5", "6"}
    assert vp["3"] == {"3", "5", "6"}
    assert vp["4"] == {"4", "5", "6"}
    assert vp["5"] == {"5", "6"}
    assert vp["6"] == {"6"}


def test_vp_sets_edgeless():
    g = Cfg(["x", "y"], [])
    vp = vp_sets(g)
    assert vp["x"] == {"x"} and vp["y"] == {"y"}


def test_vp_sets_fig4(fig4):
    vp = vp_sets(fig4)
    assert vp["a"] == {"a", "b", "c"}
    assert vp["b"] == {"b", "c"}
    assert vp["c"] == {"b", "c"}


def test_vp_sets_branches_that_rejoin_at_the_predicate():
    # Both branches lead straight back to v, so their chains meet at v
    # itself, and v stays a root with no parent.
    g = Cfg(["v", "a", "b"], [("v", "a"), ("v", "b"), ("a", "v"), ("b", "v")])
    vp = vp_sets(g)
    assert vp.parent == [-1, 0, 0]
    assert vp["v"] == {"v"} and vp["a"] == {"a", "v"}


def test_fed_cycle_reads_the_root_cycle_a_predicate_feeds(fig7):
    vp = vp_sets(fig7)
    p = fig7.index["p"]
    cycle = [fig7.labels[i] for i in vp.chain(vp.parent[p])]
    assert vp.fed_root(p) == min(fig7.index[a] for a in cycle)
    assert set(cycle) == vp["p"] - {"p"}
    assert all(vp.parent[fig7.index[a]] == fig7.index[b] for a, b in zip(cycle, cycle[1:] + cycle[:1]))
    assert vp.fed_root(fig7.index["n3"]) == -1
    # c0 lies on the cycle its parent is on, three nodes long, so the O(1)
    # test passes it and the cycle lookup refuses it.
    g = Cfg(["c0", "c1", "c2", "c3"], [("c0", "c1"), ("c0", "c2"), ("c1", "c2"), ("c2", "c3"), ("c3", "c0")])
    vp = vp_sets(g)
    assert vp.parent == [2, 2, 3, 0]
    assert vp.fed_root(0) == -1


@settings(max_examples=80, deadline=None)
@given(small_cfgs(max_nodes=8))
def test_vp_sets_match_oracle(g):
    vp = vp_sets(g)
    for n in g.labels:
        assert n in vp[n]
        expected = {
            m for m in g.labels if not oracle_exists_maximal_avoiding(g, n, m)
        }
        assert vp[n] == expected


# Sizes where long chains, deep meets and cycles entered at several points
# occur, which small random graphs rarely have.
LARGE_GRAPHS = {
    "ladder-1200": lambda: diamond_ladder(300, closed=False),
    "closed-ladder-1200": lambda: diamond_ladder(300, closed=True),
    "random-200": lambda: random_cfg(200, 300, 1),
    "random-1000-chains": lambda: random_cfg(1000, 1000, 7),
    "random-3000": lambda: random_cfg(3000, 3000, 2),
    "dod-worst-256": lambda: worst_case_dod_cfg(256),
    "reducible-532": lambda: random_reducible_cfg(9, 4),
    "reducible-2340": lambda: random_reducible_cfg(12, 8),
}


@pytest.mark.parametrize("shape", sorted(LARGE_GRAPHS))
def test_vp_sets_match_one_propagation_per_node(shape):
    # n is on all maximal paths from v exactly when v turns red seeded at n.
    g = LARGE_GRAPHS[shape]()
    eng = Coloring(g)
    expected: list[set[int]] = [set() for _ in g.labels]
    for n in range(len(g)):
        for v in eng.run((n,)):
            expected[v].add(n)
    vp = vp_sets(g)
    assert vp.index_sets == [frozenset(s) for s in expected]
    assert all(p != v for v, p in enumerate(vp.parent))  # -1, never itself, for no parent


def sweep_fixpoint(g: Cfg) -> list[int]:
    """``vp_sets``' pointers by the plain fixpoint of its meet rule: whole
    sweeps over the reversed predicates until a sweep moves nothing."""
    parent = [-1] * len(g)
    for v, ss in enumerate(g.succs):
        if ss and ss[0] == ss[-1] != v:
            parent[v] = ss[0]

    def chain(v: int) -> list[int]:
        out: list[int] = []
        while v >= 0 and v not in out:
            out.append(v)
            v = parent[v]
        return out

    moved = True
    while moved:
        moved = False
        for v in reversed(predicate_indices(g)):
            s1, s2 = g.succs[v]
            on_s1 = set(chain(s1))
            meet = next((x for x in chain(s2) if x in on_s1), -1)
            if meet >= 0 and meet != v and meet not in chain(parent[v]):
                parent[v] = meet
                moved = True
    return parent


def test_vp_sets_stops_on_the_pointers_of_a_quiet_sweep():
    # vp_sets stops once every predicate in a row has been examined
    # without a move, mid-sweep; that must be the state a whole quiet
    # sweep ends in, pointer for pointer, not just the same sets.
    graphs = [random_cfg(n, e, s) for n in range(1, 61) for e in (n // 2, n, 3 * n // 2, 2 * n) for s in range(9)]
    graphs += [random_reducible_cfg(depth, seed) for depth in range(9) for seed in range(3)]
    graphs += [worst_case_dod_cfg(n) for n in range(8, 129, 4)]
    graphs += fed_cycle_corpus()
    graphs += [diamond_ladder(r, closed, arm) for r in range(1, 21) for closed in (False, True) for arm in (1, 2)]
    assert len(graphs) >= 2000
    for g in graphs:
        assert vp_sets(g).parent == sweep_fixpoint(g)


@settings(max_examples=80, deadline=None)
@given(small_cfgs(max_nodes=10))
def test_each_coloring_visits_each_edge_at_most_once(g):
    eng = Coloring(g)
    for i in range(len(g)):
        eng.run((i,))
        assert eng.edge_visits() <= g.n_edges


def fixpoint(g: Cfg, targets) -> set[int]:
    """The least node set holding ``targets`` and every node that has
    out-edges, all of which lead into the set."""
    red = set(targets)
    grew = True
    while grew:
        grew = False
        for m, ss in enumerate(g.succs):
            if m not in red and ss and all(s in red for s in ss):
                red.add(m)
                grew = True
    return red


@settings(max_examples=150, deadline=None)
@given(small_cfgs(max_nodes=8), st.data())
def test_one_instance_across_many_generations(g, data):
    # Stamps left by earlier runs and passes (members, and nodes touched
    # once) must read as untouched in every later propagation, whether
    # full runs, batched controllers passes or single-target passes
    # follow each other; edge_visits counts the last run only.
    eng = Coloring(g)
    nodes = st.integers(0, len(g) - 1)
    visits = 0
    for _ in range(data.draw(st.integers(1, 12))):
        step = data.draw(st.sampled_from(("run", "batch", "single")))
        if step == "run":
            targets = data.draw(st.lists(nodes, min_size=1, max_size=4))
            got = eng.run(targets + targets)
            fresh = Coloring(g)
            assert sorted(got) == sorted(fresh.run(targets))
            assert len(got) == len(set(got)) and set(got) == fixpoint(g, targets)
            visits = eng.edge_visits()
            assert visits == fresh.edge_visits()
        else:
            targets = data.draw(st.lists(nodes, min_size=1, max_size=6 if step == "batch" else 1))
            rows = eng.controllers(targets)
            assert rows == Coloring(g).controllers(targets)
            assert len(rows) == len(set(rows))
            assert [i for _, i in rows] == sorted(i for _, i in rows)
            for i, t in enumerate(targets):
                red = fixpoint(g, (t,))
                expected = {p for p in predicate_indices(g) if (g.succs[p][0] in red) != (g.succs[p][1] in red)}
                assert {p for p, j in rows if j == i} == expected
            assert eng.edge_visits() == visits
    rows = ntscd_new_rows(g)
    assert len(rows) == len(set(rows))


def total_edge_visits(g: Cfg) -> int:
    """Reverse-edge visits summed over one propagation from each node."""
    eng = Coloring(g)
    total = 0
    for t in range(len(g)):
        eng.run((t,))
        total += eng.edge_visits()
    return total


@pytest.mark.parametrize("n", [50, 100, 200])
def test_per_node_propagations_visit_n_choose_2_edges_on_a_chain(n):
    # Seeded at node t, nodes 0..t turn red; all but node 0 have one
    # in-edge, so the run makes t visits.
    labels = [str(i) for i in range(n)]
    g = Cfg(labels, list(zip(labels, labels[1:])))
    assert total_edge_visits(g) == n * (n - 1) // 2


@pytest.mark.parametrize("rungs", [1, 2, 25, 60])
def test_per_node_propagations_visit_5k2_plus_k_edges_on_a_ladder(rungs):
    # Rung i holds p_i, two arms and the join j_i; every rung but the first
    # has 5 in-edges.  Seeded at p_i: rungs 0..i-1 and p_i turn red, 5i
    # visits; at j_i: rungs 0..i, 5i + 4; at an arm: itself, 1.  Summed
    # over i < k: 5k^2 + k.
    assert total_edge_visits(diamond_ladder(rungs, closed=False)) == 5 * rungs * rungs + rungs
