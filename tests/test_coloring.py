"""The backward propagation kernel and the all-paths pointers.

Expected values for the worked examples are recomputed here through the
brute-force oracle, so the two implementations vouch for each other.
"""

from __future__ import annotations

import time
from collections import Counter
from itertools import product
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctrldep import Cfg, coloring, dod_new, random_cfg, random_reducible_cfg, worst_case_dod_cfg
from ctrldep.cfg import predicate_indices, reach
from ctrldep.coloring import Coloring, vp_sets
from ctrldep.ntscd import ntscd_new_rows
from ctrldep.oracle import oracle_exists_maximal_avoiding

from conftest import comb_cfg, continuation_corpus, diamond_ladder, fed_cycle_cfg, fed_cycle_corpus, small_cfgs


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
    # ``vp_sets`` ends without stamping the root cycle {1, 2} permanent,
    # though 0 and 3 feed it; ``root_cycle`` still finds it.
    g = Cfg(["0", "1", "2", "3"], [("0", "1"), ("1", "2"), ("2", "0"), ("2", "1"), ("3", "0"), ("3", "1")])
    vp = vp_sets(g)
    assert vp.parent == [1, 2, 1, 1]
    assert [vp.fed_root(p) for p in range(4)] == [1, -1, -1, 1]
    assert vp.root_cycle == {1: 1, 2: 1}


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
    sweeps over the reversed predicates until a sweep moves nothing.
    Checks the cycle lemma on the way: no predicate on a pointer cycle
    moves."""
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
                assert v not in chain(parent[v]), "a predicate on a pointer cycle moved"
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
    graphs += [comb_cfg(teeth) for teeth in (1, 2, 3, 10, 50, 200)]
    assert len(graphs) >= 2000
    for g in graphs:
        assert vp_sets(g).parent == sweep_fixpoint(g)


def test_vp_sets_stops_on_the_pointers_of_a_quiet_sweep_on_large_cycles():
    # Cycles far longer than the 30 nodes of the fed-cycle corpus: the
    # worst case's and the fed cycles' hold no predicate, a closed ladder's
    # root cycle holds every predicate; either way walks stop at a cycle's
    # first node once one walk has closed it.
    graphs = [worst_case_dod_cfg(n) for n in (128, 256, 512)]
    graphs += [fed_cycle_cfg(seed, cycle=(100, 200), feeders=(20, 40)) for seed in range(4)]
    graphs += [diamond_ladder(r, True, arm) for r in (30, 60) for arm in (1, 2)]
    for g in graphs:
        assert vp_sets(g).parent == sweep_fixpoint(g)


def every_small_cfg(max_nodes: int):
    """Every graph of 1 to ``max_nodes`` nodes with at most two out-edges
    per node, to distinct targets in either order, self-loops included."""
    for n in range(1, max_nodes + 1):
        labels = [str(i) for i in range(n)]
        outs = [()] + [(t,) for t in range(n)] + [(t, u) for t in range(n) for u in range(n) if t != u]
        for choice in product(outs, repeat=n):
            yield Cfg(labels, [(labels[v], labels[t]) for v, ts in enumerate(choice) for t in ts])


def test_vp_sets_stops_on_the_pointers_of_a_quiet_sweep_on_every_small_graph():
    # The pointers, and the cycle lemma that sweep_fixpoint asserts, on
    # every graph of at most 4 nodes.  Duplicate edges are left out, since
    # vp_sets reads (t, t) as (t,).
    count = 0
    for g in every_small_cfg(4):
        assert vp_sets(g).parent == sweep_fixpoint(g)
        count += 1
    assert count == 84_548


def test_vp_sets_steps_on_the_random_quiet_sweep_graphs():
    # The random graphs of the quiet-sweep test.  Walks stop at the first
    # node of every pointer cycle a walk has closed, one with a predicate
    # on it too: on random_cfg(6, 9, 1) the cycle n3 -> n4 -> n3 holds the
    # predicate n4, and n4's second examination stops both fingers at n3.
    assert vp_sets(random_cfg(6, 9, 1)).steps == 10
    graphs = [random_cfg(n, e, s) for n in range(1, 61) for e in (n // 2, n, 3 * n // 2, 2 * n) for s in range(9)]
    assert sum(vp_sets(g).steps for g in graphs) == 28_503


def shuffled(g: Cfg, seed: int) -> Cfg:
    """``g`` with its nodes declared in a seeded random order."""
    labels = list(g.labels)
    Random(seed).shuffle(labels)
    return Cfg(labels, g.edges())


def swapped(g: Cfg) -> Cfg:
    """``g`` with the two out-edges of every predicate in the other order."""
    return Cfg(g.labels, [(g.labels[v], g.labels[s]) for v, ss in enumerate(g.succs) for s in reversed(ss)])


def test_vp_sets_are_invariant_under_reordering_and_swapped_branches():
    # The order of examination decides which root cycles a run learns, and
    # when; which chain is walked as chain(s1) decides where the fingers
    # collide.  Neither may change a set.
    graphs = fed_cycle_corpus() + [worst_case_dod_cfg(n) for n in range(8, 65, 4)]
    graphs += [random_cfg(n, e, s) for n in (10, 30, 60) for e in (n, 3 * n // 2, 2 * n) for s in range(10)]
    graphs += [diamond_ladder(r, closed, 2) for r in (3, 10) for closed in (False, True)]
    for i, g in enumerate(graphs):
        vp = vp_sets(g)
        expected = [vp[label] for label in g.labels]
        for h in (shuffled(g, i), swapped(g)):
            vh = vp_sets(h)
            assert [vh[label] for label in g.labels] == expected


def assert_index_sets_follow_the_chains(vp: coloring.VpMap) -> None:
    """``index_sets`` is every chain as a set, and the nodes of one pointer
    cycle share one set.  ``root_cycle`` holds exactly the nodes v on
    chain(parent[v]), each mapped to its chain's least node, and
    ``fed_root(p)`` names the cycle ``parent[p]`` is on when p is not on it."""
    parent = vp.parent
    nodes = range(len(parent))
    sets = vp.index_sets
    assert sets == [frozenset(vp.chain(v)) for v in nodes]
    on_cycle = {v for v in nodes if parent[v] >= 0 and v in vp.chain(parent[v])}
    assert vp.root_cycle == {v: min(vp.chain(v)) for v in on_cycle}
    for x, least in vp.root_cycle.items():
        assert sets[x] is sets[least]
    for p in nodes:
        q = parent[p]
        fed = min(vp.chain(q)) if q in on_cycle and p not in on_cycle else -1
        assert vp.fed_root(p) == fed


def test_index_sets_are_the_chains_on_a_fixed_corpus():
    rng = Random(27)
    graphs = [random_cfg(n, rng.randint(0, 2 * n), rng.getrandbits(32)) for n in range(2, 61) for _ in range(10)]
    # A duplicate edge out of a, a self-loop on b, and a two-node cycle.
    graphs.append(Cfg(["a", "b", "c", "d"], [("a", "b"), ("a", "b"), ("b", "c"), ("b", "b"), ("c", "d"), ("d", "c")]))
    graphs += fed_cycle_corpus() + [worst_case_dod_cfg(n) for n in range(8, 65, 4)]
    graphs += [diamond_ladder(r, closed, arm) for r in (1, 3, 10) for closed in (False, True) for arm in (1, 2)]
    for g in graphs:
        assert_index_sets_follow_the_chains(vp_sets(g))


def test_cycle_readers_follow_the_chains_on_every_small_pointer_array():
    # Every parent array of 1-5 nodes: self-pointers, several cycles, and
    # trees hanging off them, which ``vp_sets`` may never produce.
    for n in range(1, 6):
        g = Cfg([str(i) for i in range(n)], [])
        for parent in product(range(-1, n), repeat=n):
            assert_index_sets_follow_the_chains(coloring.VpMap(g, list(parent)))


@settings(max_examples=200, deadline=None)
@given(small_cfgs(max_nodes=12), st.data())
def test_index_sets_are_the_chains(g, data):
    # Also on arbitrary pointers: several cycles, self-pointers, and trees
    # hanging off both, which ``vp_sets`` may never produce.
    assert_index_sets_follow_the_chains(vp_sets(g))
    parent = data.draw(st.lists(st.integers(-1, len(g) - 1), min_size=len(g), max_size=len(g)))
    assert_index_sets_follow_the_chains(coloring.VpMap(g, parent))


def test_vp_sets_steps_grow_linearly_on_the_worst_case_and_ladders():
    # Worst case, n/2 predicates into an n/2-node cycle: the first
    # examination's fingers collide on the cycle (n/2 steps), the walk that
    # finds the collision on a cycle goes round it (n/2) and stamps it
    # permanent (n/2); every later finger stops at once.
    assert [vp_sets(worst_case_dod_cfg(n)).steps for n in range(8, 129, 4)] == [3 * n // 2 for n in range(8, 129, 4)]
    # Open ladder with 2-node arms, 6 nodes a rung: each rung's fingers meet
    # at its join, and each join's walk to the sink stops at the next rung's
    # join, which it already walked.  Closed, the root cycle holds every
    # predicate, and the walks stop at the last root they found instead.
    for k in (50, 100, 200, 400):
        assert vp_sets(diamond_ladder(k, False, 2)).steps == 12 * k - 2
        assert vp_sets(diamond_ladder(k, True, 2)).steps == 12 * k - 1
        assert vp_sets(diamond_ladder(k, False, 1)).steps == 8 * k - 2


def test_vp_sets_steps_grow_linearly_on_a_comb():
    # No two chains of a predicate meet, and every chain but the one-node
    # sinks runs down the shared path.  The predicates are examined from
    # the far end of the path, and the walk from x_i stops at x_{i+1},
    # whose end the walk before remembered: one step per predicate, where
    # walking the rest of the path each time took about teeth^2 / 2.
    for teeth in (3, 10, 100, 500, 1000, 2000):
        assert vp_sets(comb_cfg(teeth)).steps == teeth


def test_vp_sets_steps_on_the_fed_cycle_corpus():
    steps = [vp_sets(g).steps for g in fed_cycle_corpus()]
    assert (sum(steps), max(steps)) == (25_897, 146)


def test_vp_sets_steps_on_the_edge_sweep_graphs():
    # The graphs of acceptance criterion 9, whose timed spread varies with
    # the machine; the steps do not.  Each stays below 2|V|.
    steps = [vp_sets(random_cfg(500, edges, 1234)).steps for edges in range(50, 1001, 50)]
    assert steps == [1, 1, 7, 26, 24, 81, 99, 265, 193, 371, 661, 429, 370, 384, 381, 343, 313, 213, 89, 2]


def test_vp_sets_throughput_on_the_worst_case_and_a_long_ladder():
    # Walking all of chain(s1) per examination took seconds on both.
    g = worst_case_dod_cfg(16_000)
    started = time.perf_counter()
    vp_sets(g)
    seconds = time.perf_counter() - started
    assert seconds < 0.5, f"vp_sets on the 16,000-node worst case took {seconds:.2f}s"
    g = diamond_ladder(10_000, False, 2)
    assert len(g) == 60_000
    started = time.perf_counter()
    dod_new(g)
    seconds = time.perf_counter() - started
    assert seconds < 5.0, f"dod-new on the 60,000-node ladder took {seconds:.2f}s"


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


def touch_order_controllers(g: Cfg, t: int) -> list[int]:
    """t's controllers in the order a pass lists them: t itself when
    exactly one of its successors is a member, then the predicates with
    one member successor, in the order a propagation from t first touched
    them.  The propagation visits each member's in-edges in the order the
    members joined, every in-edge, not only those of R."""
    red = {t}
    members = [t]
    hits = Counter()
    touched = []
    for s in members:
        for m in g.preds[s]:
            if m in red:
                continue
            hits[m] += 1
            if hits[m] == len(g.succs[m]):
                red.add(m)
                members.append(m)
            elif hits[m] == 1:
                touched.append(m)
    ss = g.succs[t]
    first = [t] if len(ss) == 2 and (ss[0] in red) != (ss[1] in red) else []
    return first + [m for m in touched if m not in red]


def reference_rows(g: Cfg, targets) -> tuple[list[tuple[int, int]], int]:
    """The rows of a ``controllers`` pass, and how many targets copied: a
    target entered only from an earlier target u, by u's only out-edge,
    repeats u's controllers in u's order; every other target lists its
    own in touch order."""
    rows = []
    copies = 0
    earlier: dict[int, list[int]] = {}
    for i, t in enumerate(targets):
        ps = g.preds[t]
        if len(ps) == 1 and g.succs[ps[0]] == (t,) and ps[0] in earlier:
            found = earlier[ps[0]]
            copies += 1
        else:
            found = touch_order_controllers(g, t)
        earlier[t] = found
        rows += [(p, i) for p in found]
    return rows, copies


def assert_rows_in_reference_order(g: Cfg, rng: Random) -> int:
    """``ntscd_new_rows`` and the passes of one instance over partial lists
    equal the reference, order included.  The partial lists are what
    ``strong_closure_nodes`` passes: rounds of distinct nodes, none seen in
    an earlier round, in ascending or shuffled order.  Returns the copies."""
    n = len(g)
    rows, copies = reference_rows(g, range(n))
    assert ntscd_new_rows(g) == rows
    eng = Coloring(g)
    left = rng.sample(range(n), n)
    while left:
        k = rng.randint(1, len(left))
        batch, left = left[:k], left[k:]
        if rng.random() < 0.5:
            batch.sort()
        rows, c = reference_rows(g, batch)
        assert eng.controllers(batch) == rows
        copies += c
    return copies


def test_controllers_rows_come_in_touch_order_on_the_continuation_corpus():
    copies = [assert_rows_in_reference_order(g, Random(seed)) for seed, g in enumerate(continuation_corpus())]
    assert sum(copies) >= 3000 and sum(map(bool, copies)) >= 280


@settings(max_examples=150, deadline=None)
@given(small_cfgs(max_nodes=9), st.integers(0, 2**16))
def test_controllers_rows_come_in_touch_order(g, seed):
    assert_rows_in_reference_order(g, Random(seed))


def propagations_copies_outside(monkeypatch, g: Cfg) -> tuple[int, int, int]:
    """The propagations ``ntscd_new_rows`` runs through the shared kernel,
    the targets that copy an earlier target's rows, and the targets outside
    R, the nodes some predicate's successor reaches."""
    calls = 0
    propagate = coloring._propagate

    def counted(*args):
        nonlocal calls
        calls += 1
        return propagate(*args)

    monkeypatch.setattr(coloring, "_propagate", counted)
    ntscd_new_rows(g)
    monkeypatch.undo()
    inside = reach(g.succs, [s for p in predicate_indices(g) for s in g.succs[p]])
    copies = sum(len(g.preds[t]) == 1 and g.succs[g.preds[t][0]] == (t,) and g.preds[t][0] < t for t in inside)
    return calls, copies, len(g) - len(inside)


def test_a_pass_counts_one_propagation_per_target_in_r_that_copies_nothing(monkeypatch, fig3, fig4, fig5, fig7):
    labels = [f"c{i}" for i in range(50)]
    graphs = {
        # The first node is outside R in each figure; every node of R is
        # entered from a predicate or by two in-edges, but on fig7's cycle
        # n3, n4, n6 and n8, each entered only from the node before.
        "fig3": (fig3, (5, 0, 1)),
        "fig4": (fig4, (2, 0, 1)),
        "fig5": (fig5, (3, 0, 1)),
        "fig7": (fig7, (6, 4, 1)),
        "chain": (Cfg(labels, list(zip(labels, labels[1:]))), (0, 0, 50)),  # no predicate, so R is empty
        # Each rung's first arm nodes and join propagate; the second arm
        # nodes and every p_i but p0 copy; p0 is outside R.
        "open-ladder": (diamond_ladder(10, False, 2), (30, 29, 1)),
        "random-300": (random_cfg(300, 450, 5), (213, 12, 75)),
    }
    for name, (g, expected) in graphs.items():
        counts = propagations_copies_outside(monkeypatch, g)
        assert counts == expected, name
        assert sum(counts) == len(g), name
