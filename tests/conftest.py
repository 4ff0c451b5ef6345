"""Shared fixtures: the worked-example graphs and small test oracles."""

from __future__ import annotations

from collections import defaultdict
from random import Random

import pytest
from hypothesis import strategies as st

from ctrldep import Cfg, random_cfg


@pytest.fixture
def fig1() -> Cfg:
    """Branch into a convergent diamond with a possibly diverging self-loop."""
    return Cfg(
        ["a", "b", "c", "d", "e"],
        [("a", "b"), ("a", "c"), ("c", "d"), ("d", "e"), ("b", "c"), ("d", "d"), ("b", "e")],
    )


@pytest.fixture
def fig3() -> Cfg:
    """The worklist counterexample: two nested branches joining before the sink."""
    return Cfg(
        ["1", "2", "3", "4", "5", "6"],
        [("1", "2"), ("1", "6"), ("2", "3"), ("2", "4"), ("3", "5"), ("4", "5"), ("5", "6")],
    )


@pytest.fixture
def fig4() -> Cfg:
    """Irreducible two-node loop entered from both sides of a branch."""
    return Cfg(["a", "b", "c"], [("a", "b"), ("a", "c"), ("b", "c"), ("c", "b")])


@pytest.fixture
def fig5() -> Cfg:
    """The formula counterexample: the loop can be left for a sink."""
    return Cfg(
        ["p", "a", "b", "c"],
        [("p", "a"), ("p", "b"), ("b", "c"), ("a", "b"), ("b", "a")],
    )


@pytest.fixture
def fig7() -> Cfg:
    """An 8-cycle fed through two intermediate branches, so each branch
    class has two first-reachable cycle nodes."""
    n = [f"n{i}" for i in range(1, 9)]
    edges = [("p", "u1"), ("p", "u2"), ("u1", "n1"), ("u1", "n7"), ("u2", "n2"), ("u2", "n5")]
    edges += [(n[i], n[(i + 1) % 8]) for i in range(8)]
    return Cfg(["p", "u1", "u2"] + n, edges)


@pytest.fixture
def fig4_with_start() -> Cfg:
    """fig4 behind a start node, so the whole graph is start-reachable."""
    return Cfg(
        ["s", "a", "b", "c"],
        [("s", "a"), ("a", "b"), ("a", "c"), ("b", "c"), ("c", "b")],
    )


FIG3_NTSCD = frozenset({("1", "2"), ("1", "5"), ("2", "3"), ("2", "4")})
FIG3_NTSCD_FIFO = frozenset({("1", "2"), ("1", "6"), ("2", "3"), ("2", "4")})
FIG1_NTSCD = frozenset(
    {
        ("a", "b"),
        ("a", "c"),
        ("a", "d"),
        ("b", "c"),
        ("b", "d"),
        ("b", "e"),
        ("d", "d"),
        ("d", "e"),
    }
)


def reduces_to_single_node(g: Cfg) -> bool:
    """Reducibility oracle: repeatedly delete self-loops and merge
    single-predecessor nodes; reducible graphs end as one edgeless node."""
    succ: dict[int, set[int]] = {i: set(g.succs[i]) for i in range(len(g))}
    while True:
        for v, ts in succ.items():
            ts.discard(v)
        preds: dict[int, set[int]] = defaultdict(set)
        for v, ts in succ.items():
            for t in ts:
                preds[t].add(v)
        merged = False
        for v in list(succ):
            ps = preds[v]
            if len(ps) == 1:
                (u,) = ps
                succ[u].discard(v)
                succ[u] |= succ[v]
                del succ[v]
                merged = True
                break
        if not merged:
            break
    return len(succ) == 1 and not any(succ.values())


def diamond_ladder(rungs: int, closed: bool, arm: int = 1) -> Cfg:
    """p_i branches to two arms of ``arm`` nodes each, which join at j_i,
    which leads to p_{i+1}; the last join ends the graph or, if ``closed``,
    returns to p_0."""
    labels, edges = [], []
    for i in range(rungs):
        p, j = f"p{i}", f"j{i}"
        arms = [[f"{x}{i}_{k}" for k in range(arm)] for x in "ab"]
        labels += [p, *arms[0], *arms[1], j]
        for path in arms:
            edges += [(p, path[0]), *zip(path, path[1:]), (path[-1], j)]
        if i + 1 < rungs or closed:
            edges.append((j, f"p{(i + 1) % rungs}"))
    return Cfg(labels, edges)


def comb_cfg(teeth: int) -> Cfg:
    """p_i branches to its own sink d_i and into x_i, the i-th node of one
    path x_0 -> ... -> x_{teeth-1}: chain(x_i) is the rest of the path, and
    no two chains of a predicate meet."""
    path = [f"x{i}" for i in range(teeth)]
    edges = list(zip(path, path[1:]))
    for i, x in enumerate(path):
        edges += [(f"p{i}", f"d{i}"), (f"p{i}", x)]
    return Cfg([f"{y}{i}" for i in range(teeth) for y in "pdx"], edges)


def fed_cycle_cfg(seed: int, cycle: tuple[int, int] = (3, 30), feeders: tuple[int, int] = (1, 6)) -> Cfg:
    """A seeded cycle of ``cycle`` nodes fed by ``feeders`` branches, each
    to two distinct cycle nodes directly or, as in fig7, through two
    intermediate branches.  A chain of dispatch branches reaches every
    feeder from the first declared node; the other nodes are declared in a
    seeded order.  At most ``cycle[1] + 4 * feeders[1] - 1`` nodes.  Unlike
    small random graphs, most of these have a non-empty DOD."""
    rng = Random(seed)
    k = rng.randint(*cycle)
    ring = [f"c{i:02d}" for i in range(k)]
    edges = [(ring[i], ring[(i + 1) % k]) for i in range(k)]
    labels = list(ring)

    def branch(name: str) -> None:
        labels.append(name)
        edges.extend((name, ring[i]) for i in rng.sample(range(k), 2))

    f = rng.randint(*feeders)
    for j in range(f):
        p = f"p{j}"
        if rng.random() < 0.5:
            branch(p)
        else:
            labels.append(p)
            edges += [(p, f"u{j}"), (p, f"w{j}")]
            branch(f"u{j}")
            branch(f"w{j}")
    dispatch = [f"s{j}" for j in range(f - 1)] + [f"p{f - 1}"]
    for j, s in enumerate(dispatch[:-1]):
        edges += [(s, f"p{j}"), (s, dispatch[j + 1])]
    labels += dispatch[:-1]
    rng.shuffle(labels)
    labels.remove(dispatch[0])
    return Cfg([dispatch[0]] + labels, edges)


def fed_cycle_corpus():
    """Fixed family of 400 fed cycles of 3-30 nodes, at most 53 nodes in all."""
    return [fed_cycle_cfg(seed) for seed in range(400)]


def behind_prefix(body: Cfg, k: int, seed: int, tail: int = 0, loops: bool = False) -> Cfg:
    """``body`` entered at its first node from a k-node prefix, with a
    ``tail``-node path hung off the first node of ``body`` that has fewer
    than two out-edges (if any), ending in a self-loop when ``tail`` is
    odd.  Each prefix node leads to the next by one edge or by two parallel
    edges (not a predicate); with ``loops``, one in ten does so beside a
    self-loop, which makes it a predicate of its own."""
    rng = Random(seed)
    prefix = [f"h{i}" for i in range(k)]
    path = [f"z{i}" for i in range(tail)]
    edges = []
    for a, b in zip(prefix, prefix[1:] + [body.labels[0]]):
        kind = rng.random()
        edges += [(a, a), (a, b)] if loops and kind < 0.1 else [(a, b)] * (1 + (kind < 0.3))
    edges += body.edges()
    hooks = [v for v, ss in zip(body.labels, body.succs) if len(ss) < 2][:1]
    if path and hooks:
        edges += zip(hooks + path, path + [path[-1]] * (tail % 2))
    return Cfg(prefix + list(body.labels) + path, edges)


def ring(k: int) -> Cfg:
    """A k-node cycle."""
    labels = [f"r{i}" for i in range(k)]
    return Cfg(labels, list(zip(labels, labels[1:] + labels[:1])))


def predicate_free_region_corpus() -> list[Cfg]:
    """Graphs whose predicates, if any, are reached only behind a chain:
    chain prefixes of 1-30 nodes feeding ladders, fed cycles, rings and
    random graphs, with and without predicate-free sink tails, and graphs
    with no predicate at all."""
    graphs = []
    for k in range(1, 31):
        bodies = [
            diamond_ladder(1 + k % 4, closed=k % 3 == 0, arm=1 + k % 2),
            fed_cycle_cfg(k, cycle=(3, 12), feeders=(1, 3)),
            random_cfg(2 + k % 17, 7 * k % (5 + 2 * (k % 17)), k),
            ring(1 + k % 5),
            Cfg(["b"], []),
        ]
        for i, body in enumerate(bodies):
            # A tail leaves a cycle open, so only odd k hang one.
            graphs.append(behind_prefix(body, k, 31 * k + i, tail=(k + i) % 7 * (k % 2), loops=i < 3))
    graphs += [behind_prefix(Cfg(["b"], [("b", "b")]), k, k) for k in range(1, 31)]
    graphs += [Cfg([f"n{i}" for i in range(k)], []) for k in range(1, 4)]
    return graphs


def continuation_corpus() -> list[Cfg]:
    """``predicate_free_region_corpus()``, 120 fed cycles and eight open
    and closed ladders: over 3,000 continuations, nodes entered only by
    another node's only out-edge, in chain prefixes and sink tails, cycle
    segments between feeders, ladder arms, rings and the prefix ahead of a
    self-loop."""
    graphs = predicate_free_region_corpus()
    graphs += [fed_cycle_cfg(seed) for seed in range(120)]
    graphs += [diamond_ladder(rungs, closed, arm) for rungs in (1, 4) for closed in (False, True) for arm in (1, 3)]
    return graphs



@st.composite
def small_cfgs(draw, max_nodes: int = 8):
    """Arbitrary graphs with out-degree at most two."""
    n = draw(st.integers(1, max_nodes))
    labels = [f"n{i}" for i in range(n)]
    edges = []
    for i in range(n):
        for _ in range(draw(st.integers(0, 2))):
            edges.append((labels[i], labels[draw(st.integers(0, n - 1))]))
    return Cfg(labels, edges)
