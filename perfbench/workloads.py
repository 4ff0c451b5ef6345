"""The benchmark's workloads: a seeded pool of graphs and requests each.

Sizes are fixed per workload and the seed only varies structure, so the
cost of a pool, and with it every latency figure, barely moves between
seeds.  ``scale`` shrinks every size for tests.  Random and worst-case
graphs come from ``ctrldep.generate``; the other families from
``families.py``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ctrldep import generate

from perfbench import families
from perfbench.families import Graph


@dataclass(frozen=True)
class Request:
    """One request: an ``analyze`` call (algo ``ntscd-new``, ``dod-new`` or
    ``cc``) or one differential check (algo ``check``) on graph ``graph``."""

    key: str
    graph: int
    algo: str
    criterion: tuple[str, ...] = ()


@dataclass
class Workload:
    name: str
    why: str
    graphs: list[Graph]
    requests: list[Request]


def random_graph(n: int, m: int, rng: random.Random) -> Graph:
    """A ``random_cfg`` draw of ``n`` nodes and ``m`` edges, seeded from ``rng``."""
    g = generate.random_cfg(n, m, rng.getrandbits(32))
    return Graph("random", list(g.labels), g.edges())


def worst_case(n: int) -> Graph:
    """The paper's worst case, ``worst_case_dod_cfg(n)``: its first n/2
    nodes form the cycle, so ``known()`` gives its n^3/32 DOD triples."""
    g = generate.worst_case_dod_cfg(n)
    return Graph("worst_case", list(g.labels), g.edges(), cycle=list(g.labels[: n // 2]))


def _analyze_requests(graphs: list[Graph], algos: tuple[str, ...], rng: random.Random) -> list[Request]:
    """Every algorithm on every graph.  A closure criterion is the start
    node plus 1-3 nodes, the count fixed by the graph's position and the
    nodes drawn from the cycle where there is one: a criterion's cost
    depends mostly on how many cycle nodes it holds, so fixing that keeps
    the cost of a pool the same across seeds."""
    out = []
    for gi, g in enumerate(graphs):
        for algo in algos:
            criterion: tuple[str, ...] = ()
            if algo == "cc":
                others = g.cycle or [x for x in g.labels if x != g.start]
                criterion = (g.start, *sorted(rng.sample(others, 1 + gi % 3)))
            out.append(Request(f"{g.family}{len(g)}#{gi}:{algo}", gi, algo, criterion))
    return out


def _scaled(x: int, scale: float, least: int) -> int:
    return max(least, round(x * scale))


def sparse_random(rng: random.Random, scale: float = 1.0) -> Workload:
    graphs = []
    for i in range(6):
        n = _scaled(4000 + 500 * i, scale, 4)
        graphs.append(random_graph(n, round(n * (1.0 + i / 5)), rng))
    return Workload(
        "sparse-random",
        "random graphs with singleton all-paths sets: parse and output dominate",
        graphs,
        _analyze_requests(graphs, ("ntscd-new", "dod-new"), rng),
    )


def deep_structured(rng: random.Random, scale: float = 1.0) -> Workload:
    graphs = []
    for i in range(3):
        graphs.append(families.chain(_scaled(300 + 150 * i, scale, 2)))
        graphs.append(families.ladder(_scaled(50 + 25 * i, scale, 1), rng))
        graphs.append(families.nested_loops(4 + i, _scaled(80 + 30 * i, scale, 3), rng))
    return Workload(
        "deep-structured",
        "chains, diamond ladders and nested loops: all-paths sets of Theta(n) per node",
        graphs,
        _analyze_requests(graphs, ("ntscd-new", "dod-new", "cc"), rng),
    )


def dod_cycles(rng: random.Random, scale: float = 1.0) -> Workload:
    graphs = [
        families.fed_cycle(_scaled(length, scale, 8), _scaled(length // 5, scale, 2), rng)
        for length in range(40, 100, 8)
    ]
    return Workload(
        "dod-cycles",
        "cycles fed by branches behind a dispatch tree: cubic DOD output",
        graphs,
        _analyze_requests(graphs, ("dod-new", "cc", "ntscd-new"), rng),
    )


CHECK_GRAPHS = 1000
CHECK_DOD_EVERY = 8  # one graph in eight is a small DOD-bearing shape


def _small_dod_shape(rng: random.Random) -> Graph:
    if rng.random() < 0.25:
        return worst_case(rng.choice((8, 12)))
    while True:
        g = families.fed_cycle(rng.randint(3, 7), rng.randint(1, 3), rng, fig7_every=rng.choice((0, 2)))
        if len(g) <= 12:
            return g


def check_gate(rng: random.Random, scale: float = 1.0) -> Workload:
    """Random draws like ``ctrldep check`` (n uniform in 2-12, m uniform in
    0-2n), stratified so that every seed has the same mix of sizes: the
    oracle's cost grows steeply with n and m, so a few large draws would
    otherwise decide the tail and the throughput."""
    graphs = []
    for i in range(_scaled(CHECK_GRAPHS, scale, CHECK_DOD_EVERY)):
        if i % CHECK_DOD_EVERY == CHECK_DOD_EVERY - 1:
            graphs.append(_small_dod_shape(rng))
        else:
            n = 2 + i % 11
            stratum = (i // 11) % 8
            graphs.append(random_graph(n, round(2 * n * (stratum + rng.random()) / 8), rng))
    return Workload(
        "check-gate",
        "differential check of every gated variant against the oracle on 2-12 node graphs",
        graphs,
        [Request(f"check#{i}", i, "check") for i in range(len(graphs))],
    )


BUILDERS = {
    "sparse-random": sparse_random,
    "deep-structured": deep_structured,
    "dod-cycles": dod_cycles,
    "check-gate": check_gate,
}


def build(name: str, seed: int, scale: float = 1.0) -> Workload:
    """The workload ``name`` for ``seed``; a pure function of its arguments."""
    return BUILDERS[name](random.Random(f"{name}:{seed}"), scale)
