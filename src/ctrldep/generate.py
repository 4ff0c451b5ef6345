"""Deterministic graph generators for tests and benchmarks."""

from __future__ import annotations

import random

from .cfg import Cfg

# 100x the 10,000-node graphs of the throughput tests; generating a random
# graph of 200,000 nodes already peaks at about 136 MiB.
MAX_NODES = 1_000_000
# Each level roughly doubles the graph: over seeds 0-9, at most 15,237 nodes
# at depth 16 and 32,916 at depth 17.
MAX_REDUCIBLE_DEPTH = 16


def random_cfg(n_nodes: int, n_edges: int, seed: int) -> Cfg:
    """Random graph with exactly ``n_edges`` edges and out-degree at most two.

    Edge sources are drawn by sampling without replacement from two slots
    per node, targets uniformly at random (self-loops and parallel edges
    allowed).  The result is a pure function of the arguments.
    """
    if n_nodes < 0:
        raise ValueError("node count must be non-negative")
    if n_nodes > MAX_NODES:
        raise ValueError(f"node count must be at most {MAX_NODES}")
    if n_edges < 0 or n_edges > 2 * n_nodes:
        raise ValueError(f"infeasible edge count: {n_edges} (at most {2 * n_nodes} for {n_nodes} nodes)")
    rng = random.Random(seed)
    width = max(1, len(str(max(n_nodes - 1, 0))))
    labels = [f"n{i:0{width}d}" for i in range(n_nodes)]
    slots = [i for i in range(n_nodes) for _ in (0, 1)]
    sources = rng.sample(slots, n_edges)
    edges = [(labels[s], labels[rng.randrange(n_nodes)]) for s in sources]
    return Cfg(labels, edges)


def random_reducible_cfg(depth: int, seed: int) -> Cfg:
    """Structured graph built from sequence / if-then-else / while patterns.

    Every output collapses to a single node under self-loop removal and
    single-predecessor merging, so the DOD relation on it is empty.
    """
    if depth < 0:
        raise ValueError("depth must be non-negative")
    if depth > MAX_REDUCIBLE_DEPTH:
        raise ValueError(f"depth must be at most {MAX_REDUCIBLE_DEPTH}")
    rng = random.Random(seed)
    labels: list[str] = []
    edges: list[tuple[str, str]] = []

    def fresh() -> str:
        lab = f"n{len(labels):04d}"
        labels.append(lab)
        return lab

    def build(d: int) -> tuple[str, str]:
        if d == 0:
            node = fresh()
            return node, node
        kind = rng.choice(("seq", "branch", "loop"))
        if kind == "seq":
            a_in, a_out = build(d - 1)
            b_in, b_out = build(d - 1)
            edges.append((a_out, b_in))
            return a_in, b_out
        if kind == "branch":
            test = fresh()
            a_in, a_out = build(d - 1)
            b_in, b_out = build(d - 1)
            join = fresh()
            edges.append((test, a_in))
            edges.append((test, b_in))
            edges.append((a_out, join))
            edges.append((b_out, join))
            return test, join
        header = fresh()
        body_in, body_out = build(d - 1)
        exit_node = fresh()
        edges.append((header, body_in))
        edges.append((header, exit_node))
        edges.append((body_out, header))
        return header, exit_node

    build(depth)
    return Cfg(labels, edges)


def worst_case_dod_cfg(total_nodes: int) -> Cfg:
    """Graph whose DOD relation has the maximal size ``total_nodes**3 / 32``.

    Half the nodes form a cycle; the other half are predicates that all
    branch to two diametrically opposite cycle nodes, splitting the cycle
    into two strips of ``total_nodes / 4`` nodes each.
    """
    if total_nodes > MAX_NODES:
        raise ValueError(f"node count must be at most {MAX_NODES}")
    if total_nodes < 8 or total_nodes % 4 != 0:
        raise ValueError("total node count must be >= 8 and divisible by 4")
    k = total_nodes // 2
    width = len(str(k - 1))
    cycle = [f"c{i:0{width}d}" for i in range(k)]
    branches = [f"p{i:0{width}d}" for i in range(k)]
    edges = [(cycle[i], cycle[(i + 1) % k]) for i in range(k)]
    for b in branches:
        edges.append((b, cycle[0]))
        edges.append((b, cycle[k // 2]))
    return Cfg(cycle + branches, edges)
