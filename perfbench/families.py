"""Seeded graph families for the benchmark, with relations known by construction.

Every generator returns a ``Graph``: node labels, ordered edges, and what the
construction fixes about the relations, so that outputs can be checked
without trusting the code under test.  Nothing here imports ``ctrldep``; the
random and worst-case graphs come from ``ctrldep.generate`` and are wrapped
as a ``Graph`` in ``workloads.py``.

Why each family exists:

- ``chain``: one long path.  The all-paths set of node i holds every later
  node, so the all-paths layer does Theta(n^2) work for an empty output.
- ``ladder``: diamonds in sequence.  All-paths sets are Theta(n) per node as
  in a chain, and NTSCD is known: each diamond's branch controls exactly its
  own two arms.
- ``nested_loops``: while loops nested inside each other's long bodies.
  Reducible, so DOD is empty; NTSCD includes loop-header self-dependence
  and the non-termination part, which has no simple closed form.
- ``fed_cycle``: a cycle fed by branches, directly or through intermediate
  branches as in the paper's fig7, behind a dispatch tree from one start
  node.  This is the DOD-bearing shape of the paper's worst case,
  generalised: DOD output is cubic, and every node is reachable from the
  start, so closure requests meet their preconditions.

``Graph.known()`` also gives the DOD of any graph whose ``cycle`` is set and
whose other nodes are acyclic and lead into it, such as the paper's n^3/32
worst case.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

Edge = tuple[str, str]


@dataclass
class Graph:
    """A generated graph and what its construction fixes.

    ``ntscd`` / ``dod`` are the exact relations when the family has a closed
    form, else None; for a fed cycle they are filled in by ``known()``, so
    that generating inputs does not pay for them.  ``start`` reaches every
    node (None when no node does).
    """

    family: str
    labels: list[str]
    edges: list[Edge]
    ntscd: frozenset[tuple[str, str]] | None = None
    dod: frozenset[tuple[str, str, str]] | None = None
    start: str | None = None
    cycle: list[str] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.labels)

    def known(self) -> tuple[frozenset | None, frozenset | None]:
        """The closed-form NTSCD and DOD, None where the family has none."""
        if self.cycle and self.dod is None:
            _fed_relations(self)
        return self.ntscd, self.dod

    def predicate_count(self) -> int:
        succs: dict[str, list[str]] = {}
        for a, b in self.edges:
            succs.setdefault(a, []).append(b)
        return sum(1 for ts in succs.values() if len(ts) == 2 and ts[0] != ts[1])


def chain(n: int) -> Graph:
    """n nodes in one path ending in a sink: no predicates, so NTSCD and DOD
    are empty, and sum |vp| = n(n+1)/2."""
    labels = [f"c{i:04d}" for i in range(n)]
    edges = [(labels[i], labels[i + 1]) for i in range(n - 1)]
    return Graph("chain", labels, edges, frozenset(), frozenset(), labels[0])


def ladder(k: int, rng: random.Random) -> Graph:
    """k >= 1 diamonds in sequence, each arm a path of 1-3 nodes, then a sink.

    Each diamond's branch controls exactly the nodes of its two arms; the
    graph is acyclic, so DOD is empty.
    """
    labels: list[str] = []
    edges: list[Edge] = []
    ntscd = set()
    prev = None
    for i in range(k):
        p, j = f"p{i:04d}", f"j{i:04d}"
        labels.append(p)
        if prev is not None:
            edges.append((prev, p))
        for side in "ab":
            arm = [f"{side}{i:04d}_{x}" for x in range(rng.randint(1, 3))]
            labels.extend(arm)
            edges.append((p, arm[0]))
            edges.extend(zip(arm, arm[1:]))
            edges.append((arm[-1], j))
            ntscd.update((p, x) for x in arm)
        labels.append(j)
        prev = j
    labels.append("x")
    edges.append((prev, "x"))
    return Graph("ladder", labels, edges, frozenset(ntscd), frozenset(), labels[0])


def nested_loops(depth: int, body: int, rng: random.Random) -> Graph:
    """``depth`` while loops, each nested in the middle of the body of the
    one around it; bodies are paths of about ``body`` nodes.  Structured, so
    reducible, so DOD is empty (NTSCD has no closed form here)."""
    labels: list[str] = []
    edges: list[Edge] = []

    def fresh(prefix: str) -> str:
        lab = f"{prefix}{len(labels):04d}"
        labels.append(lab)
        return lab

    def path(length: int) -> list[str]:
        nodes = [fresh("b") for _ in range(length)]
        edges.extend(zip(nodes, nodes[1:]))
        return nodes

    def loop(d: int) -> tuple[str, str]:
        header = fresh("h")
        split = rng.randint(body // 3, 2 * body // 3)
        first = path(split)
        last_of_body = first[-1]
        if d > 1:
            inner_in, inner_out = loop(d - 1)
            edges.append((last_of_body, inner_in))
            last_of_body = inner_out
        rest = path(body - split)
        edges.append((last_of_body, rest[0]))
        edges.append((header, first[0]))
        edges.append((rest[-1], header))
        exit_node = fresh("e")
        edges.append((header, exit_node))
        return header, exit_node

    entry = fresh("s")
    head, exit_node = loop(depth)
    edges.append((entry, head))
    tail = path(body // 2)
    edges.append((exit_node, tail[0]))
    return Graph("nested_loops", labels, edges, None, frozenset(), entry)


def _arc(start: int, stop: int, n: int) -> list[int]:
    """Cycle positions from ``start`` up to, not including, ``stop``."""
    return [(start + i) % n for i in range((stop - start) % n or n)]


def _cycle_dod(p: str, first: set[int], second: set[int], cycle: list[str]) -> set[tuple[str, str, str]]:
    """DOD triples of a branch ``p`` whose all-paths set is itself plus the
    whole cycle, given the cycle positions each branch enters first.

    The branch decides an order exactly when its two entry sets are disjoint
    and each forms one run around the cycle; the dependent pairs are then
    drawn across the two arcs from the end of one run to the start of the
    other.
    """
    if not first or not second or first & second:
        return set()
    marks = sorted([(x, 1) for x in first] + [(x, 2) for x in second])
    changes = [i for i in range(len(marks)) if marks[i][1] != marks[i - 1][1]]
    if len(changes) != 2:
        return set()
    n = len(cycle)
    arcs = [_arc(marks[i - 1][0], marks[i][0], n) for i in changes]
    out = set()
    for a in arcs[0]:
        for b in arcs[1]:
            x, y = cycle[a], cycle[b]
            out.add((p, x, y) if x < y else (p, y, x))
    return out


def _fed_relations(g: Graph) -> None:
    """Fill in NTSCD and DOD of a cycle fed by an acyclic part.

    Every maximal path from an off-cycle node ends circling the cycle, so
    its all-paths set is itself plus the cycle: an off-cycle branch controls
    exactly its off-cycle successors, and its DOD follows from the cycle
    positions each successor enters first.
    """
    pos = {c: i for i, c in enumerate(g.cycle)}
    succs: dict[str, list[str]] = {}
    for a, b in g.edges:
        succs.setdefault(a, []).append(b)
    entries: dict[str, set[int]] = {}

    def entry_set(v: str) -> set[int]:
        if v in pos:
            return {pos[v]}
        if v not in entries:
            entries[v] = set().union(*(entry_set(t) for t in succs[v]))
        return entries[v]

    ntscd = set()
    dod: set[tuple[str, str, str]] = set()
    for p, ts in succs.items():
        if p in pos or len(ts) != 2 or ts[0] == ts[1]:
            continue
        ntscd.update((p, t) for t in ts if t not in pos)
        dod |= _cycle_dod(p, entry_set(ts[0]), entry_set(ts[1]), g.cycle)
    g.ntscd = frozenset(ntscd)
    g.dod = frozenset(dod)


def fed_cycle(length: int, feeders: int, rng: random.Random, fig7_every: int = 4) -> Graph:
    """A cycle of ``length`` nodes fed by ``feeders`` branches, in seeded
    order, behind a balanced binary dispatch tree rooted at the start node.

    A direct feeder enters the cycle at c0 and at a position drawn from its
    own stratum of the cycle, so the total DOD size barely depends on the
    seed.  Every ``fig7_every``-th feeder instead branches to two
    intermediate branches as in fig7 (c0 and x via one, y and z via the
    other, 0 < y < z < x).  Every feeder reaches c0, so the entry sets of
    any dispatch node's two subtrees overlap and the tree itself carries no
    DOD.
    """
    width = len(str(length - 1))
    cycle = [f"c{i:0{width}d}" for i in range(length)]
    edges: list[Edge] = [(cycle[i], cycle[(i + 1) % length]) for i in range(length)]
    labels: list[str] = []
    roots = []
    for j in range(feeders):
        q = f"q{j:03d}"
        labels.append(q)
        roots.append(q)
        if fig7_every and j % fig7_every == fig7_every - 1:
            u, w = f"u{j:03d}", f"w{j:03d}"
            labels += [u, w]
            jitter = max(1, length // 16)
            y = length // 8 + rng.randrange(jitter)
            z = length // 2 + rng.randrange(jitter)
            x = 7 * length // 8 + rng.randrange(jitter)
            edges += [(q, u), (q, w), (u, cycle[0]), (u, cycle[x]), (w, cycle[y]), (w, cycle[z])]
        else:
            lo = 1 + (length - 1) * j // feeders
            hi = 1 + (length - 1) * (j + 1) // feeders
            edges += [(q, cycle[0]), (q, cycle[rng.randrange(lo, max(lo + 1, hi))])]
    rng.shuffle(roots)
    tree: list[str] = []

    def dispatch(items: list[str]) -> str:
        if len(items) == 1:
            return items[0]
        t = f"t{len(tree):03d}"
        tree.append(t)
        k = len(items) // 2
        edges.append((t, dispatch(items[:k])))
        edges.append((t, dispatch(items[k:])))
        return t

    start = dispatch(roots)
    return Graph("fed_cycle", tree + labels + cycle, edges, start=start, cycle=cycle)

