"""Backward propagation of "every maximal path passes through the targets".

The kernel seeds a target set and walks reverse edges: a node joins the
result once all of its out-edges lead to members (and it has at least one
out-edge).  Out-degree is at most two, so one stamp per node is all the
state a run needs: a node with one out-edge joins the first time a member
reaches it, and a node with two is stamped "touched" when the first of its
out-edges is found to lead to a member, and joins when the second is.
Every edge is inspected at most once per run.
Stamps are per generation rather than cleared, which keeps repeated runs
over the same graph cheap.  ``run`` walks every in-edge; a ``controllers``
pass, which ``ntscd_new`` makes over every node, walks only in-edges of
nodes that a predicate reaches, since no controller lies above the others,
and a target entered only by an earlier target's only out-edge copies that
target's rows instead of propagating.
``vp_sets`` instead finds the all-paths sets as one parent pointer per node.

Propagation walks its own growing list of members, never recursion, so
deep graphs are safe.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import cycle
from typing import Iterable, Iterator, Sequence

from .cfg import Cfg, predicate_indices


def _propagate(
    red_list: list[int], preds: Sequence[Sequence[int]], stamp: list[int], two: list[bool], red: int
) -> list[int]:
    """One propagation from the distinct seeds in ``red_list``, walking the
    in-edges listed in ``preds``, with stamps ``red`` (a member) and
    ``red - 1`` (touched) above every earlier one.  Appends the members to
    ``red_list`` as they join and returns the touched nodes; those still
    stamped ``red - 1`` have exactly one member successor.

    A member ("red") node is one from which every maximal path hits the
    seeds, unless ``preds`` leaves out in-edges.  The member list is also
    the work queue: each member is appended once and then visits its
    in-edges.  A node with two out-edges is recorded as touched when the
    first of them is found to lead to a member; a node whose two edges
    share a target turns red on the second.

    A plain function, not a method: a ``controllers`` pass calls it once
    per target, and passing the state costs less than reloading it.
    """
    touched = red - 1
    touched_list: list[int] = []
    for t in red_list:
        stamp[t] = red
    for s in red_list:
        for m in preds[s]:
            st = stamp[m]
            if st == red:
                continue
            if st != touched and two[m]:
                stamp[m] = touched
                touched_list.append(m)
            else:
                stamp[m] = red
                red_list.append(m)
    return touched_list


class Coloring:
    """Reusable scratch state for seed-set propagations over one graph.

    A propagation takes two stamp values, ``red`` (a member) and ``red - 1``
    (touched: one of two out-edges leads to a member); each advances the
    generation by two, so every lower stamp means untouched in it.

    Instances are single-invocation-at-a-time scratch; the underlying Cfg
    is immutable and may be shared, so independent instances can run
    concurrently.
    """

    def __init__(self, g: Cfg) -> None:
        self.g = g
        self._two = [len(s) == 2 for s in g.succs]
        self._stamp = [0] * len(g.labels)
        self._gen = 0
        self._last_red: list[int] = []

    def run(self, targets: Iterable[int]) -> list[int]:
        """Propagate from ``targets`` over every in-edge; returns indices of
        all member nodes, each once, in the order they joined."""
        self._gen = red = self._gen + 2
        self._last_red = list(dict.fromkeys(targets))
        _propagate(self._last_red, self.g.preds, self._stamp, self._two, red)
        return self._last_red

    def controllers(self, targets: Iterable[int]) -> list[tuple[int, int]]:
        """NTSCD rows (p, i), one batched pass: predicate p controls the
        i-th target.  Read off one propagation from the target at the
        predicates with exactly one member successor: the target itself, or
        a node the run touched and never made a member.  Rows come grouped
        by target, in target order.

        A target t entered only from an earlier target u of the pass, by
        u's only out-edge, copies u's rows, in their order: t has u's
        controllers.  A maximal path from any node but t hits t iff it hits
        u, since paths reach t only through u and leave u only for t, so
        every node but t is a member of both propagations or of neither.
        And t is a successor of no predicate, u having one out-edge, nor,
        with no self-loop, of itself; so each predicate's successors have
        the same status in both.  Along a chain of such nodes in target
        order, only the first propagates.

        The pass walks in-edges only of R, the nodes some predicate's
        successor reaches, found once per instance in O(|V| + |E|).  R is
        closed under successors and holds every predicate successor, so the
        member and touched status of each predicate's successors, and with
        it each controller, is that of a full propagation; a target outside
        R stops at itself and has none.  O(|E|) per propagating target, the
        rows it copies per other target, and O(1) outside R.
        """
        preds = self._walked
        stamp = self._stamp
        two = self._two
        succs = self.g.succs
        red = self._gen
        rows: list[tuple[int, int]] = []
        spans: dict[int, tuple[int, int]] = {}  # a target with < 2 out-edges -> its rows[a:b]
        for i, t in enumerate(targets):
            start = len(rows)
            ps = preds[t]
            if len(ps) == 1 and ps[0] in spans:
                a, b = spans[ps[0]]
                rows += [(p, i) for p, _ in rows[a:b]]
            else:
                red += 2
                touched_list = _propagate([t], preds, stamp, two, red)
                ss = succs[t]
                if len(ss) == 2 and (stamp[ss[0]] == red) != (stamp[ss[1]] == red):
                    rows.append((t, i))
                if touched_list:
                    rows += [(m, i) for m in touched_list if stamp[m] == red - 1]
            if not two[t]:
                spans[t] = start, len(rows)
        self._gen = red
        return rows

    @cached_property
    def _walked(self) -> list[tuple[int, ...]]:
        """``g.preds`` cut down to R, the nodes reached from some predicate's
        successors: the in-edges of each node of R, and none of any other
        node.  One forward search, O(|V| + |E|), on the first pass."""
        succs = self.g.succs
        preds = self.g.preds
        walked: list[tuple[int, ...]] = [()] * len(succs)
        order: list[int] = []
        for p in self.g.predicate_nodes:
            order += succs[p]
        for v in order:
            if not walked[v]:  # every node of R has an in-edge
                walked[v] = preds[v]
                order += succs[v]
        return walked

    def edge_visits(self) -> int:
        """Reverse-edge inspections made by the last ``run`` (at most |E|);
        ``controllers`` passes do not count.

        Each red node visits each of its in-edges exactly once, and no
        other edges are inspected.
        """
        preds = self.g.preds
        return sum(len(preds[s]) for s in self._last_red)


@dataclass
class VpMap:
    """The set vp(v) of nodes on all maximal paths from v, for every node,
    as one parent pointer per node: vp(v) = {v} | vp(parent[v]), -1 for
    none.  Cycles of pointers are roots shared by all that reach them."""

    g: Cfg
    parent: list[int]

    def chain(self, v: int) -> Iterator[int]:
        """vp(v) in pointer order: v, its parent, and so on, up to a root."""
        parent = self.parent
        seen = set()
        while v >= 0 and v not in seen:
            seen.add(v)
            yield v
            v = parent[v]

    def fed_root(self, p: int) -> int:
        """The root cycle C with vp(p) = {p} | C, named by its least node;
        -1 when ``parent[p]`` is on no root cycle or ``p`` is on it.  O(1),
        and without building the root-cycle map when ``parent[p]`` or its
        parent is -1 or ``p``."""
        q = self.parent[p]
        if q < 0 or self.parent[q] in (-1, p) or p in self.root_cycle:
            return -1
        return self.root_cycle.get(q, -1)

    @cached_property
    def root_cycle(self) -> dict[int, int]:
        """Each node on a root cycle, mapped to the cycle's least node.  The
        cycles are what is left after peeling off, leaves first, every node
        no pointer enters.  O(|V|)."""
        parent = self.parent
        entering = Counter(parent)  # key -1 counts the roots, harmlessly
        leaves = [v for v in range(len(parent)) if not entering[v]]
        while leaves:
            q = parent[leaves.pop()]
            entering[q] -= 1
            if q >= 0 and not entering[q]:
                leaves.append(q)
        root_cycle: dict[int, int] = {}
        for v in range(len(parent)):
            if entering[v] and v not in root_cycle:
                for x in self.chain(v):
                    root_cycle[x] = v
        return root_cycle

    @cached_property
    def index_sets(self) -> list[frozenset[int]]:
        """Every vp(v) as an index set, built on first access."""
        return [frozenset(self.chain(v)) for v in range(len(self.parent))]

    def __getitem__(self, label: str) -> frozenset[str]:
        return frozenset(self.g.labels[i] for i in self.chain(self.g.index[label]))


def vp_sets(g: Cfg) -> VpMap:
    """All-paths sets as parent pointers.  A sink or a self-loop has no
    parent, a node with one distinct successor points to it, and a
    predicate points to the first node of its second successor's chain that
    is also on its first successor's chain.  The predicates are examined
    round-robin until one full round of them in a row moves no pointer; a
    pointer moves only when that grows vp(v), so the rounds end.
    Re-examining only the direct predecessors of a moved node is not
    enough: a change deep in a chain moves meets further upstream.
    """
    n = len(g.labels)
    vp = VpMap(g, [-1] * n)
    parent = vp.parent
    for v, ss in enumerate(g.succs):
        if ss and ss[0] == ss[-1] != v:  # one distinct successor, not v itself
            parent[v] = ss[0]
    # Graphs mostly declare a node before its successors.
    succs = g.succs
    branching = predicate_indices(g)[::-1]
    mark = [0] * n  # stamps: chain(s1) gets gen, the walked part of chain(s2) gen + 1
    gen = 0
    k = len(branching)
    quiet = 0  # predicates examined since the last move
    for v in cycle(branching):
        if quiet == k:
            break
        quiet += 1
        s1, s2 = succs[v]
        if parent[s1] < 0 and parent[s2] < 0:
            continue  # two one-node chains never meet
        gen += 2
        x = s1
        while x >= 0 and mark[x] != gen:
            mark[x] = gen
            x = parent[x]
        x = s2
        while x >= 0 and mark[x] < gen:
            mark[x] = gen + 1
            x = parent[x]
        # Stamp gen + 1 at x: chain(s2) cycled alone.  A meet at v keeps the
        # next shared node; one on the old parent's chain keeps the set.
        if x >= 0 and mark[x] == gen and x != v and x not in vp.chain(parent[v]):
            parent[v] = x
            quiet = 0
    return vp
