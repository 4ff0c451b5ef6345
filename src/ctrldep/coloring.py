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
``vp_sets`` instead finds the all-paths sets as one parent pointer per node,
with walks that stop at each predicate's meet.

Propagation walks its own growing list of members, never recursion, so
deep graphs are safe.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
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
        R would stop at itself and has none, so it does not propagate.
        O(|E|) per propagating target, the rows it copies per other target,
        and O(1) outside R.
        """
        preds = self._walked
        stamp = self._stamp
        two = self._two
        succs = self.g.succs
        red = self._gen
        rows: list[tuple[int, int]] = []
        append = rows.append
        spans: dict[int, tuple[int, int]] = {}  # a target in R with < 2 out-edges -> its rows[a:b]
        for i, t in enumerate(targets):
            ps = preds[t]
            if not ps:
                # Outside R: no controllers, and no span to record.  A target
                # in R with one in-edge is a predicate's successor, entered
                # from the predicate, or is entered from R, which holds
                # every node reached from one; so none copies from t.
                continue
            start = len(rows)
            if len(ps) == 1 and ps[0] in spans:
                a, b = spans[ps[0]]
                for k in range(a, b):
                    append((rows[k][0], i))
            else:
                red += 2
                touched_list = _propagate([t], preds, stamp, two, red)
                ss = succs[t]
                if len(ss) == 2 and (stamp[ss[0]] == red) != (stamp[ss[1]] == red):
                    append((t, i))
                touched = red - 1
                for m in touched_list:
                    if stamp[m] == touched:
                        append((m, i))
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
    steps: int = field(default=0, init=False, compare=False)  # pointer steps ``vp_sets`` walked

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


_STOP = 1 << 28  # mark of a chain's end, above every generation: ends every walk
_CYCLIC = -1  # fate of a node on a pointer cycle with a predicate on it


def _settle(vp: VpMap, mark: list[int], fate: dict[int, int], a: int) -> None:
    """Record for good the pointer cycle through ``a``.  With no predicate
    on it no pointer of it ever moves, so it is stamped permanent, above
    every generation, with a stamp of its own; else its nodes' fate is
    ``_CYCLIC``, since a node on a pointer cycle stays on one."""
    parent = vp.parent
    cyc = [a]
    y = parent[a]
    while y != a:
        cyc.append(y)
        y = parent[y]
    vp.steps += len(cyc)
    succs = vp.g.succs
    for y in cyc:
        ss = succs[y]
        if ss[0] != ss[-1]:  # a predicate
            for y in cyc:
                fate[y] = _CYCLIC
            return
    stamp = _STOP + 1 + a
    for y in cyc:
        mark[y] = stamp


def _on_cycle(vp: VpMap, mark: list[int], fate: dict[int, int], z: int, stamp: int) -> bool:
    """Whether ``z`` is on a pointer cycle.  Walks chain(z), stamping
    ``stamp``, until it closes a cycle or reaches the chain's end: a node
    with no parent or on a permanent cycle.  Each node walked gets that end
    as its fate; it stays true while the end has no parent, and a later
    walk stops at a node it holds true for.  A cycle closed is settled."""
    if fate.get(z) == _CYCLIC:
        return True
    parent = vp.parent
    path = []
    y = z
    while mark[y] < stamp:
        end = fate.get(y, -1)
        if end >= 0 and (parent[end] < 0 or mark[end] > _STOP):
            break  # chain(y) still ends at end
        mark[y] = stamp
        path.append(y)
        y = parent[y]
    else:
        if mark[y] == stamp:  # closed the cycle through y
            vp.steps += len(path)
            if fate.get(y) != _CYCLIC:
                _settle(vp, mark, fate, y)
            return y == z
        end = y if y >= 0 else path[-1]  # on a permanent cycle, or with no parent
    vp.steps += len(path)
    for y in path:
        fate[y] = end
    return False


def _entry(vp: VpMap, mark: list[int], s: int, z: int, stamp: int) -> int:
    """The first node of chain(s) on the pointer cycle through ``z``, which
    chain(s) reaches."""
    parent = vp.parent
    if mark[z] > _STOP:  # a permanent cycle's nodes share their stamp
        stamp = mark[z]
    y = z
    while mark[y] != stamp:
        mark[y] = stamp
        y = parent[y]
        vp.steps += 1
    y = s
    while mark[y] != stamp:
        y = parent[y]
        vp.steps += 1
    return y


def vp_sets(g: Cfg) -> VpMap:
    """All-paths sets as parent pointers.  A sink or a self-loop has no
    parent, a node with one distinct successor points to it, and a
    predicate v points to the meet of its successors s1 and s2: the first
    node of chain(s2) that is also on chain(s1).  The predicates are
    examined round-robin until one full round of them in a row moves no
    pointer.  An examination moves ``parent[v]`` to the meet unless it is v
    or on chain(parent[v]); that grows vp(v), so the rounds end.
    Re-examining only the direct predecessors of a moved node is not
    enough: a change deep in a chain moves meets further upstream.

    Each examination walks only as far as the meet.  Two fingers step down
    chain(s1) and chain(s2) in turn, each stamping the nodes it passes,
    until one steps on the other's stamp: the meet, unless that node is on
    a pointer cycle, when the meet is where chain(s2) enters the cycle.  A
    finger that reaches the end of its chain, or its own stamp, leaves the
    other to walk on alone.  So an examination takes at most about twice
    the longer of the two chains' runs up to the meet (up to their ends
    when they have none), not all of chain(s1).  A one-node chain needs no
    finger: the other chain meets it only by ending at it.

    Sets only grow, so ``parent[v]`` stays on both chains, at or after the
    meet x on chain(s2); x is on chain(parent[v]) exactly when it is
    ``parent[v]`` or lies on a pointer cycle, and a node on a pointer cycle
    stays on one.  Only predicates' pointers move, so a pointer cycle with
    no predicate on it is a permanent root: the first walk to close it
    stamps it above every generation, and later walks stop at its first
    node; two chains that stop in the same one meet where chain(s2)
    entered it.  Whether a meet is on a cycle is read off a walk to its
    chain's end, remembered per node while that end stays a root.

    ``VpMap.steps`` counts the pointer steps of every walk.
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
    stop = _STOP
    mark = [0] * (n + 1)
    mark[n] = stop  # read as mark[-1]: a chain's end stops the fingers
    fate: dict[int, int] = {}  # node -> its chain's end when last walked, or _CYCLIC
    gen = 0  # an examination stamps gen and gen + 1 (the fingers), gen + 2 (cycle tests)
    steps = 0
    k = len(branching)
    quiet = 0  # predicates examined since the last move
    while quiet < k:
        if gen + 3 * k + 3 > stop:  # keep a round's stamps below the permanent ones
            for i in range(n):
                if mark[i] < stop:
                    mark[i] = 0
            gen = 0
        for v in branching:
            if quiet == k:
                break
            quiet += 1
            s1, s2 = succs[v]
            if parent[s1] < 0:
                if parent[s2] < 0:
                    continue  # two one-node chains never meet
                s, t = s2, s1
            elif parent[s2] < 0:
                s, t = s1, s2
            else:  # both chains go on past their first node
                gen += 3
                g1 = gen + 1
                a = s1
                b = s2
                # Fingers in turn, chain(s1) stamping gen and chain(s2) g1,
                # until one stops at x, on a stamp or at its chain's end.
                while mark[a] < gen:
                    mark[a] = gen
                    a = parent[a]
                    if mark[b] >= gen:
                        x, sx, w, sw = b, g1, a, gen
                        steps += 1
                        break
                    mark[b] = g1
                    b = parent[b]
                    steps += 2
                else:
                    x, sx, w, sw = a, gen, b, g1
                mx = mark[x]
                if mx != sw:  # x's chain is walked whole, so the other finger goes on alone
                    if mx == sx and fate.get(x) != _CYCLIC:
                        _settle(vp, mark, fate, x)
                        mx = mark[x]
                    while mark[w] < gen:
                        mark[w] = sw
                        w = parent[w]
                        steps += 1
                    mw = mark[w]
                    if mw != sx:
                        if mw == mx > stop and parent[v] < 0:
                            # One permanent cycle, so the meet is where chain(s2)
                            # entered it; a parent already set is on it too.
                            parent[v] = w if sx == gen else x
                            quiet = 0
                        continue
                    x = w
                # x is on both chains: the meet, unless x is on a pointer cycle
                q = parent[v]
                if x == v or x == q:
                    continue
                if parent[x] >= 0 and _on_cycle(vp, mark, fate, x, gen + 2):
                    if q >= 0:
                        continue
                    x = _entry(vp, mark, s2, x, gen + 2)
                    if x == v:
                        continue
                parent[v] = x
                quiet = 0
                continue
            # chain(t) is t alone, so chain(s) meets it only by ending at t
            gen += 3
            mark[t] = gen
            while s >= 0 and mark[s] < gen:
                mark[s] = gen
                s = parent[s]
                steps += 1
            if s == t:
                if t != v and parent[v] != t:
                    parent[v] = t
                    quiet = 0
            elif s >= 0 and mark[s] == gen and fate.get(s) != _CYCLIC:
                _settle(vp, mark, fate, s)
    vp.steps += steps
    return vp
