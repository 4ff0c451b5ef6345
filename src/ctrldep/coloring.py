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

from dataclasses import dataclass, field
from functools import cached_property
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
        -1 when ``parent[p]`` is on no root cycle or ``p`` is on it.  O(1)
        once ``root_cycle`` is built, by one O(|V|) walk per map; a call
        whose ``parent[p]``, or its parent, is -1 or ``p`` does not build
        it."""
        q = self.parent[p]
        if q < 0 or self.parent[q] in (-1, p) or p in self.root_cycle:
            return -1
        return self.root_cycle.get(q, -1)

    @cached_property
    def root_cycle(self) -> dict[int, int]:
        """Each node on a root cycle, mapped to the cycle's least node.  A
        walk up the pointers from each node marks the nodes it passes with
        its start, and stops at a chain's end, at a node an earlier walk
        passed, or at one of its own nodes.  The first walk to reach a
        cycle passes all of it and stops on its own node, so that walk
        closes the cycle.  O(|V|)."""
        parent = self.parent
        walk = [-1] * len(parent)  # the start of the walk that passed a node
        root_cycle: dict[int, int] = {}
        for v in range(len(parent)):
            y = v
            while y >= 0 and walk[y] < 0:
                walk[y] = v
                y = parent[y]
            if y >= 0 and walk[y] == v:  # closed the cycle through y
                cycle = list(self.chain(y))
                least = min(cycle)
                for x in cycle:
                    root_cycle[x] = least
        return root_cycle

    @cached_property
    def index_sets(self) -> list[frozenset[int]]:
        """Every vp(v) as an index set, built on first access: the nodes of
        each root cycle share one set of the cycle, and every other set is
        built once from its parent's, vp(v) = {v} | vp(parent[v]).  O(|V|)
        pointer steps after ``root_cycle``, plus the sizes of the sets
        built."""
        parent = self.parent
        sets: list = [None] * len(parent)
        for x, least in self.root_cycle.items():
            if sets[least] is None:
                sets[least] = frozenset(self.chain(least))
            sets[x] = sets[least]
        for v in range(len(parent)):
            path = []
            y = v
            while y >= 0 and sets[y] is None:  # up to a chain's end or a built set
                path.append(y)
                y = parent[y]
            base: frozenset[int] = sets[y] if y >= 0 else frozenset()
            for x in reversed(path):
                sets[x] = base = base | {x}
        return sets

    def __getitem__(self, label: str) -> frozenset[str]:
        return frozenset(self.g.labels[i] for i in self.chain(self.g.index[label]))


# A chain's end, and the base of the permanent stamps, above every generation:
# each examination adds 3 to gen, so reaching it takes about 1.5e18 of them.
_STOP = 1 << 62


def _settle(vp: VpMap, mark: list[int], a: int) -> None:
    """Stamp the pointer cycle through ``a`` permanent, above every
    generation, with a stamp of its own: no pointer of a pointer cycle
    ever moves (the cycle lemma, in ``vp_sets``)."""
    parent = vp.parent
    stamp = _STOP + 1 + a
    y = a
    while mark[y] != stamp:
        mark[y] = stamp
        y = parent[y]
        vp.steps += 1


def _end(vp: VpMap, mark: list[int], fate: dict[int, int], z: int, stamp: int) -> int:
    """The end of chain(z): its node with no parent, or a node on the
    permanent cycle it reaches.  Walks chain(z), stamping ``stamp``, to the
    first such node, a node whose fate is still one, or its own stamp, where
    it settles the cycle it closed.  The nodes walked take the end as fate."""
    parent = vp.parent
    path = []
    while mark[z] < stamp and parent[z] >= 0:
        end = fate.get(z, -1)
        if end >= 0 and (parent[end] < 0 or mark[end] > _STOP):
            z = end  # chain(z) still ends at end
            break
        mark[z] = stamp
        path.append(z)
        z = parent[z]
    vp.steps += len(path)
    if mark[z] == stamp:  # closed the cycle through z
        _settle(vp, mark, z)
    else:
        for y in path:
            fate[y] = z
    return z


def _entry(vp: VpMap, mark: list[int], s: int, z: int) -> int:
    """The first node of chain(s) on the permanent cycle through ``z``,
    which chain(s) reaches: the first that has ``z``'s stamp."""
    parent = vp.parent
    stamp = mark[z]
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
    when they have none), not all of chain(s1).

    Sets only grow, so ``parent[v]`` stays on both chains, at or after the
    meet x on chain(s2); x is on chain(parent[v]) exactly when it is
    ``parent[v]`` or lies on a pointer cycle.  No pointer of a pointer
    cycle ever moves (below), so the first walk to close one stamps it
    permanent, above every generation, and later walks stop at its first
    node; two chains that stop in the same one meet where chain(s2)
    entered it.  One walk to a chain's end, ``_end``, tells whether x is
    on a cycle, as the walk from x closes it, and whether chain(s) ends at
    t when chain(t) is t alone, the only way the two meet.  It stops on a
    node with no parent, where a finger steps past it, and remembers each
    node's end; later walks stop at a node whose end is still a root.  That
    stays true: a permanent cycle never moves, and an end with no parent
    changes only when it gets one, as a move keeps the old parent on the
    new chain.

    The cycle lemma: a pointer cycle C is P(c), the nodes on every maximal
    path from c, for each c on C.  So no pointer of C moves: by (a) below
    a predicate c's meet is in P(c), so on C = chain(parent[c]).  Two facts
    hold at the start and after every move.  (a) ``parent[v]`` is in P(v),
    as the meet is on both successors' chains.  (b) No node z but v is
    reached before ``parent[v]`` on every maximal path from v.  Else z is
    reached before the meet x on every path from s1 and from s2.  Down
    either chain, at each node w before x, unless w is z, (b) gives a path
    from w that reaches parent[w] no later than z, so z is parent[w] or is
    reached before x on every path from parent[w].  So z is on both chains
    before x, and the meet is not x.  Now by (a) every path from c on C
    visits all of D = P(c) over and over.  After a node d of C, the first
    node of D is the same on every path.  It is not d, or a loop back to d
    repeated would miss the rest of D.  Were it d1 on one path and d2 on
    another, every path from d1 would reach d2 before d (else a loop
    through d and d1 repeated misses d2), and the other way round, so
    alternating would give a path from d1 that misses d.  By (b) that node
    is parent[d]: the nodes of D a path from c visits are all on C, so
    C = D.

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
    fate: dict[int, int] = {}  # node -> its chain's end when last walked
    gen = 0  # an examination stamps gen and gen + 1 (the fingers), gen + 2 (cycle tests)
    steps = 0
    k = len(branching)
    quiet = 0  # predicates examined since the last move
    while quiet < k:
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
                    if mx == sx:  # closed a pointer cycle
                        _settle(vp, mark, x)
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
                _end(vp, mark, fate, x, gen + 2)
                if mark[x] > stop:
                    if q >= 0:
                        continue
                    x = _entry(vp, mark, s2, x)
                    if x == v:
                        continue
                parent[v] = x
                quiet = 0
                continue
            # chain(t) is t alone, so chain(s) meets it only by ending at t
            end = parent[s]
            if parent[end] >= 0:
                gen += 3
                end = _end(vp, mark, fate, s, gen)
            else:
                steps += 1
            if end == t and t != v and parent[v] != t:
                parent[v] = t
                quiet = 0
    vp.steps += steps
    return vp
