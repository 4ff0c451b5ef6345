"""Brute-force reference implementations of the maximal-path semantics.

These are the ground truth the fast algorithms are tested against, so they
deliberately share no propagation machinery with the rest of the package:
everything here is plain reachability plus cycle detection on explicit
subgraphs.  Do not import the coloring engine into this module; the test
suite enforces that.

Whether a maximal path avoiding a node set exists is decided structurally:
after deleting the avoided nodes, such a path exists exactly when the
start can reach either a node with no successors in the original graph
(a finite maximal path) or a cycle (an infinite one).

``oracle_ntscd``, ``oracle_dod`` and ``oracle_relations`` only ever avoid
one node, so each call builds the tables of every deleted node x in one
fixpoint and reads every query from them.  Node v gets one int of n
fields of n + 1 bits: the low n bits of field x hold the nodes v reaches
in G - x, and its top bit is a guard that the reach never sets.  v
escapes x when that field holds a node without successors in G or a
node that reaches itself in G - x.  A field holds at most 2^n - 1, so
adding 2^n - 1 to it sets its guard exactly when it is not zero and
carries no further: one addition asks "is the field non-zero?" of all n
fields.  Nothing is kept across calls.  The per-query predicates
``oracle_exists_maximal_avoiding`` and ``oracle_first_before`` keep their
own reach search and cycle search: ``oracle_min_closure`` avoids node sets,
which the one-node tables do not cover, and the tests compare the tables
with the per-query answers, so each computation vouches for the other.

All operations refuse graphs above a small node budget; they exist for
correctness anchoring, not performance.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

from .cfg import Cfg, node_indices, predicate_indices

ORACLE_MAX_NODES = 64
MIN_CLOSURE_MAX_NODES = 10


class BudgetError(ValueError):
    """Input graph exceeds the oracle's node budget."""


def _check_budget(g: Cfg, limit: int) -> None:
    if len(g.labels) > limit:
        raise BudgetError(f"graph has {len(g.labels)} nodes; oracle budget is {limit}")


def _reach(g: Cfg, start: int, banned: frozenset[int]) -> set[int]:
    if start in banned:
        return set()
    seen = {start}
    stack = [start]
    while stack:
        for t in g.succs[stack.pop()]:
            if t not in banned and t not in seen:
                seen.add(t)
                stack.append(t)
    return seen


def _has_cycle(g: Cfg, nodes: set[int]) -> bool:
    """Cycle detection (DFS back edge) on the subgraph induced by ``nodes``."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {v: WHITE for v in nodes}
    for root in nodes:
        if color[root] != WHITE:
            continue
        stack: list[tuple[int, int]] = [(root, 0)]
        color[root] = GRAY
        while stack:
            v, i = stack.pop()
            targets = [t for t in g.succs[v] if t in nodes]
            if i < len(targets):
                stack.append((v, i + 1))
                w = targets[i]
                if color[w] == GRAY:
                    return True
                if color[w] == WHITE:
                    color[w] = GRAY
                    stack.append((w, 0))
            else:
                color[v] = BLACK
    return False


def _exists_maximal_avoiding_set(g: Cfg, m: int, avoided: frozenset[int]) -> bool:
    """Is there a maximal path from ``m`` that never touches ``avoided``?"""
    if m in avoided:
        return False
    reached = _reach(g, m, avoided)
    if any(len(g.succs[x]) == 0 for x in reached):
        return True
    return _has_cycle(g, reached)


def oracle_exists_maximal_avoiding(g: Cfg, m: str, n: str) -> bool:
    """Is there a maximal path from ``m`` that does not contain ``n``?"""
    _check_budget(g, ORACLE_MAX_NODES)
    mi, ni = node_indices(g, (m, n))
    return _exists_maximal_avoiding_set(g, mi, frozenset((ni,)))


def _avoid_tables(g: Cfg) -> tuple[int, list[int], list[int]]:
    """The field width w = n + 1 and, for each node v, two ints of n
    fields of w bits.  Field x of ``reach[v]`` holds the nodes v reaches
    without touching x, v itself included; field v is 0.  ``escape[v]``
    sets only guards: that of field x when v has a maximal path that
    avoids x.  Both lists are empty on a graph without predicates, which
    asks no query.

    A pass sets reach[v] to ``rep`` (bit v in every field) OR its
    successors' reach, and ``keep`` clears field v, so x cuts every path
    through it.  v reaches itself in G - x when field x of its successors'
    OR holds v; such nodes and the sinks are the ``ends``, and adding
    ``low`` (2^n - 1 in every field) to ``reach[v] & ends`` sets the guard
    of each field x that v escapes."""
    n = len(g.labels)
    w = n + 1
    if not predicate_indices(g):
        return w, [], []
    succs = g.succs
    field = (1 << n) - 1
    ones = sum(1 << x * w for x in range(n))
    low = ones * field
    nodes = [(v, ones << v, low ^ field << v * w, succs[v]) for v in _postorder(g)]
    reach = [0] * n
    # No reach holds x in field x, so neither a sink x nor a cycle
    # through x ends a path in G - x.  Reach only grows, so ``ends`` gathers over the
    # passes what the last one alone would give.
    ends = ones * sum(1 << v for v in range(n) if not succs[v])
    # Successors come first in postorder, so an acyclic part settles in
    # one pass; passes repeat until no field changes.
    changed = True
    while changed:
        changed = False
        for v, rep, keep, ss in nodes:
            m = 0
            for t in ss:
                m |= reach[t]
            ends |= m & rep
            m = (m | rep) & keep
            if m != reach[v]:
                reach[v] = m
                changed = True
    guard = ones << n
    return w, reach, [((r & ends) + low) & guard for r in reach]


def _postorder(g: Cfg) -> list[int]:
    """Every node, each after the nodes its depth-first search reached from
    it first."""
    out: list[int] = []
    seen: set[int] = set()
    for v in range(len(g.labels)):
        if v not in seen:
            _visit(g, v, seen, out)
    return out


def _visit(g: Cfg, v: int, seen: set[int], out: list[int]) -> None:
    # Recursion is safe under the oracle's node budget; a module-level
    # function, unlike a nested one, leaves no reference cycle behind.
    seen.add(v)
    for t in g.succs[v]:
        if t not in seen:
            _visit(g, t, seen, out)
    out.append(v)


def _ntscd(g: Cfg, w: int, escape: list[int]) -> frozenset[tuple[str, str]]:
    labels = g.labels
    out = set()
    for p in predicate_indices(g):
        s1, s2 = g.succs[p]
        # Field x's guard: on all maximal paths from exactly one successor.
        m = escape[s1] ^ escape[s2]
        while m:
            bit = m & -m
            out.add((labels[p], labels[(bit.bit_length() - 1) // w]))
            m ^= bit
    return frozenset(out)


def _dod(g: Cfg, w: int, reach: list[int], escape: list[int]) -> frozenset[tuple[str, str, str]]:
    labels = g.labels
    n = len(labels)
    field = (1 << n) - 1
    out = set()
    for p in predicate_indices(g):
        s1, s2 = g.succs[p]
        r1, r2 = reach[s1], reach[s2]
        e1, e2, ep = escape[s1] >> n, escape[s2] >> n, escape[p] >> n
        # For each a != p on all maximal paths from p, masks whose bit b
        # says that all maximal paths from s1 (fb1) or s2 (fb2) contain a
        # before any b: none avoids a, and s reaches no b in G - a.
        fb1, fb2 = {}, {}
        for a in range(n):
            k = a * w
            if a != p and not ep >> k & 1:
                fb1[a] = 0 if e1 >> k & 1 else field ^ (r1 >> k & field)
                fb2[a] = 0 if e2 >> k & 1 else field ^ (r2 >> k & field)
        for a, b in combinations(fb1, 2):
            if (fb1[a] >> b & 1 and fb2[b] >> a & 1) or (fb1[b] >> a & 1 and fb2[a] >> b & 1):
                x, y = labels[a], labels[b]
                out.add((labels[p], x, y) if x < y else (labels[p], y, x))
    return frozenset(out)


def oracle_relations(g: Cfg) -> dict[str, frozenset]:
    """NTSCD and DOD, as ``oracle_ntscd`` and ``oracle_dod`` return them,
    read from one set of per-node tables."""
    _check_budget(g, ORACLE_MAX_NODES)
    w, reach, escape = _avoid_tables(g)
    return {"ntscd": _ntscd(g, w, escape), "dod": _dod(g, w, reach, escape)}


def oracle_ntscd(g: Cfg) -> frozenset[tuple[str, str]]:
    """NTSCD by direct evaluation of its definition.

    (p, n) holds when one successor of p forces n onto all maximal paths
    while the other admits a maximal path avoiding n.
    """
    _check_budget(g, ORACLE_MAX_NODES)
    w, _, escape = _avoid_tables(g)
    return _ntscd(g, w, escape)


def oracle_first_before(g: Cfg, s: str, a: str, b: str) -> bool:
    """Do all maximal paths from ``s`` contain ``a`` before any occurrence of ``b``?"""
    if a == b:
        raise ValueError("'a' and 'b' must differ")
    _check_budget(g, ORACLE_MAX_NODES)
    si, ai, bi = node_indices(g, (s, a, b))
    if _exists_maximal_avoiding_set(g, si, frozenset((ai,))):
        return False
    if si == bi:
        return False
    if si == ai:
        return True
    return bi not in _reach(g, si, frozenset((ai,)))


def oracle_dod(g: Cfg) -> frozenset[tuple[str, str, str]]:
    """DOD by triple enumeration over its three defining conditions."""
    _check_budget(g, ORACLE_MAX_NODES)
    return _dod(g, *_avoid_tables(g))


def _theta_bfs(g: Cfg, v: int, inside: frozenset[int]) -> set[int]:
    """First members of ``inside`` reachable from ``v`` via outside nodes."""
    hits: set[int] = set()
    seen = {v}
    stack = [v]
    while stack:
        for t in g.succs[stack.pop()]:
            if t in inside:
                hits.add(t)
            elif t not in seen:
                seen.add(t)
                stack.append(t)
    return hits


def _is_strongly_closed(g: Cfg, candidate: frozenset[int], reach_masks: list[int]) -> bool:
    if not candidate:
        return True
    from_set = 0
    for v in candidate:
        from_set |= reach_masks[v]
    for v in range(len(g.labels)):
        if v in candidate or not (from_set >> v) & 1:
            continue
        reaches_back = any((reach_masks[v] >> w) & 1 for w in candidate)
        if not reaches_back:
            continue
        if _exists_maximal_avoiding_set(g, v, candidate):
            return False
        if len(_theta_bfs(g, v, candidate)) > 1:
            return False
    return True


@dataclass(frozen=True)
class MinClosureResult:
    """A minimum-cardinality strongly control-closed superset, with a flag
    telling whether several inclusion-minimal closed supersets exist."""

    nodes: frozenset[str]
    ambiguous: bool
    minimal_sets: tuple[frozenset[str], ...]


def oracle_min_closure(g: Cfg, w: Iterable[str]) -> MinClosureResult:
    """Smallest strongly control-closed superset of ``w`` by enumeration."""
    _check_budget(g, MIN_CLOSURE_MAX_NODES)
    n = len(g.labels)
    base = frozenset(node_indices(g, w))
    free = sorted(set(range(n)) - base)
    reach_masks = []
    for v in range(n):
        mask = 0
        for x in _reach(g, v, frozenset()):
            mask |= 1 << x
        reach_masks.append(mask)
    candidates = (base.union(extra) for r in range(len(free) + 1) for extra in combinations(free, r))
    closed = [c for c in candidates if _is_strongly_closed(g, c, reach_masks)]
    minimal = [c for c in closed if not any(o < c for o in closed)]
    best = min(closed, key=lambda c: (len(c), sorted(c)))
    to_labels = lambda s: frozenset(g.labels[i] for i in s)
    return MinClosureResult(
        nodes=to_labels(best),
        ambiguous=len(minimal) > 1,
        minimal_sets=tuple(sorted((to_labels(m) for m in minimal), key=sorted)),
    )
