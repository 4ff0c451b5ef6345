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

All operations refuse graphs above a small node budget; they exist for
correctness anchoring, not performance.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
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


def oracle_ntscd(g: Cfg) -> frozenset[tuple[str, str]]:
    """NTSCD by direct evaluation of its definition.

    (p, n) holds when one successor of p forces n onto all maximal paths
    while the other admits a maximal path avoiding n.
    """
    _check_budget(g, ORACLE_MAX_NODES)
    labels = g.labels

    @cache
    def on_all(s: int, n: int) -> bool:
        return not _exists_maximal_avoiding_set(g, s, frozenset((n,)))

    out = set()
    for p in predicate_indices(g):
        s1, s2 = g.succs[p]
        for n in range(len(labels)):
            if on_all(s1, n) != on_all(s2, n):
                out.add((labels[p], labels[n]))
    return frozenset(out)


def oracle_first_before(g: Cfg, s: str, a: str, b: str) -> bool:
    """Do all maximal paths from ``s`` contain ``a`` before any occurrence of ``b``?"""
    if a == b:
        raise ValueError("'a' and 'b' must differ")
    _check_budget(g, ORACLE_MAX_NODES)
    si, ai, bi = node_indices(g, (s, a, b))
    return _first_before(g, si, ai, bi)


def _first_before(g: Cfg, s: int, a: int, b: int) -> bool:
    if _exists_maximal_avoiding_set(g, s, frozenset((a,))):
        return False
    if s == b:
        return False
    if s == a:
        return True
    return b not in _reach(g, s, frozenset((a,)))


def oracle_dod(g: Cfg) -> frozenset[tuple[str, str, str]]:
    """DOD by triple enumeration over its three defining conditions."""
    _check_budget(g, ORACLE_MAX_NODES)
    labels = g.labels
    n = len(labels)

    @cache
    def on_all(s: int, x: int) -> bool:
        return not _exists_maximal_avoiding_set(g, s, frozenset((x,)))

    @cache
    def fb(s: int, x: int, y: int) -> bool:
        return _first_before(g, s, x, y)

    out = set()
    for p in predicate_indices(g):
        s1, s2 = g.succs[p]
        for a, b in combinations(range(n), 2):
            if a == p or b == p:
                continue
            if not (on_all(p, a) and on_all(p, b)):
                continue
            if (fb(s1, a, b) and fb(s2, b, a)) or (fb(s1, b, a) and fb(s2, a, b)):
                x, y = labels[a], labels[b]
                out.add((labels[p], x, y) if x < y else (labels[p], y, x))
    return frozenset(out)


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
