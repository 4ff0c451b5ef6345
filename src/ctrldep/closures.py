"""Strongly control-closed sets and their closure.

A node set is strongly control-closed when every outside node reachable
from it either can never return to the set, or is forced back into it (all
maximal paths hit the set) through a unique first-reachable element.  The
closure of a seed set is computed by pulling in predicates backward over
the NTSCD and DOD relations; for graphs whose nodes are all reachable from
a distinguished start node inside the seed, that closure is exactly the
minimal strongly control-closed superset.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable

from .cfg import Cfg, first_hits, reach, reachable_set
from .coloring import Coloring
from .dod import DodRelation, dod_and_ntscd
from .ntscd import NtscdRelation


class ClosureSpecError(ValueError):
    """The closure request violates its preconditions (start membership or
    total reachability)."""


@dataclass(frozen=True)
class ClosureSpec:
    """Closure request: seed set ``w`` and the distinguished start node."""

    w: frozenset[str]
    start: str


@dataclass(frozen=True)
class ClosureVerdict:
    """Checker outcome; on failure, ``witness`` is (node, violation) where
    the violation is "escapes-then-returns" (the node can reach the set but
    is not forced to) or "theta-ambiguous" (more than one first-reachable
    element)."""

    closed: bool
    witness: tuple[str, str] | None = None


def theta(g: Cfg, v: str, vset: Iterable[str]) -> frozenset[str]:
    """First-reachable members of ``vset`` from ``v`` via outside nodes."""
    inside = {g.index[x] for x in vset}
    vi = g.index[v]
    if vi in inside:
        raise ValueError(f"{v!r} is a member of the set")
    return frozenset(g.labels[i] for i in first_hits(g, (vi,), inside))


def is_strongly_control_closed(g: Cfg, vset: Iterable[str]) -> ClosureVerdict:
    """Definitional check of strong control-closedness.

    Every outside node reachable from the set must either never reach the
    set again, or lie on the all-paths-return region with at most one
    first-reachable element.
    """
    inside = {g.index[x] for x in vset}
    if not inside:
        return ClosureVerdict(closed=True)
    labels = g.labels
    reachable_from_set = reach(g.succs, inside) - inside
    can_return = reach(g.preds, inside)
    forced = Coloring(g)
    forced.run(inside)
    for v in sorted(reachable_from_set, key=lambda i: labels[i]):
        if v not in can_return:
            continue
        if not forced.is_red(v):
            return ClosureVerdict(closed=False, witness=(labels[v], "escapes-then-returns"))
        if len(first_hits(g, (v,), inside)) > 1:
            return ClosureVerdict(closed=False, witness=(labels[v], "theta-ambiguous"))
    return ClosureVerdict(closed=True)


def dependence_closure(
    g: Cfg,
    w: Iterable[str],
    ntscd: NtscdRelation,
    dod: DodRelation,
) -> frozenset[str]:
    """Least superset of ``w`` closed under both dependence relations.

    A controlling predicate joins when its dependent node is in (NTSCD) or
    when both members of its dependent pair are in (DOD).
    """
    for lab in w:
        if lab not in g.index:
            raise ValueError(f"unknown node {lab!r}")
    controllers_of: dict[str, list[str]] = defaultdict(list)
    for p, n in ntscd:
        controllers_of[n].append(p)
    pair_rules: dict[str, list[tuple[str, str]]] = defaultdict(list)
    for p, a, b in dod:
        pair_rules[a].append((p, b))
        pair_rules[b].append((p, a))
    closure = set(w)
    queue = list(closure)
    while queue:
        x = queue.pop()
        for p in controllers_of.get(x, ()):
            if p not in closure:
                closure.add(p)
                queue.append(p)
        for p, other in pair_rules.get(x, ()):
            if other in closure and p not in closure:
                closure.add(p)
                queue.append(p)
    return frozenset(closure)


def strong_closure(g: Cfg, spec: ClosureSpec) -> frozenset[str]:
    """Minimal strongly control-closed superset of ``spec.w``.

    Requires ``spec.start`` to belong to ``spec.w`` and every node to be
    reachable from it; those are the hypotheses under which closure under
    NTSCD and DOD coincides with strong control-closedness.
    """
    if spec.start not in g.index:
        raise ValueError(f"unknown node {spec.start!r}")
    for lab in spec.w:
        if lab not in g.index:
            raise ValueError(f"unknown node {lab!r}")
    if spec.start not in spec.w:
        raise ClosureSpecError(f"start node {spec.start!r} must belong to the criterion set")
    missing = set(g.labels) - reachable_set(g, spec.start)
    if missing:
        raise ClosureSpecError(
            f"{len(missing)} node(s) unreachable from {spec.start!r}, e.g. {min(missing)!r}"
        )
    dod, ntscd = dod_and_ntscd(g)
    return dependence_closure(g, spec.w, ntscd, dod)
