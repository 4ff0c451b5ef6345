"""Strongly control-closed sets and their closure.

A node set is strongly control-closed when every outside node reachable
from it either can never return to the set, or is forced back into it (all
maximal paths hit the set) through a unique first-reachable element.  The
closure of a seed set under the NTSCD and DOD relations pulls in every
predicate that controls a member, or a pair of members; for graphs whose
nodes are all reachable from a distinguished start node inside the seed,
it is exactly the minimal strongly control-closed superset.

``strong_closure`` computes that closure on demand, without either whole
relation: one backward propagation per node it takes in, in one
``Coloring.controllers`` pass per worklist round, and the DOD blocks of
``dod_new`` (``dod_from_vp_rows``), read once, not expanded into
triples.  It is ``closure_labels`` of ``strong_closure_nodes``, which
works on node indices.
``dependence_closure`` over the whole relations of ``dod_and_ntscd`` is the
reference.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable

from .cfg import Cfg, first_hits, node_indices, reach
from .coloring import Coloring, vp_sets
from .dod import DodRelation, dod_from_vp, dod_from_vp_rows
from .ntscd import NtscdRelation, ntscd_from_vp


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
    inside = set(node_indices(g, vset))
    vi = node_indices(g, (v,))[0]
    if vi in inside:
        raise ValueError(f"{v!r} is a member of the set")
    return frozenset(g.labels[i] for i in first_hits(g, (vi,), inside))


def is_strongly_control_closed(g: Cfg, vset: Iterable[str]) -> ClosureVerdict:
    """Definitional check of strong control-closedness.

    Every outside node reachable from the set must either never reach the
    set again, or lie on the all-paths-return region with at most one
    first-reachable element.
    """
    inside = set(node_indices(g, vset))
    if not inside:
        return ClosureVerdict(closed=True)
    labels = g.labels
    reachable_from_set = reach(g.succs, inside) - inside
    can_return = reach(g.preds, inside)
    forced = set(Coloring(g).run(inside))
    for v in sorted(reachable_from_set, key=lambda i: labels[i]):
        if v not in can_return:
            continue
        if v not in forced:
            return ClosureVerdict(closed=False, witness=(labels[v], "escapes-then-returns"))
        if len(first_hits(g, (v,), inside)) > 1:
            return ClosureVerdict(closed=False, witness=(labels[v], "theta-ambiguous"))
    return ClosureVerdict(closed=True)


def dod_and_ntscd(g: Cfg) -> tuple[DodRelation, NtscdRelation]:
    """Both whole relations, for ``dependence_closure``, from one ``vp_sets`` call."""
    vp = vp_sets(g)
    return dod_from_vp(g, vp), ntscd_from_vp(g, vp)


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
    node_indices(g, w)  # rejects an unknown label
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


def closure_labels(g: Cfg, nodes: Iterable[int]) -> frozenset[str]:
    """The labels of a closure's node indices."""
    labels = g.labels
    return frozenset(labels[i] for i in nodes)


def strong_closure_nodes(g: Cfg, spec: ClosureSpec) -> list[int]:
    """Minimal strongly control-closed superset of ``spec.w``, as node indices.

    Requires ``spec.start`` to belong to ``spec.w`` and every node to be
    reachable from it; those are the hypotheses under which closure under
    NTSCD and DOD coincides with strong control-closedness.

    A worklist over the closure, in rounds: each round makes one
    ``Coloring.controllers`` pass over the nodes that joined in the last,
    one O(|E|) propagation per node, whose predicates with exactly one
    member successor control it; the first pass finds, in O(|V| + |E|),
    the nodes a predicate reaches, the only ones whose in-edges the passes
    walk.  For DOD, p joins once the closure holds a node of each of the
    two segments of p's block in ``dod_from_vp_rows``, read once before the
    worklist starts: two first-hit searches and O(|C|) per predicate
    feeding a cycle C, inside the O(|V|^2) per round of ``vp_sets``.  Beyond that,
    O(|closure| * |E|).
    """
    start = node_indices(g, (spec.start,))[0]
    w = node_indices(g, spec.w)
    if spec.start not in spec.w:
        raise ClosureSpecError(f"start node {spec.start!r} must belong to the criterion set")
    reached = reach(g.succs, (start,))
    if len(reached) < len(g):
        missing = [lab for i, lab in enumerate(g.labels) if i not in reached]
        raise ClosureSpecError(
            f"{len(missing)} node(s) unreachable from {spec.start!r}, e.g. {min(missing)!r}"
        )
    vp = vp_sets(g)
    watch: dict[int, list[tuple[int, int]]] = defaultdict(list)  # node -> (predicate, segment bit)
    for p, m_segment, o_segment in dod_from_vp_rows(g, vp):
        for entry, segment in (((p, 1), m_segment), ((p, 2), o_segment)):
            for y in segment:
                watch[y].append(entry)
    held = [0] * len(g)  # per predicate, the bits of the segments the closure holds a node of
    inside = bytearray(len(g))
    queue: list[int] = []

    def join(x: int) -> None:
        if not inside[x]:
            inside[x] = 1
            queue.append(x)

    for x in w:
        join(x)
    coloring = Coloring(g)
    while queue:
        batch = queue[:]
        queue.clear()
        for p, _ in coloring.controllers(batch):
            join(p)
        for x in batch:
            for p, bit in watch.get(x, ()):
                held[p] |= bit
                if held[p] == 3:
                    join(p)
    return [i for i, flag in enumerate(inside) if flag]


def strong_closure(g: Cfg, spec: ClosureSpec) -> frozenset[str]:
    """``strong_closure_nodes`` as labels."""
    return closure_labels(g, strong_closure_nodes(g, spec))
