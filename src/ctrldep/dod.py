"""Decisive order dependence.

``dod_from_vp_rows`` takes each predicate p whose all-paths set is p
feeding one root cycle of the all-paths pointers (``VpMap.fed_root``),
classifies the cycle nodes by which branch of p reaches them first, and
reads off the two class-crossing cycle segments.  ``dod_from_vp``, behind
``dod_new``, emits every pair drawn across them; the strong closure reads
the same segments once, before its worklist starts.  ``build_ap``,
``compute_v1_v2``, ``unfold_cycle``, ``match_unfolding_pattern`` and
``extract_segments`` are the staged reference, on labels: they project the
graph onto the all-paths set and unfold the cycle the projection forms.

``dod_formula`` is the classic pairwise formula, in its original form
(plain reachability, known to over-approximate) and the repaired form
(membership on all maximal paths).

Both are written once, on node indices: ``dod_from_vp_rows`` and
``dod_formula_rows`` return blocks (p, A, B) of node indices, A and B
disjoint tuples of distinct nodes without p, each pair drawn across them
order-dependent on p.  The block contract, which the ``analyze`` writer
relies on: a node takes its partners that come after it in label order
from at most one block of p, so each pair {a, b} is in at most one block
of p.  ``dod_from_vp_rows`` yields one block per p; ``dod_formula_rows``
one (a,) block per (p, a), holding only the b after a.  A block holds
|A| * |B| triples in |A| + |B| indices, so the cubic relation is never
expanded; the label functions are ``dod_labels`` of the blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import groupby
from typing import Collection, Iterable

from .cfg import Cfg, bit_indices, first_hits, node_indices, predicate_indices, reach
from .coloring import VpMap, vp_sets

DodRelation = frozenset[tuple[str, str, str]]

DodBlocks = list[tuple[int, tuple[int, ...], tuple[int, ...]]]


class ProjectionStructureError(RuntimeError):
    """The projection graph violates the cycle shape implied by a correct
    path set; this signals an internal bug, not bad input."""


@dataclass
class ProjectionGraph:
    """Projection of the graph onto a node set: edges are the paths whose
    interior stays outside the set."""

    p: str
    nodes: tuple[str, ...]
    succ: dict[str, tuple[str, ...]]

    @property
    def edges(self) -> frozenset[tuple[str, str]]:
        return frozenset((a, b) for a, ts in self.succ.items() for b in ts)


@dataclass
class SuccessorClasses:
    """Cycle nodes split by which branch of the predicate reaches them first."""

    v1: frozenset[str]
    v2: frozenset[str]
    u: frozenset[str]


@dataclass
class StripSegments:
    """The two class-crossing cycle segments; every pair drawn across them
    is order-dependent on the predicate."""

    m_segment: tuple[str, ...]
    o_segment: tuple[str, ...]


def build_ap(g: Cfg, p: str, vp_of_p: Iterable[str]) -> ProjectionGraph:
    """Projection graph over ``vp_of_p``: edge (n, m) iff some path n...m
    keeps all interior nodes outside the set.

    Built by one first-hit search per member, from its successors.
    """
    vp_idx = set(node_indices(g, vp_of_p))
    labels = g.labels
    succ: dict[str, tuple[str, ...]] = {}
    for v in sorted(vp_idx, key=lambda i: labels[i]):
        hits = first_hits(g, g.succs[v], vp_idx)
        succ[labels[v]] = tuple(sorted(labels[h] for h in hits))
    return ProjectionGraph(p=p, nodes=tuple(sorted(labels[i] for i in vp_idx)), succ=succ)


def compute_v1_v2(g: Cfg, p: str, vp_of_p: Iterable[str]) -> SuccessorClasses:
    """Classify members by which successor of ``p`` first reaches them via
    nodes outside the set.  A successor that is itself a member is its own
    (only) first hit."""
    pi = node_indices(g, (p,))[0]
    targets = g.succs[pi]
    if len(targets) != 2 or targets[0] == targets[1]:
        raise ValueError(f"{p!r} is not a predicate")
    vp_idx = set(node_indices(g, vp_of_p))
    labels = g.labels
    v1 = frozenset(labels[h] for h in first_hits(g, (targets[0],), vp_idx))
    v2 = frozenset(labels[h] for h in first_hits(g, (targets[1],), vp_idx))
    u = frozenset(labels[i] for i in vp_idx) - {p} - v1 - v2
    return SuccessorClasses(v1=v1, v2=v2, u=u)


def unfold_cycle(ap: ProjectionGraph, v1: Iterable[str]) -> tuple[str, ...]:
    """Walk the cycle of non-``p`` nodes once, starting at the smallest
    labelled node of ``v1``.  Raises ProjectionStructureError when the
    non-``p`` nodes do not form a single cycle."""
    starts = set(v1)
    if not starts:
        raise ValueError("empty start class")
    cycle_count = sum(1 for x in ap.nodes if x != ap.p)
    start = min(starts)
    seq = [start]
    seen = {start}
    cur = start
    while True:
        nxt = ap.succ.get(cur, ())
        if len(nxt) != 1 or nxt[0] == ap.p:
            raise ProjectionStructureError(f"node {cur!r} does not continue the cycle")
        cur = nxt[0]
        if cur == start:
            break
        if cur in seen:
            raise ProjectionStructureError(f"cycle revisits {cur!r}")
        seen.add(cur)
        seq.append(cur)
    if len(seq) != cycle_count:
        raise ProjectionStructureError("cycle does not cover all non-predicate nodes")
    return tuple(seq)


def _class_word(seq: Iterable[str], classes: SuccessorClasses) -> list[int]:
    word = []
    for x in seq:
        if x in classes.v1:
            word.append(1)
        elif x in classes.v2:
            word.append(2)
        elif x in classes.u:
            word.append(0)
        else:
            raise ValueError(f"node {x!r} belongs to no class")
    return word


def match_unfolding_pattern(seq: Iterable[str], classes: SuccessorClasses) -> bool:
    """Does the unfolding read, ignoring unclassified nodes, as a block of
    first-branch nodes, then a block of second-branch nodes, then possibly
    first-branch nodes again (one alternation around the cycle)?

    Two-state linear scan; the sequence must start with a ``v1`` node and
    the classes must be disjoint.
    """
    seq = tuple(seq)
    if classes.v1 & classes.v2:
        raise ValueError("classes must be disjoint")
    if not seq or seq[0] not in classes.v1:
        raise ValueError("sequence must start with a node of the first class")
    runs = [k for k, _ in groupby(c for c in _class_word(seq, classes) if c)]
    return runs in ([1, 2], [1, 2, 1])


def extract_segments(seq: Iterable[str], classes: SuccessorClasses) -> StripSegments:
    """Cut out the unique v1->v2 and v2->v1 crossing segments of the cycle.

    The second crossing may wrap past the end of the unfolding; each
    segment excludes its final (opposite-class) node.
    """
    seq = tuple(seq)
    if not match_unfolding_pattern(seq, classes):
        raise ValueError("unfolding does not match the one-alternation pattern")
    word = _class_word(seq, classes)
    first_v2 = word.index(2)
    last_v1_before = max(i for i in range(first_v2) if word[i] == 1)
    last_v2 = len(word) - 1 - word[::-1].index(2)
    trailing_v1 = [i for i in range(last_v2 + 1, len(word)) if word[i] == 1]
    next_v1 = trailing_v1[0] if trailing_v1 else len(word)  # wraps to seq[0]
    return StripSegments(
        m_segment=seq[last_v1_before:first_v2],
        o_segment=seq[last_v2:next_v1],
    )


def dod_new(g: Cfg) -> DodRelation:
    """Pointer-cycle DOD, output-optimal: O(|V|^2) per round of ``vp_sets``, then
    ``dod_from_vp_rows`` over every predicate and the pairs drawn across each
    predicate's two segments."""
    return dod_from_vp(g, vp_sets(g))


def dod_from_vp_rows(g: Cfg, vp: VpMap) -> DodBlocks:
    """DOD from the all-paths pointers, as node indices: one block
    (p, m_segment, o_segment) per predicate p that has order-dependent
    pairs.  Every pair drawn across the two segments, and no other, is
    order-dependent on p; the segments are disjoint, so each pair comes once.

    p must feed a root cycle C (``VpMap.fed_root``), its two branches must
    first reach disjoint classes of C, and the classes must alternate once
    around C.  The segments run from the last node of one class to the
    first of the other, which they exclude.  Two first-hit searches and
    O(|C|) per predicate that feeds a cycle; O(1) for the others.
    """
    out: DodBlocks = []
    cycles: dict[int, tuple[tuple[int, ...], set[int]]] = {}
    parent = vp.parent
    for p in predicate_indices(g):
        # Most predicates have at most one node past them: no cycle to feed.
        if parent[p] < 0 or parent[parent[p]] < 0:
            continue
        c = vp.fed_root(p)
        if c < 0:
            continue
        if c not in cycles:
            cycle = tuple(vp.chain(c))  # the segments are cyclic, so any start does
            cycles[c] = cycle, {x: i for i, x in enumerate(cycle)}
        cycle, position = cycles[c]
        s1, s2 = g.succs[p]
        v1 = first_hits(g, (s1,), position)
        v2 = first_hits(g, (s2,), position)
        if v1 & v2:
            continue
        marks = sorted([(position[x], 1) for x in v1] + [(position[x], 2) for x in v2])
        # One alternation around the cycle is two changes of class.
        changes = [k for k in range(len(marks)) if marks[k][1] != marks[k - 1][1]]
        if len(changes) != 2:
            continue
        into: dict[int, tuple[int, ...]] = {}
        for k in changes:
            a, b = marks[k - 1][0], marks[k][0]
            into[marks[k][1]] = cycle[a:b] if a < b else cycle[a:] + cycle[:b]
        out.append((p, into[2], into[1]))
    return out


def dod_labels(g: Cfg, blocks: Iterable[tuple[int, Collection[int], Collection[int]]]) -> DodRelation:
    """The label relation of (p, A, B) blocks: every pair drawn across A
    and B, in label order."""
    labels = g.labels
    return frozenset(
        [
            (lp, x, y) if x < y else (lp, y, x)
            for p, a_side, b_side in blocks
            for lp in (labels[p],)
            for x in map(labels.__getitem__, a_side)
            for y in map(labels.__getitem__, b_side)
        ]
    )


def dod_from_vp(g: Cfg, vp: VpMap) -> DodRelation:
    """``dod_from_vp_rows`` as labels."""
    return dod_labels(g, dod_from_vp_rows(g, vp))


def dod_formula_rows(g: Cfg, variant: str = "original") -> DodBlocks:
    """Pairwise-formula DOD: for every predicate p and pair {a, b}, require
    mutual reachability and opposite first-occurrence orders from the two
    branches.

    ``variant`` selects the mutual-reachability test: "original" uses plain
    reachability (which over-approximates the true relation), "fixed" uses
    membership on all maximal paths.
    """
    if variant not in ("original", "fixed"):
        raise ValueError(f"unknown variant {variant!r}; expected 'original' or 'fixed'")
    n = len(g.labels)
    if n == 0:
        return []
    vsets = vp_sets(g).index_sets
    sets = vsets if variant == "fixed" else [reach(g.succs, (v,)) for v in range(n)]
    # The formula is symmetric: {a, b} passes from a in one orientation
    # iff it passes from b in the other, so a's block takes only the b
    # after a in label order, the order the relation is written in.
    after = [0] * n
    for r, v in enumerate(sorted(range(n), key=g.labels.__getitem__)):
        after[v] = r
    mutual_later = [0] * n
    for a in range(n):
        mask = 0
        for b in sets[a]:
            if after[b] > after[a] and a in sets[b]:
                mask |= 1 << b
        mutual_later[a] = mask

    all_bits = (1 << n) - 1

    @cache
    def first_mask(s: int, a: int) -> int:
        # Bits over b: every maximal path from s contains a before any b.
        # Callers guard the "a on all maximal paths from s" conjunct.
        if s == a:
            return all_bits & ~(1 << a)
        reached = 0
        for x in reach(g.succs, (s,), (a,)):
            reached |= 1 << x
        return all_bits & ~reached & ~(1 << a)

    out: DodBlocks = []
    for p in predicate_indices(g):
        s1, s2 = g.succs[p]
        # a first from one branch and b first from the other, in both orientations
        orientations = ((s1, s2), (s2, s1))
        not_p = all_bits & ~(1 << p)
        for a in range(n):
            if a == p:
                continue
            mm = mutual_later[a] & not_p
            if not mm:
                continue
            later = []
            for sa, sb in orientations:
                if a not in vsets[sa]:
                    continue
                for b in bit_indices(mm & first_mask(sa, a)):
                    if b in vsets[sb] and (first_mask(sb, b) >> a) & 1:
                        later.append(b)
            if later:
                out.append((p, (a,), tuple(later)))
    return out


def dod_formula(g: Cfg, variant: str = "original") -> DodRelation:
    """``dod_formula_rows`` as labels."""
    return dod_labels(g, dod_formula_rows(g, variant))
