"""Backward propagation of "every maximal path passes through the targets".

The kernel seeds a target set and walks reverse edges: a node joins the
result once all of its out-edges lead to members (and it has at least one
out-edge).  Each node keeps a countdown of not-yet-member successors, so
every edge is inspected at most once per run.  Scratch state is
generation-stamped rather than cleared, which keeps repeated runs over the
same graph cheap; several analyses run one propagation per node.

Propagation uses an explicit stack, never recursion, so deep graphs are
safe.
"""

from __future__ import annotations

from typing import Iterable

from .cfg import Cfg, reach


class Coloring:
    """Reusable scratch state for seed-set propagations over one graph.

    Instances are single-invocation-at-a-time scratch; the underlying Cfg
    is immutable and may be shared, so independent instances can run
    concurrently.
    """

    def __init__(self, g: Cfg) -> None:
        n = len(g.labels)
        self.g = g
        self._outdeg = [len(s) for s in g.succs]
        self._stamp = [0] * n
        self._red = bytearray(n)
        self._counter = [0] * n
        self._gen = 0
        self.last_red: list[int] = []
        self.last_touched: list[int] = []

    def run(self, targets: Iterable[int]) -> list[int]:
        """Propagate from ``targets``; returns indices of all member nodes.

        A member ("red") node is one from which every maximal path hits the
        target set.  ``last_touched`` afterwards holds every node whose
        scratch state was initialized in this run; any node with a red
        successor is in it.
        """
        self._gen += 1
        gen = self._gen
        stamp = self._stamp
        red = self._red
        counter = self._counter
        outdeg = self._outdeg
        preds = self.g.preds
        red_list: list[int] = []
        touched: list[int] = []
        for t in targets:
            if stamp[t] != gen:
                stamp[t] = gen
                counter[t] = outdeg[t]
                red[t] = 1
                touched.append(t)
                red_list.append(t)
        stack = list(red_list)
        while stack:
            s = stack.pop()
            for m in preds[s]:
                if stamp[m] != gen:
                    stamp[m] = gen
                    counter[m] = outdeg[m]
                    red[m] = 0
                    touched.append(m)
                c = counter[m] - 1
                counter[m] = c
                if c == 0 and not red[m]:
                    red[m] = 1
                    red_list.append(m)
                    stack.append(m)
        self.last_red = red_list
        self.last_touched = touched
        return red_list

    def is_red(self, i: int) -> bool:
        return self._stamp[i] == self._gen and bool(self._red[i])

    def edge_visits(self) -> int:
        """Reverse-edge inspections made by the last run (at most |E|).

        Each red node visits each of its in-edges exactly once, and no
        other edges are inspected.
        """
        preds = self.g.preds
        return sum(len(preds[s]) for s in self.last_red)


def color_all_paths_contain(g: Cfg, targets: Iterable[str]) -> frozenset[str]:
    """Nodes from which every maximal path contains some target node.

    The target nodes themselves are always included.  Raises ValueError on
    an empty target set or an unknown label.
    """
    target_list = list(targets)
    if not target_list:
        raise ValueError("empty target set")
    try:
        idx = [g.index[t] for t in target_list]
    except KeyError as exc:
        raise ValueError(f"unknown node {exc.args[0]!r}") from None
    reds = Coloring(g).run(idx)
    return frozenset(g.labels[i] for i in reds)


class VpMap:
    """For every node, the set of nodes lying on all maximal paths from it."""

    __slots__ = ("labels", "index", "index_sets")

    def __init__(
        self,
        labels: tuple[str, ...],
        index: dict[str, int],
        index_sets: list[frozenset[int]],
    ) -> None:
        self.labels = labels
        self.index = index
        self.index_sets = index_sets

    def __getitem__(self, label: str) -> frozenset[str]:
        return frozenset(self.labels[i] for i in self.index_sets[self.index[label]])


def vp_sets(g: Cfg) -> VpMap:
    """Compute the on-all-maximal-paths set for every node.

    One propagation per node: whenever ``m`` turns red while propagating
    from ``r``, node ``r`` is on all maximal paths from ``m``, so ``r`` is
    accumulated into the set of ``m``.
    """
    n = len(g.labels)
    eng = Coloring(g)
    sets: list[set[int]] = [set() for _ in range(n)]
    for r in range(n):
        for m in eng.run((r,)):
            sets[m].add(r)
    return VpMap(g.labels, g.index, [frozenset(s) for s in sets])


def first_before_on_all(g: Cfg, start: str, first: str, second: str) -> bool:
    """Does every maximal path from ``start`` contain ``first``, with no
    occurrence of ``second`` before the first occurrence of ``first``?

    Decision: ``start`` must lie in the propagation result for ``first``;
    then ``start == first`` is a yes and ``start == second`` a no; otherwise
    the answer is yes exactly when ``second`` is unreachable from ``start``
    once ``first`` is deleted from the graph.
    """
    if first == second:
        raise ValueError("'first' and 'second' must differ")
    s, a, b = g.index[start], g.index[first], g.index[second]
    eng = Coloring(g)
    eng.run((a,))
    if not eng.is_red(s):
        return False
    if s == a:
        return True
    if s == b:
        return False
    return b not in reach(g.succs, (s,), (a,))
