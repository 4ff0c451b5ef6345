"""Control flow graph model, text formats, and basic graph machinery.

Graphs are finite, directed, and have at most two out-edges per node.
Node labels are strings at the API boundary; internally every node is a
dense index into ``labels``.  Edge order is semantically relevant (the
worklist algorithms iterate successors in declaration order), so both the
node order and the per-node out-edge order are preserved exactly as given.
Graphs carry no distinguished start or exit node; operations that need one
take it as an argument.
"""

from __future__ import annotations

import json
from typing import Container, Iterable, Iterator, Sequence

FORMATS = ("json", "edgelist")


class ParseError(ValueError):
    """Malformed graph input; the message carries line/position context."""


class Cfg:
    """Immutable directed graph with ordered out-edges (at most two per node).

    Attributes:
        labels: node labels in declaration order.
        index:  label -> dense index.
        succs:  per-node tuple of successor indices, in edge order.
        preds:  per-node tuple of predecessor indices (exact transpose of
                ``succs``, duplicates preserved, each in edge order), built
                on first read.
        n_edges: the number of edges.
        predicate_nodes: indices of the predicates, in node order, found
                once at construction; ``predicate_indices`` reads them.

    Construction is the one graph validator: ValueError on a duplicate label,
    or on an edge ``#k`` with an undeclared endpoint or a third out-edge.
    It makes one tuple per node and keeps the edges as one flat list of
    endpoint indices; ``preds`` transposes that list in O(|V| + |E|) the
    first time it is read, since ``vp_sets`` and ``dod_from_vp_rows`` never
    read it.  The build is idempotent: reads that race on a shared graph
    each build equal tuples, and every read after that returns the same.
    """

    __slots__ = ("labels", "index", "succs", "n_edges", "predicate_nodes", "_ends", "_preds")

    def __init__(self, labels: Sequence[str], edges: Sequence[tuple[str, str]]) -> None:
        self.labels = labels = tuple(labels)
        self.index = index = dict(zip(labels, range(len(labels))))
        if len(index) != len(labels):
            seen = set()
            for lab in labels:
                if lab in seen:
                    raise ValueError(f"duplicate node label {lab!r}")
                seen.add(lab)
        succs: list[tuple[int, ...]] = [()] * len(labels)
        # Source, target of each edge taken so far, so half its length is
        # the number of the edge at fault.
        ends: list[int] = []
        try:
            for src, dst in edges:
                s = index[src]
                d = index[dst]
                out = succs[s]
                if len(out) == 2:
                    raise ValueError(f"edge #{len(ends) // 2}: out-degree exceeds 2 for node {src!r}")
                succs[s] = out + (d,)
                ends += s, d
        except KeyError as exc:
            raise ValueError(f"edge #{len(ends) // 2}: endpoint {exc.args[0]!r} is not a declared node") from None
        self.succs = tuple(succs)
        self.n_edges = len(ends) // 2
        self.predicate_nodes = tuple(i for i, ss in enumerate(succs) if len(ss) == 2 and ss[0] != ss[1])
        self._ends = ends
        self._preds: tuple[tuple[int, ...], ...] | None = None

    @property
    def preds(self) -> tuple[tuple[int, ...], ...]:
        """Each node's predecessors, one per in-edge, in edge order."""
        preds = self._preds
        if preds is None:
            pred_lists: list[list[int]] = [[] for _ in self.labels]
            it = iter(self._ends)
            for s, d in zip(it, it):
                pred_lists[d].append(s)
            self._preds = preds = tuple(map(tuple, pred_lists))
        return preds

    def __len__(self) -> int:
        return len(self.labels)

    def edges(self) -> list[tuple[str, str]]:
        """All edges as label pairs, nodes in order, out-edges in edge order."""
        labels = self.labels
        return [(labels[i], labels[t]) for i in range(len(labels)) for t in self.succs[i]]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Cfg):
            return NotImplemented
        return self.labels == other.labels and self.succs == other.succs

    def __repr__(self) -> str:
        return f"Cfg(nodes={len(self.labels)}, edges={self.n_edges})"


def predicate_indices(g: Cfg) -> tuple[int, ...]:
    """Indices of nodes with exactly two out-edges to distinct targets, in node order."""
    return g.predicate_nodes


def node_indices(g: Cfg, labels: Iterable[str]) -> list[int]:
    """The indices of ``labels``, in order; ValueError names the first
    label that is not a node.  Every public entry point that takes labels
    converts them here."""
    index = g.index
    out = []
    for lab in labels:
        i = index.get(lab)
        if i is None:
            raise ValueError(f"unknown node {lab!r}")
        out.append(i)
    return out


def predicates(g: Cfg) -> frozenset[str]:
    """Predicate nodes: exactly two out-edges with distinct targets.

    A node with both out-edges to the same target is not a predicate; its
    branch can never separate maximal paths.
    """
    return frozenset(g.labels[i] for i in predicate_indices(g))


def reach(adj: Sequence[Sequence[int]], starts: Iterable[int], avoid: Container[int] = ()) -> set[int]:
    """Indices reachable from ``starts`` (inclusive) along ``adj``, which is
    ``g.succs`` for forward or ``g.preds`` for backward reachability,
    without entering a node of ``avoid``."""
    seen = set(starts)
    stack = list(seen)
    while stack:
        for t in adj[stack.pop()]:
            if t not in seen and t not in avoid:
                seen.add(t)
                stack.append(t)
    return seen


def first_hits(g: Cfg, starts: Iterable[int], inside: Container[int]) -> set[int]:
    """Members of ``inside`` first reached from ``starts`` through
    non-members only.  A start that is itself a member is its own hit and
    is not searched past."""
    hits: set[int] = set()
    seen: set[int] = set()
    for s in starts:
        if s in inside:
            hits.add(s)
        else:
            seen.add(s)
    stack = list(seen)
    while stack:
        for t in g.succs[stack.pop()]:
            if t in inside:
                hits.add(t)
            elif t not in seen:
                seen.add(t)
                stack.append(t)
    return hits


def bit_indices(mask: int) -> Iterator[int]:
    """Positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        mask ^= low
        yield low.bit_length() - 1


def parse_cfg(text: str, fmt: str = "json") -> Cfg:
    """Parse a graph from ``text`` in the given format ("json" or "edgelist").

    Edge order in the input is preserved.  Raises ParseError with
    line/position context for malformed input, duplicate labels,
    undeclared edge endpoints, or out-degree above two.
    """
    if fmt == "json":
        return _parse_json(text)
    if fmt == "edgelist":
        return _parse_edgelist(text)
    raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")


def _parse_json(text: str) -> Cfg:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except RecursionError:
        raise ParseError("JSON nested too deeply to parse") from None
    if not isinstance(data, dict):
        raise ParseError("top-level value must be an object with 'nodes' and 'edges'")
    nodes = data.get("nodes")
    edges = data.get("edges")
    if not isinstance(nodes, list) or not all(isinstance(x, str) for x in nodes):
        raise ParseError("'nodes' must be an array of strings")
    if not isinstance(edges, list):
        raise ParseError("'edges' must be an array of [src, dst] pairs")
    # json.loads makes exact lists and strs, so exact type tests suffice.
    for k, item in enumerate(edges):
        if type(item) is not list or len(item) != 2 or type(item[0]) is not str or type(item[1]) is not str:
            raise ParseError(f"edge #{k}: expected a [src, dst] pair of strings")
    try:
        return Cfg(nodes, edges)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def _parse_edgelist(text: str) -> Cfg:
    """One 'src dst' pair per line; a bare token declares an isolated node.

    Nodes are implicitly declared at first mention, in order of appearance.
    '#' starts a comment.
    """
    labels: dict[str, None] = {}  # insertion-ordered set of declared nodes
    out_deg: dict[str, int] = {}
    pairs: list[tuple[str, str]] = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) == 1:
            if tokens[0] in labels:
                raise ParseError(f"line {ln}: duplicate node label {tokens[0]!r}")
            labels[tokens[0]] = None
        elif len(tokens) == 2:
            src, dst = tokens
            labels.setdefault(src)
            labels.setdefault(dst)
            deg = out_deg.get(src, 0)
            if deg == 2:
                raise ParseError(f"line {ln}: out-degree exceeds 2 for node {src!r}")
            out_deg[src] = deg + 1
            pairs.append((src, dst))
        else:
            raise ParseError(f"line {ln}: expected 'src dst', got {len(tokens)} fields")
    return Cfg(labels, pairs)


def serialize_cfg(g: Cfg, fmt: str = "json") -> str:
    """Serialize so that ``parse_cfg(serialize_cfg(g), fmt) == g``.

    Node order and per-node edge order round-trip exactly.
    """
    if fmt == "json":
        return json.dumps(
            {"nodes": list(g.labels), "edges": [[a, b] for a, b in g.edges()]},
            separators=(",", ":"),
        )
    if fmt == "edgelist":
        for lab in g.labels:
            if not lab or "#" in lab or lab.split() != [lab]:
                raise ValueError(f"label {lab!r} cannot be written in edgelist format")
        lines = list(g.labels)
        lines.extend(f"{a} {b}" for a, b in g.edges())
        return "\n".join(lines) + ("\n" if lines else "")
    raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")
