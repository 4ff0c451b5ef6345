"""Non-termination sensitive control dependence, four ways.

``ntscd_new`` makes one ``Coloring.controllers`` pass over every node:
one backward propagation per node, read off at the predicate successors,
that walks only in-edges of nodes some predicate reaches; the strong
closure makes one pass per worklist round, over the nodes it takes in.  ``ntscd_from_vp``
derives the same relation from the all-paths sets of ``vp_sets``.
``ntscd_ranganath`` is a faithful transcription of the classic forward
worklist algorithm, which is sensitive to the order nodes are popped and
can produce wrong results; ``ntscd_ranganath_fixed`` repairs it by
iterating the loop body over all nodes to a fixpoint.

Each is written once, on node indices: its ``*_rows`` twin returns the
relation as distinct (p, n) index rows, and the label function is
``ntscd_labels`` of those rows.
"""

from __future__ import annotations

from collections import deque
from itertools import product
from typing import Iterable, Sequence

from .cfg import Cfg, bit_indices, node_indices, predicate_indices
from .coloring import Coloring, VpMap

NtscdRelation = frozenset[tuple[str, str]]

# A symbol table maps (node, predicate) to the set of branch symbols
# (predicate, successor) recorded for that cell.
SymbolTable = dict[tuple[str, str], frozenset[tuple[str, str]]]

WorklistPolicy = str | Sequence[str]

NtscdRows = list[tuple[int, int]]


def ntscd_labels(g: Cfg, rows: Iterable[tuple[int, int]]) -> NtscdRelation:
    """The label relation of distinct (p, n) index rows."""
    labels = g.labels
    return frozenset([(labels[p], labels[n]) for p, n in rows])


def ntscd_new_rows(g: Cfg) -> NtscdRows:
    """Backward-propagation NTSCD; order-independent, rows by dependent node.

    One ``Coloring.controllers`` pass over every node: for each node n, the
    predicates it finds for n control it.  O(|V|^2) in general, and
    O(|V| + |E|) on a graph without predicates: a propagation walks only
    in-edges of nodes that a predicate reaches.
    """
    return Coloring(g).controllers(range(len(g)))


def ntscd_new(g: Cfg) -> NtscdRelation:
    """``ntscd_new_rows`` as labels."""
    return ntscd_labels(g, ntscd_new_rows(g))


def ntscd_from_vp_rows(g: Cfg, vp: VpMap) -> NtscdRows:
    """NTSCD from the all-paths pointers: a predicate controls every node
    on which its two successors' chains disagree."""
    out = []
    for p in predicate_indices(g):
        s1, s2 = g.succs[p]
        out.extend(product((p,), set(vp.chain(s1)).symmetric_difference(vp.chain(s2))))
    return out


def ntscd_from_vp(g: Cfg, vp: VpMap) -> NtscdRelation:
    """``ntscd_from_vp_rows`` as labels."""
    return ntscd_labels(g, ntscd_from_vp_rows(g, vp))


# The symbol table is two bit rows per node: bit j of ``T[slot][n]`` says
# that node n's cell for the j-th predicate (in node order) holds that
# predicate's branch symbol for its successor ``slot``.
BitTable = tuple[list[int], list[int]]


def _ranganath_setup(g: Cfg) -> tuple[BitTable, list[int], list[int]]:
    """Seed each predicate's branch symbols into its successors' cells.

    Returns the table, each node's predicate bit (0 for non-predicates) and
    the seeded nodes in seeding order.
    """
    n = len(g.labels)
    T: BitTable = ([0] * n, [0] * n)
    bit = [0] * n
    seeded: list[int] = []
    for j, p in enumerate(predicate_indices(g)):
        bit[p] = 1 << j
        for slot, r in enumerate(g.succs[p]):
            T[slot][r] |= 1 << j
            seeded.append(r)
    return T, bit, seeded


def _apply_body(nd: int, T: BitTable, bit: list[int], succs: tuple[tuple[int, ...], ...]) -> list[int]:
    """One execution of the worklist loop body for node ``nd``.

    Returns the nodes whose symbol sets grew (the candidates to repush).
    """
    T0, T1 = T
    b = bit[nd]
    if b:
        # A predicate passes its cells to every node whose cell for it holds
        # both of its branch symbols.  The published loop skips the
        # predicate's own cell; that cell is already full in every such
        # node, so passing it too changes nothing.
        targets = [m for m in range(len(T0)) if T0[m] & T1[m] & b]
    elif succs[nd] and succs[nd][0] != nd:
        # A non-predicate has one distinct successor, which inherits its cells.
        targets = [succs[nd][0]]
    else:
        return []
    r0 = T0[nd]
    r1 = T1[nd]
    changed = []
    for m in targets:
        if r0 & ~T0[m] or r1 & ~T1[m]:
            T0[m] |= r0
            T1[m] |= r1
            changed.append(m)
    return changed


def _run_ranganath(g: Cfg, policy: WorklistPolicy) -> BitTable:
    """Worklist run of the forward symbol-propagation algorithm.

    The workbag deduplicates on push; ``policy`` selects which queued node
    is popped: "fifo" (oldest first), "lifo" (newest first), or an explicit
    node-label sequence that must cover everything ever pushed.
    """
    T, bit, seeded = _ranganath_setup(g)
    in_bag = bytearray(len(g.labels))
    if policy in ("fifo", "lifo"):
        bag: deque[int] = deque()
        push = bag.append
        pop = bag.popleft if policy == "fifo" else bag.pop
    elif isinstance(policy, str):
        raise ValueError(f"unknown worklist policy {policy!r}")
    else:
        try:
            order = node_indices(g, policy)
        except ValueError as exc:
            raise ValueError(f"explicit order names {exc}") from None
        sbag: set[int] = set()
        push = sbag.add
        bag = sbag  # type: ignore[assignment]

        def pop() -> int:
            for cand in order:
                if cand in sbag:
                    sbag.remove(cand)
                    return cand
            raise ValueError("explicit order does not cover all pushed nodes")

    def push_dedup(x: int) -> None:
        if not in_bag[x]:
            in_bag[x] = 1
            push(x)

    for r in seeded:
        push_dedup(r)
    while bag:
        nd = pop()
        in_bag[nd] = 0
        for x in _apply_body(nd, T, bit, g.succs):
            push_dedup(x)
    return T


def _run_ranganath_fixed(g: Cfg) -> BitTable:
    """Workbag-free variant: sweep the loop body over all nodes until the
    symbol table stops changing.  The fixpoint does not depend on the sweep
    order."""
    T, bit, _ = _ranganath_setup(g)
    while True:
        grew = [nd for nd in range(len(g.labels)) if _apply_body(nd, T, bit, g.succs)]
        if not grew:
            return T


def _rows_from_table(g: Cfg, T: BitTable) -> NtscdRows:
    # Emit (p, n) when the cell holds exactly one of the two branch symbols.
    preds_list = predicate_indices(g)
    T0, T1 = T
    return [(preds_list[j], nd) for nd in range(len(g)) for j in bit_indices(T0[nd] ^ T1[nd])]


def _symbol_table(g: Cfg, T: BitTable) -> SymbolTable:
    labels = g.labels
    preds_list = predicate_indices(g)
    table: SymbolTable = {}
    for nd in range(len(labels)):
        for j in bit_indices(T[0][nd] | T[1][nd]):
            p = preds_list[j]
            table[(labels[nd], labels[p])] = frozenset(
                (labels[p], labels[g.succs[p][slot]]) for slot in (0, 1) if T[slot][nd] >> j & 1
            )
    return table


def ntscd_ranganath_rows(g: Cfg, policy: WorklistPolicy = "fifo") -> NtscdRows:
    """The original worklist algorithm, flaws and all.

    The result depends on the popping policy by design; with the default
    fifo policy it reproduces the known wrong answers.  Never use this for
    correctness-sensitive work; it exists to demonstrate the flaw.
    """
    return _rows_from_table(g, _run_ranganath(g, policy))


def ntscd_ranganath(g: Cfg, policy: WorklistPolicy = "fifo") -> NtscdRelation:
    """``ntscd_ranganath_rows`` as labels."""
    return ntscd_labels(g, ntscd_ranganath_rows(g, policy))


def ntscd_ranganath_with_table(
    g: Cfg, policy: WorklistPolicy = "fifo"
) -> tuple[NtscdRelation, SymbolTable]:
    """Like ``ntscd_ranganath`` but also returns the final symbol table."""
    T = _run_ranganath(g, policy)
    return ntscd_labels(g, _rows_from_table(g, T)), _symbol_table(g, T)


def ntscd_ranganath_fixed_rows(g: Cfg) -> NtscdRows:
    """The repaired worklist algorithm: iterate the body over all nodes to a
    fixpoint (O(|V|^5) worst case), then emit from the complete table."""
    return _rows_from_table(g, _run_ranganath_fixed(g))


def ntscd_ranganath_fixed(g: Cfg) -> NtscdRelation:
    """``ntscd_ranganath_fixed_rows`` as labels."""
    return ntscd_labels(g, ntscd_ranganath_fixed_rows(g))


def ntscd_ranganath_fixed_with_table(g: Cfg) -> tuple[NtscdRelation, SymbolTable]:
    T = _run_ranganath_fixed(g)
    return ntscd_labels(g, _rows_from_table(g, T)), _symbol_table(g, T)
