"""Non-termination sensitive control dependence, four ways.

``ntscd_new`` runs one backward propagation per node and reads the
dependencies off predicate successors.  ``ntscd_from_vp`` derives the same
relation from precomputed per-node path sets.  ``ntscd_ranganath`` is a
faithful transcription of the classic forward worklist algorithm, which is
sensitive to the order nodes are popped and can produce wrong results;
``ntscd_ranganath_fixed`` repairs it by iterating the loop body over all
nodes to a fixpoint.
"""

from __future__ import annotations

from collections import deque
from typing import Sequence

from .cfg import Cfg, predicate_indices
from .coloring import Coloring, VpMap

NtscdRelation = frozenset[tuple[str, str]]

# A symbol table maps (node, predicate) to the set of branch symbols
# (predicate, successor) recorded for that cell.
SymbolTable = dict[tuple[str, str], frozenset[tuple[str, str]]]

WorklistPolicy = str | Sequence[str]


def ntscd_new(g: Cfg) -> NtscdRelation:
    """Backward-propagation NTSCD; O(|V|^2) and order-independent.

    For each node n, propagate "every maximal path hits n" backward; then
    every predicate with one member successor and one non-member successor
    controls n.
    """
    n = len(g.labels)
    labels = g.labels
    eng = Coloring(g)
    is_pred = bytearray(n)
    branch: list[tuple[int, int] | None] = [None] * n
    for p in predicate_indices(g):
        is_pred[p] = 1
        branch[p] = (g.succs[p][0], g.succs[p][1])
    out = set()
    for target in range(n):
        eng.run((target,))
        gen = eng._gen
        stamp = eng._stamp
        red = eng._red
        # Any predicate with a red successor had its counter touched, so
        # scanning the touched list sees every candidate (including the
        # target itself, which is touched as a seed).
        for m in eng.last_touched:
            if is_pred[m]:
                s1, s2 = branch[m]  # type: ignore[misc]
                r1 = stamp[s1] == gen and red[s1]
                r2 = stamp[s2] == gen and red[s2]
                if bool(r1) != bool(r2):
                    out.add((labels[m], labels[target]))
    return frozenset(out)


def ntscd_from_vp(g: Cfg, vp: VpMap) -> NtscdRelation:
    """NTSCD from per-node path sets: a predicate controls every node on
    which its two successors' sets disagree."""
    labels = g.labels
    out = set()
    for p in predicate_indices(g):
        s1, s2 = g.succs[p]
        for i in vp.index_sets[s1] ^ vp.index_sets[s2]:
            out.add((labels[p], labels[i]))
    return frozenset(out)


def _ranganath_setup(g: Cfg):
    preds_list = predicate_indices(g)
    ppos = {p: j for j, p in enumerate(preds_list)}
    uniq = [tuple(dict.fromkeys(ss)) for ss in g.succs]
    return preds_list, ppos, uniq


def _apply_body(
    nd: int,
    S: list[list[int]],
    n_nodes: int,
    n_preds: int,
    ppos: dict[int, int],
    uniq: list[tuple[int, ...]],
) -> list[int]:
    """One execution of the worklist loop body for node ``nd``.

    Returns the nodes whose symbol sets grew (the candidates to repush).
    """
    changed: list[int] = []
    u = uniq[nd]
    if len(u) == 1 and u[0] != nd:
        s = u[0]
        row_n = S[nd]
        row_s = S[s]
        grew = False
        for j in range(n_preds):
            add = row_n[j] & ~row_s[j]
            if add:
                row_s[j] |= add
                grew = True
        if grew:
            changed.append(s)
    elif len(u) > 1:
        j_nd = ppos[nd]
        row_n = S[nd]
        for m in range(n_nodes):
            if S[m][j_nd] == 0b11:
                row_m = S[m]
                grew = False
                for j in range(n_preds):
                    if j == j_nd:
                        continue
                    add = row_n[j] & ~row_m[j]
                    if add:
                        row_m[j] |= add
                        grew = True
                if grew:
                    changed.append(m)
    return changed


def _run_ranganath(g: Cfg, policy: WorklistPolicy) -> list[list[int]]:
    """Worklist run of the forward symbol-propagation algorithm.

    The workbag deduplicates on push; ``policy`` selects which queued node
    is popped: "fifo" (oldest first), "lifo" (newest first), or an explicit
    node-label sequence that must cover everything ever pushed.
    """
    n = len(g.labels)
    preds_list, ppos, uniq = _ranganath_setup(g)
    n_preds = len(preds_list)
    S: list[list[int]] = [[0] * n_preds for _ in range(n)]

    in_bag = bytearray(n)
    if policy == "fifo":
        bag: deque[int] = deque()
        push = bag.append
        pop = bag.popleft
    elif policy == "lifo":
        lbag: list[int] = []
        push = lbag.append
        pop = lbag.pop
        bag = lbag  # type: ignore[assignment]
    elif isinstance(policy, str):
        raise ValueError(f"unknown worklist policy {policy!r}")
    else:
        unknown = [lab for lab in policy if lab not in g.index]
        if unknown:
            raise ValueError(f"explicit order names unknown node {unknown[0]!r}")
        order = [g.index[lab] for lab in policy]
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

    for p in preds_list:
        for slot, r in enumerate(g.succs[p]):
            S[r][ppos[p]] |= 1 << slot
            push_dedup(r)
    while bag:
        nd = pop()
        in_bag[nd] = 0
        for x in _apply_body(nd, S, n, n_preds, ppos, uniq):
            push_dedup(x)
    return S


def _run_ranganath_fixed(g: Cfg, reverse_order: bool) -> list[list[int]]:
    """Workbag-free variant: sweep the loop body over all nodes until the
    symbol table stops changing.  The fixpoint does not depend on the sweep
    order."""
    n = len(g.labels)
    preds_list, ppos, uniq = _ranganath_setup(g)
    n_preds = len(preds_list)
    S: list[list[int]] = [[0] * n_preds for _ in range(n)]
    for p in preds_list:
        for slot, r in enumerate(g.succs[p]):
            S[r][ppos[p]] |= 1 << slot
    order = range(n - 1, -1, -1) if reverse_order else range(n)
    while True:
        grew = False
        for nd in order:
            if _apply_body(nd, S, n, n_preds, ppos, uniq):
                grew = True
        if not grew:
            return S


def _relation_from_table(g: Cfg, S: list[list[int]]) -> NtscdRelation:
    # Emit (p, n) when the cell holds exactly one of the two branch symbols.
    labels = g.labels
    preds_list = predicate_indices(g)
    out = set()
    for nd in range(len(labels)):
        row = S[nd]
        for j, p in enumerate(preds_list):
            if row[j] in (0b01, 0b10):
                out.add((labels[p], labels[nd]))
    return frozenset(out)


def _symbol_table(g: Cfg, S: list[list[int]]) -> SymbolTable:
    labels = g.labels
    preds_list = predicate_indices(g)
    table: SymbolTable = {}
    for nd in range(len(labels)):
        for j, p in enumerate(preds_list):
            mask = S[nd][j]
            if mask:
                syms = frozenset(
                    (labels[p], labels[g.succs[p][slot]])
                    for slot in (0, 1)
                    if mask & (1 << slot)
                )
                table[(labels[nd], labels[p])] = syms
    return table


def ntscd_ranganath(g: Cfg, policy: WorklistPolicy = "fifo") -> NtscdRelation:
    """The original worklist algorithm, flaws and all.

    The result depends on the popping policy by design; with the default
    fifo policy it reproduces the known wrong answers.  Never use this for
    correctness-sensitive work; it exists to demonstrate the flaw.
    """
    return _relation_from_table(g, _run_ranganath(g, policy))


def ntscd_ranganath_with_table(
    g: Cfg, policy: WorklistPolicy = "fifo"
) -> tuple[NtscdRelation, SymbolTable]:
    """Like ``ntscd_ranganath`` but also returns the final symbol table."""
    S = _run_ranganath(g, policy)
    return _relation_from_table(g, S), _symbol_table(g, S)


def ntscd_ranganath_fixed(g: Cfg, reverse_order: bool = False) -> NtscdRelation:
    """The repaired worklist algorithm: iterate the body over all nodes to a
    fixpoint (O(|V|^5) worst case), then emit from the complete table."""
    return _relation_from_table(g, _run_ranganath_fixed(g, reverse_order))


def ntscd_ranganath_fixed_with_table(
    g: Cfg, reverse_order: bool = False
) -> tuple[NtscdRelation, SymbolTable]:
    S = _run_ranganath_fixed(g, reverse_order)
    return _relation_from_table(g, S), _symbol_table(g, S)
