"""Spans and counters for the traced run, recorded around calls into ctrldep.

The program itself is not instrumented: each traced request calls the
layers' public functions from here, one span per call.  ``cli.main`` is
timed whole; the parse and the algorithm are then timed again on the same
input, and the remainder of ``cli.main`` is booked as ``cli.emit``.  The DOD
stages are replayed predicate by predicate, stage after stage, through the
public stage functions on ``vp_sets`` output, so each stage is one span.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager
from typing import Iterator

from ctrldep import cli
from ctrldep.cfg import Cfg, parse_cfg, predicate_indices
from ctrldep.closures import ClosureSpec, dependence_closure, dod_and_ntscd, strong_closure
from ctrldep.coloring import Coloring, vp_sets
from ctrldep.dod import (
    build_ap,
    compute_v1_v2,
    dod_formula,
    dod_new,
    extract_segments,
    match_unfolding_pattern,
    unfold_cycle,
)
from ctrldep.ntscd import ntscd_from_vp, ntscd_new, ntscd_ranganath_fixed
from ctrldep.oracle import oracle_dod, oracle_ntscd


class Tracer:
    """Spans kept in memory: [id, name, start_ns, end_ns, parent_id, request]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.request: str | None = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[list]:
        rec = [len(self.spans), name, time.perf_counter_ns(), 0, self._open[-1] if self._open else None, self.request]
        self.spans.append(rec)
        self._open.append(rec[0])
        try:
            yield rec
        finally:
            rec[3] = time.perf_counter_ns()
            self._open.pop()

    def self_times_ms(self, first: int = 0) -> Counter:
        """Summed self time per span name over ``spans[first:]``: duration
        minus the time covered by direct children."""
        spans = self.spans[first:]
        child_ns: Counter = Counter()
        for _, _, start, end, parent, _ in spans:
            if parent is not None:
                child_ns[parent] += end - start
        out: Counter = Counter()
        for sid, name, start, end, _, _ in spans:
            out[name] += (end - start - child_ns[sid]) / 1e6
        return out

    def write(self, path: str) -> None:
        keys = ("id", "name", "start_ns", "end_ns", "parent", "request")
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(keys, rec))) + "\n")


def _ns(rec: list) -> int:
    return rec[3] - rec[2]


def replay_dod_stages(tr: Tracer, counts: Counter, g: Cfg, vp) -> int:
    """Run the DOD projection stages for every predicate, stage by stage,
    counting how many predicates reach each stage; returns the triple count."""
    labels = g.labels
    preds = predicate_indices(g)
    cands = [
        (labels[p], frozenset(labels[i] for i in vp.index_sets[p])) for p in preds if len(vp.index_sets[p]) >= 3
    ]
    with tr.span("dod.build_ap"):
        aps = [build_ap(g, p, members) for p, members in cands]
    branching = [(p, members, ap) for (p, members), ap in zip(cands, aps) if len(ap.succ[p]) > 1]
    del aps
    with tr.span("dod.compute_v1_v2"):
        classes = [compute_v1_v2(g, p, members) for p, members, _ in branching]
    with tr.span("dod.unfold_cycle"):
        unfolded = [(unfold_cycle(ap, c.v1), c) for (_, _, ap), c in zip(branching, classes) if not c.v1 & c.v2]
        matched = [(seq, c) for seq, c in unfolded if match_unfolding_pattern(seq, c)]
    with tr.span("dod.extract_segments"):
        segments = [extract_segments(seq, c) for seq, c in matched]
    triples = sum(len(s.m_segment) * len(s.o_segment) for s in segments)
    counts["dod.preds"] += len(preds)
    counts["dod.preds_vp3"] += len(cands)
    counts["dod.preds_branching"] += len(branching)
    counts["dod.preds_matched"] += len(matched)
    counts["dod.triples"] += triples
    return triples


def replay_coloring(tr: Tracer, counts: Counter, g: Cfg):
    """All-paths sets and one propagation per node; returns ``vp_sets(g)``."""
    with tr.span("coloring.vp_sets"):
        vp = vp_sets(g)
    sizes = [len(s) for s in vp.index_sets]
    counts["coloring.vp_total"] += sum(sizes)
    counts["cover.vp_gt1"] += max(sizes, default=0) > 1
    eng = Coloring(g)
    visits = 0
    for r in range(len(g)):
        eng.run((r,))
        visits += eng.edge_visits()
    counts["coloring.edge_visits"] += visits
    return vp


def traced_analyze(tr: Tracer, counts: Counter, argv: list[str], text: str, algo: str, criterion) -> tuple[int, int]:
    """One traced ``analyze`` request followed by its layer replays.

    Returns cli.main's exit code and the emit time in ns: the cli.main span
    minus the parse and algorithm spans on the same input.  Adds every
    counter to ``counts``.
    """
    with tr.span("cli.main") as main_span:
        rc = cli.main(argv)
    with tr.span("cfg.parse_cfg") as parse_span:
        g = parse_cfg(text)
    counts["cfg.parse_cfg.nodes"] += len(g)
    if algo == "ntscd-new":
        with tr.span("ntscd.ntscd_new") as algo_span:
            result = ntscd_new(g)
    elif algo == "dod-new":
        with tr.span("dod.dod_new") as algo_span:
            result = dod_new(g)
    else:
        spec = ClosureSpec(w=frozenset(criterion), start=criterion[0])
        with tr.span("closures.strong_closure") as algo_span:
            result = strong_closure(g, spec)
        counts["closures.closure_size"] += len(result)
    emit_ns = _ns(main_span) - _ns(parse_span) - _ns(algo_span)
    dod_size = len(result) if algo == "dod-new" else None
    del result
    vp = replay_coloring(tr, counts, g)
    if algo != "dod-new":
        with tr.span("ntscd.ntscd_from_vp"):
            counts["ntscd.pairs"] += len(ntscd_from_vp(g, vp))
    if algo == "cc":
        with tr.span("closures.dod_and_ntscd"):
            dod, ntscd = dod_and_ntscd(g)
        with tr.span("closures.dependence_closure"):
            dependence_closure(g, frozenset(criterion), ntscd, dod)
        dod_size = len(dod)
        del dod, ntscd
    if dod_size is not None:
        _count_dod(tr, counts, g, vp, dod_size)
    return rc, emit_ns


def traced_check(tr: Tracer, counts: Counter, g: Cfg, text: str) -> list[str]:
    """One traced differential check followed by a replay of every layer it
    calls; returns its failures."""
    with tr.span("cli.differential_failures"):
        failures = cli.differential_failures(g)
    with tr.span("cfg.parse_cfg"):
        g = parse_cfg(text)
    counts["cfg.parse_cfg.nodes"] += len(g)
    vp = replay_coloring(tr, counts, g)
    with tr.span("ntscd.ntscd_new"):
        ntscd_new(g)
    with tr.span("ntscd.ntscd_from_vp"):
        counts["ntscd.pairs"] += len(ntscd_from_vp(g, vp))
    with tr.span("ntscd.ntscd_ranganath_fixed"):
        ntscd_ranganath_fixed(g)
    with tr.span("oracle.oracle_ntscd"):
        oracle_ntscd(g)
    with tr.span("dod.dod_new"):
        dod_size = len(dod_new(g))
    for variant in ("fixed", "original"):
        with tr.span("dod.dod_formula"):
            dod_formula(g, variant)
    with tr.span("oracle.oracle_dod"):
        oracle_dod(g)
    _count_dod(tr, counts, g, vp, dod_size)
    return failures


def _count_dod(tr: Tracer, counts: Counter, g: Cfg, vp, dod_size: int) -> None:
    counts["cover.dod_requests"] += 1
    counts["cover.dod_nonempty"] += dod_size > 0
    if replay_dod_stages(tr, counts, g, vp) != dod_size:
        counts["bench.stage_replay_mismatches"] += 1
