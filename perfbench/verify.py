"""Output checks that do not trust the code under test where avoidable.

The workload process reduces each output to a digest of its content; the
expected digest is computed here, in another process, from the best
reference available:

- a closed form fixed by the graph family (chain, ladder, fed cycle, and
  DOD = {} on the structured, reducible families);
- otherwise a second gated variant: ``ntscd-vp`` for NTSCD and
  ``dod-formula-fixed`` for DOD;
- closures are recomputed from those references by the fixpoint below;
- a differential check is correct when it reports no failure, its own
  oracle being the reference.
"""

from __future__ import annotations

import hashlib
import json

from ctrldep.cfg import Cfg
from ctrldep.coloring import vp_sets
from ctrldep.dod import dod_formula
from ctrldep.ntscd import ntscd_from_vp

from perfbench.families import Graph
from perfbench.workloads import Request, Workload

RELATION_KEYS = ("ntscd", "dod", "closure")


def strip_timing(data: bytes) -> bytes:
    """Output bytes without the ``time_us`` line, the only part of an
    ``analyze`` report that differs between identical runs."""
    i = data.rfind(b'"time_us"')
    if i < 0:
        return data
    j = data.find(b"\n", i)
    return data[:i] + (data[j:] if j >= 0 else b"")


def _digest(algo: str, header: dict, key: str, relation: list) -> str:
    blob = json.dumps([algo, header, key, relation], separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def output_digest(data: bytes) -> str:
    """Digest of an ``analyze`` report's content: algorithm, graph header,
    and the relation in sorted order."""
    report = json.loads(data)
    keys = [k for k in RELATION_KEYS if k in report]
    if len(keys) != 1:
        raise ValueError(f"report holds relations {keys}, expected exactly one")
    header = {k: report["graph"][k] for k in ("nodes", "edges", "predicates")}
    return _digest(report["algo"], header, keys[0], sorted(report[keys[0]]))


def check_digest(failures: list[str]) -> str:
    return hashlib.sha256(json.dumps(failures).encode()).hexdigest()


def closure(w: frozenset[str], ntscd, dod) -> frozenset[str]:
    """Least superset of ``w`` that holds every predicate controlling one of
    its nodes (NTSCD) or ordering two of them (DOD)."""
    out = set(w)
    grew = True
    while grew:
        grew = False
        for p, n in ntscd:
            if n in out and p not in out:
                out.add(p)
                grew = True
        for p, a, b in dod:
            if a in out and b in out and p not in out:
                out.add(p)
                grew = True
    return frozenset(out)


class References:
    """Reference relations per graph of one workload, computed on demand."""

    def __init__(self, workload: Workload) -> None:
        self.workload = workload
        self._ntscd: dict[int, frozenset] = {}
        self._dod: dict[int, frozenset] = {}

    def _cfg(self, gi: int) -> Cfg:
        g = self.workload.graphs[gi]
        return Cfg(g.labels, g.edges)

    def ntscd(self, gi: int) -> frozenset:
        if gi not in self._ntscd:
            known = self.workload.graphs[gi].known()[0]
            if known is None:
                g = self._cfg(gi)
                known = ntscd_from_vp(g, vp_sets(g))
            self._ntscd[gi] = known
        return self._ntscd[gi]

    def dod(self, gi: int) -> frozenset:
        if gi not in self._dod:
            known = self.workload.graphs[gi].known()[1]
            if known is None:
                known = dod_formula(self._cfg(gi), "fixed")
            self._dod[gi] = known
        return self._dod[gi]

    def expected_digest(self, req: Request) -> str:
        if req.algo == "check":
            return check_digest([])
        g: Graph = self.workload.graphs[req.graph]
        header = {"nodes": len(g.labels), "edges": len(g.edges), "predicates": g.predicate_count()}
        if req.algo == "ntscd-new":
            return _digest(req.algo, header, "ntscd", sorted(list(x) for x in self.ntscd(req.graph)))
        if req.algo == "dod-new":
            return _digest(req.algo, header, "dod", sorted(list(x) for x in self.dod(req.graph)))
        if req.algo == "cc":
            got = closure(frozenset(req.criterion), self.ntscd(req.graph), self.dod(req.graph))
            return _digest(req.algo, header, "closure", sorted(got))
        raise ValueError(f"unknown algorithm {req.algo!r}")
