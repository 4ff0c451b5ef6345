"""The workload process: set up, then run one closed-loop client.

Started fresh by ``run.py`` as ``python3 -m perfbench.worker`` from the
checkout root.  It imports ctrldep, writes the workload's graphs to the work
directory, and prints ``ready``.  On ``go`` from stdin it sends requests
one after another, each only after the previous one returned, for the given
number of seconds, and writes its measurements to ``result.json``; on
anything else it exits, so that set-up alone can be timed again.

A request is one in-process ``ctrldep.cli.main(["analyze", ...])`` call, or,
in the check-gate workload, one ``ctrldep.cli.differential_failures(g)``
call.  Only the call is timed; reducing its output to a digest happens
after the clock stops.  References are never computed here, so they do not
count in this process's peak RSS.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from ctrldep import cli  # noqa: E402
from ctrldep.cfg import parse_cfg  # noqa: E402

from perfbench import metric_units, speed, tracing, verify, workloads  # noqa: E402


class Outcomes:
    """Per distinct request: how often it ran, how often it failed here, and
    the digest of its first output (repeats must match that output)."""

    def __init__(self) -> None:
        self.runs: Counter = Counter()
        self.bad: Counter = Counter()
        self.digest: dict[str, str] = {}
        self._raw: dict[str, bytes] = {}  # hash of the first output's bytes
        self.errors: dict[str, str] = {}

    def fail(self, key: str, why: str) -> None:
        self.bad[key] += 1
        self.errors.setdefault(key, why)

    def analyze_output(self, key: str, rc, out_path: str) -> None:
        if rc != 0:
            self.fail(key, f"exit code {rc}")
            return
        try:
            with open(out_path, "rb") as fh:
                data = fh.read()
            os.remove(out_path)
        except OSError as exc:
            self.fail(key, f"no output: {exc}")
            return
        raw = hashlib.sha256(verify.strip_timing(data)).digest()
        if key not in self._raw:
            self._raw[key] = raw
            try:
                self.digest[key] = verify.output_digest(data)
            except (ValueError, KeyError, TypeError) as exc:
                self.fail(key, f"unreadable output: {exc}")
        elif raw != self._raw[key]:
            self.fail(key, "output differs from the first run of the same request")

    def check_output(self, key: str, failures) -> None:
        digest = verify.check_digest(failures)
        if self.digest.setdefault(key, digest) != digest:
            self.fail(key, "check result differs from the first run")
        if failures:
            self.errors.setdefault(key, "; ".join(failures))


# Per-request counters shown in the traced run's coverage table.
COVERAGE_KEYS = (
    "cfg.parse_cfg.nodes",
    "coloring.vp_total",
    "cover.vp_gt1",
    "cover.dod_requests",
    "dod.preds_matched",
    "dod.triples",
    "cli.output_bytes",
)


class Client:
    """The one client of a workload: sends its requests and keeps their outcomes."""

    def __init__(self, workload: workloads.Workload, workdir: Path) -> None:
        self.w = workload
        self.workdir = workdir
        self.out_path = str(workdir / "out.json")
        self.texts: list[str] = []
        self.cfgs = []
        self.outcomes = Outcomes()
        self.coverage: dict[str, dict[str, int]] = {}

    def setup(self) -> None:
        """Write every graph as JSON; check-gate graphs are parsed here too,
        because a check request takes a graph, not a file."""
        for i, g in enumerate(self.w.graphs):
            text = json.dumps({"nodes": g.labels, "edges": [list(e) for e in g.edges]}, separators=(",", ":"))
            (self.workdir / f"g{i}.json").write_text(text, encoding="utf-8")
            self.texts.append(text)
        if self.w.name == "check-gate":
            self.cfgs = [parse_cfg(text) for text in self.texts]

    def argv(self, req: workloads.Request) -> list[str]:
        argv = ["analyze", "--input", str(self.workdir / f"g{req.graph}.json"), "--algo", req.algo]
        argv += ["--output", self.out_path]
        if req.criterion:
            argv += ["--criterion", ",".join(req.criterion), "--start", req.criterion[0]]
        return argv

    def request(self, req: workloads.Request) -> int:
        """Send one request; returns its wall time in ns."""
        key = req.key
        self.outcomes.runs[key] += 1
        if req.algo == "check":
            g = self.cfgs[req.graph]
            start = time.perf_counter_ns()
            try:
                failures = cli.differential_failures(g)
            except Exception as exc:  # a request that raises is a failed request
                failures = [f"raised {type(exc).__name__}: {exc}"]
            elapsed = time.perf_counter_ns() - start
            self.outcomes.check_output(key, failures)
            return elapsed
        argv = self.argv(req)
        start = time.perf_counter_ns()
        try:
            rc = cli.main(argv)
        except (Exception, SystemExit) as exc:
            rc = f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter_ns() - start
        self.outcomes.analyze_output(key, rc, self.out_path)
        return elapsed

    def closed_loop(self, seconds: float, seed: int, gauge: speed.Gauge) -> tuple[list[int], int]:
        """Requests back to back, in passes over every distinct request in a
        seeded order, until a pass ends after ``seconds``; whole passes keep
        the request mix, and with it every figure, the same from run to run.
        ``gauge`` samples the CPU speed between requests.  Returns every
        request's wall time and the nodes processed."""
        order = list(self.w.requests)
        random.Random(seed).shuffle(order)
        times: list[int] = []
        nodes = 0
        gauge.sample()
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            for req in order:
                gauge.tick()
                times.append(self.request(req))
                nodes += len(self.w.graphs[req.graph].labels)
        return times, nodes

    def traced_pass(self, tr: tracing.Tracer) -> tuple[Counter, int, list[int]]:
        """Every distinct request once, traced; returns the counters, the
        summed emit time in ns, and the wall time of each whole traced
        request (the call and its layer replays)."""
        counts: Counter = Counter()
        emit_ns = 0
        times = []
        for req in self.w.requests:
            before = counts.copy()
            self.outcomes.runs[req.key] += 1
            tr.request = req.key
            with tr.span("bench.request") as span:
                try:
                    if req.algo == "check":
                        failures = tracing.traced_check(tr, counts, self.cfgs[req.graph], self.texts[req.graph])
                    else:
                        rc, emit = tracing.traced_analyze(
                            tr, counts, self.argv(req), self.texts[req.graph], req.algo, req.criterion
                        )
                        emit_ns += emit
                except (Exception, SystemExit) as exc:
                    self.outcomes.fail(req.key, f"traced request raised {type(exc).__name__}: {exc}")
                    continue
                if req.algo == "check":
                    self.outcomes.check_output(req.key, failures)
                else:
                    if os.path.exists(self.out_path):
                        with open(self.out_path, "rb") as fh:
                            counts["cli.output_bytes"] += len(verify.strip_timing(fh.read()))
                    self.outcomes.analyze_output(req.key, rc, self.out_path)
            times.append(span[3] - span[2])
            self.coverage[req.key] = {k: counts[k] - before[k] for k in COVERAGE_KEYS}
        tr.request = None
        return counts, emit_ns, times


def percentile(sorted_values: list, q: int):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, -(-len(sorted_values) * q // 100) - 1)]


def run_untraced(client: Client, seconds: float, seed: int) -> dict:
    """End-to-end metrics at the reference speed, and the raw wall times'
    figures with the speed scale for the report."""
    gauge = speed.Gauge()
    times, nodes = client.closed_loop(seconds, seed, gauge)
    ms = sorted(t / 1e6 for t in times)
    wall = {
        "latency_ms.p50": statistics.median(ms),
        "latency_ms.p90": percentile(ms, 90),
        "nodes_per_s": nodes / (sum(times) / 1e9),
    }
    scale = gauge.scale()
    return {
        "latency_ms.p50": wall["latency_ms.p50"] * scale,
        "latency_ms.p90": wall["latency_ms.p90"] * scale,
        "nodes_per_s": wall["nodes_per_s"] / scale,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "wall": wall,
        "speed_scale": scale,
    }


def run_traced(client: Client, seconds: float, seed: int, trace_path: Path) -> dict:
    """Half the time untraced, for the overhead baseline; then traced passes
    over the distinct requests until the other half is used (at least one).
    A time metric ``<span>.ms`` is the median over passes of the span's
    summed self time; counters come from the first pass and must repeat in
    every later one.  The tracing overhead compares the median whole traced
    request (the call, its spans and its layer replays) with the median
    untraced request."""
    untraced, _ = client.closed_loop(seconds / 2, seed, speed.Gauge())
    tr = tracing.Tracer()
    passes = []
    deadline = time.perf_counter() + seconds / 2
    while not passes or time.perf_counter() < deadline:
        first = len(tr.spans)
        counts, emit_ns, times = client.traced_pass(tr)
        self_ms = tr.self_times_ms(first)
        self_ms["cli.emit"] = emit_ns / 1e6
        passes.append((counts, self_ms, times))
    tr.write(str(trace_path))
    counts = passes[0][0]
    repeats = all(c == counts for c, _, _ in passes[1:])
    metrics = {}
    for name, unit in metric_units("per_layer").items():
        if unit == "ms":
            metrics[name] = float(statistics.median(t[name[: -len(".ms")]] for _, t, _ in passes))
        else:
            metrics[name] = counts[name]
    nodes = counts["cfg.parse_cfg.nodes"]
    metrics["cover.vp_mean"] = counts["coloring.vp_total"] / nodes if nodes else 0.0
    metrics["cover.vp_gt1_share"] = counts["cover.vp_gt1"] / len(client.w.requests)
    dod_requests = counts["cover.dod_requests"]
    metrics["cover.dod_share"] = counts["cover.dod_nonempty"] / dod_requests if dod_requests else 0.0
    traced_p50 = statistics.median(t for _, _, ts in passes for t in ts)
    metrics["bench.tracing_overhead_pct"] = 100.0 * (traced_p50 / statistics.median(untraced) - 1.0)
    return {
        "metrics": metrics,
        "passes": len(passes),
        "counters_repeat": repeats,
        "stage_replay_mismatches": counts["bench.stage_replay_mismatches"],
        "coverage": client.coverage,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)
    workdir = Path(args.workdir)
    client = Client(workloads.build(args.workload, args.seed), workdir)
    client.setup()
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0
    if args.trace:
        result = run_traced(client, args.seconds, args.seed, workdir / "trace.jsonl")
    else:
        result = run_untraced(client, args.seconds, args.seed)
    o = client.outcomes
    result.update(
        runs=dict(o.runs),
        bad=dict(o.bad),
        digests=o.digest,
        errors=o.errors,
    )
    (workdir / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
