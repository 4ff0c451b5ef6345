"""ctrldep benchmark: one workload, one closed-loop client, checked outputs.

Run from the root of a checkout that holds ``src/ctrldep``:

    python3 perfbench/run.py --workload dod-cycles --seed 1 --seconds 25 --trace 0

Set-up is timed ``SETUPS`` times, each in a fresh worker process (interpreter
start, ``import ctrldep``, generating and writing the inputs), and the median
is reported as ``setup_s``; the last worker then runs the closed loop.  After
it exits, this process computes reference outputs and checks every distinct
request's output against them.  The last line of stdout is one JSON object:
with ``--trace 0`` the end-to-end metrics, times scaled to the reference
CPU speed of ``speed.py``, with ``--trace 1`` the per-layer metrics of a
traced run (spans are written to
``.perfbench-out/trace-<workload>-seed<seed>.jsonl``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 15
SPEED_SAMPLES = 5  # calibration loops just before and just after each set-up
WORKER_TIMEOUT_S = 150


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _worker(args: argparse.Namespace, workdir: Path) -> subprocess.Popen:
    cmd = [sys.executable, "-m", "perfbench.worker", "--workload", args.workload, "--seed", str(args.seed)]
    cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace), "--workdir", str(workdir)]
    return subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)


def measure(args: argparse.Namespace, workdir: Path) -> tuple[list[float], list[float], dict]:
    """Time set-up ``SETUPS`` times, each with the speed scale of the
    calibration loop timed just before and just after it; the last worker
    also runs the loop.  Returns the set-up wall times, their scales, and
    the worker's result."""
    from perfbench import speed

    setups = []
    scales = []
    for i in range(SETUPS):
        gauge = speed.Gauge()
        for _ in range(SPEED_SAMPLES):
            gauge.sample()
        start = time.perf_counter()
        proc = _worker(args, workdir)
        try:
            line = proc.stdout.readline()
            setups.append(time.perf_counter() - start)
            for _ in range(SPEED_SAMPLES):
                gauge.sample()
            scales.append(gauge.scale())
            if line.strip() != "ready":
                raise RuntimeError(f"worker did not get ready (said {line.strip()!r})")
            proc.stdin.write("go\n" if i == SETUPS - 1 else "stop\n")
            proc.stdin.flush()
            proc.communicate(timeout=WORKER_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited with code {proc.returncode}")
    return setups, scales, json.loads((workdir / "result.json").read_text(encoding="utf-8"))


def count_failures(workload, result: dict) -> tuple[int, int, dict[str, str]]:
    """Attempted and failed requests; a distinct request whose output does
    not match its reference, or that never gave a readable output, fails on
    every run."""
    from perfbench.verify import References  # imports ctrldep: only after the checkout is checked

    refs = References(workload)
    errors = dict(result["errors"])
    attempted = sum(result["runs"].values())
    failed = 0
    for req in workload.requests:
        runs = result["runs"].get(req.key, 0)
        if not runs:
            continue
        bad = result["bad"].get(req.key, 0)
        digest = result["digests"].get(req.key)
        if digest is None:
            errors.setdefault(req.key, "no readable output")
            bad = runs
        elif digest != refs.expected_digest(req):
            errors.setdefault(req.key, "output differs from the reference")
            bad = runs
        failed += min(bad, runs)
    return attempted, failed, errors


def print_coverage(coverage: dict[str, dict[str, int]]) -> None:
    """One row per distinct request (at most 40): the properties each
    workload was chosen for; DOD columns read '-' where no DOD was computed."""
    print(f"  {'request':<32} {'nodes':>6} {'sum|vp|':>9} {'max|vp|>1':>9} {'matched':>7} {'triples':>8} {'out_bytes':>10}")
    for key, c in list(coverage.items())[:40]:
        dod = c["cover.dod_requests"] > 0
        matched = c["dod.preds_matched"] if dod else "-"
        triples = c["dod.triples"] if dod else "-"
        print(
            f"  {key:<32} {c['cfg.parse_cfg.nodes']:>6} {c['coloring.vp_total']:>9} {'yes' if c['cover.vp_gt1'] else 'no':>9}"
            f" {matched:>7} {triples:>8} {c['cli.output_bytes']:>10}"
        )
    if len(coverage) > 40:
        print(f"  ... {len(coverage) - 40} more requests")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ctrldep" / "__init__.py").is_file():
        return _fail(f"no ctrldep sources under {ROOT / 'src'}; run from a checkout of the repository")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    import ctrldep  # compiles the package once, before any timed set-up

    from perfbench import metric_units, workloads

    if Path(ctrldep.__file__).resolve().parent != ROOT / "src" / "ctrldep":
        return _fail(f"imported ctrldep from {ctrldep.__file__}, not from this checkout")
    if args.workload not in workloads.BUILDERS:
        return _fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.BUILDERS)}")
    if args.seconds <= 0:
        return _fail("--seconds must be positive")

    # Set-up is scaled by the calibration loop timed in this process, so this
    # process and its workers, which inherit the mask, share one core: the
    # two cores of the machine of record change speed partly independently.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    out_dir = ROOT / ".perfbench-out"
    workdir = out_dir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        try:
            setups, scales, result = measure(args, workdir)
        except (RuntimeError, OSError, ValueError, subprocess.TimeoutExpired) as exc:
            return _fail(str(exc))
        if args.trace:
            shutil.move(workdir / "trace.jsonl", out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    workload = workloads.build(args.workload, args.seed)
    attempted, failed, errors = count_failures(workload, result)
    correct = failed == 0 and attempted > 0
    if args.trace:
        units = metric_units("per_layer")
        values = result["metrics"]
        correct = correct and result["counters_repeat"] and not result["stage_replay_mismatches"]
    else:
        units = metric_units("end_to_end")
        values = {k: result[k] for k in units if k != "setup_s"}
        values["setup_s"] = statistics.median(t * k for t, k in zip(setups, scales))
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"machine: nproc={os.cpu_count()} python={platform.python_version()} ({platform.machine()})")
    print(f"why: {workload.why}")
    print(f"client: closed loop, 1 client; {len(workload.requests)} distinct requests on {len(workload.graphs)} graphs")
    print(f"setup_s wall samples: {', '.join(f'{t:.4f}' for t in setups)}")
    print(f"setup_s speed scales: {', '.join(f'{k:.4f}' for k in scales)}")
    if not args.trace:
        wall = {**result["wall"], "setup_s": statistics.median(setups)}
        print(f"times at the reference speed (request wall times x speed scale {result['speed_scale']:.4f}):")
    for name, m in metrics.items():
        raw = f"  (wall {wall[name]:.6g})" if not args.trace and name in wall else ""
        print(f"  {name:<34} {m['value']:>16.6g} {m['unit']}{raw}")
    print(f"  {'error_rate':<34} {failed / max(attempted, 1):>16.6g} ratio ({failed} of {attempted} requests)")
    if args.trace:
        print(f"  traced passes: {result['passes']}; counters repeat: {result['counters_repeat']}")
        print_coverage(result["coverage"])
    for key, why in sorted(errors.items())[:10]:
        print(f"  error in {key}: {why}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
