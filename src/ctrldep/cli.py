"""Command-line front end: analyze, diff, gen, check, and bench.

Exit codes: 0 success, 1 relations differ (diff) or a mismatch was found
(check), 2 input/flag errors (including oracle budget), 3 closure
preconditions violated.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import astuple, dataclass, fields
from itertools import product
from random import Random
from typing import Callable, Literal, NamedTuple, Sequence

from .cfg import Cfg, ParseError, parse_cfg, predicates, serialize_cfg
from .closures import ClosureSpec, ClosureSpecError, strong_closure
from .coloring import vp_sets
from .dod import dod_formula, dod_new
from .generate import random_cfg, random_reducible_cfg, worst_case_dod_cfg
from .ntscd import (
    WorklistPolicy,
    ntscd_from_vp,
    ntscd_new,
    ntscd_ranganath,
    ntscd_ranganath_fixed,
)
from .oracle import ORACLE_MAX_NODES, BudgetError, oracle_dod, oracle_ntscd


class RunOptions(NamedTuple):
    """What an algorithm reads besides the graph, parsed before any timing."""

    policy: WorklistPolicy = "fifo"
    spec: ClosureSpec | None = None


@dataclass(frozen=True)
class Algorithm:
    """One algorithm id: the relation it computes (also its ``analyze``
    report key), how to run it, and how ``check`` gates it against the
    oracle of its kind: "equal", "superset", or None (not gated)."""

    kind: str
    run: Callable[[Cfg, RunOptions], frozenset]
    gate: Literal["equal", "superset"] | None


# ntscd-rang is not gated: under a popping policy it is known to be
# order-sensitive and wrong on some graphs, which is why it is kept.  The
# original DOD formula over-approximates, so it is gated as a superset.
ALGORITHMS: dict[str, Algorithm] = {
    "ntscd-new": Algorithm("ntscd", lambda g, o: ntscd_new(g), "equal"),
    "ntscd-vp": Algorithm("ntscd", lambda g, o: ntscd_from_vp(g, vp_sets(g)), "equal"),
    "ntscd-rang": Algorithm("ntscd", lambda g, o: ntscd_ranganath(g, o.policy), None),
    "ntscd-rang-fixed": Algorithm("ntscd", lambda g, o: ntscd_ranganath_fixed(g), "equal"),
    "dod-new": Algorithm("dod", lambda g, o: dod_new(g), "equal"),
    "dod-formula": Algorithm("dod", lambda g, o: dod_formula(g, "original"), "superset"),
    "dod-formula-fixed": Algorithm("dod", lambda g, o: dod_formula(g, "fixed"), "equal"),
    "cc": Algorithm("closure", lambda g, o: strong_closure(g, o.spec), None),
}

ORACLES: dict[str, Callable[[Cfg], frozenset]] = {"ntscd": oracle_ntscd, "dod": oracle_dod}


def _parse_policy(text: str) -> WorklistPolicy:
    if text in ("fifo", "lifo"):
        return text
    if text.startswith("order:"):
        labels = [x for x in text[len("order:"):].split(",") if x]
        if not labels:
            raise ValueError("empty explicit order")
        return labels
    raise ValueError(f"bad policy {text!r}; expected fifo, lifo, or order:n1,n2,...")


def _load_graph(path: str, fmt: str) -> Cfg:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_cfg(fh.read(), fmt)


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def cmd_analyze(args: argparse.Namespace) -> int:
    g = _load_graph(args.input, args.format)
    algo = ALGORITHMS[args.algo]
    if algo.kind != "closure":
        opts = RunOptions(policy=_parse_policy(args.policy))
    elif not args.criterion or not args.start:
        raise ValueError("cc requires --criterion and --start")
    else:
        opts = RunOptions(spec=ClosureSpec(w=frozenset(args.criterion.split(",")), start=args.start))
    start = time.perf_counter_ns()
    result = algo.run(g, opts)
    elapsed_us = (time.perf_counter_ns() - start) // 1000
    report = {
        "graph": {
            "nodes": len(g),
            "edges": g.n_edges,
            "predicates": len(predicates(g)),
        },
        "algo": args.algo,
        algo.kind: sorted(result),
        "time_us": elapsed_us,
    }
    _write_text(args.output, json.dumps(report, indent=2))
    return 0


def cmd_diff(args: argparse.Namespace) -> int:
    if len(args.algo) != 2:
        raise ValueError("diff needs exactly two --algo options")
    first_id, second_id = args.algo
    first_kind, second_kind = (ALGORITHMS[a].kind for a in args.algo)
    if first_kind != second_kind:
        raise ValueError(f"cannot diff a {first_kind} relation against a {second_kind} relation")
    if first_kind == "closure":
        raise ValueError("diff does not support cc")
    g = _load_graph(args.input, args.format)
    opts = RunOptions(policy=_parse_policy(args.policy))
    first = ALGORITHMS[first_id].run(g, opts)
    second = ALGORITHMS[second_id].run(g, opts)
    if first == second:
        print(f"{first_id} == {second_id}: {len(first)} entries")
        return 0
    for item in sorted(second - first):
        print("+(" + ",".join(item) + ")")
    for item in sorted(first - second):
        print("-(" + ",".join(item) + ")")
    return 1


def make_graph(shape: str, nodes: int | None, edges: int | None, depth: int | None, seed: int) -> Cfg:
    """One graph of a ``gen``/``bench`` shape; sizes the shape does not read are ignored."""
    if shape == "random":
        if nodes is None or edges is None:
            raise ValueError("--shape random requires --nodes and --edges")
        return random_cfg(nodes, edges, seed)
    if shape == "reducible":
        if depth is None:
            raise ValueError("--shape reducible requires --depth")
        return random_reducible_cfg(depth, seed)
    if shape == "dod-worst":
        if nodes is None:
            raise ValueError("--shape dod-worst requires --nodes")
        return worst_case_dod_cfg(nodes)
    raise ValueError(f"unknown shape {shape!r}")


def cmd_gen(args: argparse.Namespace) -> int:
    g = make_graph(args.shape, args.nodes, args.edges, args.depth, args.seed)
    _write_text(args.output, serialize_cfg(g, args.format))
    return 0


def differential_failures(g: Cfg) -> list[str]:
    """Run every correctness-gated algorithm variant plus the oracle on one
    graph; returns human-readable descriptions of any disagreements."""
    truth = {kind: oracle(g) for kind, oracle in ORACLES.items()}
    opts = RunOptions()
    failures: list[str] = []
    for algo_id, algo in ALGORITHMS.items():
        if algo.gate is None:
            continue
        result = algo.run(g, opts)
        if algo.gate == "equal" and result != truth[algo.kind]:
            failures.append(f"{algo_id} disagrees with the oracle")
        elif algo.gate == "superset" and not result >= truth[algo.kind]:
            failures.append(f"{algo_id} is not a superset of the oracle")
    return failures


def check_cases(count: int, max_nodes: int, seed: int) -> list[tuple[int, int, int]]:
    """Deterministic (nodes, edges, seed) triples for the differential run."""
    rng = Random(seed)
    cases = []
    for _ in range(count):
        n = rng.randint(2, max_nodes)
        m = rng.randint(0, 2 * n)
        cases.append((n, m, rng.getrandbits(32)))
    return cases


def _check_one(case: tuple[int, int, int]) -> list[str]:
    n, m, gseed = case
    return differential_failures(random_cfg(n, m, gseed))


def worker_count() -> int:
    """Worker cap from CTRLDEP_THREADS (unset: 1, 0: all cores)."""
    env = os.environ.get("CTRLDEP_THREADS")
    if env is None:
        return 1
    if not env.strip().isdecimal():
        raise ValueError(f"CTRLDEP_THREADS must be an integer >= 0, got {env!r}")
    value = int(env)
    return value if value > 0 else (os.cpu_count() or 1)


def cmd_check(args: argparse.Namespace) -> int:
    print("note: ntscd-rang (worklist policy variants) is excluded from correctness gating; it is known-flawed")
    if args.input:
        g = _load_graph(args.input, args.format)
        if len(g) > ORACLE_MAX_NODES:
            raise BudgetError(f"graph has {len(g)} nodes; oracle budget is {ORACLE_MAX_NODES}")
        failures = differential_failures(g)
        if failures:
            _dump_mismatch(g, failures, args.fail_out)
            return 1
        print("ok: all algorithm variants agree on the input graph")
        return 0
    if args.max_nodes < 2:
        raise ValueError(f"--max-nodes must be at least 2, got {args.max_nodes}")
    if args.max_nodes > ORACLE_MAX_NODES:
        raise BudgetError(f"--max-nodes {args.max_nodes} exceeds the oracle budget of {ORACLE_MAX_NODES}")
    cases = check_cases(args.count, args.max_nodes, args.seed)
    workers = worker_count()
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            all_failures = list(pool.map(_check_one, cases, chunksize=max(1, len(cases) // (4 * workers))))
    else:
        all_failures = [_check_one(case) for case in cases]
    for case, failures in zip(cases, all_failures):
        if failures:
            g = random_cfg(*case)
            _dump_mismatch(g, failures, args.fail_out)
            return 1
    print(f"ok: {len(cases)} graphs, all algorithm variants agree")
    return 0


def _dump_mismatch(g: Cfg, failures: list[str], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_cfg(g, "json"))
    print(f"mismatch (graph written to {path}):")
    for line in failures:
        print("  " + line)
    for kind, oracle in ORACLES.items():
        print(f"  oracle {kind}:".ljust(22) + json.dumps(sorted(oracle(g))))
        for algo_id, algo in ALGORITHMS.items():
            if algo.kind == kind and algo.gate is not None:
                print(f"  {algo_id}:".ljust(22) + json.dumps(sorted(algo.run(g, RunOptions()))))


@dataclass(frozen=True)
class BenchRecord:
    algo: str
    shape: str
    nodes: int
    edges: int
    seed: int
    reps: int
    mean_us: float
    min_us: float


def time_algorithm(fn: Callable[[Cfg], object], g: Cfg, reps: int) -> tuple[float, float]:
    """Mean and minimum wall time in microseconds over ``reps`` runs.

    Only the algorithm call is timed; graph construction is excluded.
    """
    timings = []
    for _ in range(reps):
        start = time.perf_counter_ns()
        fn(g)
        timings.append(time.perf_counter_ns() - start)
    return (sum(timings) / len(timings)) / 1000.0, min(timings) / 1000.0


def _parse_sweep(text: str) -> list[int | None]:
    """Sweep syntax: a plain integer, or 'start..stop:step' (inclusive); an
    empty flag sweeps the one value None."""
    if not text:
        return [None]
    if ".." in text:
        span, _, step_text = text.partition(":")
        start_text, _, stop_text = span.partition("..")
        step = int(step_text) if step_text else 1
        if step <= 0:
            raise ValueError("sweep step must be positive")
        return list(range(int(start_text), int(stop_text) + 1, step))
    return [int(text)]


def cmd_bench(args: argparse.Namespace) -> int:
    if args.reps < 1:
        raise ValueError(f"--reps must be at least 1, got {args.reps}")
    algos = [a for a in args.algos.split(",") if a]
    if not algos:
        raise ValueError("empty algorithm list")
    for a in algos:
        if a not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {a!r}")
        if ALGORITHMS[a].kind == "closure":
            raise ValueError(f"{a} needs a criterion set and a start node, so bench cannot time it; use analyze")
    cells: list[Cfg] = []
    for n, m, d in product(_parse_sweep(args.nodes), _parse_sweep(args.edges), _parse_sweep(args.depth)):
        g = make_graph(args.shape, n, m, d, args.seed)
        if g not in cells:  # a shape ignores the sizes it does not read
            cells.append(g)
    records = []
    for algo_id in algos:
        run = ALGORITHMS[algo_id].run
        for g in cells:
            mean_us, min_us = time_algorithm(lambda gg: run(gg, RunOptions()), g, args.reps)
            records.append(
                BenchRecord(
                    algo=algo_id,
                    shape=args.shape,
                    nodes=len(g),
                    edges=g.n_edges,
                    seed=args.seed,
                    reps=args.reps,
                    mean_us=round(mean_us, 1),
                    min_us=round(min_us, 1),
                )
            )
    with open(args.csv, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(f.name for f in fields(BenchRecord))
        writer.writerows(astuple(r) for r in records)
    print(f"wrote {len(records)} rows to {args.csv}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ctrldep", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="run one algorithm and report the relation")
    analyze.add_argument("--input", required=True)
    analyze.add_argument("--format", choices=("json", "edgelist"), default="json")
    analyze.add_argument("--algo", required=True, choices=sorted(ALGORITHMS))
    analyze.add_argument("--policy", default="fifo", help="fifo, lifo, or order:n1,n2,... (ntscd-rang only)")
    analyze.add_argument("--criterion", default="", help="comma-separated node labels (cc only)")
    analyze.add_argument("--start", default="", help="start node (cc only)")
    analyze.add_argument("--output", default="-")
    analyze.set_defaults(func=cmd_analyze)

    diff = sub.add_parser("diff", help="compare two algorithms on one graph")
    diff.add_argument("--input", required=True)
    diff.add_argument("--format", choices=("json", "edgelist"), default="json")
    diff.add_argument("--algo", action="append", required=True, choices=sorted(ALGORITHMS), help="give exactly twice")
    diff.add_argument("--policy", default="fifo")
    diff.set_defaults(func=cmd_diff)

    gen = sub.add_parser("gen", help="generate a graph")
    gen.add_argument("--shape", required=True, choices=("random", "reducible", "dod-worst"))
    gen.add_argument("--nodes", type=int)
    gen.add_argument("--edges", type=int)
    gen.add_argument("--depth", type=int)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--format", choices=("json", "edgelist"), default="json")
    gen.add_argument("--output", default="-")
    gen.set_defaults(func=cmd_gen)

    check = sub.add_parser("check", help="differential run of all variants against the oracle")
    check.add_argument("--count", type=int, default=100)
    check.add_argument("--max-nodes", type=int, default=12)
    check.add_argument("--seed", type=int, default=0)
    check.add_argument("--input", default="")
    check.add_argument("--format", choices=("json", "edgelist"), default="json")
    check.add_argument("--fail-out", default="ctrldep-mismatch.json")
    check.set_defaults(func=cmd_check)

    bench = sub.add_parser("bench", help="timing sweep written as CSV")
    bench.add_argument("--shape", default="random", choices=("random", "reducible", "dod-worst"))
    bench.add_argument("--nodes", default="500", help="int or start..stop:step")
    bench.add_argument("--edges", default="", help="int or start..stop:step (random shape)")
    bench.add_argument("--depth", default="", help="int or start..stop:step (reducible shape)")
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--reps", type=int, default=10)
    bench.add_argument("--algos", required=True, help="comma-separated algorithm ids")
    bench.add_argument("--csv", required=True)
    bench.set_defaults(func=cmd_bench)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ClosureSpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ParseError, BudgetError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
