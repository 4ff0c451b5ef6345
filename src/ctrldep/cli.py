"""Command-line front end: analyze, diff, gen, check, and bench.

Exit codes: 0 success, 1 relations differ (diff) or a mismatch was found
(check), 2 input/flag errors (including oracle budget), 3 closure
preconditions violated.

The argument parser is built once per process, on the first ``main`` call,
and every later call reuses it: a caller that runs ``main`` in-process many
times pays for it once, and a one-shot process pays for it once as well.
Importing this module builds none.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import shlex
import sys
import time
from bisect import bisect_left, bisect_right
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import chain, product
from json.encoder import encode_basestring_ascii
from random import Random
from typing import Callable, Collection, Iterable, Iterator, Literal, NamedTuple, Sequence

from .cfg import Cfg, ParseError, parse_cfg, predicate_indices, serialize_cfg
from .closures import ClosureSpec, ClosureSpecError, closure_labels, strong_closure_nodes
from .coloring import VpMap, vp_sets
from .dod import dod_formula_rows, dod_from_vp_rows, dod_labels
from .generate import MAX_NODES, MAX_REDUCIBLE_DEPTH, random_cfg, random_reducible_cfg, worst_case_dod_cfg
from .ntscd import (
    WorklistPolicy,
    ntscd_from_vp_rows,
    ntscd_labels,
    ntscd_new_rows,
    ntscd_ranganath_fixed_rows,
    ntscd_ranganath_rows,
)
from .oracle import ORACLE_MAX_NODES, BudgetError, oracle_relations


class RunOptions(NamedTuple):
    """What an algorithm reads besides the graph, parsed before any timing.

    ``vp`` is the graph's all-paths map (``vp_sets``), given to the four ids
    that read one: ntscd-vp, dod-new, dod-formula and dod-formula-fixed.
    ``check`` builds one per graph for all four; analyze, diff and bench
    leave it None, so each run, and each bench rep, builds its own.
    """

    policy: WorklistPolicy = "fifo"
    spec: ClosureSpec | None = None
    vp: VpMap | None = None


# What check and bench run every id with; analyze and diff parse their own.
DEFAULT_OPTIONS = RunOptions()


# Each kind of relation as labels, from the index rows an algorithm's
# ``run`` returns: distinct (p, n) for NTSCD, (p, A, B) blocks for DOD
# (every pair across A and B, under the contract ``ctrldep.dod`` states),
# and node indices for a closure.
LABELS: dict[str, Callable[[Cfg, Collection], frozenset]] = {
    "ntscd": ntscd_labels,
    "dod": dod_labels,
    "closure": closure_labels,
}


@dataclass(frozen=True)
class Algorithm:
    """One algorithm id: the relation it computes (also its ``analyze``
    report key), how to run it on node indices, and how ``check`` gates it
    against the oracle of its kind: "equal", "superset", or None (not
    gated)."""

    kind: str
    run: Callable[[Cfg, RunOptions], Collection]
    gate: Literal["equal", "superset"] | None

    def relation(self, g: Cfg, opts: RunOptions) -> frozenset:
        """The label relation of ``run``: what the library function returns.
        Most of ``check``'s graphs have an empty relation, so that skips the
        conversion."""
        rows = self.run(g, opts)
        return LABELS[self.kind](g, rows) if rows else frozenset()


def _vp(g: Cfg, opts: RunOptions) -> VpMap:
    """The all-paths map ``opts`` carries, or a new one for ``g``."""
    return vp_sets(g) if opts.vp is None else opts.vp


# ntscd-rang is not gated: under a popping policy it is known to be
# order-sensitive and wrong on some graphs, which is why it is kept.  The
# original DOD formula over-approximates, so it is gated as a superset.
ALGORITHMS: dict[str, Algorithm] = {
    "ntscd-new": Algorithm("ntscd", lambda g, o: ntscd_new_rows(g), "equal"),
    "ntscd-vp": Algorithm("ntscd", lambda g, o: ntscd_from_vp_rows(g, _vp(g, o)), "equal"),
    "ntscd-rang": Algorithm("ntscd", lambda g, o: ntscd_ranganath_rows(g, o.policy), None),
    "ntscd-rang-fixed": Algorithm("ntscd", lambda g, o: ntscd_ranganath_fixed_rows(g), "equal"),
    "dod-new": Algorithm("dod", lambda g, o: dod_from_vp_rows(g, _vp(g, o)), "equal"),
    "dod-formula": Algorithm("dod", lambda g, o: dod_formula_rows(g, "original", _vp(g, o)), "superset"),
    "dod-formula-fixed": Algorithm("dod", lambda g, o: dod_formula_rows(g, "fixed", _vp(g, o)), "equal"),
    "cc": Algorithm("closure", lambda g, o: strong_closure_nodes(g, o.spec), None),
}

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


# A DOD report is written in chunks of whole (p, x) groups of about this
# many characters, so a large report holds about this much text at a time.
WRITE_CHARS = 1 << 16


def _write_chunks(path: str, chunks: Iterable[str]) -> None:
    """Write text ``chunks`` as they come, through the file object's buffer,
    to the file at ``path`` or, for "-", to stdout, where text that does
    not end in a newline gets one."""
    with nullcontext(sys.stdout) if path == "-" else open(path, "w", encoding="utf-8") as fh:
        last = ""
        for chunk in chunks:
            fh.write(chunk)
            last = chunk[-1:] or last
        if path == "-" and last != "\n":
            fh.write("\n")


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
    rows = algo.run(g, opts)
    elapsed_us = (time.perf_counter_ns() - start) // 1000
    _write_chunks(args.output, report_json(g, args.algo, algo.kind, rows, elapsed_us))
    return 0


def report_json(g: Cfg, algo_id: str, kind: str, rows: Collection, elapsed_us: int) -> Iterator[str]:
    """The ``analyze`` report in chunks: the head, the relation's pieces,
    then the ``time_us`` tail.  Joined, they are byte for byte what
    ``json.dumps(report, indent=2)`` writes for {"graph": {"nodes",
    "edges", "predicates"}, "algo", kind: the sorted label relation,
    "time_us"}; no chunk holds the whole relation of a DOD.  The rows are
    grouped, and a DOD's blocks checked, in this call, so a producer fault
    raises before any chunk is written."""
    if not rows:
        relation: Iterable[str] = ("[]",)
    elif kind == "dod":
        relation = _dod_chunks(g.labels, rows)
    else:
        relation = (_relation_json(g.labels, kind, rows),)
    head = (
        f'{{\n  "graph": {{\n    "nodes": {len(g)},\n    "edges": {g.n_edges},\n'
        f'    "predicates": {len(predicate_indices(g))}\n  }},\n  "algo": {json.dumps(algo_id)},\n'
        f"  {json.dumps(kind)}: "
    )
    return chain((head,), relation, (f',\n  "time_us": {elapsed_us}\n}}',))


def _relation_json(labels: Sequence[str], kind: str, rows: Collection) -> str:
    """The indent-2 JSON array of a non-empty NTSCD relation's or
    closure's index rows, sorted by label, as one chunk.

    Only the labels the rows name are ranked and encoded, once each.
    NTSCD rows sort as integer keys over those ranks.  Returning the chunk,
    rather than yielding it, frees the row strings before it is written.
    """
    if kind == "closure":
        items = [encode_basestring_ascii(labels[i]) for i in sorted(rows, key=labels.__getitem__)]
        return "[\n    " + ",\n    ".join(items) + "\n  ]"
    rank, text = _ranks(labels, set(chain.from_iterable(rows)))
    k = len(text)
    keys = sorted([rank[p] * k + rank[x] for p, x in rows])
    items = [f"{text[key // k]},\n      {text[key % k]}" for key in keys]
    return "[\n    [\n      " + _ROW_SEP.join(items) + "\n    ]\n  ]"


# Between two rows of a relation array: the row that ends and the one that starts.
_ROW_SEP = "\n    ],\n    [\n      "


def _ranks(labels: Sequence[str], named: set[int]) -> tuple[list[int], list[str]]:
    """Each named node's rank in label order (indexed by node), and the
    JSON text of the label of each rank."""
    order = sorted(named, key=labels.__getitem__)
    rank = [0] * len(labels)
    for r, i in enumerate(order):
        rank[i] = r
    return rank, [encode_basestring_ascii(labels[i]) for i in order]


def _dod_chunks(labels: Sequence[str], blocks: Collection) -> Iterator[str]:
    """The indent-2 JSON array of a DOD relation's blocks, in chunks of
    whole (p, x) groups of about ``WRITE_CHARS`` characters: every triple
    (p, x, y) with x ranked before y, in label order.

    Each block's A and B are sorted by rank once.  The partners x ranks
    before in a block are a suffix of the other side, found by bisection,
    so a side's label texts are looked up once, in rank order, and only if
    it has a partner to give; a group is then a slice of them, joined in C.
    A pair is written in the group of its earlier member, so each comes
    once.  The block contract (``ctrldep.dod``) gives a group one block;
    blocks that break it raise RuntimeError.  The groups are made, and the
    contract checked, in this call; the chunks as they are read.
    """
    named = set()
    for p, a_side, b_side in blocks:
        named.add(p)
        named.update(a_side)
        named.update(b_side)
    rank, text = _ranks(labels, named)
    k = len(text)
    # Each group's block: the other side's texts, and where its partners start.
    groups: dict[int, tuple[list[str], int]] = {}
    for p, a_side, b_side in blocks:
        base = rank[p] * k
        a_ranks = sorted(map(rank.__getitem__, a_side))
        b_ranks = sorted(map(rank.__getitem__, b_side))
        for mine, other in ((a_ranks, b_ranks), (b_ranks, a_ranks)):
            # Only the members ranked before the other side's last have partners.
            stop = bisect_left(mine, other[-1])
            if not stop:
                continue
            other_text = list(map(text.__getitem__, other))
            for r in mine[:stop]:
                key = base + r
                if key in groups:
                    raise RuntimeError(f"DOD blocks give {text[r]} under {text[rank[p]]} partners from two blocks")
                groups[key] = other_text, bisect_right(other, r)
    return _group_chunks(text, groups)


def _group_chunks(text: list[str], groups: dict[int, tuple[list[str], int]]) -> Iterator[str]:
    """The DOD array text of ``_dod_chunks``' groups, in key order."""
    k = len(text)
    # Groups are gathered into chunks of about ``WRITE_CHARS`` characters:
    # a chunk per group costs more than the formula ids' small groups do.
    pending: list[str] = []
    size = 0
    lead = "[\n    [\n      "
    for key in sorted(groups):
        head = f"{text[key // k]},\n      {text[key % k]},\n      "
        other_text, start = groups[key]
        body = (_ROW_SEP + head).join(other_text[start:])
        pending += (lead + head, body)
        size += len(body)
        if size >= WRITE_CHARS:
            yield "".join(pending)
            pending.clear()
            size = 0
        lead = _ROW_SEP
    pending.append("\n    ]\n  ]")
    yield "".join(pending)


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
    first = ALGORITHMS[first_id].relation(g, opts)
    second = ALGORITHMS[second_id].relation(g, opts)
    if first == second:
        print(f"{first_id} == {second_id}: {len(first)} entries")
        return 0
    for item in sorted(second - first):
        print("+(" + ",".join(item) + ")")
    for item in sorted(first - second):
        print("-(" + ",".join(item) + ")")
    return 1


# Each shape's generator takes the sizes named here, in this order, then the
# seed; they are also the ``gen``/``bench`` flags that carry them.
SHAPES: dict[str, tuple[tuple[str, ...], Callable[..., Cfg]]] = {
    "random": (("nodes", "edges"), random_cfg),
    "reducible": (("depth",), random_reducible_cfg),
    "dod-worst": (("nodes",), lambda nodes, seed: worst_case_dod_cfg(nodes)),
}


def make_graph(shape: str, sizes: Sequence[int | None], seed: int) -> Cfg:
    """One graph of a ``gen``/``bench`` shape from the sizes it reads, in
    ``SHAPES`` order; a size it rejects is reported under the first flag."""
    names, build = SHAPES[shape]
    if None in sizes:
        raise ValueError(f"--shape {shape} requires " + " and ".join(f"--{name}" for name in names))
    try:
        return build(*sizes, seed)
    except ValueError as exc:
        raise ValueError(f"--{names[0]} {sizes[0]}: {exc}") from None


def cmd_gen(args: argparse.Namespace) -> int:
    g = make_graph(args.shape, [getattr(args, name) for name in SHAPES[args.shape][0]], args.seed)
    _write_chunks(args.output, (serialize_cfg(g, args.format),))
    return 0


def differential_failures(g: Cfg) -> list[str]:
    """Run every correctness-gated algorithm variant plus the oracle on one
    graph; returns human-readable descriptions of any disagreements, or of
    a variant that raised."""
    return _compare(g)[0]


def _compare(g: Cfg) -> tuple[list[str], dict[str, frozenset], dict[str, frozenset | str]]:
    """``differential_failures``, with the relations compared: the oracle's
    by kind, each gated id's by id.  The ids that read an all-paths map
    share one ``vp_sets`` map of ``g``, built here.  If building it raises,
    each of them builds its own, which raises again and is reported as that
    id's failure, as when each builds its own on every graph."""
    truth = oracle_relations(g)
    try:
        opts = RunOptions(vp=vp_sets(g))
    except Exception:
        opts = DEFAULT_OPTIONS
    failures: list[str] = []
    results: dict[str, frozenset | str] = {}
    for algo_id, algo in ALGORITHMS.items():
        if algo.gate is None:
            continue
        # To check, a variant that raises is a mismatch, not a crash.
        try:
            result = results[algo_id] = algo.relation(g, opts)
        except Exception as exc:
            result = results[algo_id] = f"raised {type(exc).__name__}: {exc}"
        if isinstance(result, str):
            failures.append(f"{algo_id} {result}")
        elif algo.gate == "equal" and result != truth[algo.kind]:
            failures.append(f"{algo_id} disagrees with the oracle")
        elif algo.gate == "superset" and not result >= truth[algo.kind]:
            failures.append(f"{algo_id} is not a superset of the oracle")
    return failures, truth, results


def check_cases(count: int, max_nodes: int, seed: int) -> Iterator[tuple[int, int, int]]:
    """Deterministic (nodes, edges, seed) triples for the differential run."""
    rng = Random(seed)
    for _ in range(count):
        n = rng.randint(2, max_nodes)
        m = rng.randint(0, 2 * n)
        yield n, m, rng.getrandbits(32)


def cmd_check(args: argparse.Namespace) -> int:
    print("note: ntscd-rang (worklist policy variants) is excluded from correctness gating; it is known-flawed")
    if args.input:
        graphs: Iterable[Cfg] = (_load_graph(args.input, args.format),)
        ok = "ok: all algorithm variants agree on the input graph"
    else:
        if args.count < 1:
            raise ValueError(f"--count must be at least 1, got {args.count}")
        if args.max_nodes < 2:
            raise ValueError(f"--max-nodes must be at least 2, got {args.max_nodes}")
        if args.max_nodes > ORACLE_MAX_NODES:
            raise BudgetError(f"--max-nodes {args.max_nodes} exceeds the oracle budget of {ORACLE_MAX_NODES}")
        # Drawn lazily, so memory does not grow with --count.
        graphs = (random_cfg(*case) for case in check_cases(args.count, args.max_nodes, args.seed))
        ok = f"ok: {args.count} graphs, all algorithm variants agree"
    for g in graphs:
        failures, truth, results = _compare(g)
        if failures:
            _dump_mismatch(g, failures, truth, results, args.fail_out)
            return 1
    print(ok)
    return 0


def _dump_mismatch(g: Cfg, failures: list[str], truth: dict, results: dict, path: str) -> None:
    """Report a mismatch: the graph written to ``path`` with a replay
    command, or, if it cannot be written, the reason on stderr; the failures
    and relations are printed either way."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(serialize_cfg(g, "json"))
        head, replay = f"written to {path}", f"replay: ctrldep check --input {shlex.quote(path)}"
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        head, replay = f"not written to {path}: {exc.strerror}", ""
    print(f"mismatch (graph {head}):")
    for line in failures:
        print("  " + line)
    for kind, relation in truth.items():
        print(f"  oracle {kind}:".ljust(22) + json.dumps(sorted(relation)))
        for algo_id, result in results.items():
            if ALGORITHMS[algo_id].kind == kind:
                shown = result if isinstance(result, str) else json.dumps(sorted(result))
                print(f"  {algo_id}:".ljust(22) + shown)
    if replay:
        print(replay)


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


def _parse_sweep(text: str) -> Sequence[int | None]:
    """Sweep syntax: a plain integer, or 'start..stop[:step]' (inclusive,
    kept a lazy range); an empty flag sweeps the one value None.  Used as an
    argparse type, so a bad sweep is a usage error that names its flag."""
    if not text:
        return [None]
    try:
        if ".." not in text:
            return [int(text)]
        span, _, step_text = text.partition(":")
        start_text, _, stop_text = span.partition("..")
        start, stop, step = int(start_text), int(stop_text), int(step_text or 1)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer or start..stop[:step]") from None
    if step <= 0:
        raise argparse.ArgumentTypeError("sweep step must be positive")
    values = range(start, stop + 1, step)
    if not values:
        raise argparse.ArgumentTypeError(f"range {text!r} sweeps no values")
    return values


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
    # A sweep's largest value comes last; refuse it where its generator would.
    for flag, sweep, cap, what in (
        ("--nodes", args.nodes, MAX_NODES, "node count"),
        ("--edges", args.edges, 2 * MAX_NODES, "edge count"),
        ("--depth", args.depth, MAX_REDUCIBLE_DEPTH, "depth"),
    ):
        if sweep[-1] is not None and sweep[-1] > cap:
            raise ValueError(f"{flag} {sweep[-1]}: {what} must be at most {cap}")
    # Cross only the sweeps the shape reads, so each graph is built once, all before any timing.
    sweeps = (getattr(args, name) for name in SHAPES[args.shape][0])
    cells = [make_graph(args.shape, sizes, args.seed) for sizes in product(*sweeps)]
    # Opened before the first timed call, so an unwritable --csv costs no timing.
    with open(args.csv, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("algo", "shape", "nodes", "edges", "seed", "reps", "mean_us", "min_us"))
        for algo_id in algos:
            run = ALGORITHMS[algo_id].run
            for g in cells:
                mean_us, min_us = time_algorithm(lambda gg: run(gg, DEFAULT_OPTIONS), g, args.reps)
                writer.writerow(
                    (algo_id, args.shape, len(g), g.n_edges, args.seed, args.reps, round(mean_us, 1), round(min_us, 1))
                )
    print(f"wrote {len(algos) * len(cells)} rows to {args.csv}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser, built on the first call; every caller
    shares it, so none may change it."""
    # The module docstring's last paragraph is about this cache, not for
    # --help (and under -OO there is no docstring).
    description = __doc__ and __doc__.rsplit("\n\n", 1)[0]
    parser = argparse.ArgumentParser(prog="ctrldep", description=description)
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="run one algorithm and report the relation")
    analyze.add_argument("--input", required=True)
    analyze.add_argument("--format", choices=("json", "edgelist"), default="json")
    analyze.add_argument("--algo", required=True, choices=sorted(ALGORITHMS))
    analyze.add_argument("--policy", default="fifo", help="fifo, lifo, or order:n1,n2,... (ntscd-rang only; no label with a comma)")
    analyze.add_argument("--criterion", default="", help="comma-separated node labels (cc only; no label with a comma)")
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
    gen.add_argument("--shape", required=True, choices=SHAPES)
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
    bench.add_argument("--shape", default="random", choices=SHAPES)
    bench.add_argument("--nodes", default="500", type=_parse_sweep, help="int or start..stop[:step]")
    bench.add_argument("--edges", default="", type=_parse_sweep, help="int or start..stop[:step] (random shape)")
    bench.add_argument("--depth", default="", type=_parse_sweep, help="int or start..stop[:step] (reducible shape)")
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
