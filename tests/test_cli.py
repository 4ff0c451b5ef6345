"""End-to-end CLI runs: exit codes, report schema, and determinism."""

from __future__ import annotations

import csv
import json
import os
import resource
import subprocess
import sys
import threading
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ctrldep import (
    Cfg,
    ClosureSpec,
    cli,
    dod_formula,
    dod_new,
    ntscd_new,
    ntscd_ranganath,
    ntscd_ranganath_fixed,
    parse_cfg,
    predicates,
    random_cfg,
    random_reducible_cfg,
    serialize_cfg,
    strong_closure,
    worst_case_dod_cfg,
)
from ctrldep.coloring import vp_sets
from ctrldep.dod import dod_labels
from ctrldep.generate import MAX_NODES, MAX_REDUCIBLE_DEPTH
from ctrldep.ntscd import ntscd_from_vp

from conftest import fed_cycle_cfg, small_cfgs

FIG3 = '{"nodes":["1","2","3","4","5","6"],"edges":[["1","2"],["1","6"],["2","3"],["2","4"],["3","5"],["4","5"],["5","6"]]}'
FIG4 = '{"nodes":["a","b","c"],"edges":[["a","b"],["a","c"],["b","c"],["c","b"]]}'
FIG5 = '{"nodes":["p","a","b","c"],"edges":[["p","a"],["p","b"],["b","c"],["a","b"],["b","a"]]}'

SRC = Path(__file__).resolve().parents[1] / "src"


def cli_env(**extra: str) -> dict[str, str]:
    """The child's environment: this tree's ``src`` first on ``PYTHONPATH``,
    so the CLI under test is the checked-out one whatever the child's working
    directory or an installed copy; existing entries follow it."""
    env = dict(os.environ, **extra)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), inherited]) if inherited else str(SRC)
    return env


def run_cli(*argv: str, cwd=None, env=None, preexec_fn=None):
    return subprocess.run(
        [sys.executable, "-m", "ctrldep.cli", *argv],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env or cli_env(),
        preexec_fn=preexec_fn,
    )


def cap_address_space() -> None:
    """Run in the child before the CLI starts: 1.5 GB of address space is
    room for the interpreter, not for a list of a long sweep's values or of
    ``check``'s cases, so a list built eagerly ends in MemoryError instead
    of exhausting memory."""
    resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000, 1_500_000_000))


@pytest.fixture
def fig3_file(tmp_path):
    path = tmp_path / "fig3.json"
    path.write_text(FIG3)
    return str(path)


@pytest.fixture
def fig4_file(tmp_path):
    path = tmp_path / "fig4.json"
    path.write_text(FIG4)
    return str(path)


@pytest.fixture
def fig5_file(tmp_path):
    path = tmp_path / "fig5.json"
    path.write_text(FIG5)
    return str(path)


def test_analyze_ntscd_new(fig3_file):
    proc = run_cli("analyze", "--algo", "ntscd-new", "--input", fig3_file)
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["ntscd"] == [["1", "2"], ["1", "5"], ["2", "3"], ["2", "4"]]
    assert report["graph"] == {"nodes": 6, "edges": 7, "predicates": 2}
    assert report["algo"] == "ntscd-new"
    assert isinstance(report["time_us"], int)
    assert "dod" not in report and "closure" not in report


def test_analyze_rang_fifo(fig3_file):
    proc = run_cli("analyze", "--algo", "ntscd-rang", "--policy", "fifo", "--input", fig3_file)
    report = json.loads(proc.stdout)
    assert ["1", "6"] in report["ntscd"]
    assert ["1", "5"] not in report["ntscd"]


def test_analyze_dod_new(fig4_file):
    proc = run_cli("analyze", "--algo", "dod-new", "--input", fig4_file)
    report = json.loads(proc.stdout)
    assert report["dod"] == [["a", "b", "c"]]


def test_analyze_cc(fig3_file):
    proc = run_cli(
        "analyze", "--algo", "cc", "--criterion", "1,6", "--start", "1", "--input", fig3_file
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["closure"] == ["1", "6"]


def test_analyze_cc_precondition_exit_3(fig3_file, fig4_file):
    proc = run_cli(
        "analyze", "--algo", "cc", "--criterion", "6", "--start", "1", "--input", fig3_file
    )
    assert proc.returncode == 3
    proc = run_cli(
        "analyze", "--algo", "cc", "--criterion", "b", "--start", "b", "--input", fig4_file
    )
    assert proc.returncode == 3  # "a" is unreachable from "b"


def test_analyze_is_deterministic(fig3_file):
    outputs = set()
    for _ in range(2):
        proc = run_cli("analyze", "--algo", "ntscd-new", "--input", fig3_file)
        report = json.loads(proc.stdout)
        del report["time_us"]
        outputs.add(json.dumps(report, sort_keys=True))
    assert len(outputs) == 1


def test_analyze_bad_input_exit_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"nodes":["a","a"],"edges":[]}')
    proc = run_cli("analyze", "--algo", "ntscd-new", "--input", str(path))
    assert proc.returncode == 2
    assert "duplicate node label" in proc.stderr


@pytest.mark.parametrize("command", ["analyze", "check"])
def test_deeply_nested_json_exit_2(command, tmp_path):
    # Too deep for the JSON decoder's recursion, which must not surface as
    # a traceback.
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000)
    argv = ["--algo", "cc"] if command == "analyze" else []
    proc = run_cli(command, "--input", str(path), *argv, cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert "error: JSON nested too deeply to parse" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_diff_equal_exit_0(fig3_file):
    proc = run_cli(
        "diff", "--input", fig3_file, "--algo", "ntscd-new", "--algo", "ntscd-rang-fixed"
    )
    assert proc.returncode == 0


def test_diff_flawed_run_exit_1(fig3_file):
    proc = run_cli(
        "diff", "--input", fig3_file, "--algo", "ntscd-new", "--algo", "ntscd-rang", "--policy", "fifo"
    )
    assert proc.returncode == 1
    assert "+(1,6)" in proc.stdout
    assert "-(1,5)" in proc.stdout


def test_diff_formula_variants_exit_1(fig5_file):
    proc = run_cli(
        "diff", "--input", fig5_file, "--algo", "dod-formula", "--algo", "dod-formula-fixed"
    )
    assert proc.returncode == 1
    assert "(p,a,b)" in proc.stdout


def test_diff_kind_mismatch_exit_2(fig3_file):
    proc = run_cli("diff", "--input", fig3_file, "--algo", "ntscd-new", "--algo", "dod-new")
    assert proc.returncode == 2


def test_gen_dod_worst(tmp_path):
    out = tmp_path / "g.json"
    proc = run_cli("gen", "--shape", "dod-worst", "--nodes", "16", "--output", str(out))
    assert proc.returncode == 0
    analyzed = run_cli("analyze", "--algo", "dod-new", "--input", str(out))
    assert len(json.loads(analyzed.stdout)["dod"]) == 128


def test_gen_random_counts(tmp_path):
    out = tmp_path / "g.json"
    proc = run_cli(
        "gen", "--shape", "random", "--nodes", "500", "--edges", "750", "--seed", "7",
        "--output", str(out),
    )
    assert proc.returncode == 0
    data = json.loads(out.read_text())
    assert len(data["nodes"]) == 500
    assert len(data["edges"]) == 750


def test_gen_reducible_dod_empty(tmp_path):
    out = tmp_path / "g.json"
    proc = run_cli("gen", "--shape", "reducible", "--depth", "4", "--seed", "1", "--output", str(out))
    assert proc.returncode == 0
    analyzed = run_cli("analyze", "--algo", "dod-new", "--input", str(out))
    assert json.loads(analyzed.stdout)["dod"] == []


def test_gen_infeasible_exit_2(tmp_path):
    proc = run_cli("gen", "--shape", "dod-worst", "--nodes", "10", "--output", str(tmp_path / "g.json"))
    assert proc.returncode == 2
    assert "error: --nodes 10: total node count must be >= 8 and divisible by 4" in proc.stderr


# What each shape says when a size it reads is missing.
REQUIRES = {
    "random": "--shape random requires --nodes and --edges",
    "reducible": "--shape reducible requires --depth",
    "dod-worst": "--shape dod-worst requires --nodes",
}


@pytest.mark.parametrize("command", ["gen", "bench"])
@pytest.mark.parametrize("shape", list(cli.SHAPES))
def test_a_shape_names_the_sizes_it_reads(shape, command, tmp_path, capsys):
    # Every size but the last one the shape reads is given.  bench's --nodes
    # has a default, so bench gets the missing size as an empty sweep.
    missing = cli.SHAPES[shape][0][-1]
    sizes = {"--nodes": "16", "--edges": "5", "--depth": "2"}
    argv = [command, "--shape", shape]
    for flag, value in sizes.items():
        if flag != f"--{missing}":
            argv += [flag, value]
        elif command == "bench":
            argv += [flag, ""]
    out = tmp_path / "out"
    argv += ["--output", str(out)] if command == "gen" else ["--algos", "dod-new", "--csv", str(out)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"error: {REQUIRES[shape]}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["gen", "bench"])
def test_shape_choices_are_the_table(command, capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main([command, "--shape", "none"])
    assert exit_info.value.code == 2
    assert f"(choose from {', '.join(map(repr, cli.SHAPES))})" in capsys.readouterr().err


def test_bench_builds_each_graph_once(tmp_path, monkeypatch):
    # A shape ignores the sizes it does not read, so sweeping them must
    # neither build a graph again nor add a row.
    make_graph = cli.make_graph
    calls = []

    def counted(*args):
        calls.append(args)
        return make_graph(*args)

    monkeypatch.setattr(cli, "make_graph", counted)
    out = tmp_path / "b.csv"

    def bench(*argv):
        calls.clear()
        assert cli.main(["bench", *argv, "--reps", "1", "--csv", str(out)]) == 0
        with open(out, newline="") as fh:
            return [row[:6] for row in csv.reader(fh)]  # without mean_us, min_us

    rows = bench("--shape", "dod-worst", "--nodes", "8", "--edges", "0..50", "--algos", "dod-new")
    assert len(calls) == 1
    assert rows[1:] == [["dod-new", "dod-worst", "8", "12", "0", "1"]]
    sweep = ("--shape", "random", "--nodes", "20..30:10", "--edges", "10", "--algos", "ntscd-new,dod-new")
    rows = bench(*sweep)
    assert len(calls) == 2 and len(rows) == 1 + 2 * 2
    assert bench(*sweep, "--depth", "0..5") == rows
    assert len(calls) == 2


WRONG_DOD_NEW = """
import sys
from dataclasses import replace
from ctrldep import cli
cli.ALGORITHMS["dod-new"] = replace(cli.ALGORITHMS["dod-new"], run=lambda g, o: [(0, (0,), (0,))])
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize("threads", [None, "2"])
def test_check_holds_no_case_list(threads, tmp_path):
    # Every graph mismatches, so check must report the first one; listing
    # 200 million cases first would not fit in the capped address space.
    # Forked pool workers inherit the wrong row.
    env = cli_env()
    env.pop("CTRLDEP_THREADS", None)
    if threads:
        env["CTRLDEP_THREADS"] = threads
    proc = subprocess.run(
        [sys.executable, "-c", WRONG_DOD_NEW, "check", "--count", "200000000"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=env,
        preexec_fn=cap_address_space,
    )
    assert proc.returncode == 1, proc.stderr
    assert "mismatch (graph written to" in proc.stdout
    assert "Traceback" not in proc.stderr


CHECK_ONE = cli._check_one


def counted_check_one(case):
    """``cli._check_one`` that first appends a line to the file named by
    ``CHECK_CALLS``; defined at module level, so a pool can send it to its
    forked workers, which append to the same file."""
    with open(os.environ["CHECK_CALLS"], "a", encoding="utf-8") as fh:
        fh.write("call\n")
    return CHECK_ONE(case)


def test_check_stops_at_the_first_mismatch(tmp_path, monkeypatch):
    # Every graph mismatches.  Serially, check runs one graph; a pool drops
    # the window's graphs not yet sent to a worker instead of running them.
    wrong = replace(cli.ALGORITHMS["dod-new"], run=lambda g, o: [(0, (0,), (0,))])
    monkeypatch.setitem(cli.ALGORITHMS, "dod-new", wrong)
    monkeypatch.setattr(cli, "_check_one", counted_check_one)
    monkeypatch.chdir(tmp_path)
    for threads in ("1", "2"):
        calls = tmp_path / f"calls-{threads}"
        monkeypatch.setenv("CHECK_CALLS", str(calls))
        monkeypatch.setenv("CTRLDEP_THREADS", threads)
        assert cli.main(["check", "--count", str(4 * cli.CHECK_WINDOW), "--max-nodes", "6"]) == 1
        count = len(calls.read_text().splitlines())
        if threads == "1":
            assert count == 1
        else:
            assert count < cli.CHECK_WINDOW // 4, count


def test_check_small_run(tmp_path):
    proc = run_cli("check", "--count", "40", "--max-nodes", "10", "--seed", "42", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "ntscd-rang" in proc.stdout  # the known-flawed exclusion note


def test_check_input_file(fig3_file, tmp_path):
    proc = run_cli("check", "--input", fig3_file, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "excluded from correctness gating" in proc.stdout


def test_check_budget_exit_2(tmp_path):
    proc = run_cli("check", "--count", "1", "--max-nodes", "65", cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert "exceeds the oracle budget" in proc.stderr  # not an argparse usage error


def test_check_respects_thread_env(tmp_path):
    argv = ("check", "--count", "24", "--max-nodes", "8", "--seed", "3")
    proc = run_cli(*argv, cwd=tmp_path, env=cli_env(CTRLDEP_THREADS="2"))
    assert proc.returncode == 0, proc.stderr
    serial = run_cli(*argv, cwd=tmp_path, env=cli_env(CTRLDEP_THREADS="1"))
    assert serial.returncode == 0, serial.stderr
    assert proc.stdout == serial.stdout  # the process pool gives the serial verdict


def test_bench_writes_csv(tmp_path):
    out = tmp_path / "bench.csv"
    proc = run_cli(
        "bench", "--shape", "random", "--nodes", "60", "--edges", "20..60:20",
        "--reps", "3", "--algos", "ntscd-new,dod-new", "--csv", str(out),
    )
    assert proc.returncode == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["algo", "shape", "nodes", "edges", "seed", "reps", "mean_us", "min_us"]
    assert len(rows) == 1 + 2 * 3  # two algorithms, three edge cells
    assert {r[0] for r in rows[1:]} == {"ntscd-new", "dod-new"}
    assert all(r[5] == "3" for r in rows[1:])


def test_bench_empty_algos_exit_2(tmp_path):
    proc = run_cli(
        "bench", "--shape", "random", "--nodes", "10", "--edges", "5",
        "--algos", "", "--csv", str(tmp_path / "b.csv"),
    )
    assert proc.returncode == 2


# Each algorithm id's report key, its check gate, and the library call it
# must agree with; cc takes the first and last node as its criterion and
# starts at the first.
LIBRARY = {
    "ntscd-new": ("ntscd", "equal", ntscd_new),
    "ntscd-vp": ("ntscd", "equal", lambda g: ntscd_from_vp(g, vp_sets(g))),
    "ntscd-rang": ("ntscd", None, lambda g: ntscd_ranganath(g, "fifo")),
    "ntscd-rang-fixed": ("ntscd", "equal", ntscd_ranganath_fixed),
    "dod-new": ("dod", "equal", dod_new),
    "dod-formula": ("dod", "superset", lambda g: dod_formula(g, "original")),
    "dod-formula-fixed": ("dod", "equal", lambda g: dod_formula(g, "fixed")),
    "cc": (
        "closure",
        None,
        lambda g: strong_closure(g, ClosureSpec(w=frozenset({g.labels[0], g.labels[-1]}), start=g.labels[0])),
    ),
}


def test_algorithm_table_kinds_and_gates():
    table = {algo: (row.kind, row.gate) for algo, row in cli.ALGORITHMS.items()}
    assert table == {algo: (kind, gate) for algo, (kind, gate, _) in LIBRARY.items()}


@pytest.mark.parametrize("algo", sorted(cli.ALGORITHMS))
def test_analyze_matches_the_library_for_every_id(algo, tmp_path, capsys):
    key, _, library = LIBRARY[algo]
    for name, text in (("fig3", FIG3), ("fig4", FIG4), ("fig5", FIG5)):
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        g = parse_cfg(text)
        argv = ["analyze", "--input", str(path), "--algo", algo]
        if algo == "cc":
            argv += ["--criterion", f"{g.labels[0]},{g.labels[-1]}", "--start", g.labels[0]]
        assert cli.main(argv) == 0, name
        report = json.loads(capsys.readouterr().out)
        assert report["algo"] == algo
        assert report[key] == json.loads(json.dumps(sorted(library(g)))), name
        assert set(report) == {"graph", "algo", key, "time_us"}


# Labels the writer must escape as json.dumps does, and numeric labels whose
# string order is not their numeric order ("10" < "9").
HOSTILE = ['say "hi"', "back\\slash", "caf\u00e9", "\u2028", "\x07", "", "10", "9", "\U0001f600"]


def hostile_graphs() -> list[Cfg]:
    """Two fed cycles, with non-empty NTSCD and DOD relations, and a chain,
    with empty ones, relabelled in a shuffled order by ``HOSTILE`` and
    numbers; the first node stays "start", so cc can start from it."""
    chain = ["start", *HOSTILE]
    graphs = [Cfg(chain, list(zip(chain, chain[1:])))]
    for seed in (1, 3):
        g = fed_cycle_cfg(seed)
        fresh = HOSTILE + [str(i) for i in range(11, 10 + len(g) - len(HOSTILE))]
        Random(seed).shuffle(fresh)
        rename = dict(zip(g.labels, ["start", *fresh]))
        graphs.append(Cfg([rename[x] for x in g.labels], [(rename[a], rename[b]) for a, b in g.edges()]))
    return graphs


def without_time(text: str) -> list[str]:
    return [line for line in text.splitlines() if not line.lstrip().startswith('"time_us"')]


def analyze_argv(g: Cfg, path, algo: str) -> list[str]:
    """``analyze`` of ``algo`` on ``g``, written to ``path``; cc as in ``LIBRARY``."""
    path.write_text(serialize_cfg(g))
    argv = ["analyze", "--input", str(path), "--algo", algo]
    if algo == "cc":
        argv += ["--criterion", f"{g.labels[0]},{g.labels[-1]}", "--start", g.labels[0]]
    return argv


def library_report(g: Cfg, algo: str, key: str, relation) -> str:
    report = {
        "graph": {"nodes": len(g), "edges": g.n_edges, "predicates": len(predicates(g))},
        "algo": algo,
        key: sorted(relation),
        "time_us": 0,
    }
    return json.dumps(report, indent=2)


@pytest.mark.parametrize("algo", sorted(cli.ALGORITHMS))
def test_analyze_writes_what_json_dumps_writes(algo, tmp_path, capsys):
    key, _, library = LIBRARY[algo]
    sizes = []
    for g in hostile_graphs():
        assert cli.main(analyze_argv(g, tmp_path / "g.json", algo)) == 0
        out = capsys.readouterr().out
        relation = library(g)
        assert out.endswith("}\n")
        assert without_time(out) == without_time(library_report(g, algo, key, relation))
        sizes.append(len(relation))
    # The chain's relation is empty, except a closure, which holds its criterion.
    assert (sizes[0] == 0) == (key != "closure") and min(sizes[1:]) > 0, sizes
    # No request gives an empty closure, so write one directly.
    g = hostile_graphs()[0]
    assert "".join(cli.report_json(g, algo, key, [], 7)) == library_report(g, algo, key, ()).replace('"time_us": 0', '"time_us": 7')


@pytest.mark.parametrize("algo", sorted(cli.ALGORITHMS))
def test_analyze_encodes_each_label_it_writes_once(algo, tmp_path, capsys, monkeypatch):
    # A count, not a timing: the writer encodes exactly the labels its
    # relation names, each once, and none for an empty relation.
    encode = cli.encode_basestring_ascii
    encoded = []

    def counted(label):
        encoded.append(label)
        return encode(label)

    monkeypatch.setattr(cli, "encode_basestring_ascii", counted)
    key = cli.ALGORITHMS[algo].kind
    for g in hostile_graphs():
        encoded.clear()
        assert cli.main(analyze_argv(g, tmp_path / "g.json", algo)) == 0
        relation = json.loads(capsys.readouterr().out)[key]
        named = set(relation) if key == "closure" else {x for row in relation for x in row}
        assert sorted(encoded) == sorted(named)
    encoded.clear()
    "".join(cli.report_json(g, algo, key, [], 0))
    assert encoded == []


@st.composite
def dod_block_sets(draw):
    """A graph whose labels mix ``HOSTILE`` with arbitrary short text, in an
    index order unrelated to label order, and DOD blocks over it in the two
    shapes the block contract allows: for each predicate, either one block,
    its sides in arbitrary order and of any size from one, or one (a,)
    block per a, holding only partners after a in label order."""
    n = draw(st.integers(3, 12))
    labels = draw(st.lists(st.sampled_from(HOSTILE) | st.text(max_size=3), min_size=n, max_size=n, unique=True))
    blocks = []
    for p in draw(st.lists(st.integers(0, n - 1), max_size=6, unique=True)):
        rest = draw(st.permutations([x for x in range(n) if x != p]))
        if draw(st.booleans()):
            cut = draw(st.integers(1, n - 2))
            blocks.append((p, tuple(rest[:cut]), tuple(rest[cut : draw(st.integers(cut + 1, n - 1))])))
            continue
        for a in draw(st.lists(st.sampled_from(rest), unique=True)):
            later = [b for b in rest if labels[b] > labels[a]]
            if later:
                blocks.append((p, (a,), tuple(draw(st.lists(st.sampled_from(later), min_size=1, unique=True)))))
    return Cfg(labels, []), blocks


# "10" < "9" < "a" < 'say "hi"' < "x" in label order, not in index order:
# one block under "a", and one (a,) block per a under "x".
@example((Cfg(["a", "9", "10", "x", 'say "hi"'], []), [(0, (2, 4), (1, 3)), (3, (2,), (1, 0)), (3, (1,), (4, 0))]))
@settings(max_examples=300, deadline=None)
@given(dod_block_sets())
def test_dod_writer_on_blocks_writes_what_json_dumps_writes(case):
    g, blocks = case
    report = {
        "graph": {"nodes": len(g), "edges": 0, "predicates": 0},
        "algo": "dod-new",
        "dod": sorted(dod_labels(g, blocks)),
        "time_us": 3,
    }
    assert "".join(cli.report_json(g, "dod-new", "dod", blocks, 3)) == json.dumps(report, indent=2)


@pytest.mark.parametrize(
    "case",
    [
        # The group of "9" under "a" takes "x" from one block and 'say "hi"' from another.
        (Cfg(["a", "9", "10", "x", 'say "hi"'], []), [(0, (3,), (1,)), (0, (2, 4), (1, 3)), (3, (0,), (1, 2))]),
        # The group of "b" under "q" draws from three blocks, on both sides.
        (Cfg(["q", "f", "b", "d", "h", "c", "g", "e"], []), [(0, (2,), (1, 5)), (0, (3, 6), (2,)), (0, (2,), (4, 7))]),
    ],
)
def test_dod_writer_refuses_blocks_that_break_the_contract(case):
    # Each pair is in one block, but a node draws its later partners from
    # two blocks of p: a fault of the producer, not of the input.  It
    # raises in the call, before any chunk, so no partial report is written.
    g, blocks = case
    with pytest.raises(RuntimeError, match="from two blocks"):
        cli.report_json(g, "dod-new", "dod", blocks, 3)


def test_analyze_peak_memory_is_a_fraction_of_its_output(tmp_path, record_property):
    # Deterministic: tracemalloc counts the bytes Python allocates, not
    # RSS.  The report is written as it is made, so nothing in the call
    # holds the whole relation.  The timing is recorded, never asserted.
    graph, out = tmp_path / "g.json", tmp_path / "out.json"
    graph.write_text(serialize_cfg(worst_case_dod_cfg(128)))
    argv = ["analyze", "--input", str(graph), "--algo", "dod-new", "--output", str(out)]
    assert cli.main(argv) == 0  # the parser is built on the first call
    tracemalloc.start()
    try:
        start = time.perf_counter()
        assert cli.main(argv) == 0
        elapsed_ms = (time.perf_counter() - start) * 1e3
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = out.stat().st_size
    record_property("analyze_ms", round(elapsed_ms, 1))
    record_property("peak_over_output", round(peak / size, 3))
    assert len(json.loads(out.read_text())["dod"]) == 128**3 // 32
    assert peak < size / 4, (peak, size)


def test_analyze_ends_stdout_with_one_newline_and_a_file_with_none(fig7, tmp_path, capsys):
    graph, out = tmp_path / "g.json", tmp_path / "out.json"
    graph.write_text(serialize_cfg(fig7))
    for algo in sorted(cli.ALGORITHMS):
        argv = analyze_argv(fig7, graph, algo)
        assert cli.main(argv + ["--output", "-"]) == 0
        text = capsys.readouterr().out
        assert text.endswith("}\n") and not text.endswith("\n\n"), algo
        assert cli.main(argv + ["--output", str(out)]) == 0
        assert out.read_text().endswith("}"), algo
        assert without_time(out.read_text()) == without_time(text), algo


@pytest.mark.parametrize("fmt", ["json", "edgelist"])
def test_gen_writes_the_serialized_graph(fmt, tmp_path, capsys):
    # JSON text has no newline of its own, so stdout gets one; edgelist
    # text ends in one, so stdout gets no second, but the empty graph's
    # edgelist is empty text, so stdout gets one.  A file gets the text.
    cases = [
        (["dod-worst", "--nodes", "8"], serialize_cfg(worst_case_dod_cfg(8), fmt)),
        (["random", "--nodes", "0", "--edges", "0"], {"json": '{"nodes":[],"edges":[]}', "edgelist": ""}[fmt]),
    ]
    for shape, text in cases:
        argv = ["gen", "--shape", *shape, "--format", fmt]
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == (text if text.endswith("\n") else text + "\n")
        out = tmp_path / "g.txt"
        assert cli.main(argv + ["--output", str(out)]) == 0
        assert out.read_text() == text


def test_analyze_to_a_directory_exits_2_and_writes_nothing(fig7, tmp_path):
    graph, target = tmp_path / "g.json", tmp_path / "out"
    graph.write_text(serialize_cfg(fig7))
    target.mkdir()
    proc = run_cli("analyze", "--input", str(graph), "--algo", "dod-new", "--output", str(target))
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
    assert "Traceback" not in proc.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["g.json", "out"]
    assert list(target.iterdir()) == []


GATED = sorted(a for a, row in cli.ALGORITHMS.items() if row.gate is not None)


@pytest.mark.parametrize("algo", GATED)
def test_gate_names_a_wrong_gated_variant(algo, fig7, tmp_path, capsys, monkeypatch):
    # fig7's NTSCD and DOD relations are both non-empty, so an empty result
    # fails the "equal" and the "superset" gate alike.
    wrong = replace(cli.ALGORITHMS[algo], run=lambda g, o: frozenset())
    monkeypatch.setitem(cli.ALGORITHMS, algo, wrong)
    failures = cli.differential_failures(fig7)
    assert len(failures) == 1 and failures[0].startswith(algo + " "), failures
    path = tmp_path / "fig7.json"
    path.write_text(serialize_cfg(fig7))
    fail_out = tmp_path / "mismatch.json"
    assert cli.main(["check", "--input", str(path), "--fail-out", str(fail_out)]) == 1
    out = capsys.readouterr().out
    assert failures[0] in out
    assert f"  {algo}:" in out and "  oracle ntscd:" in out and "  oracle dod:" in out
    assert f"replay: ctrldep check --input {fail_out}" in out.splitlines()
    assert parse_cfg(fail_out.read_text()) == fig7


@pytest.mark.parametrize("error", [ValueError, RuntimeError])
def test_check_reports_a_raising_gated_variant(error, fig7, tmp_path, capsys, monkeypatch):
    def boom(g, o):
        raise error("boom")

    monkeypatch.setitem(cli.ALGORITHMS, "dod-new", replace(cli.ALGORITHMS["dod-new"], run=boom))
    monkeypatch.delenv("CTRLDEP_THREADS", raising=False)
    failure = f"dod-new raised {error.__name__}: boom"
    assert cli.differential_failures(fig7) == [failure]
    path = tmp_path / "fig7.json"
    path.write_text(serialize_cfg(fig7))
    fail_out = tmp_path / "mismatch.json"
    for argv in (["--input", str(path)], ["--count", "3", "--max-nodes", "6"]):
        fail_out.unlink(missing_ok=True)
        assert cli.main(["check", *argv, "--fail-out", str(fail_out)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert "  " + failure in lines
        assert "  dod-new:".ljust(22) + f"raised {error.__name__}: boom" in lines  # in place of its relation
        assert f"replay: ctrldep check --input {fail_out}" in lines
        parse_cfg(fail_out.read_text())
    # An oracle over its budget is still a flag error, not a mismatch.
    path.write_text(serialize_cfg(worst_case_dod_cfg(68)))
    assert cli.main(["check", "--input", str(path), "--fail-out", str(fail_out)]) == 2


def test_check_pool_is_capped_by_cores_and_graphs(tmp_path, monkeypatch):
    # A fork pool starts all of its workers at the first submit, so record
    # the size asked for and run the graphs in this process.
    sizes = []

    class Recorder:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", Recorder)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
    monkeypatch.chdir(tmp_path)
    for threads, count in (("5000", "1"), ("5000", "3"), ("5000", "10"), ("0", "10"), ("2", "10")):
        monkeypatch.setenv("CTRLDEP_THREADS", threads)
        assert cli.main(["check", "--count", count, "--max-nodes", "5"]) == 0
    assert sizes == [3, 4, 4, 2]


def test_gate_ignores_a_wrong_ntscd_rang(fig7, monkeypatch):
    wrong = replace(cli.ALGORITHMS["ntscd-rang"], run=lambda g, o: frozenset())
    monkeypatch.setitem(cli.ALGORITHMS, "ntscd-rang", wrong)
    assert cli.differential_failures(fig7) == []


def structural_graphs():
    """Graphs of 30-64 nodes, where meets lie deep in chains and cycles are
    entered at several points; all within the oracle budget."""
    yield worst_case_dod_cfg(32)
    yield worst_case_dod_cfg(64)
    reducible = (random_reducible_cfg(depth, seed) for depth in (5, 6, 7) for seed in range(10))
    yield from (g for g in reducible if 30 <= len(g) <= 64)
    for n in range(30, 65, 2):
        yield random_cfg(n, (3 * n) // 2, n)
    fed = (fed_cycle_cfg(seed, cycle=(26, 40)) for seed in range(6))
    yield from (g for g in fed if 30 <= len(g) <= 64)


def test_gated_rows_agree_with_the_oracle_at_structural_sizes():
    for g in structural_graphs():
        assert cli.differential_failures(g) == [], serialize_cfg(g)


def _unordered(kind: str, relation, rename=lambda x: x) -> set:
    # A DOD triple lists its pair in label order, which a relabelling can flip.
    if kind == "ntscd":
        return {(rename(p), rename(n)) for p, n in relation}
    return {(rename(p), frozenset((rename(a), rename(b)))) for p, a, b in relation}


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(
        small_cfgs(),
        st.sampled_from([worst_case_dod_cfg(8), worst_case_dod_cfg(12), fed_cycle_cfg(4), fed_cycle_cfg(8)]),
    ),
    st.data(),
)
def test_gated_relations_ignore_node_and_edge_order(g, data):
    # Redeclare the nodes in a drawn order (which is also the sweep order of
    # ntscd-rang-fixed and the order edges are listed in) and swap the two
    # out-edges of a drawn set of nodes; labels are kept, so every gated
    # relation must come out identical.  Then rename the nodes by a drawn
    # injective relabelling, which moves the smallest label (where
    # unfold_cycle starts): the relation must be the original one mapped
    # through it.  Small random graphs rarely have a DOD triple, so the
    # worst-case graphs and fed cycles are drawn too.
    order = data.draw(st.permutations(g.labels))
    swapped = data.draw(st.sets(st.sampled_from(g.labels)))
    fresh = data.draw(
        st.lists(st.text("abnxz079", min_size=1, max_size=3), min_size=len(g), max_size=len(g), unique=True)
    )
    rename = dict(zip(g.labels, fresh))
    edges = []
    for a in order:
        succs = [g.labels[t] for t in g.succs[g.index[a]]]
        edges += [(a, b) for b in (succs[::-1] if a in swapped else succs)]
    h = Cfg(order, edges)
    renamed = Cfg([rename[a] for a in order], [(rename[a], rename[b]) for a, b in edges])
    for algo in GATED:
        row = cli.ALGORITHMS[algo]
        result = row.relation(g, cli.RunOptions())
        assert row.relation(h, cli.RunOptions()) == result, algo
        assert _unordered(row.kind, row.relation(renamed, cli.RunOptions())) == _unordered(
            row.kind, result, rename.__getitem__
        ), algo


@pytest.mark.parametrize("command", ["analyze", "diff"])
def test_unknown_label_in_explicit_order_exit_2(command, fig3_file):
    argv = ["--input", fig3_file, "--algo", "ntscd-rang", "--policy", "order:3,zz"]
    if command == "diff":
        argv += ["--algo", "ntscd-new"]
    proc = run_cli(command, *argv)
    assert proc.returncode == 2, proc.stderr
    assert "unknown node 'zz'" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_bench_reps_below_1_exit_2(tmp_path):
    out = tmp_path / "b.csv"
    proc = run_cli(
        "bench", "--shape", "random", "--nodes", "10", "--edges", "5",
        "--reps", "0", "--algos", "ntscd-new", "--csv", str(out),
    )
    assert proc.returncode == 2, proc.stderr
    assert "--reps must be at least 1" in proc.stderr
    assert not out.exists()


def test_bench_rejects_cc_with_a_reason(tmp_path):
    proc = run_cli(
        "bench", "--shape", "random", "--nodes", "10", "--edges", "5",
        "--algos", "ntscd-new,cc", "--csv", str(tmp_path / "b.csv"),
    )
    assert proc.returncode == 2, proc.stderr
    assert "cc needs a criterion" in proc.stderr
    assert "bench cannot time it" in proc.stderr


def test_check_bad_thread_env_exit_2(tmp_path):
    proc = run_cli("check", "--count", "2", cwd=tmp_path, env=cli_env(CTRLDEP_THREADS="abc"))
    assert proc.returncode == 2, proc.stderr
    assert "CTRLDEP_THREADS must be an integer >= 0, got 'abc'" in proc.stderr


def test_check_max_nodes_below_2_exit_2(tmp_path):
    proc = run_cli("check", "--count", "1", "--max-nodes", "1", cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert "--max-nodes must be at least 2" in proc.stderr


@pytest.mark.parametrize("count", ["0", "-3"])
def test_check_count_below_1_exit_2(count, tmp_path):
    proc = run_cli("check", "--count", count, cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert f"--count must be at least 1, got {count}" in proc.stderr
    assert "ok:" not in proc.stdout


@pytest.mark.parametrize("flag", ["--nodes", "--edges", "--depth"])
def test_bench_empty_sweep_exit_2(flag, tmp_path):
    out = tmp_path / "b.csv"
    sweeps = {"--nodes": "10", "--edges": "5", "--depth": "2", flag: "10..5"}
    argv = [x for item in sweeps.items() for x in item]
    proc = run_cli("bench", "--shape", "random", *argv, "--algos", "ntscd-new", "--csv", str(out))
    assert proc.returncode == 2, proc.stderr
    assert f"argument {flag}: range '10..5' sweeps no values" in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("sweep", ["5..", "a", "1..5:x", "..5", "3:2"])
def test_bench_malformed_sweep_exit_2(sweep, tmp_path, capsys):
    out = tmp_path / "b.csv"
    argv = ["bench", "--shape", "random", "--nodes", sweep, "--edges", "5", "--algos", "ntscd-new", "--csv", str(out)]
    with pytest.raises(SystemExit) as exit_info:
        cli.main(argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --nodes: {sweep!r} is not an integer or start..stop[:step]" in err
    assert "_parse_sweep" not in err
    assert not out.exists()


# (command, flag value, the value the error names): gen takes one value,
# bench also a range, which is refused by its largest value.
DEPTHS_ABOVE_THE_CAP = [
    pytest.param("gen", str(MAX_REDUCIBLE_DEPTH + 1), MAX_REDUCIBLE_DEPTH + 1, id="gen"),
    pytest.param("bench", str(MAX_REDUCIBLE_DEPTH + 1), MAX_REDUCIBLE_DEPTH + 1, id="bench"),
    pytest.param("bench", "0..40:4", 40, id="bench-range"),
    pytest.param("bench", "1..3000000000", 3000000000, id="bench-long-range"),
]
NODES_ABOVE_THE_CAP = [
    pytest.param("gen", str(MAX_NODES + 1), MAX_NODES + 1, id="gen"),
    pytest.param("bench", str(MAX_NODES + 1), MAX_NODES + 1, id="bench"),
    pytest.param("bench", "8..3000000000:1000000000", 2000000008, id="bench-range"),
    pytest.param("bench", "8..3000000000:4", 3000000000, id="bench-long-range"),
]


@pytest.mark.parametrize("command, depth, largest", DEPTHS_ABOVE_THE_CAP)
def test_reducible_depth_above_the_cap_exit_2(command, depth, largest, tmp_path):
    # Each level roughly doubles the graph, so a depth above the cap is
    # refused before any graph is built or any file written.
    out = tmp_path / "out"
    argv = ["--shape", "reducible", "--depth", depth]
    argv += ["--output", str(out)] if command == "gen" else ["--algos", "dod-new", "--csv", str(out)]
    proc = run_cli(command, *argv, preexec_fn=cap_address_space)
    assert proc.returncode == 2, proc.stderr
    assert f"--depth {largest}: depth must be at most {MAX_REDUCIBLE_DEPTH}" in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("shape", ["random", "dod-worst"])
@pytest.mark.parametrize("command, nodes, largest", NODES_ABOVE_THE_CAP)
def test_nodes_above_the_cap_exit_2(command, nodes, largest, shape, tmp_path):
    out = tmp_path / "out"
    argv = ["--shape", shape, "--nodes", nodes, "--edges", "5"]
    argv += ["--output", str(out)] if command == "gen" else ["--algos", "dod-new", "--csv", str(out)]
    proc = run_cli(command, *argv, preexec_fn=cap_address_space)
    assert proc.returncode == 2, proc.stderr
    assert f"error: --nodes {largest}: node count must be at most {MAX_NODES}" in proc.stderr
    assert not out.exists()


# The parser is built once per process and shared by every later ``main``
# call; nothing one call parses may reach the next.


def in_process(argv: list[str], capsys) -> tuple[list[str], str, int]:
    """stdout without ``time_us``, stderr and exit code of one in-process
    ``main`` call; a usage error's ``SystemExit`` is its exit code."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return without_time(out), err, code


def fresh_process(argv: list[str]) -> tuple[list[str], str, int]:
    proc = run_cli(*argv)
    return without_time(proc.stdout), proc.stderr, proc.returncode


def mixed_calls(g: Cfg, tmp_path) -> list[list[str]]:
    """Every id on ``g``, then calls that would show what an earlier call
    left behind: flags dropped after a call that set them, a usage error
    and a bad input between good calls, and ``gen`` and ``diff``."""
    graph = tmp_path / "g.json"
    graph.write_text(serialize_cfg(g))
    bad = tmp_path / "bad.json"
    bad.write_text('{"nodes":["a","a"],"edges":[]}')
    analyze = ["analyze", "--input", str(graph), "--algo"]
    calls = [analyze + [algo] for algo in sorted(cli.ALGORITHMS) if algo != "cc"]
    calls += [
        analyze + ["cc", "--criterion", "p,n3", "--start", "p"],
        analyze + ["ntscd-new"],
        analyze + ["cc"],
        analyze + ["ntscd-rang", "--policy", "lifo"],
        analyze + ["ntscd-rang"],
        analyze + ["no-such-algo"],
        analyze + ["dod-new"],
        ["analyze", "--input", str(bad), "--algo", "dod-new"],
        analyze + ["dod-new", "--format", "json"],
        ["gen", "--shape", "random", "--nodes", "7", "--edges", "9", "--seed", "3"],
        ["gen", "--shape", "dod-worst", "--nodes", "8", "--format", "edgelist"],
        ["diff", "--input", str(graph), "--algo", "ntscd-new", "--algo", "ntscd-rang", "--policy", "lifo"],
        ["diff", "--input", str(graph), "--algo", "ntscd-new"],
        ["diff", "--input", str(graph), "--algo", "dod-new", "--algo", "dod-formula"],
    ]
    return calls


def test_shared_parser_keeps_no_state_between_calls(fig7, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    calls = mixed_calls(fig7, tmp_path)
    results = [in_process(argv, capsys) for argv in calls]
    assert [code for _, _, code in results] == [0] * 9 + [2, 0, 0, 2, 0, 2] + [0] * 4 + [2, 0]
    for argv, result in zip(calls, results):
        assert result == fresh_process(argv), argv


def test_two_threads_share_the_parser(fig7, tmp_path, capsys):
    # stdout is one stream, so each call writes its own file and the files
    # are compared with a serial run's; exit codes are compared directly.
    def with_output(argv: list[str], path) -> list[str]:
        return argv if argv[0] == "diff" else argv + ["--output", str(path)]

    def run(tag: str, outcomes: list) -> None:
        for i, argv in enumerate(calls):
            path = tmp_path / f"{tag}-{i}.out"
            try:
                code = cli.main(with_output(argv, path))
            except SystemExit as exc:
                code = exc.code
            outcomes.append((code, without_time(path.read_text()) if path.exists() else None))

    calls = mixed_calls(fig7, tmp_path)
    expected: list = []
    run("serial", expected)
    assert sum(text is not None for _, text in expected) == 15
    barrier = threading.Barrier(2, timeout=60)
    seen: list[list] = [[], []]

    def client(n: int) -> None:
        barrier.wait()
        for rnd in range(5):
            run(f"thread{n}-{rnd}", seen[n])

    threads = [threading.Thread(target=client, args=(n,)) for n in range(2)]
    # Switch threads often, so that their parses interleave.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    capsys.readouterr()
    assert seen == [expected * 5, expected * 5]


HELP_ARGVS = [["--help"], *([command, "--help"] for command in ("analyze", "diff", "gen", "check", "bench"))]
HELP_ARGVS.append(["analyze", "--input", "g.json", "--algo", "no-such-algo"])

# Runs each argv list given as JSON in one process, and prints what every
# call wrote and its exit code.
CALLS = """
import contextlib, io, json, sys
from ctrldep import cli
def call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return [out.getvalue(), err.getvalue(), code]
print(json.dumps([call(argv) for argv in json.loads(sys.argv[1])]))
"""


def test_help_is_the_same_in_a_first_and_a_later_call():
    env = cli_env(COLUMNS="80")
    first = []
    for argv in HELP_ARGVS:
        proc = run_cli(*argv, env=env)
        first.append([proc.stdout, proc.stderr, proc.returncode])
    assert [code for _, _, code in first] == [0] * 6 + [2]
    assert "usage: ctrldep analyze" in first[-1][1] and "invalid choice: 'no-such-algo'" in first[-1][1]
    # Every help and usage error again after a call that parsed and ran.
    gen = ["gen", "--shape", "dod-worst", "--nodes", "8"]
    argvs = HELP_ARGVS + [gen] + HELP_ARGVS
    proc = subprocess.run([sys.executable, "-c", CALLS, json.dumps(argvs)], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    calls = json.loads(proc.stdout)
    assert calls[7][2] == 0
    assert calls[:7] == first and calls[8:] == first


# Counts the ArgumentParsers built by importing the CLI and by 100 calls.
COUNT_PARSERS = """
import argparse, sys
built = 0
init = argparse.ArgumentParser.__init__
def counted(self, *args, **kwargs):
    global built
    built += 1
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counted
import ctrldep.cli
print(built)
for _ in range(100):
    assert ctrldep.cli.main(sys.argv[1:]) == 0
print(built)
"""


def test_parser_is_built_on_the_first_call_only(fig3_file, tmp_path):
    # Import builds none, so set-up pays nothing for the parser; the root
    # and its five subcommands are built once, whatever the number of calls.
    argv = ["analyze", "--input", fig3_file, "--algo", "ntscd-new", "--output", str(tmp_path / "out.json")]
    proc = subprocess.run([sys.executable, "-c", COUNT_PARSERS, *argv], capture_output=True, text=True, env=cli_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "6"]
