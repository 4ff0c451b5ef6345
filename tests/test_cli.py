"""End-to-end CLI runs: exit codes, report schema, and determinism."""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from ctrldep import (
    ClosureSpec,
    cli,
    dod_formula,
    dod_new,
    ntscd_from_vp,
    ntscd_new,
    ntscd_ranganath,
    ntscd_ranganath_fixed,
    parse_cfg,
    serialize_cfg,
    strong_closure,
    vp_sets,
)

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


def run_cli(*argv: str, cwd=None, env=None):
    return subprocess.run(
        [sys.executable, "-m", "ctrldep.cli", *argv],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env or cli_env(),
    )


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


def test_check_small_run(tmp_path):
    proc = run_cli("check", "--count", "40", "--max-nodes", "10", "--seed", "42", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "ntscd-rang" in proc.stdout  # the known-flawed exclusion note


def test_check_input_file(fig3_file, tmp_path):
    proc = run_cli("check", "--input", fig3_file, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "excluded from correctness gating" in proc.stdout


def test_check_budget_exit_2(tmp_path):
    proc = run_cli("check", "--count", "1", "--max-nodes", "30", cwd=tmp_path)
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
    assert parse_cfg(fail_out.read_text()) == fig7


def test_gate_ignores_a_wrong_ntscd_rang(fig7, monkeypatch):
    wrong = replace(cli.ALGORITHMS["ntscd-rang"], run=lambda g, o: frozenset())
    monkeypatch.setitem(cli.ALGORITHMS, "ntscd-rang", wrong)
    assert cli.differential_failures(fig7) == []


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
