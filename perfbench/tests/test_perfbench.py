"""Tests of the benchmark itself: closed forms, counters, output checks."""

from __future__ import annotations

import json
import random
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from ctrldep import Cfg, cli, dod_new, ntscd_new, oracle_dod, oracle_ntscd  # noqa: E402

from perfbench import families, run, speed, tracing, verify, workloads  # noqa: E402
from perfbench.worker import Client, run_untraced  # noqa: E402

FIG3 = families.Graph(
    "fig3",
    ["1", "2", "3", "4", "5", "6"],
    [("1", "2"), ("1", "6"), ("2", "3"), ("2", "4"), ("3", "5"), ("4", "5"), ("5", "6")],
)
FIG4 = families.Graph("fig4", ["a", "b", "c"], [("a", "b"), ("a", "c"), ("b", "c"), ("c", "b")])


def cfg(g: families.Graph) -> Cfg:
    return Cfg(g.labels, g.edges)


def small_graphs():
    for seed in range(60):
        rng = random.Random(seed)
        yield families.fed_cycle(rng.randint(3, 7), rng.randint(1, 2), rng, fig7_every=rng.choice((0, 2)))
        yield families.ladder(rng.randint(1, 2), rng)
        yield families.chain(rng.randint(1, 15))
        yield families.nested_loops(rng.randint(1, 2), 3, rng)


def test_closed_forms_match_the_oracle():
    checked = 0
    for g in small_graphs():
        if len(g) > 15:
            continue
        checked += 1
        ntscd, dod = g.known()
        if ntscd is not None:
            assert oracle_ntscd(cfg(g)) == ntscd, g.edges
        assert oracle_dod(cfg(g)) == dod, g.edges
    assert checked > 150


def test_closed_forms_match_the_fast_algorithms_at_size():
    rng = random.Random(7)
    for _ in range(5):
        g = families.fed_cycle(rng.randint(30, 60), rng.randint(4, 12), rng)
        assert (ntscd_new(cfg(g)), dod_new(cfg(g))) == g.known()
    g = families.ladder(20, rng)
    assert (ntscd_new(cfg(g)), dod_new(cfg(g))) == g.known()


@pytest.mark.parametrize("n", [8, 16, 32])
def test_worst_case_closed_form(n):
    g = workloads.worst_case(n)
    assert len(g.known()[1]) == n**3 // 32
    if n <= 15:
        assert g.known()[1] == oracle_dod(cfg(g))


def traced_counts(tmp_path: Path, g: families.Graph, algo: str) -> Counter:
    path = tmp_path / "g.json"
    text = json.dumps({"nodes": g.labels, "edges": [list(e) for e in g.edges]})
    path.write_text(text)
    argv = ["analyze", "--input", str(path), "--algo", algo, "--output", str(tmp_path / "out.json")]
    counts: Counter = Counter()
    rc, _ = tracing.traced_analyze(tracing.Tracer(), counts, argv, text, algo, ())
    assert rc == 0
    return counts


def test_counters_match_the_paper_figures(tmp_path):
    assert traced_counts(tmp_path, FIG3, "ntscd-new")["ntscd.pairs"] == 4
    fig4 = traced_counts(tmp_path, FIG4, "dod-new")
    assert (fig4["dod.triples"], fig4["dod.preds_matched"]) == (1, 1)
    for n, triples in ((8, 16), (16, 128), (32, 1024)):
        counts = traced_counts(tmp_path, workloads.worst_case(n), "dod-new")
        assert counts["dod.triples"] == triples
        assert counts["dod.preds_matched"] == n // 2
        assert not counts["bench.stage_replay_mismatches"]


def test_chain_all_paths_total_is_quadratic(tmp_path):
    for n in (10, 40):
        assert traced_counts(tmp_path, families.chain(n), "ntscd-new")["coloring.vp_total"] == n * (n + 1) // 2


def traced_pass(tmp_path: Path, name: str, seed: int) -> tuple[Client, Counter]:
    workdir = tmp_path / f"{name}-{seed}-{len(list(tmp_path.iterdir()))}"
    workdir.mkdir()
    client = Client(workloads.build(name, seed, scale=0.05), workdir)
    client.setup()
    counts, _, _ = client.traced_pass(tracing.Tracer())
    return client, counts


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_counters_repeat_across_runs_of_one_seed(tmp_path, name):
    client, first = traced_pass(tmp_path, name, 3)
    _, second = traced_pass(tmp_path, name, 3)
    assert first == second
    assert first["dod.preds"] > 0
    assert not client.outcomes.bad, client.outcomes.errors


def test_every_dod_cycles_request_matches_a_predicate(tmp_path):
    w = workloads.build("dod-cycles", 5, scale=0.2)
    for req in w.requests:
        if req.algo == "dod-new":
            g = w.graphs[req.graph]
            assert traced_counts(tmp_path, g, "dod-new")["dod.preds_matched"] > 0


def test_clean_outputs_pass_and_corrupted_outputs_fail(tmp_path):
    client, _ = traced_pass(tmp_path, "dod-cycles", 2)
    result = {
        "runs": dict(client.outcomes.runs),
        "bad": {},
        "digests": dict(client.outcomes.digest),
        "errors": {},
    }
    assert run.count_failures(client.w, result)[:2] == (len(client.w.requests), 0)

    req = next(r for r in client.w.requests if r.algo == "dod-new")
    path = tmp_path / "corrupt.json"
    argv = client.argv(req)
    argv[argv.index("--output") + 1] = str(path)
    assert cli.main(argv) == 0
    report = json.loads(path.read_text())
    assert verify.output_digest(path.read_bytes()) == result["digests"][req.key]
    report["dod"].pop()
    corrupted = verify.output_digest(json.dumps(report).encode())
    result["digests"][req.key] = corrupted
    attempted, failed, errors = run.count_failures(client.w, result)
    assert failed == client.outcomes.runs[req.key] == 1
    assert "reference" in errors[req.key]


def test_request_without_a_readable_output_fails_on_every_run(tmp_path):
    client, _ = traced_pass(tmp_path, "dod-cycles", 2)
    key = client.w.requests[0].key
    result = {"runs": {key: 5}, "bad": {key: 1}, "digests": {}, "errors": {key: "unreadable output"}}
    attempted, failed, errors = run.count_failures(client.w, result)
    assert (attempted, failed) == (5, 5)
    assert errors[key] == "unreadable output"


def test_repeated_request_with_a_different_output_fails(tmp_path):
    client, _ = traced_pass(tmp_path, "deep-structured", 1)
    req = next(r for r in client.w.requests if r.algo == "ntscd-new")
    out = Path(client.out_path)
    out.write_text('{"graph": {"nodes": 1, "edges": 0, "predicates": 0}, "algo": "ntscd-new", "ntscd": []}')
    client.outcomes.analyze_output(req.key, 0, str(out))
    assert client.outcomes.bad[req.key] == 1


def test_untraced_times_are_scaled_to_the_reference_speed(tmp_path):
    client, _ = traced_pass(tmp_path, "check-gate", 4)
    result = run_untraced(client, 0.2, 4)
    scale, wall = result["speed_scale"], result["wall"]
    assert scale > 0
    assert result["latency_ms.p50"] == pytest.approx(wall["latency_ms.p50"] * scale)
    assert result["latency_ms.p90"] == pytest.approx(wall["latency_ms.p90"] * scale)
    assert result["nodes_per_s"] == pytest.approx(wall["nodes_per_s"] / scale)


def test_speed_scale_is_reference_over_mean_loop_time():
    gauge = speed.Gauge()
    gauge.samples = [speed.REFERENCE_NS // 2, speed.REFERENCE_NS * 3 // 2]
    assert gauge.scale() == pytest.approx(1.0)
    gauge.samples = [speed.REFERENCE_NS * 2]
    assert gauge.scale() == pytest.approx(0.5)


def test_strip_timing_removes_only_the_time():
    data = b'{\n  "algo": "x",\n  "dod": [],\n  "time_us": 123\n}'
    assert verify.strip_timing(data) == b'{\n  "algo": "x",\n  "dod": [],\n  \n}'
