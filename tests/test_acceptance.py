"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

from __future__ import annotations

import functools
import time
from random import Random

from ctrldep import (
    Cfg,
    ClosureSpec,
    dod_formula,
    dod_new,
    is_strongly_control_closed,
    ntscd_new,
    ntscd_ranganath,
    ntscd_ranganath_fixed,
    oracle_dod,
    oracle_min_closure,
    oracle_ntscd,
    random_cfg,
    random_reducible_cfg,
    strong_closure,
    worst_case_dod_cfg,
)
from ctrldep.cfg import reach
from ctrldep.cli import differential_failures, time_algorithm
from ctrldep.coloring import vp_sets
from ctrldep.ntscd import ntscd_from_vp, ntscd_ranganath_with_table

from conftest import diamond_ladder


def criterion(number: int, description: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper():
            try:
                fn()
            except BaseException:
                print(f"criterion {number:2d} FAIL  {description}")
                raise
            print(f"criterion {number:2d} PASS  {description}")

        return wrapper

    return decorate


def fig3() -> Cfg:
    return Cfg(
        ["1", "2", "3", "4", "5", "6"],
        [("1", "2"), ("1", "6"), ("2", "3"), ("2", "4"), ("3", "5"), ("4", "5"), ("5", "6")],
    )


def fig4() -> Cfg:
    return Cfg(["a", "b", "c"], [("a", "b"), ("a", "c"), ("b", "c"), ("c", "b")])


def fig5() -> Cfg:
    return Cfg(
        ["p", "a", "b", "c"],
        [("p", "a"), ("p", "b"), ("b", "c"), ("a", "b"), ("b", "a")],
    )


CORRECT_FIG3 = frozenset({("1", "2"), ("1", "5"), ("2", "3"), ("2", "4")})


@criterion(1, "worklist flaw reproduction on the counterexample graph")
def test_criterion_01_worklist_flaw():
    g = fig3()
    started = time.perf_counter()
    fifo_rel, fifo_table = ntscd_ranganath_with_table(g, "fifo")
    good_rel, good_table = ntscd_ranganath_with_table(g, ["3", "4", "2", "5", "6"])
    elapsed = time.perf_counter() - started
    assert fifo_rel == frozenset({("1", "2"), ("2", "3"), ("2", "4"), ("1", "6")})
    assert good_rel == CORRECT_FIG3
    assert fifo_table == {
        ("2", "1"): {("1", "2")},
        ("6", "1"): {("1", "6")},
        ("3", "2"): {("2", "3")},
        ("4", "2"): {("2", "4")},
        ("5", "2"): {("2", "3"), ("2", "4")},
        ("6", "2"): {("2", "3"), ("2", "4")},
    }
    assert good_table[("5", "1")] == {("1", "2")}
    assert good_table[("6", "1")] == {("1", "2"), ("1", "6")}
    assert elapsed < 0.1


@criterion(2, "the three correct NTSCD algorithms agree on the counterexample")
def test_criterion_02_correct_ntscd():
    g = fig3()
    assert ntscd_new(g) == CORRECT_FIG3
    assert ntscd_from_vp(g, vp_sets(g)) == CORRECT_FIG3
    assert ntscd_ranganath_fixed(g) == CORRECT_FIG3


@criterion(3, "DOD on the irreducible two-node loop; its NTSCD is empty")
def test_criterion_03_fig4_dod():
    g = fig4()
    expected = frozenset({("a", "b", "c")})
    assert dod_new(g) == expected
    assert dod_formula(g, "original") == expected
    assert dod_formula(g, "fixed") == expected
    assert ntscd_new(g) == frozenset()


@criterion(4, "formula flaw reproduction: original over-approximates, fixed does not")
def test_criterion_04_formula_flaw():
    g = fig5()
    assert dod_formula(g, "original") == frozenset({("p", "a", "b")})
    assert dod_formula(g, "fixed") == frozenset()
    assert dod_new(g) == frozenset()


@criterion(5, "zero mismatches against the oracle over 1000 random graphs (<60s)")
def test_criterion_05_oracle_equivalence():
    started = time.perf_counter()
    rng = Random(20240517)
    graphs = [fig3(), fig4(), fig5()]
    for _ in range(1000):
        n = rng.randint(2, 12)
        m = rng.randint(0, 2 * n)
        graphs.append(random_cfg(n, m, rng.getrandbits(32)))
    mismatches = []
    for g in graphs:
        failures = differential_failures(g)
        if failures:
            mismatches.append((g, failures))
    elapsed = time.perf_counter() - started
    assert not mismatches, mismatches[:3]
    assert elapsed < 60.0, f"differential suite took {elapsed:.1f}s"


@criterion(6, "200 generated reducible graphs all have empty DOD")
def test_criterion_06_reducible_dod_empty():
    for seed in range(200):
        g = random_reducible_cfg(seed % 7, seed)
        assert dod_new(g) == frozenset(), f"seed {seed}"


@criterion(7, "worst-case DOD sizes n^3/32 for n in {8,16,32}; n=8 matches the oracle")
def test_criterion_07_worst_case_sizes():
    for n, expected in ((8, 16), (16, 128), (32, 1024)):
        assert expected == n**3 // 32
        assert len(dod_new(worst_case_dod_cfg(n))) == expected
    g8 = worst_case_dod_cfg(8)
    assert dod_new(g8) == oracle_dod(g8)


def _closure_instances(count: int, seed: int):
    """Valid closure requests: whole graph reachable from the start node."""
    rng = Random(seed)
    instances = []
    attempts = 0
    while len(instances) < count and attempts < 20_000:
        attempts += 1
        n = rng.randint(3, 12)
        m = rng.randint(n, 2 * n)
        g = random_cfg(n, m, rng.getrandbits(32))
        start = next((lab for i, lab in enumerate(g.labels) if len(reach(g.succs, (i,))) == len(g)), None)
        if start is None:
            continue
        others = [lab for lab in g.labels if lab != start]
        w = frozenset({start, *rng.sample(others, rng.randint(0, 2))})
        instances.append((g, ClosureSpec(w=w, start=start)))
    return instances


def _dod_bearing_instances():
    """Random graphs almost never produce DOD, so the DOD closure rule is
    additionally exercised on handcrafted irreducible instances."""
    loop_behind_start = Cfg(
        ["s", "a", "b", "c"],
        [("s", "a"), ("a", "b"), ("a", "c"), ("b", "c"), ("c", "b")],
    )
    n = [f"n{i}" for i in range(1, 9)]
    two_branch_cycle = Cfg(
        ["p", "u1", "u2"] + n,
        [("p", "u1"), ("p", "u2"), ("u1", "n1"), ("u1", "n7"), ("u2", "n2"), ("u2", "n5")]
        + [(n[i], n[(i + 1) % 8]) for i in range(8)],
    )
    return [
        (loop_behind_start, ClosureSpec(w=frozenset({"s", "b", "c"}), start="s")),
        (loop_behind_start, ClosureSpec(w=frozenset({"s", "c"}), start="s")),
        (two_branch_cycle, ClosureSpec(w=frozenset({"p", "n1", "n5"}), start="p")),
    ]


@criterion(8, "closure soundness on 300 instances; minimality vs enumeration (<60s)")
def test_criterion_08_closure_soundness_minimality():
    started = time.perf_counter()
    instances = _closure_instances(300, seed=91)
    assert len(instances) >= 300
    instances += _dod_bearing_instances()
    checked_small = 0
    for g, spec in instances:
        result = strong_closure(g, spec)
        assert is_strongly_control_closed(g, result).closed, (g.edges(), spec)
        if len(g) <= 10:
            truth = oracle_min_closure(g, spec.w)
            assert not truth.ambiguous, (g.edges(), spec, truth.minimal_sets)
            assert result == truth.nodes, (g.edges(), spec, sorted(result), sorted(truth.nodes))
            checked_small += 1
    elapsed = time.perf_counter() - started
    assert checked_small >= 100
    assert elapsed < 60.0, f"closure suite took {elapsed:.1f}s"


@criterion(9, "edge sweep: new DOD is edge-agnostic (<=10x); fixed formula degrades (>=5x)")
def test_criterion_09_edge_sweep_scaling():
    # The minimum of ten runs: a scheduler pause inflates a mean, never a
    # minimum.
    new_mins = {}
    fixed_mins = {}
    for edges in range(50, 1001, 50):
        g = random_cfg(500, edges, 1234)
        _, new_mins[edges] = time_algorithm(dod_new, g, 10)
        _, fixed_mins[edges] = time_algorithm(lambda gg: dod_formula(gg, "fixed"), g, 10)
    spread = max(new_mins.values()) / min(new_mins.values())
    growth = fixed_mins[1000] / fixed_mins[50]
    assert spread <= 10.0, f"dod-new minimum spread {spread:.2f}x"
    assert growth >= 5.0, f"dod-formula-fixed grew only {growth:.2f}x"


@criterion(10, "throughput: 10k-node NTSCD < 5s, 2k-node DOD < 10s (single thread)")
def test_criterion_10_throughput():
    g_big = random_cfg(10_000, 20_000, 5)
    started = time.perf_counter()
    ntscd_new(g_big)
    ntscd_seconds = time.perf_counter() - started
    g_mid = random_cfg(2_000, 4_000, 5)
    started = time.perf_counter()
    dod_new(g_mid)
    dod_seconds = time.perf_counter() - started
    assert ntscd_seconds < 5.0, f"ntscd-new took {ntscd_seconds:.2f}s"
    assert dod_seconds < 10.0, f"dod-new took {dod_seconds:.2f}s"


@criterion(11, "structured throughput: ntscd-vp and dod-new on a 10k-node chain and ladder < 5s each")
def test_criterion_11_structured_throughput():
    # All-paths sets of Theta(n) per node, which criterion 10's random
    # graphs never have.
    labels = [f"c{i:05d}" for i in range(10_000)]
    shapes = {
        "chain": Cfg(labels, list(zip(labels, labels[1:]))),
        "ladder": diamond_ladder(1667, closed=False, arm=2),
    }
    algos = {"ntscd-vp": lambda g: ntscd_from_vp(g, vp_sets(g)), "dod-new": dod_new}
    for shape, g in shapes.items():
        assert len(g) >= 10_000
        for algo, run in algos.items():
            started = time.perf_counter()
            run(g)
            seconds = time.perf_counter() - started
            assert seconds < 5.0, f"{algo} on the {len(g)}-node {shape} took {seconds:.2f}s"
