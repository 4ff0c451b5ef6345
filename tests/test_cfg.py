"""Graph model, parsing, serialization, and the basic graph algorithms."""

from __future__ import annotations

import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctrldep import Cfg, ParseError, parse_cfg, predicates, random_cfg, serialize_cfg, worst_case_dod_cfg
from ctrldep.cfg import reach
from ctrldep.coloring import vp_sets
from ctrldep.dod import dod_from_vp_rows

from conftest import diamond_ladder, fed_cycle_cfg, small_cfgs


def test_parse_single_node_json():
    g = parse_cfg('{"nodes":["a"],"edges":[]}')
    assert g.labels == ("a",)
    assert g.n_edges == 0


def test_parse_fig3_edgelist():
    text = "1 2\n1 6\n2 3\n2 4\n3 5\n4 5\n5 6\n"
    g = parse_cfg(text, "edgelist")
    assert len(g) == 6
    assert predicates(g) == {"1", "2"}


def test_parse_rejects_three_out_edges():
    bad = '{"nodes":["a","b"],"edges":[["a","b"],["a","b"],["a","a"]]}'
    with pytest.raises(ParseError, match="out-degree exceeds 2"):
        parse_cfg(bad)
    with pytest.raises(ParseError, match="out-degree exceeds 2"):
        parse_cfg("a b\na b\na a\n", "edgelist")


def test_parse_rejects_duplicate_label():
    with pytest.raises(ParseError, match="duplicate node label"):
        parse_cfg('{"nodes":["a","a"],"edges":[]}')
    with pytest.raises(ParseError, match="duplicate node label"):
        parse_cfg("a\na\n", "edgelist")


def test_parse_rejects_undeclared_endpoint():
    with pytest.raises(ParseError, match="^edge #0: endpoint 'b' is not a declared node$"):
        parse_cfg('{"nodes":["a"],"edges":[["a","b"]]}')


def test_parse_rejects_malformed_input():
    with pytest.raises(ParseError, match="line 1"):
        parse_cfg("{nodes:", "json")
    with pytest.raises(ParseError, match="line 2"):
        parse_cfg("a b\nx y z\n", "edgelist")


@pytest.mark.parametrize(
    "edge",
    ['"ab"', '{"a":"b"}', "null", "true", "[]", '["a"]', '["a","a","a"]', '[1,"a"]', '[["a"],"a"]', '["a",null]', '["a",true]'],
)
def test_parse_rejects_each_edge_shape_that_is_not_a_pair_of_strings(edge):
    # The bad edge comes second, so the message must number it #1.
    with pytest.raises(ParseError, match=r"^edge #1: expected a \[src, dst\] pair of strings$"):
        parse_cfg('{"nodes":["a"],"edges":[["a","a"],%s]}' % edge)


def test_serialize_single_node_exact():
    assert serialize_cfg(Cfg(["a"], [])) == '{"nodes":["a"],"edges":[]}'


def test_serialize_fig4_edge_order(fig4):
    text = serialize_cfg(fig4)
    assert '"edges":[["a","b"],["a","c"],["b","c"],["c","b"]]' in text


@pytest.mark.parametrize("fmt", ["json", "edgelist"])
def test_roundtrip_100_random_graphs(fmt):
    for seed in range(100):
        g = random_cfg(1 + seed % 20, (2 * (1 + seed % 20)) * (seed % 3) // 2, seed)
        assert parse_cfg(serialize_cfg(g, fmt), fmt) == g


def test_edgelist_roundtrip_keeps_isolated_nodes():
    g = Cfg(["lonely", "x", "y"], [("x", "y")])
    assert parse_cfg(serialize_cfg(g, "edgelist"), "edgelist") == g


def test_predicates(fig3):
    assert predicates(fig3) == {"1", "2"}
    assert predicates(Cfg(["a"], [])) == frozenset()


def test_duplicated_target_is_not_a_predicate():
    g = Cfg(["x", "y"], [("x", "y"), ("x", "y")])
    assert predicates(g) == frozenset()


def test_reachable_set(fig3, fig4):
    assert reach(fig3.succs, (fig3.index["5"],)) == {fig3.index["5"], fig3.index["6"]}
    assert reach(Cfg(["a"], []).succs, (0,)) == {0}
    assert reach(fig4.succs, (fig4.index["b"],)) == {fig4.index["b"], fig4.index["c"]}
    assert reach(fig4.preds, (fig4.index["b"],), avoid=(fig4.index["c"],)) == {fig4.index["a"], fig4.index["b"]}


def test_cfg_rejects_bad_construction():
    with pytest.raises(ValueError, match="duplicate node label"):
        Cfg(["a", "a"], [])
    with pytest.raises(ValueError, match="^edge #1: endpoint 'zz' is not a declared node$"):
        Cfg(["a"], [("a", "a"), ("a", "zz")])
    with pytest.raises(ValueError, match="^edge #0: endpoint 'zz' is not a declared node$"):
        Cfg(["a"], [("zz", "a")])
    with pytest.raises(ValueError, match="^edge #2: out-degree exceeds 2 for node 'a'$"):
        Cfg(["a"], [("a", "a"), ("a", "a"), ("a", "a")])


def test_cfg_names_the_first_fault():
    # The first label to repeat, not the first label that has a repeat.
    with pytest.raises(ValueError, match="^duplicate node label 'b'$"):
        Cfg(["a", "b", "b", "a"], [])
    # Whichever fault comes first in edge order wins, and its number counts
    # every edge before it.
    third = [("a", "b"), ("b", "a"), ("a", "a"), ("a", "b")]
    with pytest.raises(ValueError, match="^edge #3: out-degree exceeds 2 for node 'a'$"):
        Cfg(["a", "b"], third + [("a", "zz")])
    with pytest.raises(ValueError, match="^edge #3: endpoint 'zz' is not a declared node$"):
        Cfg(["a", "b"], third[:3] + [("b", "zz"), ("a", "b")])
    with pytest.raises(ValueError, match="^edge #1: endpoint 'zz' is not a declared node$"):
        Cfg(["a", "b"], [("a", "b"), ("b", "zz"), ("zz", "a")])


def test_cfg_counts_its_edges():
    g = Cfg(["a", "b", "c"], [("a", "b"), ("a", "b"), ("b", "c"), ("c", "c")])
    assert g.n_edges == 4 == sum(map(len, g.succs)) == sum(map(len, g.preds))
    assert g.index == {"a": 0, "b": 1, "c": 2}
    assert g.succs == ((1, 1), (2,), (2,)) and g.preds == ((), (0, 0), (1, 2))


def test_preds_of_a_node_with_100k_in_edges_build_in_linear_time():
    # A transpose that grew each node's tuple one in-edge at a time would
    # copy 5 * 10^9 entries here, and take well over the bound.
    n = 100_000
    labels = ["hub", *(f"v{i}" for i in range(n))]
    edges = [(lab, "hub") for lab in labels[1:]]
    t0 = time.perf_counter()
    g = Cfg(labels, edges)
    preds = g.preds
    assert time.perf_counter() - t0 < 3.0
    assert preds[0] == tuple(range(1, n + 1)) and g.preds is preds


def test_threads_racing_on_the_first_read_of_preds_get_the_transpose():
    # The first read builds preds without a lock: every racer must get the
    # exact transpose, and every later read one of the racers' tuples.  The
    # graphs are large enough that a build which published its lists before
    # filling them fails here.
    drawn = [random_cfg(20_000, 30_000, seed) for seed in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for g0 in drawn:
            labels, edges = g0.labels, g0.edges()
            expected = Cfg(labels, edges).preds
            g = Cfg(labels, edges)
            barrier = threading.Barrier(6)
            seen: list = []

            def first_read() -> None:
                barrier.wait()
                seen.append(g.preds)

            threads = [threading.Thread(target=first_read) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
            assert len(seen) == 6 and all(p == expected for p in seen)
            assert any(p is g.preds for p in seen)
    finally:
        sys.setswitchinterval(interval)


def test_dod_new_never_reads_preds(monkeypatch):
    # vp_sets and dod_from_vp_rows work on succs alone, so a dod-new request
    # never pays for the transpose.
    graphs = [fed_cycle_cfg(seed) for seed in range(20)] + [worst_case_dod_cfg(16), diamond_ladder(5, True, 2)]
    graphs += [random_cfg(n, 3 * n // 2, n) for n in range(5, 80, 5)]

    def unread(g: Cfg) -> tuple[tuple[int, ...], ...]:
        raise AssertionError("Cfg.preds was read")

    monkeypatch.setattr(Cfg, "preds", property(unread))
    assert sum(len(list(dod_from_vp_rows(g, vp_sets(g)))) for g in graphs) > 0


@settings(max_examples=100, deadline=None)
@given(small_cfgs(), st.sampled_from(["json", "edgelist"]))
def test_roundtrip_property(g, fmt):
    assert parse_cfg(serialize_cfg(g, fmt), fmt) == g
