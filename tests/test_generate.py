"""Generator determinism, shape constraints, and the generated-graph properties."""

from __future__ import annotations

import pytest

from ctrldep import (
    dod_new,
    oracle_dod,
    predicates,
    random_cfg,
    random_reducible_cfg,
    worst_case_dod_cfg,
)
from ctrldep.generate import MAX_NODES, MAX_REDUCIBLE_DEPTH

from conftest import reduces_to_single_node


def test_random_cfg_edgeless():
    g = random_cfg(5, 0, 123)
    assert len(g) == 5 and g.n_edges == 0


def test_random_cfg_counts_and_degree():
    g = random_cfg(500, 1000, 99)
    assert len(g) == 500
    assert g.n_edges == 1000
    assert all(len(s) <= 2 for s in g.succs)


def test_random_cfg_deterministic():
    assert random_cfg(40, 60, 5) == random_cfg(40, 60, 5)
    assert random_cfg(40, 60, 5) != random_cfg(40, 60, 6)


def test_random_cfg_infeasible():
    with pytest.raises(ValueError, match="infeasible"):
        random_cfg(3, 7, 0)


def test_reducible_depth_zero():
    g = random_reducible_cfg(0, 1)
    assert len(g) == 1 and g.n_edges == 0


def test_reducible_depth_is_capped():
    with pytest.raises(ValueError, match=f"depth must be at most {MAX_REDUCIBLE_DEPTH}"):
        random_reducible_cfg(MAX_REDUCIBLE_DEPTH + 1, 0)


def test_node_count_is_capped():
    # Refused before anything is allocated.
    with pytest.raises(ValueError, match=f"node count must be at most {MAX_NODES}"):
        random_cfg(MAX_NODES + 1, 5, 0)
    with pytest.raises(ValueError, match=f"node count must be at most {MAX_NODES}"):
        worst_case_dod_cfg(MAX_NODES + 1)


def test_reducible_deterministic():
    assert random_reducible_cfg(4, 9) == random_reducible_cfg(4, 9)


@pytest.mark.parametrize("seed", range(25))
def test_reducible_reduces_to_single_node(seed):
    g = random_reducible_cfg(seed % 6, seed)
    assert all(len(s) <= 2 for s in g.succs)
    assert reduces_to_single_node(g)


@pytest.mark.parametrize("seed", range(10))
def test_reducible_has_empty_dod(seed):
    assert dod_new(random_reducible_cfg(seed % 5, 1000 + seed)) == frozenset()


def test_worst_case_structure():
    g = worst_case_dod_cfg(8)
    assert len(g) == 8
    assert len(predicates(g)) == 4
    # every predicate branches to the two opposite cycle nodes
    for p in sorted(predicates(g)):
        assert [g.labels[t] for t in g.succs[g.index[p]]] == ["c0", "c2"]
    assert oracle_dod(g) == dod_new(g)
    assert len(dod_new(g)) == 16


def test_worst_case_size_formula():
    assert len(dod_new(worst_case_dod_cfg(16))) == 16**3 // 32


def test_worst_case_invalid_sizes():
    with pytest.raises(ValueError):
        worst_case_dod_cfg(10)
    with pytest.raises(ValueError):
        worst_case_dod_cfg(4)
