import itertools
import math

import numpy as np
import pytest

from motlab import (
    CnfFormula,
    DenseCost,
    DeterminantCost,
    IonCost,
    KPartiteGraph,
    LowRankCost,
    PairwiseCost,
    SetFunctionCost,
    UndirectedGraph,
    build_clique_tensor,
    build_maxcut_cost,
    build_pairwise_from_graph,
    build_twosat_cost,
    is_submodular,
    is_supermodular,
)
from motlab.corpus import random_cost, random_kpartite
from motlab.costs import CostOracle
from motlab.tensors import CapExceededError

TRIANGLE = KPartiteGraph(
    n=2, k=3, edges=(((0, 0), (1, 0)), ((0, 0), (2, 0)), ((1, 0), (2, 0)))
)


def test_twosat_satisfying_entry():
    C = build_twosat_cost(CnfFormula(2, ((1, 2),)))
    assert C.evaluate((1, 0)) == -1.0
    assert C.evaluate((0, 0)) == 0.0


def test_determinant_identity_points():
    C = DeterminantCost(points=np.eye(3), variant="neg_abs_det")
    assert math.isclose(C.evaluate((0, 1, 2)), -1.0, abs_tol=1e-12)


def test_buckingham_hand_value():
    ions = IonCost(
        positions=np.array([[0.0, 0, 0], [1.0, 0, 0]]),
        charges=np.array([1, -1]),
        k=2,
        m_penalty=48.0,
        variant="buckingham",
    )
    assert math.isclose(ions.evaluate((0, 1)), math.exp(-1) - 2.0, rel_tol=1e-12)
    # unbalanced charges and coincident selections both cost M
    assert ions.evaluate((0, 0)) == 48.0
    assert ions.evaluate((1, 1)) == 48.0


def test_coulomb_pair_values():
    ions = IonCost(
        positions=np.array([[0.0, 0, 0], [0.0, 2.0, 0], [0.0, 0, 0]]),
        charges=np.array([1, 1, 1]),
        k=2,
        m_penalty=5.0,
        variant="coulomb",
    )
    assert ions.evaluate((0, 1)) == 0.5
    # distinct indices at identical positions collide
    assert ions.evaluate((0, 2)) == 5.0


def test_buckingham_penalty_floor_enforced():
    with pytest.raises(ValueError):
        IonCost(
            positions=np.array([[0.0, 0, 0], [1.0, 0, 0]]),
            charges=np.array([1, -1]),
            k=2,
            m_penalty=1.0,
            variant="buckingham",
        )


def test_materialize_low_rank_ones():
    ones = tuple(np.ones(2) for _ in range(3))
    C = LowRankCost(n=2, k=3, terms=(ones,))
    assert np.allclose(C.materialize(), np.ones((2, 2, 2)))


def test_materialize_zero_pairwise():
    C = PairwiseCost(
        n=2, k=3, tables={(i, j): np.zeros((2, 2)) for i in range(3) for j in range(i + 1, 3)}
    )
    assert np.allclose(C.materialize(), 0.0)


def test_pairwise_materialize_matches_enumeration(monkeypatch):
    rng = np.random.default_rng(46)
    for n in (1, 2, 3, 7):
        for k in (2, 3, 6):
            C = random_cost(rng, "pairwise", n, k)
            got, want = C.materialize(), CostOracle.materialize(C)
            assert got.shape == want.shape == (n,) * k
            assert np.array_equal(got, want)
    monkeypatch.setenv("MOTLAB_DENSE_CAP", str(7**6 - 1))
    with pytest.raises(CapExceededError):
        C.materialize()


def test_materialize_cap():
    C = LowRankCost(n=10, k=8, terms=(tuple(np.ones(10) for _ in range(8)),))
    with pytest.raises(CapExceededError):
        C.materialize()


def test_clique_tensor_triangle_counts():
    cost, r = build_clique_tensor(TRIANGLE)
    assert r == 3
    # induced-edge counting oracle over all tuples
    for j in itertools.product(range(2), repeat=3):
        assert cost.evaluate(j) == -TRIANGLE.induced_edges(j)
    assert cost.evaluate((0, 0, 0)) == -3.0


def test_clique_tensor_empty_graph():
    G = KPartiteGraph(n=2, k=3, edges=())
    cost, r = build_clique_tensor(G)
    assert r == 0
    assert np.allclose(cost.materialize(), 0.0)


def test_clique_rank_bound_random():
    rng = np.random.default_rng(0)
    for _ in range(40):
        n = int(rng.integers(2, 5))
        k = int(rng.integers(2, 5))
        G = random_kpartite(rng, n, k, p=float(rng.random()))
        _, r = build_clique_tensor(G)
        assert r <= n**2 * k**2


def test_pairwise_encoding_matches_low_rank():
    rng = np.random.default_rng(1)
    for _ in range(100):
        n = int(rng.integers(2, 5))
        k = int(rng.integers(2, 5))
        G = random_kpartite(rng, n, k, p=0.5)
        low, _ = build_clique_tensor(G)
        pair = build_pairwise_from_graph(G)
        assert np.array_equal(low.materialize(), pair.materialize())


def test_complete_kpartite_constant_tensor():
    G = KPartiteGraph.complete(2, 3)
    pair = build_pairwise_from_graph(G)
    assert np.allclose(pair.materialize(), -3.0)


def test_edge_within_class_rejected():
    with pytest.raises(ValueError):
        KPartiteGraph(n=2, k=2, edges=(((0, 0), (0, 1)),))


def test_maxcut_single_edge_table():
    C = build_maxcut_cost(UndirectedGraph(2, ((0, 1),)))
    assert list(C.table) == [0.0, -1.0, -1.0, 0.0]


def test_maxcut_triangle_min():
    C = build_maxcut_cost(UndirectedGraph(3, ((0, 1), (1, 2), (0, 2))))
    assert C.table.min() == -2.0


def test_maxcut_empty_graph():
    C = build_maxcut_cost(UndirectedGraph(3, ()))
    assert np.allclose(C.table, 0.0)


def test_modularity_checks():
    k = 4
    w = np.array([0.5, -1.0, 2.0, 0.25])
    masks = np.arange(2**k)
    table = np.zeros(2**k)
    for i in range(k):
        table += w[i] * ((masks >> i) & 1)
    modular = SetFunctionCost(k=k, table=table)
    assert is_submodular(modular) and is_supermodular(modular)

    G = UndirectedGraph(4, ((0, 1), (1, 2), (2, 3), (0, 3)))
    neg_cut = build_maxcut_cost(G)
    cut = SetFunctionCost(k=4, table=-neg_cut.table)
    assert is_supermodular(neg_cut) and not is_submodular(neg_cut)
    assert is_submodular(cut) and not is_supermodular(cut)


def test_twosat_builders_and_truth_tables():
    cnf = CnfFormula(2, ((1, 2), (-1, -2)))
    C = build_twosat_cost(cnf)
    want = {(0, 0): 0.0, (1, 1): 0.0, (0, 1): -1.0, (1, 0): -1.0}
    for j, v in want.items():
        assert C.evaluate(j) == v


def test_twosat_single_unit_clause():
    C = build_twosat_cost(CnfFormula(1, ((1,),)))
    assert C.evaluate((1,)) == -1.0
    assert C.evaluate((0,)) == 0.0


def test_twosat_rejects_wide_clauses():
    with pytest.raises(ValueError):
        build_twosat_cost(CnfFormula(3, ((1, 2, 3),)))


def test_twosat_agrees_with_clause_evaluation():
    rng = np.random.default_rng(2)
    from motlab.corpus import random_twosat

    for trial in range(20):
        k = 12 if trial < 3 else int(rng.integers(2, 9))
        C = random_twosat(rng, k, int(rng.integers(1, 2 * k)))
        for assign in itertools.product((0, 1), repeat=k):
            assert C.evaluate(assign) == (-1.0 if C.cnf.evaluate(assign) else 0.0)


def test_unsatisfiable_twosat_is_zero():
    C = build_twosat_cost(CnfFormula(1, ((1,), (-1,))))
    assert np.allclose(C.materialize(), 0.0)
    assert C.upper_bound() == 0.0


def test_cost_upper_bounds():
    assert build_twosat_cost(CnfFormula(2, ((1, 2),))).upper_bound() == 1.0
    ions = IonCost(
        positions=np.array([[0.0, 0, 0], [1.0, 0, 0], [0, 1.0, 0], [1.0, 1.0, 0]]),
        charges=np.array([1, -1, 1, -1]),
        k=2,
        m_penalty=48.0,
        variant="buckingham",
    )
    assert ions.upper_bound() == 48.0
    cost, r = build_clique_tensor(TRIANGLE)
    assert cost.upper_bound() == 3.0  # one indicator product per edge


def test_bound_dominates_entries_all_families():
    rng = np.random.default_rng(3)
    fams = [
        "dense", "low_rank", "pairwise", "determinant", "log_determinant",
        "set_function", "coulomb", "coulomb_buckingham", "two_sat",
    ]
    for fam in fams:
        for _ in range(4):
            n = int(rng.integers(2, 4))
            k = int(rng.integers(2, 4))
            if fam in ("set_function", "two_sat"):
                n = 2
            if fam in ("coulomb", "coulomb_buckingham"):
                n = max(n, k)
            C = random_cost(rng, fam, n, k)
            assert np.abs(C.materialize()).max() <= C.upper_bound() + 1e-12


def test_determinant_permutation_invariance():
    rng = np.random.default_rng(4)
    for variant in ("neg_abs_det", "capped_neg_log_abs_det"):
        for n, k in [(3, 3), (4, 3)]:
            C = DeterminantCost(points=rng.normal(size=(n, k)), variant=variant)
            for j in itertools.product(range(n), repeat=k):
                base = C.evaluate(j)
                for perm in itertools.permutations(j):
                    assert math.isclose(C.evaluate(perm), base, rel_tol=1e-9, abs_tol=1e-12)


def test_capped_log_determinant_branches():
    pts = np.array([[2.0, 0.0], [0.0, 2.0], [2.0, 0.0]])
    C = DeterminantCost(points=pts, variant="capped_neg_log_abs_det")
    assert math.isclose(C.evaluate((0, 1)), -math.log(4.0), rel_tol=1e-12)
    assert C.evaluate((0, 2)) == 0.0  # singular tuple hits the cap
    small = DeterminantCost(points=0.1 * np.eye(2), variant="capped_neg_log_abs_det")
    assert small.evaluate((0, 1)) == 0.0  # |det| < 1 also capped at 0


def test_dense_cost_round_trip():
    arr = np.arange(8.0).reshape(2, 2, 2)
    C = DenseCost(arr)
    assert C.evaluate((1, 0, 1)) == arr[1, 0, 1]
    assert C.upper_bound() == 7.0
