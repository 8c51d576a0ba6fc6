import itertools
import math

import numpy as np
import pytest

from motlab import (
    CnfFormula,
    DenseCost,
    build_clique_tensor,
    build_twosat_cost,
    min_bruteforce,
    twosat_min_zero,
    weighted_objective,
)
from motlab.corpus import random_cost, random_twosat
from motlab.graphs import KPartiteGraph, twosat_satisfying_assignment
from motlab.minsolve import min_objective_gap

TRIANGLE = KPartiteGraph(
    n=2, k=3, edges=(((0, 0), (1, 0)), ((0, 0), (2, 0)), ((1, 0), (2, 0)))
)


def test_zero_cost_zero_weights():
    res = min_bruteforce(DenseCost(np.zeros((2, 2))))
    assert res.value == 0.0 and res.witness == (0, 0)


def test_twosat_dual_weight_worked_value():
    C = build_twosat_cost(CnfFormula(2, ((1, 2),)))
    p = np.tile([0.0, -0.25], (2, 1))
    res = min_bruteforce(C, p)
    assert math.isclose(res.value, -0.75, abs_tol=1e-15)
    # both satisfying single-true assignments attain -0.75; ties break to the
    # lexicographically smallest witness
    assert res.witness == (0, 1)
    assert math.isclose(
        float(weighted_objective(C, p, np.array([[1, 0]]))[0]), -0.75, abs_tol=1e-15
    )


def test_clique_triangle_minimum():
    cost, _ = build_clique_tensor(TRIANGLE)
    res = min_bruteforce(cost)
    assert res.value == -3.0 and res.witness == (0, 0, 0)


def test_result_invariant_value_matches_witness():
    rng = np.random.default_rng(0)
    for _ in range(20):
        C = random_cost(rng, "dense", 3, 3)
        p = rng.normal(size=(3, 3))
        res = min_bruteforce(C, p)
        recomputed = float(weighted_objective(C, p, np.array([res.witness]))[0])
        assert res.value == recomputed


def test_translation_covariance():
    rng = np.random.default_rng(1)
    for _ in range(15):
        n = int(rng.integers(2, 5))
        k = int(rng.integers(2, 5))
        C = random_cost(rng, "dense", n, k)
        c = float(rng.normal())
        shifted = DenseCost(C.array + c)
        base = min_bruteforce(C)
        moved = min_bruteforce(shifted)
        assert math.isclose(moved.value, base.value + c, rel_tol=1e-12, abs_tol=1e-12)
        assert moved.witness == base.witness


def test_min_is_lower_bound_on_random_tuples():
    rng = np.random.default_rng(2)
    C = random_cost(rng, "pairwise", 3, 3)
    p = rng.normal(size=(3, 3))
    res = min_bruteforce(C, p)
    J = rng.integers(0, 3, size=(100, 3))
    assert np.all(res.value <= weighted_objective(C, p, J) + 1e-12)


def test_twosat_min_zero_examples():
    sat = build_twosat_cost(CnfFormula(2, ((1, 2),)))
    res = twosat_min_zero(sat)
    assert res.value == -1.0 and sat.evaluate(res.witness) == -1.0

    unsat = build_twosat_cost(CnfFormula(1, ((1,), (-1,))))
    res = twosat_min_zero(unsat)
    assert res.value == 0.0 and res.witness == (0,)


def test_twosat_min_zero_wrong_family():
    with pytest.raises(TypeError):
        twosat_min_zero(DenseCost(np.zeros((2, 2))))


def test_twosat_min_zero_matches_bruteforce():
    rng = np.random.default_rng(3)
    for _ in range(50):
        k = int(rng.integers(2, 13))
        C = random_twosat(rng, k, int(rng.integers(1, 3 * k)))
        assert twosat_min_zero(C).value == min_bruteforce(C).value


def test_twosat_scc_assignment_satisfies():
    rng = np.random.default_rng(4)
    for _ in range(30):
        k = int(rng.integers(2, 10))
        C = random_twosat(rng, k, int(rng.integers(1, 3 * k)))
        assign = twosat_satisfying_assignment(C.cnf)
        brute_sat = any(
            C.cnf.evaluate(a) for a in itertools.product((0, 1), repeat=k)
        )
        if assign is None:
            assert not brute_sat
        else:
            assert C.cnf.evaluate(assign)


def test_min_objective_gap_examples():
    twosat = build_twosat_cost(CnfFormula(2, ((1, 2),)))
    assert min_objective_gap(twosat) == 1.0
    assert min_objective_gap(DenseCost(np.full((2, 2), 3.0))) == math.inf
    clique, _ = build_clique_tensor(TRIANGLE)
    assert min_objective_gap(clique) == 1.0
