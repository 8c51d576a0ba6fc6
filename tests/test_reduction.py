import itertools
import math
import sys
import threading

import numpy as np
import pytest

from motlab import (
    CnfFormula,
    DenseCost,
    IonCost,
    MarginalSpec,
    MotOracle,
    TransportLP,
    build_clique_tensor,
    build_maxcut_cost,
    build_twosat_cost,
    envelope_value,
    lipschitz_bound,
    min_bruteforce,
    min_via_mot_approx,
    min_via_mot_exact,
    minimize_envelope_exact,
    purify,
    reduction,
    solve_lp,
    weighted_objective,
)
from motlab.corpus import random_cost, random_marginals
from motlab.graphs import KPartiteGraph, UndirectedGraph
from motlab.reduction import project_to_simplex

TRIANGLE = KPartiteGraph(
    n=2, k=3, edges=(((0, 0), (1, 0)), ((0, 0), (2, 0)), ((1, 0), (2, 0)))
)


def test_envelope_vertex_identity_full_enumeration():
    rng = np.random.default_rng(0)
    for n, k in [(2, 2), (3, 2), (2, 3), (3, 3)]:
        C = random_cost(rng, "dense", n, k)
        p = rng.normal(size=(k, n))
        oracle = MotOracle.exact_lp(C)
        for j in itertools.product(range(n), repeat=k):
            point = envelope_value(oracle, p, MarginalSpec.point_masses(n, j))
            f = float(weighted_objective(C, p, np.asarray([j]))[0])
            assert point.value == f


def test_envelope_zero_weights_is_transport_value():
    rng = np.random.default_rng(1)
    C = random_cost(rng, "dense", 2, 2)
    oracle = MotOracle.exact_lp(C)
    mu = MarginalSpec.fully_fixed(random_marginals(rng, 2, 2))
    from motlab import solve_lp

    assert envelope_value(oracle, None, mu).value == solve_lp(C, mu).value


def test_envelope_worked_permutation_instance():
    C = DenseCost(np.array([[0.0, 1.0], [1.0, 0.0]]))
    oracle = MotOracle.exact_lp(C)
    mu = MarginalSpec.fully_fixed([np.array([0.5, 0.5])] * 2)
    assert abs(envelope_value(oracle, None, mu).value) <= 1e-12


def test_subgradient_inequality_random_pairs():
    rng = np.random.default_rng(2)
    C = random_cost(rng, "pairwise", 3, 3)
    p = rng.normal(size=(3, 3))
    oracle = MotOracle.exact_lp(C)
    for _ in range(60):
        a = MarginalSpec.fully_fixed(random_marginals(rng, 3, 3))
        b = MarginalSpec.fully_fixed(random_marginals(rng, 3, 3))
        pa = envelope_value(oracle, p, a)
        pb = envelope_value(oracle, p, b)
        gap = np.stack(b.marginals) - np.stack(a.marginals)
        assert pb.value >= pa.value + float(np.sum(pa.subgradient * gap)) - 1e-6


def test_minimize_envelope_constant_cost():
    C = DenseCost(np.full((2, 2), 1.75))
    oracle = MotOracle.exact_lp(C)
    em = minimize_envelope_exact(oracle, None, 2, 2)
    assert em.certified
    assert math.isclose(em.value, 1.75, rel_tol=1e-9)


def test_minimize_envelope_monotone_descent():
    rng = np.random.default_rng(3)
    C = random_cost(rng, "dense", 3, 3)
    oracle = MotOracle.exact_lp(C)
    em = minimize_envelope_exact(oracle, None, 3, 3)
    hist = np.array(em.ub_history)
    assert np.all(np.diff(hist) <= 1e-15)
    assert em.certified
    assert em.value >= em.lower_bound - 1e-9


def test_purify_point_mass():
    rng = np.random.default_rng(4)
    C = random_cost(rng, "dense", 3, 2)
    oracle = MotOracle.exact_lp(C)
    mu = np.zeros((2, 3))
    mu[0, 1] = 1.0
    mu[1, 2] = 1.0
    res = purify(oracle, C, None, mu)
    assert res.witness == (1, 2)
    assert res.value == C.evaluate((1, 2))


def test_exact_reduction_twosat_and_dual_weights():
    C = build_twosat_cost(CnfFormula(2, ((1, 2),)))
    assert min_via_mot_exact(C).value == -1.0
    p = np.tile([0.0, -0.25], (2, 1))
    res = min_via_mot_exact(C, p)
    assert math.isclose(res.value, -0.75, abs_tol=1e-12)
    assert res.witness in ((0, 1), (1, 0))
    assert not res.approximate
    assert res.queries > 0


def test_exact_reduction_clique_triangle():
    cost, _ = build_clique_tensor(TRIANGLE)
    res = min_via_mot_exact(cost)
    assert res.value == -3.0


def test_exact_reduction_maxcut_triangle():
    C = build_maxcut_cost(UndirectedGraph(3, ((0, 1), (1, 2), (0, 2))))
    assert min_via_mot_exact(C).value == -2.0


def test_exact_reduction_random_low_rank():
    rng = np.random.default_rng(5)
    for _ in range(25):
        n = int(rng.integers(2, 4))
        k = int(rng.integers(2, 4))
        C = random_cost(rng, "low_rank", n, k)
        p = rng.normal(size=(k, n))
        assert abs(min_via_mot_exact(C, p).value - min_bruteforce(C, p).value) <= 1e-9


def test_exact_reduction_scale_covariance():
    rng = np.random.default_rng(6)
    for _ in range(10):
        C = random_cost(rng, "dense", 2, 3)
        lam = float(rng.uniform(0.5, 3.0))
        scaled = DenseCost(lam * C.array)
        base = min_via_mot_exact(C)
        stretched = min_via_mot_exact(scaled)
        assert math.isclose(stretched.value, lam * base.value, rel_tol=1e-8, abs_tol=1e-9)
        # witness stays inside the brute-force argmin set
        f = C.array
        argmin = {tuple(j) for j in np.argwhere(f <= f.min() + 1e-12)}
        assert stretched.witness in argmin


def test_exact_oracle_requires_duals():
    with pytest.raises(ValueError):
        MotOracle(lambda spec: None, 2, 2, accuracy=0.0, c_max=1.0,
                  provides_duals=False, provides_coupling=False)


def test_approx_reduction_exact_oracle_degenerates():
    rng = np.random.default_rng(7)
    for trial in range(10):
        n = int(rng.integers(2, 4))
        k = int(rng.integers(2, 4))
        C = random_cost(rng, "dense", n, k)
        oracle = MotOracle.exact_lp(C)
        res = min_via_mot_approx(oracle, eps=0.0, budget=300, seed=trial)
        assert abs(res.value - min_bruteforce(C).value) <= 1e-4


def test_approx_reduction_constant_cost_with_noise():
    C = DenseCost(np.full((2, 2), 3.0))
    eps = 0.01
    oracle = MotOracle.noisy_lp(C, eps=eps, seed=0)
    res = min_via_mot_approx(oracle, eps=eps, budget=150, seed=0)
    assert abs(res.value - 3.0) <= 2 * eps


def test_approx_reduction_noisy_twosat():
    C = build_twosat_cost(CnfFormula(2, ((1, 2),)))
    eps = 0.01
    hits = 0
    for t in range(10):
        oracle = MotOracle.noisy_lp(C, eps=eps, seed=100 + t)
        res = min_via_mot_approx(oracle, eps=eps, budget=300, seed=t)
        if abs(res.value - (-1.0)) <= eps * 10 * C.n * C.k:
            hits += 1
    assert hits >= 7


def test_lipschitz_bound_values():
    assert lipschitz_bound(build_twosat_cost(CnfFormula(2, ((1, 2),)))) == 2.0
    assert lipschitz_bound(DenseCost(np.zeros((2, 2)))) == 0.0
    ions = IonCost(
        positions=np.array([[0.0, 0, 0], [1.0, 0, 0]]),
        charges=np.array([1, -1]),
        k=2,
        m_penalty=48.0,
        variant="buckingham",
    )
    assert lipschitz_bound(ions) == 96.0


def test_simplex_projection():
    rng = np.random.default_rng(8)
    for _ in range(50):
        v = rng.normal(size=5) * 3
        x = project_to_simplex(v)
        assert abs(x.sum() - 1) < 1e-12 and x.min() >= 0
        # projection of a simplex point is itself
        s = rng.dirichlet(np.ones(5))
        assert np.allclose(project_to_simplex(s), s, atol=1e-12)


def test_query_counting():
    C = DenseCost(np.zeros((2, 2)))
    oracle = MotOracle.exact_lp(C)
    envelope_value(oracle, None, MarginalSpec.point_masses(2, (0, 0)))
    envelope_value(oracle, None, MarginalSpec.point_masses(2, (1, 1)))
    assert oracle.queries == 2


def _same_answer(ans, sol):
    return (
        ans.value == sol.value
        and np.array_equal(ans.duals, sol.duals.p)
        and all(np.array_equal(x, y) for x, y in zip(ans.coupling.support(), sol.coupling.support()))
    )


def test_exact_oracle_reuses_one_model_per_constrained_set(monkeypatch):
    built = []

    class CountingLP(TransportLP):
        def __init__(self, C, constrained, cap=None):
            built.append(tuple(constrained))
            super().__init__(C, constrained, cap)

    monkeypatch.setattr(reduction, "TransportLP", CountingLP)
    rng = np.random.default_rng(41)
    C = random_cost(rng, "pairwise", 3, 3)
    oracle = MotOracle.exact_lp(C)
    A = MarginalSpec.fully_fixed(random_marginals(rng, 3, 3))
    B = MarginalSpec.point_masses(3, (2, 0, 1))
    for spec in (A, B, A):
        assert _same_answer(oracle.query(spec), solve_lp(C, spec))
    assert built == [(0, 1, 2)]
    partial = MarginalSpec.partial(3, 3, {0: A.marginals[0], 2: A.marginals[2]})
    for spec in (partial, A, partial):
        assert _same_answer(oracle.query(spec), solve_lp(C, spec))
    assert built == [(0, 1, 2), (0, 2)]

    specs = [MarginalSpec.fully_fixed(random_marginals(rng, 3, 3)) for _ in range(12)] + [partial, B]
    expected = [solve_lp(C, spec) for spec in specs]
    answers = [[None] * len(specs) for _ in range(4)]

    def worker(slot):
        order = range(len(specs)) if slot % 2 == 0 else reversed(range(len(specs)))
        for i in order:
            answers[slot][i] = oracle.query(specs[i])

    threads = [threading.Thread(target=worker, args=(slot,)) for slot in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for slot in answers:
        assert all(_same_answer(ans, sol) for ans, sol in zip(slot, expected))
    assert oracle.queries == 6 + 4 * len(specs)
    assert built == [(0, 1, 2), (0, 2)]
