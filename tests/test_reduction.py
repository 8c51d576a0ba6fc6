import itertools
import math
import sys
import threading
from types import SimpleNamespace

import numpy as np
import pytest

from motlab import (
    CnfFormula,
    DenseCost,
    IonCost,
    MarginalSpec,
    MotOracle,
    MotSolution,
    SetFunctionCost,
    TransportLP,
    build_clique_tensor,
    build_maxcut_cost,
    build_twosat_cost,
    check_dual_feasibility,
    envelope_value,
    is_coupling,
    lipschitz_bound,
    min_bruteforce,
    min_via_mot_approx,
    min_via_mot_exact,
    minimize_envelope_exact,
    minsolve,
    motsolve,
    purify,
    reduction,
    solve_lp,
    weighted_objective,
)
from motlab.corpus import random_cost, random_marginals
from motlab.graphs import KPartiteGraph, UndirectedGraph
from motlab.hardness import lipschitz_experiment, report_passed
from motlab.reduction import project_rows_to_simplex
from motlab.tensors import CouplingTensor

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
            point = envelope_value(oracle, p, np.eye(n)[list(j)])
            f = float(weighted_objective(C, p, np.asarray([j]))[0])
            assert point.value == f


def test_envelope_dots_match_per_mode_dots_bitwise():
    # the batched dots must round as one 1-D p[i] @ mu[i] per mode does,
    # at vertices, interior points and off the simplex alike
    rng = np.random.default_rng(53)
    for t in range(3000):
        k, n = (int(v) for v in rng.integers(1, 9, size=2))
        value = float(rng.normal())
        # the stub answers from n and k alone, so no cost tensor is built
        oracle = MotOracle(lambda mu: MotSolution(value, None, None, "stub"), SimpleNamespace(n=n, k=k), 0.01)
        p = rng.normal(size=(k, n)) * 10.0 ** int(rng.integers(-3, 4))
        if t % 3 == 0:
            mu = np.eye(n)[rng.integers(0, n, k)]
        else:
            mu = rng.dirichlet(np.ones(n), size=k)
            if t % 3 == 2:
                mu += 0.3 * rng.standard_normal(mu.shape)
        want = float(value - np.array([p[i] @ mu[i] for i in range(k)]).sum())
        assert envelope_value(oracle, p, mu).value.hex() == want.hex(), (t, p, mu)


def test_envelope_zero_weights_is_transport_value():
    rng = np.random.default_rng(1)
    C = random_cost(rng, "dense", 2, 2)
    oracle = MotOracle.exact_lp(C)
    mu = MarginalSpec.fully_fixed(random_marginals(rng, 2, 2))
    from motlab import solve_lp

    assert envelope_value(oracle, None, np.array(mu.marginals)).value == solve_lp(C, mu).value


def test_envelope_worked_permutation_instance():
    C = DenseCost(np.array([[0.0, 1.0], [1.0, 0.0]]))
    oracle = MotOracle.exact_lp(C)
    mu = np.full((2, 2), 0.5)
    assert abs(envelope_value(oracle, None, mu).value) <= 1e-12


def test_subgradient_inequality_random_pairs():
    rng = np.random.default_rng(2)
    C = random_cost(rng, "pairwise", 3, 3)
    p = rng.normal(size=(3, 3))
    oracle = MotOracle.exact_lp(C)
    for _ in range(60):
        a = np.stack(random_marginals(rng, 3, 3))
        b = np.stack(random_marginals(rng, 3, 3))
        pa = envelope_value(oracle, p, a)
        pb = envelope_value(oracle, p, b)
        gap = b - a
        assert pb.value >= pa.value + float(np.sum(pa.subgradient * gap)) - 1e-6


def test_minimize_envelope_constant_cost():
    C = DenseCost(np.full((2, 2), 1.75))
    oracle = MotOracle.exact_lp(C)
    em = minimize_envelope_exact(oracle, None)
    assert em.certified
    assert math.isclose(em.value, 1.75, rel_tol=1e-9)


# (x1 or x2), (x1 or not x2), (not x1 or x2), (not x1 or not x2): unsatisfiable, so c_max = 0
UNSAT_2CNF = build_twosat_cost(CnfFormula(2, ((1, 2), (1, -2), (-1, 2), (-1, -2))))


@pytest.mark.parametrize("case", ["zero cost", "unsatisfiable 2-CNF", "dense times 1e-8"])
def test_flat_envelopes_certify_at_the_first_query(case):
    C = {
        "zero cost": DenseCost(np.zeros((3, 3, 3))),
        "unsatisfiable 2-CNF": UNSAT_2CNF,
        "dense times 1e-8": DenseCost(1e-8 * random_cost(np.random.default_rng(46), "dense", 3, 3).materialize()),
    }[case]
    em = minimize_envelope_exact(MotOracle.exact_lp(C), None)
    assert em.certified and em.iterations == 1


def test_minimize_envelope_monotone_descent():
    rng = np.random.default_rng(3)
    C = random_cost(rng, "dense", 3, 3)
    oracle = MotOracle.exact_lp(C)
    em = minimize_envelope_exact(oracle, None)
    hist = np.array(em.ub_history)
    assert np.all(np.diff(hist) <= 1e-15)
    assert em.certified
    assert em.value >= em.lower_bound - 1e-9


def test_purify_point_mass():
    rng = np.random.default_rng(4)
    C = random_cost(rng, "dense", 3, 2)
    oracle = MotOracle.exact_lp(C)
    coupling = oracle.query(np.eye(3)[[1, 2]]).coupling
    res = purify(C, None, coupling)
    assert res.witness == (1, 2)
    assert res.value == C.evaluate((1, 2))
    assert oracle.queries == 1
    with pytest.raises(ValueError, match="coupling"):
        purify(C, None, None)


def test_exact_reduction_twosat_and_dual_weights():
    C = build_twosat_cost(CnfFormula(2, ((1, 2),)))
    assert min_via_mot_exact(C).value == -1.0
    p = np.tile([0.0, -0.25], (2, 1))
    res = min_via_mot_exact(C, p)
    assert math.isclose(res.value, -0.75, abs_tol=1e-12)
    assert res.witness in ((0, 1), (1, 0))
    assert abs(res.gap) <= reduction.DEFAULT_TARGET_GAP
    assert res.queries > 0


def test_exact_reduction_makes_no_hidden_work(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the reduction enumerated the objective")

    monkeypatch.setattr(minsolve, "min_objective_gap", forbidden)
    monkeypatch.setattr(minsolve, "objective_tensor", forbidden)
    rng = np.random.default_rng(47)
    for family in ("dense", "pairwise", "two_sat"):
        C = random_cost(rng, family, 2 if family == "two_sat" else 3, 3)
        p = rng.normal(size=(3, C.n))
        materialized = []
        real = type(C).materialize

        def counted(self, real=real):
            materialized.append(1)
            return real(self)

        monkeypatch.setattr(type(C), "materialize", counted)
        res = min_via_mot_exact(C, p)
        assert len(materialized) == 1, family
        em = minimize_envelope_exact(MotOracle.exact_lp(C), p)
        assert res.queries == em.iterations, family


def _kept_coupling_corpus(rng):
    families = ("dense", "dense_integer", "low_rank", "pairwise", "determinant",
                "log_determinant", "coulomb", "coulomb_buckingham", "set_function", "two_sat")
    for s in range(7):
        for family in families:
            n, k = (int(v) for v in rng.integers(2, 5, size=2))
            if family in ("set_function", "two_sat"):
                n = 2
            if family.startswith("coulomb"):
                n = max(n, k)
            C = random_cost(rng, family, n, k)
            yield family, C, rng.normal(size=(C.k, C.n)) if s % 2 == 0 else None


def test_kept_coupling_matches_requery_and_certifies_gap():
    rng = np.random.default_rng(48)
    count = 0
    for family, C, p in _kept_coupling_corpus(rng):
        oracle = MotOracle.exact_lp(C)
        em = minimize_envelope_exact(oracle, p)
        kept = purify(C, p, em.coupling)
        # a requery may reach another optimal coupling; any one certifies
        fresh = purify(C, p, oracle.query(em.mu).coupling)
        assert fresh.value <= em.value + 1e-9, family
        res = min_via_mot_exact(C, p)
        assert (res.value, res.witness) == (kept.value, kept.witness), family
        assert res.queries == em.iterations
        assert res.gap == kept.value - em.lower_bound
        if em.certified:
            assert res.gap <= reduction.DEFAULT_TARGET_GAP, family
        brute = min_bruteforce(C, p).value
        assert res.value - res.gap - 1e-9 <= brute <= res.value + 1e-9, family
        assert brute <= fresh.value + 1e-9, family
        count += 1
    assert count >= 60


def test_exact_reduction_repeats_itself():
    rng = np.random.default_rng(49)
    families = set()
    for family, C, p in itertools.islice(_kept_coupling_corpus(rng), 20):
        first, second = min_via_mot_exact(C, p), min_via_mot_exact(C, p)
        assert (first.value, first.witness, first.queries, first.gap) == (
            second.value, second.witness, second.queries, second.gap), family
        families.add(family)
    assert len(families) == 10


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
    def value_only(accuracy):
        return MotOracle(lambda mu: MotSolution(0.0, None, None, "test"), DenseCost(np.eye(2)), accuracy)

    oracle = value_only(0.0)
    # a value-only accuracy-0 oracle answers; the cutting plane, which needs duals, refuses it
    assert oracle.query(np.eye(2)).duals is None
    with pytest.raises(ValueError, match="dual potentials"):
        minimize_envelope_exact(oracle, None)
    assert oracle.queries == 2
    # a noisy oracle may answer with values alone
    noisy = value_only(0.1)
    assert noisy.query(np.eye(2)).duals is None
    # the exact oracle's answer is TransportLP's own, every field of it
    rng = np.random.default_rng(58)
    C = random_cost(rng, "dense", 3, 3)
    mu = np.array(random_marginals(rng, 3, 3))
    assert MotOracle.exact_lp(C).query(mu) == TransportLP(C, range(C.k)).solve(mu)


def test_approx_reduction_exact_oracle_degenerates():
    rng = np.random.default_rng(7)
    for trial in range(10):
        n = int(rng.integers(2, 4))
        k = int(rng.integers(2, 4))
        C = random_cost(rng, "dense", n, k)
        oracle = MotOracle.exact_lp(C)
        res = min_via_mot_approx(oracle, eps=0.0, budget=300, seed=trial)
        assert abs(res.value - min_bruteforce(C).value) <= 1e-4


@pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf, -0.5])
def test_noisy_oracle_rejects_bad_noise(eps):
    with pytest.raises(ValueError, match="eps must be finite and >= 0"):
        MotOracle.noisy_lp(DenseCost(np.zeros((2, 2))), eps=eps, seed=0)


@pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf, -0.5])
def test_approx_reduction_rejects_bad_noise(eps):
    oracle = MotOracle.noisy_lp(random_cost(np.random.default_rng(1), "dense", 3, 3), eps=0.01, seed=0)
    with pytest.raises(ValueError, match="eps must be finite and >= 0"):
        min_via_mot_approx(oracle, eps=eps, budget=100)
    assert oracle.queries == 0


def test_reductions_on_a_cost_without_a_certified_bound():
    table = np.random.default_rng(59).normal(size=2**10)
    C = SetFunctionCost(k=10, fn=lambda mask: table[mask])
    # the exact path never reads the bound
    res = min_via_mot_exact(C)
    assert res.value == min_bruteforce(C).value
    # the annealing temperatures scale with it
    oracle = MotOracle.noisy_lp(C, eps=0.01, seed=0)
    with pytest.raises(ValueError, match="c_max_hint"):
        min_via_mot_approx(oracle, budget=100)
    assert oracle.queries == 0


def test_noisy_oracle_accepts_zero_noise():
    C = DenseCost(np.arange(4.0).reshape(2, 2))
    oracle = MotOracle.noisy_lp(C, eps=0.0, seed=0)
    assert oracle.accuracy == 0.0
    spec = MarginalSpec.fully_fixed([np.array([0.5, 0.5])] * 2)
    ans = oracle.query(np.array(spec.marginals))
    assert ans.value == pytest.approx(solve_lp(C, spec).value, abs=1e-12)
    assert ans.coupling is None and ans.duals is None


@pytest.mark.skipif(motsolve._core is None, reason="needs scipy's private HiGHS bindings")
def test_noisy_reduction_makes_no_hidden_work(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the noisy oracle built a coupling or asked for duals")

    monkeypatch.setattr(CouplingTensor, "from_support", forbidden)
    monkeypatch.setattr(TransportLP, "solve", forbidden)
    models = _record_models(monkeypatch, motsolve)
    rng = np.random.default_rng(51)
    for family in ("dense", "pairwise", "two_sat"):
        C = random_cost(rng, family, 2 if family == "two_sat" else 3, 3)
        materialized = []
        real = type(C).materialize

        def counted(self, real=real):
            materialized.append(1)
            return real(self)

        monkeypatch.setattr(type(C), "materialize", counted)
        models.clear()
        oracle = MotOracle.noisy_lp(C, eps=0.01, seed=3)
        res = min_via_mot_approx(oracle, rng.normal(size=(3, C.n)), eps=0.01, budget=120, seed=3)
        assert res.queries == oracle.queries > 100, family
        assert len(materialized) == 1 and len(models) == 1, family
        # one warm run, and one read of its basis, per query no kept basis
        # answers; most queries are answered from one, and the solver is
        # never cleared
        runs = models[0].count("run")
        assert runs == models[0].count("getBasicVariables") < oracle.queries / 2, family
        assert "clearSolver" not in models[0], family


@pytest.mark.parametrize("budget", [1, 5, 20, 45])
def test_approx_reduction_keeps_to_its_budget(budget):
    C = random_cost(np.random.default_rng(53), "dense", 3, 3)
    oracle = MotOracle.noisy_lp(C, eps=0.01, seed=0)
    res = min_via_mot_approx(oracle, eps=0.01, budget=budget, seed=0)
    assert res.queries <= budget and res.budget_exhausted
    assert math.isfinite(res.value)


def test_approx_reduction_rejects_budget_below_one():
    oracle = MotOracle.noisy_lp(DenseCost(np.arange(4.0).reshape(2, 2)), eps=0.01, seed=0)
    for bad in (0, -3):
        with pytest.raises(ValueError, match="budget must be at least 1"):
            min_via_mot_approx(oracle, budget=bad)
    assert oracle.queries == 0


@pytest.mark.parametrize("budget", [1, 7, 60, 400])
@pytest.mark.parametrize("kind", ["exact", "noisy"])
def test_approx_reduction_reports_what_it_queried(kind, budget):
    C = random_cost(np.random.default_rng(54), "dense", 3, 3)
    p = np.random.default_rng(55).normal(size=(3, 3))
    inner = MotOracle.exact_lp(C) if kind == "exact" else MotOracle.noisy_lp(C, eps=0.05, seed=56)
    asked = []

    def fn(mu):
        ans = inner.query(mu)
        asked.append((mu.copy(), ans.value))
        return ans

    oracle = MotOracle(fn, C, inner.accuracy)
    res = min_via_mot_approx(oracle, p, budget=budget, seed=57)

    def envelope(mu, value):  # F at mu from a recorded answer, through envelope_value itself
        return envelope_value(MotOracle(lambda _: MotSolution(value, None, None, "test"), C, 0.0), p, mu).value

    values = [envelope(mu, v) for mu, v in asked]
    assert res.queries == len(asked) <= budget
    assert res.budget_exhausted == (budget < 400)  # 400 queries finish the search on a 3^3 cost
    assert res.queries == budget or not res.budget_exhausted
    assert res.value == min(values)
    assert any(np.array_equal(res.best_mu, mu) for mu, _ in asked)
    vertices = {tuple(np.argmax(mu, axis=1)) for mu, _ in asked if np.isin(mu, (0.0, 1.0)).all()}
    assert res.witness_hint in vertices or (res.witness_hint is None and res.budget_exhausted)


def test_approx_reduction_counts_its_own_queries_on_a_shared_oracle():
    oracle = MotOracle.noisy_lp(random_cost(np.random.default_rng(1), "dense", 3, 3), eps=0.05, seed=2)
    first = min_via_mot_approx(oracle, budget=30, seed=3)
    second = min_via_mot_approx(oracle, budget=30, seed=4)
    assert (first.queries, second.queries, oracle.queries) == (30, 30, 60)
    assert first.budget_exhausted and second.budget_exhausted


def test_oracle_path_builds_no_marginal_spec(monkeypatch):
    def forbidden(self):
        raise AssertionError("a MarginalSpec was built on the oracle path")

    monkeypatch.setattr(MarginalSpec, "__post_init__", forbidden)
    rng = np.random.default_rng(54)
    C = random_cost(rng, "dense", 3, 3)
    p = rng.normal(size=(3, 3))
    assert abs(min_via_mot_exact(C, p).value - min_bruteforce(C, p).value) <= 1e-6
    oracle = MotOracle.noisy_lp(C, eps=0.01, seed=1)
    assert min_via_mot_approx(oracle, p, eps=0.01, budget=120, seed=1).queries == oracle.queries > 0
    assert report_passed(lipschitz_experiment(C, trials=10, seed=0))


@pytest.mark.parametrize("shape", [(3, 2), (2, 3), (3,), (1, 3, 3)])
def test_envelope_rejects_a_wrongly_shaped_point(shape):
    oracle = MotOracle.exact_lp(random_cost(np.random.default_rng(55), "dense", 3, 3))
    with pytest.raises(ValueError, match=r"\(3, 3\) array of marginals"):
        envelope_value(oracle, None, np.full(shape, 1.0 / 3))
    assert oracle.queries == 0


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
        x = project_rows_to_simplex(v[None, :])[0]
        assert abs(x.sum() - 1) < 1e-12 and x.min() >= 0
        # projection of a simplex point is itself
        s = rng.dirichlet(np.ones(5))
        assert np.allclose(project_rows_to_simplex(s[None, :])[0], s, atol=1e-12)


def _project_row_reference(v):
    """One row at a time: sort, running means, last index above its mean."""
    a = -np.sort(-v)
    cums = (np.cumsum(a) - 1.0) / np.arange(1, len(v) + 1)
    rho = np.max(np.flatnonzero(a > cums))
    return np.maximum(v - cums[rho], 0.0)


def test_row_projection_matches_per_row_reference_bitwise():
    rng = np.random.default_rng(49)
    raised = 0
    for t in range(6000):
        # small rows as annealing makes them, and on every fourth draw up to 16 x 64
        hi_k, hi_n = (17, 65) if t % 4 == 3 else (7, 7)
        k, n = int(rng.integers(1, hi_k)), int(rng.integers(1, hi_n))
        kind = t % 8
        if kind == 0:
            mat = rng.normal(size=(k, n)) * 3
        elif kind == 1:  # rows already on the simplex
            mat = rng.dirichlet(np.ones(n), size=k)
        elif kind == 2:  # ties, and rows of equal entries
            mat = rng.integers(-2, 3, size=(k, n)) / 2.0
            mat[0] = mat[0, 0]
        elif kind == 3:  # point masses, with a perturbation on half the rows
            mat = np.eye(n)[rng.integers(0, n, k)]
            mat[::2] += 0.1 * rng.standard_normal((len(mat[::2]), n))
        elif kind == 4:  # annealing proposals: a simplex point plus a scaled Gaussian step
            mu = rng.dirichlet(np.ones(n), size=k)
            mat = mu + 0.8 * (mu + 0.5 / n) * rng.standard_normal((k, n))
        elif kind == 5:  # -0.0 among zeros and ties, and an all -0.0 row
            mat = rng.integers(-1, 2, size=(k, n)) / 2.0
            mat[(mat == 0) & (rng.random((k, n)) < 0.5)] = -0.0
            mat[0] = -0.0
        elif kind == 6:  # entries near +-1e300 among ordinary ones
            mat = rng.normal(size=(k, n))
            huge = rng.random((k, n)) < 0.3
            mat[huge] = rng.choice([-1.0, 1.0], huge.sum()) * 1e300 * rng.uniform(0.5, 2.0, huge.sum())
        else:  # subnormal entries, alone and on a simplex point
            mat = rng.integers(-2**20, 2**20, size=(k, n)) * 5e-324
            mat[::2] += rng.dirichlet(np.ones(n), size=len(mat[::2]))
        want = []
        for row in mat:
            try:
                want.append(_project_row_reference(row))
            except ValueError:  # no entry exceeds its running mean: a largest entry x with x - 1 == x
                with pytest.raises(ValueError, match="no simplex threshold"):
                    project_rows_to_simplex(row[None, :])
                want.append(None)
        if any(row is None for row in want):
            raised += 1
            with pytest.raises(ValueError, match="no simplex threshold"):
                project_rows_to_simplex(mat)
        else:
            assert np.array_equal(project_rows_to_simplex(mat), np.stack(want)), (t, mat)
    assert 0 < raised < 750  # kind 6 only, and not every draw of it


@pytest.mark.parametrize("mat", [
    np.array([0.2, 0.8]),  # 1-D
    np.zeros((2, 2, 2)),  # 3-D
    np.zeros((3, 0)),  # zero columns
    np.array([[0.5, np.nan, 0.5]]),
    np.array([[0.2, 0.3], [np.inf, 0.0]]),
    np.array([[0.2, -np.inf, 0.3]]),
    np.array([[0.5, -1e308, -1e308]]),  # finite entries whose sum overflows
])
def test_row_projection_rejects_what_it_cannot_project(mat):
    with pytest.raises(ValueError):
        project_rows_to_simplex(mat)


def test_query_counting():
    C = DenseCost(np.zeros((2, 2)))
    oracle = MotOracle.exact_lp(C)
    envelope_value(oracle, None, np.eye(2)[[0, 0]])
    envelope_value(oracle, None, np.eye(2)[[1, 1]])
    assert oracle.queries == 2


def _certifies_one_shot(C, spec, ans):
    """An answer of the reused LP: the one-shot ``solve_lp`` value to
    roundoff, strong duality, feasible duals and a coupling of the spec."""
    cold = solve_lp(C, spec).value
    dual_value = float(np.sum(ans.duals * np.array(spec.marginals)))
    return (
        abs(ans.value - cold) <= 1e-9 * max(1.0, abs(cold))
        and abs(ans.value - dual_value) <= 1e-9
        and check_dual_feasibility(C, ans.duals)
        and is_coupling(ans.coupling, spec)
    )


def test_exact_oracle_reuses_one_model(monkeypatch):
    built = []

    class CountingLP(TransportLP):
        def __init__(self, C, constrained):
            built.append(tuple(constrained))
            super().__init__(C, constrained)

    monkeypatch.setattr(reduction, "TransportLP", CountingLP)
    rng = np.random.default_rng(41)
    C = random_cost(rng, "pairwise", 3, 3)
    oracle = MotOracle.exact_lp(C)
    A = MarginalSpec.fully_fixed(random_marginals(rng, 3, 3))
    B = MarginalSpec.point_masses(3, (2, 0, 1))
    for spec in (A, B, A):
        assert _certifies_one_shot(C, spec, oracle.query(np.array(spec.marginals)))
    assert built == [(0, 1, 2)]
    partial = MarginalSpec.partial(3, 3, {0: A.marginals[0], 2: A.marginals[2]})
    with pytest.raises(ValueError, match="built for"):
        oracle.query(np.array(partial.marginals))
    assert _certifies_one_shot(C, A, oracle.query(np.array(A.marginals)))
    assert built == [(0, 1, 2)]

    specs = [MarginalSpec.fully_fixed(random_marginals(rng, 3, 3)) for _ in range(12)] + [B]
    answers = [[None] * len(specs) for _ in range(4)]

    def worker(slot):
        order = range(len(specs)) if slot % 2 == 0 else reversed(range(len(specs)))
        for i in order:
            answers[slot][i] = oracle.query(np.array(specs[i].marginals))

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
        assert all(_certifies_one_shot(C, spec, ans) for spec, ans in zip(specs, slot))
    assert oracle.queries == 5 + 4 * len(specs)
    assert built == [(0, 1, 2)]


def test_minimize_envelope_uncertified_exit(monkeypatch):
    rng = np.random.default_rng(43)
    C = random_cost(rng, "dense", 3, 3)
    p = rng.normal(size=(3, 3))
    assert minimize_envelope_exact(MotOracle.exact_lp(C), p).iterations == 2
    monkeypatch.setattr(reduction, "_MAX_ITERS", 1)
    oracle = MotOracle.exact_lp(C)
    answers = []

    def recorded(mu):
        answers.append(oracle.query(mu))
        return answers[-1]

    em = minimize_envelope_exact(MotOracle(recorded, C, 0.0), p)
    assert not em.certified and em.iterations == 1
    assert len(em.ub_history) == len(em.lb_history) == 1
    assert em.lower_bound <= em.value
    assert len(answers) == 1 and em.coupling is answers[0].coupling
    assert min_via_mot_exact(C, p).gap > reduction.DEFAULT_TARGET_GAP


def test_minimize_envelope_lower_bound_history():
    rng = np.random.default_rng(43)
    iterations = []
    for _ in range(6):
        C = random_cost(rng, "dense", 3, 3)
        em = minimize_envelope_exact(MotOracle.exact_lp(C), rng.normal(size=(3, 3)))
        lb, ub = np.array(em.lb_history), np.array(em.ub_history)
        assert em.certified
        assert len(lb) == len(ub) == em.iterations
        assert np.all(np.diff(lb) >= -1e-9)
        assert np.all(lb <= ub + 1e-9)
        assert lb[-1] == em.lower_bound
        iterations.append(em.iterations)
    assert max(iterations) > 2, iterations


def _oracle_cuts(rng, family, n, k, count):
    """Cuts t >= <g, mu> + b from exact oracle answers at random points."""
    C = random_cost(rng, family, n, k)
    p = rng.normal(size=(k, n))
    oracle = MotOracle.exact_lp(C)
    cuts = []
    for _ in range(count):
        mu = np.stack(random_marginals(rng, n, k))
        point = envelope_value(oracle, p, mu)
        g = point.subgradient.ravel()
        cuts.append((g, point.value - float(g @ mu.ravel())))
    return cuts


def _master_bounds(n, k, cuts):
    master = reduction.CuttingPlaneMaster(n, k)
    answers = []
    for g, b in cuts:
        master.add_cut(g, b)
        answers.append(master.solve())
    return answers


class _RecordedModel:
    """Passes every attribute through to a HiGHS model and logs its name."""

    def __init__(self, highs, calls):
        self._highs, self._calls = highs, calls

    def __getattr__(self, name):
        self._calls.append(name)
        return getattr(self._highs, name)


def _record_models(monkeypatch, module):
    """One call log per HighsLP that ``module`` builds from here on."""
    models = []

    class RecordedLP(motsolve.HighsLP):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            models.append([])
            self._highs = _RecordedModel(self._highs, models[-1])

    monkeypatch.setattr(module, "HighsLP", RecordedLP)
    return models


def test_master_model_is_built_once_and_cleared_only_on_retry(monkeypatch):
    rng = np.random.default_rng(44)
    cuts = _oracle_cuts(rng, "pairwise", 3, 3, 10)
    incremental = _master_bounds(3, 3, cuts)
    for s, (lower, mu) in enumerate(incremental):
        fresh_lower = _master_bounds(3, 3, cuts[: s + 1])[-1][0]
        assert abs(lower - fresh_lower) <= 1e-9 * max(1.0, abs(fresh_lower))
        assert np.allclose(mu.sum(axis=1), 1.0) and mu.min() >= -1e-9
        # mu attains the bound: no cut present lies above it there
        assert max(float(g @ mu.ravel()) + b for g, b in cuts[: s + 1]) <= lower + 1e-9

    models = _record_models(monkeypatch, reduction)
    C = random_cost(rng, "dense", 3, 3)
    em = minimize_envelope_exact(MotOracle.exact_lp(C), rng.normal(size=(3, 3)))
    assert em.iterations > 2 and len(models) == 1
    calls = models[0]
    # every run here ends optimal, so each starts from the last basis
    assert calls.count("run") == calls.count("addRow") == em.iterations
    assert "clearSolver" not in calls


FALLBACK_CORPUS = [
    (family, n, k)
    for family in ("dense", "dense_integer", "low_rank", "pairwise", "determinant",
                   "log_determinant", "coulomb", "coulomb_buckingham")
    for n, k in ((2, 3), (3, 2), (3, 3))
] + [(family, 2, k) for family in ("set_function", "two_sat") for k in (2, 3, 4)]


def test_master_fallback_matches_highs_path(monkeypatch):
    rng = np.random.default_rng(45)
    cut_sets = [(n, k, _oracle_cuts(rng, family, n, k, 8))
                for family, n, k in (("dense", 3, 3), ("two_sat", 2, 4), ("coulomb", 3, 2))]
    instances = []
    for family, n, k in FALLBACK_CORPUS:
        C = random_cost(rng, family, n, k)
        instances.append((family, C, rng.normal(size=(k, n)) if rng.random() < 0.5 else None))
    real_linprog = motsolve.linprog
    linprog_calls = []

    def counted_linprog(*args, **kwargs):
        linprog_calls.append(1)
        return real_linprog(*args, **kwargs)

    monkeypatch.setattr(motsolve, "linprog", counted_linprog)

    def run_all():
        bounds = [[lower for lower, _ in _master_bounds(n, k, cuts)] for n, k, cuts in cut_sets]
        return bounds, [min_via_mot_exact(C, p) for _, C, p in instances]

    highs_bounds, highs_results = run_all()
    assert linprog_calls == []
    monkeypatch.setattr(motsolve, "_core", None)
    fallback_bounds, fallback_results = run_all()
    assert len(linprog_calls) >= sum(len(cuts) for _, _, cuts in cut_sets)
    for a, b in zip(highs_bounds, fallback_bounds):
        assert np.allclose(a, b, rtol=0.0, atol=1e-9)
    for (family, C, p), *results in zip(instances, highs_results, fallback_results):
        brute = min_bruteforce(C, p)
        tol = 0.0 if family in ("two_sat", "dense_integer") else 1e-6
        for res in results:
            assert abs(res.value - brute.value) <= tol, family
            attained = float(weighted_objective(C, p, np.asarray([res.witness]))[0])
            assert abs(attained - brute.value) <= tol, family


# Every min path on weights p, with the 2^3 cost 0..7; each must refuse a non-finite p.
_MIN_PATHS = {
    "min_bruteforce": lambda C, p: min_bruteforce(C, p),
    "weighted_objective": lambda C, p: weighted_objective(C, p, np.zeros((1, 3), dtype=int)),
    "min_via_mot_exact": lambda C, p: min_via_mot_exact(C, p),
    "min_via_mot_approx": lambda C, p: min_via_mot_approx(MotOracle.noisy_lp(C, eps=0.01, seed=0), p, budget=20),
    "envelope_value": lambda C, p: envelope_value(MotOracle.exact_lp(C), p, np.full((3, 2), 0.5)),
}


@pytest.mark.parametrize("path", sorted(_MIN_PATHS))
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_weights_are_rejected_by_every_min_path(path, bad):
    # used to give value nan or -inf by enumeration, an unbounded master LP
    # on the exact path, and inf on the approximate one
    p = np.zeros((3, 2))
    p[1, 0] = bad
    with pytest.raises(ValueError, match="non-finite"):
        _MIN_PATHS[path](DenseCost(np.arange(8.0).reshape(2, 2, 2)), p)
