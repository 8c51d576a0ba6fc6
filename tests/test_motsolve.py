import math

import numpy as np
import pytest

from motlab import (
    DenseCost,
    DualPotentials,
    MarginalSpec,
    SetFunctionCost,
    SinkhornConfig,
    TransportLP,
    bernoulli_spec,
    chain_coupling,
    check_dual_feasibility,
    inner_product,
    is_coupling,
    lovasz_extension,
    motsolve,
    round_to_polytope,
    sinkhorn,
    solve_lp,
    solve_submodular,
    suggest_eta,
)
from motlab.corpus import (
    random_cost,
    random_coverage_function,
    random_marginals,
    random_set_function,
)

PERM = DenseCost(np.array([[0.0, 1.0], [1.0, 0.0]]))
HALF = MarginalSpec.fully_fixed([np.array([0.5, 0.5]), np.array([0.5, 0.5])])


def test_lp_permutation_cost():
    sol = solve_lp(PERM, HALF)
    assert math.isclose(sol.value, 0.0, abs_tol=1e-12)
    assert np.allclose(sol.coupling.to_dense(), np.diag([0.5, 0.5]), atol=1e-12)


def test_lp_point_mass_marginals():
    rng = np.random.default_rng(0)
    C = random_cost(rng, "dense", 3, 3)
    for j in [(0, 1, 2), (2, 2, 0)]:
        sol = solve_lp(C, MarginalSpec.point_masses(3, j))
        assert sol.value == C.evaluate(j)
        idx, vals = sol.coupling.support()
        assert tuple(idx[np.argmax(vals)]) == j


def test_lp_constant_cost():
    C = DenseCost(np.full((2, 2, 2), 2.5))
    sol = solve_lp(C, MarginalSpec.fully_fixed(random_marginals(np.random.default_rng(1), 2, 3)))
    assert math.isclose(sol.value, 2.5, rel_tol=1e-12)


def test_lp_strong_duality_and_feasible_duals():
    rng = np.random.default_rng(2)
    for _ in range(15):
        n = int(rng.integers(2, 4))
        k = int(rng.integers(2, 4))
        C = random_cost(rng, "dense", n, k)
        spec = MarginalSpec.fully_fixed(random_marginals(rng, n, k))
        sol = solve_lp(C, spec)
        assert abs(sol.value - sol.dual_value) <= 1e-6
        assert check_dual_feasibility(C, sol.duals, 1e-9)


def test_lp_partial_marginals_duality():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n, k = 3, 3
        C = random_cost(rng, "pairwise", n, k)
        spec = MarginalSpec.partial(n, k, {0: random_marginals(rng, n, 1)[0], 2: random_marginals(rng, n, 1)[0]})
        sol = solve_lp(C, spec)
        assert abs(sol.value - sol.dual_value) <= 1e-6
        assert check_dual_feasibility(C, sol.duals, 1e-9)
        # unconstrained mode gets zero potentials
        assert np.allclose(sol.duals.p[1], 0.0)
        assert is_coupling(sol.coupling, spec, 1e-8)


def test_lp_partial_beats_or_matches_full():
    # relaxing constraints can only lower the optimal value
    rng = np.random.default_rng(4)
    C = random_cost(rng, "dense", 3, 3)
    mus = random_marginals(rng, 3, 3)
    full = solve_lp(C, MarginalSpec.fully_fixed(mus))
    part = solve_lp(C, MarginalSpec.partial(3, 3, {0: mus[0]}))
    assert part.value <= full.value + 1e-9


def test_lp_basic_support_bound():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n, k = 3, 3
        C = random_cost(rng, "low_rank", n, k)
        spec = MarginalSpec.fully_fixed(random_marginals(rng, n, k))
        sol = solve_lp(C, spec)
        assert sol.coupling.nnz() <= n * k - k + 1


def test_lp_requires_a_constraint():
    with pytest.raises(ValueError):
        solve_lp(PERM, MarginalSpec.partial(2, 2, {}))


@pytest.mark.parametrize("n, k", [(3, 2), (2, 3), (2, 1)])
def test_lp_rejects_mismatched_spec_before_materializing(n, k, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("materialized a cost the spec does not fit")

    monkeypatch.setattr(DenseCost, "materialize", fail)
    spec = MarginalSpec.fully_fixed([np.full(n, 1.0 / n)] * k)
    with pytest.raises(ValueError, match="dimension mismatch between cost and marginal spec"):
        solve_lp(PERM, spec)


FAMILY_SIZES = [
    (family, n, k)
    for family in ("dense", "dense_integer", "low_rank", "pairwise", "determinant",
                   "log_determinant", "coulomb", "coulomb_buckingham")
    for n, k in ((2, 2), (3, 3), (2, 4), (4, 3))
] + [(family, 2, k) for family in ("set_function", "two_sat") for k in (2, 3, 4)]


def _lp_specs(rng, n, k):
    """Fully fixed, zero-entry, point-mass and partial marginals for one size."""
    with_zeros = random_marginals(rng, n, k)
    for i in (0, k - 1):
        with_zeros[i][rng.integers(n)] = 0.0
        with_zeros[i] /= with_zeros[i].sum()
    free = {0: random_marginals(rng, n, 1)[0]}
    if k > 2:
        free[k - 1] = random_marginals(rng, n, 1)[0]
    return [
        MarginalSpec.fully_fixed(random_marginals(rng, n, k)),
        MarginalSpec.fully_fixed(with_zeros),
        MarginalSpec.point_masses(n, rng.integers(0, n, k)),
        MarginalSpec.partial(n, k, free),
    ]


def _same_lp_solution(a, b):
    return (
        a.value == b.value
        and a.dual_value == b.dual_value
        and np.array_equal(a.duals.p, b.duals.p)
        and a.iterations == b.iterations
        and all(np.array_equal(x, y) for x, y in zip(a.coupling.support(), b.coupling.support()))
    )


def test_highs_model_matches_linprog_fallback_bitwise(monkeypatch):
    rng = np.random.default_rng(31)
    cases = [(C, spec) for family, n, k in FAMILY_SIZES
             for C in [random_cost(rng, family, n, k)] for spec in _lp_specs(rng, n, k)]
    real_linprog = motsolve.linprog
    linprog_calls = []

    def counted_linprog(*args, **kwargs):
        linprog_calls.append(1)
        return real_linprog(*args, **kwargs)

    monkeypatch.setattr(motsolve, "linprog", counted_linprog)
    highs = [solve_lp(C, spec) for C, spec in cases]
    assert linprog_calls == []
    monkeypatch.setattr(motsolve, "_core", None)
    fallback = [solve_lp(C, spec) for C, spec in cases]
    assert len(linprog_calls) == len(cases)
    mismatched = [i for i, (a, b) in enumerate(zip(highs, fallback)) if not _same_lp_solution(a, b)]
    assert mismatched == []


def test_transport_lp_reuse_matches_one_shot_solves():
    rng = np.random.default_rng(32)
    C = random_cost(rng, "two_sat", 2, 4)
    lp = TransportLP(C, range(4))
    specs = _lp_specs(rng, 2, 4)[:3] * 2
    for spec in specs:
        assert _same_lp_solution(lp.solve(spec), solve_lp(C, spec))
    with pytest.raises(ValueError, match="built for"):
        lp.solve(_lp_specs(rng, 2, 4)[3])


def test_dual_feasibility_checks():
    Z = DenseCost(np.zeros((2, 2)))
    zero = DualPotentials(np.zeros((2, 2)))
    assert check_dual_feasibility(Z, zero, 1e-9)
    bumped = DualPotentials(np.array([[1.0, 0.0], [0.0, 0.0]]))
    assert not check_dual_feasibility(Z, bumped, 1e-9)


def test_sinkhorn_zero_cost_gives_product_coupling():
    rng = np.random.default_rng(6)
    mus = random_marginals(rng, 3, 3)
    spec = MarginalSpec.fully_fixed(mus)
    sol = sinkhorn(DenseCost(np.zeros((3, 3, 3))), spec, SinkhornConfig(eta=2.0, tol=1e-10))
    product = np.multiply.outer(np.multiply.outer(mus[0], mus[1]), mus[2])
    assert np.abs(sol.coupling.to_dense() - product).max() < 1e-9
    assert abs(inner_product(sol.coupling, DenseCost(np.zeros((3, 3, 3))))) < 1e-12


def test_sinkhorn_entropy_gap_bound():
    lp = solve_lp(PERM, HALF)
    cfg = SinkhornConfig(eta=10.0, tol=1e-6)
    sol = sinkhorn(PERM, HALF, cfg)
    rounded = round_to_polytope(sol.coupling, HALF)
    assert is_coupling(rounded, HALF, 1e-9)
    gap = inner_product(rounded, PERM) - lp.value
    assert -1e-6 <= gap <= (2 * math.log(2)) / 10.0 + 2 * PERM.upper_bound() * cfg.tol


def test_sinkhorn_loose_tol_rounds_to_exact_feasibility():
    rng = np.random.default_rng(14)
    C = random_cost(rng, "dense", 3, 3)
    spec = MarginalSpec.fully_fixed(random_marginals(rng, 3, 3))
    sol = sinkhorn(C, spec, SinkhornConfig(eta=5.0, tol=1e-4))
    assert not is_coupling(sol.coupling, spec, 1e-9)  # loose tolerance leaves residue
    assert is_coupling(round_to_polytope(sol.coupling, spec), spec, 1e-9)


def test_sinkhorn_partial_free_modes():
    C = DenseCost(np.zeros((2, 2, 2)))
    mu = np.array([0.7, 0.3])
    spec = MarginalSpec.partial(2, 3, {0: mu})
    sol = sinkhorn(C, spec, SinkhornConfig(eta=5.0, tol=1e-10))
    P = sol.coupling.to_dense()
    assert np.abs(P.sum(axis=(1, 2)) - mu).max() < 1e-9
    # free modes keep the uniform conditional of the flat kernel
    assert np.abs(P - np.multiply.outer(mu, np.full((2, 2), 0.25))).max() < 1e-9


def test_sinkhorn_nonconvergence_flag():
    rng = np.random.default_rng(13)
    C = random_cost(rng, "dense", 3, 3)
    spec = MarginalSpec.fully_fixed(random_marginals(rng, 3, 3))
    sol = sinkhorn(C, spec, SinkhornConfig(eta=50.0, tol=1e-15, max_iters=1))
    assert not sol.converged
    assert sol.iterations == 1
    # best iterate is still reported with its achieved marginal error
    assert sol.marginal_error > 0


def test_sinkhorn_handles_zero_marginal_entries():
    spec = MarginalSpec.fully_fixed([np.array([1.0, 0.0]), np.array([0.5, 0.5])])
    sol = sinkhorn(PERM, spec, SinkhornConfig(eta=3.0, tol=1e-10))
    P = sol.coupling.to_dense()
    assert P[1].sum() == 0.0
    assert is_coupling(sol.coupling, spec, 1e-9)

    # zeros on two modes: the -inf steps of both stack in the carried
    # log-iterate across several cycles
    C = random_cost(np.random.default_rng(11), "dense", 3, 3)
    spec = MarginalSpec.fully_fixed(
        [np.array([0.5, 0.0, 0.5]), np.array([0.2, 0.3, 0.5]), np.array([0.6, 0.4, 0.0])]
    )
    sol = sinkhorn(C, spec, SinkhornConfig(eta=3.0, tol=1e-10))
    assert sol.converged and sol.iterations > 1
    P = sol.coupling.to_dense()
    assert np.all(P[1] == 0.0) and np.all(P[:, :, 2] == 0.0)
    assert is_coupling(sol.coupling, spec, 1e-9)


def test_suggest_eta_inverts_entropy_bound():
    assert math.isclose(suggest_eta(3, 4, 0.1), 4 * math.log(3) / 0.1)


SUB_EXAMPLE = SetFunctionCost(k=2, table=np.array([0.0, 1.0, 1.0, 1.0]))


def test_lovasz_indicator_extension_property():
    rng = np.random.default_rng(7)
    C = random_set_function(rng, 4)
    for mask in range(16):
        x = np.array([(mask >> i) & 1 for i in range(4)], dtype=float)
        assert math.isclose(lovasz_extension(C, x), C.value_of_set(mask), rel_tol=1e-12, abs_tol=1e-12)


def test_lovasz_hand_example_and_lp_match():
    assert lovasz_extension(SUB_EXAMPLE, [0.5, 0.5]) == 0.5
    lp = solve_lp(SUB_EXAMPLE, bernoulli_spec([0.5, 0.5]))
    assert math.isclose(lp.value, 0.5, abs_tol=1e-10)


def test_lovasz_modular_is_linear():
    w = np.array([0.3, -1.2, 2.0])
    masks = np.arange(8)
    table = np.zeros(8)
    for i in range(3):
        table += w[i] * ((masks >> i) & 1)
    C = SetFunctionCost(k=3, table=table)
    rng = np.random.default_rng(8)
    for _ in range(10):
        x = rng.random(3)
        assert math.isclose(lovasz_extension(C, x), float(w @ x), rel_tol=1e-12)


def test_lovasz_rejects_out_of_box():
    with pytest.raises(ValueError):
        lovasz_extension(SUB_EXAMPLE, [1.5, 0.0])


def test_chain_coupling_feasible():
    rng = np.random.default_rng(9)
    for _ in range(20):
        k = int(rng.integers(2, 7))
        x = rng.random(k)
        P = chain_coupling(k, x)
        assert is_coupling(P, bernoulli_spec(x), 1e-12)


def test_solve_submodular_examples():
    sol = solve_submodular(SUB_EXAMPLE, [0.5, 0.5])
    assert sol.value == 0.5
    zero = solve_submodular(SUB_EXAMPLE, [0.0, 0.0])
    assert zero.value == SUB_EXAMPLE.value_of_set(0)
    assert zero.coupling.entries == (((0, 0), 1.0),)


def test_solve_submodular_rejects_supermodular():
    bad = SetFunctionCost(k=2, table=np.array([0.0, 0.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        solve_submodular(bad, [0.5, 0.5])


def test_solve_submodular_matches_lp_random():
    rng = np.random.default_rng(10)
    for _ in range(20):
        k = int(rng.integers(2, 7))
        C = random_coverage_function(rng, k)
        x = rng.random(k)
        chain = solve_submodular(C, x)
        lp = solve_lp(C, bernoulli_spec(x))
        assert abs(chain.value - lp.value) <= 1e-8
        assert is_coupling(chain.coupling, bernoulli_spec(x), 1e-9)


def test_lovasz_dominates_lp_any_set_function():
    rng = np.random.default_rng(11)
    for _ in range(20):
        k = int(rng.integers(2, 6))
        C = random_set_function(rng, k)
        x = rng.random(k)
        lp = solve_lp(C, bernoulli_spec(x))
        assert lovasz_extension(C, x) >= lp.value - 1e-9


def test_lp_value_midpoint_convexity():
    rng = np.random.default_rng(12)
    C = random_cost(rng, "dense", 3, 3)
    for _ in range(10):
        a = random_marginals(rng, 3, 3)
        b = random_marginals(rng, 3, 3)
        mid = [(u + v) / 2 for u, v in zip(a, b)]
        va = solve_lp(C, MarginalSpec.fully_fixed(a)).value
        vb = solve_lp(C, MarginalSpec.fully_fixed(b)).value
        vm = solve_lp(C, MarginalSpec.fully_fixed(mid)).value
        assert vm <= (va + vb) / 2 + 1e-9
