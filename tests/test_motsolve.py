import gc
import itertools
import logging
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from scipy.special import logsumexp

from motlab import (
    CouplingTensor,
    DenseCost,
    MarginalSpec,
    MotSolution,
    SetFunctionCost,
    SinkhornConfig,
    TransportLP,
    bernoulli_spec,
    build_maxcut_cost,
    chain_coupling,
    check_dual_feasibility,
    inner_product,
    is_coupling,
    lovasz_extension,
    motsolve,
    reduction,
    round_to_polytope,
    sinkhorn,
    solve_lp,
    solve_submodular,
    suggest_eta,
)
from motlab.costs import SET_FUNCTION_TABLE_CAP
from motlab.minsolve import objective_tensor
from motlab.tensors import PrefixContractions, along, others
from motlab.corpus import (
    random_cost,
    random_coverage_function,
    random_graph,
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
        assert check_dual_feasibility(C, sol.duals)


def test_lp_partial_marginals_duality():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n, k = 3, 3
        C = random_cost(rng, "pairwise", n, k)
        spec = MarginalSpec.partial(n, k, {0: random_marginals(rng, n, 1)[0], 2: random_marginals(rng, n, 1)[0]})
        sol = solve_lp(C, spec)
        assert abs(sol.value - sol.dual_value) <= 1e-6
        assert check_dual_feasibility(C, sol.duals)
        # unconstrained mode gets zero potentials
        assert np.array_equal(sol.duals[1], np.zeros(n))
        assert is_coupling(sol.coupling, spec, 1e-8)


def test_lp_duals_are_one_read_only_array():
    rng = np.random.default_rng(3)
    C = random_cost(rng, "pairwise", 3, 3)
    spec = MarginalSpec.partial(3, 3, {0: random_marginals(rng, 3, 1)[0], 2: random_marginals(rng, 3, 1)[0]})
    one_shot, reused = solve_lp(C, spec), TransportLP(C, spec.constrained).solve(_rows(spec))
    for sol in (one_shot, reused):
        assert sol.duals.dtype == np.float64 and sol.duals.shape == (3, 3)
        assert not sol.duals.flags.writeable and not sol.duals[1].any()
        assert sol.dual_value == float(np.array(spec.marginals).ravel() @ sol.duals[[0, 2]].ravel())
    assert one_shot == reused and not one_shot != reused
    assert one_shot == solve_lp(C, spec)
    other = solve_lp(C, MarginalSpec.fully_fixed(random_marginals(rng, 3, 3)))
    assert one_shot != other and not one_shot == other


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


def _rows(spec):
    """A spec's marginals as the (m, n) array ``TransportLP`` takes."""
    return np.array(spec.marginals)


def _same_lp_solution(a, b):
    return (
        a.value == b.value
        and a.dual_value == b.dual_value
        and np.array_equal(a.duals, b.duals)
        and a.iterations == b.iterations
        and all(np.array_equal(x, y) for x, y in zip(a.coupling.support(), b.coupling.support()))
    )


def _certifies_one_shot(C, spec, sol):
    """A reused LP's answer: the one-shot ``solve_lp`` value to roundoff,
    strong duality, feasible duals and a coupling of the spec.  Which of
    several optimal pairs it is may depend on the queries before it."""
    return (
        _close_to_cold(sol.value, solve_lp(C, spec).value)
        and abs(sol.value - sol.dual_value) <= 1e-9
        and check_dual_feasibility(C, sol.duals)
        and is_coupling(sol.coupling, spec)
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


def _count_calls(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.skipif(motsolve._core is None, reason="needs scipy's private HiGHS bindings")
def test_highs_options_are_built_once_and_copied_into_each_model(monkeypatch):
    option_builds = _count_calls(monkeypatch, motsolve._core, "HighsOptions")
    C = random_cost(np.random.default_rng(33), "dense", 3, 3)
    models = [TransportLP(C, range(3))._lp._highs for _ in range(2)]
    models.append(reduction.CuttingPlaneMaster(3, 3)._lp._highs)
    assert option_builds == []
    for highs in models:
        options = highs.getOptions()
        for key, val in motsolve._HIGHS_SETTINGS.items():
            assert getattr(options, key) == val
    # passOptions copies: a later change to the shared object leaves built models alone
    monkeypatch.setattr(motsolve._HIGHS_OPTIONS, "presolve", "off")
    assert all(highs.getOptions().presolve == "on" for highs in models)


def _infeasible_lp(solved_first=False):
    """x0 = 1 as an equality row, then x0 <= 0; ``solved_first`` runs the
    LP to its optimum once before the second row is added."""
    lp = motsolve.HighsLP(np.ones(1), "test LP")
    lp.add_cols(np.ones(2), np.zeros(2), np.ones(1), np.zeros(1, dtype=np.int32), np.array([0, 1, 1], dtype=np.int32))
    if solved_first:
        assert lp.solve()[1] == 1.0
    lp.add_row(np.array([1.0, 0.0]), 0.0)
    return lp


@pytest.mark.parametrize("private_bindings", [True, False])
def test_lp_failure_names_the_lp(monkeypatch, private_bindings):
    if not private_bindings:
        monkeypatch.setattr(motsolve, "_core", None)
    elif motsolve._core is None:
        pytest.skip("needs scipy's private HiGHS bindings")
    lp = _infeasible_lp(solved_first=True)  # the failing run starts from an optimal basis
    with pytest.raises(RuntimeError, match="test LP failed: (HiGHS model|linprog) status"):
        lp.solve()


def test_transport_lp_reuse_matches_one_shot_solves():
    rng = np.random.default_rng(32)
    C = random_cost(rng, "two_sat", 2, 4)
    lp = TransportLP(C, range(4))
    specs = _lp_specs(rng, 2, 4)[:3] * 2
    # a new model's first run is cold, so it is the one-shot answer bit for bit
    assert _same_lp_solution(lp.solve(_rows(specs[0])), solve_lp(C, specs[0]))
    for spec in specs:
        assert _certifies_one_shot(C, spec, lp.solve(_rows(spec)))
    with pytest.raises(ValueError, match="built for"):
        lp.solve(_rows(_lp_specs(rng, 2, 4)[3]))


ALL_FAMILIES = ("dense", "dense_integer", "low_rank", "pairwise", "determinant",
                "log_determinant", "coulomb", "coulomb_buckingham", "set_function", "two_sat")


def _value_corpus(rng, costs_per_family=10, queries=40):
    """Costs of all ten families at n, k <= 4, each with ``queries`` fully
    fixed specs cycling through random, point-mass, zero-entry and sparse
    Dirichlet marginals."""
    for family in ALL_FAMILIES:
        for _ in range(costs_per_family):
            n = 2 if family in ("set_function", "two_sat") else int(rng.integers(2, 5))
            k = int(rng.integers(2, 5))
            specs = []
            for q in range(queries):
                mu = np.stack(random_marginals(rng, n, k))
                if q % 4 == 1:
                    mu = np.eye(n)[rng.integers(0, n, k)]
                elif q % 4 == 2:
                    mu[np.arange(k), rng.integers(0, n, k)] = 0.0
                    mu /= mu.sum(axis=1, keepdims=True)
                elif q % 4 == 3:
                    for row in mu:
                        keep = rng.random(n) < 0.5
                        keep[rng.integers(n)] = True
                        row[:] = 0.0
                        row[keep] = rng.dirichlet(np.full(keep.sum(), 0.3))
                specs.append(MarginalSpec.fully_fixed(list(mu)))
            yield family, random_cost(rng, family, n, k), specs


def _close_to_cold(value, cold):
    return abs(value - cold) <= 1e-9 * max(1.0, abs(cold))


def test_warm_values_match_cold_solves():
    rng = np.random.default_rng(34)
    count = 0
    for family, C, specs in _value_corpus(rng):
        warm = TransportLP(C, range(C.k))
        for spec in specs:
            value, expected = warm.value(_rows(spec)), solve_lp(C, spec).value
            assert _close_to_cold(value, expected), (family, spec.marginals, value, expected)
            count += 1
    assert count == 10 * 10 * 40


@pytest.mark.parametrize("family", ALL_FAMILIES)
@pytest.mark.parametrize("size", ["full LP", "column generation"])
def test_held_column_costs_are_the_evaluated_costs_bitwise(family, size):
    # kept bases take c_B from the costs the master holds, so those must be
    # what evaluate_batch gives for the held tuples, bit for bit: on the full
    # LP they come from one materialize, under column generation from
    # evaluate_batch on the north-west-corner tuples and from the pricer's
    # gather on the priced ones
    binary = family in ("set_function", "two_sat")
    n, k = {"full LP": (2, 4) if binary else (3, 3),
            "column generation": (2, 9) if binary else (8, 3)}[size]
    assert (n**k >= motsolve._CG_MIN_COLUMNS) == (size == "column generation")
    rng = np.random.default_rng(52)
    C = random_cost(rng, family, n, k)
    lp = TransportLP(C, range(k))
    for q in range(8):
        mu = np.stack(random_marginals(rng, n, k)) if q % 2 else np.eye(n)[rng.integers(0, n, k)]
        lp.value(mu)
    assert len(lp._costs) == len(lp._tuples) > 0
    assert lp._costs.dtype == np.float64
    assert lp._costs.tobytes() == np.asarray(C.evaluate_batch(lp._tuples), dtype=float).tobytes()


def test_interleaved_values_and_solves_certify():
    rng = np.random.default_rng(35)
    for family, C, specs in _value_corpus(rng, costs_per_family=1, queries=12):
        lp = TransportLP(C, range(C.k))
        for spec in specs:
            value = lp.value(_rows(spec))
            sol = lp.solve(_rows(spec))
            assert _certifies_one_shot(C, spec, sol), family
            assert _close_to_cold(value, sol.value), family
    with pytest.raises(ValueError, match="built for"):
        lp.value(_rows(MarginalSpec.partial(C.n, C.k, {0: specs[0].marginals[0]})))
    with pytest.raises(ValueError, match="dimension mismatch"):
        lp.value(_rows(MarginalSpec.point_masses(C.n + 1, (0,) * C.k)))


@pytest.mark.parametrize("shape", [(2, 3), (3, 2), (9,), (3, 3, 1)])
def test_transport_lp_rejects_a_wrongly_shaped_point(shape):
    lp = TransportLP(random_cost(np.random.default_rng(38), "dense", 3, 3), range(3))
    with pytest.raises(ValueError, match="dimension mismatch"):
        lp.value(np.full(shape, 1.0 / 3))
    with pytest.raises(ValueError, match="dimension mismatch"):
        lp.solve(np.full(shape, 1.0 / 3))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("query", ["warm value", "warm solve", "fresh value", "fresh solve",
                                   "column generation value", "column generation solve", "envelope_value"])
def test_transport_lp_rejects_a_non_finite_entry_before_any_run(query, bad, monkeypatch):
    # a warm nan query used to return the value at the previous marginals,
    # the others a RuntimeError from HiGHS
    n, k = (4, 5) if query.startswith("column generation") else (3, 3)
    C = random_cost(np.random.default_rng(1), "dense", n, k)
    lp = TransportLP(C, range(k))
    assert (n**k >= motsolve._CG_MIN_COLUMNS) == query.startswith("column generation")
    point = np.full((k, n), 1.0 / n)
    if query.startswith("warm"):
        lp.value(point)
        lp.solve(point)
        assert lp._bases or motsolve._core is None
    point[1, 2] = bad

    def forbidden(*args, **kwargs):
        raise AssertionError("a non-finite marginal reached HiGHS")

    monkeypatch.setattr(motsolve.HighsLP, "solve", forbidden)
    with pytest.raises(ValueError, match=f"mode 1 has non-finite entry {bad} at 2"):
        if query == "envelope_value":
            reduction.envelope_value(reduction.MotOracle.exact_lp(C), None, point)
        elif query.endswith("value"):
            lp.value(point)
        else:
            lp.solve(point)


@pytest.mark.parametrize("constrained", [(0, 0), (1, 2, 1), (1.5,), (0, np.float64(1.0)), (True,), (0, True)])
def test_transport_lp_rejects_duplicate_and_non_integer_modes(constrained):
    C = random_cost(np.random.default_rng(1), "dense", 3, 3)
    with pytest.raises(ValueError, match="distinct integers"):
        TransportLP(C, constrained)


def test_value_without_private_bindings_is_the_linprog_value(monkeypatch):
    monkeypatch.setattr(motsolve, "_core", None)
    linprog_calls = _count_calls(monkeypatch, motsolve, "linprog")
    rng = np.random.default_rng(36)
    for family, C, specs in _value_corpus(rng, costs_per_family=1, queries=8):
        lp = TransportLP(C, range(C.k))
        assert lp._bases is None  # no bases kept: every value is a linprog run
        for spec in specs:
            assert lp.value(_rows(spec)) == solve_lp(C, spec).value, family
    assert len(linprog_calls) == 2 * 10 * 8


class _NotOptimalAtFirst:
    """Passes every attribute through to a HiGHS model and logs its name; the
    first ``bad`` model-status reads report kUnknown."""

    def __init__(self, highs, bad):
        self._highs, self._bad, self.calls = highs, bad, []

    def __getattr__(self, name):
        self.calls.append(name)
        if name == "getModelStatus" and self._bad > 0:
            self._bad -= 1
            return lambda: motsolve._core.HighsModelStatus.kUnknown
        return getattr(self._highs, name)


@pytest.mark.skipif(motsolve._core is None, reason="needs scipy's private HiGHS bindings")
def test_value_reruns_cold_after_a_non_optimal_warm_run():
    rng = np.random.default_rng(37)
    C = random_cost(rng, "pairwise", 3, 3)
    specs = [MarginalSpec.fully_fixed(random_marginals(rng, 3, 3)) for _ in range(2)]
    lp = TransportLP(C, range(3))
    lp.value(_rows(specs[0]))
    # with no optimal basis kept, every value query is a HiGHS run
    lp._bases.clear()
    model = lp._lp._highs = _NotOptimalAtFirst(lp._lp._highs, bad=1)
    assert lp.value(_rows(specs[1])) == solve_lp(C, specs[1]).value
    runs = [i for i, name in enumerate(model.calls) if name == "run"]
    assert len(runs) == 2 and model.calls.count("clearSolver") == 1
    assert model.calls[runs[0] + 1 : runs[1]] == ["getModelStatus", "clearSolver"]

    lp._bases.clear()
    lp._lp._highs = _NotOptimalAtFirst(model._highs, bad=2)
    with pytest.raises(RuntimeError, match="transport LP failed: HiGHS model status"):
        lp.value(_rows(specs[0]))


@pytest.mark.parametrize("private_bindings", [True, False])
def test_value_failure_names_the_lp(monkeypatch, private_bindings):
    if not private_bindings:
        monkeypatch.setattr(motsolve, "_core", None)
    elif motsolve._core is None:
        pytest.skip("needs scipy's private HiGHS bindings")
    lp = _infeasible_lp()
    calls = []
    if private_bindings:
        lp._highs = _NotOptimalAtFirst(lp._highs, bad=0)
        calls = lp._highs.calls
    with pytest.raises(RuntimeError, match="test LP failed: (HiGHS model|linprog) status"):
        lp.solve()
    assert calls.count("run") == (2 if private_bindings else 0)


def _kept_basis_streams(rng, queries=100):
    """One cost per family at n, k <= 3, plus dense 4^3 and pairwise 3^4,
    each with a stream of ``queries`` fully fixed (k, n) marginals: Dirichlet
    interiors, vertices, sparse Dirichlet draws with zero entries, and
    repeats of earlier marginals of the stream."""
    cells = [(family, 2 if family in ("set_function", "two_sat") else int(rng.integers(2, 4)),
              int(rng.integers(2, 4))) for family in ALL_FAMILIES]
    for family, n, k in cells + [("dense", 4, 3), ("pairwise", 3, 4)]:
        stream = []
        for q in range(queries):
            if q % 4 == 0:
                mu = np.stack(random_marginals(rng, n, k))
            elif q % 4 == 1:
                mu = np.eye(n)[rng.integers(0, n, k)]
            elif q % 4 == 2:
                mu = np.zeros((k, n))
                for row in mu:
                    keep = rng.random(n) < 0.5
                    keep[rng.integers(n)] = True
                    row[keep] = rng.dirichlet(np.full(keep.sum(), 0.3))
            else:
                mu = stream[rng.integers(len(stream))]
            stream.append(mu)
        yield family, random_cost(rng, family, n, k), stream


@pytest.mark.skipif(motsolve._core is None, reason="needs scipy's private HiGHS bindings")
def test_kept_bases_match_cold_solves(monkeypatch):
    rng = np.random.default_rng(40)
    corpus = [(family, C, stream, [solve_lp(C, MarginalSpec.fully_fixed(list(mu))).value for mu in stream])
              for family, C, stream in _kept_basis_streams(rng)]
    runs = _count_calls(monkeypatch, motsolve.HighsLP, "solve")
    count = 0
    for family, C, stream, cold in corpus:
        lp = TransportLP(C, range(C.k))
        for mu, want in zip(stream, cold):
            got = lp.value(mu)
            assert _close_to_cold(got, want), (family, mu, got, want)
            count += 1
        assert len(lp._bases) <= motsolve._BASIS_CACHE_SIZE
    # most answers come from a kept basis, not from a HiGHS run
    assert count == 1200 and len(runs) < count / 2


@pytest.mark.skipif(motsolve._core is None, reason="needs scipy's private HiGHS bindings")
def test_value_falls_through_to_highs_where_no_kept_basis_is_feasible(monkeypatch):
    rng = np.random.default_rng(41)
    C = random_cost(rng, "dense", 3, 3)
    lp = TransportLP(C, range(3))
    first = np.stack(random_marginals(rng, 3, 3))
    lp.value(first)
    kept = lp._bases[0]
    for _ in range(100):
        mu = np.stack(random_marginals(rng, 3, 3))
        if kept.value(mu.ravel()) is None:
            break
    assert kept.value(mu.ravel()) is None
    cold = [solve_lp(C, MarginalSpec.fully_fixed(list(point))).value for point in (mu, first)]
    runs = _count_calls(monkeypatch, motsolve.HighsLP, "solve")
    value = lp.value(mu)
    assert len(runs) == 1 and _close_to_cold(value, cold[0])
    # the new run's basis went to the front and answers mu itself
    new = lp._bases[0]
    assert lp._bases == [new, kept] and _close_to_cold(new.value(mu.ravel()), value)
    # only the older basis answers the first point: a hit, with no run, that
    # moves it back to the front
    assert new.value(first.ravel()) is None
    assert _close_to_cold(lp.value(first), cold[1])
    assert len(runs) == 1 and lp._bases == [kept, new]


@pytest.mark.skipif(motsolve._core is None, reason="needs scipy's private HiGHS bindings")
def test_column_generation_answers_value_from_kept_bases(monkeypatch):
    # a run's last pricing call certifies its basis over every tuple, so the
    # basis is kept and answers later marginals as on the full LP
    rng = np.random.default_rng(39)
    corpus = [(C, specs) for _, C, specs in _value_corpus(rng, costs_per_family=3, queries=20)]
    full = [[solve_lp(C, spec).value for spec in specs] for C, specs in corpus]
    monkeypatch.setattr(motsolve, "_CG_MIN_COLUMNS", 1)
    hits, real = [], motsolve._OptimalBasis.value

    def recorded(basis, b):
        value = real(basis, b)
        hits.append(value is not None)
        return value

    monkeypatch.setattr(motsolve._OptimalBasis, "value", recorded)
    for (C, specs), values in zip(corpus, full):
        lp = TransportLP(C, range(C.k))
        for spec, want in zip(specs, values):
            assert _close_to_cold(lp.value(_rows(spec)), want), (C.family, spec)
    assert any(hits)  # 275 of the 600 queries are answered without a run


@pytest.mark.skipif(motsolve._core is None, reason="needs scipy's private HiGHS bindings")
def test_noisy_oracle_shared_across_threads_matches_cold_solves():
    rng = np.random.default_rng(43)
    C = random_cost(rng, "pairwise", 3, 3)
    stream = [np.stack(random_marginals(rng, 3, 3)) for _ in range(60)]
    stream += [np.eye(3)[rng.integers(0, 3, 3)] for _ in range(20)]
    cold = [solve_lp(C, MarginalSpec.fully_fixed(list(mu))).value for mu in stream]
    oracle = reduction.MotOracle.noisy_lp(C, eps=0.0, seed=0)
    answers = [[None] * len(stream) for _ in range(4)]

    def worker(slot):
        order = range(len(stream)) if slot % 2 == 0 else reversed(range(len(stream)))
        for i in order:
            answers[slot][i] = oracle.query(stream[i]).value

    # four threads race to try and reorder the one LP's kept bases
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
        assert all(_close_to_cold(got, want) for got, want in zip(slot, cold))
    assert oracle.queries == 4 * len(stream)


def _certified(C, spec, sol):
    """Strong duality, feasible duals, a coupling of the spec, and a basic support."""
    m = len(spec.constrained)
    return (
        abs(sol.value - sol.dual_value) <= 1e-7
        and check_dual_feasibility(C, sol.duals)
        and is_coupling(sol.coupling, spec)
        and sol.coupling.nnz() <= m * C.n - m + 1
    )


def test_column_generation_matches_the_full_lp(monkeypatch):
    rng = np.random.default_rng(31)
    cases = [(C, spec) for family, n, k in FAMILY_SIZES
             for C in [random_cost(rng, family, n, k)] for spec in _lp_specs(rng, n, k)]
    full = [solve_lp(C, spec) for C, spec in cases]
    monkeypatch.setattr(motsolve, "_CG_MIN_COLUMNS", 1)
    for (C, spec), want in zip(cases, full):
        lp = TransportLP(C, spec.constrained)
        assert len(lp._tuples) < C.n**C.k
        sol = lp.solve(_rows(spec))
        assert _close_to_cold(sol.value, want.value), (C.family, spec)
        assert _certified(C, spec, sol), (C.family, spec)


def _priced_reference(f, width, below):
    """What a pricer must return for the objective tensor f: its minimum and
    flatnonzero(f < below) as tuples, filtered first and then cut to the
    ``width`` least by one argpartition, in lexicographic order."""
    f = f.ravel()
    new = np.flatnonzero(f < below)
    if new.size > width:
        new = np.sort(new[np.argpartition(f[new], width)[:width]])
    return float(f.min()), new


def _check_pricer(C, p, width, below=-motsolve._DUAL_TOL):
    f = objective_tensor(C, p)
    worst, tuples, costs = C.pricer()(p, width, below)
    want_min, want = _priced_reference(f, width, below)
    assert worst == want_min
    assert tuples.shape == (want.size, C.k)
    assert np.array_equal(np.ravel_multi_index(tuple(tuples.T), f.shape), want)
    # the master adds priced columns at these costs, so they are evaluate_batch's bit for bit
    assert costs.dtype == np.float64
    assert costs.tobytes() == np.asarray(C.evaluate_batch(tuples), dtype=float).tobytes()
    # the documented cut: the width least of those below, none above below
    kept = f.ravel()[want]
    rest = np.setdiff1d(np.flatnonzero(f.ravel() < below), want)
    assert (kept < below).all() and (rest.size == 0 or kept.max() <= f.ravel()[rest].min())
    return f


def test_default_pricer_matches_the_objective_tensor(monkeypatch):
    # at random potentials, and at the duals of every master run of column
    # generation on the spec corpus, the last of each run certifying
    monkeypatch.setattr(motsolve, "_CG_MIN_COLUMNS", 1)
    rng = np.random.default_rng(44)
    count = 0
    for family, n, k in FAMILY_SIZES:
        C = random_cost(rng, family, n, k)
        points = [rng.normal(size=(k, n)), np.zeros((k, n))]
        for spec in _lp_specs(rng, n, k):
            lp = TransportLP(C, spec.constrained)
            price = lp._price
            lp._price = lambda p, width, below: points.append(p) or price(p, width, below)
            lp.solve(_rows(spec))
        for p in points:
            for width in (1, n * k, n**k):
                _check_pricer(C, p, width)
        count += len(points)
    assert count >= (2 + 4) * len(FAMILY_SIZES)  # 385: each of the 4 specs runs the master at least once


def test_pricer_filters_before_it_cuts_ties():
    # integer entries tie: 22 tuples lie below zero and the cut at n k = 12
    # falls inside the 8 tied at -2; which of those it keeps depends on the
    # array argpartition runs over (here, partitioning all 64 tuples and
    # filtering afterwards keeps others)
    C = random_cost(np.random.default_rng(7), "dense_integer", 4, 3)
    f = _check_pricer(C, np.zeros((3, 4)), 12)
    below = np.sort(f[f < -motsolve._DUAL_TOL])
    assert below.size > 12 and below[11] == below[12]


def test_column_generation_stream_matches_one_shot_full_solves(monkeypatch):
    rng = np.random.default_rng(39)
    corpus = [(C, specs) for _, C, specs in _value_corpus(rng, costs_per_family=3, queries=20)]
    full = [[solve_lp(C, spec).value for spec in specs] for C, specs in corpus]
    monkeypatch.setattr(motsolve, "_CG_MIN_COLUMNS", 1)
    count = 0
    for (C, specs), values in zip(corpus, full):
        lp = TransportLP(C, range(C.k))
        for q, (spec, want) in enumerate(zip(specs, values)):
            # value and solve alternate in both orders on the one persisted master
            first, second = (lp.value, lp.solve) if q % 2 else (lp.solve, lp.value)
            for answer in (first(_rows(spec)), second(_rows(spec))):
                got = answer if isinstance(answer, float) else answer.value
                assert _close_to_cold(got, want), (C.family, spec)
                count += 1
    assert count == 1200


def test_column_generation_without_private_bindings_matches_highs(monkeypatch):
    rng = np.random.default_rng(40)
    cases = [(C, spec) for family, n, k in FAMILY_SIZES[::4]
             for C in [random_cost(rng, family, n, k)] for spec in _lp_specs(rng, n, k)]
    cases.append((random_cost(rng, "two_sat", 2, 9), MarginalSpec.fully_fixed(random_marginals(rng, 2, 9))))
    monkeypatch.setattr(motsolve, "_CG_MIN_COLUMNS", 1)
    highs = [solve_lp(C, spec) for C, spec in cases]
    monkeypatch.setattr(motsolve, "_core", None)
    linprog_calls = _count_calls(monkeypatch, motsolve, "linprog")
    for (C, spec), want in zip(cases, highs):
        sol = solve_lp(C, spec)
        assert _close_to_cold(sol.value, want.value), (C.family, spec)
        assert _certified(C, spec, sol), (C.family, spec)
    assert len(linprog_calls) >= len(cases)


@pytest.mark.skipif(motsolve._core is None, reason="needs scipy's private HiGHS bindings")
def test_column_generation_terminates_without_readding_columns(monkeypatch):
    rng = np.random.default_rng(5)
    C = random_cost(rng, "low_rank", 8, 6)
    spec = MarginalSpec.fully_fixed(random_marginals(rng, 8, 6))
    lp = TransportLP(C, range(6))
    added = []
    real_add_cols = lp._lp.add_cols

    def recorded_add_cols(c, *columns):
        added.append(len(c))
        real_add_cols(c, *columns)

    monkeypatch.setattr(lp._lp, "add_cols", recorded_add_cols)
    lp._lp._highs = model = _NotOptimalAtFirst(lp._lp._highs, bad=0)
    sol = lp.solve(_rows(spec))
    assert _certified(C, spec, sol)
    # 17 runs when pinned; each run but the last adds at most n k = 48 new columns
    assert model.calls.count("run") <= 40
    held = len(lp._tuples)
    assert sum(added) == held == len(np.unique(lp._tuples, axis=0)) == len(lp._held)
    assert held <= 7 * 6 + 1 + 48 * (model.calls.count("run") - 1)


@pytest.mark.parametrize("fake", ["held", "held and new", "none but below"])
def test_column_generation_raises_on_a_pricer_that_breaks_its_contract(fake):
    # a held column prices at or above -1e-10 (HiGHS's dual tolerance), so
    # a pricer returning one, or returning nothing while its minimum is
    # below -_DUAL_TOL, has broken the certificate
    rng = np.random.default_rng(54)
    C = random_cost(rng, "dense", 8, 3)
    lp = TransportLP(C, range(3))
    mu = np.stack(random_marginals(rng, 8, 3))
    lp.solve(mu)
    held = len(lp._tuples)
    fresh = np.stack(np.unravel_index(np.setdiff1d(np.arange(8**3), list(lp._held))[:1], (8,) * 3), axis=1)
    tuples = {"held": lp._tuples[:1], "held and new": np.concatenate([lp._tuples[:1], fresh]),
              "none but below": np.zeros((0, 3), dtype=np.int64)}[fake]
    calls = []

    def price(p, width, below):  # then certifies, so a missed check ends the query
        calls.append(p)
        return (-1.0, tuples, C.evaluate_batch(tuples)) if len(calls) == 1 else (0.0, tuples[:0], np.zeros(0))

    lp._price = price
    match = "pricing found reduced cost" if fake == "none but below" else "pricing returned a column the master holds"
    with pytest.raises(RuntimeError, match=f"transport LP failed: {match}"):
        lp.solve(mu)
    assert len(lp._tuples) == len(lp._costs) == held  # the query's corner tuples were held already


class _RecordedSides:
    """Passes every attribute through to a HiGHS model and logs its name, and
    the simplex strategy the model holds at each ``run``; the model-status
    read after each run numbered (from 0) in ``fail`` reports kUnknown."""

    def __init__(self, highs, fail=()):
        self._highs, self._fail, self.calls, self.runs = highs, fail, [], []

    def __getattr__(self, name):
        self.calls.append(name)
        if name == "run":
            self.runs.append(self._highs.getOptions().simplex_strategy)
        if name == "getModelStatus" and self.calls[-2] == "run" and len(self.runs) - 1 in self._fail:
            return lambda: motsolve._core.HighsModelStatus.kUnknown
        return getattr(self._highs, name)


def _recorded_models(monkeypatch, fail=()):
    """Every HiGHS model built from here on, each a ``_RecordedSides``."""
    models, real = [], motsolve._core._Highs

    def build():
        models.append(_RecordedSides(real(), fail))
        return models[-1]

    monkeypatch.setattr(motsolve._core, "_Highs", build)
    return models


DUAL, PRIMAL = 1, 4  # HiGHS's simplex_strategy values


@pytest.mark.skipif(motsolve._core is None, reason="needs scipy's private HiGHS bindings")
@pytest.mark.parametrize("k", [8, 9])
def test_full_lp_queries_and_cuts_run_dual_simplex(k, monkeypatch):
    # a query changes the rhs and a cut adds a row: both leave the basis dual
    # feasible; only the priced columns of the 2^9 LP leave it primal feasible
    models = _recorded_models(monkeypatch)
    C = random_cost(np.random.default_rng(55), "set_function", 2, k)
    reduction.min_via_mot_exact(C)
    master, transport = sorted(models, key=lambda model: "addRow" not in model.calls)
    assert len(models) == 2 and len(master.runs) > 2
    assert set(master.runs) == {DUAL} and "setOptionValue" not in master.calls
    if 2**k < motsolve._CG_MIN_COLUMNS:
        assert set(transport.runs) == {DUAL} and "setOptionValue" not in transport.calls
    else:
        assert PRIMAL in transport.runs


@pytest.mark.skipif(motsolve._core is None, reason="needs scipy's private HiGHS bindings")
def test_pricing_reruns_run_primal_simplex(monkeypatch):
    # a new model's first run and each new query's first run are dual, each
    # run after a pricing round's columns primal
    models = _recorded_models(monkeypatch)
    rng = np.random.default_rng(56)
    C = random_cost(rng, "pairwise", 4, 5)
    lp = TransportLP(C, range(5))
    (model,) = models
    for q in range(6):
        spec = MarginalSpec.fully_fixed(random_marginals(rng, 4, 5))
        before = len(model.runs)
        sol = lp.solve(_rows(spec))
        assert _certified(C, spec, sol)
        assert model.runs[before:] == [DUAL] + [PRIMAL] * (len(model.runs) - before - 1)
    assert model.runs.count(PRIMAL) > 6


@pytest.mark.skipif(motsolve._core is None, reason="needs scipy's private HiGHS bindings")
def test_cold_retry_after_a_primal_run_runs_dual_simplex(monkeypatch):
    models = _recorded_models(monkeypatch, fail=(1,))
    rng = np.random.default_rng(57)
    C = random_cost(rng, "dense", 8, 3)
    spec = MarginalSpec.fully_fixed(random_marginals(rng, 8, 3))
    sol = TransportLP(C, range(3)).solve(_rows(spec))
    (model,) = models
    assert _certified(C, spec, sol) and _close_to_cold(sol.value, solve_lp(C, spec).value)
    # run 1, the first primal one, reads as not optimal: cleared, rerun dual
    assert model.runs[:3] == [DUAL, PRIMAL, DUAL] and len(model.runs) > 3
    runs = [i for i, name in enumerate(model.calls) if name == "run"]
    assert model.calls[runs[1] + 1 : runs[2]] == ["getModelStatus", "clearSolver", "setOptionValue"]
    assert set(model.runs[3:]) == {PRIMAL}


def _large_lp_cases(rng):
    """The ``_lp_specs`` of one cost per family and size at n^k >= 512."""
    for family in ALL_FAMILIES:
        sizes = ((2, 9), (2, 10)) if family in ("set_function", "two_sat") else ((8, 3), (4, 5), (2, 9))
        for n, k in sizes:
            C = random_cost(rng, family, n, k)
            for spec in _lp_specs(rng, n, k):
                yield C, spec


@pytest.mark.skipif(motsolve._core is None, reason="needs scipy's private HiGHS bindings")
@pytest.mark.parametrize("corpus", ["n^k >= 512", "forced column generation"])
def test_primal_restarts_match_all_dual_runs(corpus, monkeypatch):
    if corpus == "n^k >= 512":
        cases = list(_large_lp_cases(np.random.default_rng(58)))
    else:
        rng = np.random.default_rng(59)
        cases = [(C, spec) for family, n, k in FAMILY_SIZES
                 for C in [random_cost(rng, family, n, k)] for spec in _lp_specs(rng, n, k)]
        monkeypatch.setattr(motsolve, "_CG_MIN_COLUMNS", 1)
    assert all(C.n**C.k >= motsolve._CG_MIN_COLUMNS for C, _ in cases)
    restarted = [TransportLP(C, spec.constrained).solve(_rows(spec)) for C, spec in cases]
    monkeypatch.setattr(motsolve, "_PRIMAL_SIMPLEX", motsolve._DUAL_SIMPLEX)
    dual = [TransportLP(C, spec.constrained).solve(_rows(spec)) for C, spec in cases]
    for (C, spec), a, b in zip(cases, restarted, dual):
        assert _close_to_cold(a.value, b.value), (C.family, C.n, C.k, spec)
        assert _certified(C, spec, a) and _certified(C, spec, b), (C.family, C.n, C.k, spec)
    assert sum(a.iterations for a in restarted) < sum(b.iterations for b in dual)


@pytest.mark.parametrize("at_threshold", [True, False])
def test_column_generation_threshold_boundary(at_threshold, monkeypatch):
    rng = np.random.default_rng(41)
    C = random_cost(rng, "set_function", 2, 9)
    spec = MarginalSpec.fully_fixed(random_marginals(rng, 2, 9))
    want = solve_lp(C, spec)
    assert motsolve._CG_MIN_COLUMNS == 2**9
    if not at_threshold:  # this instance is then at the threshold minus one
        monkeypatch.setattr(motsolve, "_CG_MIN_COLUMNS", 2**9 + 1)
    lp = TransportLP(C, range(9))
    assert len(lp._tuples) == (0 if at_threshold else 2**9)
    sol = lp.solve(_rows(spec))
    assert _close_to_cold(sol.value, want.value)
    assert _certified(C, spec, sol)


def test_column_generation_logs_one_record_per_query(caplog):
    rng = np.random.default_rng(42)
    C = random_cost(rng, "dense", 2, 10)
    mu = np.stack(random_marginals(rng, 2, 10))
    lp = TransportLP(C, range(10))
    with caplog.at_level(logging.DEBUG, logger="motlab"):
        lp.value(mu)
        sol = lp.solve(mu)
        TransportLP(PERM, range(2)).solve(_rows(HALF))  # below the threshold: no record
    assert [r.name for r in caplog.records] == ["motlab", "motlab"]
    rounds, held, iterations = caplog.records[1].args[1:]
    assert rounds >= 1 and held == len(lp._tuples) and iterations == sol.iterations


def test_dual_feasibility_checks():
    Z = DenseCost(np.zeros((2, 2)))
    assert check_dual_feasibility(Z, np.zeros((2, 2)))
    assert not check_dual_feasibility(Z, np.array([[1.0, 0.0], [0.0, 0.0]]))
    # the one tolerance is the certificate's: slack down to -1e-9 passes
    assert check_dual_feasibility(Z, np.array([[1e-9, 0.0], [0.0, 0.0]]))
    assert not check_dual_feasibility(Z, np.array([[2e-9, 0.0], [0.0, 0.0]]))
    for shape in [(2, 3), (3, 2), (4,), (2, 2, 1)]:
        with pytest.raises(ValueError, match="shape"):
            check_dual_feasibility(Z, np.zeros(shape))


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


SINKHORN_CORPUS = [
    (family, eta, n, k)
    for (family, eta), (n, k) in zip(
        itertools.product(("dense", "pairwise", "low_rank"), (1.0, 10.0, 100.0)),
        [(2, 2), (3, 3), (4, 4), (2, 4), (4, 2), (3, 2), (2, 3), (3, 4), (4, 3)],
    )
]


def _same_sinkhorn_solution(a, b):
    return (
        (a.iterations, a.converged) == (b.iterations, b.converged)
        and math.isclose(a.value, b.value, rel_tol=1e-12)
        and np.abs(a.coupling.to_dense() - b.coupling.to_dense()).max() <= 1e-12
    )


def test_sinkhorn_fast_path_matches_logsumexp_fallback(monkeypatch):
    rng = np.random.default_rng(41)
    cases = [
        (random_cost(rng, family, n, k), spec, SinkhornConfig(eta=eta, tol=1e-9, max_iters=300))
        for family, eta, n, k in SINKHORN_CORPUS
        for spec in _lp_specs(rng, n, k)
    ]
    lse_calls = _count_calls(monkeypatch, motsolve, "logsumexp")
    fast = [sinkhorn(C, spec, cfg) for C, spec, cfg in cases]
    assert lse_calls == []
    monkeypatch.setattr(motsolve, "_SLICE_SUM_FLOOR", np.inf)  # every mode update falls back
    reference = [sinkhorn(C, spec, cfg) for C, spec, cfg in cases]
    assert len(lse_calls) == sum(
        sol.iterations * len(spec.constrained) for sol, (_, spec, _) in zip(reference, cases)
    )
    mismatched = [i for i, (a, b) in enumerate(zip(fast, reference)) if not _same_sinkhorn_solution(a, b)]
    assert mismatched == []


def test_sinkhorn_underflowing_slice_falls_back(monkeypatch):
    C = DenseCost(np.array([[0.0, 1.0], [1.0, 1.0]]))
    cfg = SinkhornConfig(eta=1000.0, max_iters=50)
    # exp(-1000) underflows, so row 1 of the first iterate sums to 0 while its target is 0.5
    assert np.exp(-1000.0) == 0.0
    lse_calls = _count_calls(monkeypatch, motsolve, "logsumexp")
    sol = sinkhorn(C, HALF, cfg)
    assert 0 < len(lse_calls) < 2 * sol.iterations
    assert not np.isnan(sol.coupling.to_dense()).any()
    assert math.isfinite(sol.value) and sol.marginal_error < 0.02  # not stuck at the first iterate
    monkeypatch.setattr(motsolve, "_SLICE_SUM_FLOOR", np.inf)
    assert _same_sinkhorn_solution(sol, sinkhorn(C, HALF, cfg))


def _log_domain_sinkhorn(C, spec, cfg):
    """The reference loop: Sinkhorn on the log-iterate log_P, rewritten by a
    full-tensor add and exp per mode update, whose log-marginal is the log of
    a sum of P unless a live slice sum falls under 2^-968, where it is the
    max-shifted logsumexp of log_P.  Its best iterate moves as sinkhorn's
    does: to a converged iterate, or to one whose gap is lower by more than
    both gaps' ``_gap_rounding`` bounds."""
    k = C.k
    cost = C.materialize()
    log_P = -cfg.eta * cost - 1.0
    log_P -= log_P.max()

    rounding = motsolve._gap_rounding(C.n, k, len(spec.constrained))

    def marginal_gap(P):
        err = mass = 0.0
        for i, mu in zip(spec.constrained, spec.marginals):
            m = P.sum(axis=others(i, k))
            err += float(np.abs(m - mu).sum())
            mass += float(m.sum()) + 1.0
        return err, rounding * mass

    P = np.exp(log_P)
    best_P = P.copy()
    best_err, best_slack = marginal_gap(P)
    converged = best_err <= cfg.tol
    cycles = 0
    with np.errstate(divide="ignore"):
        log_mu = {i: np.log(mu) for i, mu in zip(spec.constrained, spec.marginals)}
    while not converged and cycles < cfg.max_iters:
        cycles += 1
        for i in spec.constrained:
            m = P.sum(axis=others(i, k))
            with np.errstate(divide="ignore", invalid="ignore"):
                if m[np.isfinite(log_mu[i])].min() >= 2.0**-968:
                    log_m = np.log(m)
                else:
                    log_m = logsumexp(log_P, axis=others(i, k))
                step = log_mu[i] - log_m
            log_P += along(np.where(np.isneginf(log_mu[i]), -np.inf, step), i, k)
            np.exp(log_P, out=P)
        err, slack = marginal_gap(P)
        if err <= cfg.tol or err + slack < best_err - best_slack:
            np.copyto(best_P, P)
            best_err, best_slack = err, slack
        if err <= cfg.tol:
            converged = True
    pos = best_P[best_P > 0]
    value = float((best_P * cost).sum()) + float((pos * np.log(pos)).sum()) / cfg.eta
    return MotSolution(value, CouplingTensor.from_dense(best_P), None, "sinkhorn",
                       converged, cycles, best_err)


def test_sinkhorn_matches_log_domain_loop():
    rng = np.random.default_rng(43)
    cases = [
        (random_cost(rng, family, n, k), spec, SinkhornConfig(eta=eta, tol=1e-9, max_iters=300))
        for family, eta, n, k in SINKHORN_CORPUS
        for spec in _lp_specs(rng, n, k)
    ]
    for family in ("dense", "pairwise") * 4:  # the benchmark's 7^6 instances
        C = random_cost(rng, family, 7, 6)
        spec = MarginalSpec.fully_fixed(random_marginals(rng, 7, 6))
        cases.append((C, spec, SinkhornConfig(eta=20.0 / C.upper_bound(), tol=1e-6, max_iters=2000)))
    mismatched = [
        i for i, (C, spec, cfg) in enumerate(cases)
        if not _same_sinkhorn_solution(sinkhorn(C, spec, cfg), _log_domain_sinkhorn(C, spec, cfg))
    ]
    assert len(cases) == 44 and mismatched == []


def test_sinkhorn_best_iterate_ignores_ties_at_rounding_level():
    # eta = 1000 on dense costs of range about 2.5: runs stall, and many
    # iterates' gaps agree to the last few bits, so choosing among them by a
    # strict < lets a last-bit difference between sinkhorn and the reference
    # loop pick another iterate (51 of 480 such runs)
    rng = np.random.default_rng(49)
    cases = []
    for n, k in [(3, 2), (3, 3)] * 10:
        C = random_cost(rng, "dense", n, k)
        for spec in (MarginalSpec.fully_fixed(random_marginals(rng, n, k)),
                     MarginalSpec.fully_fixed([np.full(n, 1.0 / n)] * k)):
            cases += [(C, spec, SinkhornConfig(eta=1000.0, tol=1e-9, max_iters=m)) for m in (10, 30)]
    solutions = [sinkhorn(C, spec, cfg) for C, spec, cfg in cases]
    assert sum(not sol.converged for sol in solutions) > 60
    mismatched = [
        i for i, (sol, (C, spec, cfg)) in enumerate(zip(solutions, cases))
        if not _same_sinkhorn_solution(sol, _log_domain_sinkhorn(C, spec, cfg))
    ]
    assert mismatched == []


def _sinkhorn_record(caplog):
    """(cycles, absorptions, logsumexp fallbacks, marginal error) of the last call."""
    return caplog.records[-1].args[2:]


def test_sinkhorn_absorbs_out_of_range_scalings(monkeypatch, caplog):
    rng = np.random.default_rng(5)
    C = random_cost(rng, "dense", 3, 3)
    spec = MarginalSpec.fully_fixed(random_marginals(rng, 3, 3))
    cfg = SinkhornConfig(eta=1000.0, tol=1e-9, max_iters=2000)
    # the kernel spans exp(-1000 (c_max - c_min)): the scalings outgrow [2^-320, 2^320]
    assert motsolve._SCALING_LOG2_RANGE // 3 == 320
    with caplog.at_level(logging.DEBUG, logger="motlab"):
        sol = sinkhorn(C, spec, cfg)
    cycles, absorptions, fallbacks, err = _sinkhorn_record(caplog)
    assert sol.converged and cycles == sol.iterations and absorptions > 0
    assert _same_sinkhorn_solution(sol, _log_domain_sinkhorn(C, spec, cfg))
    monkeypatch.setattr(motsolve, "_SLICE_SUM_FLOOR", np.inf)
    assert _same_sinkhorn_solution(sol, sinkhorn(C, spec, cfg))


def test_sinkhorn_reports_a_best_iterate_from_before_an_absorption(caplog):
    rng = np.random.default_rng(1)
    C = random_cost(rng, "dense", 3, 3)
    spec = MarginalSpec.fully_fixed(random_marginals(rng, 3, 3))
    cfg = SinkhornConfig(eta=1000.0, tol=1e-9, max_iters=3)
    with caplog.at_level(logging.DEBUG, logger="motlab"):
        sol = sinkhorn(C, spec, cfg)
    assert _sinkhorn_record(caplog)[1] > 0 and not sol.converged
    # no cycle improves on the first iterate, so the kernel it was built on
    # is rebuilt after the absorptions; the error reported is the coupling's
    P = sol.coupling.to_dense()
    gap = sum(float(np.abs(P.sum(axis=others(i, C.k)) - mu).sum()) for i, mu in zip(spec.constrained, spec.marginals))
    assert math.isclose(gap, sol.marginal_error, rel_tol=1e-12)
    assert _same_sinkhorn_solution(sol, _log_domain_sinkhorn(C, spec, cfg))


def test_sinkhorn_floor_scales_with_the_largest_scaling_product(caplog):
    # after an absorption, one contraction has a live entry above 2^-968 but
    # under 2^-968 times the other modes' largest scaling product, where a
    # plain contraction may have lost its precision to underflow in K
    C = DenseCost(np.array([[[-0.09, -1.49], [-0.15, -2.23]], [[-0.06, -2.24], [0.25, -2.6]]]))
    spec = MarginalSpec.fully_fixed([np.array([0.51, 0.49]), np.array([0.8, 0.2]), np.array([0.13, 0.87])])
    cfg = SinkhornConfig(eta=300.0, tol=1e-9, max_iters=1000)
    with caplog.at_level(logging.DEBUG, logger="motlab"):
        sol = sinkhorn(C, spec, cfg)
    _, absorptions, fallbacks, _ = _sinkhorn_record(caplog)
    assert sol.converged and absorptions > 0 and fallbacks > 0
    assert _same_sinkhorn_solution(sol, _log_domain_sinkhorn(C, spec, cfg))


class _KernelReads(np.ndarray):
    """A view of the kernel that records the size of every array any ufunc
    (gemv included: ``@`` is ``np.matmul``) reads from it."""

    reads: list = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        plain = []
        for x in inputs:
            if isinstance(x, _KernelReads):
                _KernelReads.reads.append(x.size)
                x = x.view(np.ndarray)
            plain.append(x)
        return getattr(ufunc, method)(*plain, **kwargs)


def _benchmark_instance(seed, family="dense"):
    rng = np.random.default_rng(seed)
    C = random_cost(rng, family, 7, 6)
    spec = MarginalSpec.fully_fixed(random_marginals(rng, 7, 6))
    return C, spec, SinkhornConfig(eta=20.0 / C.upper_bound(), tol=1e-6, max_iters=2000)


@pytest.mark.parametrize("family", ["dense", "pairwise"])
def test_sinkhorn_cycle_reads_the_kernel_about_twice(family, monkeypatch, caplog):
    C, spec, cfg = _benchmark_instance(47, family)
    monkeypatch.setattr(_KernelReads, "reads", [])
    monkeypatch.setattr(
        motsolve, "PrefixContractions", lambda K, u: PrefixContractions(K.view(_KernelReads), u)
    )
    with caplog.at_level(logging.DEBUG, logger="motlab"):
        sol = sinkhorn(C, spec, cfg)
    assert sol.converged and _sinkhorn_record(caplog)[1:3] == (0, 0)  # no absorption or fallback
    reads = _KernelReads.reads
    assert set(reads) == {7**6}
    # the first gap reads K for T_1 and c_0, then each cycle does both once
    # more (contracting K afresh for each mode reads it 2k - 2 = 10 times)
    assert len(reads) <= 2 * sol.iterations + 2 <= 3 * sol.iterations


def test_sinkhorn_and_rounding_leave_no_tensor_allocated():
    C, spec, cfg = _benchmark_instance(48)
    round_to_polytope(sinkhorn(C, spec, cfg).coupling, spec)  # first-call caches
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(10):
            round_to_polytope(sinkhorn(C, spec, cfg).coupling, spec)
        left = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        gc.enable()
    assert left < 8 * 7**6  # what reference cycles would keep until a collection


def test_sinkhorn_logs_one_record_per_call(caplog):
    rng = np.random.default_rng(45)
    C = random_cost(rng, "dense", 3, 3)
    spec = MarginalSpec.fully_fixed(random_marginals(rng, 3, 3))
    underflowing = DenseCost(np.array([[0.0, 1.0], [1.0, 1.0]]))
    with caplog.at_level(logging.DEBUG, logger="motlab"):
        sol = sinkhorn(C, spec, SinkhornConfig(eta=5.0, tol=1e-10))
        assert [r.name for r in caplog.records] == ["motlab"]
        assert _sinkhorn_record(caplog) == (sol.iterations, 0, 0, sol.marginal_error)
        sol = sinkhorn(underflowing, HALF, SinkhornConfig(eta=1000.0, max_iters=50))
    assert len(caplog.records) == 2
    cycles, absorptions, fallbacks, err = _sinkhorn_record(caplog)
    assert (cycles, err) == (sol.iterations, sol.marginal_error)
    assert absorptions > 0 and fallbacks > 0


@pytest.mark.parametrize("cost", [np.zeros((2, 2)), np.full((2, 2), -10.0)])
def test_sinkhorn_requires_a_constrained_mode(cost):
    spec = MarginalSpec.partial(2, 2, {})
    for solve in (solve_lp, lambda C, spec: sinkhorn(C, spec, SinkhornConfig(eta=100.0))):
        with pytest.raises(ValueError, match="at least one constrained mode is required"):
            solve(DenseCost(cost), spec)


@pytest.mark.parametrize(
    "settings",
    [
        {"eta": math.nan},
        {"eta": math.inf},
        {"eta": 0.0},
        {"eta": 1.0, "tol": math.nan},
        {"eta": 1.0, "tol": math.inf},
        {"eta": 1.0, "tol": 0.0},
        {"eta": 1.0, "max_iters": 0},
        {"eta": 1.0, "max_iters": -5},
    ],
)
def test_sinkhorn_config_rejects_bad_settings(settings):
    with pytest.raises(ValueError):
        SinkhornConfig(**settings)


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
    idx, vals = zero.coupling.support()
    assert idx.tolist() == [[0, 0]] and vals.tolist() == [1.0]


def test_solve_submodular_rejects_supermodular():
    bad = SetFunctionCost(k=2, table=np.array([0.0, 0.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        solve_submodular(bad, [0.5, 0.5])


@pytest.mark.parametrize("k", [16, 17])
def test_solve_submodular_check_holds_on_both_sides_of_the_table_cap(k):
    cut = build_maxcut_cost(random_graph(np.random.default_rng(43), k))
    x = np.full(k, 0.5)
    if k <= SET_FUNCTION_TABLE_CAP:  # enumerated, and the negated cut function is not submodular
        with pytest.raises(ValueError, match="not submodular"):
            solve_submodular(cut, x)
    else:
        with pytest.raises(ValueError, match="check=False"):
            solve_submodular(cut, x)


def test_implicit_set_function_past_the_table_cap():
    rng = np.random.default_rng(44)
    G = random_graph(rng, 20)
    cut = build_maxcut_cost(G)
    assert cut.table is None
    masks = rng.integers(0, 2**20, 50)
    J = (masks[:, None] >> np.arange(20)) & 1
    assert np.array_equal(cut.evaluate_batch(J), [-G.cut_value(int(m)) for m in masks])
    assert cut.upper_bound() == G.edge_count
    with pytest.raises(ValueError, match="table cap"):
        cut.with_table()
    x = rng.random(20)
    sol = solve_submodular(cut, x, check=False)
    assert sol.backend == "lovasz"
    assert is_coupling(sol.coupling, bernoulli_spec(x))
    assert inner_product(sol.coupling, cut) == sol.value


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
