import math

import numpy as np
import pytest

from motlab import (
    CapExceededError,
    CouplingTensor,
    DenseCost,
    LowRankCost,
    MarginalSpec,
    MotOracle,
    MotSolution,
    PairwiseCost,
    SinkhornConfig,
    TransportLP,
    check_dual_feasibility,
    entropy,
    inner_product,
    is_coupling,
    marginal,
    min_bruteforce,
    min_via_mot_exact,
    motsolve,
    round_to_polytope,
    sinkhorn,
    solve_lp,
)
from motlab.corpus import random_dense, random_marginals
from motlab.tensors import (
    PrefixContractions,
    along,
    check_cap,
    marginal_matrix,
    others,
    scale_modes,
)


def random_sparse_coupling(rng, n, k, m):
    total = n**k
    flats = rng.choice(total, size=min(m, total), replace=False)
    idx = np.stack(np.unravel_index(flats, (n,) * k), axis=1)
    vals = rng.random(len(flats)) + 0.05
    return CouplingTensor.from_support(n, k, idx, vals)


def test_marginal_point_mass():
    P = CouplingTensor.point_mass(2, (0, 1))
    assert np.allclose(marginal(P, 1), [0.0, 1.0])
    assert np.allclose(marginal(P, 0), [1.0, 0.0])


def test_marginal_uniform_tensor():
    P = CouplingTensor.from_dense(np.full((3, 3), 1 / 9))
    for i in range(2):
        assert np.allclose(marginal(P, i), np.full(3, 1 / 3))


def test_marginal_sparse_matches_dense_materialization():
    rng = np.random.default_rng(0)
    P = random_sparse_coupling(rng, 3, 3, 5)
    dense = P.to_dense()
    for i in range(3):
        axes = tuple(ax for ax in range(3) if ax != i)
        assert np.allclose(marginal(P, i), dense.sum(axis=axes))


def test_marginal_mode_out_of_range():
    P = CouplingTensor.point_mass(2, (0, 0))
    with pytest.raises(ValueError):
        marginal(P, 2)


def test_marginal_sums_equal_total_mass():
    rng = np.random.default_rng(1)
    for _ in range(20):
        P = random_sparse_coupling(rng, 3, 3, 6)
        for i in range(3):
            assert abs(marginal(P, i).sum() - P.total_mass()) < 1e-9


def test_is_coupling_product_measure():
    mu = np.array([0.3, 0.7])
    nu = np.array([0.6, 0.4])
    P = CouplingTensor.from_dense(np.multiply.outer(mu, nu))
    assert is_coupling(P, MarginalSpec.fully_fixed([mu, nu]), 1e-9)


def test_is_coupling_rejects_negative_entry():
    # bypass the validating constructor to exercise the sign check
    P = CouplingTensor(n=2, k=2, dense=np.array([[-1e-3, 0.251], [0.5, 0.25]]))
    spec = MarginalSpec.fully_fixed([np.array([0.25, 0.75]), np.array([0.499, 0.501])])
    assert not is_coupling(P, spec, 1e-9)


def test_is_coupling_dimension_mismatch():
    P = CouplingTensor.point_mass(2, (0, 0))
    with pytest.raises(ValueError):
        is_coupling(P, MarginalSpec.fully_fixed([np.ones(3) / 3] * 2), 1e-9)


def test_entropy_point_mass_zero():
    assert entropy(CouplingTensor.point_mass(3, (1, 2))) == 0.0


def test_entropy_uniform_is_k_ln_n():
    P = CouplingTensor.from_dense(np.full((2, 2, 2), 1 / 8))
    assert math.isclose(entropy(P), 3 * math.log(2), rel_tol=1e-12)


def test_entropy_direct_summation_example():
    P = CouplingTensor.from_dense(np.array([[0.5, 0.25], [0.25, 0.0]]))
    assert math.isclose(entropy(P), 1.5 * math.log(2), rel_tol=1e-12)


def test_entropy_requires_normalization():
    with pytest.raises(ValueError):
        entropy(CouplingTensor.from_dense(np.full((2, 2), 1.0)))


def test_entropy_range_and_uniform_maximum():
    rng = np.random.default_rng(2)
    for n, k in [(2, 2), (2, 3)]:
        bound = k * math.log(n)
        for _ in range(25):
            arr = rng.random((n,) * k)
            arr /= arr.sum()
            h = entropy(CouplingTensor.from_dense(arr))
            assert -1e-12 <= h <= bound + 1e-12
            # only the uniform tensor attains the bound
            if not np.allclose(arr, 1 / n**k, atol=1e-3):
                assert h < bound - 1e-6


def test_round_fixed_point():
    mu = np.array([0.3, 0.7])
    P = CouplingTensor.from_dense(np.multiply.outer(mu, mu))
    spec = MarginalSpec.fully_fixed([mu, mu])
    out = round_to_polytope(P, spec)
    assert np.allclose(out.to_dense(), P.to_dense(), atol=1e-15)


def test_round_hand_example():
    # scale mode-0 slice 1 by 0.8, mode-1 scaling is then a no-op, and the
    # deficit correction adds 0.1 at (0, 0)
    P = CouplingTensor.from_dense(np.array([[0.5, 0.0], [0.0, 0.5]]))
    mu = np.array([0.6, 0.4])
    spec = MarginalSpec.fully_fixed([mu, mu])
    out = round_to_polytope(P, spec)
    assert np.allclose(out.to_dense(), [[0.6, 0.0], [0.0, 0.4]], atol=1e-12)
    moved = np.abs(out.to_dense() - P.to_dense()).sum()
    assert moved <= 2 * (0.2 + 0.2) + 1e-12


def test_round_requires_fully_fixed():
    P = CouplingTensor.from_dense(np.full((2, 2), 0.25))
    spec = MarginalSpec.partial(2, 2, {0: np.array([0.5, 0.5])})
    with pytest.raises(ValueError):
        round_to_polytope(P, spec)


def test_round_bound_and_feasibility_random():
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = int(rng.integers(2, 5))
        k = int(rng.integers(2, 5))
        arr = rng.random((n,) * k) ** 2
        arr /= arr.sum()
        P = CouplingTensor.from_dense(arr)
        spec = MarginalSpec.fully_fixed(random_marginals(rng, n, k))
        out = round_to_polytope(P, spec)
        assert is_coupling(out, spec, 1e-9)
        err = sum(np.abs(marginal(P, i) - spec.marginals[i]).sum() for i in range(k))
        assert np.abs(out.to_dense() - arr).sum() <= 2 * err + 1e-12


def test_round_zero_marginal_target():
    # a zero row in P with nonzero target is repaired by the additive term
    P = CouplingTensor.from_dense(np.array([[0.5, 0.5], [0.0, 0.0]]))
    spec = MarginalSpec.fully_fixed([np.array([0.5, 0.5]), np.array([0.5, 0.5])])
    out = round_to_polytope(P, spec)
    assert is_coupling(out, spec, 1e-9)


def test_inner_product_point_mass_and_zero():
    C = DenseCost(np.array([[1.0, 2.0], [3.0, 4.0]]))
    P = CouplingTensor.point_mass(2, (1, 0))
    assert inner_product(P, C) == 3.0
    Z = DenseCost(np.zeros((2, 2)))
    assert inner_product(P, Z) == 0.0


def test_inner_product_sparse_equals_dense():
    rng = np.random.default_rng(4)
    from motlab.corpus import random_pairwise

    for trial in range(10):
        n, k = 3, 3
        C = random_pairwise(rng, n, k) if trial % 2 else random_dense(rng, n, k)
        P = random_sparse_coupling(rng, n, k, 6)
        sparse_val = inner_product(P, C)
        dense_val = float((P.to_dense() * C.materialize()).sum())
        assert math.isclose(sparse_val, dense_val, rel_tol=1e-12, abs_tol=1e-12)


def test_dense_cap_enforced():
    arr = np.zeros((10,) * 8)  # 1e8 entries would exceed the default cap
    with pytest.raises(CapExceededError):
        CouplingTensor.from_dense(arr)


# Every public entry point that holds n^k entries as one array, on n^k = 8.
_N, _K = 2, 3
_SPEC = MarginalSpec.fully_fixed([np.array([0.25, 0.75])] * _K)
_PAIRWISE = PairwiseCost(
    n=_N, k=_K, tables={(i, j): np.eye(_N) for i in range(_K) for j in range(i + 1, _K)}
)
_DENSE_CAP_ENTRY_POINTS = {
    "CostOracle.materialize": lambda: LowRankCost(n=_N, k=_K, terms=((np.ones(_N),) * _K,)).materialize(),
    "DenseCost.materialize": lambda: DenseCost(np.zeros((_N,) * _K)).materialize(),
    "PairwiseCost.materialize": lambda: _PAIRWISE.materialize(),
    "CouplingTensor.from_dense": lambda: CouplingTensor.from_dense(np.zeros((_N,) * _K)),
    "CouplingTensor.to_dense": lambda: CouplingTensor.point_mass(_N, (0, 1, 1)).to_dense(),
    "round_to_polytope": lambda: round_to_polytope(CouplingTensor.point_mass(_N, (0, 1, 1)), _SPEC),
    "min_bruteforce": lambda: min_bruteforce(_PAIRWISE),
    "check_dual_feasibility": lambda: check_dual_feasibility(_PAIRWISE, np.zeros((_K, _N))),
    "TransportLP": lambda: TransportLP(_PAIRWISE, range(_K)),
    "solve_lp": lambda: solve_lp(_PAIRWISE, _SPEC),
    "sinkhorn": lambda: sinkhorn(_PAIRWISE, _SPEC, SinkhornConfig(eta=1.0)),
    "MotOracle.exact_lp": lambda: MotOracle.exact_lp(_PAIRWISE),
    "MotOracle.noisy_lp": lambda: MotOracle.noisy_lp(_PAIRWISE, eps=0.1, seed=0),
    "min_via_mot_exact": lambda: min_via_mot_exact(_PAIRWISE),
}


@pytest.mark.parametrize("entry", sorted(_DENSE_CAP_ENTRY_POINTS))
def test_dense_cap_boundary(entry, monkeypatch):
    call = _DENSE_CAP_ENTRY_POINTS[entry]
    monkeypatch.setenv("MOTLAB_DENSE_CAP", str(_N**_K))
    call()
    monkeypatch.setenv("MOTLAB_DENSE_CAP", str(_N**_K - 1))
    with pytest.raises(CapExceededError):
        call()


def test_transport_lp_checks_the_cap_before_enumerating(monkeypatch):
    def enumerated(*args, **kwargs):
        raise AssertionError("enumerated the n^k index tuples before checking the cap")

    monkeypatch.setattr(motsolve, "all_index_tuples", enumerated)
    monkeypatch.setattr(TransportLP, "_add", enumerated)
    monkeypatch.setenv("MOTLAB_DENSE_CAP", str(_N**_K - 1))
    with pytest.raises(CapExceededError):
        TransportLP(_PAIRWISE, range(_K))
    # column generation builds its pricer, which materializes, right here too
    monkeypatch.setattr(motsolve, "_CG_MIN_COLUMNS", 1)
    with pytest.raises(CapExceededError):
        TransportLP(_PAIRWISE, range(_K))
    monkeypatch.setenv("MOTLAB_DENSE_CAP", str(_N**_K))
    assert TransportLP(_PAIRWISE, range(_K))._tuples.size == 0


@pytest.mark.parametrize("value", ["abc", "1e7"])
def test_malformed_dense_cap_names_the_variable(value, monkeypatch):
    monkeypatch.setenv("MOTLAB_DENSE_CAP", value)
    with pytest.raises(ValueError, match="MOTLAB_DENSE_CAP") as err:
        check_cap(2, 2)
    assert not isinstance(err.value, CapExceededError)


def test_sparse_entries_sorted_and_distinct():
    P = CouplingTensor.from_support(2, 2, [(1, 0), (0, 1)], [0.5, 0.5])
    assert P.support()[0][0].tolist() == [0, 1]
    with pytest.raises(ValueError):
        CouplingTensor.from_support(2, 2, [(0, 0), (0, 0)], [0.5, 0.5])


@pytest.mark.parametrize(
    "index, values, message",
    [
        ([(0, 2)], [1.0], "out of range"),
        ([(0, -1)], [1.0], "out of range"),
        ([(0, 1), (1, 0)], [0.5, 0.0], "must be positive"),
        ([(1, 1), (0, 1), (1, 1)], [0.2, 0.3, 0.5], "duplicate sparse index"),
        ([(0, 1, 0)], [1.0], "shape"),
        ([(0, 1)], [0.5, 0.5], "shape"),
    ],
)
def test_from_support_rejects_bad_entries(index, values, message):
    with pytest.raises(ValueError, match=message):
        CouplingTensor.from_support(2, 2, index, values)


def test_from_support_stores_sorted_read_only_arrays():
    rng = np.random.default_rng(60)
    P = random_sparse_coupling(rng, 3, 4, 30)
    idx, vals = P.support()
    assert idx.dtype == np.int64 and idx.shape == (30, 4) and vals.shape == (30,)
    assert [tuple(r) for r in idx.tolist()] == sorted(tuple(r) for r in idx.tolist())
    assert not idx.flags.writeable and not vals.flags.writeable
    dense = P.to_dense()
    assert np.array_equal(dense[tuple(idx.T)], vals) and np.count_nonzero(dense) == P.nnz() == 30


def _lp_answer(duals):
    return MotSolution(value=0.0, coupling=CouplingTensor.point_mass(3, (0, 1)), duals=duals, backend="lp")


def test_value_types_compare_by_contents():
    pairs = [
        (CouplingTensor.point_mass(2, (0, 1)), CouplingTensor.point_mass(2, (1, 1))),
        (CouplingTensor.from_dense(np.eye(2) / 2), CouplingTensor.from_dense(np.eye(2)[::-1] / 2)),
        (MarginalSpec.point_masses(3, (0, 2)), MarginalSpec.partial(3, 2, {0: np.eye(3)[0]})),
        (_lp_answer(np.zeros((2, 3))), _lp_answer(np.ones((2, 3)))),
    ]
    for a, b in pairs:
        same = type(a)(**{name: getattr(a, name) for name in vars(a)})
        assert a == same and not a != same
        assert a != b and not a == b
    assert CouplingTensor.point_mass(2, (0, 1)) != CouplingTensor.point_mass(3, (0, 1))
    assert _lp_answer(np.zeros((2, 3))) != _lp_answer(np.zeros((3, 2)))
    assert MarginalSpec.point_masses(2, (0, 1)) != CouplingTensor.point_mass(2, (0, 1))


# (constrained, marginals) pairs on n = k = 2 that MarginalSpec must refuse
_BAD_MARGINALS = {
    "negative entry": ((0, 1), ([1.1, -0.1], [0.5, 0.5]), "negative entry"),
    "nan entry": ((0, 1), ([np.nan, 1.0], [0.5, 0.5]), "non-finite entry"),
    "sum 0.9": ((0, 1), ([0.45, 0.45], [0.5, 0.5]), "sums to"),
    "wrong length": ((0, 1), ([1.0], [0.5, 0.5]), "shape"),
    "duplicate mode": ((0, 0), ([0.5, 0.5], [0.5, 0.5]), "duplicate"),
    "unsorted modes": ((1, 0), ([0.5, 0.5], [0.5, 0.5]), "sorted"),
    "mode out of range": ((0, 2), ([0.5, 0.5], [0.5, 0.5]), "out of range"),
    "fractional mode": ((1.5,), ([0.5, 0.5],), "distinct integers"),
    "bool mode": ((True,), ([0.5, 0.5],), "distinct integers"),
}


@pytest.mark.parametrize("case", sorted(_BAD_MARGINALS))
def test_marginal_spec_rejects_malformed_marginals(case):
    constrained, marginals, message = _BAD_MARGINALS[case]
    with pytest.raises(ValueError, match=message):
        MarginalSpec(n=2, k=2, constrained=constrained, marginals=tuple(np.array(m) for m in marginals))


def test_marginal_matrix_shape():
    P = CouplingTensor.point_mass(3, (0, 2))
    M = marginal_matrix(P)
    assert M.shape == (2, 3)
    assert np.allclose(M[1], [0, 0, 1])


def scaled_mode_sum(K, scalings, i):
    """The reference for c_i: K ⊙ u_0 ⊗ ... ⊗ u_{k-1} summed over every mode
    but i, leaving u_i out, as one einsum."""
    k = K.ndim
    modes, rest = "abcdefg"[:k], others(i, k)
    spec = ",".join([modes] + [modes[m] for m in rest]) + "->" + modes[i]
    return np.einsum(spec, K, *[scalings[m] for m in rest])


def _contraction(sums, K, i):
    """``sums.contraction(i)``, checked to be a length-n array that owns its
    memory: at k = 1 and at the last mode no gemv runs, and what is left to
    return is a view of K or of a prefix."""
    got = sums.contraction(i)
    assert got.shape == K.shape[:1] and got.flags.owndata and not np.shares_memory(got, K)
    return got


@pytest.mark.parametrize("n, k", [(1, 1), (1, 4), (5, 1), (2, 10), (7, 6), (3, 3)])
def test_mode_sum_matches_axis_sum(n, k):
    # the unscaled mode sum, as round_to_polytope takes it
    rng = np.random.default_rng(n * 100 + k)
    arrays = [rng.random((n,) * k)]
    if n > 1:  # zero-padded: the last slice of every mode is empty
        arrays.append(np.pad(rng.random((n - 1,) * k), [(0, 1)] * k))
    for arr in arrays:
        sums = PrefixContractions(arr, [np.ones(n)] * k)
        for i in range(k):
            ref = arr.sum(axis=others(i, k))
            assert np.allclose(_contraction(sums, arr, i), ref, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("n, k", [(n, k) for n in (2, 3, 4) for k in range(1, 8)])
def test_scaled_mode_sum_matches_einsum_and_marginal(n, k):
    # every c_i of one PrefixContractions, asked for in descending order
    rng = np.random.default_rng(10 * n + k)
    K = rng.random((n,) * k)
    with_zeros = [rng.random(n) + 0.5 for _ in range(k)]
    for v in with_zeros:
        v[rng.integers(n)] = 0.0
    ones_on_free = [rng.random(n) + 0.5 if m % 2 else np.ones(n) for m in range(k)]
    for scalings in (with_zeros, ones_on_free):
        P = K.copy()
        for m, v in enumerate(scalings):
            P *= along(v, m, k)
        np.testing.assert_allclose(scale_modes(K, scalings), P, rtol=1e-14, atol=0)
        sums = PrefixContractions(K, scalings)
        for i in reversed(range(k)):
            got = _contraction(sums, K, i)
            np.testing.assert_allclose(got, scaled_mode_sum(K, scalings, i), rtol=1e-12, atol=0)
            np.testing.assert_allclose(
                scalings[i] * got, marginal(CouplingTensor.from_dense(P), i), rtol=1e-12, atol=0
            )


def _scalings_with_zeros(rng, n, k):
    scalings = [rng.random(n) + 0.5 for _ in range(k)]
    for v in scalings:
        v[rng.integers(n)] = 0.0
    return scalings


@pytest.mark.parametrize("n", range(1, 8))
def test_prefix_contractions_match_scaled_mode_sum(n):
    def check(sums, K, rng):
        for i in rng.permutation(K.ndim):  # the order of queries decides which prefixes exist
            np.testing.assert_allclose(
                _contraction(sums, K, i), scaled_mode_sum(K, sums.scalings, i), rtol=1e-12, atol=0
            )

    for k in range(1, 8):
        rng = np.random.default_rng(100 * n + k)
        K = rng.random((n,) * k)
        ones_on_free = [rng.random(n) + 0.5 if m % 2 else np.ones(n) for m in range(k)]
        sums = PrefixContractions(K, [np.ones(n)] * k)
        check(sums, K, rng)
        for scalings in (_scalings_with_zeros(rng, n, k), ones_on_free):
            for i in list(range(k)) + list(rng.permutation(k)):  # Sinkhorn's order, then any
                held = sums.contraction(i)
                sums.set(i, scalings[i] * rng.uniform(0.5, 2.0))
                assert sums.contraction(i) is held  # c_i does not read u_i
                check(sums, K, rng)
        K[...] = rng.random((n,) * k)  # the array changes in place, as on absorption
        sums.reset(_scalings_with_zeros(rng, n, k))
        check(sums, K, rng)
