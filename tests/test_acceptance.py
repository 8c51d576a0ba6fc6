"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single PASS line with its headline statistics (visible with
pytest -s; the test name doubles as the criterion label).  Corpora are seeded
and span every cost family.
"""

import itertools
import math
import time

import numpy as np

from motlab import (
    CouplingTensor,
    MarginalSpec,
    MotOracle,
    bernoulli_spec,
    build_maxcut_cost,
    build_twosat_cost,
    envelope_value,
    is_coupling,
    inner_product,
    lovasz_extension,
    marginal,
    min_bruteforce,
    min_via_mot_approx,
    min_via_mot_exact,
    round_to_polytope,
    sinkhorn,
    solve_lp,
    solve_submodular,
    twosat_min_zero,
    weighted_objective,
)
from motlab.costs import build_clique_tensor
from motlab.graphs import CnfFormula
from motlab.hardness import check_gap_inequalities
from motlab.motsolve import SinkhornConfig
from motlab.corpus import (
    random_cost,
    random_coverage_function,
    random_graph,
    random_kpartite,
    random_marginals,
    random_set_function,
    random_twosat,
)

INTEGER_FAMILIES = {"two_sat", "dense_integer"}


def _size_for(rng, family):
    n = int(rng.integers(2, 4))
    k = int(rng.integers(2, 4))
    if family in ("set_function", "two_sat"):
        n = 2
    if family.startswith("coulomb"):
        n = max(n, k)
    return n, k


def _exactness_corpus(rng):
    plan = [
        ("dense", 60), ("dense_integer", 60), ("low_rank", 60), ("pairwise", 60),
        ("determinant", 50), ("log_determinant", 50), ("coulomb", 50),
        ("coulomb_buckingham", 50), ("two_sat", 60),
    ]
    for family, count in plan:
        for _ in range(count):
            n, k = _size_for(rng, family)
            yield family, random_cost(rng, family, n, k)
    # set functions go up past the generic desk sizes, to k = 10
    for k in [2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 10] * 4:
        yield "set_function", random_set_function(rng, k)


def test_criterion_01_reduction_exactness():
    rng = np.random.default_rng(20240817)
    t0 = time.time()
    count = 0
    worst = 0.0
    for family, C in _exactness_corpus(rng):
        p = rng.normal(size=(C.k, C.n)) if rng.random() < 0.5 else None
        brute = min_bruteforce(C, p)
        via = min_via_mot_exact(C, p)
        err = abs(via.value - brute.value)
        if family in INTEGER_FAMILIES:
            assert err == 0.0, f"{family}: {via.value} != {brute.value}"
        else:
            assert err <= 1e-6, f"{family}: |{via.value} - {brute.value}| = {err}"
        worst = max(worst, err)
        count += 1
    elapsed = time.time() - t0
    assert count >= 500
    assert elapsed < 300
    print(f"\nACCEPTANCE 1 PASS: {count} instances, worst |err| {worst:.2e}, {elapsed:.0f}s")


def test_criterion_02_approximate_reduction():
    eps = 0.01
    runs = 30
    rng = np.random.default_rng(512)
    t0 = time.time()
    families = ["dense", "low_rank", "pairwise", "set_function", "two_sat"]
    alphas = []
    for idx in range(20):
        family = families[idx % len(families)]
        n, k = _size_for(rng, family)
        C = random_cost(rng, family, n, k)
        target = min_bruteforce(C).value
        errors = []
        for run in range(runs):
            oracle = MotOracle.noisy_lp(C, eps=eps, seed=1000 * idx + run)
            res = min_via_mot_approx(oracle, eps=eps, budget=250, seed=run)
            errors.append(abs(res.value - target))
        errors.sort()
        # error level achieved by at least 2/3 of the runs
        e23 = errors[math.ceil(2 * runs / 3) - 1]
        alpha = e23 / eps
        alphas.append(alpha)
        assert alpha <= 10 * n * k, f"instance {idx} ({family}): alpha {alpha:.2f} > {10 * n * k}"
    elapsed = time.time() - t0
    assert elapsed < 600
    print(
        f"\nACCEPTANCE 2 PASS: 20 instances x {runs} runs, measured alpha "
        f"max {max(alphas):.3f} median {sorted(alphas)[10]:.3f} (cap 10nk), {elapsed:.0f}s"
    )


def test_criterion_03_lipschitz_bound():
    rng = np.random.default_rng(77)
    families = [
        "dense", "low_rank", "pairwise", "determinant", "log_determinant",
        "set_function", "coulomb", "coulomb_buckingham", "two_sat",
    ]
    pairs_per_family = 500
    worst_margin = -math.inf
    for family in families:
        # a fresh instance every few hundred pairs, sizes up to n,k = 4
        worst = 0.0
        for block in range(5):
            n = int(rng.integers(2, 5))
            k = int(rng.integers(2, 5))
            if family in ("set_function", "two_sat"):
                n = 2
            if family.startswith("coulomb"):
                n = max(n, k)
            C = random_cost(rng, family, n, k)
            bound = 2.0 * C.upper_bound()
            for _ in range(pairs_per_family // 5):
                mu = random_marginals(rng, n, k)
                nu = random_marginals(rng, n, k)
                dv = abs(
                    solve_lp(C, MarginalSpec.fully_fixed(mu)).value
                    - solve_lp(C, MarginalSpec.fully_fixed(nu)).value
                )
                dmu = sum(float(np.abs(a - b).sum()) for a, b in zip(mu, nu))
                ratio = dv / dmu if dmu > 0 else 0.0
                assert ratio <= bound + 1e-6, f"{family}: ratio {ratio} > 2 c_max {bound}"
                worst = max(worst, ratio - bound)
        worst_margin = max(worst_margin, worst)
    print(
        f"\nACCEPTANCE 3 PASS: {pairs_per_family} pairs x {len(families)} families, "
        f"worst ratio-minus-bound {worst_margin:.3e}"
    )


def test_criterion_04_rounding_bound():
    rng = np.random.default_rng(4242)
    failures = 0
    for _ in range(1000):
        n = int(rng.integers(2, 5))
        k = int(rng.integers(2, 5))
        arr = rng.random((n,) * k) ** float(rng.integers(1, 4))
        arr /= arr.sum()
        P = CouplingTensor.from_dense(arr)
        spec = MarginalSpec.fully_fixed(random_marginals(rng, n, k))
        out = round_to_polytope(P, spec)
        err_before = sum(
            float(np.abs(marginal(P, i) - spec.marginals[i]).sum()) for i in range(k)
        )
        moved = float(np.abs(out.to_dense() - arr).sum())
        if not is_coupling(out, spec, 1e-9) or moved > 2 * err_before + 1e-12:
            failures += 1
    assert failures == 0
    print("\nACCEPTANCE 4 PASS: 1000 tensors rounded, 0 bound/feasibility failures")


def test_criterion_05_clique_tensor_encoding():
    rng = np.random.default_rng(31337)
    flags_true = 0
    for _ in range(100):
        n = int(rng.integers(2, 5))
        k = int(rng.integers(2, 5))
        G = random_kpartite(rng, n, k, p=float(rng.uniform(0.1, 0.9)))
        cost, r = build_clique_tensor(G)
        assert r == G.edge_count
        assert r <= n**2 * k**2
        best = max(
            G.induced_edges(j) for j in itertools.product(range(n), repeat=k)
        )
        res = min_bruteforce(cost)
        assert res.value == -float(best)
        clique_found = -res.value == k * (k - 1) / 2
        assert clique_found == (best == k * (k - 1) // 2)
        flags_true += clique_found
    print(f"\nACCEPTANCE 5 PASS: 100 graphs, rank/minimum/flag all exact ({flags_true} cliques)")


def test_criterion_06_submodular_dichotomy():
    rng = np.random.default_rng(606)
    for _ in range(100):
        k = int(rng.integers(2, 11))
        C = random_coverage_function(rng, k)
        x = rng.random(k)
        chain = solve_submodular(C, x, check=False)
        lp = solve_lp(C, bernoulli_spec(x))
        assert abs(chain.value - lp.value) <= 1e-8

    for _ in range(100):
        k = int(rng.integers(2, 9))
        C = random_set_function(rng, k)
        x = rng.random(k)
        assert lovasz_extension(C, x) >= solve_lp(C, bernoulli_spec(x)).value - 1e-8

    cuts = []
    for k in (4, 6, 8, 10, 12):
        G = random_graph(rng, k, 0.5)
        brute = max(G.cut_value(m) for m in range(2**k))
        res = min_via_mot_exact(build_maxcut_cost(G))
        assert -res.value == brute
        cuts.append(brute)
    print(f"\nACCEPTANCE 6 PASS: 100 submodular LP matches, 100 dominance checks, maxcuts {cuts}")


def test_criterion_07_sinkhorn_entropy_gap():
    rng = np.random.default_rng(717)
    tol = 1e-6
    count_full = 0
    for idx in range(35):
        n = int(rng.integers(2, 4))
        k = int(rng.integers(2, 4))
        family = ["dense", "pairwise", "low_rank"][idx % 3]
        C = random_cost(rng, family, n, k)
        spec = MarginalSpec.fully_fixed(random_marginals(rng, n, k))
        eta = [1.0, 10.0, 100.0][idx % 3]
        lp = solve_lp(C, spec)
        sol = sinkhorn(C, spec, SinkhornConfig(eta=eta, tol=tol, max_iters=100_000))
        assert sol.converged
        rounded = round_to_polytope(sol.coupling, spec)
        assert is_coupling(rounded, spec, 1e-9)
        gap = inner_product(rounded, C) - lp.value
        budget = k * math.log(n) / eta + 2 * C.upper_bound() * tol
        assert -1e-6 <= gap <= budget, f"gap {gap} outside [-1e-6, {budget}]"
        count_full += 1

    count_partial = 0
    for idx in range(15):
        n, k = 3, 3
        C = random_cost(rng, "dense", n, k)
        modes = sorted(rng.choice(k, size=int(rng.integers(1, k)), replace=False))
        spec = MarginalSpec.partial(
            n, k, {int(i): random_marginals(rng, n, 1)[0] for i in modes}
        )
        eta = [1.0, 10.0, 100.0][idx % 3]
        lp = solve_lp(C, spec)
        sol = sinkhorn(C, spec, SinkhornConfig(eta=eta, tol=tol, max_iters=100_000))
        assert sol.converged
        err = sum(
            float(np.abs(marginal(sol.coupling, i) - spec.marginal_for(i)).sum())
            for i in spec.constrained
        )
        assert err <= tol  # constrained modes matched, the rest left free
        lin = inner_product(sol.coupling, C)
        slack = 2 * C.upper_bound() * tol + 1e-9
        budget = k * math.log(n) / eta + slack
        assert -slack <= lin - lp.value <= budget
        count_partial += 1
    print(
        f"\nACCEPTANCE 7 PASS: {count_full} full + {count_partial} partial instances, "
        f"eta in {{1,10,100}}, all gaps inside the entropy budget"
    )


def test_criterion_08_twosat_dichotomy():
    rng = np.random.default_rng(808)
    reduced = 0
    for idx in range(50):
        k = int(rng.integers(2, 13))
        C = random_twosat(rng, k, int(rng.integers(1, 3 * k)))
        poly = twosat_min_zero(C)
        assert poly.value == min_bruteforce(C).value

        p = np.tile(np.array([0.0, -1.0 / (2 * k)]), (k, 1))
        best = min(
            -float(C.cnf.evaluate(a)) + sum(a) / (2.0 * k)
            for a in itertools.product((0, 1), repeat=k)
        )
        brute = min_bruteforce(C, p)
        assert abs(brute.value - best) <= 1e-12
        if idx % 10 == 0:
            via = min_via_mot_exact(C, p)
            assert abs(via.value - brute.value) <= 1e-12
            reduced += 1

    worked = build_twosat_cost(CnfFormula(2, ((1, 2),)))
    p = np.tile([0.0, -0.25], (2, 1))
    assert min_bruteforce(worked, p).value == -0.75
    assert min_via_mot_exact(worked, p).value == -0.75
    print(f"\nACCEPTANCE 8 PASS: 50 formulas (k<=12), {reduced} reduction cross-checks, worked value -0.75")


def test_criterion_09_duality_and_envelope_identities():
    rng = np.random.default_rng(909)
    # strong duality on random full and partial specs
    for idx in range(60):
        n = int(rng.integers(2, 4))
        k = int(rng.integers(2, 4))
        C = random_cost(rng, ["dense", "pairwise", "low_rank"][idx % 3], n, k)
        if idx % 3 == 0:
            modes = sorted(rng.choice(k, size=int(rng.integers(1, k + 1)), replace=False))
            spec = MarginalSpec.partial(
                n, k, {int(i): random_marginals(rng, n, 1)[0] for i in modes}
            )
        else:
            spec = MarginalSpec.fully_fixed(random_marginals(rng, n, k))
        sol = solve_lp(C, spec)
        assert abs(sol.value - sol.dual_value) <= 1e-6

    # envelope equals the raw objective at every vertex, full enumeration
    vertex_checks = 0
    for n, k in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        C = random_cost(rng, "dense", n, k)
        p = rng.normal(size=(k, n))
        oracle = MotOracle.exact_lp(C)
        for j in itertools.product(range(n), repeat=k):
            point = envelope_value(oracle, p, np.eye(n)[list(j)])
            f = float(weighted_objective(C, p, np.asarray([j]))[0])
            assert point.value == f
            vertex_checks += 1

    # subgradient inequality on 500 sampled pairs
    for idx in range(500):
        if idx % 50 == 0:
            n = int(rng.integers(2, 4))
            k = int(rng.integers(2, 4))
            C = random_cost(rng, "dense", n, k)
            p = rng.normal(size=(k, n))
            oracle = MotOracle.exact_lp(C)
        a = np.stack(random_marginals(rng, n, k))
        b = np.stack(random_marginals(rng, n, k))
        pa = envelope_value(oracle, p, a)
        fb = envelope_value(oracle, p, b).value
        gap = b - a
        assert fb >= pa.value + float(np.sum(pa.subgradient * gap)) - 1e-6
    print(
        f"\nACCEPTANCE 9 PASS: 60 duality certificates, {vertex_checks} exact vertex identities, "
        f"500 subgradient inequalities"
    )


def test_criterion_10_gap_inequality_checker():
    params = {
        "A_plus": 2.0, "A_minus": 1.5, "B_plus": 0.8,
        "B_minus": 1.2, "C_plus": 0.7, "C_minus": 0.9,
    }
    n_range = [8, 16, 64, 128]
    report = check_gap_inequalities(params, n_range, grid=1000)
    assert len(report["checks"]) > 0
    for c in report["checks"]:
        assert np.isfinite(c["lhs"]) and np.isfinite(c["rhs"])

    # monotone in slack: anything passing at slack s passes at s' < s
    for s_hi, s_lo in [(1e-2, 1e-4), (1e-4, 0.0)]:
        hi = check_gap_inequalities(params, n_range, grid=300, slack=s_hi)
        lo = check_gap_inequalities(params, n_range, grid=300, slack=s_lo)
        for ch, cl in zip(hi["checks"], lo["checks"]):
            if ch["pass"]:
                assert cl["pass"], f"monotonicity violated at {ch['name']}"
    n_pass = sum(c["pass"] for c in report["checks"])
    print(
        f"\nACCEPTANCE 10 PASS: {len(report['checks'])} checks evaluated over n in {n_range}, "
        f"{n_pass} hold for these parameters (report-only), slack monotonicity verified"
    )
