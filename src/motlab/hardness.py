"""Builders and empirical verifiers for the hard-cost constructions.

Each verifier re-derives what a construction is supposed to compute with an
independent brute-force oracle (definitional counting, subset enumeration,
permutation-expansion determinants, truth tables) and cross-checks the
implicit encodings and both solver routes against it.  Reports are structured
data: {"construction", "instance_digest", "checks": [...], "seed"} where each
check carries name, lhs, rhs, tol, and pass.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .corpus import random_marginals
from .costs import (
    CostOracle,
    DeterminantCost,
    IonCost,
    SetFunctionCost,
    build_clique_tensor,
    build_maxcut_cost,
    build_pairwise_from_graph,
    build_twosat_cost,
    is_submodular,
    is_supermodular,
)
from .formats import instance_digest
from .graphs import CnfFormula, KPartiteGraph, UndirectedGraph
from .minsolve import min_bruteforce, twosat_min_zero
from .motsolve import TransportLP, bernoulli_spec, solve_lp, solve_submodular
from .reduction import MotOracle, min_via_mot_approx, min_via_mot_exact
from .tensors import MarginalSpec

_BRUTE_CAP = 10**6


def _check(name: str, lhs, rhs, tol: float, passed: bool) -> dict:
    return {"name": name, "lhs": lhs, "rhs": rhs, "tol": tol, "pass": bool(passed)}


def _eq(name: str, lhs: float, rhs: float, tol: float = 0.0) -> dict:
    return _check(name, float(lhs), float(rhs), tol, abs(lhs - rhs) <= tol)


def _le(name: str, lhs: float, rhs: float, tol: float = 0.0) -> dict:
    return _check(name, float(lhs), float(rhs), tol, lhs <= rhs + tol)


def _flag(name: str, lhs: bool, rhs: bool = True) -> dict:
    return _check(name, bool(lhs), bool(rhs), 0.0, bool(lhs) == bool(rhs))


def _report(construction: str, source, checks: list[dict], seed=None) -> dict:
    return {
        "construction": construction,
        "instance_digest": instance_digest(source),
        "checks": checks,
        "seed": seed,
    }


def report_passed(report: dict) -> bool:
    return all(c["pass"] for c in report["checks"])


def _guard_brute(n: int, k: int):
    if n**k > _BRUTE_CAP:
        raise ValueError(f"n^k = {n ** k} too large for brute verification")


def verify_clique_encoding(G: KPartiteGraph, seed=None) -> dict:
    """Factored encoding of induced-edge counts: rank bound, brute agreement,
    reduction agreement, and the clique flag."""
    _guard_brute(G.n, G.k)
    cost, r = build_clique_tensor(G)

    best = max(
        G.induced_edges(j) for j in itertools.product(range(G.n), repeat=G.k)
    )
    brute = min_bruteforce(cost)
    via_mot = min_via_mot_exact(cost)
    complete = G.k * (G.k - 1) // 2
    checks = [
        _eq("rank_equals_edge_count", r, G.edge_count),
        _le("rank_le_n2k2", r, G.n**2 * G.k**2),
        _eq("neg_min_bruteforce_equals_max_induced_edges[definitional_count]", -brute.value, best),
        _eq("min_via_mot_exact_equals_min_bruteforce", via_mot.value, brute.value),
        _flag("clique_flag_matches_brute", via_mot.value == -complete, best == complete),
    ]
    return _report("clique_tensor", G, checks, seed)


def verify_pairwise_equivalence(G: KPartiteGraph, seed=None) -> dict:
    """Low-rank and pairwise encodings of the same graph agree entrywise and
    through both minimization routes."""
    _guard_brute(G.n, G.k)
    low_rank, _ = build_clique_tensor(G)
    pairwise = build_pairwise_from_graph(G)
    diff = float(np.abs(low_rank.materialize() - pairwise.materialize()).max())
    brute_lr = min_bruteforce(low_rank)
    brute_pw = min_bruteforce(pairwise)
    via_mot = min_via_mot_exact(pairwise)
    checks = [
        _eq("materialized_encodings_identical", diff, 0.0),
        _eq("min_bruteforce_agrees_across_encodings", brute_lr.value, brute_pw.value),
        _eq("min_via_mot_exact_equals_min_bruteforce", via_mot.value, brute_pw.value),
    ]
    return _report("pairwise_equivalence", G, checks, seed)


def _perm_abs_det(M: np.ndarray) -> float:
    """|det| by permutation expansion; the independent oracle for small k."""
    k = M.shape[0]
    total = 0.0
    for perm in itertools.permutations(range(k)):
        # count inversions for the permutation sign
        inv = sum(
            1 for a in range(k) for b in range(a + 1, k) if perm[a] > perm[b]
        )
        sign = -1 if inv % 2 else 1
        prod = 1.0
        for row, col in enumerate(perm):
            prod *= M[row, col]
        total += sign * prod
    return abs(total)


def verify_determinant_min(points, variant: str = "neg_abs_det", seed=0) -> dict:
    """Determinant-repulsion costs: LU evaluation vs permutation expansion,
    and the reduction route appropriate to the variant."""
    C = DeterminantCost(points=np.asarray(points, dtype=float), variant=variant)
    n, k = C.n, C.k
    _guard_brute(n, k)
    if k > 6:
        raise ValueError("permutation-expansion oracle is limited to k <= 6")

    best = math.inf
    for j in itertools.product(range(n), repeat=k):
        absdet = _perm_abs_det(C.points[list(j)])
        if variant == "neg_abs_det":
            val = -absdet
        else:
            val = min(0.0, -math.log(absdet)) if absdet > 1e-300 else 0.0
        best = min(best, val)

    brute = min_bruteforce(C)
    checks = [
        _eq("min_bruteforce_equals_permutation_expansion", brute.value, best, 1e-9),
    ]
    if variant == "neg_abs_det":
        via_mot = min_via_mot_exact(C)
        checks.append(_eq("min_via_mot_exact_equals_min_bruteforce", via_mot.value, brute.value, 1e-6))
    else:
        oracle = MotOracle.exact_lp(C)
        approx = min_via_mot_approx(oracle, eps=0.0, seed=seed)
        checks.append(_eq("min_via_mot_approx_near_min_bruteforce", approx.value, brute.value, 1e-4))
    return _report(f"determinant[{variant}]", C, checks, seed)


def verify_supermodular_dichotomy(G: UndirectedGraph, seed=0, x_trials: int = 3) -> dict:
    """Max-cut through the supermodular route vs brute force, plus the
    tractable submodular side on the cut function itself."""
    k = G.num_vertices
    if k > 16:
        raise ValueError(f"k={k} too large for subset enumeration")
    rng = np.random.default_rng(seed)

    maxcut = max(G.cut_value(mask) for mask in range(2**k))
    neg_cut = build_maxcut_cost(G)
    via_mot = min_via_mot_exact(neg_cut)
    checks = [
        _eq("maxcut_via_mot_equals_subset_enumeration", -via_mot.value, maxcut),
        _flag("negated_cut_is_supermodular", is_supermodular(neg_cut)),
    ]

    cut_fn = SetFunctionCost(k=k, table=-neg_cut.with_table().table)
    checks.append(_flag("cut_function_is_submodular", is_submodular(cut_fn)))
    for t in range(x_trials):
        x = rng.random(k)
        chain = solve_submodular(cut_fn, x)
        lp = solve_lp(cut_fn, bernoulli_spec(x))
        checks.append(
            _eq(f"chain_solver_equals_lp[x_trial={t}]", chain.value, lp.value, 1e-8)
        )
    return _report("supermodular_dichotomy", G, checks, seed)


def _pair_energy(ions: IonCost, j: int, j2: int) -> float:
    # Definitional pair potential, independent of the oracle's cached tables.
    r = float(np.linalg.norm(ions.positions[j] - ions.positions[j2]))
    if ions.variant == "coulomb":
        return 1.0 / r
    q1, q2 = int(ions.charges[j]), int(ions.charges[j2])
    if q1 * q2 > 0:
        a, b, c = ions.a_plus, ions.b_plus, ions.c_plus
    else:
        a, b, c = ions.a_minus, ions.b_minus, ions.c_minus
    return a * math.exp(-b * r) - c / r**6 + q1 * q2 / r


def verify_buckingham(ions: IonCost, seed=None) -> dict:
    """Charge-balanced subset energies vs the tuple cost and the reduction."""
    n, k = ions.n, ions.k
    _guard_brute(n, k)
    if math.comb(n, k) > _BRUTE_CAP:
        raise ValueError("too many subsets to enumerate")

    dists = [
        float(np.linalg.norm(ions.positions[a] - ions.positions[b]))
        for a in range(n)
        for b in range(a + 1, n)
    ]
    min_dist = min(dists) if dists else math.inf

    best = math.inf
    for subset in itertools.combinations(range(n), k):
        if ions.variant == "buckingham" and int(ions.charges[list(subset)].sum()) != 0:
            continue
        energy = sum(
            _pair_energy(ions, a, b) for a, b in itertools.combinations(subset, 2)
        )
        best = min(best, energy)
    if best is math.inf:
        best = ions.m_penalty

    brute = min_bruteforce(ions)
    via_mot = min_via_mot_exact(ions)
    checks = [
        _le("min_pair_distance_at_least_1", 1.0, min_dist),
        _eq("min_bruteforce_equals_balanced_subset_enumeration", brute.value, best, 1e-9),
        _eq("min_via_mot_exact_equals_min_bruteforce", via_mot.value, brute.value, 1e-6),
    ]
    return _report(f"ion_system[{ions.variant}]", ions, checks, seed)


def _gap_h(params: dict, r):
    r = np.asarray(r, dtype=float)
    hyp = np.sqrt(1.0 + r**2)
    return (
        params["A_plus"] * np.exp(-params["B_plus"] * r)
        - params["C_plus"] / r**6
        + 1.0 / r
        + params["A_minus"] * np.exp(-params["B_minus"] * hyp)
        - params["C_minus"] / hyp**6
        - 1.0 / hyp
    )


def check_gap_inequalities(
    params: dict, n_range, slack: float | None = None, grid: int = 1000, seed=None
) -> dict:
    """Evaluate the three parameter-gap inequalities over a radius grid.

    For each n, with slack s (default n^-10) and the reference constant
    K = |A_- exp(-B_-) - C_- - 1|, the inequalities are:
      (1) h(n) >= K + s;
      (2) n^2 |h(r)| <= K - s for all r >= sqrt(2n);
      (3) h(r) > s for all r >= sqrt(2n);
    where h is the two-branch pair-energy difference at radii r and
    sqrt(1 + r^2).  The r-grid spans [sqrt(2n), n^2] with one level of
    refinement around pass/fail flips; radii 1, n, and sqrt(1 + n^2) are
    reported individually (those below sqrt(2n) fall outside the claimed
    range and are informational).  Report-only: no fixed threshold is part of
    this check.
    """
    for key in ("A_plus", "A_minus", "B_plus", "B_minus", "C_plus", "C_minus"):
        if key not in params or float(params[key]) <= 0:
            raise ValueError(f"parameter {key} must be present and positive")
    params = {k: float(v) for k, v in params.items()}
    n_range = [int(n) for n in n_range]

    doc = {"params": {k: format(v, ".17g") for k, v in sorted(params.items())},
           "n_range": n_range,
           "slack": "auto" if slack is None else format(float(slack), ".17g"),
           "grid": grid}
    checks = []
    kconst = abs(params["A_minus"] * math.exp(-params["B_minus"]) - params["C_minus"] - 1.0)

    for n in n_range:
        s = float(n) ** -10 if slack is None else float(slack)
        lo, hi = math.sqrt(2.0 * n), float(n) ** 2
        checks.append(_le(f"ineq1[n={n}]: K+s <= h(n)", kconst + s, float(_gap_h(params, n))))

        radii = np.linspace(lo, max(hi, lo * (1 + 1e-9)), grid)
        h = _gap_h(params, radii)
        m2 = (kconst - s) - n**2 * np.abs(h)
        m3 = h - s
        for margins in (m2, m3):
            flips = np.flatnonzero(np.diff(margins > 0))
            extra = []
            for f in flips:
                extra.append(np.linspace(radii[f], radii[f + 1], 50))
            if extra:
                fine = np.concatenate(extra)
                hf = _gap_h(params, fine)
                if margins is m2:
                    margins_f = (kconst - s) - n**2 * np.abs(hf)
                    m2 = np.concatenate([m2, margins_f])
                else:
                    m3 = np.concatenate([m3, hf - s])
        checks.append(_le(f"ineq2[n={n}]: grid max of n^2|h(r)| <= K-s", float((n**2 * np.abs(_gap_h(params, radii))).max()), kconst - s))
        checks.append(_check(f"ineq2[n={n}]: refined min margin >= 0", float(m2.min()), 0.0, 0.0, bool(m2.min() >= 0)))
        checks.append(_check(f"ineq3[n={n}]: refined min of h(r)-s > 0", float(m3.min()), 0.0, 0.0, bool(m3.min() > 0)))

        for label, r in (("1", 1.0), ("n", float(n)), ("sqrt(1+n^2)", math.sqrt(1.0 + n**2))):
            in_range = r >= lo
            suffix = "" if in_range else " (outside_claimed_range)"
            hv = float(_gap_h(params, r))
            checks.append(
                _check(
                    f"ineq2[n={n},r={label}]{suffix}",
                    n**2 * abs(hv),
                    kconst - s,
                    0.0,
                    (n**2 * abs(hv) <= kconst - s) if in_range else True,
                )
            )
            checks.append(
                _check(
                    f"ineq3[n={n},r={label}]{suffix}",
                    hv,
                    s,
                    0.0,
                    (hv > s) if in_range else True,
                )
            )
    return _report("parameter_gap_inequalities", doc, checks, seed)


def verify_twosat_dichotomy(cnf: CnfFormula, seed=None) -> dict:
    """Polynomial unweighted solver vs brute force, and the weighted objective
    (per-mode weights (0, -1/(2k))) vs minimum-weight satisfying assignment."""
    C = build_twosat_cost(cnf)
    k = C.k
    _guard_brute(2, k)

    poly = twosat_min_zero(C)
    brute0 = min_bruteforce(C)
    checks = [
        _eq("twosat_min_zero_equals_min_bruteforce", poly.value, brute0.value),
        _eq("twosat_witness_consistent", C.evaluate(poly.witness), poly.value),
    ]

    p = np.tile(np.array([0.0, -1.0 / (2 * k)]), (k, 1))
    best = math.inf
    for assign in itertools.product((0, 1), repeat=k):
        phi = 1.0 if cnf.evaluate(assign) else 0.0
        best = min(best, -phi + sum(assign) / (2.0 * k))
    brute_p = min_bruteforce(C, p)
    via_mot = min_via_mot_exact(C, p)
    checks += [
        _eq("weighted_brute_equals_assignment_enumeration", brute_p.value, best, 1e-12),
        _eq("min_via_mot_exact_equals_weighted_brute", via_mot.value, brute_p.value, 1e-12),
    ]
    return _report("twosat_dichotomy", cnf, checks, seed)


def lipschitz_experiment(C: CostOracle, trials: int = 100, seed: int = 0) -> dict:
    """Sampled transport-value ratios |dV| / |dmu|_1 against the 2 c_max bound."""
    rng = np.random.default_rng(seed)
    bound = 2.0 * C.upper_bound()
    lp = TransportLP(C, range(C.k))
    worst = 0.0
    for _ in range(trials):
        mu = random_marginals(rng, C.n, C.k)
        nu = random_marginals(rng, C.n, C.k)
        dv = abs(
            lp.solve(MarginalSpec.fully_fixed(mu)).value
            - lp.solve(MarginalSpec.fully_fixed(nu)).value
        )
        dmu = sum(float(np.abs(a - b).sum()) for a, b in zip(mu, nu))
        if dmu > 0:
            worst = max(worst, dv / dmu)
    checks = [_le("max_sampled_ratio_le_2cmax", worst, bound, 1e-6)]
    return _report("transport_value_lipschitz", C, checks, seed)
