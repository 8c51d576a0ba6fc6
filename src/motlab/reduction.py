"""Tuple minimization driven by a transport-value oracle.

For a cost C and weights p, the weighted objective f(j) = C_j - sum_i p[i][j_i]
extends to the product of simplices as F(mu) = -sum_i <p_i, mu_i> + MOT_C(mu),
and F is the convex envelope of f: its minimum over marginals equals the
discrete minimum, and optimal dual potentials of the transport LP give
subgradients.  The exact path minimizes F with a cutting-plane method whose
upper/lower bounds certify the gap, then recovers a discrete witness from the
support of an optimal coupling ("purification": once the envelope gap is
below half the spacing between distinct objective values, the best support
tuple is an exact minimizer).  The approximate path works with a noisy value
oracle and uses simulated annealing over the product simplex instead.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .costs import CostOracle
from .minsolve import MinResult, as_weights, min_objective_gap, weighted_objective
from .motsolve import TransportLP
from .tensors import CouplingTensor, MarginalSpec

# Half-gaps at or below this are treated as numerically indistinct; exact
# purification is not claimed and results are flagged approximate.
HALF_GAP_FLOOR = 1e-9

DEFAULT_TARGET_GAP = 1e-6


@dataclass(frozen=True)
class OracleAnswer:
    value: float
    duals: np.ndarray | None = None
    coupling: CouplingTensor | None = None


class MotOracle:
    """Value oracle mu -> transport value with declared additive accuracy.

    Exact oracles (accuracy 0) must also return optimal dual potentials; the
    query counter is shared across threads.
    """

    def __init__(self, fn, n: int, k: int, accuracy: float, c_max: float,
                 provides_duals: bool, provides_coupling: bool):
        if accuracy == 0.0 and not provides_duals:
            raise ValueError("an exact oracle must supply dual potentials")
        self._fn = fn
        self.n = n
        self.k = k
        self.accuracy = float(accuracy)
        self.c_max = float(c_max)
        self.provides_duals = provides_duals
        self.provides_coupling = provides_coupling
        self.queries = 0
        self._lock = threading.Lock()

    def query(self, spec: MarginalSpec) -> OracleAnswer:
        with self._lock:
            self.queries += 1
        return self._fn(spec)

    @classmethod
    def exact_lp(cls, C: CostOracle, cap: int | None = None) -> "MotOracle":
        solve = _lp_solver(C, cap)

        def fn(spec):
            sol = solve(spec)
            return OracleAnswer(value=sol.value, duals=sol.duals.p, coupling=sol.coupling)

        return cls(fn, C.n, C.k, 0.0, C.upper_bound(), True, True)

    @classmethod
    def noisy_lp(cls, C: CostOracle, eps: float, seed=None, cap: int | None = None) -> "MotOracle":
        """Exact LP corrupted by seeded uniform noise of magnitude eps."""
        solve = _lp_solver(C, cap)
        rng = np.random.default_rng(seed)
        lock = threading.Lock()

        def fn(spec):
            sol = solve(spec)
            with lock:
                noise = rng.uniform(-eps, eps)
            return OracleAnswer(value=sol.value + noise)

        return cls(fn, C.n, C.k, eps, C.upper_bound(), False, False)


def _lp_solver(C: CostOracle, cap: int | None):
    """spec -> LP solution on C, keeping one TransportLP per set of
    constrained modes for the lifetime of the returned function."""
    models: dict[tuple[int, ...], TransportLP] = {}
    lock = threading.Lock()

    def solve(spec: MarginalSpec):
        with lock:
            lp = models.get(spec.constrained)
            if lp is None:
                lp = models[spec.constrained] = TransportLP(C, spec.constrained, cap)
        return lp.solve(spec)

    return solve


@dataclass(frozen=True)
class EnvelopePoint:
    mu: MarginalSpec
    value: float
    subgradient: np.ndarray | None


def envelope_value(oracle: MotOracle, p, mu: MarginalSpec) -> EnvelopePoint:
    """F(mu) = -sum_i <p_i, mu_i> + oracle value, with subgradient when available.

    The transport value is the maximum of linear functions <., mu> over dual
    feasible potentials, so optimal potentials minus p form a subgradient of F.
    """
    if not mu.is_fully_fixed:
        raise ValueError("envelope evaluation needs fully fixed marginals")
    p = as_weights(p, mu.n, mu.k)
    ans = oracle.query(mu)
    # Per-mode dots accumulated exactly like the per-tuple objective, so the
    # vertex identity F(point mass at j) = f(j) holds bitwise.
    dots = np.array([p[i] @ mu.marginals[i] for i in range(mu.k)])
    value = float(ans.value - dots.sum())
    sub = ans.duals - p if ans.duals is not None else None
    return EnvelopePoint(mu=mu, value=value, subgradient=sub)


def lipschitz_bound(C: CostOracle) -> float:
    """Transport value is 2 c_max Lipschitz in the marginals (entrywise l1)."""
    return 2.0 * C.upper_bound()


def project_to_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection of a vector onto the probability simplex."""
    v = np.asarray(v, dtype=float)
    a = -np.sort(-v)
    cums = (np.cumsum(a) - 1.0) / np.arange(1, len(v) + 1)
    rho = np.max(np.flatnonzero(a > cums))
    return np.maximum(v - cums[rho], 0.0)


def project_rows_to_simplex(mat: np.ndarray) -> np.ndarray:
    return np.stack([project_to_simplex(row) for row in mat])


def _normalized_rows(mat: np.ndarray) -> np.ndarray:
    mat = np.maximum(mat, 0.0)
    sums = mat.sum(axis=1, keepdims=True)
    return mat / np.where(sums > 0, sums, 1.0)


@dataclass(frozen=True)
class EnvelopeMinimization:
    mu: np.ndarray
    value: float
    lower_bound: float
    certified: bool
    iterations: int
    ub_history: tuple[float, ...]


def iteration_budget(c_max: float, p, n: int, k: int, target_gap: float) -> int:
    """Worst-case subgradient-descent budget from the Lipschitz constant and
    the product-simplex diameter sqrt(2k)."""
    p = as_weights(p, n, k)
    L = 2.0 * c_max + math.sqrt(n * k) * float(np.abs(p).max(initial=0.0))
    D = math.sqrt(2.0 * k)
    if L == 0.0:
        return 1
    return int(math.ceil((L * D / target_gap) ** 2))


def minimize_envelope_exact(
    oracle: MotOracle,
    p,
    n: int,
    k: int,
    target_gap: float = DEFAULT_TARGET_GAP,
    max_iters: int = 600,
) -> EnvelopeMinimization:
    """Cutting-plane minimization of the envelope over the product simplex.

    Each oracle answer yields the affine minorant F(mu_s) + <g_s, . - mu_s>;
    the master LP minimizes the current polyhedral lower model over the
    product simplex, giving both the next query point and a certified lower
    bound.  Terminates once best-seen value minus lower bound is within
    ``target_gap``; exhausting the iteration budget returns the best iterate
    flagged uncertified.
    """
    if target_gap <= 0:
        raise ValueError("target_gap must be positive")
    if oracle.accuracy != 0.0 or not oracle.provides_duals:
        raise ValueError("the exact envelope path needs an exact oracle with duals")
    p = as_weights(p, n, k)
    budget = min(max_iters, iteration_budget(oracle.c_max, p, n, k, target_gap))

    dim = n * k
    cut_g: list[np.ndarray] = []
    cut_b: list[float] = []
    # Master constraint blocks that do not change across iterations.
    A_eq = np.zeros((k, dim + 1))
    for i in range(k):
        A_eq[i, 1 + i * n : 1 + (i + 1) * n] = 1.0
    b_eq = np.ones(k)
    obj = np.zeros(dim + 1)
    obj[0] = 1.0
    bounds = [(None, None)] + [(0, None)] * dim

    mu = np.full((k, n), 1.0 / n)
    best_mu = mu
    best_val = math.inf
    lower = -math.inf
    history = []
    certified = False
    it = 0
    while it < budget:
        it += 1
        point = envelope_value(oracle, p, MarginalSpec.fully_fixed(list(mu)))
        if point.value < best_val:
            best_val = point.value
            best_mu = mu
        history.append(best_val)
        g = point.subgradient.ravel()
        cut_g.append(g)
        cut_b.append(point.value - float(g @ mu.ravel()))

        A_ub = np.column_stack([-np.ones(len(cut_g)), np.array(cut_g)])
        b_ub = -np.array(cut_b)
        res = linprog(
            obj, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, bounds=bounds,
            method="highs",
        )
        if res.status != 0:
            raise RuntimeError(f"cutting-plane master LP failed: {res.message}")
        lower = float(res.fun)
        if best_val - lower <= target_gap:
            certified = True
            break
        mu = _normalized_rows(res.x[1:].reshape(k, n))

    return EnvelopeMinimization(
        mu=best_mu,
        value=best_val,
        lower_bound=lower,
        certified=certified,
        iterations=it,
        ub_history=tuple(history),
    )


def purify(oracle: MotOracle, C: CostOracle, p, mu: np.ndarray) -> MinResult:
    """Best weighted-objective tuple in the support of an optimal coupling at mu.

    The coupling's expected objective equals F(mu), so the support minimum is
    sandwiched between the discrete minimum and F(mu); whenever the envelope
    gap at mu is below the spacing of distinct objective values this pins the
    exact discrete minimum.
    """
    if not oracle.provides_coupling:
        raise ValueError("purification needs an oracle that returns couplings")
    spec = MarginalSpec.fully_fixed(list(np.asarray(mu, dtype=float)))
    ans = oracle.query(spec)
    idx, _ = ans.coupling.support()
    if len(idx) == 0:
        raise RuntimeError("optimal coupling has empty support (internal error)")
    vals = weighted_objective(C, p, idx)
    best = vals.min()
    witness = min(tuple(int(j) for j in row) for row in idx[vals == best])
    return MinResult(value=float(best), witness=witness)


def min_via_mot_exact(
    C: CostOracle,
    p=None,
    cap: int | None = None,
    target_gap: float | None = None,
    max_iters: int = 600,
) -> MinResult:
    """End-to-end exact tuple minimization through the transport oracle.

    Minimizes the envelope to below half the minimum objective spacing (or
    the default gap when spacing is unresolvable in doubles, in which case
    the result is flagged approximate), then purifies a witness from the
    optimal coupling's support.
    """
    p = as_weights(p, C.n, C.k)
    approximate = False
    if target_gap is None:
        gap = min_objective_gap(C, p, cap)
        if math.isinf(gap):
            target_gap = DEFAULT_TARGET_GAP
        else:
            half = gap / 2.0
            if half > HALF_GAP_FLOOR:
                target_gap = min(DEFAULT_TARGET_GAP, half)
            else:
                target_gap = DEFAULT_TARGET_GAP
                approximate = True

    oracle = MotOracle.exact_lp(C, cap=cap)
    em = minimize_envelope_exact(oracle, p, C.n, C.k, target_gap=target_gap, max_iters=max_iters)
    res = purify(oracle, C, p, em.mu)
    return MinResult(
        value=res.value,
        witness=res.witness,
        queries=oracle.queries,
        approximate=approximate or not em.certified,
    )


@dataclass(frozen=True)
class ApproxMinResult:
    value: float
    witness_hint: tuple[int, ...] | None
    queries: int
    best_mu: np.ndarray
    budget_exhausted: bool = False


def min_via_mot_approx(
    oracle: MotOracle,
    p=None,
    eps: float | None = None,
    budget: int = 400,
    seed=0,
    restarts: int = 3,
    samples_per_restart: int = 6,
) -> ApproxMinResult:
    """Randomized tuple-minimum estimation from a noisy transport oracle.

    Simulated annealing over the product simplex with multiplicative
    (interior-scaled) Gaussian proposals and a geometric temperature schedule
    whose floor tracks the oracle noise; after each restart the best marginals
    are snapped to a few candidate vertices (per-mode argmax plus samples) and
    re-queried, and the smallest value seen anywhere is returned.  Every
    reported value is a noisy evaluation of the envelope, so it can undershoot
    the true minimum by at most the oracle accuracy.
    """
    n, k = oracle.n, oracle.k
    p = as_weights(p, n, k)
    rng = np.random.default_rng(seed)
    eps_eff = oracle.accuracy if eps is None else float(eps)
    scale = max(oracle.c_max, eps_eff, 1e-9)
    used = 0

    def score(mu_mat: np.ndarray) -> float:
        nonlocal used
        used += 1
        return envelope_value(oracle, p, MarginalSpec.fully_fixed(list(mu_mat))).value

    def vertex_mu(jvec) -> np.ndarray:
        mat = np.zeros((k, n))
        mat[np.arange(k), list(jvec)] = 1.0
        return mat

    polish_probes = 3 * (k * (n - 1) + (k * (k - 1) // 2) * (n - 1) ** 2)
    reserve = restarts * (samples_per_restart + 1) + polish_probes
    iters = max(10, (budget - reserve) // restarts - 1)
    t_hi, t_lo = 0.5 * scale, max(eps_eff, 1e-3 * scale)
    r_hi, r_lo = 0.8, 0.08

    best_val = math.inf
    best_mu = np.full((k, n), 1.0 / n)
    vertex_val = math.inf
    vertex_witness = None
    snapped: dict[tuple, float] = {}

    for restart in range(restarts):
        if restart == 0:
            mu = np.full((k, n), 1.0 / n)
        else:
            mu = rng.dirichlet(np.ones(n), size=k)
        cur = score(mu)
        local_val, local_mu = cur, mu
        if cur < best_val:
            best_val, best_mu = cur, mu
        for t in range(iters):
            frac = t / max(iters - 1, 1)
            temp = t_hi * (t_lo / t_hi) ** frac
            rad = r_hi * (r_lo / r_hi) ** frac
            step = rad * (mu + 0.5 / n) * rng.standard_normal((k, n))
            prop = project_rows_to_simplex(mu + step)
            val = score(prop)
            if val < local_val:
                local_val, local_mu = val, prop
            if val < best_val:
                best_val, best_mu = val, prop
            if val <= cur or rng.random() < math.exp(-(val - cur) / temp):
                mu, cur = prop, val

        candidates = {tuple(int(j) for j in np.argmax(local_mu, axis=1))}
        for _ in range(samples_per_restart - 1):
            candidates.add(
                tuple(int(rng.choice(n, p=row)) for row in local_mu)
            )
        for jvec in sorted(candidates):
            val = score(vertex_mu(jvec))
            if val < snapped.get(jvec, math.inf):
                snapped[jvec] = val
            if val < vertex_val:
                vertex_val, vertex_witness = val, jvec

    # Pattern-search polish on the vertex lattice from the best few snapped
    # tuples: sweep single-mode swaps until stable, then try two-mode swaps to
    # escape single-swap local minima.  With an exact oracle each probe is an
    # exact objective value, so this finishes the job whenever annealing found
    # a competitive basin.
    exhausted = False

    def _sweep(cur, cur_val, pairs: bool):
        nonlocal exhausted
        improved = False
        moves = (
            [(i, i2) for i in range(k) for i2 in range(i + 1, k)] if pairs
            else [(i, None) for i in range(k)]
        )
        for i, i2 in moves:
            for a in range(n):
                if a == cur[i]:
                    continue
                for b in range(n) if pairs else (None,):
                    if pairs and b == cur[i2]:
                        continue
                    if used >= budget:
                        exhausted = True
                        return cur, cur_val, improved
                    cand = list(cur)
                    cand[i] = a
                    if pairs:
                        cand[i2] = b
                    val = score(vertex_mu(tuple(cand)))
                    if val < cur_val:
                        cur, cur_val, improved = cand, val, True
        return cur, cur_val, improved

    for start in sorted(snapped, key=snapped.get)[:3]:
        cur, cur_val = list(start), snapped[start]
        for _ in range(k + 2):
            cur, cur_val, moved = _sweep(cur, cur_val, pairs=False)
            if moved:
                continue
            cur, cur_val, moved = _sweep(cur, cur_val, pairs=True)
            if not moved:
                break
        if cur_val < vertex_val:
            vertex_val, vertex_witness = cur_val, tuple(cur)
        if exhausted:
            break

    return ApproxMinResult(
        value=float(min(best_val, vertex_val)),
        witness_hint=vertex_witness,
        queries=oracle.queries,
        best_mu=best_mu,
        budget_exhausted=exhausted,
    )
