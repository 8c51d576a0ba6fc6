"""Tuple minimization driven by a transport-value oracle.

For a cost C and weights p, the weighted objective f(j) = C_j - sum_i p[i][j_i]
extends to the product of simplices as F(mu) = -sum_i <p_i, mu_i> + MOT_C(mu),
and F is the convex envelope of f: its minimum over marginals equals the
discrete minimum, and optimal dual potentials of the transport LP give
subgradients.  The exact path, which uses only oracle answers, minimizes F
with a cutting-plane method whose master LP bounds the minimum below by L,
then reads a witness of value U off the support of the optimal coupling at the
best query ("purification"); L <= min f <= U, and once U - L is below the
spacing between distinct objective values the witness is exact.  The
approximate path works with a noisy value oracle and uses simulated annealing
over the product simplex instead.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .costs import CostOracle
from .minsolve import MinResult, as_weights, weighted_objective
from .motsolve import HighsLP, MotSolution, TransportLP
from .tensors import CouplingTensor

DEFAULT_TARGET_GAP = 1e-6
# Cutting-plane iterations before minimize_envelope_exact gives up uncertified.
_MAX_ITERS = 600

# Annealing runs of min_via_mot_approx, and the vertices snapped from each.
_RESTARTS = 3
_SAMPLES_PER_RESTART = 6


class MotOracle:
    """Transport-value oracle mu -> ``MotSolution`` on the cost C, with
    declared additive accuracy.

    ``fn`` answers a (k, n) array of marginals.  A value-only answer carries
    no coupling and no duals; the exact envelope path, which needs optimal
    dual potentials, checks for them where it uses them.  The query counter
    is shared across threads.
    """

    def __init__(self, fn, C: CostOracle, accuracy: float):
        self._fn = fn
        self.cost = C
        self.n, self.k = C.n, C.k
        self.accuracy = float(accuracy)
        self.queries = 0
        self._lock = threading.Lock()

    def query(self, mu: np.ndarray) -> MotSolution:
        """Answer at mu, a (k, n) array whose rows must lie on the simplex (unchecked)."""
        with self._lock:
            self.queries += 1
        return self._fn(mu)

    @classmethod
    def exact_lp(cls, C: CostOracle) -> "MotOracle":
        """Exact LP answers on fully fixed marginals from one warm-started
        ``TransportLP``: which optimal coupling comes out can depend on earlier queries."""
        return cls(TransportLP(C, range(C.k)).solve, C, 0.0)

    @classmethod
    def noisy_lp(cls, C: CostOracle, eps: float, seed=None) -> "MotOracle":
        """Exact LP values on fully fixed marginals, corrupted by seeded
        uniform noise of magnitude eps (finite and >= 0).

        Answers carry values only, so each comes from ``TransportLP.value``:
        from an optimal basis kept from the oracle's earlier HiGHS runs where
        one is feasible at the query, else from a run warm-started from the
        previous one; nothing is shared between oracles.
        """
        eps = _checked_eps(eps)
        lp = TransportLP(C, range(C.k))
        rng = np.random.default_rng(seed)
        lock = threading.Lock()

        def fn(mu):
            value = lp.value(mu)
            with lock:
                noise = rng.uniform(-eps, eps)
            return MotSolution(value=value + noise, coupling=None, duals=None, backend="noisy_lp")

        return cls(fn, C, eps)


def _checked_eps(eps) -> float:
    """A noise level ``eps`` as a float; it must be finite and >= 0."""
    if not (math.isfinite(eps) and eps >= 0):
        raise ValueError(f"eps must be finite and >= 0, got {eps}")
    return float(eps)


@dataclass(frozen=True)
class EnvelopePoint:
    mu: np.ndarray
    value: float
    subgradient: np.ndarray | None
    coupling: CouplingTensor | None


def envelope_value(oracle: MotOracle, p, mu) -> EnvelopePoint:
    """F(mu) = -sum_i <p_i, mu_i> + oracle value, with subgradient and coupling when available.

    ``mu`` is a (k, n) array whose rows must lie on the simplex; only its
    shape is checked here, and the LP oracles reject a non-finite entry.  The
    transport value is the maximum of linear functions <., mu> over dual
    feasible potentials, so optimal potentials minus p form a subgradient of F.
    """
    k, n, mu = oracle.k, oracle.n, np.asarray(mu, dtype=float)
    if mu.shape != (k, n):
        raise ValueError(f"envelope evaluation needs a ({k}, {n}) array of marginals, got shape {mu.shape}")
    return _envelope_value(oracle, as_weights(p, n, k), mu)


def _envelope_value(oracle: MotOracle, p: np.ndarray, mu: np.ndarray) -> EnvelopePoint:
    """``envelope_value`` on a checked (k, n) weight array and float marginals."""
    ans = oracle.query(mu)
    # Per-mode dots accumulated exactly like the per-tuple objective, so the
    # vertex identity F(point mass at j) = f(j) holds bitwise.  Each mode is
    # a (1, n) @ (n, 1) product, the dot kernel a 1-D p[i] @ mu[i] runs, and
    # one matmul call batches the modes.
    dots = (p[:, None, :] @ mu[:, :, None]).ravel()
    value = float(ans.value - dots.sum())
    sub = ans.duals - p if ans.duals is not None else None
    return EnvelopePoint(mu=mu, value=value, subgradient=sub, coupling=ans.coupling)


def lipschitz_bound(C: CostOracle) -> float:
    """Transport value is 2 c_max Lipschitz in the marginals (entrywise l1)."""
    return 2.0 * C.upper_bound()


def project_rows_to_simplex(mat: np.ndarray) -> np.ndarray:
    """Euclidean projection of each row of a 2-D array onto the probability
    simplex: subtract the row's threshold theta and clip at 0, where theta
    is (sum of the rho largest entries - 1) / rho for the last rho at which
    the rho-th largest entry still exceeds that mean.

    The means are running sums over Python floats, one row at a time: on
    the small rows of an annealing proposal that is cheaper than numpy's
    sort and cumsum, and it rounds as they do.  Raises ValueError unless
    ``mat`` is 2-D with at least one column and every row has a threshold:
    a row whose entries or their sum are not all finite has none, nor does
    one whose largest entry x has x - 1 == x in floating point, as every
    |x| >= 2^54 has."""
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[1] == 0:
        raise ValueError(f"expected a 2-D array with at least one column, got shape {mat.shape}")
    thetas = []
    for r, row in enumerate(mat.tolist()):
        total, theta = 0.0, None
        for rho, a in enumerate(sorted(row, reverse=True), 1):
            total += a
            mean = (total - 1.0) / rho
            if a > mean:
                theta = mean
        # a non-finite entry leaves the sum non-finite, whatever order sorted gave
        if theta is None or not math.isfinite(total):
            raise ValueError(f"row {r} has no simplex threshold in floating point: {row}")
        thetas.append(theta)
    return np.maximum(mat - np.array(thetas)[:, None], 0.0)


def _normalized_rows(mat: np.ndarray) -> np.ndarray:
    mat = np.maximum(mat, 0.0)
    sums = mat.sum(axis=1, keepdims=True)
    return mat / np.where(sums > 0, sums, 1.0)


@dataclass(frozen=True)
class EnvelopeMinimization:
    """The best query point mu, its value and optimal coupling, and the lower bound."""

    mu: np.ndarray
    coupling: CouplingTensor | None
    value: float
    lower_bound: float
    certified: bool
    iterations: int
    ub_history: tuple[float, ...]
    lb_history: tuple[float, ...]


class CuttingPlaneMaster:
    """The cutting-plane master LP: minimize t over mu in the product of k
    simplices in R^n subject to t >= <g_s, mu> + b_s for every cut s.

    Rows are the k simplex equalities and then one -t + <g_s, mu> <= -b_s
    row per cut; columns are t (free) and then mu flattened row-major, the
    column of mu_i[j] with a one in row i.  One ``HighsLP`` holds the simplex
    rows and ``add_cut`` appends a row to it.  A cut leaves the last optimal
    basis dual feasible, so each solve restarts from it: the bound does not
    depend on which optimal basis is found, the minimizing mu may.
    """

    def __init__(self, n: int, k: int):
        dim = n * k
        self.n, self.k = n, k
        self._lp = HighsLP(np.ones(k), "cutting-plane master LP")
        obj = np.zeros(dim + 1)
        obj[0] = 1.0
        col_lower = np.concatenate([[-np.inf], np.zeros(dim)])
        indptr = np.concatenate([[0], np.arange(dim + 1)]).astype(np.int32)
        rows = np.repeat(np.arange(k, dtype=np.int32), n)
        self._lp.add_cols(obj, col_lower, np.ones(dim), rows, indptr)

    def add_cut(self, g: np.ndarray, b: float) -> None:
        """Add the cut t >= <g, mu> + b, with g flattened like mu."""
        self._lp.add_row(np.concatenate([[-1.0], g]), -float(b))

    def solve(self) -> tuple[float, np.ndarray]:
        """The lower bound min t and a minimizing mu as a (k, n) array."""
        x, fun, _, _ = self._lp.solve()
        return float(fun), x[1:].reshape(self.k, self.n)


def minimize_envelope_exact(oracle: MotOracle, p) -> EnvelopeMinimization:
    """Cutting-plane minimization of the envelope over the product simplex.

    Each oracle answer yields the affine minorant F(mu_s) + <g_s, . - mu_s>;
    the master LP minimizes the current polyhedral lower model over the
    product simplex, giving both the next query point and a certified lower
    bound.  Terminates once best-seen value minus lower bound is within
    ``DEFAULT_TARGET_GAP``; exhausting ``_MAX_ITERS`` iterations returns the
    best iterate flagged uncertified.  The dimensions are the oracle's; an
    answer without dual potentials, which give the cut, raises ValueError.
    """
    if oracle.accuracy != 0.0:
        raise ValueError("the exact envelope path needs an exact oracle")
    n, k = oracle.n, oracle.k
    p = as_weights(p, n, k)

    master = CuttingPlaneMaster(n, k)
    mu = np.full((k, n), 1.0 / n)
    best_mu = mu
    best_coupling = None
    best_val = math.inf
    history = []
    lb_history = []
    certified = False
    it = 0
    while it < _MAX_ITERS:
        it += 1
        point = _envelope_value(oracle, p, mu)
        if point.subgradient is None:
            raise ValueError("an exact oracle must supply dual potentials")
        if point.value < best_val:
            best_val = point.value
            best_mu = mu
            best_coupling = point.coupling
        history.append(best_val)
        g = point.subgradient.ravel()
        master.add_cut(g, point.value - float(g @ mu.ravel()))
        lower, x = master.solve()
        lb_history.append(lower)
        if best_val - lower <= DEFAULT_TARGET_GAP:
            certified = True
            break
        mu = _normalized_rows(x)

    return EnvelopeMinimization(
        mu=best_mu,
        coupling=best_coupling,
        value=best_val,
        lower_bound=lower,
        certified=certified,
        iterations=it,
        ub_history=tuple(history),
        lb_history=tuple(lb_history),
    )


def purify(C: CostOracle, p, coupling: CouplingTensor) -> MinResult:
    """Best weighted-objective tuple in the support of an optimal coupling.

    The coupling's expected objective equals F at its marginals mu, so the
    support minimum is sandwiched between the discrete minimum and F(mu);
    whenever the envelope gap at mu is below the spacing of distinct
    objective values this pins the exact discrete minimum.
    """
    if coupling is None:
        raise ValueError("purification needs the optimal coupling the oracle returned")
    idx, _ = coupling.support()
    if len(idx) == 0:
        raise RuntimeError("optimal coupling has empty support (internal error)")
    vals = weighted_objective(C, p, idx)
    best = vals.min()
    witness = min(tuple(int(j) for j in row) for row in idx[vals == best])
    return MinResult(value=float(best), witness=witness)


def min_via_mot_exact(C: CostOracle, p=None) -> MinResult:
    """End-to-end exact tuple minimization through the transport oracle.

    Purifies the optimal coupling at the best query of a
    ``minimize_envelope_exact`` run.  Every optimal coupling there has
    expected objective equal to the best value, so at whichever optimal
    basis the LPs reach, ``gap`` (witness value minus master lower bound)
    gives value - gap <= min f <= value (unclamped: roundoff can make it
    slightly negative); the witness is exact when gap is below the objective
    spacing.  Each call builds its own LPs, so the result depends only on
    the input.
    """
    p = as_weights(p, C.n, C.k)
    oracle = MotOracle.exact_lp(C)
    em = minimize_envelope_exact(oracle, p)
    res = purify(C, p, em.coupling)
    return MinResult(
        value=res.value,
        witness=res.witness,
        queries=oracle.queries,
        gap=res.value - em.lower_bound,
    )


@dataclass(frozen=True)
class ApproxMinResult:
    value: float
    witness_hint: tuple[int, ...] | None
    queries: int
    best_mu: np.ndarray
    budget_exhausted: bool = False


class _BudgetSpent(Exception):
    """Raised by the first probe of ``min_via_mot_approx`` past its budget."""


def min_via_mot_approx(
    oracle: MotOracle,
    p=None,
    eps: float | None = None,
    budget: int = 400,
    seed=0,
) -> ApproxMinResult:
    """Randomized tuple-minimum estimation from a noisy transport oracle.

    Simulated annealing over the product simplex with multiplicative
    (interior-scaled) Gaussian proposals and a geometric temperature schedule
    whose floor tracks the oracle noise; after each restart the best marginals
    are snapped to a few candidate vertices (per-mode argmax plus samples) and
    re-queried, and the smallest value seen anywhere is returned.  The
    temperatures scale with the cost's certified ``upper_bound()``; their
    floor tracks ``eps`` (finite and >= 0), the oracle accuracy by default.
    Every reported value is a noisy evaluation of the envelope, so it can
    undershoot the true minimum by at most the oracle accuracy.  At most
    ``budget`` (>= 1) queries are made: the search ends at the first query it
    wants past the budget, and the result is then flagged ``budget_exhausted``.
    ``queries`` counts this call's queries, not the oracle's lifetime count.
    """
    if budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget}")
    eps_eff = oracle.accuracy if eps is None else _checked_eps(eps)
    n, k = oracle.n, oracle.k
    p = as_weights(p, n, k)
    rng = np.random.default_rng(seed)
    scale = max(oracle.cost.upper_bound(), eps_eff, 1e-9)
    used = 0
    vertex_val, vertex_witness = math.inf, None

    def probe(mu_mat: np.ndarray) -> float:
        nonlocal used
        if used >= budget:
            raise _BudgetSpent
        used += 1
        return _envelope_value(oracle, p, mu_mat).value

    def vertex(jvec) -> float:
        """Probe the point mass at ``jvec``, the witness if its value is the smallest vertex value yet."""
        nonlocal vertex_val, vertex_witness
        val = probe(np.eye(n)[list(jvec)])
        if val < vertex_val:
            vertex_val, vertex_witness = val, tuple(jvec)
        return val

    def moves(modes: tuple[int, ...], cur: list[int]):
        """Copies of ``cur`` changed on every one of ``modes``, in lexicographic
        order; each mode skips the value ``cur`` holds there when its loop
        reaches it, and ``cur`` may move between the copies yielded."""
        i, rest = modes[0], modes[1:]
        for a in range(n):
            if a != cur[i]:
                for cand in moves(rest, cur) if rest else [list(cur)]:
                    cand[i] = a
                    yield cand

    # Pattern-search polish on the vertex lattice: a sweep tries every move
    # of each group of modes, keeping each one that improves.
    def sweep(cur: list[int], cur_val: float, groups) -> tuple[float, bool]:
        improved = False
        for group in groups:
            for cand in moves(group, cur):
                val = vertex(cand)
                if val < cur_val:
                    cur[:], cur_val, improved = cand, val, True
        return cur_val, improved

    polish_probes = 3 * (k * (n - 1) + (k * (k - 1) // 2) * (n - 1) ** 2)
    reserve = _RESTARTS * (_SAMPLES_PER_RESTART + 1) + polish_probes
    iters = max(10, (budget - reserve) // _RESTARTS - 1)
    t_hi, t_lo = 0.5 * scale, max(eps_eff, 1e-3 * scale)
    r_hi, r_lo = 0.8, 0.08
    singles = [(i,) for i in range(k)]
    pairs = [(i, i2) for i in range(k) for i2 in range(i + 1, k)]

    best_val = math.inf
    best_mu = np.full((k, n), 1.0 / n)
    snapped: dict[tuple, float] = {}
    exhausted = False
    try:
        for restart in range(_RESTARTS):
            if restart == 0:
                mu = np.full((k, n), 1.0 / n)
            else:
                mu = rng.dirichlet(np.ones(n), size=k)
            cur = probe(mu)
            local_val, local_mu = cur, mu
            if cur < best_val:
                best_val, best_mu = cur, mu
            for t in range(iters):
                frac = t / max(iters - 1, 1)
                temp = t_hi * (t_lo / t_hi) ** frac
                rad = r_hi * (r_lo / r_hi) ** frac
                step = rad * (mu + 0.5 / n) * rng.standard_normal((k, n))
                prop = project_rows_to_simplex(mu + step)
                val = probe(prop)
                if val < local_val:
                    local_val, local_mu = val, prop
                if val < best_val:
                    best_val, best_mu = val, prop
                if val <= cur or rng.random() < math.exp(-(val - cur) / temp):
                    mu, cur = prop, val

            candidates = {tuple(int(j) for j in np.argmax(local_mu, axis=1))}
            for _ in range(_SAMPLES_PER_RESTART - 1):
                candidates.add(
                    tuple(int(rng.choice(n, p=row)) for row in local_mu)
                )
            for jvec in sorted(candidates):
                snapped[jvec] = min(snapped.get(jvec, math.inf), vertex(jvec))

        # From the best few snapped tuples, sweep single-mode moves until
        # stable, then two-mode moves to escape single-move local minima.
        # With an exact oracle each probe is an exact objective value, so this
        # finishes the job whenever annealing found a competitive basin.
        for start in sorted(snapped, key=snapped.get)[:3]:
            cur, cur_val = list(start), snapped[start]
            for _ in range(k + 2):
                cur_val, moved = sweep(cur, cur_val, singles)
                if not moved:
                    cur_val, moved = sweep(cur, cur_val, pairs)
                if not moved:
                    break
    except _BudgetSpent:
        exhausted = True

    return ApproxMinResult(
        value=float(min(best_val, vertex_val)),
        witness_hint=vertex_witness,
        queries=used,
        best_mu=best_mu,
        budget_exhausted=exhausted,
    )
