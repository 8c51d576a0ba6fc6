"""Transport-value backends: exact LP with dual potentials, multimarginal
Sinkhorn scaling for the entropically regularized problem, and the
polynomial chain-coupling solver for submodular set-function costs.

All backends accept partially fixed marginal specs: only the constrained
modes are matched, the rest of the coupling is free.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog
from scipy.special import logsumexp

from .costs import CostOracle, SetFunctionCost, is_submodular
from .minsolve import objective_tensor
from .tensors import (
    CouplingTensor,
    DualPotentials,
    MarginalSpec,
    all_index_tuples,
    along,
    check_cap,
    mode_sum,
    others,
)

# LP entries below this are treated as outside the basic support.
_SUPPORT_EPS = 1e-12

# Sinkhorn sums a slice of exp(log_P) directly only while the sum is at least
# this.  Each exp landing below the smallest normal double, 2^-1022, is off by
# at most 2^-1074, and a slice holds fewer than 2^53 entries, so underflow
# costs the sum less than 2^-1021: under half an ulp of any sum >= 2^-968.
_SLICE_SUM_FLOOR = 2.0**-968

_LP_OPTIONS = {
    "presolve": True,
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
}

# What linprog(method="highs") hands HiGHS with its default arguments:
# presolve on, dual simplex strategy, HiGHS's own tolerances; logging off.
_LINPROG_SETTINGS = {
    "presolve": "on",
    "simplex_strategy": 1,  # dual simplex
    "output_flag": False,
    "log_to_console": False,
}

# The transport LP as method="highs-ds" sets it up from _LP_OPTIONS.
_TRANSPORT_SETTINGS = {
    **_LINPROG_SETTINGS,
    "solver": "simplex",
    "primal_feasibility_tolerance": _LP_OPTIONS["primal_feasibility_tolerance"],
    "dual_feasibility_tolerance": _LP_OPTIONS["dual_feasibility_tolerance"],
}

# linprog's feasibility check of a reported optimum: sqrt(default tol) * 10.
_RESULT_TOL = math.sqrt(1e-9) * 10

try:  # private scipy bindings; every HiGHS model falls back to linprog without them
    from scipy.optimize._highspy import _core

    _core._Highs.clearSolver  # probe: the model-reuse call the models depend on
except (ImportError, AttributeError):
    _core = None


def _highs_options(settings: dict):
    options = _core.HighsOptions()
    for key, val in settings.items():
        setattr(options, key, val)
    return options


# Built once and shared: passOptions copies them into each model.
HIGHS_OPTIONS = None if _core is None else _highs_options(_LINPROG_SETTINGS)
_TRANSPORT_OPTIONS = None if _core is None else _highs_options(_TRANSPORT_SETTINGS)


def highs_model(c, A, col_lower, col_upper, row_lower, row_upper, options, what: str):
    """A HiGHS model of min c.x subject to row_lower <= A x <= row_upper and
    col_lower <= x <= col_upper, with the prebuilt ``options`` passed; ``A`` is
    a CSC matrix with int32 indices and ``what`` names the LP in error messages."""
    lp = _core.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = len(c)
    lp.num_row_ = lp.a_matrix_.num_row_ = len(row_lower)
    lp.a_matrix_.format_ = _core.MatrixFormat.kColwise
    lp.col_cost_ = c
    lp.col_lower_, lp.col_upper_ = col_lower, col_upper
    lp.row_lower_, lp.row_upper_ = row_lower, row_upper
    lp.a_matrix_.start_ = A.indptr
    lp.a_matrix_.index_ = A.indices
    lp.a_matrix_.value_ = A.data
    highs = _core._Highs()
    if highs.passOptions(options) == _core.HighsStatus.kError:
        raise RuntimeError(f"HiGHS rejected the {what} options")
    if highs.passModel(lp) == _core.HighsStatus.kError:
        raise RuntimeError(f"HiGHS rejected the {what} model")
    return highs


def solve_highs(highs, col_lower, row_lower, row_upper, fail):
    """Cold-start solve of a HiGHS model, checked as linprog checks its result.

    The solver is cleared first, so the answer depends only on the model as
    it stands, never on an earlier basis.  ``fail(status, message)`` must
    raise; it is called with linprog's status code when the model is not
    optimal or the solution breaks the bounds by more than linprog allows.
    Returns x, the objective value, the row duals and the iteration count.
    """
    highs.clearSolver()
    highs.run()
    model_status = highs.getModelStatus()
    if model_status != _core.HighsModelStatus.kOptimal:
        fail(
            _linprog_status(model_status),
            f"HiGHS Status {int(model_status)}: {highs.modelStatusToString(model_status)}",
        )
    solution = highs.getSolution()
    x, rows = np.array(solution.col_value), np.array(solution.row_value)
    tol = _RESULT_TOL
    if max((col_lower - x).max(), (row_lower - rows).max(), (rows - row_upper).max()) > tol:
        fail(4, f"solution violates the constraints by more than {tol:.2E}")
    info = highs.getInfo()
    return x, info.objective_function_value, np.array(solution.row_dual), info.simplex_iteration_count


@dataclass(frozen=True)
class MotSolution:
    """Optimal (or best-iterate) transport solution.

    ``value`` is the backend's objective: the linear cost for the LP and
    Lovász backends, the entropically regularized objective for Sinkhorn.
    LP solutions carry dual potentials certifying optimality; ``dual_value``
    restates their objective for the strong-duality check.
    """

    value: float
    coupling: CouplingTensor
    duals: DualPotentials | None
    backend: str
    converged: bool = True
    iterations: int = 0
    marginal_error: float = 0.0
    dual_value: float | None = None


@dataclass(frozen=True)
class SinkhornConfig:
    eta: float
    tol: float = 1e-6
    max_iters: int = 10_000

    def __post_init__(self):
        if not (math.isfinite(self.eta) and self.eta > 0):
            raise ValueError(f"eta must be positive and finite, got {self.eta}")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be at least 1, got {self.max_iters}")


def suggest_eta(n: int, k: int, value_gap: float) -> float:
    """Regularization strength whose entropy bias stays under ``value_gap``."""
    return k * math.log(n) / value_gap


class TransportLP:
    """The exact transport LP of one cost with a fixed set of constrained modes.

    Column j has cost C_j and a unit coefficient in one equality row per
    constrained mode; only the row bounds (the marginals) change between
    queries.  The cost is materialized and the column-wise constraint matrix
    built once, and handed to one HiGHS model that every ``solve`` reuses.
    Each solve clears the solver before it runs, so it starts cold from the
    same model a one-shot ``linprog`` call would build and returns the same basic
    solution bit for bit.  Solves are serialized by a lock, so one instance
    may be shared across threads.  Without scipy's private HiGHS bindings,
    ``solve`` goes through ``linprog`` on the same matrix.
    """

    def __init__(self, C: CostOracle, constrained, cap: int | None = None):
        constrained = tuple(constrained)
        if not constrained:
            raise ValueError("at least one constrained mode is required")
        if any(i < 0 or i >= C.k for i in constrained):
            raise ValueError(f"constrained mode out of range [0, {C.k})")
        n, k = C.n, C.k
        total = check_cap(n, k, cap)
        self.n, self.k, self.constrained = n, k, constrained
        self._c = C.materialize(cap).ravel()
        m = len(constrained)
        # CSC layout: column j holds row pos * n + j_i for each constrained mode i
        indptr = np.arange(0, m * total + 1, m, dtype=np.int32)
        indices = (all_index_tuples(n, k)[:, constrained] + n * np.arange(m)).ravel().astype(np.int32)
        self._A = sp.csc_array((np.ones(indices.size), indices, indptr), shape=(n * m, total))
        self._highs = None if _core is None else highs_model(
            self._c, self._A, np.zeros(total), np.full(total, np.inf),
            np.zeros(n * m), np.zeros(n * m), _TRANSPORT_OPTIONS, "transport LP",
        )
        self._lock = threading.Lock()

    def solve(self, spec: MarginalSpec) -> MotSolution:
        """Optimal value, basic coupling and dual potentials for ``spec``.

        Unconstrained modes get zero potentials; the coupling is a basic
        solution (support at most the constraint-matrix rank).
        """
        if (self.n, self.k) != (spec.n, spec.k):
            raise ValueError("dimension mismatch between cost and marginal spec")
        if spec.constrained != self.constrained:
            raise ValueError(
                f"spec constrains modes {spec.constrained}, this LP was built for {self.constrained}"
            )
        b = np.concatenate(spec.marginals)
        if self._highs is None:
            x, fun, y, nit = self._solve_linprog(b)
        else:
            with self._lock:
                x, fun, y, nit = self._solve_highs(b)

        n, k = self.n, self.k
        keep = np.flatnonzero(x > _SUPPORT_EPS)
        idx = np.stack(np.unravel_index(keep, (n,) * k), axis=1)
        coupling = CouplingTensor.from_entries(
            n, k, [(tuple(row), float(x[flat])) for row, flat in zip(idx, keep)]
        )
        p = np.zeros((k, n))
        for pos, i in enumerate(self.constrained):
            p[i] = y[pos * n : (pos + 1) * n]

        return MotSolution(
            value=float(fun),
            coupling=coupling,
            duals=DualPotentials(p),
            backend="lp",
            iterations=int(nit),
            dual_value=float(b @ y),
        )

    def _solve_highs(self, b: np.ndarray):
        highs = self._highs
        for row, bound in enumerate(b.tolist()):
            highs.changeRowBounds(row, bound, bound)
        return solve_highs(highs, 0.0, b, b, _raise_status)

    def _solve_linprog(self, b: np.ndarray):
        res = linprog(
            self._c, A_eq=self._A, b_eq=b, bounds=(0, None), method="highs-ds", options=_LP_OPTIONS
        )
        if res.status != 0:
            _raise_status(res.status, res.message)
        return res.x, res.fun, np.asarray(res.eqlin.marginals), res.nit


def _linprog_status(model_status) -> int:
    """linprog's status code for a HiGHS model status that is not optimal."""
    codes = _core.HighsModelStatus
    return {
        codes.kTimeLimit: 1,
        codes.kIterationLimit: 1,
        codes.kInfeasible: 2,
        codes.kModelError: 2,
        codes.kUnbounded: 3,
    }.get(model_status, 4)


def _raise_status(status: int, message: str):
    if status == 2:
        raise RuntimeError("transport LP reported infeasible for simplex marginals (internal error)")
    raise RuntimeError(f"transport LP failed: status {status} ({message})")


def solve_lp(C: CostOracle, spec: MarginalSpec, cap: int | None = None) -> MotSolution:
    """Exact transport value by LP over all n^k entries (desk-scale backend).

    A one-shot ``TransportLP``: solved with HiGHS dual simplex, so the
    returned coupling is a basic solution and the equality multipliers are
    optimal dual potentials; unconstrained modes get zero potentials.
    Callers querying one cost repeatedly should keep a ``TransportLP``.
    """
    if (C.n, C.k) != (spec.n, spec.k):
        raise ValueError("dimension mismatch between cost and marginal spec")
    return TransportLP(C, spec.constrained, cap).solve(spec)


def sinkhorn(
    C: CostOracle, spec: MarginalSpec, cfg: SinkhornConfig, cap: int | None = None
) -> MotSolution:
    """Multimarginal Sinkhorn scaling in the log domain.

    The iterate always has the Gibbs form exp(-eta C) rescaled along each
    constrained mode; one cycle rescales the constrained modes in order so
    their marginals match, and iteration stops once the summed l1 marginal
    error falls under ``cfg.tol``.  The reported value is the entropically
    regularized objective <P, C> - H(P)/eta of the final coupling; callers
    wanting exact feasibility compose with ``round_to_polytope``.

    The log-iterate log_P is carried next to P = exp(log_P).  Its maximum is
    0 at the start and every update leaves total mass 1, so log_P <= 0 and
    exp never overflows; a mode's log-marginal is then the log of a plain
    sum of P, unless a slice sum with a positive target falls under
    ``_SLICE_SUM_FLOOR``, where that mode takes the max-shifted
    ``logsumexp`` of log_P instead.
    """
    if (C.n, C.k) != (spec.n, spec.k):
        raise ValueError("dimension mismatch between cost and marginal spec")
    n, k = C.n, C.k
    check_cap(n, k, cap)

    cost = C.materialize(cap)
    log_P = -cfg.eta * cost - 1.0
    if spec.constrained:
        # constant shifts are absorbed by the first scaling update; keep the
        # initial iterate under 1 so exp never overflows at large eta * c_max
        log_P -= log_P.max()

    def marginal_gap(P):
        return sum(
            float(np.abs(mode_sum(P, i) - mu).sum())
            for i, mu in zip(spec.constrained, spec.marginals)
        )

    P = np.exp(log_P)
    best_P = P.copy()
    best_err = marginal_gap(P)
    converged = best_err <= cfg.tol
    cycles = 0
    with np.errstate(divide="ignore"):
        log_mu = {
            i: np.log(mu) for i, mu in zip(spec.constrained, spec.marginals)
        }
    while not converged and cycles < cfg.max_iters:
        cycles += 1
        for i in spec.constrained:
            m = mode_sum(P, i)
            with np.errstate(divide="ignore", invalid="ignore"):
                if m[np.isfinite(log_mu[i])].min() >= _SLICE_SUM_FLOOR:
                    log_m = np.log(m)
                else:
                    log_m = logsumexp(log_P, axis=others(i, k))
                step = log_mu[i] - log_m
            # a zero marginal entry pins its slice at -inf, where -inf - -inf is nan
            log_P += along(np.where(np.isneginf(log_mu[i]), -np.inf, step), i, k)
            np.exp(log_P, out=P)
        err = marginal_gap(P)
        if err < best_err:
            np.copyto(best_P, P)
            best_err = err
        if err <= cfg.tol:
            converged = True

    P = best_P
    lin = float((P * cost).sum())
    pos = P[P > 0]
    ent = float(-(pos * np.log(pos)).sum())
    return MotSolution(
        value=lin - ent / cfg.eta,
        coupling=CouplingTensor.from_dense(P, cap=cap),
        duals=None,
        backend="sinkhorn",
        converged=converged,
        iterations=cycles,
        marginal_error=best_err,
    )


def _descending_order(x: np.ndarray) -> np.ndarray:
    # Stable sort keeps index order among ties, which keeps outputs deterministic.
    return np.argsort(-x, kind="stable")


def lovasz_extension(C: SetFunctionCost, x) -> float:
    """Chain-formula extension of a set function at a point of [0, 1]^k.

    Sorting x descending as x_(1) >= ... >= x_(k) with x_(k+1) = 0, the value
    is (1 - x_(1)) C(empty) + sum_t (x_(t) - x_(t+1)) C(S_t) where S_t holds
    the t largest coordinates: k evaluations of C after an O(k log k) sort.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (C.k,):
        raise ValueError(f"x has shape {x.shape}, want ({C.k},)")
    if x.min() < -1e-12 or x.max() > 1 + 1e-12:
        raise ValueError("x must lie in [0, 1]^k")
    x = np.clip(x, 0.0, 1.0)
    order = _descending_order(x)
    value = (1.0 - x[order[0]]) * C.value_of_set(0)
    mask = 0
    for t in range(C.k):
        mask |= 1 << int(order[t])
        nxt = x[order[t + 1]] if t + 1 < C.k else 0.0
        value += (x[order[t]] - nxt) * C.value_of_set(mask)
    return float(value)


def chain_coupling(k: int, x) -> CouplingTensor:
    """The coupling behind the chain formula: mass on the nested top-t sets.

    Always feasible for Bernoulli marginals with success probabilities x.
    """
    x = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
    order = _descending_order(x)
    entries = []
    if 1.0 - x[order[0]] > 0:
        entries.append(((0,) * k, 1.0 - x[order[0]]))
    active = [0] * k
    for t in range(k):
        active[int(order[t])] = 1
        nxt = x[order[t + 1]] if t + 1 < k else 0.0
        mass = x[order[t]] - nxt
        if mass > 0:
            entries.append((tuple(active), float(mass)))
    return CouplingTensor.from_entries(2, k, entries)


def bernoulli_spec(x) -> MarginalSpec:
    """Fully fixed binary marginals (1 - x_i, x_i) from success probabilities x."""
    x = np.asarray(x, dtype=float)
    return MarginalSpec.fully_fixed([np.array([1.0 - xi, xi]) for xi in x])


def solve_submodular(
    C: SetFunctionCost, x, check: bool = True, cap: int = 16
) -> MotSolution:
    """Polynomial transport solver for submodular set-function costs.

    The chain coupling of the extension formula is optimal exactly when the
    cost is submodular, which is verified by enumeration when k is under the
    brute cap (pass check=False to trust larger instances).
    """
    if check and C.k <= cap and not is_submodular(C, cap=cap):
        raise ValueError("cost is not submodular; the chain coupling is not optimal")
    value = lovasz_extension(C, x)
    return MotSolution(
        value=value,
        coupling=chain_coupling(C.k, x),
        duals=None,
        backend="lovasz",
    )


def check_dual_feasibility(
    C: CostOracle, duals: DualPotentials, tol: float = 1e-9, cap: int | None = None
) -> bool:
    """Enumerated feasibility of potentials: every entry slack >= -tol."""
    return dual_slack_minimum(C, duals, cap) >= -tol


def dual_slack_minimum(C: CostOracle, duals: DualPotentials, cap: int | None = None) -> float:
    """min over tuples of C_j - sum_i p[i][j_i] (negative means infeasible)."""
    return float(objective_tensor(C, duals.p, cap).min())
