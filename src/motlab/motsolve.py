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

from .costs import SET_FUNCTION_TABLE_CAP, CostOracle, SetFunctionCost, is_submodular
from .minsolve import objective_tensor
from .tensors import (
    CouplingTensor,
    DualPotentials,
    MarginalSpec,
    all_index_tuples,
    along,
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

# What linprog(method="highs-ds", options=_LP_OPTIONS) hands HiGHS; logging off.
_HIGHS_SETTINGS = {
    "presolve": "on",
    "solver": "simplex",
    "simplex_strategy": 1,  # dual simplex
    "primal_feasibility_tolerance": _LP_OPTIONS["primal_feasibility_tolerance"],
    "dual_feasibility_tolerance": _LP_OPTIONS["dual_feasibility_tolerance"],
    "output_flag": False,
    "log_to_console": False,
}

# linprog's feasibility check of a reported optimum: sqrt(default tol) * 10.
_RESULT_TOL = math.sqrt(1e-9) * 10

try:  # private scipy bindings; every HighsLP falls back to linprog without them
    from scipy.optimize._highspy import _core

    _core._Highs.clearSolver  # probe: the model-reuse call HighsLP depends on
except (ImportError, AttributeError):
    _core = None
else:
    # Built once and shared: passOptions copies them into each model.
    _HIGHS_OPTIONS = _core.HighsOptions()
    for _key, _val in _HIGHS_SETTINGS.items():
        setattr(_HIGHS_OPTIONS, _key, _val)


class HighsLP:
    """min c.x subject to A_eq x = b_eq, rows a.x <= u added by ``add_row``,
    and col_lower <= x, solved as linprog(method="highs-ds") solves it.

    ``A_eq`` is a dense array or a CSC array with int32 indices; ``what``
    names the LP in error messages.
    One HiGHS model on scipy's private bindings, with the one option set, is
    built with the equality rows; ``set_rhs`` changes their bounds in place
    and ``add_row`` appends to it.  Every ``solve`` clears the solver before
    it runs, so its x and duals depend only on the rows as they stand, never
    on an earlier basis.  ``value`` asks for the optimal value alone and
    starts from the basis the last run left: the value of an LP does not
    depend on which optimal basis is found, so only its roundoff can differ
    from a cold run.  Both are checked as linprog checks its result.
    Without the private bindings both call ``linprog`` on the same rows.
    """

    def __init__(self, c, A_eq, b_eq, col_lower, what: str):
        self.what = what
        if isinstance(A_eq, np.ndarray):
            A_eq = sp.csc_array(A_eq)
        self._c, self._A_eq, self._col_lower = c, A_eq, col_lower
        self._m = A_eq.shape[0]
        # bounds of every row, the m equality rows first, for the result check
        self._row_lower = np.array(b_eq, dtype=float)
        self._row_upper = self._row_lower.copy()
        self._rows: list[np.ndarray] = []  # the added rows, kept for linprog only
        self._highs = None
        if _core is None:
            return
        lp = _core.HighsLp()
        lp.num_col_ = lp.a_matrix_.num_col_ = len(c)
        lp.num_row_ = lp.a_matrix_.num_row_ = self._m
        lp.a_matrix_.format_ = _core.MatrixFormat.kColwise
        lp.col_cost_ = c
        lp.col_lower_, lp.col_upper_ = col_lower, np.full(len(c), np.inf)
        lp.row_lower_, lp.row_upper_ = self._row_lower, self._row_upper
        lp.a_matrix_.start_ = A_eq.indptr
        lp.a_matrix_.index_ = A_eq.indices
        lp.a_matrix_.value_ = A_eq.data
        self._highs = _core._Highs()
        if self._highs.passOptions(_HIGHS_OPTIONS) == _core.HighsStatus.kError:
            raise RuntimeError(f"HiGHS rejected the {what} options")
        if self._highs.passModel(lp) == _core.HighsStatus.kError:
            raise RuntimeError(f"HiGHS rejected the {what} model")

    def set_rhs(self, b_eq) -> None:
        """Replace the right-hand side of the equality rows."""
        m = self._m
        self._row_lower[:m] = self._row_upper[:m] = b_eq
        if self._highs is not None:
            for row, bound in enumerate(self._row_upper[:m].tolist()):
                self._highs.changeRowBounds(row, bound, bound)

    def add_row(self, a, upper: float) -> None:
        """Add the row a.x <= upper, with ``a`` dense over the columns."""
        a = np.asarray(a, dtype=float)
        self._row_lower = np.append(self._row_lower, -np.inf)
        self._row_upper = np.append(self._row_upper, upper)
        if self._highs is None:
            self._rows.append(a)
        else:
            cols = np.flatnonzero(a)
            self._highs.addRow(-np.inf, float(upper), cols.size, cols.astype(np.int32), a[cols])

    def solve(self):
        """Cold-start solve: x, the objective value, the equality-row duals
        and the iteration count.  Raises RuntimeError naming the LP, with
        HiGHS's or linprog's own status, when there is no checked optimum."""
        if self._highs is None:
            res = self._linprog()
            return res.x, res.fun, np.asarray(res.eqlin.marginals), res.nit
        highs = self._highs
        highs.clearSolver()
        highs.run()
        x, solution = self._checked_solution()
        info = highs.getInfo()
        y = np.array(solution.row_dual[: self._m])
        return x, info.objective_function_value, y, info.simplex_iteration_count

    def value(self) -> float:
        """The checked optimal value, warm-started from the last basis; a run
        that does not end optimal is cleared and run once more from cold.
        Raises as ``solve`` does."""
        if self._highs is None:
            return float(self._linprog().fun)
        highs = self._highs
        highs.run()
        if highs.getModelStatus() != _core.HighsModelStatus.kOptimal:
            highs.clearSolver()
            highs.run()
        self._checked_solution()
        return float(highs.getInfo().objective_function_value)

    def _checked_solution(self):
        """x and the solution of the last run, once its status is optimal and
        it meets the constraints to linprog's tolerance."""
        highs = self._highs
        status = highs.getModelStatus()
        if status != _core.HighsModelStatus.kOptimal:
            raise RuntimeError(
                f"{self.what} failed: HiGHS model status {int(status)} "
                f"({highs.modelStatusToString(status)})"
            )
        solution = highs.getSolution()
        x, rows = np.array(solution.col_value), np.array(solution.row_value)
        violation = max(
            (self._col_lower - x).max(), (self._row_lower - rows).max(), (rows - self._row_upper).max()
        )
        if violation > _RESULT_TOL:
            raise RuntimeError(
                f"{self.what} failed: solution violates the constraints by more than {_RESULT_TOL:.2E}"
            )
        return x, solution

    def _linprog(self):
        res = linprog(
            self._c,
            A_ub=np.array(self._rows) if self._rows else None,
            b_ub=self._row_upper[self._m:] if self._rows else None,
            A_eq=self._A_eq, b_eq=self._row_upper[: self._m],
            bounds=np.column_stack([self._col_lower, np.full(len(self._c), np.inf)]),
            method="highs-ds", options=_LP_OPTIONS,
        )
        if res.status != 0:
            raise RuntimeError(f"{self.what} failed: linprog status {res.status} ({res.message})")
        return res


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
    constrained mode; only the right-hand side (the marginals) changes
    between queries.  The cost is materialized and the column-wise constraint
    matrix built once, into one ``HighsLP`` that every query reuses.
    A query's marginals are an (m, n) array, row r for mode ``constrained[r]``;
    only its shape is checked, and every row must lie on the simplex.
    ``solve`` starts cold and returns the basic solution a one-shot
    ``linprog`` call would, bit for bit, so its coupling and duals never
    depend on an earlier query.  ``value`` returns the optimal value alone,
    warm-started from the previous query's basis: it agrees with ``solve``
    up to roundoff and skips both the cold start and building the coupling.
    Queries are serialized by a lock, so one instance may be shared across
    threads.
    """

    def __init__(self, C: CostOracle, constrained):
        constrained = tuple(constrained)
        if not constrained:
            raise ValueError("at least one constrained mode is required")
        if any(i < 0 or i >= C.k for i in constrained):
            raise ValueError(f"constrained mode out of range [0, {C.k})")
        n, k = C.n, C.k
        cost = C.materialize().ravel()  # checks the dense cap before any n^k allocation
        total = cost.size
        self.n, self.k, self.constrained = n, k, constrained
        m = len(constrained)
        # CSC layout: column j holds row pos * n + j_i for each constrained mode i
        indptr = np.arange(0, m * total + 1, m, dtype=np.int32)
        indices = (all_index_tuples(n, k)[:, constrained] + n * np.arange(m)).ravel().astype(np.int32)
        A = sp.csc_array((np.ones(indices.size), indices, indptr), shape=(n * m, total))
        self._lp = HighsLP(cost, A, np.zeros(n * m), np.zeros(total), "transport LP")
        self._lock = threading.Lock()

    def _rhs(self, mu) -> np.ndarray:
        """The equality right-hand side for the marginals ``mu``, once they fit this LP."""
        mu, want = np.asarray(mu, dtype=float), (len(self.constrained), self.n)
        if mu.shape != want:
            raise ValueError(f"dimension mismatch: marginals of shape {mu.shape}, this LP was built for {want}")
        return mu.ravel()

    def value(self, mu) -> float:
        """Optimal value for the marginals ``mu``, warm-started from the last query."""
        b = self._rhs(mu)
        with self._lock:
            self._lp.set_rhs(b)
            return self._lp.value()

    def solve(self, mu) -> MotSolution:
        """Optimal value, basic coupling and dual potentials for the marginals ``mu``.

        Unconstrained modes get zero potentials; the coupling is a basic
        solution (support at most the constraint-matrix rank).
        """
        b = self._rhs(mu)
        with self._lock:
            self._lp.set_rhs(b)
            x, fun, y, nit = self._lp.solve()

        n, k = self.n, self.k
        keep = np.flatnonzero(x > _SUPPORT_EPS)
        idx = np.stack(np.unravel_index(keep, (n,) * k), axis=1)
        coupling = CouplingTensor.from_support(n, k, idx, x[keep])
        p = np.zeros((k, n))
        p[list(self.constrained)] = y.reshape(-1, n)  # one length-n block per constrained mode

        return MotSolution(
            value=float(fun),
            coupling=coupling,
            duals=DualPotentials(p),
            backend="lp",
            iterations=int(nit),
            dual_value=float(b @ y),
        )


def solve_lp(C: CostOracle, spec: MarginalSpec) -> MotSolution:
    """Exact transport value by LP over all n^k entries (desk-scale backend).

    A one-shot ``TransportLP``: solved with HiGHS dual simplex, so the
    returned coupling is a basic solution and the equality multipliers are
    optimal dual potentials; unconstrained modes get zero potentials.
    Callers querying one cost repeatedly should keep a ``TransportLP``.
    """
    if (C.n, C.k) != (spec.n, spec.k):
        raise ValueError("dimension mismatch between cost and marginal spec")
    return TransportLP(C, spec.constrained).solve(np.array(spec.marginals))


def sinkhorn(C: CostOracle, spec: MarginalSpec, cfg: SinkhornConfig) -> MotSolution:
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
    cost = C.materialize()
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
        coupling=CouplingTensor.from_dense(P),
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
    # row t is the indicator of the t largest coordinates, with mass x_(t) - x_(t+1)
    sets = np.tril(np.ones((k + 1, k), dtype=np.int64), -1)[:, np.argsort(order)]
    xs = np.concatenate([[1.0], x[order], [0.0]])
    mass = xs[:-1] - xs[1:]
    return CouplingTensor.from_support(2, k, sets[mass > 0], mass[mass > 0])


def bernoulli_spec(x) -> MarginalSpec:
    """Fully fixed binary marginals (1 - x_i, x_i) from success probabilities x."""
    x = np.asarray(x, dtype=float)
    return MarginalSpec.fully_fixed([np.array([1.0 - xi, xi]) for xi in x])


def solve_submodular(C: SetFunctionCost, x, check: bool = True) -> MotSolution:
    """Polynomial transport solver for submodular set-function costs.

    The chain coupling of the extension formula is optimal exactly when the
    cost is submodular, which is verified by enumeration when k is at most
    SET_FUNCTION_TABLE_CAP (pass check=False to trust larger instances).
    """
    if check and C.k <= SET_FUNCTION_TABLE_CAP and not is_submodular(C):
        raise ValueError("cost is not submodular; the chain coupling is not optimal")
    value = lovasz_extension(C, x)
    return MotSolution(
        value=value,
        coupling=chain_coupling(C.k, x),
        duals=None,
        backend="lovasz",
    )


def check_dual_feasibility(C: CostOracle, duals: DualPotentials, tol: float = 1e-9) -> bool:
    """Enumerated feasibility of potentials: every slack C_j - sum_i p[i][j_i] >= -tol."""
    return float(objective_tensor(C, duals.p).min()) >= -tol
