"""Transport-value backends: exact LP with dual potentials, multimarginal
Sinkhorn scaling for the entropically regularized problem, and the
polynomial chain-coupling solver for submodular set-function costs.

All backends accept partially fixed marginal specs: only the constrained
modes are matched, the rest of the coupling is free.
"""

from __future__ import annotations

import logging
import math
import threading
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog
from scipy.special import logsumexp, xlogy

from .costs import SET_FUNCTION_TABLE_CAP, CostOracle, SetFunctionCost, is_submodular
from .minsolve import objective_tensor
from .tensors import (
    CouplingTensor,
    MarginalSpec,
    PrefixContractions,
    _equal_fields,
    all_index_tuples,
    along,
    checked_modes,
    others,
    scale_modes,
)

_log = logging.getLogger("motlab")

# LP entries below this are treated as outside the basic support.
_SUPPORT_EPS = 1e-12

# Dual feasibility tolerance: of check_dual_feasibility, and of the pricing
# step that ends column generation and certifies its answer.
_DUAL_TOL = 1e-9

# Transport LPs of at least this many columns (n^k) start from a restricted
# master and grow it by column generation; smaller ones hand HiGHS every
# column.  Measured with one-shot solve_lp on dense costs (2-core VM, one
# BLAS thread, mean of 20 instances, best of 3; full LP -> column
# generation with primal restarts after each pricing round): 2^9 3.9 -> 2.1
# ms and 2^10 7.8 -> 2.4 ms, but 4^4 1.6 -> 1.8 ms and 3^5 1.6 -> 1.6 ms; and
# on the tiny LPs of the noisy oracle (at most 27 columns) column generation
# cost 35% of min_noisy's ops/s.  The crossover lies near 3^5, but below 512
# the full LP's first run is bitwise linprog's, so the threshold stays.
_CG_MIN_COLUMNS = 512

# Optimal bases a TransportLP keeps to answer ``value`` without a
# HiGHS run, most recently used first.  Sized on the first 60 min_noisy ops
# of seed 901 (2-core VM, one BLAS thread; median of 3 runs), against 27.6
# ops/s with a HiGHS run per query: 1 basis 25.2 ops/s (7351 of 14196
# queries answered by a kept basis), 2 bases 34.0 (10197), 4 bases 43.6
# (11857), 8 bases 55.7 (12768), 16 bases 49.1 (12949).  Past 8 bases, a
# miss tries more bases than the extra hits save.
_BASIS_CACHE_SIZE = 8

# Sinkhorn uses a mode's contraction c_i (``tensors.PrefixContractions``: the
# prefixes T_1..T_i of K, then the gemv chain over the trailing modes of T_i)
# as it is only while every live entry is at least this times R, the largest
# product of the other modes' scalings, prod_{m != i} max(1, max u_m).  Only
# an exp or a product landing below the smallest normal double, 2^-1022, can
# be off by more than a relative rounding: by at most 2^-1074 (a sum landing
# there is exact), an error then multiplied by at most R on its way into c_i.
# Per entry of K, c_i takes one exp; the prefixes' products, n^k + n^(k-1) +
# ... + n^(k-i+1); and those of the trailing chain, n^(k-i) in its first gemv
# and under a 63rd of that in the rest (each reads an array at least
# _GEMV_MIN_LENGTH = 64 times smaller).  That is under
# 1 + n/(n-1) + 1/63 <= 3 + 1/63 per entry at n >= 2 (at most k + 1 in all at
# n = 1).  K holds fewer than 2^51 entries, so underflow costs c_i less than
# 4 * 2^51 * 2^-1074 R = 2^-1021 R: under half an ulp of any entry >= 2^-968 R.
_SLICE_SUM_FLOOR = 2.0**-968

# Sinkhorn keeps every live scaling entry within [2^-r, 2^r],
# r = _SCALING_LOG2_RANGE // k, and absorbs the scalings into the kernel when
# one leaves.  A product of at most k scalings then lies in [2^-960, 2^960]:
# the Kronecker vectors of a contraction are normal doubles, so only the
# products with K and its prefixes can underflow (the floor above bounds
# that), and an entry of a prefix or a contraction, a sum of fewer than 2^51
# entries of K <= 1 times such a product, stays under 2^1011.  K <= 1 holds
# because the largest entry of log_K starts at 0 and an absorption follows a
# mode update, which leaves total mass 1.
_SCALING_LOG2_RANGE = 960


def _gap_rounding(n: int, k: int, modes: int) -> float:
    """g such that a computed Sinkhorn marginal gap sum_i ||u_i c_i - mu_i||_1
    over ``modes`` constrained modes is within g * sum_i (||u_i c_i||_1 + 1)
    of the exact gap of the iterate (||mu_i||_1 = 1).

    An entry of c_i sums N = n^(k-1) nonnegative terms of at most k - 1
    rounded products each, so in any order of summation it is within
    gamma_{N+k-2} of exact, gamma_M = M 2^-53 / (1 - M 2^-53) (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., 3.1 and 4.2).
    Times u_i and minus mu_i adds two roundings, and summing the n * modes
    absolute values fewer than n * modes more: M = N + k + n * modes, and
    gamma_M <= M 2^-52 while M 2^-53 <= 1/2.  Sinkhorn moves its best
    iterate only to an iterate whose gap is lower by more than both bounds,
    so which of several iterates tied at rounding level it reports does not
    depend on the last bit of the arithmetic.
    """
    return (n ** (k - 1) + k + n * modes) * 2.0**-52


_LP_OPTIONS = {
    "presolve": True,
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
}

# HiGHS's simplex strategies: dual, and primal for a run from an optimal
# basis that has since gained columns only, which leave it primal feasible
# (HighsLP.solve).
_DUAL_SIMPLEX, _PRIMAL_SIMPLEX = 1, 4

# What linprog(method="highs-ds", options=_LP_OPTIONS) hands HiGHS; logging off.
_HIGHS_SETTINGS = {
    "presolve": "on",
    "solver": "simplex",
    "simplex_strategy": _DUAL_SIMPLEX,
    "primal_feasibility_tolerance": _LP_OPTIONS["primal_feasibility_tolerance"],
    "dual_feasibility_tolerance": _LP_OPTIONS["dual_feasibility_tolerance"],
    "output_flag": False,
    "log_to_console": False,
}

# linprog's feasibility check of a reported optimum: sqrt(default tol) * 10.
_RESULT_TOL = math.sqrt(1e-9) * 10

try:  # private scipy bindings; every HighsLP falls back to linprog without them
    from scipy.optimize._highspy import _core

    _core._Highs.clearSolver  # probe: the model-reuse calls HighsLP depends on
    _core._Highs.setOptionValue
except (ImportError, AttributeError):
    _core = None
else:
    # Built once and shared: passOptions copies them into each model.
    _HIGHS_OPTIONS = _core.HighsOptions()
    for _key, _val in _HIGHS_SETTINGS.items():
        setattr(_HIGHS_OPTIONS, _key, _val)


class HighsLP:
    """min c.x subject to m equality rows A_eq x = b_eq, rows a.x <= u added
    by ``add_row``, and col_lower <= x, solved as linprog(method="highs-ds")
    solves it; ``what`` names the LP in error messages.

    An LP starts as its equality rows with no columns, one HiGHS model on
    scipy's private bindings with the one option set.  Every column enters
    through ``add_cols``; ``set_rhs`` changes the equality bounds in place.
    ``solve`` runs from the basis the last run left (none, on a new model):
    a new rhs or row leaves an optimal basis dual feasible and a new column
    leaves it primal feasible (Bertsimas and Tsitsiklis, Introduction to
    Linear Optimization, 3.8 and 4.5), so a run restarts with a few pivots
    on the side still feasible.  A run after columns alone, since the last
    checked optimal run, is primal simplex; every other run (a new model's
    first, after ``set_rhs`` or ``add_row``, the cold retry) is dual
    simplex, today's one option set.  Only the optimal value is independent
    of the basis found.  A run that does not end optimal is cleared and run
    once more from cold, and the result is checked as linprog checks its
    own; without the private bindings ``solve`` calls ``linprog`` on the
    same LP.
    """

    def __init__(self, b_eq, what: str):
        self.what = what
        self._m = len(b_eq)
        # bounds of every row, the m equality rows first, and of every
        # column, for the result check
        self._row_lower = np.array(b_eq, dtype=float)
        self._row_upper = self._row_lower.copy()
        self._col_lower = np.zeros(0)
        self._highs = None
        # the basis HiGHS holds is primal feasible: the last run ended
        # optimal and only columns were added since
        self._primal = False
        self._strategy = _DUAL_SIMPLEX  # the model's simplex strategy
        if _core is None:
            # costs, equality rows and added rows, kept for linprog only
            self._c, self._A_eq, self._rows = np.zeros(0), sp.csc_array((self._m, 0)), []
            return
        self._highs = _core._Highs()
        if self._highs.passOptions(_HIGHS_OPTIONS) == _core.HighsStatus.kError:
            raise RuntimeError(f"HiGHS rejected the {what} options")
        starts = np.zeros(self._m, dtype=np.int32)
        status = self._highs.addRows(self._m, self._row_lower, self._row_upper, 0, starts,
                                     np.zeros(0, dtype=np.int32), np.zeros(0))
        if status == _core.HighsStatus.kError:
            raise RuntimeError(f"HiGHS rejected the {what} rows")

    def set_rhs(self, b_eq) -> None:
        """Replace the right-hand side of the equality rows."""
        m = self._m
        self._primal = False
        self._row_lower[:m] = self._row_upper[:m] = b_eq
        if self._highs is not None:
            for row, bound in enumerate(self._row_upper[:m].tolist()):
                self._highs.changeRowBounds(row, bound, bound)

    def add_row(self, a, upper: float) -> None:
        """Add the row a.x <= upper, with ``a`` dense over the columns."""
        a = np.asarray(a, dtype=float)
        self._primal = False
        self._row_lower = np.append(self._row_lower, -np.inf)
        self._row_upper = np.append(self._row_upper, upper)
        if self._highs is None:
            self._rows.append(a)
        else:
            cols = np.flatnonzero(a)
            self._highs.addRow(-np.inf, float(upper), cols.size, cols.astype(np.int32), a[cols])

    def add_cols(self, c, col_lower, data, indices, indptr) -> None:
        """Add columns x >= col_lower with costs ``c`` and equality-row
        entries in CSC form, int32 ``indices`` and ``indptr``; added rows
        hold zeros there."""
        count = len(c)
        self._col_lower = np.concatenate([self._col_lower, col_lower])
        if self._highs is None:
            self._c = np.concatenate([self._c, c])
            A_eq = sp.csc_array((data, indices, indptr), shape=(self._m, count))
            self._A_eq = sp.hstack([self._A_eq, A_eq], format="csc")
            self._rows = [np.concatenate([a, np.zeros(count)]) for a in self._rows]
            return
        status = self._highs.addCols(
            count, c, col_lower, np.full(count, np.inf), len(data), indptr[:-1], indices, data
        )
        if status == _core.HighsStatus.kError:
            raise RuntimeError(f"HiGHS rejected the {self.what} columns")

    def solve(self):
        """x, the objective value, the equality-row duals and the iteration
        count, run from the last basis and once more from cold if that run
        does not end optimal.  Raises RuntimeError naming the LP, with
        HiGHS's or linprog's own status, when there is no checked optimum."""
        if self._highs is None:
            return self._linprog()
        self._run(_PRIMAL_SIMPLEX if self._primal else _DUAL_SIMPLEX)
        if self._highs.getModelStatus() != _core.HighsModelStatus.kOptimal:
            self._highs.clearSolver()
            self._run(_DUAL_SIMPLEX)
        return self._result()

    def _run(self, strategy: int) -> None:
        """One HiGHS run with the simplex ``strategy``, set only where it changes."""
        if strategy != self._strategy:
            if self._highs.setOptionValue("simplex_strategy", strategy) == _core.HighsStatus.kError:
                raise RuntimeError(f"HiGHS rejected simplex strategy {strategy} for the {self.what}")
            self._strategy = strategy
        self._highs.run()

    def _result(self):
        """What ``solve`` returns for the last run, once its status is
        optimal and it meets the constraints to linprog's tolerance."""
        highs = self._highs
        status = highs.getModelStatus()
        self._primal = status == _core.HighsModelStatus.kOptimal
        if not self._primal:
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
        info = highs.getInfo()
        y = np.array(solution.row_dual[: self._m])
        return x, info.objective_function_value, y, info.simplex_iteration_count

    def basis(self):
        """The basic columns and the rows whose slack is not basic, the square
        block of the last run's basis, as sorted index arrays; private
        bindings only."""
        status, basic = self._highs.getBasicVariables()
        if status != _core.HighsStatus.kOk:
            raise RuntimeError(f"{self.what}: HiGHS holds no basis after an optimal run")
        tight = np.ones(self._row_lower.size, dtype=bool)
        tight[-1 - basic[basic < 0]] = False  # HiGHS numbers the slack of row r as -1 - r
        return np.sort(basic[basic >= 0]), np.flatnonzero(tight)

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
        return res.x, res.fun, np.asarray(res.eqlin.marginals), res.nit


@dataclass(frozen=True)
class MotSolution:
    """Optimal (or best-iterate) transport solution.

    ``value`` is the backend's objective: the linear cost for the LP and
    Lovász backends, the entropically regularized objective for Sinkhorn.
    LP solutions carry the dual potentials certifying optimality as a
    read-only (k, n) array, row i for mode i (zero on free modes);
    ``dual_value`` restates their objective for the strong-duality check.
    A value-only answer (the noisy LP oracle's) carries no coupling and no
    duals.
    """

    value: float
    coupling: CouplingTensor | None
    duals: np.ndarray | None
    backend: str
    converged: bool = True
    iterations: int = 0
    marginal_error: float = 0.0
    dual_value: float | None = None

    __eq__ = _equal_fields


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


class _OptimalBasis:
    """An optimal basis of a transport LP, kept to answer other marginals.

    Its potentials are feasible over every tuple and only the marginals b
    change between queries, so it stays dual feasible for the full LP.  It
    is optimal again at b whenever x_B = A[N, B]^-1 b[N] is primal feasible
    (x_B >= 0 and A[:, B] x_B = b to HiGHS's primal tolerance), for B the
    basic columns and N the rows whose slack is not basic.  The value is
    then c_B . x_B: the transport value is piecewise linear in b, one piece
    per optimal basis (Bertsimas and Tsitsiklis, Introduction to Linear
    Optimization, 5.2).  ``cost`` is c_B as the ``TransportLP`` holds it for
    its columns, the costs it handed HiGHS.
    """

    __slots__ = ("block", "rows", "inverse", "cost")

    def __init__(self, block, rows, cost):
        self.block, self.rows, self.cost = block, rows, cost  # A[:, B], N, c_B
        self.inverse = np.linalg.inv(block[rows])

    def value(self, b):
        """c_B . x_B at the flat marginals b, or None where the basis is not feasible."""
        x = self.inverse @ b[self.rows]
        tol = _LP_OPTIONS["primal_feasibility_tolerance"]
        if x.min() >= -tol and np.abs(self.block @ x - b).max() <= tol:  # false on a nan
            return float(self.cost @ x)
        return None


class TransportLP:
    """The exact transport LP of one cost with a fixed set of constrained modes.

    Column j has cost C_j and a unit coefficient in one equality row per
    constrained mode; only the right-hand side (the marginals) changes
    between queries, and one ``HighsLP`` serves every query.  A query's
    marginals are an (m, n) array, row r for mode ``constrained[r]``, with
    every row on the simplex; only their shape and finiteness are checked.

    The LP is a master on the index tuples it holds, which every query keeps,
    and each run starts from the basis the last one left (``HighsLP.solve``):
    a query's first run is dual simplex, since only the marginals changed.
    Below ``_CG_MIN_COLUMNS`` columns (n^k) it holds every tuple, at the
    costs of one ``materialize``, so a new instance's first query is a cold
    run: one-shot ``solve_lp`` returns what ``linprog`` would, bit for bit.
    Later queries agree on the value up to roundoff; their coupling and duals
    are an optimal pair that can depend on earlier queries.  From there on,
    an empty master grows by each query's multimarginal north-west-corner
    tuples not yet held (at costs from ``evaluate_batch``), then by the
    tuples the cost's ``pricer`` finds below -``_DUAL_TOL`` (at most n k per
    run, at the costs it returns) at each run's potentials, until there are
    none.  A held column prices at or above HiGHS's dual tolerance, so a
    priced tuple the master holds raises.  Each run after a pricing round
    restarts primal simplex from the optimal basis, which new columns leave
    primal feasible: on the transport_lp benchmark that halves the simplex
    iterations per solve (181 -> 86 against dual restarts).  The
    pricer's minimum then certifies the potentials over every tuple: the
    value is the full LP's up to roundoff, but the basic solution may be
    another optimal one.

    ``value`` returns the optimal value alone.  With the private bindings it
    first tries the ``_BASIS_CACHE_SIZE`` optimal bases its latest HiGHS runs
    ended at, each certified over every tuple, most recently used first, and
    answers from the first one optimal at the query (``_OptimalBasis``)
    without a run; such a value agrees with HiGHS's up to roundoff.  Each
    held column keeps the cost it entered HiGHS with, from ``materialize``,
    ``evaluate_batch`` or the pricer, all bitwise equal, and a kept basis
    takes c_B from those.

    Queries are serialized by a lock, so one instance may be shared across
    threads.
    """

    def __init__(self, C: CostOracle, constrained):
        constrained = checked_modes(constrained, C.k)
        if not constrained:
            raise ValueError("at least one constrained mode is required")
        n, k = C.n, C.k
        self.n, self.k, self.constrained = n, k, constrained
        self._C = C
        self._rows = np.array(constrained)  # the potentials' row of each block of n equality rows
        self._offsets = n * np.arange(len(constrained))  # the first equality row of each block
        self._tuples = np.zeros((0, k), dtype=np.int64)  # self._tuples[c]: index tuple of master column c
        self._costs = np.zeros(0)  # self._costs[c]: its cost, as handed to HiGHS
        self._held = set()  # the flat indices of the held tuples, on column generation only
        self._strides = n ** np.arange(k - 1, -1, -1)  # a tuple's flat index is tuple @ strides
        self._lp = HighsLP(np.zeros(n * len(constrained)), "transport LP")
        self._lock = threading.Lock()
        self._bases = [] if _core is not None else None  # optimal bases for value, most recently used first
        self._price = None if n**k < _CG_MIN_COLUMNS else C.pricer()  # checks the dense cap
        if self._price is None:  # materialize checks the dense cap before any n^k allocation
            self._add(C.materialize().ravel(), all_index_tuples(n, k))

    def _eq_rows(self, tuples) -> np.ndarray:
        """The (c, m) equality rows of the (c, k) index tuples' columns: column
        j has a one in row r * n + tuples[j, constrained[r]] for each
        constrained mode r."""
        return tuples.take(self._rows, axis=1) + self._offsets

    def _columns(self, tuples):
        """Constraint columns of the (c, k) index tuples as CSC (data, indices, indptr)."""
        m = len(self.constrained)
        indptr = np.arange(0, m * len(tuples) + 1, m, dtype=np.int32)
        indices = self._eq_rows(tuples).ravel().astype(np.int32)
        return np.ones(indices.size), indices, indptr

    def _checked(self, mu) -> np.ndarray:
        """The marginals ``mu`` as a float array, once their shape fits this LP and they are finite."""
        mu, want = np.asarray(mu, dtype=float), (len(self.constrained), self.n)
        if mu.shape != want:
            raise ValueError(f"dimension mismatch: marginals of shape {mu.shape}, this LP was built for {want}")
        if not np.isfinite(mu).all():
            r, j = np.argwhere(~np.isfinite(mu))[0]
            raise ValueError(f"marginal for mode {self.constrained[r]} has non-finite entry {mu[r, j]} at {j}")
        return mu

    def _add(self, costs, tuples) -> None:
        """Add to the master the (c, k) index tuples ``tuples``, none of them held, at ``costs``."""
        self._tuples = np.concatenate([self._tuples, tuples])
        self._costs = np.concatenate([self._costs, costs])
        self._lp.add_cols(costs, np.zeros(len(costs)), *self._columns(tuples))

    def _grow(self, tuples, costs=None) -> None:
        """Add the distinct (c, k) index ``tuples`` the master does not hold,
        at costs from ``evaluate_batch``; or, given their ``costs`` (a pricing
        round's), add them all, raising if the master holds one."""
        keys = (tuples @ self._strides).tolist()
        if costs is None:
            tuples = tuples[[key not in self._held for key in keys]]
            if not len(tuples):
                return
            costs = self._C.evaluate_batch(tuples)
        elif not self._held.isdisjoint(keys):
            raise RuntimeError(f"{self._lp.what} failed: pricing returned a column the master holds")
        self._held.update(keys)
        self._add(costs, tuples)

    def _nw_corner(self, mu) -> np.ndarray:
        """The multimarginal north-west-corner tuples of ``mu``, at most
        m(n - 1) + 1, distinct and sorted; unconstrained modes take 0.

        Walking t up from 0, each constrained mode moves on to its next entry
        once t reaches the cumulative sum of its marginal; each stretch of t
        between two such steps is one tuple, and the stretches' lengths make
        a coupling on these tuples."""
        cum = np.cumsum(mu, axis=1)
        starts = np.unique(np.append(cum[:, :-1], 0.0))
        starts = starts[starts < 1.0]
        tuples = np.zeros((starts.size, self.k), dtype=np.int64)
        for row, i in zip(cum, self.constrained):
            tuples[:, i] = np.searchsorted(row, starts, side="right")
        np.minimum(tuples, self.n - 1, out=tuples)  # a row summing to just under 1
        # every column is nondecreasing, so the rows are sorted and repeats adjacent
        return tuples[np.append(True, (tuples[1:] != tuples[:-1]).any(axis=1))]

    def _potentials(self, y) -> np.ndarray:
        """The equality-row duals ``y`` as a read-only (k, n) array, free modes getting zero rows."""
        p = np.zeros((self.k, self.n))
        p[self._rows] = y.reshape(-1, self.n)
        p.setflags(write=False)
        return p

    def _run(self, mu):
        """Answer the checked marginals ``mu`` under the lock: run the master,
        and on column generation price until the pricer returns no tuple.
        Returns x, the objective value, the last run's equality-row duals, the
        iterations summed over all runs, and the index tuple of each column of
        x."""
        self._lp.set_rhs(mu.ravel())
        if self._price is None:
            return (*self._lp.solve(), self._tuples)
        self._grow(self._nw_corner(mu))
        rounds, nit = 0, 0
        while True:
            x, fun, y, it = self._lp.solve()
            rounds, nit = rounds + 1, nit + it
            worst, below, costs = self._price(self._potentials(y), self.n * self.k, -_DUAL_TOL)
            if not len(below):
                if worst < -_DUAL_TOL:  # the certificate: no tuple below -_DUAL_TOL
                    raise RuntimeError(f"{self._lp.what} failed: pricing found reduced cost "
                                       f"{worst:.3g} below -{_DUAL_TOL:g} but no column")
                _log.debug("%s: %d pricing rounds, %d columns held, %d simplex iterations",
                           self._lp.what, rounds, len(self._tuples), nit)
                return x, fun, y, nit, self._tuples
            self._grow(below, costs)

    def _keep_basis(self) -> None:
        """Put the last run's optimal basis at the front of the kept ones."""
        cols, rows = self._lp.basis()
        block = np.zeros((self.n * len(self.constrained), cols.size))
        block[self._eq_rows(self._tuples[cols]), np.arange(cols.size)[:, None]] = 1.0
        self._bases.insert(0, _OptimalBasis(block, rows, self._costs[cols]))
        del self._bases[_BASIS_CACHE_SIZE:]

    def value(self, mu) -> float:
        """Optimal value for the marginals ``mu``, from a kept optimal basis
        where one is feasible, else from a HiGHS run."""
        mu = self._checked(mu)
        with self._lock:
            if self._bases is None:
                return float(self._run(mu)[1])
            b = mu.ravel()
            for i, basis in enumerate(self._bases):
                value = basis.value(b)
                if value is not None:
                    self._bases.insert(0, self._bases.pop(i))
                    return value
            fun = self._run(mu)[1]
            self._keep_basis()
            return float(fun)

    def solve(self, mu) -> MotSolution:
        """Optimal value, basic coupling and dual potentials for the marginals ``mu``.

        Unconstrained modes get zero potentials; the coupling is a basic
        solution (support at most the constraint-matrix rank).  Always a
        HiGHS run: the kept bases serve ``value`` only.
        """
        mu = self._checked(mu)
        with self._lock:
            x, fun, y, nit, tuples = self._run(mu)
        p = self._potentials(y)
        support = x > _SUPPORT_EPS
        coupling = CouplingTensor.from_support(self.n, self.k, tuples[support], x[support])
        return MotSolution(
            value=float(fun),
            coupling=coupling,
            duals=p,
            backend="lp",
            iterations=int(nit),
            dual_value=float(mu.ravel() @ p[self._rows].ravel()),
        )


def solve_lp(C: CostOracle, spec: MarginalSpec) -> MotSolution:
    """Exact transport value by LP, from a one-shot ``TransportLP`` (the full
    LP below ``_CG_MIN_COLUMNS`` columns, column generation from there on);
    either materializes the cost once, so n^k must fit under the dense cap.
    Solved with HiGHS simplex (dual, and primal after each pricing round): the
    coupling is a basic solution and the equality multipliers are optimal
    potentials, zero on unconstrained modes.
    Callers querying one cost repeatedly should keep a ``TransportLP``.
    """
    if (C.n, C.k) != (spec.n, spec.k):
        raise ValueError("dimension mismatch between cost and marginal spec")
    return TransportLP(C, spec.constrained).solve(np.array(spec.marginals))


def sinkhorn(C: CostOracle, spec: MarginalSpec, cfg: SinkhornConfig) -> MotSolution:
    """Multimarginal Sinkhorn scaling of the Gibbs kernel.

    The iterate is P = K * u_0 (x) ... (x) u_{k-1}: the kernel K = exp(log_K),
    where log_K = -eta C shifted to max 0, times one scaling vector per mode
    (all ones on free modes).  One cycle sets the scaling of each constrained
    mode in turn to mu_i / c_i, where c_i sums K * (x)_{m != i} u_m over
    every mode but i, so that its marginal matches (zero targets keep zero
    scalings); iteration stops once the summed l1 marginal error falls under
    ``cfg.tol``.  The reported value is the entropically regularized objective
    <P, C> - H(P)/eta of the best iterate, materialized once at the end: the
    converged iterate, or else the one of least error, where a later iterate
    replaces the best so far only if its error is lower by more than both
    errors' rounding bounds (``_gap_rounding``).  Callers wanting exact
    feasibility compose with ``round_to_polytope``.

    K is exponentiated once per solve, and the c_i come from one
    ``PrefixContractions`` of it, so a cycle and its marginal gap read at
    most two arrays of K's size.  A mode whose live c_i entries could have
    lost precision to underflow (``_SLICE_SUM_FLOOR``) takes the max-shifted
    ``logsumexp`` of log_K + sum_m log u_m instead.  A scaling entry leaving
    its safe range (``_SCALING_LOG2_RANGE``) is absorbed: every scaling's log
    is folded into log_K, K is recomputed and the scalings are reset to 1.
    """
    if (C.n, C.k) != (spec.n, spec.k):
        raise ValueError("dimension mismatch between cost and marginal spec")
    if not spec.constrained:
        raise ValueError("at least one constrained mode is required")
    n, k = C.n, C.k
    cost = C.materialize()
    top = -cfg.eta * float(cost.min())  # the largest entry of -eta C

    def log_kernel(logs, out):
        """log_K plus the log-scalings ``logs[m]`` along each mode m, into ``out``."""
        np.multiply(cost, -cfg.eta, out=out)
        out -= top
        for m, v in logs.items():
            out += along(v, m, k)
        return out

    K = np.exp(log_kernel({}, np.empty_like(cost)))
    ones = [np.ones(n)] * k
    sums = PrefixContractions(K, ones)  # the scalings u and contractions c_i of K
    hi = [1.0] * k  # max(1, max u_m)
    a = {i: np.zeros(n) for i in spec.constrained}  # log-scalings absorbed into K
    r = _SCALING_LOG2_RANGE // k
    low, high = 2.0**-r, 2.0**r
    live = {i: mu > 0 for i, mu in zip(spec.constrained, spec.marginals)}
    with np.errstate(divide="ignore"):
        log_mu = {i: np.log(mu) for i, mu in zip(spec.constrained, spec.marginals)}

    def folded(skip):
        """The log-scalings absorbed so far plus those of u, leaving out u_skip."""
        with np.errstate(divide="ignore"):
            return {m: a[m] if m == skip else a[m] + np.log(sums.scalings[m]) for m in a}

    rounding = _gap_rounding(n, k, len(spec.constrained))

    def marginal_gap():
        """The summed l1 marginal error, and a bound on its rounding error."""
        err = mass = 0.0
        for i, mu in zip(spec.constrained, spec.marginals):
            m = sums.scalings[i] * sums.contraction(i)
            err += float(np.abs(m - mu).sum())
            mass += float(m.sum()) + 1.0
        return err, rounding * mass

    best_err, best_slack = marginal_gap()
    best = (a, list(sums.scalings))
    converged = best_err <= cfg.tol
    cycles = absorptions = fallbacks = 0
    while not converged and cycles < cfg.max_iters:
        cycles += 1
        for i, mu in zip(spec.constrained, spec.marginals):
            c = sums.contraction(i)
            log_ui = None  # set when u_i leaves the safe range
            if c[live[i]].min() >= _SLICE_SUM_FLOOR * math.prod(hi[:i] + hi[i + 1:]):
                ui = np.zeros(n)
                np.divide(mu, c, out=ui, where=live[i])
                if ui[live[i]].min() < low or ui.max() > high:
                    with np.errstate(divide="ignore", invalid="ignore"):
                        log_ui = np.where(live[i], log_mu[i] - np.log(c), -np.inf)
            else:
                fallbacks += 1
                log_c = logsumexp(log_kernel(folded(i), np.empty_like(K)), axis=others(i, k))
                # a zero target's slice can sum to -inf, where -inf - -inf is nan
                with np.errstate(invalid="ignore"):
                    log_ui = np.where(live[i], log_mu[i] - log_c, -np.inf)
                if math.log(low) <= log_ui[live[i]].min() and log_ui.max() <= math.log(high):
                    ui, log_ui = np.exp(log_ui), None
            if log_ui is None:
                sums.set(i, ui)
                hi[i] = max(1.0, float(ui.max()))
            else:
                absorptions += 1
                a = folded(i)
                a[i] = a[i] + log_ui
                np.exp(log_kernel(a, K), out=K)
                sums.reset(ones)
                hi = [1.0] * k
        err, slack = marginal_gap()
        if err <= cfg.tol or err + slack < best_err - best_slack:
            best, best_err, best_slack = (a, list(sums.scalings)), err, slack
        if err <= cfg.tol:
            converged = True

    best_a, best_u = best
    if best_a is not a:  # the best iterate predates an absorption
        np.exp(log_kernel(best_a, K), out=K)
    P = scale_modes(K, best_u, out=K)
    lin = float(P.reshape(-1) @ cost.reshape(-1))
    coupling = CouplingTensor.from_dense(P)
    ent = -float(xlogy(P, P, out=P).sum())  # P is spent: coupling holds a copy
    _log.debug("sinkhorn %d^%d: %d cycles, %d absorptions, %d logsumexp fallbacks, marginal error %.3g",
               n, k, cycles, absorptions, fallbacks, best_err)
    return MotSolution(
        value=lin - ent / cfg.eta,
        coupling=coupling,
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
    cost is submodular.  ``check`` verifies that by enumeration, which is
    possible only while k is at most SET_FUNCTION_TABLE_CAP; above it, pass
    check=False to trust the instance.
    """
    if check:
        if C.k > SET_FUNCTION_TABLE_CAP:
            raise ValueError(
                f"k={C.k} exceeds the enumeration cap {SET_FUNCTION_TABLE_CAP} of the submodularity "
                "check; pass check=False to trust the instance"
            )
        if not is_submodular(C):
            raise ValueError("cost is not submodular; the chain coupling is not optimal")
    value = lovasz_extension(C, x)
    return MotSolution(
        value=value,
        coupling=chain_coupling(C.k, x),
        duals=None,
        backend="lovasz",
    )


def check_dual_feasibility(C: CostOracle, p) -> bool:
    """Enumerated feasibility of the (k, n) potentials p: every slack
    C_j - sum_i p[i][j_i] >= -``_DUAL_TOL``, the tolerance of the LP certificate."""
    return float(objective_tensor(C, p).min()) >= -_DUAL_TOL
