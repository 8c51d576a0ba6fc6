"""Reference solvers for weighted tuple minimization.

The weighted objective for a cost C and weight matrix p (one length-n vector
per mode) is f(j) = C_j - sum_i p[i][j_i] over index tuples j in [n]^k.  The
brute-force path enumerates all tuples at desk scale; the width-2 CNF family
additionally admits a polynomial satisfiability solver for the unweighted
case p = 0 (the weighted case has no such shortcut here and is served only by
enumeration).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .costs import CostOracle, TwoSatCost
from .graphs import twosat_satisfying_assignment
from .tensors import along


@dataclass(frozen=True)
class MinResult:
    """Minimum value and a witness tuple; value = f(witness) for the solved objective,
    and value - min f <= gap (0 from the exact solvers here)."""

    value: float
    witness: tuple[int, ...]
    queries: int = 0
    gap: float = 0.0


def as_weights(p, n: int, k: int) -> np.ndarray:
    """Validate and return a finite (k, n) weight matrix; None means all zeros."""
    if p is None:
        return np.zeros((k, n))
    p = np.asarray(p, dtype=float)
    if p.shape != (k, n):
        raise ValueError(f"weight matrix has shape {p.shape}, want ({k}, {n})")
    if not np.isfinite(p).all():
        raise ValueError("weight matrix has a non-finite entry")
    return p


def weighted_objective(C: CostOracle, p, J: np.ndarray) -> np.ndarray:
    """f(j) = C_j - sum_i p[i][j_i] for an (m, k) batch of tuples."""
    J = np.asarray(J, dtype=np.int64)
    p = as_weights(p, C.n, C.k)
    vals = C.evaluate_batch(J)
    return vals - p[np.arange(C.k), J].sum(axis=1)


def objective_tensor(C: CostOracle, p) -> np.ndarray:
    """Dense tensor of the weighted objective f; requires n^k under $MOTLAB_DENSE_CAP."""
    f = np.array(C.materialize(), dtype=float)
    p = as_weights(p, C.n, C.k)
    for i in range(C.k):
        f -= along(p[i], i, C.k)
    return f


def min_bruteforce(C: CostOracle, p=None) -> MinResult:
    """Exact minimum of the weighted objective by full enumeration.

    Ties break to the lexicographically smallest witness (the first argmin in
    row-major order).
    """
    f = objective_tensor(C, p)
    flat = int(np.argmin(f))
    witness = tuple(int(j) for j in np.unravel_index(flat, f.shape))
    # re-evaluate through the canonical per-tuple formula so the reported
    # value matches f(witness) bitwise
    value = float(weighted_objective(C, p, np.asarray([witness]))[0])
    return MinResult(value=value, witness=witness)


def min_objective_gap(C: CostOracle, p=None) -> float:
    """Smallest strictly positive spacing between distinct objective values
    (+inf when the objective is constant)."""
    f = objective_tensor(C, p)
    vals = np.unique(f.ravel())
    if len(vals) < 2:
        return float("inf")
    diffs = np.diff(vals)
    diffs = diffs[diffs > 0]
    return float(diffs.min()) if len(diffs) else float("inf")


def twosat_min_zero(C: TwoSatCost) -> MinResult:
    """Unweighted minimum for the 2-CNF cost family in polynomial time.

    Satisfiable formulas give value -1 with a satisfying witness (found via
    implication-graph strongly connected components); unsatisfiable ones give
    value 0 at the all-false tuple.
    """
    if not isinstance(C, TwoSatCost):
        raise TypeError(f"twosat_min_zero requires the two_sat family, got {getattr(C, 'family', type(C))}")
    assignment = twosat_satisfying_assignment(C.cnf)
    if assignment is None:
        return MinResult(value=0.0, witness=(0,) * C.k)
    return MinResult(value=-1.0, witness=tuple(assignment))
