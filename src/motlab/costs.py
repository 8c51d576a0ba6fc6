"""Implicit cost-tensor families with polynomial-time entry evaluation.

Every family evaluates single entries and batches of index tuples without ever
materializing the full n^k tensor, and reports a certified bound on the
absolute value of its entries.  Builders encode graphs, point sets, ion
configurations, and 2-CNF formulas into costs; brute-force materialization is
available under the dense cap ($MOTLAB_DENSE_CAP) for cross-checking.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .graphs import CnfFormula, KPartiteGraph, UndirectedGraph, twosat_satisfying_assignment
from .tensors import all_index_tuples, along, check_cap

_BATCH = 1 << 16

# |det| below this is treated as exactly singular by the capped log cost.
_DET_FLOOR = 1e-300

SET_FUNCTION_TABLE_CAP = 16

# Slack allowed in the double-increment inequalities of is_submodular and is_supermodular.
_MODULARITY_TOL = 1e-9


class CostOracle:
    """Base interface: dimensions, family tag, entry evaluation, certified bound."""

    n: int
    k: int
    family: str

    def evaluate_batch(self, J: np.ndarray) -> np.ndarray:
        """Entry values for an (m, k) array of index tuples."""
        raise NotImplementedError

    def evaluate(self, jvec) -> float:
        J = np.asarray([tuple(jvec)], dtype=np.int64)
        if J.shape != (1, self.k):
            raise ValueError(f"index tuple {jvec} has wrong length for k={self.k}")
        if J.min() < 0 or J.max() >= self.n:
            raise ValueError(f"index tuple {jvec} out of range for n={self.n}")
        return float(self.evaluate_batch(J)[0])

    def materialize(self) -> np.ndarray:
        """Dense (n,)*k tensor of all entries; requires n^k under $MOTLAB_DENSE_CAP."""
        total = check_cap(self.n, self.k)
        out = np.empty(total)
        for lo in range(0, total, _BATCH):
            hi = min(lo + _BATCH, total)
            out[lo:hi] = self.evaluate_batch(all_index_tuples(self.n, self.k, lo, hi))
        return out.reshape((self.n,) * self.k)

    def pricer(self):
        """Pricing for column generation, the MIN oracle of arXiv 2008.03006:
        price(p, width, below) of (k, n) potentials p returns min_j C_j -
        sum_i p[i][j_i], the tuples below ``below``, a (c, k) array in
        lexicographic order cut to the ``width`` least, and their costs C_j,
        bitwise ``evaluate_batch`` of them.  This default holds the cost
        materialized here, once, gathers the costs from it, and filters
        before it cuts, so which tied tuples it keeps does not depend on
        those above ``below``."""
        cost = self.materialize()

        def price(p, width, below):
            red = cost - along(p[0], 0, cost.ndim)  # a zero row subtracts exactly
            for i in range(1, cost.ndim):
                red -= along(p[i], i, cost.ndim)
            new = np.flatnonzero(red < below)
            if new.size > width:
                new = np.sort(new[np.argpartition(red.ravel()[new], width)[:width]])
            tuples = np.stack(np.unravel_index(new, cost.shape), axis=1)
            return float(red.min()), tuples, cost.ravel()[new]

        return price

    def upper_bound(self) -> float:
        """Certified bound on max |entry| (exact for dense/set-function/2-SAT)."""
        raise NotImplementedError


@dataclass(frozen=True)
class DenseCost(CostOracle):
    """Explicit dense tensor, used at desk scale and as the reference encoding."""

    array: np.ndarray
    family: str = field(default="dense", init=False)

    def __post_init__(self):
        arr = np.asarray(self.array, dtype=float)
        if arr.ndim < 1 or arr.shape != (arr.shape[0],) * arr.ndim:
            raise ValueError(f"expected cubical array, got shape {arr.shape}")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "array", arr)

    @property
    def n(self) -> int:
        return self.array.shape[0]

    @property
    def k(self) -> int:
        return self.array.ndim

    def evaluate_batch(self, J):
        return self.array[tuple(np.asarray(J, dtype=np.int64).T)]

    def materialize(self):
        check_cap(self.n, self.k)
        return self.array

    def upper_bound(self) -> float:
        return float(np.abs(self.array).max())


@dataclass(frozen=True)
class LowRankCost(CostOracle):
    """Sum of rank-1 terms; each term is one length-n vector per mode."""

    n: int
    k: int
    terms: tuple[tuple[np.ndarray, ...], ...]
    family: str = field(default="low_rank", init=False)

    def __post_init__(self):
        if len(self.terms) < 1:
            raise ValueError("at least one rank-1 term required")
        frozen_terms = []
        for term in self.terms:
            if len(term) != self.k:
                raise ValueError(f"term has {len(term)} vectors, want k={self.k}")
            vecs = []
            for u in term:
                u = np.asarray(u, dtype=float)
                if u.shape != (self.n,):
                    raise ValueError(f"factor vector has shape {u.shape}, want ({self.n},)")
                u = u.copy()
                u.setflags(write=False)
                vecs.append(u)
            frozen_terms.append(tuple(vecs))
        object.__setattr__(self, "terms", tuple(frozen_terms))

    def evaluate_batch(self, J):
        J = np.asarray(J, dtype=np.int64)
        out = np.zeros(len(J))
        for term in self.terms:
            prod = term[0][J[:, 0]].copy()
            for i in range(1, self.k):
                prod *= term[i][J[:, i]]
            out += prod
        return out

    def upper_bound(self) -> float:
        total = 0.0
        for term in self.terms:
            prod = 1.0
            for u in term:
                prod *= float(np.abs(u).max())
            total += prod
        return total


@dataclass(frozen=True)
class PairwiseCost(CostOracle):
    """Cost decomposing as a sum of one n-by-n interaction table per mode pair."""

    n: int
    k: int
    tables: dict
    family: str = field(default="pairwise", init=False)

    def __post_init__(self):
        want = {(i, i2) for i in range(self.k) for i2 in range(i + 1, self.k)}
        if set(self.tables) != want:
            raise ValueError(f"need exactly the {len(want)} tables for pairs i < i2")
        frozen = {}
        for key, g in self.tables.items():
            g = np.asarray(g, dtype=float)
            if g.shape != (self.n, self.n):
                raise ValueError(f"table {key} has shape {g.shape}, want ({self.n},{self.n})")
            g = g.copy()
            g.setflags(write=False)
            frozen[key] = g
        object.__setattr__(self, "tables", frozen)

    def evaluate_batch(self, J):
        J = np.asarray(J, dtype=np.int64)
        out = np.zeros(len(J))
        for (i, i2), g in self.tables.items():
            out += g[J[:, i], J[:, i2]]
        return out

    def materialize(self):
        # tables added in evaluate_batch's order, so entries match it bitwise
        check_cap(self.n, self.k)
        out = np.zeros((self.n,) * self.k)
        for (i, i2), g in self.tables.items():
            shape = [1] * self.k
            shape[i] = shape[i2] = self.n
            out += g.reshape(shape)
        return out

    def upper_bound(self) -> float:
        return float(sum(np.abs(g).max() for g in self.tables.values()))


@dataclass(frozen=True)
class DeterminantCost(CostOracle):
    """Determinant-repulsion cost over n points in R^k.

    variant "neg_abs_det": entry is -|det| of the k x k matrix of selected
    points.  variant "capped_neg_log_abs_det": entry is min(0, -log |det|),
    with near-singular determinants mapped to the capped value 0.  Entries are
    invariant under permuting the tuple (column swaps only flip the sign of
    the determinant).
    """

    points: np.ndarray
    variant: str = "neg_abs_det"

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2:
            raise ValueError(f"points must be an (n, k) array, got shape {pts.shape}")
        if self.variant not in ("neg_abs_det", "capped_neg_log_abs_det"):
            raise ValueError(f"unknown determinant variant {self.variant!r}")
        pts = pts.copy()
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def k(self) -> int:
        return self.points.shape[1]

    @property
    def family(self) -> str:
        return "determinant" if self.variant == "neg_abs_det" else "log_determinant"

    def evaluate_batch(self, J):
        J = np.asarray(J, dtype=np.int64)
        out = np.empty(len(J))
        for lo in range(0, len(J), _BATCH):
            block = J[lo : lo + _BATCH]
            # |det| is transpose-invariant, so rows-as-points is fine (LU via getrf).
            absdet = np.abs(np.linalg.det(self.points[block]))
            if self.variant == "neg_abs_det":
                out[lo : lo + len(block)] = -absdet
            else:
                with np.errstate(divide="ignore"):
                    logd = np.where(absdet < _DET_FLOOR, 0.0, -np.log(np.maximum(absdet, _DET_FLOOR)))
                out[lo : lo + len(block)] = np.minimum(0.0, logd)
        return out

    def upper_bound(self) -> float:
        # Hadamard: |det| is at most the product of the k largest column norms.
        norms = np.linalg.norm(self.points, axis=1)
        top = float(np.max(norms, initial=0.0))
        hadamard = top**self.k
        if self.variant == "neg_abs_det":
            return hadamard
        return max(0.0, float(np.log(hadamard))) if hadamard > 0 else 0.0


@dataclass(frozen=True)
class SetFunctionCost(CostOracle):
    """Binary-mode cost viewed as a set function on subsets of the k modes.

    Subset S corresponds to the tuple with coordinate 1 exactly on the modes
    in S; masks use bit i for mode i.  Stored as a full 2^k table when k is
    small enough for brute enumeration, otherwise as an implicit evaluator
    with a caller-supplied bound.
    """

    k: int
    table: np.ndarray | None = None
    fn: object | None = None
    c_max_hint: float | None = None
    n: int = field(default=2, init=False)
    family: str = field(default="set_function", init=False)

    def __post_init__(self):
        if (self.table is None) == (self.fn is None):
            raise ValueError("provide exactly one of table or fn")
        if self.table is not None:
            t = np.asarray(self.table, dtype=float)
            if t.shape != (2**self.k,):
                raise ValueError(f"table has shape {t.shape}, want ({2 ** self.k},)")
            t = t.copy()
            t.setflags(write=False)
            object.__setattr__(self, "table", t)

    def value_of_set(self, mask: int) -> float:
        if self.table is not None:
            return float(self.table[mask])
        return float(self.fn(int(mask)))

    def with_table(self) -> "SetFunctionCost":
        if self.table is not None:
            return self
        if self.k > SET_FUNCTION_TABLE_CAP:
            raise ValueError(f"k={self.k} exceeds set-function table cap {SET_FUNCTION_TABLE_CAP}")
        table = np.array([self.fn(m) for m in range(2**self.k)], dtype=float)
        return SetFunctionCost(k=self.k, table=table)

    def evaluate_batch(self, J):
        J = np.asarray(J, dtype=np.int64)
        masks = J @ (1 << np.arange(self.k, dtype=np.int64))
        if self.table is not None:
            return self.table[masks]
        return np.array([self.fn(int(m)) for m in masks], dtype=float)

    def upper_bound(self) -> float:
        if self.table is not None:
            return float(np.abs(self.table).max())
        if self.c_max_hint is None:
            raise ValueError("implicit set function needs c_max_hint for a certified bound")
        return float(self.c_max_hint)


@dataclass(frozen=True)
class IonCost(CostOracle):
    """Pair-potential energy of ion tuples; Coulomb or Coulomb-Buckingham variant.

    Positions live in R^3 with charges in {-1, +1}.  Selecting the same
    position twice (including repeated indices) is penalized with the entry
    value M.  The Buckingham variant additionally charges M to any tuple whose
    selected charges do not sum to zero, and on a balanced, collision-free
    tuple sums U(r, q, q') = A_{qq'} exp(-B_{qq'} r) - C_{qq'} / r^6 + qq'/r
    over the selected pairs; the Coulomb variant sums 1/r.

    For the Buckingham variant the penalty must dominate the interaction
    scale: M >= 2 k^2 (2 + A_+ + A_- + C_+ + C_-).
    """

    positions: np.ndarray
    charges: np.ndarray
    k: int
    m_penalty: float
    a_plus: float = 1.0
    a_minus: float = 1.0
    b_plus: float = 1.0
    b_minus: float = 1.0
    c_plus: float = 1.0
    c_minus: float = 1.0
    variant: str = "buckingham"

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        if pos.ndim != 2 or pos.shape[1] != 3:
            raise ValueError(f"positions must be (n, 3), got shape {pos.shape}")
        q = np.asarray(self.charges, dtype=int)
        if q.shape != (pos.shape[0],) or not np.all(np.isin(q, (-1, 1))):
            raise ValueError("charges must be a length-n vector over {-1, +1}")
        if self.variant not in ("coulomb", "buckingham"):
            raise ValueError(f"unknown ion-cost variant {self.variant!r}")
        for name in ("a_plus", "a_minus", "b_plus", "b_minus", "c_plus", "c_minus"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.m_penalty <= 0:
            raise ValueError("penalty M must be positive")
        if self.variant == "buckingham":
            floor = 2 * self.k**2 * (2 + self.a_plus + self.a_minus + self.c_plus + self.c_minus)
            if self.m_penalty < floor:
                raise ValueError(
                    f"Buckingham penalty M={self.m_penalty} below required 2k^2(2+A+C) = {floor}"
                )
        pos = pos.copy()
        pos.setflags(write=False)
        q = q.copy()
        q.setflags(write=False)
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "charges", q)

    @property
    def n(self) -> int:
        return self.positions.shape[0]

    @property
    def family(self) -> str:
        return "coulomb" if self.variant == "coulomb" else "coulomb_buckingham"

    @cached_property
    def _pair_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """(U, collide): n x n pair energies and the zero-distance mask."""
        diff = self.positions[:, None, :] - self.positions[None, :, :]
        dist = np.linalg.norm(diff, axis=2)
        collide = dist == 0.0
        safe = np.where(collide, 1.0, dist)
        if self.variant == "coulomb":
            u = 1.0 / safe
        else:
            prod = np.multiply.outer(self.charges, self.charges)
            a = np.where(prod > 0, self.a_plus, self.a_minus)
            b = np.where(prod > 0, self.b_plus, self.b_minus)
            c = np.where(prod > 0, self.c_plus, self.c_minus)
            u = a * np.exp(-b * safe) - c / safe**6 + prod / safe
        u = np.where(collide, 0.0, u)
        return u, collide

    def evaluate_batch(self, J):
        J = np.asarray(J, dtype=np.int64)
        u, collide = self._pair_tables
        total = np.zeros(len(J))
        bad = np.zeros(len(J), dtype=bool)
        for i in range(self.k):
            for i2 in range(i + 1, self.k):
                total += u[J[:, i], J[:, i2]]
                bad |= collide[J[:, i], J[:, i2]]
        if self.variant == "buckingham":
            bad |= self.charges[J].sum(axis=1) != 0
        return np.where(bad, self.m_penalty, total)

    def upper_bound(self) -> float:
        u, collide = self._pair_tables
        finite = np.abs(u[~collide])
        pair_max = float(finite.max()) if finite.size else 0.0
        pairs = self.k * (self.k - 1) // 2
        return max(self.m_penalty, pairs * pair_max)


@dataclass(frozen=True)
class TwoSatCost(CostOracle):
    """Cost -phi(assignment) of a width-<=2 CNF: -1 on satisfying tuples, 0 otherwise."""

    cnf: CnfFormula
    n: int = field(default=2, init=False)
    family: str = field(default="two_sat", init=False)

    def __post_init__(self):
        if self.cnf.max_width > 2:
            raise ValueError(f"clause width {self.cnf.max_width} > 2")

    @property
    def k(self) -> int:
        return self.cnf.num_vars

    def evaluate_batch(self, J):
        J = np.asarray(J, dtype=np.int64)
        sat = np.ones(len(J), dtype=bool)
        for cl in self.cnf.clauses:
            hit = np.zeros(len(J), dtype=bool)
            for lit in cl:
                hit |= J[:, abs(lit) - 1] == (1 if lit > 0 else 0)
            sat &= hit
        return -sat.astype(float)

    @cached_property
    def _satisfiable(self) -> bool:
        return twosat_satisfying_assignment(self.cnf) is not None

    def upper_bound(self) -> float:
        # Exact: entries are -1 somewhere iff the formula is satisfiable.
        return 1.0 if self._satisfiable else 0.0


def build_clique_tensor(G: KPartiteGraph) -> tuple[LowRankCost, int]:
    """Negated induced-edge-count tensor of a k-partite graph in factored form.

    One rank-1 term per edge: the indicator of each endpoint on its own mode,
    all-ones elsewhere, scaled by -1 so that tuple minimization looks for the
    densest induced tuple.  Returns the cost and the factor count r = |E|,
    which never exceeds n^2 k^2.  An empty graph is represented by a single
    all-zero term.
    """
    n, k = G.n, G.k
    ones = np.ones(n)
    terms = []
    for (i, a), (i2, b) in G.edges:
        vecs = [ones] * k
        ea = np.zeros(n)
        ea[a] = -1.0
        eb = np.zeros(n)
        eb[b] = 1.0
        vecs[i] = ea
        vecs[i2] = eb
        terms.append(tuple(vecs))
    if not terms:
        terms.append(tuple([np.zeros(n)] + [ones] * (k - 1)))
    return LowRankCost(n=n, k=k, terms=tuple(terms)), len(G.edges)


def build_pairwise_from_graph(G: KPartiteGraph) -> PairwiseCost:
    """The same negated induced-edge-count cost as pairwise interaction tables."""
    tables = {
        (i, i2): np.zeros((G.n, G.n)) for i in range(G.k) for i2 in range(i + 1, G.k)
    }
    for (i, a), (i2, b) in G.edges:
        tables[(i, i2)][a, b] = -1.0
    return PairwiseCost(n=G.n, k=G.k, tables=tables)


def build_maxcut_cost(G: UndirectedGraph) -> SetFunctionCost:
    """Negated cut-count set function of a graph on k vertices (supermodular)."""
    k = G.num_vertices
    if k <= SET_FUNCTION_TABLE_CAP:
        masks = np.arange(2**k, dtype=np.int64)
        cut = np.zeros(2**k)
        for u, v in G.edges:
            cut += ((masks >> u) & 1) ^ ((masks >> v) & 1)
        return SetFunctionCost(k=k, table=-cut)
    return SetFunctionCost(
        k=k, fn=lambda m: -float(G.cut_value(int(m))), c_max_hint=float(G.edge_count)
    )


def build_twosat_cost(cnf: CnfFormula) -> TwoSatCost:
    return TwoSatCost(cnf=cnf)


def _increment_inequalities(C: SetFunctionCost) -> np.ndarray:
    """lhs - rhs of C(S+i) + C(S+j) >= C(S+i+j) + C(S) over all S and pairs i<j."""
    if C.k > SET_FUNCTION_TABLE_CAP:
        raise ValueError(f"k={C.k} exceeds enumeration cap {SET_FUNCTION_TABLE_CAP}")
    table = C.with_table().table
    masks = np.arange(2**C.k, dtype=np.int64)
    diffs = []
    for i in range(C.k):
        for j in range(i + 1, C.k):
            free = masks[(masks & ((1 << i) | (1 << j))) == 0]
            lhs = table[free | (1 << i)] + table[free | (1 << j)]
            rhs = table[free | (1 << i) | (1 << j)] + table[free]
            diffs.append(lhs - rhs)
    if not diffs:
        return np.zeros(1)
    return np.concatenate(diffs)


def is_submodular(C: SetFunctionCost) -> bool:
    """Enumerated submodularity check via double-increment inequalities, up to ``_MODULARITY_TOL``."""
    return bool(_increment_inequalities(C).min() >= -_MODULARITY_TOL)


def is_supermodular(C: SetFunctionCost) -> bool:
    return bool(_increment_inequalities(C).max() <= _MODULARITY_TOL)
