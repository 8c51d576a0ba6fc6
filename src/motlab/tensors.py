"""Coupling tensors, marginal specifications, and transportation-polytope utilities.

A coupling is a nonnegative tensor with k modes of size n each.  Marginal
specifications fix the per-mode marginals for a subset of the modes (the fully
fixed case is the classical transportation polytope).  Everything here is a
plain value: construction validates, and no operation mutates its inputs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields

import numpy as np

DEFAULT_DENSE_CAP = 10**7

# Tolerance for "exact" marginal membership; chosen for double-precision
# accumulation over at most DEFAULT_DENSE_CAP entries.
MEMBERSHIP_TOL = 1e-9
# Looser tolerance for normalization preconditions (entropy, rounding).
MASS_TOL = 1e-6
# Below this total deficit the rounding correction term is skipped (avoids 0/0).
DEFICIT_EPS = 1e-12


class CapExceededError(ValueError):
    """An operation would require more dense entries than $MOTLAB_DENSE_CAP allows."""


def check_cap(n: int, k: int) -> int:
    """Return n**k if it fits under the dense-entry limit, else raise CapExceededError.

    The limit is a deployment setting, $MOTLAB_DENSE_CAP, read on every call
    (DEFAULT_DENSE_CAP when unset); every n^k allocation checks it here.
    """
    total = n**k
    env = os.environ.get("MOTLAB_DENSE_CAP")
    try:
        limit = int(env) if env else DEFAULT_DENSE_CAP
    except ValueError:
        raise ValueError(f"MOTLAB_DENSE_CAP must be an integer, got {env!r}") from None
    if total > limit:
        raise CapExceededError(f"n^k = {n}^{k} = {total} exceeds dense cap {limit}")
    return total


def all_index_tuples(n: int, k: int, lo: int = 0, hi: int | None = None) -> np.ndarray:
    """Index tuples lo..hi (exclusive) of the lexicographic enumeration of [n]^k,
    as an (m, k) int array."""
    if hi is None:
        hi = n**k
    flat = np.arange(lo, hi, dtype=np.int64)
    return np.stack(np.unravel_index(flat, (n,) * k), axis=1)


def checked_modes(constrained, k: int) -> tuple[int, ...]:
    """The constrained modes as a tuple, once they are distinct integers (not
    bools) in [0, k): the one rule of ``MarginalSpec`` and ``TransportLP``."""
    modes = tuple(constrained)
    if any(isinstance(i, bool) or not isinstance(i, (int, np.integer)) for i in modes):
        raise ValueError(f"constrained modes must be distinct integers, got {modes}")
    if len(set(modes)) < len(modes):
        raise ValueError(f"duplicate constrained mode: modes must be distinct integers, got {modes}")
    if any(i < 0 or i >= k for i in modes):
        raise ValueError(f"constrained mode out of range [0, {k}), got {modes}")
    return modes


def _equal_fields(self, other):
    """Value equality for the dataclasses here, whose fields hold arrays: the
    same type and every field equal under ``np.array_equal``."""
    if type(other) is not type(self):
        return NotImplemented
    return all(np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))


@dataclass(frozen=True)
class CouplingTensor:
    """A nonnegative k-mode tensor over [n]^k, dense or sparse.

    Sparse storage is a read-only (m, k) int64 ``index`` of distinct tuples in
    lexicographic order and an (m,) ``values`` array of strictly positive
    entries.  Dense storage is only permitted while n^k fits under
    $MOTLAB_DENSE_CAP.
    """

    n: int
    k: int
    dense: np.ndarray | None = None
    index: np.ndarray | None = None
    values: np.ndarray | None = None

    __eq__ = _equal_fields

    @classmethod
    def from_dense(cls, array: np.ndarray) -> "CouplingTensor":
        array = np.asarray(array, dtype=float)
        k = array.ndim
        n = array.shape[0]
        if array.shape != (n,) * k:
            raise ValueError(f"expected cubical shape, got {array.shape}")
        check_cap(n, k)
        if array.size and array.min() < 0:
            raise ValueError(f"negative entry {array.min()} in coupling tensor")
        array = array.copy()
        array.setflags(write=False)
        return cls(n=n, k=k, dense=array)

    @classmethod
    def from_support(cls, n: int, k: int, index, values) -> "CouplingTensor":
        """Sparse tensor with entry values[r] at tuple index[r], an (m, k)
        array; the tuples must be in range and distinct, the values positive."""
        index, values = np.asarray(index, dtype=np.int64), np.asarray(values, dtype=float)
        if values.ndim != 1 or index.shape != (len(values), k):
            raise ValueError(f"index of shape {index.shape} and values of shape {values.shape} are not (m, {k}) and (m,)")
        bad = ((index < 0) | (index >= n)).any(axis=1)
        if bad.any():
            raise ValueError(f"index {tuple(index[bad][0].tolist())} out of range for n={n}, k={k}")
        if (values <= 0).any():
            r = int(np.argmax(values <= 0))
            raise ValueError(f"sparse entry at {tuple(index[r].tolist())} must be positive, got {values[r]}")
        order = np.lexsort(index.T[::-1])
        index, values = index[order], values[order]
        dup = (index[1:] == index[:-1]).all(axis=1)
        if dup.any():
            raise ValueError(f"duplicate sparse index {tuple(index[1:][dup][0].tolist())}")
        index.setflags(write=False)
        values.setflags(write=False)
        return cls(n=n, k=k, index=index, values=values)

    @classmethod
    def point_mass(cls, n: int, jvec) -> "CouplingTensor":
        return cls.from_support(n, len(jvec), [jvec], [1.0])

    @property
    def is_sparse(self) -> bool:
        return self.index is not None

    def support(self) -> tuple[np.ndarray, np.ndarray]:
        """(m, k) index array and (m,) value array of the nonzero entries."""
        if self.is_sparse:
            return self.index, self.values
        flat = self.dense.ravel()
        nz = np.flatnonzero(flat)
        idx = np.stack(np.unravel_index(nz, self.dense.shape), axis=1)
        return idx, flat[nz]

    def to_dense(self) -> np.ndarray:
        if not self.is_sparse:
            return self.dense
        check_cap(self.n, self.k)
        out = np.zeros((self.n,) * self.k)
        out[tuple(self.index.T)] = self.values
        return out

    def total_mass(self) -> float:
        return float((self.values if self.is_sparse else self.dense).sum())

    def nnz(self) -> int:
        return len(self.values) if self.is_sparse else int(np.count_nonzero(self.dense))


@dataclass(frozen=True)
class MarginalSpec:
    """Marginals for the constrained modes I of a k-mode coupling.

    ``constrained`` is a sorted tuple of mode indices (0-based); ``marginals``
    is aligned with it, each a length-n vector in the simplex.  ``I = all k
    modes`` is the fully fixed transportation polytope.
    """

    n: int
    k: int
    constrained: tuple[int, ...]
    marginals: tuple[np.ndarray, ...]

    __eq__ = _equal_fields

    def __post_init__(self):
        if self.k <= 0 or self.n <= 0:
            raise ValueError("n and k must be positive")
        if tuple(sorted(checked_modes(self.constrained, self.k))) != self.constrained:
            raise ValueError("constrained modes must be sorted")
        if len(self.marginals) != len(self.constrained):
            raise ValueError("one marginal required per constrained mode")
        frozen = []
        for i, mu in zip(self.constrained, self.marginals):
            mu = np.asarray(mu, dtype=float)
            if mu.shape != (self.n,):
                raise ValueError(f"marginal for mode {i} has shape {mu.shape}, want ({self.n},)")
            if not np.isfinite(mu).all():
                raise ValueError(f"marginal for mode {i} has a non-finite entry")
            if mu.min() < -1e-15:
                raise ValueError(f"marginal for mode {i} has negative entry {mu.min()}")
            mu = np.maximum(mu, 0.0)
            if abs(mu.sum() - 1.0) > MEMBERSHIP_TOL:
                raise ValueError(f"marginal for mode {i} sums to {mu.sum()}, not 1 +- {MEMBERSHIP_TOL}")
            mu.setflags(write=False)
            frozen.append(mu)
        object.__setattr__(self, "marginals", tuple(frozen))

    @classmethod
    def fully_fixed(cls, mus) -> "MarginalSpec":
        mus = [np.asarray(mu, dtype=float) for mu in mus]
        k = len(mus)
        n = len(mus[0])
        return cls(n=n, k=k, constrained=tuple(range(k)), marginals=tuple(mus))

    @classmethod
    def partial(cls, n: int, k: int, fixed: dict) -> "MarginalSpec":
        """fixed maps mode index -> marginal vector; other modes are free."""
        modes = tuple(sorted(fixed))
        return cls(n=n, k=k, constrained=modes, marginals=tuple(fixed[i] for i in modes))

    @classmethod
    def point_masses(cls, n: int, jvec) -> "MarginalSpec":
        mus = []
        for j in jvec:
            e = np.zeros(n)
            e[j] = 1.0
            mus.append(e)
        return cls.fully_fixed(mus)

    @property
    def is_fully_fixed(self) -> bool:
        return self.constrained == tuple(range(self.k))

    def marginal_for(self, i: int) -> np.ndarray:
        return self.marginals[self.constrained.index(i)]


def along(v: np.ndarray, i: int, k: int) -> np.ndarray:
    """A length-n vector reshaped to broadcast along mode i of a k-mode tensor."""
    return v.reshape((1,) * i + (-1,) + (1,) * (k - i - 1))


def others(i: int, k: int) -> tuple[int, ...]:
    """Every mode of a k-mode tensor but i: the axes summed out for the i-th marginal."""
    return tuple(ax for ax in range(k) if ax != i)


# Each gemv of ``PrefixContractions.contraction`` contracts the fewest
# trailing modes whose Kronecker vector has at least this many entries.  Mean
# over all modes of one contraction from its held prefix, one BLAS thread on a
# 2-core VM, against contracting every trailing mode in one gemv: 7^6 12.5 vs
# 23.4 us, 2^17 26.8 vs 128 us, 3^11 23.2 vs 83.3 us; thresholds 32 and 256
# were within 5% of 64 on these shapes.
_GEMV_MIN_LENGTH = 64


def _kron(vecs) -> np.ndarray:
    if not vecs:
        return np.ones(1)
    w = vecs[0]
    for v in vecs[1:]:
        w = np.multiply.outer(w, v).ravel()
    return w


def scale_modes(arr: np.ndarray, scalings, out=None) -> np.ndarray:
    """arr ⊙ u_0 ⊗ ... ⊗ u_{k-1} (into ``out`` if given), as one multiply
    by the Kronecker vector of the scalings.  That vector is the outer
    product of its two halves' Kronecker vectors, so both its build and the
    multiply run inner loops of n^(k/2) entries or more."""
    h = (len(scalings) + 1) // 2
    w = np.multiply.outer(_kron(scalings[:h]), _kron(scalings[h:]))
    return np.multiply(arr, w.reshape(arr.shape), out=out)


class PrefixContractions:
    """Every mode's contraction c_i of one k-mode array under scalings that
    change one mode at a time, sharing work between modes.

    c_i sums arr ⊙ u_0 ⊗ ... ⊗ u_{k-1} over every mode but i, leaving u_i
    out, so u_i ⊙ c_i is the i-th marginal of the scaled array.  Holds
    prefixes T_0 = arr and T_{j+1} = u_j contracted into the leading mode of
    T_j (one gemv), so T_j has modes j..k-1 and n^(k-j) entries.  c_i
    contracts the trailing modes of T_i by a chain of BLAS gemvs, last modes
    first, each against the Kronecker product of the fewest modes' scalings
    that has ``_GEMV_MIN_LENGTH`` entries (or of all modes left): the first
    gemv reads T_i once, the later ones read an array at least 64 times
    smaller, and nothing of size n^k is written.  Neither T_0..T_i nor c_i
    reads u_i, so ``set(i, v)`` keeps them and drops every other prefix and
    held contraction.  Updating the modes in ascending order and then asking
    for every c_i reads arrays of n^k entries twice (T_0 for T_1, and for
    c_0); every other read is of a T_j, j >= 1.  ``reset`` starts over, as
    after ``arr`` changed in place.  A contraction is a new array, never a
    view of ``arr`` or of a prefix.  Callers read ``scalings`` and must not
    modify a returned contraction.
    """

    __slots__ = ("scalings", "_prefixes", "_held")

    def __init__(self, arr: np.ndarray, scalings):
        self._prefixes = [arr]
        self.reset(scalings)

    def reset(self, scalings) -> None:
        self.scalings = list(scalings)
        del self._prefixes[1:]
        self._held = {}

    def set(self, i: int, v: np.ndarray) -> None:
        self.scalings[i] = v
        del self._prefixes[i + 1 :]
        self._held = {i: self._held[i]} if i in self._held else {}

    def contraction(self, i: int) -> np.ndarray:
        if i not in self._held:
            T, u = self._prefixes, self.scalings
            while len(T) <= i:
                j = len(T) - 1
                T.append((u[j] @ T[j].reshape(len(u[j]), -1)).reshape(T[j].shape[1:]))
            n, y = len(u[i]), T[i].reshape(-1)
            last = len(u) - 1  # the last mode not yet contracted
            while last > i:
                b = 1
                while b < last - i and n**b < _GEMV_MIN_LENGTH:
                    b += 1
                y = y.reshape(-1, n**b) @ _kron(u[last - b + 1 : last + 1])
                last -= b
            self._held[i] = np.array(y)  # a copy: at the last mode y views T_i
        return self._held[i]


def marginal(P: CouplingTensor, i: int) -> np.ndarray:
    """The i-th marginal: entry j sums P over all tuples whose i-th coordinate is j."""
    if i < 0 or i >= P.k:
        raise ValueError(f"mode index {i} out of range for k={P.k}")
    if P.is_sparse:
        return np.bincount(P.index[:, i], weights=P.values, minlength=P.n)
    return P.dense.sum(axis=others(i, P.k))


def marginal_matrix(P: CouplingTensor) -> np.ndarray:
    """(k, n) array stacking all k marginals."""
    return np.stack([marginal(P, i) for i in range(P.k)])


def is_coupling(P: CouplingTensor, spec: MarginalSpec, tol: float = MEMBERSHIP_TOL) -> bool:
    """True iff every constrained marginal matches within l1 tolerance and
    entries are nonnegative up to -tol."""
    if (P.n, P.k) != (spec.n, spec.k):
        raise ValueError(f"dimension mismatch: tensor ({P.n},{P.k}) vs spec ({spec.n},{spec.k})")
    vals = P.values if P.is_sparse else P.dense
    if vals.size and vals.min() < -tol:
        return False
    for i, mu in zip(spec.constrained, spec.marginals):
        if np.abs(marginal(P, i) - mu).sum() > tol:
            return False
    return True


def entropy(P: CouplingTensor) -> float:
    """Shannon entropy -sum p log p (natural log, 0 log 0 = 0).

    Requires total mass 1 within the normalization tolerance; the value lies
    in [0, k ln n].
    """
    mass = P.total_mass()
    if abs(mass - 1.0) > MASS_TOL:
        raise ValueError(f"entropy requires a normalized tensor, total mass {mass}")
    _, vals = P.support()
    vals = vals[vals > 0]
    if len(vals) == 0:
        return 0.0
    return float(-np.sum(vals * np.log(vals)))


def inner_product(P: CouplingTensor, C) -> float:
    """<P, C> summed over the support of P against an implicit cost oracle."""
    if (P.n, P.k) != (C.n, C.k):
        raise ValueError(f"dimension mismatch: tensor ({P.n},{P.k}) vs cost ({C.n},{C.k})")
    idx, vals = P.support()
    if len(vals) == 0:
        return 0.0
    return float(np.dot(vals, C.evaluate_batch(idx)))


def round_to_polytope(P: CouplingTensor, spec: MarginalSpec) -> CouplingTensor:
    """Repair an almost-coupling so its marginals match a fully fixed spec exactly.

    Two stages: first each mode-i slice j is scaled by
    min(1, mu_i[j] / m_i(P)[j]), mode by mode, which drives every marginal
    weakly below its target; then the rank-1 outer product of the per-mode
    deficit vectors, normalized by the (k-1)-th power of the shared deficit
    mass, restores the missing mass.  The marginals come from one
    ``PrefixContractions``, and the k slice scalings are applied to the
    tensor in one pass at the end.  The result satisfies the marginals to
    membership tolerance and moves P by at most
    2 * sum_i ||m_i(P) - mu_i||_1 in entrywise l1.
    """
    if not spec.is_fully_fixed:
        raise ValueError("rounding requires a fully fixed marginal spec")
    if (P.n, P.k) != (spec.n, spec.k):
        raise ValueError("dimension mismatch between tensor and spec")
    mass = P.total_mass()
    if abs(mass - 1.0) > MASS_TOL:
        raise ValueError(f"rounding requires total mass 1 +- {MASS_TOL}, got {mass}")

    k = P.k
    # the slice scalings x_i, each from the i-th marginal of P ⊙ x_0 ⊗ ... ⊗ x_{i-1}
    dense = P.to_dense()
    sums = PrefixContractions(dense, [np.ones(P.n)] * k)
    for i, mu in enumerate(spec.marginals):
        m = sums.contraction(i)
        with np.errstate(divide="ignore", invalid="ignore"):
            scale = np.where(m > 0, np.minimum(1.0, mu / m), 1.0)
        sums.set(i, scale)
    x = sums.scalings
    deficits = [np.maximum(mu - x[i] * sums.contraction(i), 0.0) for i, mu in enumerate(spec.marginals)]
    arr = scale_modes(dense, x)
    total = float(np.mean([d.sum() for d in deficits]))
    if total >= DEFICIT_EPS:
        arr += _kron([deficits[0] / total ** (k - 1)] + deficits[1:]).reshape(arr.shape)
    return CouplingTensor.from_dense(arr)
