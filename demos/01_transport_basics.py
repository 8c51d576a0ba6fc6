#!/usr/bin/env python3
"""Transport basics: couplings, the exact LP backend with dual certificates,
entropic (Sinkhorn) solving, and marginal repair.

Run: python3 demos/01_transport_basics.py
"""

import math

import numpy as np

from motlab import (
    MarginalSpec,
    SinkhornConfig,
    check_dual_feasibility,
    entropy,
    inner_product,
    is_coupling,
    round_to_polytope,
    sinkhorn,
    solve_lp,
)
from motlab.corpus import random_cost, random_marginals

rng = np.random.default_rng(1)

# A random pairwise-interaction cost on 4 modes over 3 support points.
n, k = 3, 4
C = random_cost(rng, "pairwise", n, k)
spec = MarginalSpec.fully_fixed(random_marginals(rng, n, k))

print(f"cost family {C.family}, n={n}, k={k}, certified |entry| bound {C.upper_bound():.3f}")

# --- exact LP: optimal value, sparse coupling, dual potentials -------------
sol = solve_lp(C, spec)
print(f"\nLP value            {sol.value:.6f}")
print(f"dual objective      {sol.dual_value:.6f}   (strong duality gap {abs(sol.value - sol.dual_value):.1e})")
print(f"support size        {sol.coupling.nnz()}  (basic solutions stay under n*k - k + 1 = {n * k - k + 1})")
print(f"duals feasible      {check_dual_feasibility(C, sol.duals)}")
assert is_coupling(sol.coupling, spec, 1e-8)

# --- Sinkhorn: entropic regularization, then repair the marginals ---------
for eta in (1.0, 10.0, 100.0):
    cfg = SinkhornConfig(eta=eta, tol=1e-6)
    ent = sinkhorn(C, spec, cfg)
    rounded = round_to_polytope(ent.coupling, spec)
    gap = inner_product(rounded, C) - sol.value
    budget = k * math.log(n) / eta + 2 * C.upper_bound() * cfg.tol
    print(
        f"eta {eta:>5}: {ent.iterations:4d} cycles, marginal err {ent.marginal_error:.1e}, "
        f"rounded-gap {gap:.5f} <= entropy budget {budget:.5f}"
    )
    assert is_coupling(rounded, spec, 1e-9)

# The entropy of the regularized coupling shrinks as eta grows.
print("\ncoupling entropies (max possible k ln n = %.3f):" % (k * math.log(n)))
for eta in (1.0, 10.0, 100.0):
    P = sinkhorn(C, spec, SinkhornConfig(eta=eta, tol=1e-6)).coupling
    print(f"  eta {eta:>5}: H = {entropy(P):.3f}")

# --- partially fixed marginals --------------------------------------------
partial = MarginalSpec.partial(n, k, {0: spec.marginals[0], 2: spec.marginals[2]})
psol = solve_lp(C, partial)
print(f"\npartial spec (modes 1 and 3 free): value {psol.value:.6f} <= full value {sol.value:.6f}")
