#!/usr/bin/env python3
"""Tuple minimization through a transport-value oracle.

The weighted objective f(j) = C_j - sum_i p[i][j_i] extends to marginals as
F(mu) = -<p, mu> + MOT_C(mu), which is the convex envelope of f: minimizing
the envelope over the product simplex and reading a witness off the optimal
coupling's support recovers the exact discrete minimum, with the gap to the
cutting plane's lower bound as its certificate.

Run: python3 demos/02_min_via_transport.py
"""

import numpy as np

from motlab import (
    CnfFormula,
    MotOracle,
    build_twosat_cost,
    envelope_value,
    min_bruteforce,
    min_via_mot_approx,
    min_via_mot_exact,
    minimize_envelope_exact,
    purify,
    twosat_min_zero,
)
from motlab.corpus import random_cost

rng = np.random.default_rng(7)

# --- envelope anatomy on a small dense cost --------------------------------
n, k = 3, 3
C = random_cost(rng, "dense", n, k)
p = rng.normal(size=(k, n))
oracle = MotOracle.exact_lp(C)

vertex = np.eye(n)[[1, 2, 0]]  # the oracle takes a (k, n) array: row i is mode i's marginal
print("envelope at a vertex equals the raw objective:")
print(f"  F(point mass)  = {envelope_value(oracle, p, vertex).value:.6f}")
print(f"  f(1,2,0)       = {C.evaluate((1, 2, 0)) - p[0][1] - p[1][2] - p[2][0]:.6f}")

em = minimize_envelope_exact(oracle, p)
print(f"\ncutting-plane envelope minimization: {em.iterations} oracle queries")
print(f"  best F {em.value:.8f}, certified lower bound {em.lower_bound:.8f}")
res = purify(C, p, em.coupling)  # the coupling of the best query: no re-query
print(f"  purified witness {res.witness} with f = {res.value:.8f}, "
      f"certified gap {res.value - em.lower_bound:.1e}")
print(f"  brute force      {min_bruteforce(C, p).witness} with f = {min_bruteforce(C, p).value:.8f}")

# --- the width-2 CNF dichotomy ---------------------------------------------
cnf = CnfFormula(num_vars=2, clauses=((1, 2),))
T = build_twosat_cost(cnf)
print("\n2-CNF cost, phi = (x1 or x2):")
print(f"  unweighted minimum via implication graph: {twosat_min_zero(T).value}")
pw = np.tile([0.0, -1.0 / (2 * T.k)], (T.k, 1))
print(f"  weighted (min-weight satisfying assignment) via transport oracle: "
      f"{min_via_mot_exact(T, pw).value}  (expected -0.75)")

# --- noisy oracle: annealing over the product simplex ----------------------
eps = 0.01
noisy = MotOracle.noisy_lp(C, eps=eps, seed=5)
approx = min_via_mot_approx(noisy, p, eps=eps, budget=400, seed=9)
exact = min_bruteforce(C, p).value
print(f"\nnoisy oracle (uniform +-{eps}): annealed estimate {approx.value:.4f} "
      f"vs exact {exact:.4f} (|err| = {abs(approx.value - exact):.4f}, "
      f"{approx.queries} queries)")
