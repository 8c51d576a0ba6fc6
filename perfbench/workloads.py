"""The benchmark's workloads: seeded inputs, the timed call, the reference check.

Each workload is a closed loop with one client: the next op starts when the
previous one has returned.  Op ``i`` of a run with workload seed ``s`` draws
its inputs from ``numpy.random.default_rng([s, i])`` and its instance cell
(family, n, k) from a fixed cycle that does not depend on the seed, so two
seeds run the same mix of sizes on different random instances.  References
are computed by an independent route after the op's clock has stopped.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import motlab
from motlab import cli, corpus, formats

# Exact-match families of acceptance criterion 01; the others agree to 1e-6.
INTEGER_FAMILIES = {"two_sat", "dense_integer"}
NOISE_EPS = 0.01


@dataclass
class Op:
    index: int
    family: str
    n: int
    k: int
    seed: list[int]
    inputs: dict = field(repr=False)

    def provenance(self) -> dict:
        return {"index": self.index, "family": self.family, "n": self.n, "k": self.k, "seed": self.seed}


def _fixed_cycle(cells: list[tuple]) -> list[tuple]:
    # A constant shuffle: a run that stops partway through a cycle still sees
    # a mix of sizes, and every seed sees the same mix.
    order = np.random.default_rng(0).permutation(len(cells))
    return [cells[i] for i in order]


class Workload:
    name: str
    # prefix of the per-op latency names, e.g. min_exact -> min_exact_ms_p50
    label: str
    cells: list[tuple[str, int, int]]
    # inputs generated per second of measured time; about four times what
    # the parent commit consumes, so a faster program rarely reuses inputs
    pool_per_second: float

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.jobs = 2

    def make_op(self, index: int) -> Op:
        family, n, k = self.cells[index % len(self.cells)]
        rng = np.random.default_rng([self.seed, index])
        return Op(index, family, n, k, [self.seed, index], self.generate(rng, index, family, n, k))

    def generate(self, rng, index, family, n, k) -> dict:
        raise NotImplementedError

    def run(self, op: Op):
        """The timed call into motlab's public API."""
        raise NotImplementedError

    def check(self, op: Op, result) -> dict:
        """Reference check; returns {"fail": reason or None, ...statistics}."""
        raise NotImplementedError


class MinExact(Workload):
    name = label = "min_exact"
    # all ten corpus families at n, k in {2, 3, 4}; ion systems need n >= k;
    # set functions and 2-CNFs are binary (n = 2) and go up to k = 10
    cells = _fixed_cycle(
        [(f, n, k) for f in ("dense", "dense_integer", "low_rank", "pairwise",
                             "determinant", "log_determinant")
         for n in (2, 3, 4) for k in (2, 3, 4)]
        + [(f, n, k) for f in ("coulomb", "coulomb_buckingham")
           for n in (2, 3, 4) for k in (2, 3, 4) if n >= k]
        + [(f, 2, k) for f in ("set_function", "two_sat") for k in range(2, 11)]
    )
    pool_per_second = 120.0

    def generate(self, rng, index, family, n, k):
        C = corpus.random_cost(rng, family, n, k)
        # weights on half the instances, alternating per cycle so every cell
        # is run both with and without them
        with_p = (index + index // len(self.cells)) % 2 == 1
        return {"C": C, "p": rng.normal(size=(C.k, C.n)) if with_p else None}

    def run(self, op):
        return motlab.min_via_mot_exact(op.inputs["C"], op.inputs["p"])

    def reference(self, op) -> float:
        return motlab.min_bruteforce(op.inputs["C"], op.inputs["p"]).value

    def check(self, op, result):
        err = abs(result.value - self.reference(op))
        tol = 0.0 if op.family in INTEGER_FAMILIES else 1e-6
        return {"fail": None if err <= tol else f"|value - brute| = {err:.3g} > {tol}", "error": err}


class MinNoisy(Workload):
    name = "min_noisy"
    label = "min_approx"
    # the families of acceptance criterion 02 at n, k in {2, 3}
    cells = _fixed_cycle(
        [(f, n, k) for f in ("dense", "low_rank", "pairwise") for n in (2, 3) for k in (2, 3)]
        + [(f, 2, k) for f in ("set_function", "two_sat") for k in (2, 3)]
    )
    pool_per_second = 5.0
    budget = 250

    def generate(self, rng, index, family, n, k):
        return {"C": corpus.random_cost(rng, family, n, k), "oracle_seed": int(rng.integers(2**31))}

    def run(self, op):
        s = op.inputs["oracle_seed"]
        oracle = motlab.MotOracle.noisy_lp(op.inputs["C"], eps=NOISE_EPS, seed=s)
        return motlab.min_via_mot_approx(oracle, eps=NOISE_EPS, budget=self.budget, seed=s)

    def reference(self, op) -> float:
        return motlab.min_bruteforce(op.inputs["C"]).value

    def alpha(self, records) -> tuple[float, int]:
        """Error level that two thirds of the ops reach, over eps, as in
        criterion 02; taken over the first cycle of cells so that it does not
        depend on how many ops a run completes.  Returns (alpha, ops used)."""
        first = [r["error"] for r in records[: len(self.cells)] if "error" in r]
        if not first:
            return float("nan"), 0
        return sorted(first)[math.ceil(2 * len(first) / 3) - 1] / NOISE_EPS, len(first)

    def check(self, op, result):
        err = abs(result.value - self.reference(op))
        C = op.inputs["C"]
        tol = 10 * C.n * C.k * NOISE_EPS
        return {"fail": None if err <= tol else f"|value - brute| = {err:.3g} > {tol}", "error": err}


class TransportLP(Workload):
    name = "transport_lp"
    label = "solve_lp"
    # n^k from 1024 to 7776 columns
    cells = _fixed_cycle(
        [(f, n, k) for f in ("dense", "pairwise", "low_rank")
         for n, k in ((4, 5), (5, 5), (3, 7), (4, 6), (6, 5))]
    )
    pool_per_second = 120.0

    def generate(self, rng, index, family, n, k):
        C = corpus.random_cost(rng, family, n, k)
        return {"C": C, "spec": motlab.MarginalSpec.fully_fixed(corpus.random_marginals(rng, n, k))}

    def run(self, op):
        return motlab.solve_lp(op.inputs["C"], op.inputs["spec"])

    def check(self, op, sol):
        C, spec = op.inputs["C"], op.inputs["spec"]
        gap = abs(sol.value - sol.dual_value)
        if gap > 1e-7:
            return {"fail": f"duality gap {gap:.3g} > 1e-7"}
        if not motlab.check_dual_feasibility(C, sol.duals):
            return {"fail": "dual potentials infeasible"}
        if not motlab.is_coupling(sol.coupling, spec):
            return {"fail": "primal coupling misses its marginals"}
        return {"fail": None}


class TransportSinkhorn(Workload):
    name = "transport_sinkhorn"
    label = "sinkhorn"
    # up to 8^6 = 262144 entries, the reference size; 2.1 MB per tensor, so
    # the working set stays in cache and memory bandwidth is not measured
    cells = _fixed_cycle(
        [(f, 7, 6) for f in ("dense", "pairwise")]
    )
    pool_per_second = 4.0

    def generate(self, rng, index, family, n, k):
        C = corpus.random_cost(rng, family, n, k)
        return {
            "C": C,
            "spec": motlab.MarginalSpec.fully_fixed(corpus.random_marginals(rng, n, k)),
            "cfg": motlab.SinkhornConfig(eta=20.0 / C.upper_bound(), tol=1e-6, max_iters=2000),
        }

    def run(self, op):
        sol = motlab.sinkhorn(op.inputs["C"], op.inputs["spec"], op.inputs["cfg"])
        return sol, motlab.round_to_polytope(sol.coupling, op.inputs["spec"])

    def check(self, op, result):
        sol, rounded = result
        if not sol.converged:
            return {"fail": f"not converged after {sol.iterations} cycles"}
        if not motlab.is_coupling(rounded, op.inputs["spec"]):
            return {"fail": "rounded coupling misses its marginals"}
        return {"fail": None, "cycles": sol.iterations}


class BatchCLI(Workload):
    name = "batch_cli"
    label = "batch"
    # one manifest per op; n, k describe its largest transport instance
    cells = [("manifest", 3, 4)]
    pool_per_second = 8.0

    def generate(self, rng, index, family, n, k):
        d = self.workdir / f"m{index:05d}"
        d.mkdir(parents=True, exist_ok=True)
        jobs = []

        def instance(fname, C, spec=None, weights=None):
            formats.save_instance(d / fname, C, spec, weights)

        C = corpus.random_cost(rng, "pairwise", 3, 4)
        instance("lp.json", C, motlab.MarginalSpec.fully_fixed(corpus.random_marginals(rng, 3, 4)))
        jobs.append({"command": "solve-mot", "instance": "lp.json", "flags": {"backend": "lp"}})

        C = corpus.random_cost(rng, "dense", 3, 3)
        instance("sk.json", C, motlab.MarginalSpec.fully_fixed(corpus.random_marginals(rng, 3, 3)))
        jobs.append({"command": "solve-mot", "instance": "sk.json",
                     "flags": {"backend": "sinkhorn", "eta": 20.0 / C.upper_bound(), "round": True}})

        fam = ("dense", "pairwise", "low_rank")[index % 3]
        C = corpus.random_cost(rng, fam, 3, 3)
        p = rng.normal(size=(3, 3))
        instance("exact.json", C, weights=p)
        jobs.append({"command": "solve-min", "instance": "exact.json", "flags": {"via": "mot-exact"},
                     "reference_value": formats.float_str(motlab.min_bruteforce(C, p).value),
                     "tol": 1e-6})

        C = corpus.random_cost(rng, "dense", 2, 3)
        instance("approx.json", C)
        jobs.append({"command": "solve-min", "instance": "approx.json",
                     "flags": {"via": "mot-approx", "eps": NOISE_EPS, "budget": 100},
                     "reference_value": formats.float_str(motlab.min_bruteforce(C).value),
                     "tol": 10 * 2 * 3 * NOISE_EPS})

        formats.write_cnf(d / "f.cnf", corpus.random_twosat(rng, 4, int(rng.integers(2, 8))).cnf)
        jobs.append({"command": "verify", "construction": "twosat", "inputs": ["f.cnf"]})
        formats.write_graph(d / "g.dimacs", corpus.random_graph(rng, 5))
        jobs.append({"command": "verify", "construction": "maxcut", "inputs": ["g.dimacs"]})
        formats.write_kpartite(d / "kp.dimacs", d / "kp.classes.json", corpus.random_kpartite(rng, 2, 3))
        jobs.append({"command": "verify", "construction": "clique", "inputs": ["kp.dimacs", "kp.classes.json"]})
        instance("det.json", corpus.random_determinant(rng, 3, 3))
        jobs.append({"command": "verify", "construction": "determinant", "inputs": ["det.json"]})

        manifest = d / "manifest.json"
        manifest.write_text(json.dumps({"seed": index, "jobs": jobs}, indent=1))
        return {"manifest": manifest, "csv": d / "manifest_summary.csv"}

    def run(self, op):
        # the CLI reports each job on stdout; the benchmark's stdout carries the result
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(["batch", str(op.inputs["manifest"]), "--jobs", str(self.jobs)])

    def check(self, op, code):
        with open(op.inputs["csv"], newline="") as fh:
            rows = list(csv.DictReader(fh))
        failed = [r["command"] + " " + r["instance"] for r in rows if r["pass"] != "true"]
        if code != cli.EXIT_OK or failed or not rows:
            return {"fail": f"exit {code}, failed rows {failed}", "jobs_failed": len(failed)}
        return {"fail": None, "jobs_failed": 0}


WORKLOADS = {w.name: w for w in (MinExact, MinNoisy, TransportLP, TransportSinkhorn, BatchCLI)}


def pool_size(workload: type[Workload], seconds: float) -> int:
    return max(len(workload.cells), math.ceil(workload.pool_per_second * seconds))
