"""Batch front door: load instances, run solvers/reductions/verifiers, persist reports.

Exit codes: 0 success, 1 verification checks failed, 2 schema violation,
3 dense cap exceeded, 4 solver did not converge (a partial report is still
written).  All randomness flows from --seed; reports embed the seed and a
content digest of their inputs.  The dense-entry limit (how many of the n^k
cost or coupling entries may be held as one array, 10^7 by default) is set
only by the environment variable MOTLAB_DENSE_CAP; exceeding it exits 3, and
a value that is not an integer exits 2.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import formats, hardness
from .minsolve import as_weights, min_bruteforce
from .motsolve import SinkhornConfig, sinkhorn, solve_lp, solve_submodular
from .reduction import MotOracle, min_via_mot_approx, min_via_mot_exact
from .tensors import CapExceededError, inner_product, round_to_polytope

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_SCHEMA = 2
EXIT_CAP = 3
EXIT_NOT_CONVERGED = 4


def _coupling_doc(coupling) -> dict:
    idx, vals = coupling.support()
    return {
        "entries": [
            {"index": [int(j) + 1 for j in row], "value": float(v)}
            for row, v in zip(idx, vals)
        ]
    }


def _default_out(path: str, suffix: str) -> str:
    return str(Path(path).with_name(Path(path).name + f".{suffix}.json"))


def _write(out_path: str, report: dict):
    formats.write_report(out_path, report)
    print(f"report -> {out_path}")


def _run_solve_mot(args) -> tuple[int, dict]:
    inst = formats.load_instance(args.instance)
    if inst.spec is None:
        raise formats.SchemaError("solve-mot requires a marginals block")
    report = {
        "command": "solve-mot",
        "instance": str(args.instance),
        "instance_digest": formats.digest(inst.doc),
        "backend": args.backend,
        "seed": args.seed,
    }
    code = EXIT_OK
    t0 = time.perf_counter()
    if args.backend == "lp":
        sol = solve_lp(inst.cost, inst.spec)
        report["dual_value"] = sol.dual_value
        report["duals"] = sol.duals.tolist()
    elif args.backend == "sinkhorn":
        cfg = SinkhornConfig(eta=args.eta, tol=args.tol, max_iters=args.max_iters)
        sol = sinkhorn(inst.cost, inst.spec, cfg)
        report["eta"] = args.eta
        report["marginal_error"] = sol.marginal_error
        if not sol.converged:
            code = EXIT_NOT_CONVERGED
    elif args.backend == "submodular":
        if inst.cost.family != "set_function":
            raise formats.SchemaError("submodular backend requires a set_function cost")
        if not inst.spec.is_fully_fixed:
            raise formats.SchemaError("submodular backend requires fully fixed marginals")
        x = np.array([inst.spec.marginal_for(i)[1] for i in range(inst.k)])
        sol = solve_submodular(inst.cost, x)
    else:
        raise formats.SchemaError(f"unknown backend {args.backend!r}")

    coupling = sol.coupling
    report["value"] = sol.value
    report["linear_value"] = inner_product(coupling, inst.cost)
    report["converged"] = sol.converged
    report["iterations"] = sol.iterations
    if args.round:
        if not inst.spec.is_fully_fixed:
            raise formats.SchemaError("--round requires fully fixed marginals")
        coupling = round_to_polytope(coupling, inst.spec)
        report["rounded"] = True
        report["rounded_value"] = inner_product(coupling, inst.cost)
    report["coupling"] = _coupling_doc(coupling)
    report["wall_ms"] = 1000 * (time.perf_counter() - t0)
    out = args.out or _default_out(args.instance, f"solve-mot.{args.backend}")
    _write(out, report)
    print(f"value {report['value']:.12g} (backend {args.backend}, converged={sol.converged})")
    return code, report


def _run_solve_min(args) -> tuple[int, dict]:
    inst = formats.load_instance(args.instance)
    p = as_weights(inst.weights, inst.n, inst.k)
    report = {
        "command": "solve-min",
        "instance": str(args.instance),
        "instance_digest": formats.digest(inst.doc),
        "via": args.via,
        "seed": args.seed,
    }
    t0 = time.perf_counter()
    if args.via == "bruteforce":
        res = min_bruteforce(inst.cost, p)
        report.update(value=res.value, witness=[j + 1 for j in res.witness], queries=0)
    elif args.via == "mot-exact":
        res = min_via_mot_exact(inst.cost, p)
        report.update(
            value=res.value,
            witness=[j + 1 for j in res.witness],
            queries=res.queries,
            gap=res.gap,
        )
    elif args.via == "mot-approx":
        for flag, count in (("--budget", args.budget), ("--trials", args.trials)):
            if count < 1:
                raise formats.SchemaError(f"{flag} must be at least 1, got {count}")
        oracle = MotOracle.noisy_lp(inst.cost, eps=args.eps, seed=args.seed)
        values = []
        for t in range(args.trials):
            run = min_via_mot_approx(
                oracle, p, eps=args.eps, budget=args.budget, seed=args.seed + t
            )
            values.append(run.value)
        report.update(
            value=float(min(values)),
            trial_values=values,
            queries=oracle.queries,
            eps=args.eps,
            trials=args.trials,
        )
    else:
        raise formats.SchemaError(f"unknown --via {args.via!r}")
    report["wall_ms"] = 1000 * (time.perf_counter() - t0)
    out = args.out or _default_out(args.instance, f"solve-min.{args.via}")
    _write(out, report)
    print(f"value {report['value']:.12g} (via {args.via})")
    return EXIT_OK, report


def _parse_n_range(text: str) -> list[int]:
    """Accept '50..200', '50..200..25', '64', or '8,16,32'."""
    if ".." in text:
        parts = text.split("..")
        lo, hi = int(parts[0]), int(parts[1])
        step = int(parts[2]) if len(parts) > 2 else 1
        return list(range(lo, hi + 1, step))
    if "," in text:
        return [int(x) for x in text.split(",")]
    return [int(text)]


def _run_verify(args) -> tuple[int, dict]:
    kind = args.construction
    if kind in ("clique", "pairwise"):
        if len(args.inputs) != 2:
            raise formats.SchemaError(f"verify {kind} needs GRAPH.dimacs SIDECAR.json")
        G = formats.read_kpartite(args.inputs[0], args.inputs[1])
        fn = hardness.verify_clique_encoding if kind == "clique" else hardness.verify_pairwise_equivalence
        report = fn(G, seed=args.seed)
    elif kind == "maxcut":
        G = formats.read_graph(args.inputs[0])
        report = hardness.verify_supermodular_dichotomy(G, seed=args.seed)
    elif kind == "twosat":
        cnf = formats.read_cnf(args.inputs[0])
        report = hardness.verify_twosat_dichotomy(cnf, seed=args.seed)
    elif kind == "determinant":
        inst = formats.load_instance(args.inputs[0])
        if inst.cost.family not in ("determinant", "log_determinant"):
            raise formats.SchemaError("verify determinant needs a determinant-family instance")
        report = hardness.verify_determinant_min(
            inst.cost.points, variant=inst.cost.variant, seed=args.seed
        )
    elif kind == "buckingham":
        inst = formats.load_instance(args.inputs[0])
        if inst.cost.family not in ("coulomb", "coulomb_buckingham"):
            raise formats.SchemaError("verify buckingham needs an ion-system instance")
        report = hardness.verify_buckingham(inst.cost, seed=args.seed)
    elif kind == "gap":
        params = json.loads(Path(args.inputs[0]).read_text())
        if not isinstance(params, dict):
            raise formats.SchemaError("verify gap params must be a JSON object")
        params = {k: formats.parse_float(v) for k, v in params.items()}
        if args.n is None:
            raise formats.SchemaError("verify gap needs --n RANGE")
        report = hardness.check_gap_inequalities(
            params, _parse_n_range(args.n), seed=args.seed
        )
    elif kind == "lipschitz":
        if args.trials < 1:
            raise formats.SchemaError(f"--trials must be at least 1, got {args.trials}")
        inst = formats.load_instance(args.inputs[0])
        report = hardness.lipschitz_experiment(inst.cost, trials=args.trials, seed=args.seed or 0)
    else:
        raise formats.SchemaError(f"unknown construction {kind!r}")

    out = args.out or _default_out(args.inputs[0], f"verify.{kind}")
    _write(out, report)
    passed = hardness.report_passed(report)
    n_pass = sum(c["pass"] for c in report["checks"])
    print(f"{kind}: {n_pass}/{len(report['checks'])} checks passed")
    return (EXIT_OK if passed else EXIT_CHECK_FAILED), report


def _job_argv(job: dict, base: Path, default_seed: int, idx: int, out_dir: Path) -> list[str]:
    if not isinstance(job, dict):
        raise formats.SchemaError(f"job {idx}: must be a JSON object, got {type(job).__name__}")
    cmd = job.get("command")
    if cmd not in ("solve-mot", "solve-min", "verify"):
        raise formats.SchemaError(f"job {idx}: unknown command {cmd!r}")
    argv = [cmd]
    if cmd == "verify":
        argv.append(str(job.get("construction", "")))
        inputs = job.get("inputs", [])
        if isinstance(inputs, str):
            inputs = [inputs]
        if not isinstance(inputs, list) or not all(isinstance(p, str) for p in inputs):
            raise formats.SchemaError(f"job {idx}: inputs must be a path or a list of paths")
        argv += [str(base / p) for p in inputs]
    else:
        if "instance" not in job:
            raise formats.SchemaError(f"job {idx}: missing instance")
        argv.append(str(base / job["instance"]))
    flags = job.get("flags", {})
    if not isinstance(flags, dict):
        raise formats.SchemaError(f"job {idx}: flags must be a JSON object")
    flags = dict(flags)
    flags.setdefault("seed", default_seed + idx)
    jid = job.get("id", f"job{idx:03d}")
    flags.setdefault("out", str(out_dir / f"{jid}.report.json"))
    for key, val in flags.items():
        if isinstance(val, bool):
            if val:
                argv.append(f"--{key}")
        else:
            argv += [f"--{key}", str(val)]
    return argv


def _job_reference(job: dict, idx: int) -> tuple[float | None, float]:
    """A job's reference value (None without one) and its tolerance, 1e-6 by
    default: finite numbers, and the tolerance at least 0."""
    try:
        ref = job.get("reference_value")
        ref = None if ref is None else formats.parse_float(ref)
        tol = formats.parse_float(job.get("tol", 1e-6))
    except formats.SchemaError as exc:
        raise formats.SchemaError(f"job {idx}: {exc}") from exc
    if tol < 0:
        raise formats.SchemaError(f"job {idx}: tol must be at least 0, got {tol}")
    return ref, tol


def _batch_worker(argv: list[str]) -> tuple[int, dict]:
    t0 = time.perf_counter()
    try:
        code, report = _guarded(argv)
    except SystemExit as exc:  # argparse errors inside workers
        code, report = int(exc.code or 2), {}
    wall = 1000 * (time.perf_counter() - t0)
    return code, {
        "value": report.get("value"),
        "queries": report.get("queries"),
        "wall_ms": wall,
        "checks_passed": all(c["pass"] for c in report.get("checks", [])) if "checks" in report else None,
    }


def _run_batch(args) -> tuple[int, dict]:
    if args.jobs < 1:
        raise formats.SchemaError(f"--jobs must be at least 1, got {args.jobs}")
    manifest_path = Path(args.manifest)
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as exc:
        raise formats.SchemaError(f"invalid manifest JSON: {exc}") from exc
    jobs = manifest.get("jobs") if isinstance(manifest, dict) else None
    if not isinstance(jobs, list) or not jobs:
        raise formats.SchemaError("manifest needs to be an object with a nonempty 'jobs' list")
    default_seed = formats.parse_int(manifest.get("seed", 0))
    base = manifest_path.parent
    out_dir = Path(args.out_dir) if args.out_dir else base / "reports"

    argvs = [
        _job_argv(job, base, default_seed, idx, out_dir) for idx, job in enumerate(jobs)
    ]
    references = [_job_reference(job, idx) for idx, job in enumerate(jobs)]
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            outcomes = list(pool.map(_batch_worker, argvs))
    else:
        outcomes = [_batch_worker(a) for a in argvs]

    csv_path = Path(args.csv) if args.csv else base / (manifest_path.stem + "_summary.csv")
    rows = []
    any_fail = False
    for job, (ref, tol), (code, summary) in zip(jobs, references, outcomes):
        value = summary.get("value")
        abs_err = ""
        passed = code == EXIT_OK
        if ref is not None and value is not None:
            abs_err = abs(value - ref)
            passed = passed and abs_err <= tol
        if summary.get("checks_passed") is False:
            passed = False
        any_fail = any_fail or not passed
        rows.append(
            {
                "instance": job.get("instance") or " ".join(np.atleast_1d(job.get("inputs", "")).tolist()),
                "command": job.get("command"),
                "value": "" if value is None else format(value, ".17g"),
                "reference_value": "" if ref is None else str(job["reference_value"]),
                "abs_err": "" if abs_err == "" else format(abs_err, ".17g"),
                "queries": "" if summary.get("queries") is None else summary["queries"],
                "wall_ms": format(summary["wall_ms"], ".3f"),
                "pass": str(passed).lower(),
                "exit_code": code,
            }
        )
    with open(csv_path, "w", newline="") as fh:
        writer = csv.DictWriter(
            fh,
            fieldnames=[
                "instance", "command", "value", "reference_value",
                "abs_err", "queries", "wall_ms", "pass", "exit_code",
            ],
        )
        writer.writeheader()
        writer.writerows(rows)
    print(f"summary -> {csv_path}")
    return (EXIT_CHECK_FAILED if any_fail else EXIT_OK), {"csv": str(csv_path)}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of a process: a batch dispatches every job through it,
    and its workers inherit it from the parent."""
    parser = argparse.ArgumentParser(
        prog="motlab",
        description="Multimarginal transport solvers, tuple-minimization reductions, and construction verifiers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pm = sub.add_parser("solve-mot", help="solve a transport instance")
    pm.add_argument("instance")
    pm.add_argument("--backend", choices=["lp", "sinkhorn", "submodular"], default="lp")
    pm.add_argument("--eta", type=float, default=10.0)
    pm.add_argument("--tol", type=float, default=1e-6)
    pm.add_argument("--max-iters", type=int, default=10_000)
    pm.add_argument("--round", action="store_true", help="repair marginals exactly after solving")
    pm.add_argument("--seed", type=int, default=0)
    pm.add_argument("--out")

    pn = sub.add_parser("solve-min", help="minimize the weighted tuple objective")
    pn.add_argument("instance")
    pn.add_argument("--via", choices=["bruteforce", "mot-exact", "mot-approx"], default="mot-exact")
    pn.add_argument("--eps", type=float, default=0.01, help="oracle noise for mot-approx")
    pn.add_argument("--trials", type=int, default=1)
    pn.add_argument("--budget", type=int, default=400, help="oracle queries per mot-approx trial")
    pn.add_argument("--seed", type=int, default=0)
    pn.add_argument("--out")

    pv = sub.add_parser("verify", help="run a construction verifier")
    pv.add_argument(
        "construction",
        choices=["clique", "pairwise", "maxcut", "twosat", "determinant", "buckingham", "gap", "lipschitz"],
    )
    pv.add_argument("inputs", nargs="+")
    pv.add_argument("--n", help="n range for gap checks, e.g. 50..200 or 8,16,32")
    pv.add_argument("--trials", type=int, default=100)
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--out")

    pb = sub.add_parser("batch", help="run a manifest of commands")
    pb.add_argument("manifest")
    pb.add_argument("--jobs", type=int, default=1)
    pb.add_argument("--out-dir")
    pb.add_argument("--csv")
    return parser


def _dispatch(argv: list[str]) -> tuple[int, dict]:
    args = _build_parser().parse_args(argv)
    if args.command == "solve-mot":
        return _run_solve_mot(args)
    if args.command == "solve-min":
        return _run_solve_min(args)
    if args.command == "verify":
        return _run_verify(args)
    return _run_batch(args)


def _guarded(argv: list[str]) -> tuple[int, dict]:
    """``_dispatch`` with input errors reported on stderr and mapped to exit codes."""
    try:
        return _dispatch(argv)
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP, {}
    except (formats.SchemaError, ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA, {}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    return _guarded(argv)[0]


if __name__ == "__main__":
    sys.exit(main())
