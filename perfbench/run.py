#!/usr/bin/env python3
"""motlab benchmark: seeded closed-loop workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload min_exact --seed 1 --seconds 15 --trace 0

``--trace 0`` times ops with nothing wrapped and reports the end-to-end
metrics; ``--trace 1`` runs each op untraced and then traced on a fresh copy
of its inputs, and reports the per-layer split and the tracing overhead.  The last line of stdout is one JSON object; a full report
with per-op provenance goes to ``perfbench/_runs/``.  motlab is imported from
``src/`` of the checkout this file sits in, never from site-packages.
"""

from __future__ import annotations

import os

# One BLAS thread for the benchmark and every process it starts.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = ROOT / "perfbench" / "_runs"
SETUP_ROUNDS = 3
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import motlab, motlab.cli, motlab.corpus; print(time.perf_counter() - t)"
)


def _import_motlab():
    if not (SRC / "motlab" / "__init__.py").is_file():
        sys.exit(f"error: no motlab sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import motlab

    if Path(motlab.__file__).resolve().parent != SRC / "motlab":
        sys.exit(f"error: imported motlab from {motlab.__file__}, not from {SRC}")


def _loadavg() -> float:
    return float(Path("/proc/loadavg").read_text().split()[0])


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ[v] for v in BLAS_ENV},
    }


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it; the maximum when there are fewer than eleven."""
    xs = sorted(samples)
    i = max(len(xs) - 11, 0) if len(xs) >= 11 else len(xs) - 1
    return xs[i], 100.0 * (i + 1) / len(xs)


def run_op(workload, op, tracer=None, op_id=None) -> dict:
    """One timed call, then its reference check outside the clock."""
    err = result = None
    t0 = time.perf_counter()
    try:
        if tracer is None:
            result = workload.run(op)
        else:
            with tracer.op(op_id):
                result = workload.run(op)
    except Exception:  # a raising op counts as failed, and the run goes on
        err = traceback.format_exc(limit=3)
    rec = {**op.provenance(), "ms": 1e3 * (time.perf_counter() - t0)}
    if err is None:
        try:
            rec.update(workload.check(op, result))
        except Exception:
            rec["fail"] = "check raised: " + traceback.format_exc(limit=3)
    else:
        rec["fail"] = "op raised: " + err
    return rec


def closed_loop(workload, ops, seconds, twin=None) -> list[dict]:
    """Run ops back to back until ``seconds`` of op time have been spent,
    wrapping round the pool if it runs out.  ``twin(i, rec)`` runs after
    each op, off the clock."""
    records = []
    spent = 0.0
    i = 0
    while spent < seconds:
        rec = run_op(workload, ops[i % len(ops)])
        rec["reused"] = i >= len(ops)
        records.append(rec)
        spent += rec["ms"] / 1e3
        if twin is not None:
            twin(i, rec)
        i += 1
    return records


def generate(workload, count: int) -> list:
    return [workload.make_op(i) for i in range(count)]


def end_to_end(workload, records, setup_s, peak_rss_mb) -> tuple[dict, dict]:
    """(gated metrics, everything printed for people)."""
    ms = [r["ms"] for r in records]
    p50 = statistics.median(ms)
    tail_ms, tail_pct = tail(ms)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(ms) / (sum(ms) / 1e3), "1/s"),
        "op_ms_p50": (p50, "ms"),
        "op_ms_tail": (tail_ms, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    shown = {
        "setup_s": (setup_s, "s", ""),
        "ops_per_s": (metrics["ops_per_s"][0], "1/s", ""),
        "fail_frac": (sum(bool(r["fail"]) for r in records) / len(records), "frac",
                      f"{len(records)} attempted"),
        "peak_rss_mb": (peak_rss_mb, "MB", "self + children" if workload.name == "batch_cli" else "self"),
    }
    for label in ("min_exact", "min_approx", "solve_lp", "sinkhorn", "batch"):
        mine = workload.label == label
        shown[f"{label}_ms_p50"] = (p50, "ms", "op_ms_p50") if mine else (None, "ms", "not run here")
        shown[f"{label}_ms_tail"] = (
            (tail_ms, "ms", f"op_ms_tail: p{tail_pct:.1f} of {len(ms)} samples")
            if mine else (None, "ms", "not run here")
        )
    if workload.name == "min_noisy":
        alpha, used = workload.alpha(records)
        shown["noisy_alpha"] = (alpha, "eps", f"over the first {used} ops")
    else:
        shown["noisy_alpha"] = (None, "eps", "not run here")
    return metrics, shown


def measure_setup(workload, count: int) -> tuple[list, list[float]]:
    """Generate the input pool several times (keeping the last) and time
    each round; files are written as part of generation."""
    rounds = []
    for _ in range(SETUP_ROUNDS):
        ops = None  # drop the previous round's pool before building the next
        t0 = time.perf_counter()
        ops = generate(workload, count)
        rounds.append(time.perf_counter() - t0)
    return ops, rounds


def import_times() -> list[float]:
    """``import motlab`` in fresh interpreters (the benchmark's own import
    is already done and warm)."""
    out = []
    for _ in range(SETUP_ROUNDS):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    _import_motlab()
    import tracer as tr
    from workloads import WORKLOADS, pool_size

    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    load_start = _loadavg()
    RUNS.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}-p{os.getpid()}"
    workdir = RUNS / f"work-{tag}"
    cls = WORKLOADS[args.workload]
    workload = cls(args.seed, workdir)
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine()}
    try:
        ops, gen_s = measure_setup(workload, pool_size(cls, args.seconds))
        # one op on its own instance first, so lazy imports and first-call
        # set-up inside scipy are not charged to the first timed op
        warmup = ops.pop()
        if args.trace:
            workload.jobs = 1  # batch_cli in one process, so every span is recorded
        run_op(workload, warmup)
        if args.trace:
            metrics, shown, records = traced_run(workload, ops, args.seconds, tr, report)
        else:
            records = closed_loop(workload, ops, args.seconds)
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            if args.workload == "batch_cli":
                rss_kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
            imp_s = import_times()
            setup_s = statistics.median(i + g for i, g in zip(imp_s, gen_s))
            report["setup"] = {"import_s": imp_s, "generate_s": gen_s, "pool": len(ops)}
            metrics, shown = end_to_end(workload, records, setup_s, rss_kb / 1024)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    load_end = _loadavg()
    nproc = report["machine"]["nproc"]
    report["load"] = {"start": load_start, "end": load_end,
                      "contended": max(load_start, load_end) > nproc}
    failed = sum(bool(r["fail"]) for r in records)
    correct = failed == 0 and not report.get("trace_errors")
    report.update(ops=records, metrics={k: v for k, (v, _) in metrics.items()})
    path = RUNS / f"{tag}.json"
    path.write_text(json.dumps(report, default=str) + "\n")

    m = report["machine"]
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"machine   nproc={m['nproc']} cpu={m['cpu']!r} python={m['python']} numpy={m['numpy']} "
          f"scipy={m['scipy']} blas_threads={os.environ[BLAS_ENV[0]]}")
    print(f"load      start={load_start} end={load_end} contended={report['load']['contended']}")
    for name, (value, unit, note) in shown.items():
        text = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<46} {text:>12} {unit:<9} {note}")
    for rec in records:
        if rec["fail"]:
            print(f"FAILED op {rec['index']} ({rec['family']} n={rec['n']} k={rec['k']}): "
                  f"{rec['fail'].strip().splitlines()[-1]}")
    reused = sum(r.get("reused", False) for r in records)
    if reused:
        print(f"NOTE      input pool ran out: {reused} ops reused an earlier op's inputs")
    for err in report.get("trace_errors", []):
        print(f"TRACE CHECK FAILED: {err}")
    print(f"report    {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def traced_run(workload, ops, seconds, tr, report):
    """Each op untraced, then again traced on a fresh copy of its inputs, so
    drift on a shared machine hits both sides of the overhead ratio alike."""
    tracer = tr.Tracer()
    traced = []
    missing = []

    def twin(i, rec):
        op = workload.make_op(rec["index"])
        with tr.installed(tracer) as gone:
            traced.append(run_op(workload, op, tracer, op_id=i))
        missing[:] = gone

    plain = closed_loop(workload, ops, seconds, twin)
    untraced_s = sum(r["ms"] for r in plain) / 1e3
    traced_s = sum(r["ms"] for r in traced) / 1e3
    spans = tracer.spans
    errors = tr.coverage_errors(spans)
    # the self times under each op must add up to the op's traced wall time
    self_sum = sum(tr.self_times(spans))
    root_sum = sum(s.duration for s in spans if s.name == "bench.op")
    if abs(self_sum - root_sum) > 1e-6 * root_sum:
        errors.append(f"self times sum to {self_sum:.6f}s, ops took {root_sum:.6f}s")
    jobs_failed = sum(r.get("jobs_failed", 0) for r in traced)
    values = tr.layer_metrics(spans, len(traced), traced_s, untraced_s, jobs_failed, missing)
    metrics = {name: (values[name], unit) for name, (unit, _) in tr.PER_LAYER.items() if name in values}
    shown = {name: (v, u, name.split(".")[0]) for name, (v, u) in metrics.items()}
    for span in missing:
        shown[f"{span}.ms"] = (None, "ms/op", "absent: private scipy binding not found")
    shown["trace.untraced_s"] = (untraced_s, "s", f"{len(plain)} ops")
    shown["trace.traced_s"] = (traced_s, "s", f"{len(spans)} spans")
    report["trace_errors"] = errors
    report["spans"] = [s.as_dict(i) for i, s in enumerate(spans)]
    return metrics, shown, plain + traced


if __name__ == "__main__":
    sys.exit(main())
