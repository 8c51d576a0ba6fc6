"""Self-tests of the benchmark's own checking and span arithmetic.

    python3 -m pytest -q perfbench
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import motlab  # noqa: E402
import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402


def _failures(workload, ops):
    return [run.run_op(workload, op)["fail"] for op in ops]


def test_correct_reference_passes(tmp_path):
    for cls in (wl.MinExact, wl.TransportLP):
        w = cls(5, tmp_path)
        assert _failures(w, run.generate(w, 6)) == [None] * 6


@pytest.mark.parametrize("cls", [wl.MinExact, wl.MinNoisy])
def test_wrong_reference_is_counted_as_failure(cls, tmp_path):
    class Wrong(cls):
        def reference(self, op):
            return super().reference(op) + 10.0

    w = Wrong(5, tmp_path)
    w.budget = 20
    ops = run.generate(w, 3)
    fails = _failures(w, ops)
    assert all(f and f.startswith("|value - brute|") for f in fails)
    records = [{**op.provenance(), "ms": 1.0, "fail": f} for op, f in zip(ops, fails)]
    _, shown = run.end_to_end(w, records, 1.0, 1.0)
    assert shown["fail_frac"][0] == 1.0


def test_wrong_lp_certificate_is_counted_as_failure(tmp_path):
    w = wl.TransportLP(5, tmp_path)
    op = w.make_op(0)
    sol = w.run(op)
    bad = motlab.MotSolution(**{**sol.__dict__, "dual_value": sol.dual_value + 1e-3})
    assert w.check(op, sol)["fail"] is None
    assert "duality gap" in w.check(op, bad)["fail"]


def test_unconverged_sinkhorn_is_counted_as_failure(tmp_path):
    w = wl.TransportSinkhorn(5, tmp_path)
    op = w.make_op(0)
    op.inputs["cfg"] = motlab.SinkhornConfig(eta=op.inputs["cfg"].eta, tol=1e-6, max_iters=1)
    assert "not converged" in run.run_op(w, op)["fail"]


def test_wrong_batch_reference_is_counted_as_failure(tmp_path):
    w = wl.BatchCLI(5, tmp_path)
    w.jobs = 1
    op = w.make_op(0)
    manifest = json.loads(op.inputs["manifest"].read_text())
    job = next(j for j in manifest["jobs"] if j.get("flags", {}).get("via") == "mot-exact")
    job["reference_value"] = str(float(job["reference_value"]) + 1.0)
    op.inputs["manifest"].write_text(json.dumps(manifest))
    rec = run.run_op(w, op)
    assert rec["fail"] and rec["jobs_failed"] == 1


def test_raising_op_is_counted_as_failure(tmp_path):
    class Raising(wl.TransportLP):
        def run(self, op):
            raise RuntimeError("boom")

    w = Raising(5, tmp_path)
    rec = run.run_op(w, w.make_op(0))
    assert rec["fail"].startswith("op raised") and "boom" in rec["fail"]


def test_same_seed_same_inputs_and_seed_matters(tmp_path):
    a = wl.MinExact(7, tmp_path).make_op(3)
    b = wl.MinExact(7, tmp_path).make_op(3)
    c = wl.MinExact(8, tmp_path).make_op(3)
    assert (a.family, a.n, a.k) == (c.family, c.n, c.k)
    assert np.array_equal(a.inputs["C"].materialize(), b.inputs["C"].materialize())
    assert not np.array_equal(a.inputs["C"].materialize(), c.inputs["C"].materialize())


def test_tail_has_ten_samples_beyond():
    xs = list(range(1, 31))
    value, pct = run.tail(xs)
    assert value == 20 and sum(x > value for x in xs) == 10
    assert pct == pytest.approx(100 * 20 / 30)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


# ---------------------------------------------------------------------------
# span arithmetic on synthetic trees


def _spans(rows):
    return [tr.Span(name, lo, hi, parent, 0) for name, lo, hi, parent in rows]


def test_self_time_subtracts_children():
    spans = _spans([
        ("root", 0.0, 10.0, None),
        ("a", 1.0, 4.0, 0),
        ("b", 5.0, 9.0, 0),
        ("a1", 2.0, 3.0, 1),
    ])
    selfs = tr.self_times(spans)
    assert selfs == pytest.approx([3.0, 2.0, 4.0, 1.0])
    assert sum(selfs) == pytest.approx(spans[0].duration)


def test_self_time_counts_overlapping_children_once():
    spans = _spans([
        ("root", 0.0, 10.0, None),
        ("a", 1.0, 5.0, 0),
        ("b", 3.0, 7.0, 0),
        ("late", 8.0, 12.0, 0),  # clipped to the parent's end
    ])
    assert tr.self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 2.0)


def test_highs_time_is_attributed_by_parent():
    spans = _spans([
        ("bench.op", 0.0, 10.0, None),
        ("reduction.master_lp", 1.0, 3.0, 0),
        ("motsolve.highs", 1.5, 2.5, 1),
        ("motsolve.solve_lp", 4.0, 9.0, 0),
        ("motsolve.linprog", 5.0, 8.0, 3),
        ("motsolve.highs", 6.0, 7.0, 4),
    ])
    tr.attribute_highs(spans)
    assert [s.name for s in spans][2::3] == ["reduction.master_lp.highs", "motsolve.highs"]


def test_coverage_check_needs_exactly_one_materialize():
    spans = _spans([
        ("bench.op", 0.0, 10.0, None),
        ("motsolve.solve_lp", 1.0, 3.0, 0),
        ("costs.materialize", 1.0, 1.5, 1),
        ("motsolve.solve_lp", 4.0, 9.0, 0),
    ])
    assert len(tr.coverage_errors(spans)) == 1
    spans.append(tr.Span("costs.materialize", 4.0, 4.5, 3, 0))
    assert tr.coverage_errors(spans) == []
    spans.append(tr.Span("costs.materialize", 5.0, 5.5, 3, 0))
    assert len(tr.coverage_errors(spans)) == 1


# ---------------------------------------------------------------------------
# wrap points on the real package


def test_installed_wraps_every_family_and_restores(tmp_path):
    original = motlab.reduction.solve_lp
    tracer = tr.Tracer()
    rng = np.random.default_rng(0)
    costs = [motlab.corpus.random_cost(rng, f, 3, 3) for f in ("dense", "pairwise", "low_rank")]
    with tr.installed(tracer) as missing:
        assert motlab.reduction.solve_lp is not original
        for i, C in enumerate(costs):
            with tracer.op(i):
                motlab.min_via_mot_exact(C)
    assert motlab.reduction.solve_lp is original
    assert missing == []
    spans = tracer.spans
    assert tr.coverage_errors(spans) == []
    names = {s.name for s in spans}
    assert {"reduction.master_lp", "motsolve.highs", "minsolve.min_objective_gap"} <= names
    values = tr.layer_metrics(spans, len(costs), 1.0, 1.0, 0, missing)
    assert values["motsolve.solve_lp.calls"] == values["reduction.queries"]
    assert values["costs.materialize.calls"] == pytest.approx(values["reduction.queries"] + 1)
    assert values["reduction.master_lp.highs.ms"] > 0


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == tr.PER_LAYER
    w = wl.MinExact(1, ROOT)
    records = [{**w.make_op(0).provenance(), "ms": 1.0, "fail": None}]
    metrics, _ = run.end_to_end(w, records, 1.0, 1.0)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: u for k, (_, u) in metrics.items()}


def test_missing_private_highs_entry_is_reported_absent(monkeypatch):
    import scipy.optimize._linprog_highs as highs

    monkeypatch.delattr(highs, "_highs_wrapper")
    with tr.installed(tr.Tracer()) as missing:
        pass
    assert missing == ["motsolve.highs"]
    values = tr.layer_metrics([], 1, 1.0, 1.0, 0, missing)
    assert "motsolve.highs.ms" not in values and "reduction.master_lp.highs.ms" not in values
    assert "motsolve.linprog.self_ms" in values
