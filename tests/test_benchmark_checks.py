"""The benchmark's own op-and-check loop on a short prefix of its op streams.

``perfbench/workloads.py`` is loaded read-only (no bytecode is written next
to it) and its ``run`` and ``check`` are called as the benchmark calls them:
a result that the benchmark would report as an incorrect output fails here.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

_WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", _WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve the module by name
    write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = write_bytecode
        del sys.modules[spec.name]
    return module


@pytest.mark.parametrize(
    "name, ops",
    [("transport_lp", 60), ("min_exact", 120), ("min_noisy", 40), ("transport_sinkhorn", 20), ("batch_cli", 10)],
)
def test_benchmark_checks_pass_on_seed_901(workloads, tmp_path, name, ops):
    workload = workloads.WORKLOADS[name](901, tmp_path)  # batch_cli writes its manifests here
    assert workload.jobs == 2  # batch_cli's process pool, as the benchmark runs it
    failures = []
    for i in range(ops):
        op = workload.make_op(i)
        verdict = workload.check(op, workload.run(op))
        if verdict["fail"] is not None:
            failures.append((op.provenance(), verdict["fail"]))
    assert not failures
