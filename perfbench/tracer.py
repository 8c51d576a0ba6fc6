"""In-memory span tracer that wraps motlab's layer boundaries from outside.

A span records a name, start, end, parent span and the benchmark op it
belongs to.  Spans are kept in a list and turned into per-layer metrics once
the run ends.  Wrapping happens by replacing module attributes at the places
where callers actually look the names up (``motlab.reduction.solve_lp``, not
only ``motlab.motsolve.solve_lp``), so nothing under ``src/`` changes.
"""

from __future__ import annotations

import functools
import statistics
import sys
from contextlib import contextmanager
from time import perf_counter

import motlab.costs
import motlab.hardness


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "attrs", "children")

    def __init__(self, name, start, end, parent, op, attrs=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.op = op
        self.attrs = attrs or {}
        self.children = []

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self, sid: int) -> dict:
        return {
            "id": sid, "name": self.name, "start": self.start, "end": self.end,
            "parent": self.parent, "op": self.op, "attrs": self.attrs,
        }


class Tracer:
    """Records spans only while an op is open, so reference checks and input
    generation between ops never show up in a layer's time."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op = None

    @contextmanager
    def op(self, op_id):
        self._op = op_id
        try:
            with self.span("bench.op"):
                yield
        finally:
            self._op = None

    @contextmanager
    def span(self, name):
        sid = len(self.spans)
        span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else None, self._op)
        self.spans.append(span)
        self._stack.append(sid)
        span.start = perf_counter()
        try:
            yield span
        finally:
            span.end = perf_counter()
            self._stack.pop()

    def wrap(self, fn, name, attrs=None):
        """``fn`` traced as ``name``; ``attrs(args, result)`` may add fields."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            with self.span(name) as span:
                result = fn(*args, **kwargs)
            if attrs is not None:
                span.attrs = attrs(args, result)
            return result

        return traced


# ---------------------------------------------------------------------------
# wrap points


def _lp_attrs(args, sol):
    C = args[0]
    return {"columns": C.n**C.k, "nit": sol.iterations}


def _sinkhorn_attrs(args, sol):
    C = args[0]
    return {"n": C.n, "k": C.k, "cycles": sol.iterations, "converged": sol.converged}


# (defining module, function, span name, attrs).  Every motlab module that
# binds the same function object gets the traced version.
_FUNCTIONS = [
    ("motlab.motsolve", "solve_lp", "motsolve.solve_lp", _lp_attrs),
    ("motlab.motsolve", "sinkhorn", "motsolve.sinkhorn", _sinkhorn_attrs),
    ("motlab.tensors", "round_to_polytope", "tensors.round_to_polytope", None),
    ("motlab.minsolve", "min_objective_gap", "minsolve.min_objective_gap", None),
    ("motlab.reduction", "min_via_mot_exact", "reduction.min_via_mot_exact",
     lambda args, res: {"queries": res.queries}),
    ("motlab.reduction", "minimize_envelope_exact", "reduction.minimize_envelope_exact",
     lambda args, res: {"certified": res.certified}),
    ("motlab.reduction", "purify", "reduction.purify", None),
    ("motlab.reduction", "min_via_mot_approx", "reduction.min_via_mot_approx",
     lambda args, res: {"queries": res.queries, "budget_exhausted": res.budget_exhausted}),
    ("motlab.formats", "load_instance", "formats.read", None),
    ("motlab.formats", "read_graph", "formats.read", None),
    ("motlab.formats", "read_kpartite", "formats.read", None),
    ("motlab.formats", "read_cnf", "formats.read", None),
    ("motlab.formats", "write_report", "formats.write_report", None),
    ("motlab.cli", "main", "cli.main", None),
    ("motlab.cli", "_run_batch", "cli.batch", None),
    ("motlab.cli", "_batch_worker", "cli.worker", None),
    ("motlab.cli", "_dispatch", "cli.dispatch", None),
    ("motlab.cli", "_run_solve_mot", "cli.solve_mot", None),
    ("motlab.cli", "_run_solve_min", "cli.solve_min", None),
    ("motlab.cli", "_run_verify", "cli.verify", None),
]

# Third-party names, wrapped only at the one module that binds them, so the
# same scipy function can carry a different span name per caller.
_BINDINGS = [
    ("motlab.motsolve", "linprog", "motsolve.linprog"),
    ("motlab.reduction", "linprog", "reduction.master_lp"),
    ("motlab.motsolve", "logsumexp", "motsolve.logsumexp"),
    # private scipy entry into HiGHS; its callers are attributed by parent span
    ("scipy.optimize._linprog_highs", "_highs_wrapper", "motsolve.highs"),
]


@contextmanager
def installed(tracer: Tracer):
    """Patch every wrap point for the duration of the block.

    Yields the list of span names that could not be wrapped because the
    binding does not exist (today only possible for the private HiGHS entry).
    """
    undo = []
    missing = []

    def patch(owner, attr, new):
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    try:
        motlab_modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "motlab"]
        targets = list(_FUNCTIONS) + [
            ("motlab.hardness", name, "hardness.verify", None)
            for name in vars(motlab.hardness) if name.startswith("verify_")
        ]
        for modname, attr, span, attrs in targets:
            fn = getattr(sys.modules[modname], attr)
            traced = tracer.wrap(fn, span, attrs)
            for mod in motlab_modules:
                for name, value in list(vars(mod).items()):
                    if value is fn:
                        patch(mod, name, traced)
        for modname, attr, span in _BINDINGS:
            mod = sys.modules.get(modname)
            if mod is None or attr not in vars(mod):
                missing.append(span)
                continue
            patch(mod, attr, tracer.wrap(getattr(mod, attr), span))
        # Each family that overrides materialize needs its own wrap: patching
        # only the base class misses DenseCost, the most common family.
        for cls in vars(motlab.costs).values():
            if isinstance(cls, type) and issubclass(cls, motlab.costs.CostOracle) and "materialize" in vars(cls):
                patch(cls, "materialize", tracer.wrap(vars(cls)["materialize"], "costs.materialize"))
        yield missing
    finally:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)


# ---------------------------------------------------------------------------
# span arithmetic


def link(spans: list[Span]) -> None:
    """Fill each span's children list from the parent ids."""
    for span in spans:
        span.children = []
    for sid, span in enumerate(spans):
        if span.parent is not None:
            spans[span.parent].children.append(sid)


def covered(span: Span, intervals) -> float:
    """Length of the union of ``intervals`` clipped to the span."""
    total = 0.0
    reach = span.start  # everything before this is already counted
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, span.end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[Span]) -> list[float]:
    """A span's duration minus the part of it that its children cover."""
    link(spans)
    return [
        span.duration - covered(span, [(spans[c].start, spans[c].end) for c in span.children])
        for span in spans
    ]


def attribute_highs(spans: list[Span]) -> None:
    """Rename HiGHS spans called from the master LP; the rest serve solve_lp."""
    for span in spans:
        if span.name != "motsolve.highs":
            continue
        parent = span.parent
        while parent is not None and spans[parent].name not in ("reduction.master_lp", "motsolve.linprog"):
            parent = spans[parent].parent
        if parent is not None and spans[parent].name == "reduction.master_lp":
            span.name = "reduction.master_lp.highs"


def coverage_errors(spans: list[Span]) -> list[str]:
    """Every solve_lp span must have exactly one materialize child; a miss
    means a family's materialize escaped the wrap."""
    link(spans)
    errors = []
    for sid, span in enumerate(spans):
        if span.name == "motsolve.solve_lp":
            got = sum(spans[c].name == "costs.materialize" for c in span.children)
            if got != 1:
                errors.append(f"solve_lp span {sid} (op {span.op}) has {got} materialize children")
    return errors


# ---------------------------------------------------------------------------
# per-layer metrics: name -> (unit, better); "/op" values are means per op

SINKHORN_SIZES = [(7, 6)]  # the sizes transport_sinkhorn runs

PER_LAYER = {
    "costs.materialize.calls": ("count/op", "lower"),
    "costs.materialize.ms": ("ms/op", "lower"),
    "tensors.round_to_polytope.ms": ("ms/op", "lower"),
    "minsolve.min_objective_gap.ms": ("ms/op", "lower"),
    "motsolve.solve_lp.calls": ("count/op", "lower"),
    "motsolve.solve_lp.self_ms": ("ms/op", "lower"),
    "motsolve.linprog.self_ms": ("ms/op", "lower"),
    "motsolve.highs.ms": ("ms/op", "lower"),
    "motsolve.lp.columns": ("count", "lower"),
    "motsolve.lp.nit": ("count", "lower"),
    "motsolve.sinkhorn.cycles": ("count/op", "lower"),
    **{f"motsolve.sinkhorn.cycle_ms.n{n}k{k}": ("ms/cycle", "lower") for n, k in SINKHORN_SIZES},
    "motsolve.logsumexp.ms": ("ms/op", "lower"),
    "motsolve.sinkhorn.self_ms": ("ms/op", "lower"),
    "motsolve.sinkhorn.tensor_mb": ("MB", "lower"),
    "motsolve.sinkhorn.unconverged": ("count", "lower"),
    "reduction.queries": ("count/op", "lower"),
    "reduction.master_lp.calls": ("count/op", "lower"),
    "reduction.master_lp.ms": ("ms/op", "lower"),
    "reduction.master_lp.highs.ms": ("ms/op", "lower"),
    "reduction.minimize_envelope_exact.self_ms": ("ms/op", "lower"),
    "reduction.purify.ms": ("ms/op", "lower"),
    "reduction.min_via_mot_approx.self_ms": ("ms/op", "lower"),
    "reduction.uncertified": ("count", "lower"),
    "reduction.budget_exhausted": ("count", "lower"),
    "hardness.verify.ms": ("ms/op", "lower"),
    "formats.read.ms": ("ms/op", "lower"),
    "formats.write_report.ms": ("ms/op", "lower"),
    "cli.batch.self_ms": ("ms/op", "lower"),
    "cli.jobs.failed": ("count", "lower"),
    "trace.overhead_frac": ("frac", "lower"),
}


def layer_metrics(spans: list[Span], n_ops: int, traced_s: float, untraced_s: float,
                  jobs_failed: int, missing: list[str]) -> dict[str, float]:
    """Per-layer values from the spans of ``n_ops`` traced ops.

    ``traced_s`` and ``untraced_s`` are the summed op wall times of the same
    ops with and without tracing; their ratio gives the tracing overhead.
    """
    attribute_highs(spans)
    selfs = self_times(spans)
    total_ms: dict[str, float] = {}
    self_ms: dict[str, float] = {}
    calls: dict[str, int] = {}
    for span, s in zip(spans, selfs):
        total_ms[span.name] = total_ms.get(span.name, 0.0) + 1e3 * span.duration
        self_ms[span.name] = self_ms.get(span.name, 0.0) + 1e3 * s
        calls[span.name] = calls.get(span.name, 0) + 1

    def named(name):
        return [s for s in spans if s.name == name]

    def per_op(table, name):
        return table.get(name, 0) / n_ops

    def mean_attr(name, key):
        vals = [s.attrs[key] for s in named(name)]
        return statistics.fmean(vals) if vals else 0.0

    sinkhorns = named("motsolve.sinkhorn")
    out = {
        "costs.materialize.calls": per_op(calls, "costs.materialize"),
        "costs.materialize.ms": per_op(total_ms, "costs.materialize"),
        "tensors.round_to_polytope.ms": per_op(total_ms, "tensors.round_to_polytope"),
        "minsolve.min_objective_gap.ms": per_op(total_ms, "minsolve.min_objective_gap"),
        "motsolve.solve_lp.calls": per_op(calls, "motsolve.solve_lp"),
        "motsolve.solve_lp.self_ms": per_op(self_ms, "motsolve.solve_lp"),
        "motsolve.linprog.self_ms": per_op(self_ms, "motsolve.linprog"),
        "motsolve.highs.ms": per_op(total_ms, "motsolve.highs"),
        "motsolve.lp.columns": mean_attr("motsolve.solve_lp", "columns"),
        "motsolve.lp.nit": mean_attr("motsolve.solve_lp", "nit"),
        "motsolve.sinkhorn.cycles": sum(s.attrs["cycles"] for s in sinkhorns) / n_ops,
        "motsolve.logsumexp.ms": per_op(total_ms, "motsolve.logsumexp"),
        "motsolve.sinkhorn.self_ms": per_op(self_ms, "motsolve.sinkhorn"),
        "motsolve.sinkhorn.tensor_mb": max(
            (8 * s.attrs["n"] ** s.attrs["k"] / 1e6 for s in sinkhorns), default=0.0),
        "motsolve.sinkhorn.unconverged": sum(not s.attrs["converged"] for s in sinkhorns),
        "reduction.queries": (
            sum(s.attrs["queries"] for s in named("reduction.min_via_mot_exact"))
            + sum(s.attrs["queries"] for s in named("reduction.min_via_mot_approx"))
        ) / n_ops,
        "reduction.master_lp.calls": per_op(calls, "reduction.master_lp"),
        "reduction.master_lp.ms": per_op(total_ms, "reduction.master_lp"),
        "reduction.master_lp.highs.ms": per_op(total_ms, "reduction.master_lp.highs"),
        "reduction.minimize_envelope_exact.self_ms": per_op(self_ms, "reduction.minimize_envelope_exact"),
        "reduction.purify.ms": per_op(total_ms, "reduction.purify"),
        "reduction.min_via_mot_approx.self_ms": per_op(self_ms, "reduction.min_via_mot_approx"),
        "reduction.uncertified": sum(
            not s.attrs["certified"] for s in named("reduction.minimize_envelope_exact")),
        "reduction.budget_exhausted": sum(
            s.attrs["budget_exhausted"] for s in named("reduction.min_via_mot_approx")),
        "hardness.verify.ms": per_op(total_ms, "hardness.verify"),
        "formats.read.ms": per_op(total_ms, "formats.read"),
        "formats.write_report.ms": per_op(total_ms, "formats.write_report"),
        "cli.batch.self_ms": sum(v for k, v in self_ms.items() if k.startswith("cli.")) / n_ops,
        "cli.jobs.failed": jobs_failed,
        "trace.overhead_frac": traced_s / untraced_s - 1.0,
    }
    # One cycle: the call minus its cost materialization, over its cycle count.
    for n, k in SINKHORN_SIZES:
        per_cycle = [
            1e3 * (s.duration - sum(spans[c].duration for c in s.children
                                    if spans[c].name == "costs.materialize"))
            / max(s.attrs["cycles"], 1)
            for s in sinkhorns if (s.attrs["n"], s.attrs["k"]) == (n, k)
        ]
        out[f"motsolve.sinkhorn.cycle_ms.n{n}k{k}"] = statistics.median(per_cycle) if per_cycle else 0.0
    if "motsolve.highs" in missing:
        del out["motsolve.highs.ms"], out["reduction.master_lp.highs.ms"]
    return out
