"""Outside-in tracing of lcwcheck's layers.

The tracer wraps the public functions of each module by rebinding, in
every loaded ``lcwcheck`` module, each attribute that holds the target
object, so names imported with ``from .x import y`` (as ``cli`` and
``genericity`` do) are caught too.  Spans (name, start, end, parent,
point id, raised) stay in memory until the benchmark writes them out.
Nothing inside the package is edited; ``uninstall`` restores every
attribute.
"""

from __future__ import annotations

import functools
import json
import math
import statistics
import sys
import time
from collections import Counter
from contextlib import contextmanager

# (module, attribute, span name).  The span name's first component is the
# layer its self time is charged to.  A dotted attribute is a method or
# staticmethod on a class of that module.
TARGETS = (
    ("lcwcheck.cli", "main", "cli.main"),
    ("lcwcheck.cli", "_obstruct_point", "cli.point"),
    ("lcwcheck.cli", "dumps17", "cli.report"),
    ("lcwcheck.cli", "_write_output", "cli.report"),
    ("lcwcheck.genericity", "ScanResult.to_csv", "cli.report"),
    ("lcwcheck.genericity", "SampleStats.to_csv", "cli.report"),
    ("lcwcheck.metrics", "load_metric", "metrics.load_metric"),
    ("lcwcheck.jets", "metric_jets", "jets.metric_jets"),
    ("lcwcheck.curvature", "package_from_jets", "curvature.package_from_jets"),
    ("lcwcheck.bivectors", "to_operator", "bivectors.to_operator"),
    ("lcwcheck.bivectors", "WeylProjector", "bivectors.WeylProjector"),
    ("lcwcheck.eigenflag", "min_residual", "eigenflag.min_residual"),
    ("lcwcheck.eigenflag", "certify_positive_minimum", "eigenflag.certify"),
    ("lcwcheck.cottonyork", "CottonYorkTensor.from_matrix", "cottonyork.from_matrix"),
    ("lcwcheck.cottonyork", "classify_cy", "cottonyork.classify_cy"),
    ("lcwcheck.genericity", "sample_weyl", "genericity.sample_weyl"),
    ("lcwcheck.genericity", "residual_statistics", "genericity.residual_statistics"),
    ("lcwcheck.genericity", "scan_metric", "genericity.scan_metric"),
)

# Arithmetic entry points of the Jet3 class; calls are counted, not spanned.
JET3_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
            "__truediv__", "__rtruediv__", "__neg__", "__pow__", "reciprocal",
            "sin", "cos", "tan", "exp", "log", "sqrt", "atan")

LAYERS = ("metrics", "jets", "curvature", "bivectors", "eigenflag", "cottonyork",
          "genericity", "cli")

POINT_SPANS = ("cli.point", "genericity.point")

# span record fields
NAME, START, END, PARENT, POINT, RAISED = range(6)

# Every benchmark time is CPU time of the one process: on a shared host the
# wall clock also counts the time the process waits for a CPU.
clock = time.process_time


class Tracer:
    """Span recorder for one traced phase of a benchmark run."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.points = 0
        self.jet3_ops = 0
        self.results: dict[str, list] = {"eigenflag.min_residual": [], "eigenflag.certify": []}
        self.missing: list[str] = []
        self._restore: list[tuple] = []

    # -- span bookkeeping -------------------------------------------------

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        if name in POINT_SPANS:
            self.points += 1
            point = self.points
        else:
            point = self.spans[parent][POINT] if parent >= 0 else 0
        self.spans.append([name, clock(), None, parent, point, False])
        self.stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index: int, raised: bool = False) -> None:
        now = clock()
        while self.stack and self.stack[-1] != index:
            # a synthetic point span still open inside the span being closed
            self.spans[self.stack.pop()][END] = now
        self.stack.pop()
        self.spans[index][END] = now
        self.spans[index][RAISED] = raised

    def _top_name(self):
        return self.spans[self.stack[-1]][NAME] if self.stack else None

    def _point_boundary(self) -> None:
        """``scan_metric`` has no per-point function: a point starts at each jet evaluation."""
        top = self._top_name()
        if top == "genericity.point":
            self.close(self.stack[-1])
            self.open("genericity.point")
        elif top == "genericity.scan_metric":
            self.open("genericity.point")

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around one timed call."""
        index = self.open(name)
        raised = True
        try:
            yield
            raised = False
        finally:
            self.close(index, raised)

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self
        on_result = self.results.get(name)
        boundary = name == "jets.metric_jets"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._top_name() == name:  # recursion: outermost call only
                return fn(*args, **kwargs)
            if boundary:
                tracer._point_boundary()
            with tracer.span(name):
                out = fn(*args, **kwargs)
            if on_result is not None:
                on_result.append(out)
            return out

        return traced

    def _count(self, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.jet3_ops += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "lcwcheck" or k.startswith("lcwcheck."))]
        for modname, attr, name in TARGETS:
            module = sys.modules.get(modname)
            owner_name, _, member = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            if owner is None or member not in vars(owner):
                self.missing.append(f"{modname}.{attr}")
                continue
            if owner_name:
                raw = vars(owner)[member]
                if isinstance(raw, staticmethod):
                    wrapped = staticmethod(self._wrap(name, raw.__func__))
                else:
                    wrapped = self._wrap(name, raw)
                setattr(owner, member, wrapped)
                self._restore.append((owner, member, raw))
                continue
            target = vars(owner)[member]
            wrapper = self._wrap(name, target)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is target:
                        setattr(mod, key, wrapper)
                        self._restore.append((mod, key, target))
        jet3 = getattr(sys.modules.get("lcwcheck.jets"), "Jet3", None)
        for op in JET3_OPS if jet3 is not None else ():
            raw = vars(jet3).get(op)
            if raw is None:
                continue
            setattr(jet3, op, self._count(raw))
            self._restore.append((jet3, op, raw))

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    # -- output ---------------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, point, raised in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "point": point,
                                     "raised": raised}) + "\n")

    def summary(self, cycles: int, traced_s: float, untraced_cycle_s: float,
                traced_cycle_s: float) -> dict:
        """Per-layer metrics over ``cycles`` traced passes lasting ``traced_s`` in total."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for s in spans:
            if s[PARENT] >= 0:
                child_time[s[PARENT]] += s[END] - s[START]
        self_time = Counter()
        for i, s in enumerate(spans):
            self_time[s[NAME].split(".")[0]] += s[END] - s[START] - child_time[i]

        def durations(*names):
            return [1e3 * (s[END] - s[START]) for s in spans if s[NAME] in names]

        def per_cli_call(name):
            """Total ``name`` span time, in ms, inside each ``lcwcheck.cli.main`` call."""
            totals = {i: 0.0 for i, s in enumerate(spans) if s[NAME] == "cli.main"}
            for s in spans:
                if s[NAME] == name:
                    up = s[PARENT]
                    while up >= 0 and spans[up][NAME] != "cli.main":
                        up = spans[up][PARENT]
                    if up >= 0:
                        totals[up] += 1e3 * (s[END] - s[START])
            return list(totals.values())

        reports = self.results["eigenflag.min_residual"]
        iterations = [r.iterations for r in reports]
        starts = sum(r.n_starts for r in reports)
        converged = sum(int(r.converged.sum()) for r in reports)
        certs = self.results["eigenflag.certify"]
        jet_points = len(durations("jets.metric_jets"))
        uncovered = self_time["op"] + sum(
            s[END] - s[START] - child_time[i] for i, s in enumerate(spans) if s[NAME] == "cli.main")

        metrics = {
            "metrics.load_metric.ms": median(durations("metrics.load_metric")),
            "jets.metric_jets.p50_ms": median(durations("jets.metric_jets")),
            "jets.metric_jets.p95_ms": percentile(durations("jets.metric_jets"), 0.95),
            "jets.jet3_ops_per_point": self.jet3_ops / jet_points if jet_points else 0.0,
            "curvature.package_from_jets.p50_ms": median(durations("curvature.package_from_jets")),
            "curvature.package_from_jets.p95_ms": percentile(
                durations("curvature.package_from_jets"), 0.95),
            "bivectors.to_operator.p50_ms": median(durations("bivectors.to_operator")),
            "bivectors.WeylProjector.build_ms": median(per_cli_call("bivectors.WeylProjector")),
            "eigenflag.min_residual.p50_ms": median(durations("eigenflag.min_residual")),
            "eigenflag.min_residual.p95_ms": percentile(durations("eigenflag.min_residual"), 0.95),
            "eigenflag.iterations_p50": median(iterations),
            "eigenflag.iterations_max": float(max(iterations, default=0)),
            "eigenflag.converged_share": converged / starts if starts else 0.0,
            "eigenflag.certify.p50_ms": median(durations("eigenflag.certify")),
            "eigenflag.certify.points": median([c.points for c in certs]),
            "eigenflag.certify.conclusive_share": (
                sum(bool(c.conclusive) for c in certs) / len(certs) if certs else 0.0),
            "cottonyork.from_matrix.p50_ms": median(durations("cottonyork.from_matrix")),
            "cottonyork.errors": sum(s[RAISED] for s in spans
                                     if s[NAME] == "cottonyork.from_matrix") / cycles,
            "cli.point.p50_ms": median(durations(*POINT_SPANS)),
            "cli.point.p95_ms": percentile(durations(*POINT_SPANS), 0.95),
            "cli.report_ms": median(per_cli_call("cli.report")),
            "trace.overhead": traced_cycle_s / untraced_cycle_s,
            "trace.coverage": 1.0 - uncovered / traced_s,
        }
        for layer in LAYERS:
            metrics[f"{layer}.share"] = self_time[layer] / traced_s
        return metrics


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty sample (the layer never ran)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return float(ordered[max(0, math.ceil(q * len(ordered)) - 1)])


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0
