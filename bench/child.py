"""One benchmark run inside a fresh, single-threaded interpreter.

Usage: ``python3 bench/child.py PLAN RESULT SECONDS TRACE SPANS``

Imports lcwcheck from the checkout's ``src/``, runs the plan's operations
in passes ("cycles") through ``lcwcheck.cli.main`` and the library, times
every call in CPU time of this process, and checks the outputs outside the
timed region.  With TRACE 0 every pass runs under ``hostspeed.HostSpeed``,
which samples how fast the host runs this process during the pass, and
its time is rescaled to the reference speed by it.  With TRACE 1 the first
half of the time runs untraced and the second half under the tracer, which
gives the per-layer metrics and the tracing overhead; nothing is rescaled.
Writes a JSON result to RESULT; the parent turns it into metrics.
"""

from __future__ import annotations

import csv
import json
import math
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import lcwcheck  # noqa: E402
import lcwcheck.cli  # noqa: E402
import lcwcheck.eigenflag  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from tracing import Tracer, clock, median  # noqa: E402

DOCUMENTED_EXITS = {0, 2, 3, 4, 5}
REPORTED_EXITS = {0, 4}           # the report is written in full
CERTIFIED = {"no_lcw_certified", "nonsingular", "not_eigenflag"}


def cache_clearers():
    """Every functools cache in the package, emptied before each pass.

    Each CLI invocation is a fresh process that rebuilds these (the Weyl
    projector, packed-index tables); one process running many passes would
    otherwise pay that cost once and hide it.
    """
    cached = {id(v): v for k, m in sys.modules.items()
              if k == "lcwcheck" or k.startswith("lcwcheck.")
              for v in vars(m).values() if callable(getattr(v, "cache_clear", None))}
    return [v.cache_clear for v in cached.values()]


def make_operator(spec: dict):
    from lcwcheck import eigenflag, genericity
    if "sample_weyl_seed" in spec:
        return genericity.sample_weyl(4, np.random.default_rng(spec["sample_weyl_seed"]))
    frame, _ = np.linalg.qr(np.random.default_rng(spec["frame_seed"]).standard_normal((4, 4)))
    return eigenflag.construct_stratum4(spec["stratum4"], frame)


class Runner:
    def __init__(self, plan: dict):
        self.ops = plan["ops"]
        self.operators = [make_operator(op["operator"]) if op["kind"] == "certify" else None
                          for op in self.ops]
        self.clear = cache_clearers()
        self.tracer = None
        self.speed = None       # a HostSpeed while passes are rescaled

    def call(self, i: int):
        """Run operation ``i``; return (CPU seconds, outcome)."""
        op = self.ops[i]
        if op["kind"] == "certify":
            fn, args, kwargs = (lcwcheck.eigenflag.certify_positive_minimum,
                                (self.operators[i],), {"grid_resolution": op["resolution"]})
        else:
            fn, args, kwargs = lcwcheck.cli.main, (op["args"],), {}
        span = self.tracer.span(f"op.{op['kind']}") if self.tracer else nullcontext()
        sampled = self.speed.spent if self.speed else 0.0
        start = clock()
        try:
            with span:
                outcome = fn(*args, **kwargs)
        except SystemExit as exc:           # argparse rejects its input this way
            outcome = exc.code
        except Exception as exc:            # noqa: BLE001 - a crash is a result here
            outcome = exc
        elapsed = clock() - start
        if self.speed:                      # the host-speed samples taken meanwhile
            elapsed -= self.speed.spent - sampled
        return elapsed, outcome

    def cycle(self):
        """One pass: (CPU seconds, outcome) per call, and the pass's CPU time
        at the reference speed (as measured if no HostSpeed is set)."""
        for clear in self.clear:
            clear()
        if self.speed is None:
            results = [self.call(i) for i in range(len(self.ops))]
            return results, sum(t for t, _ in results)
        with self.speed as speeds:
            results = [self.call(i) for i in range(len(self.ops))]
        return results, sum(t for t, _ in results) * sum(speeds) / len(speeds)


# --- correctness gate ----------------------------------------------------------


def read_rows(op: dict) -> list[tuple[str, float]]:
    """(verdict, obstruction) per row of an operation's report."""
    text = Path(op["out"]).read_text(encoding="utf-8")
    if op["kind"] == "obstruct":
        return [(p["verdict"], float(p["obstruction"])) for p in json.loads(text)["points"]]
    table = list(csv.DictReader(text.splitlines()))
    value = "obstruction" if op["kind"] == "scan" else "residual_min"
    return [(r["verdict"], float(r[value])) for r in table]


def check_pass(ops, results, errors: list) -> tuple[list, int]:
    """Gate one pass; return its rows (for drift) and its failed-operation count."""
    rows, failed = [], 0
    for k, (op, (_, outcome)) in enumerate(zip(ops, results)):
        where = f"op {k} ({op['kind']})"
        if op["kind"] == "certify":
            if isinstance(outcome, Exception):
                failed += 1
                rows.append(("error:" + type(outcome).__name__, math.nan))
                continue
            rows.append(("conclusive" if outcome.conclusive else "inconclusive",
                         float(outcome.lower_bound)))
            if op["planted"] and outcome.conclusive:
                errors.append(f"{where}: certificate conclusive on a planted eigenflag operator")
            continue
        if isinstance(outcome, Exception):
            errors.append(f"{where}: crashed with {type(outcome).__name__}: {outcome}")
            continue
        if outcome not in DOCUMENTED_EXITS:
            errors.append(f"{where}: undocumented exit code {outcome!r}")
            continue
        if outcome not in REPORTED_EXITS:
            failed += op["rows"]          # the whole call's points are lost
            rows.extend([(f"exit:{outcome}", math.nan)] * op["rows"])
            continue
        try:
            got = read_rows(op)
        except (OSError, ValueError, KeyError) as exc:
            errors.append(f"{where}: unreadable report: {exc!r}")
            continue
        if len(got) != op["rows"]:
            errors.append(f"{where}: {len(got)} rows, expected {op['rows']}")
        for verdict, value in got:
            if verdict.startswith("error:"):
                failed += 1
            elif not math.isfinite(value):
                errors.append(f"{where}: non-finite obstruction with verdict {verdict}")
            if op.get("zero_cy") and verdict in CERTIFIED:
                errors.append(f"{where}: certified obstruction where Cotton-York vanishes")
        rows.extend(got)
    return rows, failed


def check_round_trips(plan: dict, runner: Runner, errors: list) -> None:
    """perturb and solve-cy metrics must reproduce what they were built to have."""
    from lcwcheck.curvature import curvature_package
    from lcwcheck.metrics import load_metric
    from lcwcheck.perturb import AlgebraicCurvature

    p = plan["checks"]["perturb"]
    rc = lcwcheck.cli.main(["perturb", "--dimension", str(p["dimension"]), "--seed",
                            str(p["seed"]), "--scale", repr(p["scale"]), "--out", p["out"]])
    expected = AlgebraicCurvature.random(p["dimension"], np.random.default_rng(p["seed"]),
                                         scale=p["scale"]).tensor
    got = curvature_package(load_metric(p["out"]), np.zeros(p["dimension"])).coord.riemann
    err = float(np.abs(got - expected).max())
    if rc != 0 or err > 1e-10:
        errors.append(f"perturb round trip: exit {rc}, curvature error {err:.3g}")

    c = plan["checks"]["solve_cy"]
    m11, m22, m33, m12, m13, m23 = c["target"]
    target = np.array([[m11, m12, m13], [m12, m22, m23], [m13, m23, m33]])
    rc = lcwcheck.cli.main(["solve-cy", "--target", *map(repr, c["target"]), "--out", c["out"]])
    got = curvature_package(load_metric(c["out"]), np.zeros(3)).cotton_york
    err = float(np.linalg.norm(got - target))
    if rc != 0 or err > 1e-7 * (1.0 + np.linalg.norm(target)):
        errors.append(f"solve-cy round trip: exit {rc}, Cotton-York error {err:.3g}")

    for op, w in zip(plan["ops"], runner.operators):
        if op["kind"] == "certify" and op["planted"]:
            verdict = lcwcheck.eigenflag.min_residual(w).verdict
            if verdict != "eigenflag_within_tol":
                errors.append(f"planted stratum operator minimized to {verdict}")


# --- timed passes --------------------------------------------------------------


def outputs(runner: Runner, results) -> list:
    """What a pass produced: each call's outcome and the bytes of its report."""
    return [(repr(outcome), Path(op["out"]).read_bytes()
             if op["kind"] != "certify" and Path(op["out"]).exists() else None)
            for op, (_, outcome) in zip(runner.ops, results)]


def timed_cycles(runner: Runner, seconds: float, gate: dict,
                 errors: list) -> tuple[list[float], list[float]]:
    """Run passes while the next one, taking as long as the last, ends within
    ``seconds`` of wall time (at least one pass); return each one's call time
    at the reference speed, and as measured.

    The run's first pass is gated and its outputs kept in ``gate``; every
    later pass must reproduce them byte for byte.
    """
    times, raw, last = [], [], 0.0
    end = time.perf_counter() + seconds
    while not times or time.perf_counter() + last <= end:
        begun = time.perf_counter()
        results, scaled = runner.cycle()
        times.append(scaled)
        raw.append(sum(t for t, _ in results))
        if not gate:
            gate["rows"], gate["failed"] = check_pass(runner.ops, results, errors)
            gate["outputs"] = outputs(runner, results)
        elif outputs(runner, results) != gate["outputs"]:
            errors.append("outputs changed between identical passes")
        last = time.perf_counter() - begun
    return times, raw


def main(argv) -> int:
    plan_path, result_path, seconds, trace, spans_path = argv
    seconds, trace = float(seconds), trace == "1"
    if not Path(lcwcheck.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"lcwcheck imported from {lcwcheck.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    runner = Runner(plan)
    errors: list[str] = []

    gate: dict = {}
    result = {"errors": errors}
    if not trace:
        runner.speed = HostSpeed()
        result["cycle_s"], result["raw_cycle_s"] = timed_cycles(runner, seconds, gate, errors)
        runner.speed = None
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        untraced, _ = timed_cycles(runner, seconds / 2, gate, errors)
        runner.tracer = tracer = Tracer()
        tracer.install()
        try:
            traced, _ = timed_cycles(runner, seconds / 2, gate, errors)
        finally:
            tracer.uninstall()
            runner.tracer = None
        result["cycle_s"] = result["raw_cycle_s"] = traced
        result["layers"] = tracer.summary(len(traced), sum(traced),
                                          median(untraced), median(traced))
        result["trace_missing"] = tracer.missing
        tracer.write(spans_path)
    result.update(rows=gate["rows"], failed_per_cycle=gate["failed"],
                  attempted_per_cycle=sum(op["rows"] for op in plan["ops"]))
    try:
        check_round_trips(plan, runner, errors)
    except Exception as exc:  # noqa: BLE001 - a crash in a checked call fails the gate
        errors.append(f"round-trip checks crashed: {exc!r}")

    import scipy
    config = np.show_config(mode="dicts")
    result["versions"] = {
        "python": sys.version.split()[0], "numpy": np.__version__, "scipy": scipy.__version__,
        "blas": config.get("Build Dependencies", {}).get("blas", {}).get("version", "unknown"),
    }
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
