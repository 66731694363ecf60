"""lcwcheck benchmark: seeded CLI workloads, end-to-end metrics, traced layers.

Run from the repository root::

    python3 bench/run.py --workload grid4d --seed 1 --seconds 24 --trace 0

Workloads (inputs generated from ``--seed`` by ``plan.py``):

* ``grid4d``: ``obstruct --grid 3,3,3,3`` on a random degree-3 4-D metric.
* ``chart3d``: ``scan`` on a random degree-3 3-D metric (8^3 points), the
  round sphere and a conformally flat metric (6^3 points each).
* ``highdim``: ``obstruct --point`` at seeded interior points of random
  degree-3 metrics in dimensions 6 (3 points) and 8 (2 points).
* ``genericity``: ``sample --dimension 5 --count 300``, then the n = 4
  grid certificate at resolution 24 on three random Weyl operators and two
  planted top-stratum eigenflag operators.

One pass over a workload's operations is a cycle.  A run repeats cycles
for ``--seconds`` in one fresh single-threaded child interpreter, each
cycle with the package's caches emptied as in a new CLI process.  The
outputs of the first cycle are checked; every later cycle must reproduce
them byte for byte.  The load is one process on one thread, so no layer
waits on another and there are no wait metrics.  Every time below is CPU
time of the measured process (``time.process_time``): on a shared host the
wall clock also counts the time a process waits for a CPU.

On such a host the CPU time of one computation also swings by up to 2x
within seconds, as neighbours load the machine.  So while a cycle runs,
the child samples the host's speed every 50 ms with a fixed kernel that
does not use lcwcheck (``hostspeed.py``), and rescales the cycle's call
time, less the samples' time, by the mean speed.  A change to lcwcheck
moves the call time, not the kernel's.

End-to-end metrics (``--trace 0``):

* ``verdicts_per_s``: median over cycles of verdicts per CPU second of
  call time at the reference speed.  A verdict is one row of an
  ``obstruct``/``scan``/``sample`` report (error rows included) or one
  certificate; the time includes the CLI's metric parse and report
  writing.  The record in ``.bench_out/`` keeps the unscaled times too.
* ``setup_s``: median over seven fresh interpreters of the time to
  ``import lcwcheck.cli``, which every CLI invocation pays, at the
  reference speed (the kernel runs once the import is done and numpy is
  loaded).
* ``ok_share``: 1 - failed/attempted verdicts.  A failure is an
  ``error:*`` row, a point lost to an aborting exit, or a raising call.
* ``peak_rss_mb``: peak resident memory of the child process.

Per-layer metrics (``--trace 1``) come from ``tracing.py``: the first
half of the run is untraced, the second traced.  Layer times are
percentiles of span durations; ``<layer>.share`` is the layer's self
time over the traced call time; ``trace.coverage`` is the share of that
time spent inside layer spans below the CLI entry point;
``cottonyork.errors`` counts raising ``from_matrix`` calls per cycle;
``trace.overhead`` is the median traced cycle over the median untraced
cycle of the same run.  Traced runs are not rescaled.  A layer a
workload never enters reports 0.

The run fails (``correct`` false, exit 1) on a crash, an undocumented
exit code, a wrong row count, a non-finite obstruction on a non-error
row, a certified obstruction on a metric with vanishing Cotton-York
tensor, a planted eigenflag operator that is not found or is certified,
outputs that differ between identical passes, or a ``perturb`` /
``solve-cy`` metric that misses its prescribed curvature.  With seed 0
the verdicts and obstructions are compared against
``reference/seed0.json`` and the drift is printed.

The last line of standard output is the JSON result; the full record,
with run metadata, is written to ``.bench_out/``, and with ``--trace 1``
the spans too.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import plan as planner

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
REFERENCE = BENCH / "reference" / "seed0.json"
DEADLINE_S = 170.0
SETUP_REPEATS = 7
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def child_env() -> dict:
    env = dict(os.environ)
    env.update({k: "1" for k in THREAD_ENV})
    env["PYTHONHASHSEED"] = "0"
    return env


def measure_setup(repeats: int, deadline: float) -> float:
    """Median fresh-interpreter CPU time to import lcwcheck.cli (after one warm
    import), each rescaled to the reference speed by the kernel run after it."""
    probe = ("import sys, time\n"
             "sys.path[:0] = sys.argv[1:]\n"
             "t = time.process_time()\n"
             "import lcwcheck.cli\n"
             "t = time.process_time() - t\n"
             "import hostspeed\n"
             "hostspeed.reference_work()\n"
             "kernel = sorted(hostspeed.reference_work() for _ in range(5))[2]\n"
             "print(t * hostspeed.REFERENCE_S / kernel)\n")
    times = []
    for k in range(repeats + 1):
        out = subprocess.run([sys.executable, "-c", probe, str(ROOT / "src"), str(BENCH)],
                             env=child_env(), capture_output=True, text=True, check=True,
                             timeout=max(1.0, deadline - time.monotonic()))
        if k:
            times.append(float(out.stdout))
    return statistics.median(times)


def drift(workload: str, rows) -> dict | None:
    """Verdict changes and largest relative obstruction change against the seed-0 outputs."""
    if not REFERENCE.exists():
        return None
    ref = json.loads(REFERENCE.read_text(encoding="utf-8")).get(workload)
    if ref is None:
        return None
    changes = abs(len(ref) - len(rows))
    rel = 0.0
    for (verdict, value), (ref_verdict, ref_value) in zip(rows, ref):
        changes += verdict != ref_verdict
        if math.isfinite(value) and math.isfinite(ref_value) and value != ref_value:
            rel = max(rel, abs(value - ref_value) / max(abs(value), abs(ref_value)))
    return {"verdict_changes": changes, "obstruction_max_rel_diff": rel}


def git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def metadata(versions: dict) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        **versions,
        "blas_threads_env": {k: child_env()[k] for k in THREAD_ENV},
        "git_commit": git_commit(),
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                         for p in sorted((ROOT / "src").rglob("*.py"))),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=planner.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest inputs, one set-up probe (smoke test)")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "lcwcheck" / "cli.py").is_file():
        print(f"bench: no lcwcheck sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}"
    work = Path(tempfile.mkdtemp(prefix=f"{tag}-", dir=OUT))
    try:
        plan = planner.build(args.workload, args.seed, work, args.tiny)
        plan_path = work / "plan.json"
        plan_path.write_text(json.dumps(plan, indent=1), encoding="utf-8")
        setup_s = (measure_setup(1 if args.tiny else SETUP_REPEATS, deadline)
                   if not args.trace else None)
        child = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), str(plan_path), str(work / "result.json"),
             repr(args.seconds), str(args.trace), str(OUT / f"{tag}-spans.jsonl")],
            env=child_env(), cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=max(1.0, deadline - time.monotonic()))
        if child.returncode != 0:
            sys.stderr.write(child.stderr[-4000:])
            print(f"bench: child process exited with {child.returncode}", file=sys.stderr)
            return 2
        result = json.loads((work / "result.json").read_text(encoding="utf-8"))
    except subprocess.TimeoutExpired:
        print(f"bench: run exceeded {DEADLINE_S:.0f} s", file=sys.stderr)
        return 2
    except subprocess.CalledProcessError as exc:
        print(f"bench: importing lcwcheck.cli failed:\n{exc.stderr[-2000:]}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    cycles = result["cycle_s"]
    attempted = result["attempted_per_cycle"] * len(cycles)
    failed = result["failed_per_cycle"] * len(cycles)
    if args.trace:
        values = result["layers"]
    else:
        values = {
            "verdicts_per_s": statistics.median(result["attempted_per_cycle"] / t for t in cycles),
            "setup_s": setup_s,
            "ok_share": 1.0 - failed / attempted,
            "peak_rss_mb": result["peak_rss_mb"],
        }
    metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "cycles": len(cycles), "cycle_s": cycles,
        "raw_cycle_s": result["raw_cycle_s"],
        "metrics": metrics, "errors": result["errors"],
        "drift": None if args.seed != 0 or args.tiny else drift(args.workload, result["rows"]),
        "trace_missing": result.get("trace_missing", []),
        "metadata": metadata(result["versions"]),
    }
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"cycles {len(cycles)} attempted {attempted} failed {failed}")
    if not args.trace:
        print("unscaled verdicts_per_s {:.6g} 1/s".format(statistics.median(
            result["attempted_per_cycle"] / t for t in result["raw_cycle_s"])))
    if record["drift"] is not None:
        print("drift " + json.dumps(record["drift"]))
    if record["trace_missing"]:
        print("trace targets not found: " + ", ".join(record["trace_missing"]))
    for error in list(dict.fromkeys(result["errors"]))[:20]:
        print(f"CHECK FAILED: {error}")
    print("metadata " + json.dumps(record["metadata"]))
    correct = not result["errors"]
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
