"""Seeded inputs and the operation list of each workload.

Everything here is standard library only and independent of the package
under test, so a change to ``lcwcheck`` (say, to its own random-metric
helper) cannot change what the benchmark feeds it.  A plan is a JSON
document: the metric files it references are written next to it, and the
child process (``child.py``) executes its operations.
"""

from __future__ import annotations

import itertools
import json
import random
from pathlib import Path

WORKLOADS = ("grid4d", "chart3d", "highdim", "genericity")

# Sizes per workload: (full, tiny).  The tiny sizes exist for the smoke
# test only; they exercise every operation kind in about a second.
SIZES = {
    "grid4d": ({"grid": 3}, {"grid": 2}),
    "chart3d": ({"random_grid": 8, "zero_grid": 6}, {"random_grid": 2, "zero_grid": 2}),
    "highdim": ({"points6": 3, "points8": 2}, {"points6": 1, "points8": 1}),
    "genericity": ({"count": 300, "random_ops": 3, "planted_ops": 2, "resolution": 24},
                   {"count": 4, "random_ops": 1, "planted_ops": 1, "resolution": 8}),
}

POLY_AMPLITUDE = 0.04   # keeps delta + polynomial positive definite on [-1, 1]^n
POINT_BOX = 0.8         # highdim points are interior: |x_i| <= 0.8


def _coords(n: int) -> list[str]:
    return [f"x{i + 1}" for i in range(n)]


def _monomials(coords, degree: int) -> list[str]:
    return ["*".join(c) for d in range(1, degree + 1)
            for c in itertools.combinations_with_replacement(coords, d)]


def _signed_sum(head: str, terms) -> str:
    out = head
    for coeff, mono in terms:
        out += ("+" if coeff >= 0 else "-") + f"{abs(coeff)!r}*{mono}"
    return out


def polynomial_metric(n: int, rng: random.Random, degree: int = 3) -> dict:
    """delta_ij plus a small random polynomial of the given degree per entry."""
    coords = _coords(n)
    monos = _monomials(coords, degree)
    scale = POLY_AMPLITUDE / len(monos)
    g = [[None if j < i else _signed_sum("1" if i == j else "0",
                                         ((rng.uniform(-scale, scale), m) for m in monos))
          for j in range(n)] for i in range(n)]
    return {"dimension": n, "coordinates": coords, "g": g}


def conformal_metric(entry: str, n: int = 3) -> dict:
    g = [[entry if i == j else ("0" if j > i else None) for j in range(n)] for i in range(n)]
    return {"dimension": n, "coordinates": _coords(n), "g": g}


def sphere_metric() -> dict:
    """Round unit 3-sphere in stereographic coordinates (Cotton-York is zero)."""
    return conformal_metric("4/(1+x1^2+x2^2+x3^2)^2")


def conformally_flat_metric(rng: random.Random) -> dict:
    """exp(2 f) delta with a seeded cubic f (Cotton-York is zero)."""
    monos = _monomials(_coords(3), 3)
    f = _signed_sum("0", ((rng.uniform(-0.3, 0.3), m) for m in monos))
    return conformal_metric(f"exp(2*({f}))")


def _point_arg(rng: random.Random, n: int) -> str:
    coords = ",".join(repr(rng.uniform(-POINT_BOX, POINT_BOX)) for _ in range(n))
    return f"--point={coords}"


def build(workload: str, seed: int, workdir: Path, tiny: bool = False) -> dict:
    """Write the workload's metric documents under ``workdir``; return the plan.

    Each operation is one call the timed loop makes.  ``rows`` is the
    number of verdicts the call must report; ``zero_cy`` marks metrics
    whose Cotton-York tensor vanishes identically, where any certified
    obstruction is wrong.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    size = SIZES[workload][1 if tiny else 0]
    rng = random.Random(f"{workload}:{seed}")
    ops = []

    def metric_file(name: str, doc: dict) -> str:
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(doc, indent=1), encoding="utf-8")
        return str(path)

    def out_file(name: str) -> str:
        return str(workdir / name)

    if workload == "grid4d":
        k = size["grid"]
        m = metric_file("poly4", polynomial_metric(4, rng))
        ops.append({"kind": "obstruct", "rows": k ** 4, "out": out_file("grid4d.json"),
                    "args": ["obstruct", m, "--grid", ",".join([str(k)] * 4)]})
    elif workload == "chart3d":
        metrics = [("poly3", polynomial_metric(3, rng), size["random_grid"], False),
                   ("sphere3", sphere_metric(), size["zero_grid"], True),
                   ("conformal3", conformally_flat_metric(rng), size["zero_grid"], True)]
        for name, doc, k, zero in metrics:
            ops.append({"kind": "scan", "rows": k ** 3, "zero_cy": zero,
                        "out": out_file(f"{name}.csv"),
                        "args": ["scan", metric_file(name, doc), "--grid", f"{k},{k},{k}"]})
    elif workload == "highdim":
        for n in (6, 8):
            count = size[f"points{n}"]
            m = metric_file(f"poly{n}", polynomial_metric(n, rng))
            points = [_point_arg(rng, n) for _ in range(count)]
            ops.append({"kind": "obstruct", "rows": count, "out": out_file(f"highdim{n}.json"),
                        "args": ["obstruct", m, *points]})
    else:
        count = size["count"]
        ops.append({"kind": "sample", "rows": count, "out": out_file("sample5.csv"),
                    "args": ["sample", "--dimension", "5", "--count", str(count),
                             "--seed", str(seed)]})
        for _ in range(size["random_ops"]):
            ops.append({"kind": "certify", "rows": 1, "planted": False,
                        "resolution": size["resolution"],
                        "operator": {"sample_weyl_seed": rng.randrange(2 ** 32)}})
        for _ in range(size["planted_ops"]):
            a, b = rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)
            ops.append({"kind": "certify", "rows": 1, "planted": True,
                        "resolution": size["resolution"],
                        "operator": {"stratum4": [a, b, -a - b],
                                     "frame_seed": rng.randrange(2 ** 32)}})

    for op in ops:
        if op["kind"] != "certify":
            op["args"] += ["--out", op["out"]]

    # Round-trip checks of the constructive subcommands, run by the gate.
    m11, m22, m12, m13, m23 = (rng.uniform(-1.0, 1.0) for _ in range(5))
    checks = {
        "perturb": {"dimension": 4, "seed": seed, "scale": 0.05,
                    "out": out_file("perturb4.json")},
        "solve_cy": {"target": [m11, m22, -m11 - m22, m12, m13, m23],
                     "out": out_file("solve_cy.json")},
    }
    return {"workload": workload, "seed": seed, "tiny": tiny, "ops": ops, "checks": checks}
