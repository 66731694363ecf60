"""Command-line surface.

Subcommands: ``curvature``, ``obstruct``, ``perturb``, ``solve-cy``,
``sample``, ``scan``.  Reports are JSON, bulk scans CSV; every float is
serialized with 17 significant digits so fixed-seed runs are
byte-identical.  The verdict language is one-sided on purpose: the tool
certifies *non-existence* of a local limiting Carleman weight (via the
contrapositive of the pointwise necessary conditions) and never asserts
existence.

Exit codes: 0 success, 2 parse error, 3 evaluation error, 4 optimizer
failed to converge on all starts at some point (report still emitted),
5 I/O error.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import __version__
from .cottonyork import DEFAULT_DET_TOL, obstruction_verdict_3d
from .curvature import DimensionError, curvature_package
from .eigenflag import DEFAULT_TOL_EIGENFLAG, DEFAULT_TOL_NOT_EIGENFLAG
from .exprs import EvalError, ExprError
from .genericity import (ScanResult, ScanRow, fmt17, grid_points, obstruct_points,
                         residual_statistics, scan_metric)
from .jets import MetricNotPositive
from .metrics import MAX_DIMENSION, MIN_DIMENSION, MetricError, load_metric
from .perturb import (AlgebraicCurvature, PositivityError, RankDeficiencyError,
                      perturb_curvature, solve_cy_target)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_EVAL = 3
EXIT_OPTIMIZER = 4
EXIT_IO = 5


def dumps17(obj, indent: int = 0) -> str:
    """JSON with floats at 17 significant digits (bit-stable regression I/O)."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(f'{pad}  "{k}": {dumps17(v, indent + 1)}' for k, v in obj.items())
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        body = ", ".join(dumps17(v, indent + 1) for v in obj)
        if len(body) <= 100:
            return "[" + body + "]"
        items = ",\n".join(f"{pad}  {dumps17(v, indent + 1)}" for v in obj)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return fmt17(obj)
    if isinstance(obj, str):
        return '"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if obj is None:
        return "null"
    if isinstance(obj, np.ndarray):
        return dumps17(obj.tolist(), indent)
    raise TypeError(f"cannot serialize {type(obj)}")


def _write_output(text: str, out_path):
    if out_path is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _parse_point(text: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad point {text!r}: expected comma-separated floats")


def _parse_grid(text: str) -> list[int]:
    try:
        grid = [int(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad grid {text!r}: expected comma-separated counts")
    if min(grid) < 1:
        raise argparse.ArgumentTypeError(f"bad grid {text!r}: every count must be at least 1")
    return grid


def _integer_at_least(what: str, low: int):
    """An argparse type: an integer no smaller than ``low``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad {what} {text!r}: expected an integer")
        if value < low:
            raise argparse.ArgumentTypeError(f"bad {what} {text!r}: must be at least {low}")
        return value

    return parse


_parse_count = _integer_at_least("count", 1)
_parse_seed = _integer_at_least("seed", 0)


# --- subcommand handlers ------------------------------------------------------


def _arity_ok(spec, grid, points) -> bool:
    """Whether a --grid and every --point give one entry per coordinate; says why not."""
    n = spec.dimension
    if grid is not None and len(grid) != n:
        print(f"lcwcheck: parse error: --grid must give {n} axis counts", file=sys.stderr)
        return False
    if any(len(p) != n for p in points or ()):
        print(f"lcwcheck: parse error: --point must have {n} coordinates", file=sys.stderr)
        return False
    return True


def _cmd_curvature(args) -> int:
    spec = load_metric(args.metric)
    if not _arity_ok(spec, None, [args.point]):
        return EXIT_PARSE
    pkg = curvature_package(spec, args.point, args.orientation)
    doc = {
        "tool_version": __version__,
        "metric": str(args.metric),
        "dimension": pkg.n,
        "point": list(pkg.point),
        "scalar_curvature": pkg.scalar,
        "norms": {
            "riemann": pkg.riemann_norm,
            "ricci": float(np.linalg.norm(pkg.ricci)),
            "schouten": float(np.linalg.norm(pkg.schouten)),
            "weyl": pkg.weyl_norm,
            "cotton": pkg.cotton_norm,
        },
        "components_frame": {
            "riemann": pkg.riemann,
            "ricci": pkg.ricci,
            "schouten": pkg.schouten,
            "weyl": pkg.weyl,
        },
    }
    if pkg.n == 3:
        doc["norms"]["cotton_york"] = pkg.cotton_york_norm
        doc["components_frame"]["cotton"] = pkg.cotton
        doc["components_frame"]["cotton_york"] = pkg.cotton_york
        doc["cotton_york_det"] = pkg.cotton_york_det
    _write_output(dumps17(doc), args.out)
    return EXIT_OK


def _cmd_obstruct(args) -> int:
    if args.grid is None and not args.point:
        print("lcwcheck: parse error: obstruct needs --point or --grid", file=sys.stderr)
        return EXIT_PARSE
    spec = load_metric(args.metric)
    if not _arity_ok(spec, args.grid, args.point):
        return EXIT_PARSE
    points = grid_points(spec, args.grid) if args.grid is not None else args.point

    verdicts = obstruct_points(spec, points, args.starts, args.seed, args.orientation,
                               args.tol_eigenflag, args.tol_det)
    failed = [v for v in verdicts if isinstance(v, Exception)]
    if failed:
        raise failed[0]
    certified = [v for v in verdicts if v.verdict == "no_lcw_certified"]
    if certified:
        headline = {
            "verdict": "no_lcw_certified",
            "witness_point": list(certified[0].point),
            "text": "no limiting Carleman weight exists on any neighborhood "
                    "containing this point",
        }
    else:
        headline = {
            "verdict": "inconclusive",
            "text": "inconclusive: necessary condition holds at all sampled points",
        }
    if args.format == "csv":
        rows = tuple(ScanRow(v.point, v.norm, v.obstruction, v.verdict) for v in verdicts)
        _write_output(ScanResult(spec.dimension, args.grid, rows).to_csv(), args.out)
    else:
        _write_output(dumps17({
            "tool_version": __version__,
            "metric": str(args.metric),
            "dimension": spec.dimension,
            "branch": verdicts[0].branch,
            "tolerances": {
                "tol_eigenflag": args.tol_eigenflag,
                "tol_not_eigenflag": DEFAULT_TOL_NOT_EIGENFLAG,
                "tol_det": args.tol_det,
            },
            "seed": args.seed,
            "starts": args.starts,
            "orientation": args.orientation,
            "headline": headline,
            "points": [v.to_dict() for v in verdicts],
        }), args.out)
    if not all(v.converged for v in verdicts):
        return EXIT_OPTIMIZER
    return EXIT_OK


def _cmd_perturb(args) -> int:
    if args.zero:
        rstar = AlgebraicCurvature(args.dimension,
                                   np.zeros((args.dimension,) * 4))
    else:
        rng = np.random.default_rng(args.seed)
        rstar = AlgebraicCurvature.random(args.dimension, rng, scale=args.scale)
    spec = perturb_curvature(rstar)
    _write_output(spec.to_json() + "\n", args.out)
    return EXIT_OK


def _cmd_solve_cy(args) -> int:
    m11, m22, m33, m12, m13, m23 = args.target
    target = np.array([[m11, m12, m13], [m12, m22, m23], [m13, m23, m33]])
    solution = solve_cy_target(target)
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(solution.metric.to_json() + "\n")
    doc = {
        "tool_version": __version__,
        "target": target,
        "achieved": solution.achieved.matrix,
        "achieved_det": solution.achieved.determinant,
        "achieved_eigenvalues": solution.achieved.eigenvalues,
        "coefficient_norm": float(np.linalg.norm(solution.coefficients.packed)),
        "verdict": obstruction_verdict_3d(solution.achieved, args.tol_det),
        "metric_file": None if args.out is None else str(args.out),
    }
    sys.stdout.write(dumps17(doc) + "\n")
    return EXIT_OK


def _cmd_sample(args) -> int:
    stats = residual_statistics(args.dimension, args.count, args.seed,
                                starts=args.starts)
    _write_output(stats.to_csv(), args.out)
    summary = {
        "tool_version": __version__,
        "dimension": stats.n,
        "count": stats.count,
        "seed": stats.seed,
        "quantiles": stats.quantiles,
        "calibrated_threshold": stats.threshold,
    }
    if args.out is not None:
        sys.stdout.write(dumps17(summary) + "\n")
    return EXIT_OK


def _cmd_scan(args) -> int:
    spec = load_metric(args.metric)
    if not _arity_ok(spec, args.grid, None):
        return EXIT_PARSE
    result = scan_metric(spec, args.grid, starts=args.starts, seed=args.seed,
                         orientation=args.orientation,
                         tol_eigenflag=args.tol_eigenflag,
                         tol_det=args.tol_det)
    _write_output(result.to_csv(), args.out)
    return EXIT_OK


# --- argument wiring ----------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lcwcheck",
        description="Pointwise curvature obstructions to local limiting "
                    "Carleman weights.")
    parser.add_argument("--version", action="version", version=f"lcwcheck {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, metric=True):
        if metric:
            p.add_argument("metric", help="metric JSON document")
        p.add_argument("--seed", type=_parse_seed, default=None, help="optimizer start-set seed")
        p.add_argument("--starts", type=int, default=None, help="multistart count (default 8n)")
        p.add_argument("--tol-eigenflag", type=float, default=DEFAULT_TOL_EIGENFLAG)
        p.add_argument("--tol-det", type=float, default=DEFAULT_DET_TOL)
        p.add_argument("--orientation", type=int, choices=(1, -1), default=1)
        p.add_argument("--out", default=None, help="output path (default stdout)")

    p = sub.add_parser("curvature", help="pointwise tensors and norms")
    p.add_argument("metric")
    p.add_argument("--point", type=_parse_point, required=True,
                   help="comma-separated coordinates; write --point=-0.5,0,0 "
                        "when the first one is negative")
    p.add_argument("--orientation", type=int, choices=(1, -1), default=1)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_curvature)

    p = sub.add_parser("obstruct", help="obstruction verdicts at points or on a grid")
    common(p)
    p.add_argument("--point", type=_parse_point, action="append", default=[])
    p.add_argument("--grid", type=_parse_grid, default=None)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(handler=_cmd_obstruct)

    p = sub.add_parser("perturb", help="emit a flat metric with prescribed curvature at 0")
    p.add_argument("--dimension", type=int, choices=range(MIN_DIMENSION, MAX_DIMENSION + 1),
                   required=True)
    p.add_argument("--seed", type=_parse_seed, default=0)
    p.add_argument("--scale", type=float, default=0.05,
                   help="Frobenius norm of the prescribed curvature")
    p.add_argument("--zero", action="store_true", help="prescribe zero curvature")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_perturb)

    p = sub.add_parser("solve-cy", help="metric with prescribed Cotton-York tensor at 0")
    p.add_argument("--target", type=float, nargs=6, required=True,
                   metavar=("M11", "M22", "M33", "M12", "M13", "M23"),
                   help="trace-free symmetric target, diagonal then off-diagonal")
    p.add_argument("--tol-det", type=float, default=DEFAULT_DET_TOL)
    p.add_argument("--out", default=None, help="where to write the metric document")
    p.set_defaults(handler=_cmd_solve_cy)

    p = sub.add_parser("sample", help="residual statistics over random Weyl operators")
    p.add_argument("--dimension", type=int, choices=range(4, MAX_DIMENSION + 1), required=True)
    p.add_argument("--count", type=_parse_count, default=100)
    p.add_argument("--seed", type=_parse_seed, default=0)
    p.add_argument("--starts", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_sample)

    p = sub.add_parser("scan", help="obstruction table over a chart grid")
    common(p)
    p.add_argument("--grid", type=_parse_grid, required=True)
    p.set_defaults(handler=_cmd_scan)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (MetricError, ExprError) as exc:
        if isinstance(exc, EvalError):
            print(f"lcwcheck: evaluation error: {exc}", file=sys.stderr)
            return EXIT_EVAL
        print(f"lcwcheck: parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (MetricNotPositive, DimensionError, PositivityError,
            RankDeficiencyError, np.linalg.LinAlgError, ValueError) as exc:
        print(f"lcwcheck: evaluation error: {exc}", file=sys.stderr)
        return EXIT_EVAL
    except OSError as exc:
        print(f"lcwcheck: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
