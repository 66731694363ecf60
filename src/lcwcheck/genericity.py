"""Sampling experiments behind the genericity picture.

Random Weyl operators (Gaussian in the ambient operator space, reduced to
their Weyl part, normalized) should stay away from the eigenflag set,
whose codimension is positive; residual statistics over such samples
calibrate the "not eigenflag" threshold empirically.  The calibration is
an artifact of the sampling, not a quantity with an analytic value, and
is therefore seed-stamped in every report.

The obstruction engine is shared by the ``obstruct`` and ``scan``
commands and the library: it picks the branch (the normalized eigenflag
residual for n >= 4, det of the Cotton-York tensor for n = 3), applies the
curvature-scaled zero floor and maps the branch label to the one-sided
verdict.  :func:`obstruct_points` runs jets, curvature and the n = 3
verdict once per curvature batch of points and the eigenflag descent once
per descent chunk; :func:`obstruct_point` is its call with one point.
Grid scans walk a chart box (:func:`grid_points`) and tabulate that
obstruction.  Scans are
deterministic: fixed-order traversal, floats printed with 17 significant
digits, so equal seeds give identical bytes.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from .bivectors import BivectorBasis, WeylOperator, to_operator, weyl_part
from .cottonyork import (DEFAULT_DET_TOL, DEFAULT_ZERO_FLOOR, CottonYorkTensor,
                         classify_cy)
from .curvature import DimensionError, frobenius_norm, obstruction_tensors
from .eigenflag import DEFAULT_TOL_EIGENFLAG, descent_chunk, min_residuals
from .jets import metric_jets
from .metrics import MetricSpec, coordinate_metric


def fmt17(x: float) -> str:
    return format(float(x), ".17g")


def sample_weyl(n: int, rng: np.random.Generator) -> WeylOperator:
    """Unit-Frobenius-norm Weyl operator, orthogonally invariant in law.

    Gaussian on the symmetric bivector operators, reduced to its Weyl part
    by :func:`~lcwcheck.bivectors.weyl_part` (W = R - S ^o g, the formula of
    the curvature pipeline; both steps equivariant under frame rotation),
    normalized.  Raises :class:`DimensionError` for n < 4.
    """
    if n < 4:
        raise DimensionError("Weyl operators vanish below dimension 4")
    basis = BivectorBasis(n)
    a = rng.standard_normal((basis.size, basis.size))
    proj = weyl_part(0.5 * (a + a.T))
    norm = np.linalg.norm(proj)
    if norm == 0.0:  # pragma: no cover - probability zero
        return sample_weyl(n, rng)
    return WeylOperator(n, proj / norm)


@dataclass(frozen=True)
class SampleStats:
    """Residual statistics over a seeded batch of random Weyl operators."""

    n: int
    count: int
    seed: int
    residuals: np.ndarray       # normalized min residual per sample, input order
    verdicts: tuple             # min_residual verdict per sample, input order
    quantiles: dict             # min / q05 / q50 / q95
    threshold: float            # calibrated not-eigenflag threshold (5% quantile)

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("index,residual_min,verdict\n")
        for k, (r, verdict) in enumerate(zip(self.residuals, self.verdicts)):
            buf.write(f"{k},{fmt17(r)},{verdict}\n")
        return buf.getvalue()


def residual_statistics(n: int, count: int, seed: int, starts: int | None = None,
                        extra_operators=()) -> SampleStats:
    """Minimize the eigenflag residual over ``count`` seeded samples.

    ``extra_operators`` are appended after the random batch (e.g. a planted
    stratum operator, to confirm the detector reports a near-zero minimum).
    The exported threshold is the 5% quantile of the random batch.  Each
    report is the one :func:`min_residual` gives its operator alone.
    """
    rng = np.random.default_rng(seed)
    ops = [sample_weyl(n, rng) for _ in range(count)]
    ops.extend(extra_operators)
    reports = min_residuals(ops, starts=starts)
    residuals = np.array([r.residual_min for r in reports])
    random_part = residuals[:count]
    quantiles = {
        "min": float(residuals.min()),
        "q05": float(np.quantile(random_part, 0.05)),
        "q50": float(np.quantile(random_part, 0.50)),
        "q95": float(np.quantile(random_part, 0.95)),
    }
    return SampleStats(n, count, seed, residuals, tuple(r.verdict for r in reports),
                       quantiles, quantiles["q05"])


# --- random polynomial metrics (test fodder and demo material) --------------


def random_polynomial_metric(n: int, rng: np.random.Generator,
                             amplitude: float = 0.04) -> MetricSpec:
    """delta_ij plus small random cubic polynomial entries.

    The amplitude default keeps the result positive definite on the unit
    box with a wide margin.
    """
    # the monomials of degree 1 to 3 in sorted order: each one before its multiples
    monos = ["*".join(f"x{c + 1}" for c in m) for m in sorted(
        m for degree in (1, 2, 3) for m in combinations_with_replacement(range(n), degree))]

    def entry(i, j):
        src = "1" if i == j else "0"
        for mono in monos:
            c = rng.uniform(-amplitude, amplitude) / len(monos)
            src += ("+" if c >= 0 else "-") + f"{repr(abs(c))}*{mono}"
        return src

    return coordinate_metric(n, entry)


# --- the per-point obstruction engine ---------------------------------------

# Branch label -> one-sided verdict.  Only a nonsingular Cotton-York tensor
# or a residual above the not-eigenflag threshold rules out a weight; every
# label missing here (a singular tensor, an eigenflag or borderline
# residual) becomes ``inconclusive``.
_VERDICTS = {
    "nonsingular": "no_lcw_certified",
    "not_eigenflag": "no_lcw_certified",
    "zero": "zero",
    "weyl_negligible": "weyl_negligible",
}


@dataclass(frozen=True)
class PointVerdict:
    """The obstruction at one chart point and what it says about LCWs.

    ``label`` is the branch's own classification (the Cotton-York stratum,
    or the :func:`min_residual` verdict); ``verdict`` is the one-sided
    reading of it.  ``detail`` holds the Cotton-York eigenvalues or the
    residual minimizer.
    """

    point: tuple
    branch: str                 # cotton_york | weyl_eigenflag
    norm: float                 # |CY| or |W| (frame Frobenius norm)
    obstruction: float          # det CY or the normalized min residual
    converged: bool             # some optimizer start converged (always for n = 3)
    label: str
    verdict: str
    detail: np.ndarray

    def to_dict(self) -> dict:
        """The per-point record of the ``obstruct`` JSON report."""
        cy = self.branch == "cotton_york"
        return {
            "point": list(self.point),
            "branch": self.branch,
            "norm": self.norm,
            "obstruction": self.obstruction,
            "eigenvalues" if cy else "minimizer": self.detail,
            "stratum" if cy else "eigenflag_verdict": self.label,
            "verdict": self.verdict,
            "optimizer_converged": self.converged,
        }


# Points per curvature batch (the descent chunk is the obstruction's other
# level of batching).  Per point, the stages hold a few arrays of n^5
# entries at n = 3 (the derivative stage) and of n^4 at n >= 4 (the
# curvature stage alone), so 2^14 / n^5 or 2^14 / n^4 points (67 at n = 3,
# 64 at n = 4, 12 at n = 6, 4 at n = 8) keep each near 2^14 entries.  At
# n >= 4 that ran grid4d 9-19 % and highdim 9-13 % faster than 2^14 / n^5
# (three alternating benchmark pairs), peak RSS within 0.2 MB.
def _batch_size(n: int) -> int:
    return max(1, 2 ** 14 // n ** (5 if n == 3 else 4))


# What a point whose pipeline fails raises: a domain error in the metric,
# a metric that is not positive definite there, a point outside the chart
# box, or a tensor that fails its own consistency check.
_POINT_ERRORS = (ValueError, np.linalg.LinAlgError)


def _caught(fn):
    """``fn()``, or the exception it raised for its point."""
    try:
        return fn()
    except _POINT_ERRORS as exc:
        # the traceback would keep the point's whole pipeline alive
        exc.__traceback__ = exc.__context__ = None
        return exc


def _curvature_batch(spec: MetricSpec, points, orientation, tol_det) -> list:
    """Each point's Cotton-York verdict (n = 3), or its Weyl operator and
    zero floor, or the exception it raised; a batch whose jets or curvature
    fail runs again one point at a time.  The Weyl tensor of n >= 4 needs
    jets of order 2, the Cotton-York tensor of order 3.  The n = 3 verdict is
    taken for the whole batch at once: a point whose tensor fails a check
    gets that check's ``ValueError``, and the rest of the batch stands."""
    order = 2 if spec.dimension > 3 else 3
    got = _caught(lambda: obstruction_tensors(metric_jets(spec, np.array(points), order),
                                              orientation))
    if isinstance(got, Exception):
        return [got] if len(points) == 1 else [
            item for p in points for item in _curvature_batch(spec, [p], orientation, tol_det)]
    riemann, tensor = got
    scale = frobenius_norm(riemann, 4)
    floor = DEFAULT_ZERO_FLOOR * (1.0 + scale)
    if tensor.ndim == 5:
        return [_caught(lambda w=w, s=s, f=f: (to_operator(w, scale=s), f))
                for w, s, f in zip(tensor, scale.tolist(), floor.tolist())]
    cy = CottonYorkTensor.from_matrix(tensor, floor)
    labels = classify_cy(cy, tol_det, floor).tolist()
    return [cy.error(k) or PointVerdict(point, "cotton_york", norm, det, True, label,
                                        _VERDICTS.get(label, "inconclusive"), eigenvalues)
            for k, (point, norm, det, label, eigenvalues) in enumerate(zip(
                points, cy.norm.tolist(), cy.determinant.tolist(), labels, cy.eigenvalues))]


def obstruct_point(spec: MetricSpec, point, starts: int | None = None, seed=None,
                   orientation: int = 1,
                   tol_eigenflag: float = DEFAULT_TOL_EIGENFLAG,
                   tol_det: float = DEFAULT_DET_TOL) -> PointVerdict:
    """Evaluate the pointwise obstruction of ``spec`` at ``point``.

    n = 3 tests the determinant of the Cotton-York tensor, n >= 4 minimizes
    the eigenflag residual of the Weyl operator.  Both treat the tensor as
    zero below ``DEFAULT_ZERO_FLOOR * (1 + |R|)``.  Pipeline failures
    propagate.
    """
    verdict = obstruct_points(spec, [point], starts, seed, orientation, tol_eigenflag,
                              tol_det)[0]
    if isinstance(verdict, Exception):
        raise verdict
    return verdict


def obstruct_points(spec: MetricSpec, points, starts: int | None = None, seed=None,
                    orientation: int = 1,
                    tol_eigenflag: float = DEFAULT_TOL_EIGENFLAG,
                    tol_det: float = DEFAULT_DET_TOL) -> list:
    """:func:`obstruct_point` at each of ``points``, evaluated in batches.

    Returns, in input order, each point's :class:`PointVerdict`, or the
    exception its pipeline raised there.  Jets and curvature run in
    curvature batches (``_batch_size``), each point keeping only its Weyl
    operator or Cotton-York verdict; the operators of one descent chunk of
    points (:func:`~lcwcheck.eigenflag.descent_chunk`) then descend in one
    :func:`min_residuals` call.  Every verdict is the one
    :func:`obstruct_point` gives, a failure staying at its own point.
    """
    points = [tuple(float(x) for x in p) for p in points]
    size, chunk = _batch_size(spec.dimension), descent_chunk(spec.dimension, starts)
    out = []
    for lo in range(0, len(points), chunk):
        group = points[lo:lo + chunk]
        items = [item for b in range(0, len(group), size)
                 for item in _curvature_batch(spec, group[b:b + size], orientation, tol_det)]
        live = [k for k, item in enumerate(items) if isinstance(item, tuple)]
        reports = min_residuals([items[k][0] for k in live], starts, seed, tol_eigenflag,
                                [items[k][1] for k in live]) if live else []
        for k, r in zip(live, reports):
            items[k] = PointVerdict(group[k], "weyl_eigenflag", r.weyl_norm, r.residual_min,
                                    bool(r.converged.any()) or r.verdict == "weyl_negligible",
                                    r.verdict, _VERDICTS.get(r.verdict, "inconclusive"),
                                    r.minimizer)
        out.extend(items)
    return out


def grid_points(spec: MetricSpec, grid) -> np.ndarray:
    """C-order product of per-axis grids over the chart box, one point per row.

    ``grid[i]`` evenly spaced values span axis i end to end; a count of 1
    takes the midpoint.  Raises ``ValueError`` unless there is a count of
    at least 1 for every axis.
    """
    n = spec.dimension
    if len(grid) != n or any(k < 1 for k in grid):
        raise ValueError(f"grid must give {n} axis counts, each at least 1")
    axes = [np.linspace(lo, hi, k) if k > 1 else np.array([(lo + hi) / 2.0])
            for (lo, hi), k in zip(spec.domain, grid)]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)


# --- grid scans --------------------------------------------------------------


@dataclass(frozen=True)
class ScanRow:
    point: tuple
    norm: float
    obstruction: float
    verdict: str


@dataclass(frozen=True)
class ScanResult:
    spec_dimension: int
    rows: tuple

    def to_csv(self) -> str:
        buf = io.StringIO()
        names = ",".join(f"x{i + 1}" for i in range(self.spec_dimension))
        buf.write(f"{names},norm,obstruction,verdict\n")
        for row in self.rows:
            coords = ",".join(fmt17(x) for x in row.point)
            buf.write(f"{coords},{fmt17(row.norm)},{fmt17(row.obstruction)},{row.verdict}\n")
        return buf.getvalue()


def scan_metric(spec: MetricSpec, grid, starts: int | None = None, seed=None,
                orientation: int = 1,
                tol_eigenflag: float = DEFAULT_TOL_EIGENFLAG,
                tol_det: float = DEFAULT_DET_TOL) -> ScanResult:
    """Tabulate the branch label of :func:`obstruct_point` over :func:`grid_points`.

    Pipeline failures at individual points become ``error:...`` rows rather
    than aborting the scan.  Row order is the C-order product of the
    per-axis grids, so output is byte-stable.
    """
    points = grid_points(spec, [int(k) for k in grid]).tolist()
    rows = []
    for point, v in zip(points, obstruct_points(spec, points, starts, seed, orientation,
                                                tol_eigenflag, tol_det)):
        if isinstance(v, Exception):
            rows.append(ScanRow(tuple(point), float("nan"), float("nan"),
                                f"error:{type(v).__name__}"))
        else:
            rows.append(ScanRow(v.point, v.norm, v.obstruction, v.label))
    return ScanResult(spec.dimension, tuple(rows))
