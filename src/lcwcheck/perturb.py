"""Metrics with prescribed curvature or Cotton-York tensor at a point.

Two constructions, both over the flat base metric on a global chart
centered at the origin (the coordinates are then trivially normal there,
which is what makes the prescriptions exact):

* a quadratic perturbation  g_ij = delta_ij - (1/3) R*_ihjk x^h x^k phi(x)
  realizes any algebraic curvature operator R* as the curvature at 0.
  The -1/3 is the classical normal-coordinate coefficient; the linearized
  curvature of the quadratic term is exactly R* (cross terms carry at
  least one factor of dg(0) = 0).  The cutoff phi is 1, or, given a radius
  rho, the grammar's smooth ``bump(|x|^2/rho^2)``: phi(0) = 1 and the
  quadratic term vanishes to second order at 0, so the curvature there is
  still exactly R*, while outside the ball of radius rho the metric is the
  flat one with all its derivatives.
* a cubic perturbation  g_ij = delta_ij + phi sum A_ij^klm x^k x^l x^m
  leaves g(0), dg(0), d2g(0) untouched, so the Cotton-York tensor at 0 is
  an explicit linear map of the 60 coefficients A; inverting its 5 x 60
  matrix (least-norm pseudoinverse) realizes any small target.

Both return a :class:`~lcwcheck.metrics.MetricSpec`: an ordinary metric
document that prints, parses and runs through the CLI like any other.
Both write their terms with one formatter over sorted multi-indices, each
upper-triangle entry once.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import permutations

import numpy as np

from . import curvature as _curv
from .bivectors import WeylOperator, bianchi_part, operator_to_tensor
from .cottonyork import CottonYorkTensor
from .genericity import grid_points
from .jets import MetricJets, SymIndex, check_positive
from .metrics import MetricSpec, coordinate_metric

CURVATURE_COEFF = -1.0 / 3.0


class RankDeficiencyError(RuntimeError):
    """The assembled coefficient-to-Cotton-York map lost rank (not expected)."""


# --- algebraic curvature ----------------------------------------------------


@dataclass(frozen=True)
class AlgebraicCurvature:
    """A (0,4) array with all curvature symmetries and first Bianchi identity."""

    n: int
    tensor: np.ndarray

    def __post_init__(self):
        t = self.tensor
        if not np.isfinite(t).all():
            raise ValueError("curvature tensor must be finite")
        scale = max(np.linalg.norm(t), 1e-300)
        for axes, sign in (((1, 0, 2, 3), -1), ((0, 1, 3, 2), -1), ((2, 3, 0, 1), 1)):
            if np.abs(t - sign * t.transpose(axes)).max() > 1e-12 * scale:
                raise ValueError("tensor lacks curvature symmetries")
        if np.linalg.norm(bianchi_part(t)) > 1e-12 * scale:
            raise ValueError("tensor violates the first Bianchi identity")

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.tensor))

    @staticmethod
    def from_operator(op) -> "AlgebraicCurvature":
        if isinstance(op, WeylOperator):
            return AlgebraicCurvature(op.n, op.tensor())
        op = np.asarray(op, dtype=float)
        t = operator_to_tensor(0.5 * (op + op.T))
        t = t - bianchi_part(t)
        return AlgebraicCurvature(t.shape[0], t)

    @staticmethod
    def space_form(n: int, kappa: float) -> "AlgebraicCurvature":
        eye = np.eye(n)
        return AlgebraicCurvature(n, 0.5 * kappa * _curv.kulkarni_nomizu(eye, eye))

    @staticmethod
    def random(n: int, rng: np.random.Generator, scale: float = 1.0) -> "AlgebraicCurvature":
        big_n = n * (n - 1) // 2
        t = AlgebraicCurvature.from_operator(rng.standard_normal((big_n, big_n))).tensor
        norm = np.linalg.norm(t)
        with np.errstate(invalid="ignore"):  # an infinite scale: the constructor rejects it
            return AlgebraicCurvature(n, t * (scale / norm) if norm > 0 else t)


# --- the one term formatter of both prescriptions -----------------------------


def _polynomial_metric(coeffs: np.ndarray, indices, halfwidth: float,
                       cutoff: str = "") -> MetricSpec:
    """delta_ij + sum_m coeffs[i, j, m] x^m over the sorted multi-indices m
    of ``indices``, one term ``+|c|*x1^2*x2`` per nonzero c, the sum times
    the expression ``cutoff`` unless that is empty; box [-halfwidth, halfwidth]^n."""
    n = len(coeffs)
    monos = ["*".join(f"x{h + 1}^{e}" if e > 1 else f"x{h + 1}" for h, e in Counter(m).items())
             for m in indices]

    def entry(i, j):
        terms = "".join(("+" if c > 0 else "-") + f"{abs(c)!r}*{mono}"
                        for c, mono in zip(coeffs[i, j].tolist(), monos) if c != 0.0)
        src = "1" if i == j else "0"
        if terms and cutoff:
            return f"{src}+({terms.removeprefix('+')})*{cutoff}"
        return src + terms

    return coordinate_metric(n, entry, {f"x{h + 1}": [-halfwidth, halfwidth] for h in range(n)})


# --- prescribed curvature ----------------------------------------------------


def _check_positivity(spec: MetricSpec) -> None:
    """Raise :class:`~lcwcheck.jets.MetricNotPositive` unless g is positive
    definite at 200 seeded random points of the chart box and at its 2^n
    corners, evaluated in one batch; the first failing point is named."""
    n = spec.dimension
    lows, highs = np.array(spec.domain).T
    rng = np.random.default_rng(20240901)
    points = np.concatenate([lows + (highs - lows) * rng.random((200, n)),
                             grid_points(spec, [2] * n)])
    check_positive(points, spec.evaluate(points), "perturbed metric is not positive definite"
                   " at {}; shrink the perturbation or the domain box")


def perturb_curvature(rstar: AlgebraicCurvature, radius: float | None = None,
                      domain_halfwidth: float = 1.0) -> MetricSpec:
    """Flat metric plus a quadratic perturbation with curvature R* at 0.

    With a ``radius``, the perturbation is multiplied by the smooth cutoff
    ``bump((x1^2+...+xn^2)/radius^2)``, so the metric is flat outside that
    ball.  Positive definiteness is checked by sampling the chart box
    (corners included); a failure raises
    :class:`~lcwcheck.jets.MetricNotPositive`.
    """
    if radius is not None and not (radius > 0.0 and 0.0 < radius * radius < math.inf):
        raise ValueError(
            f"bump radius must be positive with a finite nonzero square, got {radius!r}")
    n = rstar.n
    sym = SymIndex(n)
    h, k = sym.pair_ij
    by_pair = rstar.tensor.transpose(0, 2, 1, 3)  # [i, j, h, k] = R*[i, h, j, k]
    coeffs = (by_pair[:, :, h, k] + np.where(h != k, by_pair[:, :, k, h], 0.0)) * CURVATURE_COEFF
    cutoff = "" if radius is None else (
        f"bump(({'+'.join(f'x{c + 1}^2' for c in range(n))})/{float(radius)!r}^2)")
    spec = _polynomial_metric(coeffs, sym.pairs, domain_halfwidth, cutoff)
    _check_positivity(spec)
    return spec


# --- prescribed Cotton-York ---------------------------------------------------

_S2 = 1.0 / np.sqrt(2.0)
_S6 = 1.0 / np.sqrt(6.0)
_TRACELESS_BASIS = (
    np.diag([_S2, -_S2, 0.0]),
    np.diag([_S6, _S6, -2.0 * _S6]),
    np.array([[0, _S2, 0], [_S2, 0, 0], [0, 0, 0.0]]),
    np.array([[0, 0, _S2], [0, 0, 0], [_S2, 0, 0.0]]),
    np.array([[0, 0, 0], [0, 0, _S2], [0, _S2, 0.0]]),
)


def sym3_to_vec5(m: np.ndarray) -> np.ndarray:
    return np.array([float(np.tensordot(m, b)) for b in _TRACELESS_BASIS])


@dataclass(frozen=True)
class CottonCoefficients:
    """Cubic perturbation coefficients A_ij^klm, symmetric in (i,j) and (k,l,m).

    Stored packed over the 6 x 10 = 60 independent entries, pair-major in
    ``SymIndex(3)`` order, so the symmetries hold by construction.
    """

    packed: np.ndarray = field(default_factory=lambda: np.zeros(60))

    def __post_init__(self):
        if self.packed.shape != (60,):
            raise ValueError("expected 60 packed coefficients")


def _unpack_cubic(packed: np.ndarray) -> np.ndarray:
    """(..., 60) packed coefficients -> (..., 3, 3, 3, 3, 3) A_ij^klm, one
    gather through the symmetric index tables."""
    sym = SymIndex(3)
    by_pair = packed.reshape(*packed.shape[:-1], sym.npairs, sym.ntriples)
    return by_pair[..., sym.idx2[:, :, None, None, None], sym.idx3]


def _cubic_metric_jets(a_full: np.ndarray) -> MetricJets:
    """Exact jets at the origin of g = delta + sum A_ij^klm x^k x^l x^m, one
    point per leading entry of ``a_full``."""
    b = len(a_full)
    d3g = 6.0 * np.einsum("...ijklm->...klmij", a_full)
    return MetricJets(np.tile(np.eye(3), (b, 1, 1)), np.zeros((b, 3, 3, 3)),
                      np.zeros((b, 3, 3, 3, 3)), d3g)


@lru_cache(maxsize=1)
def cy_linear_map() -> np.ndarray:
    """The 5 x 60 matrix of the coefficient-to-Cotton-York map at the origin.

    Column d is the pipeline's Cotton-York tensor for the d-th packed basis
    coefficient, the 60 of them run as one batch; exactness follows from
    g(0) = delta, dg(0) = d2g(0) = 0, which kills every nonlinear term.
    """
    _, cy = _curv.obstruction_tensors(_cubic_metric_jets(_unpack_cubic(np.eye(60))))
    return np.array([sym3_to_vec5(t) for t in cy]).T


def cubic_metric_spec(coeffs: CottonCoefficients, domain_halfwidth: float = 0.5) -> MetricSpec:
    """Emit the cubic perturbation as a parseable metric document."""
    sym = SymIndex(3)
    mult = [len(set(permutations(t))) for t in sym.triples]
    by_pair = coeffs.packed.reshape(sym.npairs, sym.ntriples)
    return _polynomial_metric(by_pair[sym.idx2] * mult, sym.triples, domain_halfwidth)


@dataclass(frozen=True)
class CySolution:
    coefficients: CottonCoefficients
    metric: MetricSpec
    achieved: CottonYorkTensor
    target: np.ndarray


def solve_cy_target(cy0) -> CySolution:
    """Least-norm cubic coefficients realizing a trace-free target at 0.

    The assembled 60 -> 5 map must have rank 5 (checked; a deficiency is
    reported via :class:`RankDeficiencyError` rather than regularized away).
    The returned metric has been re-run through the full pipeline and its
    Cotton-York at the origin verified against the target within
    ``1e-7 * (1 + |CY0|)``.
    """
    cy0 = np.asarray(cy0, dtype=float)
    CottonYorkTensor.from_matrix(cy0)  # raises unless 3x3, symmetric and trace-free

    m = cy_linear_map()
    svals = np.linalg.svd(m, compute_uv=False)
    if np.sum(svals > 1e-10 * svals[0]) < 5:
        raise RankDeficiencyError(
            f"coefficient map has numerical rank < 5 (singular values {svals})")

    packed = np.linalg.pinv(m, rcond=1e-10) @ sym3_to_vec5(cy0)
    coeffs = CottonCoefficients(packed)
    spec = cubic_metric_spec(coeffs)
    _check_positivity(spec)
    pkg = _curv.curvature_package(spec, np.zeros(3))
    achieved = CottonYorkTensor.from_matrix(pkg.cotton_york)
    err = np.linalg.norm(achieved.matrix - cy0)
    if err > 1e-7 * (1.0 + np.linalg.norm(cy0)):
        raise RuntimeError(f"round trip missed the target by {err}")
    return CySolution(coeffs, spec, achieved, cy0)
