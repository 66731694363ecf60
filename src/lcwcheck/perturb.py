"""Metrics with prescribed curvature or Cotton-York tensor at a point.

Two constructions, both over the flat base metric on a global chart
centered at the origin (the coordinates are then trivially normal there,
which is what makes the prescriptions exact):

* a quadratic perturbation  g_ij = delta_ij - (1/3) R*_ihjk x^h x^k phi(x)
  realizes any algebraic curvature operator R* as the curvature at 0.
  The -1/3 is the classical normal-coordinate coefficient; the linearized
  curvature of the quadratic term is exactly R* (cross terms carry at
  least one factor of dg(0) = 0).
* a cubic perturbation  g_ij = delta_ij + phi sum A_ij^klm x^k x^l x^m
  leaves g(0), dg(0), d2g(0) untouched, so the Cotton-York tensor at 0 is
  an explicit linear map of the 60 coefficients A; inverting its 5 x 60
  matrix (least-norm pseudoinverse) realizes any small trace-free target.

With the constant-one cutoff the result is an honest MetricSpec document.
The smooth bump cutoff is not expressible in the closed-form expression
grammar (no conditionals), so bump perturbations return an evaluator
object with the same jet-evaluation protocol instead; outside the support
it returns the base components exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import permutations
from math import exp as _exp

import numpy as np

from . import curvature as _curv
from .bivectors import WeylOperator, operator_to_tensor
from .cottonyork import CottonYorkTensor
from .jets import Jet3, MetricJets, SymIndex
from .metrics import MetricSpec, make_metric

CURVATURE_COEFF = -1.0 / 3.0


class PositivityError(ValueError):
    """Perturbed metric fails positive definiteness somewhere on the box."""


class RankDeficiencyError(RuntimeError):
    """The assembled coefficient-to-Cotton-York map lost rank (not expected)."""


# --- algebraic curvature ----------------------------------------------------


def _bianchi_part(t: np.ndarray) -> np.ndarray:
    return (t + t.transpose(1, 2, 0, 3) + t.transpose(2, 0, 1, 3)) / 3.0


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
        if np.linalg.norm(_bianchi_part(t)) > 1e-12 * scale:
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
        t = t - _bianchi_part(t)
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


# --- cutoffs ----------------------------------------------------------------


@dataclass(frozen=True)
class CutoffSpec:
    """Cutoff multiplying the perturbation: identically one, or a smooth bump.

    The constant-one cutoff is only meaningful on a global chart; the bump
    exp(1 - 1/(1 - |x-p|^2 / rho^2)) is smooth, equals one at the center
    and vanishes with all derivatives at radius rho.
    """

    kind: str = "constant_one"
    radius: float = 1.0
    center: tuple[float, ...] = ()

    def __post_init__(self):
        if self.kind not in ("constant_one", "smooth_bump"):
            raise ValueError(f"unknown cutoff kind {self.kind!r}")
        if self.kind == "smooth_bump" and not self.radius > 0:
            raise ValueError("bump radius must be positive")


CONSTANT_ONE = CutoffSpec()


# --- prescribed curvature ----------------------------------------------------


def _fmt_coeff(c: float) -> str:
    return repr(abs(float(c)))


def _quadratic_entry_source(rstar: np.ndarray, i: int, j: int, coords) -> str:
    """Expression string for delta_ij + c * sum_hk R*[i,h,j,k] x^h x^k."""
    n = len(coords)
    terms = []
    for h in range(n):
        for k in range(h, n):
            coeff = rstar[i, h, j, k] + (rstar[i, k, j, h] if h != k else 0.0)
            coeff *= CURVATURE_COEFF
            if coeff == 0.0:
                continue
            mono = f"{coords[h]}^2" if h == k else f"{coords[h]}*{coords[k]}"
            terms.append((coeff, mono))
    src = "1" if i == j else "0"
    for coeff, mono in terms:
        src += ("+" if coeff > 0 else "-") + f"{_fmt_coeff(coeff)}*{mono}"
    return src


def _check_positivity(spec_like) -> None:
    n = spec_like.dimension
    lows = np.array([lo for lo, _ in spec_like.domain])
    highs = np.array([hi for _, hi in spec_like.domain])
    rng = np.random.default_rng(20240901)
    pts = [lows + (highs - lows) * rng.random(n) for _ in range(200)]
    if n <= 8:
        for bits in range(2 ** n):
            corner = np.where([(bits >> d) & 1 for d in range(n)], highs, lows)
            pts.append(corner)
    for p in pts:
        g = spec_like.evaluate(p)
        try:
            np.linalg.cholesky(g)
        except np.linalg.LinAlgError:
            raise PositivityError(
                f"perturbed metric is not positive definite at {p.tolist()}; "
                "shrink the perturbation or the domain box") from None


def perturb_curvature(rstar: AlgebraicCurvature, cutoff: CutoffSpec = CONSTANT_ONE,
                      domain_halfwidth: float = 1.0):
    """Flat metric plus a quadratic perturbation with curvature R* at 0.

    Returns a :class:`MetricSpec` for the constant-one cutoff, or a
    :class:`BumpPerturbedMetric` for a smooth bump.  Positive definiteness
    is checked by sampling the chart box (corners included) and rejected
    with :class:`PositivityError`.
    """
    n = rstar.n
    coords = [f"x{i + 1}" for i in range(n)]
    box = {c: [-domain_halfwidth, domain_halfwidth] for c in coords}
    if cutoff.kind == "constant_one":
        g = [[_quadratic_entry_source(rstar.tensor, i, j, coords) for j in range(n)]
             for i in range(n)]
        spec = make_metric(n, coords, g, box)
        _check_positivity(spec)
        return spec
    pert = BumpPerturbedMetric(rstar, cutoff, tuple(coords),
                               tuple((-domain_halfwidth, domain_halfwidth) for _ in coords))
    _check_positivity(pert)
    return pert


@dataclass(frozen=True)
class BumpPerturbedMetric:
    """Flat metric with a bump-localized quadratic perturbation.

    Implements the same evaluation protocol as MetricSpec (``dimension``,
    ``coordinates``, ``domain``, ``component_values``, ``evaluate``) so the
    jet pipeline accepts it.  Outside the bump support the returned
    components are the base metric's, exactly.
    """

    rstar: AlgebraicCurvature
    cutoff: CutoffSpec
    coordinates: tuple[str, ...]
    domain: tuple[tuple[float, float], ...]

    @property
    def dimension(self) -> int:
        return self.rstar.n

    def _center(self) -> np.ndarray:
        c = self.cutoff.center
        return np.asarray(c if c else [0.0] * self.dimension, dtype=float)

    def component_values(self, env: dict):
        """g over floats, scalar jets or batched jets, one bump mask per row."""
        n = self.dimension
        xs = [env[name] for name in self.coordinates]
        batched = isinstance(xs[0], Jet3) and xs[0].batched
        values = np.array([x.value if isinstance(x, Jet3) else float(x) for x in xs])
        center = self._center()
        # the band 1 - |x/rho|^2 < 1e-14 underflows the bump to zero anyway;
        # treating it as outside avoids a spurious division by zero in the jets
        inside = np.array([float(np.dot(p - center, p - center)) / self.cutoff.radius ** 2
                           < 1.0 - 1e-14 for p in (values.T if batched else [values])])
        if not inside.any():
            return [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
        if not batched:
            return self._perturbed(xs)
        out = self._perturbed([x.take(inside) for x in xs])
        for i in range(n):
            for j in range(i, n):
                full = Jet3.constant(np.full(len(inside), 1.0 if i == j else 0.0), n)
                for slot in ("value", "grad", "hess", "third"):
                    getattr(full, slot)[inside] = getattr(out[i][j], slot)
                out[i][j] = out[j][i] = full
        return out

    def _perturbed(self, xs):
        """base + quad * bump at points inside the bump."""
        n = self.dimension
        rho = self.cutoff.radius
        shifted = [(x - c) / rho for x, c in zip(xs, self._center())]
        s = shifted[0] * shifted[0]
        for t in shifted[1:]:
            s = s + t * t
        u = 1.0 / (1.0 - s) if not isinstance(s, Jet3) else (1.0 - s).reciprocal()
        bump = _exp(1.0 - u) if not isinstance(u, Jet3) else (1.0 - u).exp()
        out = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                quad = 0.0
                for h in range(n):
                    for k in range(n):
                        coeff = CURVATURE_COEFF * self.rstar.tensor[i, h, j, k]
                        if coeff != 0.0:
                            quad = quad + coeff * (xs[h] * xs[k])
                out[i][j] = out[j][i] = (1.0 if i == j else 0.0) + quad * bump
        return out

    def evaluate(self, point) -> np.ndarray:
        env = dict(zip(self.coordinates, [float(x) for x in point]))
        vals = self.component_values(env)
        return np.array([[float(vals[i][j]) for j in range(self.dimension)]
                         for i in range(self.dimension)])


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


def vec5_to_sym3(v: np.ndarray) -> np.ndarray:
    return sum(c * b for c, b in zip(v, _TRACELESS_BASIS))


@dataclass(frozen=True)
class CottonCoefficients:
    """Cubic perturbation coefficients A_ij^klm, symmetric in (i,j) and (k,l,m).

    Stored packed over the 6 x 10 = 60 independent entries; ``full()``
    expands to the (3,3,3,3,3) array with the symmetries exact by
    construction.
    """

    packed: np.ndarray = field(default_factory=lambda: np.zeros(60))

    def __post_init__(self):
        if self.packed.shape != (60,):
            raise ValueError("expected 60 packed coefficients")

    def full(self) -> np.ndarray:
        a = np.zeros((3, 3, 3, 3, 3))
        for p, (i, j) in enumerate(SymIndex(3).pairs):
            for t, klm in enumerate(SymIndex(3).triples):
                v = self.packed[p * 10 + t]
                if v == 0.0:
                    continue
                for kk, ll, mm in set(permutations(klm)):
                    a[i, j, kk, ll, mm] = v
                    a[j, i, kk, ll, mm] = v
        return a

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.full()))


def _cubic_metric_jets(a_full: np.ndarray) -> MetricJets:
    """Exact jets at the origin of g = delta + sum A_ij^klm x^k x^l x^m."""
    d3g = 6.0 * np.einsum("ijklm->klmij", a_full)
    return MetricJets(np.zeros(3), np.eye(3), np.zeros((3, 3, 3)),
                      np.zeros((3, 3, 3, 3)), d3g)


@lru_cache(maxsize=1)
def cy_linear_map() -> np.ndarray:
    """The 5 x 60 matrix of the coefficient-to-Cotton-York map at the origin.

    Assembled column by column by running the pipeline on each packed basis
    coefficient; exactness follows from g(0) = delta, dg(0) = d2g(0) = 0,
    which kills every nonlinear term.
    """
    cols = []
    for d in range(60):
        packed = np.zeros(60)
        packed[d] = 1.0
        mj = _cubic_metric_jets(CottonCoefficients(packed).full())
        pkg = _curv.package_from_jets(mj)
        cols.append(sym3_to_vec5(pkg.cotton_york))
    return np.array(cols).T


def cubic_metric_spec(coeffs: CottonCoefficients, domain_halfwidth: float = 0.5) -> MetricSpec:
    """Emit the cubic perturbation as a parseable metric document."""
    coords = ["x1", "x2", "x3"]
    a = coeffs.full()
    g_rows = []
    for i in range(3):
        row = []
        for j in range(3):
            src = "1" if i == j else "0"
            for k, l, m in SymIndex(3).triples:
                mult = len(set(permutations((k, l, m))))
                coeff = mult * a[i, j, k, l, m]
                if coeff == 0.0:
                    continue
                counts = {c: (k, l, m).count(c) for c in set((k, l, m))}
                mono = "*".join(f"{coords[c]}^{e}" if e > 1 else coords[c]
                                for c, e in sorted(counts.items()))
                src += ("+" if coeff > 0 else "-") + f"{_fmt_coeff(coeff)}*{mono}"
            row.append(src)
        g_rows.append(row)
    box = {c: [-domain_halfwidth, domain_halfwidth] for c in coords}
    return make_metric(3, coords, g_rows, box)


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
