"""Pointwise curvature pipeline: Christoffel symbols through Cotton-York.

Conventions, fixed once for the whole toolkit:

* ``R4[i, j, k, l]`` is the (0,4) curvature with the operator arrangement
  ``rho(e_i ^ e_j, e_k ^ e_l) = R4[i, j, k, l]``: antisymmetric in (i, j)
  and in (k, l), symmetric under pair exchange, first Bianchi identity.
  Sectional curvature of the plane (e_i, e_j) of an orthonormal frame is
  ``R4[i, j, i, j]``; the round unit sphere comes out positive.
* ``Ric(u, v) = sum_a R4(u, e_a, v, e_a)`` over a g-orthonormal frame,
  equivalently contraction with the inverse metric on slots 2 and 4.
* Schouten ``S = (Ric - s g / (2(n-1))) / (n-2)``.
* Kulkarni-Nomizu ``(a ^o b)_ijkl = a_ik b_jl + a_jl b_ik - a_il b_jk
  - a_jk b_il`` (the symmetric form, which satisfies r(S ^o g) = Ric).
* Weyl ``W = R4 - S ^o g``; Cotton ``C_ijk = (D_i S)_jk - (D_j S)_ik``;
  Cotton-York (n=3 only) via the raised volume form, see
  :func:`cotton_york`.

Two stages over batched jets run the pipeline: :func:`curvature_stage`
reads g, dg and d2g and gives everything up to W; :func:`derivative_stage`
adds d3g and gives C (and CY for n = 3).  The n >= 4 obstruction reads W
alone, so its jets are of order 2 and :func:`obstruction_tensors` runs the
second stage only for n = 3; :func:`curvature_package`, behind
``curvature``, runs both on the order-3 jets of one point, a batch of one.
Each gives every point of a batch the bits of its batch of one.
Operator-level work downstream assumes an orthonormal frame: the frame of
the Cholesky factor of g, positively oriented relative to the chart.

Derivatives of curvature (needed for the Cotton tensor) are propagated
with explicit chain rules from the exact metric jets; finite differences
never enter the pipeline (they are a test oracle only).
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .jets import MetricJets, chart_points, metric_jets

_EPS3 = np.zeros((3, 3, 3))
for _i, _j, _k, _s in ((0, 1, 2, 1), (1, 2, 0, 1), (2, 0, 1, 1),
                       (0, 2, 1, -1), (2, 1, 0, -1), (1, 0, 2, -1)):
    _EPS3[_i, _j, _k] = _s


class DimensionError(ValueError):
    """Operation invoked in a dimension where it is undefined."""


# --- the two pipeline stages ---------------------------------------------

# Batched chart-coordinate arrays: s3, ds3 are _sym3 of dg, d2g; rup is R^m_uvw.
CurvatureStage = namedtuple("CurvatureStage", "ginv dginv s3 ds3 gamma dgamma rup riemann "
                            "ricci scalar schouten weyl")
DerivativeStage = namedtuple("DerivativeStage", "d2gamma cotton cotton_york")


def _sym3(d: np.ndarray) -> np.ndarray:
    """d_i g_jl + d_j g_il - d_l g_ij over the last three slots of a jet of g."""
    return (np.einsum("...ijl->...ijl", d) + np.einsum("...jil->...ijl", d)
            - np.einsum("...lij->...ijl", d))


def curvature_stage(mj: MetricJets) -> CurvatureStage:
    """Stage 1 on batched jets: everything up to W, from g, dg and d2g."""
    n, g, dg = mj.n, mj.g, mj.dg
    ginv = np.linalg.inv(g)
    dginv = -np.einsum("...ij,...ajk,...kl->...ail", ginv, dg, ginv)
    s3, ds3 = _sym3(dg), _sym3(mj.d2g)
    gamma = 0.5 * np.einsum("...kl,...ijl->...kij", ginv, s3)
    dgamma = 0.5 * (np.einsum("...bkl,...ijl->...bkij", dginv, s3)
                    + np.einsum("...kl,...bijl->...bkij", ginv, ds3))
    rup = (np.einsum("...umvw->...muvw", dgamma) - np.einsum("...vmuw->...muvw", dgamma)
           + np.einsum("...mua,...avw->...muvw", gamma, gamma)
           - np.einsum("...mva,...auw->...muvw", gamma, gamma))
    r4 = np.einsum("...km,...mijl->...ijkl", g, rup)
    ric = np.einsum("...kl,...ikjl->...ij", ginv, r4)
    s = np.einsum("...ij,...ij->...", ginv, ric)
    s2 = schouten(ric, s[:, None, None], g, n)
    return CurvatureStage(ginv, dginv, s3, ds3, gamma, dgamma, rup, r4, ric, s, s2,
                          weyl_tensor(r4, s2, g))


def derivative_stage(mj: MetricJets, cs: CurvatureStage, orientation: int = 1) -> DerivativeStage:
    """Stage 2 on batched jets: C (and CY for n = 3) from stage 1 and d3g."""
    n, g, dg = mj.n, mj.g, mj.dg
    ginv, dginv, s3, ds3, gamma, dgamma = cs[:6]
    # d_a d_b g^-1 = -(m_ab + m_ab^T) - g^-1 d_a d_b g g^-1 with
    # m_ab = (d_b g^-1) (d_a g) g^-1: the two first-order terms mirror each other
    ginv2 = ginv[..., None, None, :, :]
    m = dginv[..., None, :, :, :] @ dg[..., :, None, :, :] @ ginv2
    d2ginv = -(m + m.swapaxes(-1, -2)) - ginv2 @ mj.d2g @ ginv2
    d2gamma = 0.5 * (np.einsum("...bckl,...ijl->...bckij", d2ginv, s3)
                     + np.einsum("...bkl,...cijl->...bckij", dginv, ds3)
                     + np.einsum("...ckl,...bijl->...bckij", dginv, ds3)
                     + np.einsum("...kl,...bcijl->...bckij", ginv, _sym3(mj.d3g)))
    drup = (np.einsum("...bumvw->...bmuvw", d2gamma) - np.einsum("...bvmuw->...bmuvw", d2gamma)
            + np.einsum("...bmua,...avw->...bmuvw", dgamma, gamma)
            + np.einsum("...mua,...bavw->...bmuvw", gamma, dgamma)
            - np.einsum("...bmva,...auw->...bmuvw", dgamma, gamma)
            - np.einsum("...mva,...bauw->...bmuvw", gamma, dgamma))
    dr4 = (np.einsum("...bkm,...mijl->...bijkl", dg, cs.rup)
           + np.einsum("...km,...bmijl->...bijkl", g, drup))
    dric = (np.einsum("...bkl,...ikjl->...bij", dginv, cs.riemann)
            + np.einsum("...kl,...bikjl->...bij", ginv, dr4))
    ds = _sum_ij(dginv * cs.ricci[:, None]) + _sum_ij(ginv[:, None] * dric)
    ds2 = (dric - (np.einsum("...b,...ij->...bij", ds, g) + cs.scalar[:, None, None, None] * dg)
           / (2.0 * (n - 1))) / (n - 2)
    nabla_s = (ds2 - np.einsum("...dab,...dc->...abc", gamma, cs.schouten)
               - np.einsum("...dac,...bd->...abc", gamma, cs.schouten))
    c3 = nabla_s - np.einsum("...jik->...ijk", nabla_s)
    return DerivativeStage(d2gamma, c3, cotton_york(c3, g, orientation) if n == 3 else None)


def _sum_ij(t: np.ndarray) -> np.ndarray:
    """Sum over the last two axes: row by row, each row from 0 and left to
    right, element by element over the batch.  A point gets the same bits
    in any batch, those of ``np.einsum("bij,ij->b", ...)`` on the point alone
    in :func:`derivative_stage` (its Ricci rows strided); a batched einsum
    or sum adds in an order set by the batch's size and memory layout."""
    total = 0.0
    for i in range(t.shape[-2]):
        row = 0.0
        for j in range(t.shape[-1]):
            row = row + t[..., i, j]
        total = total + row
    return total


def schouten(ric: np.ndarray, s: float, g: np.ndarray, n: int) -> np.ndarray:
    if n < 3:
        raise DimensionError("Schouten tensor needs dimension >= 3")
    return (ric - s * g / (2.0 * (n - 1))) / (n - 2)


def kulkarni_nomizu(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Symmetric product of two symmetric 2-tensors, with all curvature
    symmetries and vanishing Bianchi component."""
    return (np.einsum("...ik,...jl->...ijkl", a, b) + np.einsum("...jl,...ik->...ijkl", a, b)
            - np.einsum("...il,...jk->...ijkl", a, b) - np.einsum("...jk,...il->...ijkl", a, b))


def weyl_tensor(r4: np.ndarray, s2: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Totally trace-free curvature part W = R - S ^o g (vanishes for n=3)."""
    return r4 - kulkarni_nomizu(s2, g)


def cotton_york(c: np.ndarray, g: np.ndarray, orientation: int = 1) -> np.ndarray:
    """Hodge dual of the Cotton tensor, n = 3 only (batched over leading axes).

    Uses the pure permutation symbol with the explicit sqrt(det g) factor;
    ``orientation`` (+1/-1) flips the symbol, mapping CY to -CY.  The result
    is symmetric and trace-free up to roundoff.
    """
    if c.shape[-3:] != (3, 3, 3):
        raise DimensionError("Cotton-York tensor is defined in dimension 3 only")
    if orientation not in (1, -1):
        raise ValueError("orientation must be +1 or -1")
    ginv = np.linalg.inv(g)
    craised = np.einsum("...ak,...bl,...kli->...abi", ginv, ginv, c)
    vol = (orientation * np.sqrt(np.linalg.det(g)))[..., None, None, None] * _EPS3
    return 0.5 * np.einsum("...abi,...abj->...ij", craised, vol)


def frobenius_norm(t: np.ndarray, axes: int) -> np.ndarray:
    """Frobenius norm of each tensor of a stack over its last ``axes`` axes,
    with the bits ``np.linalg.norm`` gives the tensor alone: numpy's matmul
    of a row and a column is the BLAS dot that ``np.linalg.norm`` takes."""
    flat = np.ascontiguousarray(t).reshape(*t.shape[:t.ndim - axes], 1, -1)
    return np.sqrt((flat @ flat.swapaxes(-1, -2))[..., 0, 0])


# --- frames and rotation --------------------------------------------------


def orthonormal_frame(g: np.ndarray) -> np.ndarray:
    """Columns form a g-orthonormal frame: F^T g F = I, det F > 0 (batched)."""
    return np.linalg.inv(np.linalg.cholesky(g)).swapaxes(-1, -2)


def rotate_tensor(t: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Re-express a (0,k) tensor in the basis given by the matrix columns;
    a stack of bases rotates a stack of tensors slot by slot, through the
    matmul that ``tensordot`` makes, so each tensor gets its unbatched bits."""
    if basis.ndim == 2:
        return rotate_tensor(t[None], basis[None])[0]
    for _ in range(t.ndim - 1):
        t = (t.reshape(*t.shape[:2], -1).swapaxes(-1, -2) @ basis).reshape(t.shape)
    return t


def obstruction_tensors(mj: MetricJets, orientation: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Frame R and the obstruction's frame tensor (W if n >= 4, CY if n = 3)."""
    cs = curvature_stage(mj)
    tensor = cs.weyl if mj.n > 3 else derivative_stage(mj, cs, orientation).cotton_york
    frame = orthonormal_frame(mj.g)
    return rotate_tensor(cs.riemann, frame), rotate_tensor(tensor, frame)


# --- the assembled package -------------------------------------------------


@dataclass(frozen=True)
class CoordinateTensors:
    """Chart-coordinate components, kept for conformal-invariance checks."""

    riemann: np.ndarray
    ricci: np.ndarray
    schouten: np.ndarray
    cotton: np.ndarray
    weyl: np.ndarray
    cotton_york: np.ndarray | None


@dataclass(frozen=True)
class CurvaturePackage:
    """Every pointwise tensor of the pipeline at one chart point.

    Tensor components (`riemann` through `cotton_york`) are stored in the
    g-orthonormal frame of :func:`orthonormal_frame`; the symbols ``gamma``
    and everything inside ``coord`` stay in chart coordinates.
    ``cotton_york`` is None unless n = 3.
    """

    point: np.ndarray
    g: np.ndarray
    gamma: np.ndarray
    riemann: np.ndarray
    ricci: np.ndarray
    scalar: float
    schouten: np.ndarray
    cotton: np.ndarray
    weyl: np.ndarray
    cotton_york: np.ndarray | None
    coord: CoordinateTensors
    orientation: int

    @property
    def n(self) -> int:
        return self.g.shape[0]

    @property
    def riemann_norm(self) -> float:
        return float(np.linalg.norm(self.riemann))

    @property
    def weyl_norm(self) -> float:
        return float(np.linalg.norm(self.weyl))

    @property
    def cotton_norm(self) -> float:
        return float(np.linalg.norm(self.cotton))

    @property
    def cotton_york_norm(self) -> float:
        return 0.0 if self.cotton_york is None else float(np.linalg.norm(self.cotton_york))

    @property
    def cotton_york_det(self) -> float:
        if self.cotton_york is None:
            raise DimensionError("Cotton-York determinant is defined in dimension 3 only")
        return float(np.linalg.det(self.cotton_york))


def curvature_package(spec, point, orientation: int = 1) -> CurvaturePackage:
    """Evaluate the full pipeline for a metric spec at one chart point: both
    stages on its jets, a batch of one, packaged."""
    batch = chart_points(spec, [point])
    mj = metric_jets(spec, batch)
    cs = curvature_stage(mj)
    dv = derivative_stage(mj, cs, orientation)
    frame = orthonormal_frame(mj.g)
    coord = dict(riemann=cs.riemann, ricci=cs.ricci, schouten=cs.schouten,
                 cotton=dv.cotton, weyl=cs.weyl, cotton_york=dv.cotton_york)
    rotated = {k: None if t is None else rotate_tensor(t, frame)[0] for k, t in coord.items()}
    return CurvaturePackage(
        point=batch[0], g=mj.g[0], gamma=cs.gamma[0], scalar=float(cs.scalar[0]),
        orientation=orientation, **rotated,
        coord=CoordinateTensors(**{k: None if t is None else t[0] for k, t in coord.items()}))
