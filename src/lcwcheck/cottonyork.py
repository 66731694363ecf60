"""Dimension-3 obstruction: singularity of the Cotton-York tensor.

The Cotton-York tensor at a point is symmetric and trace-free, so its
eigenvalues sum to zero and the singular ones (det = 0) are exactly those
with spectrum (lambda, -lambda, 0).  The singular set inside the
5-dimensional space of trace-free symmetric operators therefore splits
into a 4-dimensional stratum parameterized by (lambda, rotation) and the
zero matrix; a nonsingular Cotton-York certifies that no limiting
Carleman weight exists near the point.

Every function here takes a stack of 3x3 matrices, shape (..., 3, 3), one
per point of a curvature batch; a single matrix is a stack with no leading
axes.  Each matrix gets the bits it gets alone: its checks are masks over
the stack, its determinant is LAPACK's per matrix, its norm the BLAS dot
of ``np.linalg.norm`` (:func:`~lcwcheck.curvature.frobenius_norm`), and its
eigenvalues LAPACK's ``np.linalg.eigvalsh``, also a loop over the stack that
takes each matrix on its own.  The det tolerance scales with |CY|^3 because
the determinant is cubic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curvature import frobenius_norm

DEFAULT_DET_TOL = 1e-9
DEFAULT_ZERO_FLOOR = 1e-12


@dataclass(frozen=True)
class CottonYorkTensor:
    """A stack of symmetric trace-free 3x3 carriers with cached spectrum,
    determinant and Frobenius norm.

    ``failed`` names, per matrix, the first check it fails (``finite``,
    ``symmetric`` or ``trace-free``), or is empty; the other fields of a
    failed matrix mean nothing.  One matrix gives scalar fields.
    """

    matrix: np.ndarray
    trace: np.ndarray
    determinant: np.ndarray
    eigenvalues: np.ndarray
    norm: np.ndarray
    failed: np.ndarray

    @staticmethod
    def from_matrix(m, floor=0.0) -> "CottonYorkTensor":
        """Check and symmetrize each matrix of a stack ``m``.

        Every matrix must be finite.  Below ``floor`` (its point's zero floor,
        broadcast over the stack) |m| is roundoff, which need not be symmetric
        or trace-free, so the tensor is taken without those checks (it
        classifies as ``zero``).  A failed check does not raise for a stack:
        :meth:`error` gives each matrix's ``ValueError``.  A single matrix
        (shape (3, 3)) raises its own, for callers that check one tensor;
        this is the one place the rank of the stack matters.
        """
        m = np.asarray(m, dtype=float)
        if m.shape[-2:] != (3, 3):
            raise ValueError("Cotton-York tensor must be 3x3")
        finite = np.isfinite(m).all(axis=(-2, -1))
        m = np.where(finite[..., None, None], m, 0.0)  # no nan or inf reaches the spectrum
        mt = m.swapaxes(-1, -2)
        scale = frobenius_norm(m, 2)
        tr = np.trace(m, axis1=-2, axis2=-1)
        checked = scale >= floor
        asymmetric = np.abs(m - mt).max(axis=(-2, -1)) > 1e-10 * np.maximum(scale, 1e-300)
        traced = np.abs(tr) > 1e-10 * scale + 1e-300
        failed = np.where(~finite, "finite", np.where(checked & asymmetric, "symmetric",
                                                      np.where(checked & traced, "trace-free", "")))
        m = 0.5 * (m + mt)
        cy = CottonYorkTensor(m, tr, np.linalg.det(m), np.linalg.eigvalsh(m),
                              frobenius_norm(m, 2), failed)
        if m.ndim == 2 and cy.failed:
            raise cy.error()
        return cy

    def error(self, index=()) -> ValueError | None:
        """The ``ValueError`` of the check the matrix at ``index`` fails, or None."""
        check = self.failed[index]
        return ValueError(f"Cotton-York tensor must be {check}") if check else None


def classify_cy(cy: CottonYorkTensor, tol: float = DEFAULT_DET_TOL,
                floor=DEFAULT_ZERO_FLOOR):
    """Stratum label of each tensor: ``zero``, ``regular_singular`` or
    ``nonsingular``, an array of the stack's shape (0-d for one tensor).

    ``regular_singular`` means det vanishes relative to |CY|^3 while the
    tensor itself does not; trace 0 and det 0 then force the spectrum
    (lambda, -lambda, 0).
    """
    norm = cy.norm
    return np.where(norm < floor, "zero",
                    np.where(np.abs(cy.determinant) <= tol * norm ** 3,
                             "regular_singular", "nonsingular"))


def stratum_param(lam: float, q: np.ndarray) -> CottonYorkTensor:
    """Chart for the top singular stratum: (lambda, Q) -> Q diag(lambda, -lambda, 0) Q^t.

    Q must be special orthogonal.  The image is 4-dimensional (codimension 1
    in the trace-free symmetric space): lambda = 0 degenerates to the zero
    matrix and the stabilizer of the eigenframe eats one rotation parameter.
    """
    q = np.asarray(q, dtype=float)
    if q.shape != (3, 3) or np.abs(q.T @ q - np.eye(3)).max() > 1e-10:
        raise ValueError("Q must be an orthogonal 3x3 matrix")
    if np.linalg.det(q) < 0:
        raise ValueError("Q must have determinant +1")
    core = np.diag([float(lam), -float(lam), 0.0])
    return CottonYorkTensor.from_matrix(q @ core @ q.T)

