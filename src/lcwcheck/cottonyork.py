"""Dimension-3 obstruction: singularity of the Cotton-York tensor.

The Cotton-York tensor at a point is symmetric and trace-free, so its
eigenvalues sum to zero and the singular ones (det = 0) are exactly those
with spectrum (lambda, -lambda, 0).  The singular set inside the
5-dimensional space of trace-free symmetric operators therefore splits
into a 4-dimensional stratum parameterized by (lambda, rotation) and the
zero matrix; a nonsingular Cotton-York certifies that no limiting
Carleman weight exists near the point.

Eigenvalues use the closed-form trigonometric solver for symmetric 3x3
matrices (no iteration, bit-reproducible); the det tolerance scales with
|CY|^3 because the determinant is cubic.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import acos, cos, pi, sqrt

import numpy as np

DEFAULT_DET_TOL = 1e-9
DEFAULT_ZERO_FLOOR = 1e-12


def symmetric3_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of a symmetric 3x3 matrix, ascending, in closed form."""
    a = np.asarray(m, dtype=float)
    p1 = a[0, 1] ** 2 + a[0, 2] ** 2 + a[1, 2] ** 2
    if p1 == 0.0:
        return np.sort(np.diagonal(a))
    q = float(np.trace(a)) / 3.0
    p2 = (a[0, 0] - q) ** 2 + (a[1, 1] - q) ** 2 + (a[2, 2] - q) ** 2 + 2.0 * p1
    p = sqrt(p2 / 6.0)
    b = (a - q * np.eye(3)) / p
    r = min(1.0, max(-1.0, float(np.linalg.det(b)) / 2.0))
    phi = acos(r) / 3.0
    hi = q + 2.0 * p * cos(phi)
    lo = q + 2.0 * p * cos(phi + 2.0 * pi / 3.0)
    return np.array([lo, 3.0 * q - hi - lo, hi])


@dataclass(frozen=True)
class CottonYorkTensor:
    """Symmetric trace-free 3x3 carrier with cached spectrum, determinant
    and Frobenius norm."""

    matrix: np.ndarray
    trace: float
    determinant: float
    eigenvalues: np.ndarray
    norm: float

    @staticmethod
    def from_matrix(m, floor: float = 0.0) -> "CottonYorkTensor":
        """Check and symmetrize m.  Below ``floor`` (the point's zero floor)
        |m| is roundoff, which need not be symmetric or trace-free, so the
        tensor is taken without those checks (it classifies as ``zero``)."""
        m = np.asarray(m, dtype=float)
        if m.shape != (3, 3):
            raise ValueError("Cotton-York tensor must be 3x3")
        if not np.isfinite(m).all():
            raise ValueError("Cotton-York tensor must be finite")
        scale = float(np.linalg.norm(m))
        tr = float(np.trace(m))
        if scale >= floor:
            if np.abs(m - m.T).max() > 1e-10 * max(scale, 1e-300):
                raise ValueError("Cotton-York tensor must be symmetric")
            if abs(tr) > 1e-10 * scale + 1e-300:
                raise ValueError("Cotton-York tensor must be trace-free")
        m = 0.5 * (m + m.T)
        return CottonYorkTensor(m, tr, float(np.linalg.det(m)),
                                symmetric3_eigenvalues(m), float(np.linalg.norm(m)))


def classify_cy(cy: CottonYorkTensor, tol: float = DEFAULT_DET_TOL,
                floor: float = DEFAULT_ZERO_FLOOR) -> str:
    """Stratum label: ``zero``, ``regular_singular`` or ``nonsingular``.

    ``regular_singular`` means det vanishes relative to |CY|^3 while the
    tensor itself does not; trace 0 and det 0 then force the spectrum
    (lambda, -lambda, 0).
    """
    norm = cy.norm
    if norm < floor:
        return "zero"
    if abs(cy.determinant) <= tol * norm ** 3:
        return "regular_singular"
    return "nonsingular"


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

