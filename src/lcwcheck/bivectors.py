"""Linear algebra on the space of bivectors.

A curvature-type object at a point is a symmetric operator on Lambda^2(R^n),
an N x N matrix over the orthonormal basis {e_i ^ e_j : i < j} in
lexicographic order, N = n(n-1)/2.  The bivector inner product is inherited
from the frame (<e_i^e_j, e_k^e_l> = delta_ik delta_jl - delta_il delta_jk),
so that basis is orthonormal and all adjoints and projections below use it.

The two linear maps that carve out the Weyl space:

* Bianchi map  b(R)(x,y,z,t) = (R(x^y,z^t) + R(y^z,x^t) + R(z^x,y^t)) / 3,
  one component per sorted quadruple i<j<k<l;
* Ricci contraction  r(R)(x,y) = sum_i R(x^e_i, y^e_i).

Weyl operators are exactly ker(b) intersect ker(r).  :func:`weyl_part`
projects onto that subspace with the curvature pipeline's own formula:
drop the Bianchi part, then W = R - S ^o g with the Schouten tensor S of
the Ricci trace (g = I in the frame).  The split of the symmetric
operators into the Lambda^4 part, the Ricci part and W is orthogonal for
the Frobenius inner product, so this is the orthogonal projection.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .curvature import schouten, weyl_tensor


@lru_cache(maxsize=None)
class BivectorBasis:
    """Ordered index pairs (i < j) with pair <-> flat-index maps."""

    def __init__(self, n: int):
        if n < 2:
            raise ValueError("bivectors need n >= 2")
        self.n = n
        self.pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        self.size = len(self.pairs)
        flat = np.full((n, n), -1, dtype=np.intp)
        for a, (i, j) in enumerate(self.pairs):
            flat[i, j] = flat[j, i] = a
        self.flat = flat
        self.first = np.array([i for i, _ in self.pairs], dtype=np.intp)
        self.second = np.array([j for _, j in self.pairs], dtype=np.intp)


def _dimension(size: int) -> int:
    """n with n(n-1)/2 = size, the dimension of an operator on Lambda^2."""
    return int(round((1 + np.sqrt(1 + 8 * size)) / 2))


def to_operator(r4: np.ndarray, scale: float | None = None) -> np.ndarray:
    """Curvature operator matrix of a (0,4) tensor in an orthonormal frame.

    Raises unless finite and pair-exchange symmetric to 1e-8 times the
    curvature scale.  ``scale`` defaults to the tensor's own norm; pass the
    full curvature norm when converting a derived piece such as the Weyl
    part, which may be pure cancellation noise (n = 3, conformally flat).
    """
    if not np.isfinite(r4).all():
        raise ValueError("curvature tensor must be finite")
    basis = BivectorBasis(r4.shape[0])
    fi, se = basis.first, basis.second
    m = r4[fi[:, None], se[:, None], fi[None, :], se[None, :]]
    scale = max(scale or 0.0, np.linalg.norm(r4), 1e-300)
    if np.abs(m - m.T).max() > 1e-8 * scale:
        raise ValueError("tensor lacks the pair-exchange symmetry")
    return 0.5 * (m + m.T)


def operator_to_tensor(op: np.ndarray) -> np.ndarray:
    """Inverse of :func:`to_operator`: the full antisymmetric (0,4) array,
    one per operator of a ``(..., N, N)`` stack."""
    n = _dimension(op.shape[-1])
    basis = BivectorBasis(n)
    fi, se = basis.first, basis.second
    t = np.zeros(op.shape[:-2] + (n, n, n, n))
    t[..., fi[:, None], se[:, None], fi[None, :], se[None, :]] = op
    t = t - t.swapaxes(-4, -3)
    return t - t.swapaxes(-2, -1)


def bianchi_part(t: np.ndarray) -> np.ndarray:
    """Lambda^4 part of a (0,4) tensor with the curvature symmetries: the
    cyclic sum over its first three slots, divided by 3."""
    return (t + t.transpose(1, 2, 0, 3) + t.transpose(2, 0, 1, 3)) / 3.0


def bianchi_map(op: np.ndarray) -> np.ndarray:
    """Lambda^4 component of a symmetric bivector operator, one entry per
    sorted quadruple i<j<k<l (C(n,4) of them)."""
    n = _dimension(op.shape[0])
    quads = np.array(list(combinations(range(n), 4)), dtype=np.intp).reshape(-1, 4)
    return bianchi_part(operator_to_tensor(op))[tuple(quads.T)]


def ricci_contraction(op: np.ndarray) -> np.ndarray:
    """r(R)(x, y) = sum_i R(x ^ e_i, y ^ e_i), a symmetric n x n matrix."""
    t = operator_to_tensor(op)
    return np.einsum("aibi->ab", t)


def lift_orthogonal(q: np.ndarray) -> np.ndarray:
    """Matrix of the induced rotation on Lambda^2.

    Column (a, b) holds the bivector coordinates of (Q e_a) ^ (Q e_b); the
    lift of an orthogonal Q is orthogonal for the bivector inner product.
    """
    basis = BivectorBasis(q.shape[0])
    fi, se = basis.first, basis.second
    return (q[fi[:, None], fi[None, :]] * q[se[:, None], se[None, :]]
            - q[se[:, None], fi[None, :]] * q[fi[:, None], se[None, :]])


def weyl_part(op: np.ndarray) -> np.ndarray:
    """The Weyl part of a symmetric bivector operator, its orthogonal
    projection onto ker(b) intersect ker(r).

    The tensor of ``op`` less its Bianchi part is an algebraic curvature
    tensor R; the result is the operator of W = R - S ^o g, S the Schouten
    tensor of R's Ricci trace and g = I.
    """
    n = _dimension(op.shape[0])
    t = operator_to_tensor(op)
    t = t - bianchi_part(t)
    ric = np.einsum("aibi->ab", t)
    eye = np.eye(n)
    w = weyl_tensor(t, schouten(ric, np.trace(ric), eye, n), eye)
    return to_operator(w, scale=np.linalg.norm(t))


@dataclass(frozen=True)
class WeylOperator:
    """A curvature operator certified to lie in the Weyl subspace."""

    n: int
    matrix: np.ndarray

    TOL = 1e-10

    def __post_init__(self):
        m = self.matrix
        scale = max(np.linalg.norm(m), 1e-300)
        if np.abs(m - m.T).max() > 1e-12 * scale:
            raise ValueError("Weyl operator matrix must be symmetric")
        if not np.isfinite(m).all():
            raise ValueError("Weyl operator entries must be finite")
        if np.linalg.norm(bianchi_map(m)) > self.TOL * scale:
            raise ValueError("nonzero Bianchi component: not a curvature operator")
        if np.linalg.norm(ricci_contraction(m)) > self.TOL * scale:
            raise ValueError("nonzero Ricci contraction: not a Weyl operator")

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.matrix))

    def tensor(self) -> np.ndarray:
        return operator_to_tensor(self.matrix)
