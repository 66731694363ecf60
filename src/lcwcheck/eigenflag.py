"""Eigenflag membership test for Weyl operators.

A Weyl operator W has the eigenflag property when some unit vector v maps
the flag v ^ v-perp into itself, i.e. W(v ^ w1, w2 ^ w3) = 0 for all w_i
orthogonal to v.  The residual

    E(v) = sum_a sum_{b<c} W(v ^ w_a, w_b ^ w_c)^2

over an orthonormal basis {w_a} of v-perp is basis independent (it is the
squared norm of the Lambda^2(v-perp) block of W(v ^ .)) and even in v.

The implementation works on the (0,4) tensor form T of the operator and
never builds a basis of v-perp: with G = T(v,.,.,.), A = G(., v, .) and
G' the projection of G's last two slots onto v-perp, on the unit sphere

    E(v) = |G'|^2 / 2 = |v|^2 v.M.v / 2 - |A|^2,

M the first-slot Gram matrix of T.  So E is a quartic form there: E = w.K.w
in the products w = (v_i v_k), i <= k, with K a symmetric N x N matrix
(N = n(n+1)/2) built once per operator from the fully symmetrized form.
One product u = K w gives E = w.u, the Euclidean gradient 2 U v and the
Hessian 6 U, U the symmetric n x n matrix of u with its diagonal doubled.

In dimension 4 the minimum is exact.  The Hodge star splits Lambda^2
into self-dual and anti-self-dual halves, with orthonormal bases s_a and
a_a = (e12 +- e34, e13 -+ e24, e14 +- e23) / sqrt 2 in the lex pair order,
and a Weyl operator into two trace-free symmetric 3 x 3 blocks W+ and W-
(Singer and Thorpe, 1969).  At v = e1 the flag is spanned by the
(s_a + a_a) / sqrt 2 = e12, e13, e14 and Lambda^2(v-perp) by the
(s_a - a_a) / sqrt 2 = e34, -e24, e23, so W(v ^ ., Lambda^2(v-perp)) is
the block (W+ - W-) / 2 and E = |W+ - W-|^2 / 4.  A rotation of R^4 rotates both halves, so
E(v) = |R_v W+ R_v^T - W-|^2 / 4, where v -> R_v is the double cover
S^3 -> SO(3): R_v^T is the rotation of the unit quaternion
v1 + v2 i + v3 j + v4 k.  Over SO(3) this is least (Hoffman and Wielandt,
1953) at R = V U^T, U and V the blocks' eigenvector matrices with their
eigenvalues ascending (a column of V negated if det R < 0), where it is
d^2, d = |spec W+ - spec W-| / 2.  So W is eigenflag iff its blocks share
their spectrum, two conditions (``codim_eigenflag(4)`` = 2).
:func:`min_residuals` takes v from R^T by Shepperd's method (1978) and
scores it with the exact |G'|^2 / 2; no descent runs.

In dimension >= 5 membership is decided by global minimization:
multistart Riemannian Newton descent on the sphere (a step radius per
start, Armijo backtracking relaxed by the rounding floor of w.K.w), final
iterates scored with the exact |G'|^2 / 2.  Each round solves H x = -g for
the tangent Hessians by one in-module batched modified Cholesky, H shifted
by s v v^T so it is nonsingular along v, its pivots raised where H is not
positive definite on v-perp so that the step still goes downhill.
:func:`min_residuals` takes its operators in chunks of
:func:`descent_chunk`, whose gathered forms fit in ``DESCENT_BUDGET``,
for the closed form and the descent alike.  An optional rigorous grid
certificate in dimension 4 scores its grid on the packed form, each pair
+-v once as E is even, one ``CHUNK`` of points at a time, and subtracts
the form's rounding floor.  Start points map to Gaussians through
``_ndtri``, an in-module port of Cephes' inverse normal CDF.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from math import log, pi, sqrt

import numpy as np

from .bivectors import WeylOperator, _dimension, lift_orthogonal, operator_to_tensor
from .cottonyork import DEFAULT_ZERO_FLOOR
from .curvature import DimensionError
from .jets import SymIndex

DEFAULT_TOL_EIGENFLAG = 1e-8
DEFAULT_TOL_NOT_EIGENFLAG = 1e-4
MAXITER = 500     # descent rounds per start
GTOL = 1e-12      # converged once |grad E| <= GTOL * max(1, |W|^2)
C1 = 1e-4         # Armijo sufficient-decrease factor
E_SLACK = 1e-13   # rounding floor of w.K.w, as a share of |W|^2, that Armijo forgives
LAMBDA_FLOOR = 1e-8  # Newton step pivot floor, a share of the shifted Hessian's largest entry
MAX_STEP = 1.0    # largest tangent step of a start, and its first step radius
CHUNK = 65536     # grid points per residual evaluation of the certificate
# Floats of the descent's largest array, the gathered forms K[own], per
# min_residuals chunk: starts * N^2 per operator, N = n(n+1)/2 (8n N^2 by
# default), so 2^19 floats (4 MB) take 58 operators at n = 5 and 6 at n = 8;
# the n = 4 closed form takes chunks of the same size (163 operators).
DESCENT_BUDGET = 2 ** 19


def _as_operator(w) -> tuple[np.ndarray, float]:
    if isinstance(w, WeylOperator):
        return w.matrix, w.norm
    w = np.asarray(w, dtype=float)
    if w.ndim == 2:
        return w, float(np.linalg.norm(w))
    raise TypeError("expected a WeylOperator or an operator matrix")


def _flag_parts(t: np.ndarray, v: np.ndarray):
    """G' and A (see the module docstring) at each unit row of v, against
    one tensor t or one per row."""
    # G, made G' in place
    gp = np.einsum("bi,ijkl->bjkl" if t.ndim == 4 else "bi,bijkl->bjkl", v, t)
    a = np.einsum("bk,bjkl->bjl", v, gp)
    gp -= v[:, None, :, None] * a[:, :, None, :]
    gp += v[:, None, None, :] * a[:, :, :, None]
    return gp, a


class _QuarticForms:
    """E(v) = w.K.w on the unit sphere for each operator of a stack.

    E = |v|^2 v.M.v / 2 - |A|^2 is a quartic form Q(v, v, v, v); K holds Q
    fully symmetrized and packed on the products w = (v_i v_k), i <= k, so
    that the Hessian of w.K.w is 6 U (see the module docstring).  Rows are
    evaluated against the forms of their ``owners``.
    """

    def __init__(self, tensors: np.ndarray):
        p, n = tensors.shape[:2]
        first = tensors.reshape(p, n, n ** 3)
        gram = first @ first.swapaxes(1, 2)  # M, the first-slot Gram matrix
        pairs = tensors.transpose(0, 1, 3, 2, 4).reshape(p, n * n, n * n)  # A = pairs.(v_i v_k)
        b = 0.5 * gram[:, :, :, None, None] * np.eye(n)
        b -= (pairs @ pairs.swapaxes(1, 2)).reshape(b.shape)
        q = sum(b.transpose(0, *(1 + np.array(s))) for s in permutations(range(4))) / 24.0
        sym = SymIndex(n)
        self.ia, self.ib = sym.pair_ij
        self.packed = sym.idx2  # (a, b) -> index of v_a v_b in w
        m = np.where(self.ia == self.ib, 1.0, 2.0)
        self.k = q[:, self.ia[:, None], self.ib[:, None], self.ia, self.ib] * (m[:, None] * m)

    def values(self, v: np.ndarray, owners: np.ndarray):
        """E = w.u and u = K w at each unit row of v."""
        # np.take keeps w, and so u, in C order: einsum then sums each row
        # in the same order whatever the number of rows
        w = np.take(v, self.ia, axis=1) * np.take(v, self.ib, axis=1)
        u = np.einsum("bpq,bq->bp", self.k[owners], w)
        return np.einsum("bp,bp->b", w, u), u

    def first_values(self, v: np.ndarray) -> np.ndarray:
        """E = w.K w at each unit row of v for the stack's first operator,
        without gathering K per row."""
        w = np.take(v, self.ia, axis=1) * np.take(v, self.ib, axis=1)
        return np.einsum("bp,bp->b", w, w @ self.k[0])

    def derivatives(self, v: np.ndarray, u: np.ndarray):
        """Riemannian gradient and Hessian at each unit row of v, from u = K w.

        With U the symmetric matrix of u (diagonal doubled), the Euclidean
        gradient is g = 2 U v and the Hessian H = 6 U; on the sphere they
        become P g and P (H - (v.g) I) P, P = I - v v^T.
        """
        n = v.shape[1]
        ut = np.take(u, self.packed, axis=1) * (1.0 + np.eye(n))
        egrad = 2.0 * np.einsum("bij,bj->bi", ut, v)
        vg = np.einsum("bi,bi->b", egrad, v)
        h = 6.0 * ut - vg[:, None, None] * np.eye(n)
        hv = np.einsum("bij,bj->bi", h, v)
        h += (np.einsum("bi,bi->b", v, hv)[:, None, None] * v[:, :, None] * v[:, None, :]
              - v[:, :, None] * hv[:, None, :] - hv[:, :, None] * v[:, None, :])
        return egrad - vg[:, None] * v, h


def _newton_steps(v: np.ndarray, rgrad: np.ndarray, hess: np.ndarray) -> np.ndarray:
    """Riemannian Newton step at each unit row of v from its tangent gradient
    g and Hessian H, by a bounded modified Cholesky solve.

    H v = 0, so where H is positive definite on v-perp the solution x of
    (H + s v v^T) x = -g, s = tr H / (n - 1), is tangent with H x = -g.
    Gauss-Jordan elimination without pivoting on [H + s v v^T | -g] meets
    the L D L^T pivots c_jj one column at a time; each becomes
    max(|c_jj|, theta_j^2 / beta^2, delta) (Gill, Murray and Wright, 1981),
    theta_j the largest |c_ij|, i > j, beta^2 = max(gamma, xi / sqrt(n^2 - 1))
    and delta = LAMBDA_FLOOR max(gamma, xi), gamma and xi the largest diagonal
    and off-diagonal magnitudes.  So x, projected onto v-perp, goes downhill,
    and where H + s v v^T is positive definite with pivots above delta it is
    the plain Newton step: |c_ij|^2 <= c_ii c_jj <= gamma c_jj.
    """
    rows, n = v.shape
    vt = v.T
    shift = np.trace(hess, axis1=1, axis2=2) / (n - 1)
    m = np.empty((n, n + 1, rows))  # [H + s v v^T | -g] with the rows last: slices are contiguous
    m[:, :n] = hess.transpose(1, 2, 0)
    m[:, :n] += (shift * vt)[:, None] * vt
    m[:, n] = -rgrad.T
    upper = np.triu_indices(n, 1)
    gamma = np.abs(m[range(n), range(n)]).max(axis=0)
    xi = np.abs(m[upper]).max(axis=0)
    beta2 = np.maximum(gamma, xi / sqrt(n * n - 1))
    delta = LAMBDA_FLOOR * np.maximum(gamma, xi)
    with np.errstate(all="ignore"):  # a zero Hessian gives 0 / 0, a NaN step that Armijo rejects
        for j in range(n):
            theta2 = (m[j + 1:, j] ** 2).max(axis=0, initial=0.0)
            pivot = np.maximum(np.maximum(np.abs(m[j, j]), theta2 / beta2), delta)
            m[j, j] = pivot - 1.0  # so that the update leaves row j divided by its pivot
            m[:, j + 1:] -= m[:, j, None] * (m[j, j + 1:] / pivot)
        x = m[:, n].T
        return x - np.einsum("bi,bi->b", x, v)[:, None] * v


def _batch_residual(t: np.ndarray, v: np.ndarray) -> np.ndarray:
    gp = _flag_parts(t, v)[0]
    return 0.5 * np.einsum("bjkl,bjkl->b", gp, gp)


def _unit(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if abs(np.linalg.norm(v) - 1.0) > 1e-10:
        raise ValueError("flag direction must be a unit vector")
    return v


def residual(w, v) -> float:
    """E(v) for a single direction; raises unless v is a unit vector."""
    t = operator_to_tensor(_as_operator(w)[0])
    return float(_batch_residual(t, _unit(v)[None, :])[0])


# --- start sets -------------------------------------------------------------

# Cephes ndtri (Moshier) on [1e-12, 1 - 1e-12]; Q tables are monic (leading 1.0). There
# sqrt(-2 ln y) <= 7.43 < 8, so the y < exp(-32) branch (P2/Q2 tables) never runs: left out.
_SQRT_2PI = 2.50662827463100050242
_EXP_M2 = 0.13533528323661269189
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016)
_Q0 = (1.0, 1.95448858338141759834, 4.67627912898881538453, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142)
_P1 = (4.05544892305962419923, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.0, 1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)


def _poly(x: float, coeffs) -> float:  # Horner, highest degree first, as polevl/p1evl
    out = coeffs[0]
    for c in coeffs[1:]:
        out = out * x + c
    return out


def _ndtri(y: float) -> float:
    """Inverse standard normal CDF of y in [1e-12, 1 - 1e-12], bit for bit
    Cephes' ndtri; math's log and sqrt (not numpy's) keep libm's bits."""
    upper = y > 1.0 - _EXP_M2
    if upper:
        y = 1.0 - y
    if y > _EXP_M2:
        y -= 0.5
        y2 = y * y
        return (y + y * (y2 * _poly(y2, _P0) / _poly(y2, _Q0))) * _SQRT_2PI
    x = sqrt(-2.0 * log(y))
    z = 1.0 / x
    x = x - log(x) / x - z * _poly(z, _P1) / _poly(z, _Q1)
    return x if upper else -x


_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)


def _halton(count: int, dim: int) -> np.ndarray:
    out = np.empty((count, dim))
    for d in range(dim):
        base = _PRIMES[d]
        for i in range(count):
            x, f, k = 0.0, 1.0, i + 1
            while k:
                f /= base
                x += f * (k % base)
                k //= base
            out[i, d] = x
    return out


def sphere_start_set(n: int, count: int, seed=None) -> np.ndarray:
    """Deterministic low-discrepancy unit vectors plus the n frame vectors.

    Halton points become Gaussians through the in-module ``_ndtri``.
    Antipodes are identified by fixing the sign of the largest component
    (the residual is even).  A seed, when given, applies one seeded rotation
    to the low-discrepancy part; the set stays deterministic per seed.
    """
    count = max(count, n)
    pts = np.vectorize(_ndtri, otypes=[float])(np.clip(_halton(count - n, n), 1e-12, 1 - 1e-12))
    if seed is not None:
        rng = np.random.default_rng(seed)
        q, r = np.linalg.qr(rng.standard_normal((n, n)))
        pts = pts @ (q * np.sign(np.diag(r)))
    pts = np.vstack([np.eye(n), pts])
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    return _lead_positive(pts)


def _lead_positive(v: np.ndarray) -> np.ndarray:
    """The rows of v, each negated where its largest-magnitude entry is negative."""
    lead = np.take_along_axis(v, np.abs(v).argmax(axis=1)[:, None], axis=1)[:, 0]
    return v * np.where(lead < 0, -1.0, 1.0)[:, None]


# --- the multistart minimizer ----------------------------------------------


@dataclass(frozen=True)
class EigenflagReport:
    """Outcome of residual minimization over the unit sphere."""

    residual_min: float        # best residual normalized by |W|_F^2
    raw_residual: float
    minimizer: np.ndarray
    weyl_norm: float
    n_starts: int
    converged: np.ndarray      # per-start convergence flags
    verdict: str               # eigenflag_within_tol | not_eigenflag
    #                          # | inconclusive | weyl_negligible
    iterations: int


def descent_chunk(n: int, starts: int | None = None) -> int:
    """Operators per :func:`min_residuals` chunk: as many as the descent's
    ``DESCENT_BUDGET`` holds, at n = 4 too, where nothing descends."""
    count = max(n, 8 * n if starts is None else starts)  # the size of sphere_start_set
    return max(1, DESCENT_BUDGET // (count * (n * (n + 1) // 2) ** 2))


def min_residual(w, starts: int | None = None, seed=None,
                 tol_eigenflag: float = DEFAULT_TOL_EIGENFLAG,
                 weyl_floor: float = DEFAULT_ZERO_FLOOR) -> EigenflagReport:
    """Globally minimize the eigenflag residual.

    At n = 4 the minimizer is the closed form of the module docstring: one
    start, converged, 0 iterations, ``starts`` and ``seed`` unused.  At
    n >= 5 it is a multistart descent.  Defaults: 8n starts (deterministic
    low-discrepancy set plus the frame vectors).  Each start takes
    Riemannian Newton steps on the quartic form of E by a modified Cholesky
    solve, its pivots raised to at least their absolute value,
    ``LAMBDA_FLOOR`` of the Hessian's largest entry and a growth bound: the
    plain Newton step where the Riemannian Hessian is positive definite, a
    descent step elsewhere, capped by a radius that doubles (up to
    ``MAX_STEP``) after a full step and halves after a backtrack.  Steps
    backtrack (factor 0.5) until they pass an Armijo test relaxed by
    ``E_SLACK * |W|^2``, the rounding floor of the form.  A start stops once
    its gradient is below ``GTOL * max(1, |W|^2)``, or after ``MAXITER``
    rounds.  The best final iterate is scored with the exact residual.
    Deterministic for a fixed seed.  Verdict thresholds act on the
    normalized residual; values between ``tol_eigenflag`` and
    ``DEFAULT_TOL_NOT_EIGENFLAG`` are reported as inconclusive.
    """
    return min_residuals([w], starts, seed, tol_eigenflag, weyl_floor)[0]


def min_residuals(ws, starts: int | None = None, seed=None,
                  tol_eigenflag: float = DEFAULT_TOL_EIGENFLAG,
                  weyl_floor=DEFAULT_ZERO_FLOOR) -> list[EigenflagReport]:
    """:func:`min_residual` for several operators of one dimension at once.

    ``weyl_floor`` is one floor for all operators or one per operator.  The
    operators above their floor go in chunks of :func:`descent_chunk`, each
    making the (0,4) tensors of its own operators only.  At n = 4 a chunk
    takes the closed form together, two batched 3 x 3 ``eigh``; at n >= 5
    it descends, all operators x starts of the chunk in one loop.  Either
    way each report is exactly that of its operator on its own; an empty
    ``ws`` gives no reports.  A report's ``iterations`` counts the loop
    rounds in which some start of its operator was still descending.
    """
    pairs = [_as_operator(w) for w in ws]
    if not pairs:
        return []
    n = _dimension(pairs[0][0].shape[0])
    if n < 4:
        raise DimensionError("eigenflag test needs dimension >= 4")
    if any(_dimension(op.shape[0]) != n for op, _ in pairs):
        raise DimensionError("operators of one batch must share their dimension")
    floors = np.broadcast_to(np.asarray(weyl_floor, dtype=float), (len(pairs),))

    reports = [EigenflagReport(0.0, 0.0, np.zeros(n), wnorm, 0, np.zeros(0, dtype=bool),
                               "weyl_negligible", 0) if wnorm < floor else None
               for (_, wnorm), floor in zip(pairs, floors)]
    live = [k for k, r in enumerate(reports) if r is None]
    if n > 4 and live:
        start_set = sphere_start_set(n, 8 * n if starts is None else starts, seed)
    size = descent_chunk(n, starts)
    for lo in range(0, len(live), size):
        if n == 4:
            _closed_form4(pairs, live[lo:lo + size], reports, tol_eigenflag)
        else:
            _descend(pairs, live[lo:lo + size], reports, start_set, tol_eigenflag)
    return reports


def _descend(pairs, live, reports, start_set, tol_eigenflag) -> None:
    """Descend the operators ``pairs[k]``, k in ``live``, in one loop from
    ``start_set``, and set their ``reports[k]``; see :func:`min_residuals`."""
    nb = start_set.shape[0]
    wnorms = np.array([pairs[k][1] for k in live])
    tensors = [operator_to_tensor(pairs[k][0]) for k in live]
    forms = _QuarticForms(np.stack(tensors))

    # The state holds only the starts still descending, row b being start
    # ids[b].  It is compacted on the rounds in which some start converges or
    # freezes; a start leaves its last iterate in ``final``.
    ids = np.arange(len(live) * nb)
    own = ids // nb
    v = np.tile(start_set, (len(live), 1))
    final = np.empty_like(v)
    e, u = forms.values(v, own)  # kept at the current iterates
    radius = np.full(ids.size, MAX_STEP)
    gtol_eff = np.repeat(GTOL * np.maximum(1.0, wnorms ** 2), nb)
    slack = np.repeat(E_SLACK * wnorms ** 2, nb)  # rounding floor of E = w.Kw
    done = np.zeros(ids.size, dtype=bool)      # converged (small gradient)
    iterations = np.zeros(len(live), dtype=int)

    for _ in range(MAXITER):
        if ids.size == 0:
            break
        iterations += np.bincount(own, minlength=len(live)) > 0
        rgrad, hess = forms.derivatives(v, u)
        small = np.sqrt(np.einsum("bi,bi->b", rgrad, rgrad)) <= gtol_eff
        idx = np.flatnonzero(~small)

        step = _newton_steps(v[idx], rgrad[idx], hess[idx])
        length = np.sqrt(np.einsum("bi,bi->b", step, step))
        step *= np.minimum(1.0, radius[idx] / length)[:, None]
        slope = np.einsum("bi,bi->b", step, rgrad[idx])

        # backtrack on E: Armijo, relaxed by the form's rounding floor
        scale = np.ones(idx.size)
        gone = small.copy()                    # converged, or line search exhausted
        searching = np.arange(idx.size)
        for _ in range(60):
            if searching.size == 0:
                break
            rows = idx[searching]
            trial = v[rows] + scale[searching, None] * step[searching]
            trial /= np.linalg.norm(trial, axis=1, keepdims=True)
            e_trial, u_trial = forms.values(trial, own[rows])
            ok = e_trial <= e[rows] + C1 * scale[searching] * slope[searching] + slack[rows]
            accepted = rows[ok]
            v[accepted], u[accepted], e[accepted] = trial[ok], u_trial[ok], e_trial[ok]
            searching = searching[~ok]
            scale[searching] *= 0.5
        gone[idx[searching]] = True
        radius[idx] = np.where(scale == 1.0, np.minimum(2.0 * radius[idx], MAX_STEP),
                               0.5 * radius[idx])

        if gone.any():
            done[ids[small]] = True
            final[ids[gone]] = v[gone]
            ids, own, v, u, e, radius, gtol_eff, slack = (
                x[~gone] for x in (ids, own, v, u, e, radius, gtol_eff, slack))
    final[ids] = v

    for p, k in enumerate(live):
        # exact re-evaluation at the final iterates; best start wins
        vp = final[p * nb:(p + 1) * nb]
        energies = _batch_residual(tensors[p], vp)
        best = int(np.argmin(energies))
        reports[k] = _report(float(energies[best]), pairs[k][1], vp[best],
                             done[p * nb:(p + 1) * nb].copy(), int(iterations[p]),
                             tol_eigenflag)


# Rows: orthonormal bases of the self-dual and anti-self-dual bivectors in
# the lex pair order (12), (13), (14), (23), (24), (34).
_SELF_DUAL = sqrt(0.5) * np.array([[1, 0, 0, 0, 0, 1], [0, 1, 0, 0, -1, 0], [0, 0, 1, 1, 0, 0]])
_ANTI_SELF_DUAL = sqrt(0.5) * np.array([[1, 0, 0, 0, 0, -1], [0, 1, 0, 0, 1, 0],
                                        [0, 0, 1, -1, 0, 0]])


def _closed_form4(pairs, live, reports, tol_eigenflag) -> None:
    """Set ``reports[k]``, k in ``live``, of the n = 4 operators ``pairs[k]``
    at the minimizer of the module docstring, scored exactly."""
    ops = np.stack([pairs[k][0] for k in live])
    u = np.linalg.eigh(_SELF_DUAL @ ops @ _SELF_DUAL.T)[1]
    v = np.linalg.eigh(_ANTI_SELF_DUAL @ ops @ _ANTI_SELF_DUAL.T)[1]
    v[:, :, 2] *= np.sign(np.linalg.det(u) * np.linalg.det(v))[:, None]  # so that det R = 1
    minimizers = _lead_positive(_quaternions(u @ v.swapaxes(1, 2)))  # of R^T = U V^T
    raw = _batch_residual(operator_to_tensor(ops), minimizers)
    for p, k in enumerate(live):
        reports[k] = _report(float(raw[p]), pairs[k][1], minimizers[p], np.ones(1, dtype=bool),
                             0, tol_eigenflag)


def _quaternions(m: np.ndarray) -> np.ndarray:
    """Unit quaternions (w, x, y, z) of a stack of rotations m, by Shepperd's
    method: the column of 4 q q^T with the largest diagonal entry, normalized."""
    (a, b, c), (d, e, f), (g, h, i) = m.transpose(1, 2, 0)
    four_qq = np.array([[1 + a + e + i, h - f, c - g, d - b],
                        [h - f, 1 + a - e - i, b + d, c + g],
                        [c - g, b + d, 1 - a + e - i, f + h],
                        [d - b, c + g, f + h, 1 - a - e + i]])
    q = four_qq[:, np.argmax(np.diagonal(four_qq), axis=1), np.arange(m.shape[0])].T
    return q / np.linalg.norm(q, axis=1, keepdims=True)


def _report(raw: float, wnorm: float, minimizer: np.ndarray, converged: np.ndarray,
            iterations: int, tol_eigenflag: float) -> EigenflagReport:
    """The report of a minimum ``raw`` of E, its verdict read off raw / |W|^2."""
    normalized = raw / wnorm ** 2
    if normalized < tol_eigenflag:
        verdict = "eigenflag_within_tol"
    elif normalized > DEFAULT_TOL_NOT_EIGENFLAG:
        verdict = "not_eigenflag"
    else:
        verdict = "inconclusive"
    return EigenflagReport(normalized, raw, minimizer, wnorm, converged.size, converged, verdict,
                           iterations)


# --- rigorous grid certificate (n = 4) --------------------------------------


@dataclass(frozen=True)
class CertifiedBound:
    """Lower bound for min E over the sphere; conclusive when positive."""

    lower_bound: float
    conclusive: bool
    grid_min: float
    lipschitz: float
    covering_radius: float
    points: int


def certify_positive_minimum(w, grid_resolution: int = 64) -> CertifiedBound:
    """Certify min E > 0 for a unit-normalized Weyl operator on S^3.

    Evaluates E on a covering grid of the 4 cube faces x_a = +1, radially
    projected, ``CHUNK`` points at a time, each chunk built from its flat
    grid indices so that memory stays bounded by ``CHUNK``, as the
    packed form w.(w @ K) of :class:`_QuarticForms`.  It subtracts the
    form's rounding floor ``E_SLACK`` (|W| = 1 here) and a computed
    Lipschitz bound times the covering radius.  The faces x_a = -1 are
    left out: every unit v or -v projects from one of the 4 faces, the
    projection is 1-Lipschitz and E(-v) = E(v), so those faces would only
    repeat values.
    The Lipschitz constant comes from the polynomial structure of E:
    |grad E| <= 3 sigma^2 with sigma^2 the largest eigenvalue of the
    first-slot Gram matrix of T, converted to the geodesic metric.  A
    non-positive bound means the resolution was too coarse (or a true zero
    exists) and is reported as inconclusive.
    """
    op, wnorm = _as_operator(w)
    t = operator_to_tensor(op)
    n = t.shape[0]
    if n != 4:
        raise DimensionError("grid certification is implemented for n = 4 only")
    if wnorm == 0.0:
        raise ValueError("cannot normalize the zero operator")
    if grid_resolution < 2:
        raise ValueError("grid_resolution must be at least 2")
    t = t / wnorm

    gram = np.einsum("ijkl,mjkl->im", t, t)
    sigma2 = float(np.linalg.eigvalsh(gram)[-1])
    lipschitz = 3.0 * sigma2 * (pi / 2.0)  # geodesic bound * chordal conversion

    k = grid_resolution
    axis = np.linspace(-1.0, 1.0, k)
    h = 2.0 / (k - 1)
    covering = sqrt(3.0) / 2.0 * h  # face half-diagonal; projection is 1-Lipschitz here

    forms = _QuarticForms(t[None])
    grid_min = np.inf
    face_points = k ** 3
    for lo in range(0, face_points, CHUNK):
        # rows lo.. of the C-order (k^3, 3) cube grid, built from their flat indices
        flat = np.arange(lo, min(lo + CHUNK, face_points))
        face = axis[np.stack(np.unravel_index(flat, (k, k, k)), axis=1)]
        buf = np.empty((flat.size, 4))
        for a in range(4):
            buf[:, a] = 1.0
            buf[:, [d for d in range(4) if d != a]] = face
            pts = buf / np.linalg.norm(buf, axis=1, keepdims=True)
            grid_min = min(grid_min, float(forms.first_values(pts).min()))
    points = 4 * face_points

    bound = grid_min - E_SLACK - lipschitz * covering
    return CertifiedBound(bound, bound > 0.0, grid_min, lipschitz, covering, points)


# --- exact stratification arithmetic ----------------------------------------


def codim_eigenflag(n: int) -> int:
    """Codimension of the eigenflag set inside the Weyl space, exactly."""
    if n < 4:
        raise DimensionError("eigenflag codimension is defined for n >= 4")
    numerator = n ** 3 - 3 * n ** 2 - 4 * n + 6
    assert numerator % 3 == 0
    return numerator // 3


def construct_stratum4(eigenvalues, frame: np.ndarray | None = None) -> WeylOperator:
    """Top-stratum eigenflag operator in dimension 4.

    Diagonal on the simple-bivector basis {f1^f2, f3^f4, f1^f3, f4^f2,
    f1^f4, f2^f3} with eigenvalues (a, a, b, b, c, c) on complementary
    pairs; requires a + b + c = 0, which makes the Ricci contraction
    vanish.  The residual at v = f1 is exactly zero.
    """
    a, b, c = (float(x) for x in eigenvalues)
    scale = max(1.0, abs(a), abs(b), abs(c))
    if abs(a + b + c) > 1e-12 * scale:
        raise ValueError("eigenvalues must sum to zero (Ricci contraction)")
    diag = np.diag([a, b, c, c, b, a])  # lex pair order (12),(13),(14),(23),(24),(34)
    if frame is None:
        return WeylOperator(4, diag)
    frame = np.asarray(frame, dtype=float)
    if frame.shape != (4, 4) or np.abs(frame.T @ frame - np.eye(4)).max() > 1e-10:
        raise ValueError("frame must be an orthogonal 4x4 matrix")
    lift = lift_orthogonal(frame)
    return WeylOperator(4, lift @ diag @ lift.T)
