"""Independent finite-difference oracles, and helpers only the tests use.

The oracles recompute pipeline quantities from plain float metric
evaluations and central differences (Richardson-extrapolated at the outer
layer), with their own index conventions, so that agreement with the jet
pipeline is meaningful.  Finite differences are used in tests only; the
pipeline itself never touches them.

The helpers at the end are small maps that the tests need and the tool
does not run, built on the package's own stages, and the expression
printer, whose text the parser's round-trip tests parse.
"""

import math
from math import comb

import numpy as np

from lcwcheck.bivectors import (WeylOperator, _dimension, lift_orthogonal, operator_to_tensor,
                                weyl_part)
from lcwcheck.curvature import curvature_stage, derivative_stage
from lcwcheck.eigenflag import (CHUNK, _QuarticForms, _as_operator, _batch_residual,
                                _flag_parts, _unit)
from lcwcheck.exprs import _LEVEL, BinOp, Call, Const, Neg, Node, Pow, Var, eval_expr
from lcwcheck.jets import Jet3, SymIndex, jet_environment
from lcwcheck.perturb import _TRACELESS_BASIS, _unpack_cubic


def float_metric(spec):
    """g at one chart point from the float expression walk over the spec's
    entries: the oracles' metric, evaluated without the jet tape."""
    idx2 = SymIndex(spec.dimension).idx2

    def g_at(p):
        env = dict(zip(spec.coordinates, map(float, p)))
        return np.array([eval_expr(entry, env) for entry in spec.entries])[idx2]

    return g_at


def fd_gradient(f, x, h=1e-4):
    x = np.asarray(x, dtype=float)

    def diff(step):
        out = np.empty(len(x))
        for i in range(len(x)):
            e = np.zeros(len(x))
            e[i] = step
            out[i] = (f(x + e) - f(x - e)) / (2 * step)
        return out

    return (4.0 * diff(h / 2) - diff(h)) / 3.0


def fd_hessian(f, x, h=1e-3):
    x = np.asarray(x, dtype=float)
    n = len(x)

    def diff(step):
        out = np.empty((n, n))
        for i in range(n):
            e = np.zeros(n)
            e[i] = step
            gp = fd_gradient(f, x + e, step)
            gm = fd_gradient(f, x - e, step)
            out[i] = (gp - gm) / (2 * step)
        return out

    m = (4.0 * diff(h / 2) - diff(h)) / 3.0
    return 0.5 * (m + m.T)


def fd_third(f, x, h=1e-2):
    x = np.asarray(x, dtype=float)
    n = len(x)

    def diff(step):
        out = np.empty((n, n, n))
        for i in range(n):
            e = np.zeros(n)
            e[i] = step
            hp = fd_hessian(f, x + e, step)
            hm = fd_hessian(f, x - e, step)
            out[i] = (hp - hm) / (2 * step)
        return out

    t = (4.0 * diff(h / 2) - diff(h)) / 3.0
    # symmetrize over all index orders
    return sum(t.transpose(p) for p in
               ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))) / 6.0


def fd_matrix_derivative(mat_at, x, h=1e-3):
    """d[a, i, j] = d_a M_ij by Richardson central differences."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    shape = mat_at(x).shape

    def diff(step):
        out = np.empty((n,) + shape)
        for a in range(n):
            e = np.zeros(n)
            e[a] = step
            out[a] = (mat_at(x + e) - mat_at(x - e)) / (2 * step)
        return out

    return (4.0 * diff(h / 2) - diff(h)) / 3.0


# --- a second curvature pipeline, written from scratch on FD derivatives ----


def christoffel_at(g_at, x, h=1e-3):
    g = g_at(x)
    dg = fd_matrix_derivative(g_at, x, h)
    ginv = np.linalg.inv(g)
    return 0.5 * np.einsum("kl,ijl->kij",
                           ginv,
                           np.einsum("ijl->ijl", dg) + np.einsum("jil->ijl", dg)
                           - np.einsum("lij->ijl", dg))


def riemann_at(g_at, x, h=1e-3):
    """(0,4) curvature in the toolkit's operator arrangement, via FD of the symbols."""
    gamma = christoffel_at(g_at, x, h)
    dgamma = fd_matrix_derivative(lambda y: christoffel_at(g_at, y, h), x, h)
    # endomorphism components: R(d_m, d_n) d_s = Rul[r, s, m, n] d_r
    rul = (np.einsum("mrns->rsmn", dgamma) - np.einsum("nrms->rsmn", dgamma)
           + np.einsum("rma,ans->rsmn", gamma, gamma)
           - np.einsum("rna,ams->rsmn", gamma, gamma))
    g = g_at(x)
    return np.einsum("kr,rlij->ijkl", g, rul)


def ricci_at(g_at, x, h=1e-3):
    r4 = riemann_at(g_at, x, h)
    ginv = np.linalg.inv(g_at(x))
    return np.einsum("kl,ikjl->ij", ginv, r4)


def scalar_at(g_at, x, h=1e-3):
    return float(np.einsum("ij,ij->", np.linalg.inv(g_at(x)), ricci_at(g_at, x, h)))


def schouten_at(g_at, x, h=1e-3):
    g = g_at(x)
    n = g.shape[0]
    ric = ricci_at(g_at, x, h)
    s = float(np.einsum("ij,ij->", np.linalg.inv(g), ric))
    return (ric - s * g / (2.0 * (n - 1))) / (n - 2)


def cotton_at(g_at, x, h=1e-3, h_outer=5e-3):
    # the outer layer differentiates a quantity that is itself two FD layers
    # deep; a larger step keeps the amplified roundoff below truncation
    s2 = schouten_at(g_at, x, h)
    ds2 = fd_matrix_derivative(lambda y: schouten_at(g_at, y, h), x, h_outer)
    gamma = christoffel_at(g_at, x, h)
    nabla = (ds2 - np.einsum("dab,dc->abc", gamma, s2)
             - np.einsum("dac,bd->abc", gamma, s2))
    return nabla - np.einsum("jik->ijk", nabla)


def cotton_york_at(g_at, x, h=1e-3, orientation=1):
    c = cotton_at(g_at, x, h)
    g = g_at(x)
    ginv = np.linalg.inv(g)
    eps = np.zeros((3, 3, 3))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        eps[i, j, k] = 1.0
        eps[j, i, k] = -1.0
    out = np.zeros((3, 3))
    vol = orientation * np.sqrt(np.linalg.det(g)) * eps
    for i in range(3):
        for j in range(3):
            acc = 0.0
            for a in range(3):
                for b in range(3):
                    for k in range(3):
                        for l in range(3):
                            acc += ginv[a, k] * ginv[b, l] * c[k, l, i] * vol[a, b, j]
            out[i, j] = 0.5 * acc
    return out


def weyl_at(g_at, x, h=1e-3):
    g = g_at(x)
    r4 = riemann_at(g_at, x, h)
    s2 = schouten_at(g_at, x, h)
    kn = (np.einsum("ik,jl->ijkl", s2, g) + np.einsum("jl,ik->ijkl", s2, g)
          - np.einsum("il,jk->ijkl", s2, g) - np.einsum("jk,il->ijkl", s2, g))
    return r4 - kn


def residual_explicit(tensor, v, rng):
    """Eigenflag residual through an explicit random orthonormal basis of v-perp."""
    n = len(v)
    basis = [v]
    while len(basis) < n:
        w = rng.standard_normal(n)
        for b in basis:
            w = w - np.dot(w, b) * b
        basis.append(w / np.linalg.norm(w))
    perp = basis[1:]
    total = 0.0
    for wa in perp:
        for bi in range(len(perp)):
            for ci in range(bi + 1, len(perp)):
                val = np.einsum("ijkl,i,j,k,l->", tensor, v, wa, perp[bi], perp[ci])
                total += val ** 2
    return total


def face_points(k, a, sign=1.0):
    """The k^3 grid of the cube face x_a = sign, radially projected, built
    and normalized as one array in C order."""
    axis = np.linspace(-1.0, 1.0, k)
    buf = np.empty((k ** 3, 4))
    buf[:, a] = sign
    buf[:, [d for d in range(4) if d != a]] = axis[np.indices((k, k, k)).reshape(3, -1).T]
    return buf / np.linalg.norm(buf, axis=1, keepdims=True)


def _as_tensor(w):
    """The (0,4) tensor of an operator, and the operator's norm."""
    op, wnorm = _as_operator(w)
    return operator_to_tensor(op), wnorm


def _face_grid_min(w, k, signs, exact):
    """(min E, point count) over the radially projected k^3 grids of the
    cube faces x_a = sign, a = 0..3, for the operator normalized to unit
    norm, ``CHUNK`` points at a time as ``certify_positive_minimum`` does:
    on its packed quartic form, or with the exact |G'|^2 / 2."""
    t, wnorm = _as_tensor(w)
    t = t / wnorm
    forms = _QuarticForms(t[None])
    grid_min, points = np.inf, 0
    for a in range(4):
        for sign in signs:
            pts = face_points(k, a, sign)
            for lo in range(0, pts.shape[0], CHUNK):
                chunk = pts[lo:lo + CHUNK]
                e = _batch_residual(t, chunk) if exact else forms.first_values(chunk)
                grid_min = min(grid_min, float(e.min()))
            points += pts.shape[0]
    return grid_min, points


def grid_min_both_signs(w, k):
    """The certificate's grid minimum over all 8 cube faces x_a = +-1, i.e.
    with both signs of each direction, on the certificate's own evaluator."""
    return _face_grid_min(w, k, (1.0, -1.0), exact=False)


def grid_min_exact(w, k):
    """The certificate's grid minimum over its 4 faces x_a = +1, with each
    point scored by the exact |G'|^2 / 2 instead of the packed form."""
    return _face_grid_min(w, k, (1.0,), exact=True)


# --- helpers only the tests use ----------------------------------------------


def christoffel(mj):
    """Christoffel symbols and their first two coordinate derivatives.

    ``(gamma, dgamma, d2gamma)`` with ``gamma[k, i, j]`` the symbol with
    upper index k, ``dgamma[b, k, i, j]`` its b-derivative and
    ``d2gamma[b, c, k, i, j]`` the second derivative, read from the
    pipeline's two stages at the jets of one point, a batch of one.
    """
    cs = curvature_stage(mj)
    return cs.gamma[0], cs.dgamma[0], derivative_stage(mj, cs).d2gamma[0]


def conjugate_operator(op, q):
    """Operator components in the frame rotated by orthogonal Q (columns)."""
    lift = lift_orthogonal(q)
    return lift.T @ op @ lift


def weyl_space_dim(n):
    """dim S^2(Lambda^2) - dim Lambda^4 - dim S^2(R^n)."""
    if n < 3:
        raise ValueError("needs n >= 3")
    big_n = n * (n - 1) // 2
    dim = big_n * (big_n + 1) // 2 - comb(n, 4) - n * (n + 1) // 2
    assert dim == n * n * (n * n - 1) // 12 - n * (n + 1) // 2
    return dim


def svec(m):
    """Upper triangle of a symmetric matrix, off-diagonal entries times
    sqrt(2): an isometry for the Frobenius inner product."""
    iu, ju = np.triu_indices(m.shape[0])
    return m[iu, ju] * np.where(iu == ju, 1.0, np.sqrt(2.0))


def unsvec(v, n):
    """Inverse of :func:`svec`: the symmetric n x n matrix."""
    iu, ju = np.triu_indices(n)
    m = np.zeros((n, n))
    m[iu, ju] = v / np.where(iu == ju, 1.0, np.sqrt(2.0))
    return m + np.triu(m, 1).T


def weyl_projector_matrix(n):
    """``bivectors.weyl_part`` as a matrix on svec coordinates, one column
    per svec basis vector."""
    big_n = n * (n - 1) // 2
    basis = np.eye(big_n * (big_n + 1) // 2)
    return np.array([svec(weyl_part(unsvec(e, big_n))) for e in basis]).T


def project_weyl(op):
    """Orthogonal (Frobenius) projection onto the Weyl subspace."""
    n = _dimension(op.shape[0])
    return WeylOperator(n, weyl_part(0.5 * (op + op.T)))


def residual_gradient(w, v):
    """Riemannian gradient of the eigenflag residual at a unit vector v,
    from G' and A: grad E = S1 - 2 S2 with S1 = G'.T over the last three
    slots and S2 = G'(., m, .).A."""
    t, _ = _as_tensor(w)
    v = _unit(v)
    gp, a = _flag_parts(t, v[None, :])
    egrad = np.einsum("bjkl,mjkl->m", gp, t) - 2.0 * np.einsum("bjml,bjl->m", gp, a)
    return egrad - np.dot(egrad, v) * v


def vec5_to_sym3(v):
    """Inverse of ``perturb.sym3_to_vec5`` on trace-free symmetric 3x3 matrices."""
    return sum(c * b for c, b in zip(v, _TRACELESS_BASIS))


def cotton_coefficients_full(coeffs):
    """The (3, 3, 3, 3, 3) array A_ij^klm of packed cubic coefficients."""
    return _unpack_cubic(coeffs.packed)


def domain_points(spec, count, rng):
    """``count`` uniform random points of a metric's chart box."""
    lows = np.array([lo for lo, _ in spec.domain])
    highs = np.array([hi for _, hi in spec.domain])
    return lows + (highs - lows) * rng.random((count, spec.dimension))


def hess_matrix(jet):
    """A batched jet's packed Hessians as (B, n, n) matrices."""
    return jet.hess[..., SymIndex(jet.n).idx2]


def third_tensor(jet):
    """A batched jet's packed third derivatives as (B, n, n, n) tensors."""
    return jet.third[..., SymIndex(jet.n).idx3]


def scattered_metric_jets(spec, batch):
    """g, dg, d2g and d3g at a (B, n) batch of points, scattered entry by
    entry from the component jets: the reference for ``metric_jets``."""
    n = spec.dimension
    jets = spec.component_values(jet_environment(spec.coordinates, batch))
    size = len(batch)
    g = np.zeros((size, n, n))
    dg = np.zeros((size, n, n, n))
    d2g = np.zeros((size, n, n, n, n))
    d3g = np.zeros((size, n, n, n, n, n))
    for (i, j), jet in zip(SymIndex(n).pairs, jets):
        if not isinstance(jet, Jet3):
            g[:, i, j] = g[:, j, i] = jet
            continue
        g[:, i, j] = g[:, j, i] = jet.value
        dg[..., i, j] = dg[..., j, i] = jet.grad
        d2g[..., i, j] = d2g[..., j, i] = hess_matrix(jet)
        d3g[..., i, j] = d3g[..., j, i] = third_tensor(jet)
    return g, dg, d2g, d3g


# --- the expression printer: input for the parser's round-trip tests -------
#
# Emits the minimal parenthesization that reparses to an identical tree.
# Levels follow the grammar: 1 = expr, 2 = term, 3 = factor, 4 = base.


def _fmt_number(v: float) -> str:
    if abs(v) < 1e16 and v == int(v):
        return str(int(v))
    return repr(v)


def to_source(node: Node) -> str:
    """Render an AST back to grammar text; reparses to an identical tree.

    An explicit stack of pending (node, level) pairs and text pieces takes
    the place of recursion, so a tree of any depth prints.
    """
    pieces = []
    todo = [(node, 1)]
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            pieces.append(item)
            continue
        node, level = item
        if isinstance(node, Const):
            if node.value < 0 or node.value == math.inf:
                raise ValueError("parser never produces negative or infinite literals")
            own, parts = 4, [_fmt_number(node.value)]
        elif isinstance(node, Var):
            own, parts = 4, [node.name]
        elif isinstance(node, Call):
            own, parts = 4, [node.func + "(", (node.arg, 1), ")"]
        elif isinstance(node, Neg):
            own, parts = 4, ["-", (node.child, 4)]
        elif isinstance(node, Pow):
            own, parts = 3, [(node.base, 4), "^" + str(node.exponent)]
        elif isinstance(node, BinOp):
            own = _LEVEL[node.op]
            # the left operand may sit at the operator's own level; the right
            # one must be strictly tighter, otherwise associativity is lost.
            parts = [(node.left, own), node.op, (node.right, own + 1)]
        else:  # pragma: no cover
            raise TypeError(f"unknown node {node!r}")
        if own < level:
            parts = ["(", *parts, ")"]
        todo.extend(reversed(parts))
    return "".join(pieces)
