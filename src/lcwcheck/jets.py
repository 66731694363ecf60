"""Exact forward-mode differentiation: truncated Taylor arithmetic of order 3.

A :class:`Jet3` carries a value together with its gradient, Hessian and
third-derivative tensor with respect to ``n`` chart coordinates.  Order 3 is
exactly what the downstream pipeline needs (the conformal third-derivative
tensor of a metric requires three metric derivatives) and is fixed: no
configurable order, no higher slots.

Second and third derivatives are stored packed over sorted multi-indices,
n(n+1)/2 and n(n+1)(n+2)/6 entries, so the symmetries hold structurally:
there is no way to store, or observe, an asymmetric component.

A jet may carry a leading batch axis, one row per chart point, so one
operation evaluates many rows at once (Taylor mode over a batch, Griewank
& Walther, *Evaluating Derivatives*, ch. 13).  Every operation acts row by
row with the scalar path's floating-point operations, so a batch computes
exactly the bits of its points one at a time.  :class:`JetTape` compiles
expression trees into groups of nodes, one per depth, operation and
constant operands, and applies the expression walk's own
``exprs.apply_op`` to each group, each row a node of some tree at some
point; a constant operand then holds one float per row.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations

import numpy as np

from . import exprs


class MetricNotPositive(ValueError):
    """Metric evaluation produced a matrix that is not positive definite."""


@lru_cache(maxsize=None)
class SymIndex:
    """Packed-index bookkeeping for symmetric order-2 and order-3 storage."""

    def __init__(self, n: int):
        self.n = n
        pairs = [(i, j) for i in range(n) for j in range(i, n)]
        triples = [(i, j, k) for i in range(n) for j in range(i, n) for k in range(j, n)]
        self.pairs = pairs
        self.triples = triples
        self.npairs = len(pairs)
        self.ntriples = len(triples)

        idx2 = np.empty((n, n), dtype=np.intp)
        for p, (i, j) in enumerate(pairs):
            idx2[i, j] = idx2[j, i] = p
        self.idx2 = idx2

        idx3 = np.empty((n, n, n), dtype=np.intp)
        for t, (i, j, k) in enumerate(triples):
            for perm in permutations((i, j, k)):
                idx3[perm] = t
        self.idx3 = idx3

        # Gather indices, stacked so one fancy index fetches all of a product's
        # operands: a gradient at (i, j) of each pair or (i, j, k) of each
        # triple, a packed Hessian at (jk, ik, ij) of each triple.
        self.pair_ij = np.array(pairs, dtype=np.intp).T
        self.triple_ijk = np.array(triples, dtype=np.intp).T
        ti, tj, tk = self.triple_ijk
        self.triple_hess = np.stack([idx2[tj, tk], idx2[ti, tk], idx2[ti, tj]])


def _col(value):
    """A batch of values as a column, so that it scales each row of a slot."""
    return value[:, None] if isinstance(value, np.ndarray) else value


def _operands(slot, index):
    """``slot`` gathered at each row of a stacked index, one array per row."""
    if slot.ndim == 1:
        return slot[index]  # numpy's fast path for gathers from 1-D arrays
    return slot[:, index].swapaxes(0, 1)


# Taylor coefficients f, f', f'', f''' of the elementary functions at one
# float.  A batch applies them element by element with ``math``, so every
# row gets exactly the floats of the scalar path.

def _reciprocal(v):
    if v == 0.0:
        raise ZeroDivisionError("jet division by zero")
    return 1.0 / v, -1.0 / v**2, 2.0 / v**3, -6.0 / v**4


def _sin(v):
    s, c = math.sin(v), math.cos(v)
    return s, c, -s, -c


def _cos(v):
    s, c = math.sin(v), math.cos(v)
    return c, -s, -c, s


def _tan(v):
    t = math.tan(v)
    d = 1.0 + t * t
    return t, d, 2.0 * t * d, d * (2.0 + 6.0 * t * t)


def _exp(v):
    e = math.exp(v)
    return e, e, e, e


def _log(v):
    if v <= 0.0:
        raise ValueError(f"log of non-positive value {v}")
    return math.log(v), 1.0 / v, -1.0 / v**2, 2.0 / v**3


def _sqrt(v):
    if v <= 0.0:
        raise ValueError(f"sqrt of non-positive value {v} (derivatives singular at 0)")
    s = math.sqrt(v)
    return s, 0.5 / s, -0.25 / (v * s), 0.375 / (v * v * s)


def _atan(v):
    d = 1.0 / (1.0 + v * v)
    return math.atan(v), d, -2.0 * v * d * d, (6.0 * v * v - 2.0) * d**3


@dataclass
class Jet3:
    """Truncated multivariate Taylor expansion of order 3 in n variables.

    Scalar: ``value`` is a float, ``grad`` has shape (n,), ``hess`` and
    ``third`` are packed.  Batched: every slot gains a leading axis of
    length B (``value`` of shape (B,), ``grad`` of shape (B, n), ...).
    """

    n: int
    value: float | np.ndarray
    grad: np.ndarray
    hess: np.ndarray
    third: np.ndarray

    # -- constructors ----------------------------------------------------

    @staticmethod
    def constant(value, n: int) -> "Jet3":
        """A constant jet; a 1-D array of values gives a batch."""
        ix = SymIndex(n)
        value = np.array(value, dtype=float) if np.ndim(value) else float(value)
        batch = np.shape(value)
        return Jet3(n, value, np.zeros(batch + (n,)), np.zeros(batch + (ix.npairs,)),
                    np.zeros(batch + (ix.ntriples,)))

    @staticmethod
    def variable(index: int, base_value, n: int) -> "Jet3":
        if not 0 <= index < n:
            raise IndexError(f"variable index {index} out of range for n={n}")
        jet = Jet3.constant(base_value, n)
        jet.grad[..., index] = 1.0
        return jet

    @property
    def batched(self) -> bool:
        return isinstance(self.value, np.ndarray)

    def take(self, rows) -> "Jet3":
        """The rows of a batch selected by an index array or a boolean mask."""
        return Jet3(self.n, self.value[rows], self.grad[rows], self.hess[rows],
                    self.third[rows])

    # -- unpacked views ---------------------------------------------------

    def hess_matrix(self) -> np.ndarray:
        return self.hess[..., SymIndex(self.n).idx2]

    def third_tensor(self) -> np.ndarray:
        return self.third[..., SymIndex(self.n).idx3]

    # -- ring operations --------------------------------------------------

    # numpy defers ``array <op> jet`` to the jet's reflected method, as
    # Python does for ``float <op> jet``
    __array_ufunc__ = None

    def _coerce(self, other):
        if isinstance(other, Jet3):
            if other.n != self.n:
                raise ValueError("jets have different variable counts")
            return other
        if isinstance(other, (int, float)) or isinstance(other, np.ndarray) and other.ndim == 1:
            return None  # constant fast path: one float, or one per row of a batch
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o is None:
            return Jet3(self.n, self.value + other, self.grad.copy(),
                        self.hess.copy(), self.third.copy())
        return Jet3(self.n, self.value + o.value, self.grad + o.grad,
                    self.hess + o.hess, self.third + o.third)

    __radd__ = __add__

    def __neg__(self):
        return Jet3(self.n, -self.value, -self.grad, -self.hess, -self.third)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o is None:
            return Jet3(self.n, self.value - other, self.grad.copy(),
                        self.hess.copy(), self.third.copy())
        return Jet3(self.n, self.value - o.value, self.grad - o.grad,
                    self.hess - o.hess, self.third - o.third)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o is None:
            col = _col(other)
            return Jet3(self.n, self.value * other, self.grad * col,
                        self.hess * col, self.third * col)
        ix = SymIndex(self.n)
        av, bv = _col(self.value), _col(o.value)
        ag, bg = self.grad, o.grad
        a_i, a_j = _operands(ag, ix.pair_ij)
        b_i, b_j = _operands(bg, ix.pair_ij)
        a1, a2, a3 = _operands(ag, ix.triple_ijk)
        b1, b2, b3 = _operands(bg, ix.triple_ijk)
        ah1, ah2, ah3 = _operands(self.hess, ix.triple_hess)
        bh1, bh2, bh3 = _operands(o.hess, ix.triple_hess)
        value = self.value * o.value
        grad = av * bg + bv * ag
        hess = av * o.hess + bv * self.hess + a_i * b_j + a_j * b_i
        third = (av * o.third + bv * self.third
                 + a1 * bh1 + a2 * bh2 + a3 * bh3
                 + b1 * ah1 + b2 * ah2 + b3 * ah3)
        return Jet3(self.n, value, grad, hess, third)

    __rmul__ = __mul__

    def reciprocal(self) -> "Jet3":
        return self._compose(_reciprocal)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o is None:
            if not np.all(other):
                raise ZeroDivisionError("jet division by zero")
            return self * (1.0 / other)
        return self * o.reciprocal()

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def __pow__(self, exponent):
        if not isinstance(exponent, int):
            raise TypeError("jet powers take integer exponents")
        if exponent == 0:
            return Jet3.constant(np.ones(np.shape(self.value)), self.n)
        base = self.reciprocal() if exponent < 0 else self
        k = abs(exponent)
        result = None
        acc = base
        while k:
            if k & 1:
                result = acc if result is None else result * acc
            k >>= 1
            if k:
                acc = acc * acc
        return result

    # -- elementary functions (univariate chain rule to order 3) ----------

    def _compose(self, coefficients) -> "Jet3":
        """f(self) for the f whose Taylor coefficients ``coefficients(v)`` gives."""
        if self.batched:
            c0, c1, c2, c3 = (np.array(c) for c in
                              zip(*map(coefficients, self.value.tolist())))
        else:
            c0, c1, c2, c3 = coefficients(self.value)
        c1, c2, c3 = _col(c1), _col(c2), _col(c3)
        ix = SymIndex(self.n)
        ag = self.grad
        g_i, g_j = _operands(ag, ix.pair_ij)
        g1, g2, g3 = _operands(ag, ix.triple_ijk)
        h1, h2, h3 = _operands(self.hess, ix.triple_hess)
        grad = c1 * ag
        hess = c1 * self.hess + c2 * g_i * g_j
        third = (c1 * self.third + c2 * (g1 * h1 + g2 * h2 + g3 * h3)
                 + c3 * g1 * g2 * g3)
        return Jet3(self.n, c0, grad, hess, third)

    def sin(self) -> "Jet3":
        return self._compose(_sin)

    def cos(self) -> "Jet3":
        return self._compose(_cos)

    def tan(self) -> "Jet3":
        return self._compose(_tan)

    def exp(self) -> "Jet3":
        return self._compose(_exp)

    def log(self) -> "Jet3":
        return self._compose(_log)

    def sqrt(self) -> "Jet3":
        return self._compose(_sqrt)

    def atan(self) -> "Jet3":
        return self._compose(_atan)


# --- compiled expression trees ----------------------------------------------

# Rows per tape operation.  A jet product gathers operand arrays of
# 3 x rows x n(n+1)(n+2)/6 entries.  Kept within 2^14 entries (128 KiB),
# they stay below the C allocator's threshold for fresh pages from the
# kernel: above it, a 72-lane product at n = 8 cost about twice as much
# per lane as a 36-lane one.
_GATHER_ENTRIES = 2 ** 14


@dataclass(frozen=True, slots=True)
class _Group:
    """The nodes of one depth and operation, as lanes: lane k sits in row
    ``start + k`` of its level and is ``exprs.apply_op(node, ...)`` of its
    operands.  Operand i of lane k is row ``operands[i][k]`` of the level
    below (an int32 array) or the constant ``operands[i][k]`` (a float
    array)."""

    node: exprs.Node
    start: int
    operands: tuple


class JetTape:
    """Expression trees compiled once into depth-grouped batched jet ops.

    Each node that depends on a coordinate is a lane of the group keyed by
    its depth below its tree's root, its operation (a binary operator, a
    negation, a function, an integer power) and which of its operands are
    constants; ``c + jet`` and ``c * jet`` are lanes of the ``jet + c`` and
    ``jet * c`` groups, which is what :class:`Jet3`'s reflected methods
    compute.  Subtrees without coordinates fold to floats with the
    expression walk's own operations.  Level ``d`` holds the n coordinate
    jets, then the lanes of each group of depth ``d``; a group reads its
    operands from level ``d + 1``.  :meth:`run` goes from the deepest level
    up and applies the walk's own ``exprs.apply_op`` to each group (once
    per ``_GATHER_ENTRIES``), its operands batched jets and one constant
    per row: the walk's floating-point operations on every row, not
    reassociated, so the results have the walk's bits.  Nothing is shared
    between trees; identical subtrees of several trees are lanes of one
    operation.
    """

    def __init__(self, coordinates, roots):
        self.n = n = len(coordinates)
        var = {name: k for k, name in enumerate(coordinates)}
        keys = {}     # (depth, operation, constant operands) -> group id
        groups = []   # per group: depth, node, one array per operand

        def lane(key, node, x, y=None):
            """A new lane of the group ``key`` with operands ``x`` (and ``y``),
            each a float or a reference: (group id + 1) << 32 | lane.  A
            coordinate's reference is its index."""
            gid = keys.setdefault(key, len(groups))
            if gid == len(groups):
                groups.append((key[0], node, [array("d" if type(o) is float else "q")
                                              for o in (x, y) if o is not None]))
            columns = groups[gid][2]
            columns[0].append(x)
            if y is not None:
                columns[1].append(y)
            return (gid + 1) << 32 | (len(columns[0]) - 1)

        Const, Var, BinOp = exprs.Const, exprs.Var, exprs.BinOp
        results = []
        for root in roots:
            done = []  # iterative post-order: operands, a folded float or a reference
            todo = [(root, 0, False)]
            while todo:
                node, depth, ready = todo.pop()
                cls = type(node)
                if cls is Const:
                    done.append(float(node.value))
                elif cls is Var:
                    done.append(var[node.name])
                elif not ready:
                    todo.append((node, depth, True))
                    for kid in reversed(exprs.children(node)):
                        todo.append((kid, depth + 1, False))
                elif cls is BinOp:
                    y, x = done.pop(), done.pop()
                    cx, cy = type(x) is float, type(y) is float
                    if cx and cy:
                        done.append(exprs.apply_op(node, (x, y)))
                    elif cx and node.op in "+*":
                        done.append(lane((depth, node.op, False, True), node, y, x))
                    else:
                        done.append(lane((depth, node.op, cx, cy), node, x, y))
                else:
                    x = done.pop()
                    if type(x) is float:
                        done.append(exprs.apply_op(node, (x,)))
                    elif cls is exprs.Neg:
                        done.append(lane((depth, "neg"), node, x))
                    elif cls is exprs.Pow:
                        done.append(lane((depth, "^", node.exponent), node, x))
                    else:
                        done.append(lane((depth, node.func), node, x))
            results.append(done[0])

        self.sizes = sizes = [0] * (1 + max((g[0] for g in groups), default=-1))
        start = np.zeros(len(groups) + 1, dtype=np.int64)  # start[0]: the coordinates
        for gid, (depth, _, columns) in enumerate(groups):
            start[gid + 1] = n + sizes[depth]
            sizes[depth] += len(columns[0])

        def rows(refs):
            refs = np.array(refs, dtype=np.int64)
            return (start[refs >> 32] + (refs & 0xFFFFFFFF)).astype(np.int32)

        self.levels = [[] for _ in sizes]
        for gid, (depth, node, columns) in enumerate(groups):
            self.levels[depth].append(_Group(node, int(start[gid + 1]), tuple(
                np.array(c) if c.typecode == "d" else rows(c) for c in columns)))
        self.results = [r if type(r) is float else int(rows([r])[0]) for r in results]

    def run(self, variables) -> list:
        """The trees' values at the coordinate jets ``variables``.

        The jets are all scalar or all batched over the same points; each
        result is a float (a tree without coordinates) or a jet like them.
        """
        n, ix = self.n, SymIndex(self.n)
        parts = (slice(1, 1 + n), slice(1 + n, 1 + n + ix.npairs),
                 slice(1 + n + ix.npairs, None))
        size = np.size(variables[0].value)
        var = np.stack([np.concatenate([np.reshape(s, (size, -1)) for s in
                                        (v.value, v.grad, v.hess, v.third)], axis=1)
                        for v in variables])
        width = var.shape[-1]

        def unpack(rows):
            """Rows of a level, (count, width), as one batched jet."""
            return Jet3(n, rows[:, 0], rows[:, parts[0]], rows[:, parts[1]], rows[:, parts[2]])

        lanes_per_op = max(1, _GATHER_ENTRIES // (3 * ix.ntriples * size))
        levels = [np.empty((n + max(self.sizes, default=0), size, width)) for _ in range(2)]
        for level in levels:
            level[:n] = var
        below = var
        for depth in reversed(range(len(self.sizes))):
            level = levels[depth % 2]
            for g in self.levels[depth]:
                count = len(g.operands[0])
                for lo in range(0, count, lanes_per_op):
                    lanes = slice(lo, min(lo + lanes_per_op, count))
                    jet = exprs.apply_op(g.node, [
                        np.repeat(o[lanes], size) if o.dtype.kind == "f"
                        else unpack(below[o[lanes]].reshape(-1, width)) for o in g.operands])
                    out = level[g.start + lanes.start:g.start + lanes.stop].reshape(-1, width)
                    out[:, 0] = jet.value
                    for p, slot in zip(parts, (jet.grad, jet.hess, jet.third)):
                        out[:, p] = slot
            below = level
        jets = [r if type(r) is float else unpack(below[r].copy()) for r in self.results]
        if variables[0].batched:
            return jets
        return [j if type(j) is float else Jet3(n, float(j.value[0]), j.grad[0], j.hess[0],
                                                j.third[0]) for j in jets]


def jet_variable(index: int, base_value, n: int) -> Jet3:
    return Jet3.variable(index, base_value, n)


def jet_environment(coordinates, point) -> dict:
    """Seed one jet variable per coordinate at a chart point, or batched
    variables at the rows of a (B, n) array of points."""
    n = len(coordinates)
    point = np.asarray(point, dtype=float)
    return {name: Jet3.variable(k, point[..., k], n) for k, name in enumerate(coordinates)}


# --- metric jets ----------------------------------------------------------


@dataclass(frozen=True)
class MetricJets:
    """g and its first three coordinate-derivative tensors at one point.

    Derivative indices come first: ``dg[a, i, j]`` is the a-derivative of
    ``g_ij``, ``d2g[a, b, i, j]`` and ``d3g[a, b, c, i, j]`` likewise.  The
    recorded symmetries in the derivative slots are exact by construction
    (unpacked from symmetric packed storage).  Batched jets put one more
    axis, of length B, in front of every field (``g[p, i, j]`` at point p).
    """

    point: np.ndarray
    g: np.ndarray
    dg: np.ndarray
    d2g: np.ndarray
    d3g: np.ndarray

    @property
    def n(self) -> int:
        return self.g.shape[-1]

    def __len__(self) -> int:
        """The number of points of batched jets."""
        return self.g.shape[0] if self.g.ndim == 3 else 1

    def __getitem__(self, k) -> "MetricJets":
        """The jets at point ``k`` of a batch."""
        return MetricJets(self.point[k], self.g[k], self.dg[k], self.d2g[k], self.d3g[k])


def metric_jets(spec, points) -> MetricJets:
    """Evaluate a metric's components over jets at chart points.

    ``points`` is one point (shape (n,)), which gives :class:`MetricJets`
    at it, or a (B, n) array, which evaluates the components once for the
    whole batch and gives batched :class:`MetricJets`.  ``spec`` is
    anything with ``dimension``, ``coordinates``, ``domain`` and
    ``component_values(env)`` (a :class:`~lcwcheck.metrics.MetricSpec` or a
    cutoff-perturbed metric).  Raises :class:`MetricNotPositive` when g at
    a point has no Cholesky factor, and ``ValueError`` when a point is
    outside the chart box; either names the first such point.
    """
    n = spec.dimension
    points = np.asarray(points, dtype=float)
    if points.ndim not in (1, 2) or points.shape[-1] != n:
        raise ValueError(f"point must have {n} coordinates")
    batch = points.reshape(-1, n)
    lo, hi = np.array(spec.domain).T
    outside = ~((lo <= batch) & (batch <= hi)).all(axis=1)
    if outside.any():
        raise ValueError(
            f"point {batch[outside][0].tolist()} is outside the chart domain box")

    jets = spec.component_values(jet_environment(spec.coordinates, batch))

    size = len(batch)
    g = np.zeros((size, n, n))
    dg = np.zeros((size, n, n, n))
    d2g = np.zeros((size, n, n, n, n))
    d3g = np.zeros((size, n, n, n, n, n))
    for i in range(n):
        for j in range(i, n):
            jet = jets[i][j]
            if not isinstance(jet, Jet3):
                g[:, i, j] = g[:, j, i] = jet
                continue
            g[:, i, j] = g[:, j, i] = jet.value
            dg[..., i, j] = dg[..., j, i] = jet.grad
            d2g[..., i, j] = d2g[..., j, i] = jet.hess_matrix()
            d3g[..., i, j] = d3g[..., j, i] = jet.third_tensor()

    try:
        np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        for p, gp in zip(batch, g):
            try:
                np.linalg.cholesky(gp)
            except np.linalg.LinAlgError:
                raise MetricNotPositive(
                    f"metric at {p.tolist()} is not positive definite") from None
    mj = MetricJets(batch, g, dg, d2g, d3g)
    return mj if points.ndim == 2 else mj[0]
