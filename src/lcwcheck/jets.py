"""Exact forward-mode differentiation: truncated Taylor arithmetic of order 2 or 3.

A :class:`Jet3` carries a value together with its gradient and Hessian
with respect to ``n`` chart coordinates, and at order 3 its third-derivative
tensor too.  The row width sets the order (:class:`SymIndex`): the n >= 4
obstruction reads the Weyl tensor, a function of g, dg and d2g, so its
jets are of order 2; the Cotton tensor behind the n = 3 obstruction and
``curvature`` needs d3g, so their jets are of order 3.  Value, gradient and
Hessian slots never read the third slot, so order-2 rows have the bits of
the leading slots of order-3 rows.  A jet in no variables has the value
slot alone, a plain value with the bits of the value slot in n variables:
``MetricSpec.evaluate`` seeds those and runs the tape of :func:`metric_jets`.

Second and third derivatives are stored packed over sorted multi-indices,
n(n+1)/2 and n(n+1)(n+2)/6 entries, so the symmetries hold structurally:
there is no way to store, or observe, an asymmetric component.

Every jet is a batch, one row per chart point, so one operation evaluates
many rows at once (Taylor mode over a batch, Griewank & Walther,
*Evaluating Derivatives*, ch. 13).  A row is one packed array in the
layout of :class:`SymIndex`, from the coordinate seeds through the levels
of a :class:`JetTape` to the entries that :func:`metric_jets` gathers into
:class:`MetricJets`, batched too.  Every operation acts row by row, so a
row of a batch has exactly the bits of its point in a batch of one.
:func:`chart_points` checks and batches the points of :func:`metric_jets`
and ``MetricSpec.evaluate``.
:class:`JetTape` compiles expression trees into groups of nodes, one per
depth, operation and constant operands, and applies the expression walk's
own ``exprs.apply_op`` to each group, each row a node of some tree at
some point; a constant operand then holds one float per row.
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
    """Packed-index bookkeeping for symmetric order-2 and order-3 storage, and the
    layout of jet rows of order 2 or 3: the value at 0, then the ``grad``,
    ``hess`` and ``third`` slots, ``third`` empty at order 2."""

    def __init__(self, n: int, order: int = 3):
        if order not in (2, 3):
            raise ValueError(f"jet order must be 2 or 3, not {order}")
        self.n = n
        self.order = order
        pairs = [(i, j) for i in range(n) for j in range(i, n)]
        triples = [(i, j, k) for i in range(n) for j in range(i, n) for k in range(j, n)]
        self.pairs = pairs
        self.triples = triples
        self.npairs = len(pairs)
        self.ntriples = len(triples)
        self.width = 1 + n + self.npairs + (self.ntriples if order == 3 else 0)
        self.grad = slice(1, 1 + n)
        self.hess = slice(1 + n, 1 + n + self.npairs)
        self.third = slice(1 + n + self.npairs, self.width)
        # entries per row of a product's largest operand gather (see JetTape.run)
        self.gather = 3 * self.ntriples if order == 3 else 2 * self.npairs

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
        self.pair_ij = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
        self.triple_ijk = np.array(triples, dtype=np.intp).reshape(-1, 3).T
        ti, tj, tk = self.triple_ijk
        self.triple_hess = np.stack([idx2[tj, tk], idx2[ti, tk], idx2[ti, tj]])


@lru_cache(maxsize=None)
def _layout(n: int, width: int) -> SymIndex:
    """The :class:`SymIndex` of rows of ``width`` slots in n variables."""
    ix = SymIndex(n, 3)
    return ix if width == ix.width else SymIndex(n, 2)


def _col(value):
    """A batch of values as a column, so that it scales each row of a slot."""
    return value[:, None] if isinstance(value, np.ndarray) else value


def _operands(slot, index):
    """``slot`` gathered at each row of a stacked index, one array per row."""
    return slot[:, index].swapaxes(0, 1)


# Taylor coefficients f, f', f'', f''' of the elementary functions at one
# float.  A batch applies them element by element with ``math``, so a row
# gets exactly the floats of its point in a batch of one.

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


def _bump(v):
    f = exprs.bump(v)
    if f == 0.0:  # outside the support or underflowed: exact zeros, and no 1/0 at v = 1
        return 0.0, 0.0, 0.0, 0.0
    u = 1.0 / (1.0 - v)
    return f, -f * u * u, f * u**3 * (u - 2.0), -f * u**4 * (u * u - 6.0 * u + 6.0)


@dataclass
class Jet3:
    """Truncated multivariate Taylor expansions of order 2 or 3 in n
    variables, one per row of a batch of B points.

    ``data`` has shape (B, width), one packed row per point in the layout
    of ``SymIndex(n, order)``, whose width sets the order: the value, the
    gradient, the packed Hessian and, at order 3, the packed third
    derivatives.  ``value`` (B,), ``grad`` (B, n), ``hess`` (B, n(n+1)/2)
    and ``third`` (B, n(n+1)(n+2)/6, or (B, 0) at order 2) are views of
    its slots.  Operands of one operation have the same order.
    """

    n: int
    data: np.ndarray

    # -- constructors ----------------------------------------------------

    @staticmethod
    def constant(value, n: int, order: int = 3) -> "Jet3":
        """Constant jets at a 1-D array of values; a float is a batch of one."""
        value = np.array(value, dtype=float).reshape(-1)
        data = np.zeros((len(value), SymIndex(n, order).width))
        data[:, 0] = value
        return Jet3(n, data)

    @staticmethod
    def variable(index: int, base_value, n: int, order: int = 3) -> "Jet3":
        if not 0 <= index < n:
            raise IndexError(f"variable index {index} out of range for n={n}")
        jet = Jet3.constant(base_value, n, order)
        jet.grad[:, index] = 1.0
        return jet

    # -- views of the slots of the packed rows ------------------------------

    index = property(lambda self: _layout(self.n, self.data.shape[1]))
    order = property(lambda self: self.index.order)
    value = property(lambda self: self.data[:, 0])
    grad = property(lambda self: self.data[:, self.index.grad])
    hess = property(lambda self: self.data[:, self.index.hess])
    third = property(lambda self: self.data[:, self.index.third])

    # -- ring operations --------------------------------------------------

    # numpy defers ``array <op> jet`` to the jet's reflected method, as
    # Python does for ``float <op> jet``
    __array_ufunc__ = None

    def _coerce(self, other):
        if isinstance(other, Jet3):
            if (other.n, other.data.shape[1]) != (self.n, self.data.shape[1]):
                raise ValueError("jets have different variable counts or orders")
            return other
        if isinstance(other, (int, float)) or isinstance(other, np.ndarray) and other.ndim == 1:
            return None  # constant fast path: one float, or one per row of a batch
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o is None:
            return Jet3(self.n, np.column_stack([self.value + other, self.data[:, 1:]]))
        return Jet3(self.n, self.data + o.data)

    __radd__ = __add__

    def __neg__(self):
        return Jet3(self.n, -self.data)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o is None:
            return Jet3(self.n, np.column_stack([self.value - other, self.data[:, 1:]]))
        return Jet3(self.n, self.data - o.data)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o is None:
            return Jet3(self.n, self.data * _col(other))
        ix = self.index
        av, bv = _col(self.value), _col(o.value)
        ag, bg = self.grad, o.grad
        a_i, a_j = _operands(ag, ix.pair_ij)
        b_i, b_j = _operands(bg, ix.pair_ij)
        slots = [av * bv, av * bg + bv * ag, av * o.hess + bv * self.hess + a_i * b_j + a_j * b_i]
        if ix.order == 3:
            a1, a2, a3 = _operands(ag, ix.triple_ijk)
            b1, b2, b3 = _operands(bg, ix.triple_ijk)
            ah1, ah2, ah3 = _operands(self.hess, ix.triple_hess)
            bh1, bh2, bh3 = _operands(o.hess, ix.triple_hess)
            slots.append(av * o.third + bv * self.third
                         + a1 * bh1 + a2 * bh2 + a3 * bh3
                         + b1 * ah1 + b2 * ah2 + b3 * ah3)
        return Jet3(self.n, np.concatenate(slots, axis=1))

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
            return Jet3.constant(np.ones(len(self.data)), self.n, self.order)
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

    # -- elementary functions (univariate chain rule to the jets' order) ---

    def _compose(self, coefficients) -> "Jet3":
        """f(self) for the f whose Taylor coefficients ``coefficients(v)`` gives."""
        c0, c1, c2, c3 = (np.array(c)[:, None]
                          for c in zip(*map(coefficients, self.value.tolist())))
        ix = self.index
        ag, ah = self.grad, self.hess
        g_i, g_j = _operands(ag, ix.pair_ij)
        slots = [c0, c1 * ag, c1 * ah + c2 * g_i * g_j]
        if ix.order == 3:
            g1, g2, g3 = _operands(ag, ix.triple_ijk)
            h1, h2, h3 = _operands(ah, ix.triple_hess)
            slots.append(c1 * self.third + c2 * (g1 * h1 + g2 * h2 + g3 * h3)
                         + c3 * g1 * g2 * g3)
        return Jet3(self.n, np.concatenate(slots, axis=1))

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

    def bump(self) -> "Jet3":
        return self._compose(_bump)


# --- compiled expression trees ----------------------------------------------

# Rows per tape operation.  A jet product's largest operand gather has
# rows x ``SymIndex.gather`` entries (at the triples at order 3, at the pairs
# at order 2).  Kept within 2^14 entries (128 KiB), it stays below the C
# allocator's threshold for fresh pages from the kernel: above it, a 72-lane
# order-3 product at n = 8 cost about twice as much per lane as a 36-lane
# one.  At order 2 this pair cap ran the seed-0 grid4d and n = 8 highdim
# jets 10-30 % faster than the triple cap, in six alternating pairs.
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

        The jets are batched over the same points, in the coordinates as
        variables or in none (plain values); each result is a float (a tree
        without coordinates) or a jet like them over those points.
        """
        n, nvars = self.n, variables[0].n
        var = np.stack([v.data for v in variables])
        size, width = var.shape[1:]
        # in no variables a product gathers nothing: up to _GATHER_ENTRIES lanes per op
        lanes_per_op = max(1, _GATHER_ENTRIES // (variables[0].index.gather * size or 1))
        levels = [np.empty((n + max(self.sizes, default=0), size, width)) for _ in range(2)]
        for level in levels:
            level[:n] = var
        below = var
        for depth in reversed(range(len(self.sizes))):
            level = levels[depth % 2]
            for g in self.levels[depth]:
                count = len(g.operands[0])
                for lo in range(0, count, lanes_per_op):
                    hi = min(lo + lanes_per_op, count)
                    jet = exprs.apply_op(g.node, [
                        np.repeat(o[lo:hi], size) if o.dtype.kind == "f"
                        else Jet3(nvars, below[o[lo:hi]].reshape(-1, width)) for o in g.operands])
                    level[g.start + lo:g.start + hi] = jet.data.reshape(-1, size, width)
            below = level
        return [r if type(r) is float else Jet3(nvars, below[r].copy()) for r in self.results]


def jet_environment(coordinates, point, order: int = 3) -> dict:
    """Seed one jet variable of ``order`` per coordinate at the rows of a
    (B, n) array of points; one chart point is a batch of one."""
    n = len(coordinates)
    point = np.asarray(point, dtype=float)
    return {name: Jet3.variable(k, point[..., k], n, order) for k, name in enumerate(coordinates)}


# --- metric jets ----------------------------------------------------------


@dataclass(frozen=True)
class MetricJets:
    """g and its coordinate-derivative tensors up to the jets' order, 2 or 3,
    at a batch of B points.

    Every field has the point axis first, then the derivative indices:
    ``dg[p, a, i, j]`` is the a-derivative of ``g_ij`` at point p,
    ``d2g[p, a, b, i, j]`` and ``d3g[p, a, b, c, i, j]`` likewise; ``d3g``
    is None at order 2.  The recorded symmetries in the derivative slots
    are exact by construction (unpacked from symmetric packed storage).
    """

    g: np.ndarray
    dg: np.ndarray
    d2g: np.ndarray
    d3g: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.g.shape[-1]

    def __len__(self) -> int:
        """The number of points."""
        return self.g.shape[0]


def chart_points(spec, points) -> np.ndarray:
    """``points`` as a (B, n) batch of points of ``spec``'s chart; one point,
    shape (n,), is a batch of one.  Raises ``ValueError`` unless each point
    has n coordinates and lies in the chart box, naming the first outside."""
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
    return batch


def metric_jets(spec, points, order: int = 3) -> MetricJets:
    """Evaluate a metric's components over jets of ``order`` (2 or 3) at
    chart points.

    ``points`` is a (B, n) array, or one point of shape (n,), a batch of
    one; the components are evaluated once for the whole batch.  ``spec``
    is a :class:`~lcwcheck.metrics.MetricSpec`, the one metric
    representation (a bump-localized perturbation is one too).  Raises
    :func:`chart_points`' ``ValueError`` for a point of the wrong length
    or outside the chart box, and :class:`MetricNotPositive` when g at a
    point has no Cholesky factor; either names the first such point.
    """
    batch = chart_points(spec, points)

    # entries[p, s * npairs + e] is slot s of the row of upper-triangle entry e at point p
    env = jet_environment(spec.coordinates, batch, order)
    entries = spec.component_rows(env).reshape(len(batch), -1)
    ix = SymIndex(spec.dimension, order)

    # each field gathers slots of every entry as (B, *slots.shape, n, n), C-contiguous as
    # np.take writes it, so the curvature pipeline reads a batch and its points alike
    slot = np.arange(ix.width)
    slots = [slot[0], slot[ix.grad], slot[ix.hess][ix.idx2]]
    if order == 3:
        slots.append(slot[ix.third][ix.idx3])
    g, *derivatives = (np.take(entries, np.add.outer(s * ix.npairs, ix.idx2), axis=1)
                       for s in slots)

    check_positive(batch, g, "metric at {} is not positive definite")
    return MetricJets(g, *derivatives)


def check_positive(points, g, message: str) -> None:
    """Raise :class:`MetricNotPositive` unless the (B, n, n) batch g has a
    Cholesky factor at each of the (B, n) points; ``message.format(point)``
    names the first point without one."""
    try:
        np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        for p, gp in zip(points, g):
            try:
                np.linalg.cholesky(gp)
            except np.linalg.LinAlgError:
                raise MetricNotPositive(message.format(p.tolist())) from None
