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
layout of :class:`SymIndex`, from the coordinate seeds through the table
of a :class:`JetTape` to the entries that :func:`metric_jets` gathers into
:class:`MetricJets`, batched too.  Every operation acts row by row, so a
row of a batch has exactly the bits of its point in a batch of one.
:func:`chart_points` checks and batches the points of :func:`metric_jets`
and ``MetricSpec.evaluate``.
:class:`JetTape` compiles expression text, as it is parsed, into sums
of terms, each a constant times a product of atoms (coordinates, function
calls, reciprocals, sums inside products).  Atoms and products are shared
by all entries: each is computed once per batch, one :class:`Jet3`
operation for all those of a kind, and each entry's row is its terms
added in source order.
"""

from __future__ import annotations

import math
import sys
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
#
# Those of 1/v, log v, sqrt v and atan v are powers of v (of 1/(1 + v^2)),
# which leave the float range long before the derivatives of f(a) do: at
# v = a = 2e200 with a' = 1e200, log's f'' = -1/v**2 is below the smallest
# float, yet f'' a'^2 = -1/4.  So where the power farthest from 1 is not a
# normal float, or a float's ** or / raises on it, these give None, and
# ``_*_scaled`` gives the coefficients f^(k)(v) v^k of the chain rule in
# a' / v (:meth:`Jet3._compose`).

def _reciprocal(v):
    if v == 0.0:
        raise ZeroDivisionError("jet division by zero")
    try:
        c = 1.0 / v, -1.0 / v**2, 2.0 / v**3, -6.0 / v**4
    except ArithmeticError:  # a float's ** raises where a power overflows, / where it is 0
        return None
    return c if sys.float_info.min <= abs(c[3]) < math.inf else None


def _reciprocal_scaled(v):
    r = 1.0 / v
    return r, -r, 2.0 * r, -6.0 * r


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
    try:
        c = math.log(v), 1.0 / v, -1.0 / v**2, 2.0 / v**3
    except ArithmeticError:
        return None
    return c if sys.float_info.min <= c[3] < math.inf else None


def _log_scaled(v):
    return math.log(v), 1.0, -1.0, 2.0


def _sqrt(v):
    if v <= 0.0:
        raise ValueError(f"sqrt of non-positive value {v} (derivatives singular at 0)")
    s = math.sqrt(v)
    try:
        c = s, 0.5 / s, -0.25 / (v * s), 0.375 / (v * v * s)
    except ArithmeticError:
        return None
    return c if sys.float_info.min <= c[3] < math.inf else None


def _sqrt_scaled(v):
    s = math.sqrt(v)
    return s, 0.5 * s, -0.25 * s, 0.375 * s


def _atan(v):
    d = 1.0 / (1.0 + v * v)
    d3 = d**3
    if not d3 >= sys.float_info.min:  # |v| > 1.4e51, or nan
        return None
    return math.atan(v), d, -2.0 * v * d * d, (6.0 * v * v - 2.0) * d3


def _atan_scaled(v):
    w = 1.0 / v
    e = 1.0 / (1.0 + w * w)
    return math.atan(v), w * e, -2.0 * w * e * e, (6.0 - 2.0 * w * w) * w * e**3


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
        return self._compose(_reciprocal, _reciprocal_scaled)

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

    def _compose(self, coefficients, scaled=None) -> "Jet3":
        """f(self) for the f whose Taylor coefficients ``coefficients(v)`` gives.

        A row whose coefficients are out of the float range (None) takes
        ``scaled(v)``, the coefficients f^(k)(v) v^k, and the derivatives of
        self over v: f^(k)(v) a_i ... a_l = f^(k)(v) v^k (a_i/v) ... (a_l/v),
        so the chain rule adds the same terms, with each factor in range."""
        values = self.value.tolist()
        rows = list(map(coefficients, values))
        a = self
        if None in rows:
            far = [b for b, c in enumerate(rows) if c is None]
            a = Jet3(self.n, self.data.copy())
            a.data[far, 1:] /= a.data[far, :1]
            for b in far:
                rows[b] = scaled(values[b])
        c0, c1, c2, c3 = (np.array(c)[:, None] for c in zip(*rows))
        ix = a.index
        ag, ah = a.grad, a.hess
        g_i, g_j = _operands(ag, ix.pair_ij)
        slots = [c0, c1 * ag, c1 * ah + c2 * g_i * g_j]
        if ix.order == 3:
            g1, g2, g3 = _operands(ag, ix.triple_ijk)
            h1, h2, h3 = _operands(ah, ix.triple_hess)
            slots.append(c1 * a.third + c2 * (g1 * h1 + g2 * h2 + g3 * h3)
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
        return self._compose(_log, _log_scaled)

    def sqrt(self) -> "Jet3":
        return self._compose(_sqrt, _sqrt_scaled)

    def atan(self) -> "Jet3":
        return self._compose(_atan, _atan_scaled)

    def bump(self) -> "Jet3":
        return self._compose(_bump)


# --- compiled expressions --------------------------------------------------

# Rows per tape operation.  A product of k prefixes and k atoms at B points
# runs as one Jet3 product of k B rows, whose largest operand gather has
# k B x ``SymIndex.gather`` entries (at the triples at order 3, at the pairs
# at order 2); an atom's function gathers as much.  Kept within 2^14 entries
# (128 KiB), a gather stays below the C allocator's threshold for fresh
# pages from the kernel: above it, a 72-row order-3 product at n = 8 cost
# about twice as much per row as a 36-row one.  A slice then holds 113
# products at n = 8 and 2 points (order 2), 12 in grid4d's batches of 64
# points (n = 4, order 2) and 8 in chart3d's of 67 (n = 3, order 3).
_GATHER_ENTRIES = 2 ** 14

# The quotient of this jet by a constant c is the factor 1/c by which Jet3
# divides, or the error ``exprs.apply`` raises when c is 0.
_UNIT = Jet3.constant(1.0, 0)


class _Sums:
    """Sums of terms, each a coefficient times a row of the tape's table (a
    product) or a lone coefficient (a constant, added to the value slot
    alone).  :meth:`run` adds each sum's terms in source order, element by
    element: position t adds the t-th term of every sum that has one."""

    def __init__(self, sums, slot):
        self.count = len(sums)
        columns = []  # per position: sums, coefficients and rows of its products,
        #               then sums and coefficients of its constants
        for s, terms in enumerate(sums):
            for t, (c, p) in enumerate(terms):
                if t == len(columns):
                    columns.append(([], [], [], [], []))
                at = columns[t]
                if p:
                    at[0].append(s)
                    at[1].append(c)
                    at[2].append(slot[p])
                else:
                    at[3].append(s)
                    at[4].append(c)
        self.positions = [(np.array(s, dtype=np.intp), np.array(c).reshape(-1, 1, 1),
                           np.array(r, dtype=np.intp), np.array(cs, dtype=np.intp),
                           np.array(cc).reshape(-1, 1)) for s, c, r, cs, cc in columns]

    def run(self, rows) -> np.ndarray:
        """The sums' rows, (count, B, width), from the table ``rows``."""
        out = np.zeros((self.count,) + rows.shape[1:])
        for t, (sums, coefs, slots, csums, ccoefs) in enumerate(self.positions):
            if t:
                out[sums] += coefs * rows[slots]
            else:  # set, not added to zeros, which would make a -0.0 term 0.0
                out[sums] = coefs * rows[slots]
            if len(csums):  # constants are rare
                out[csums, :, 0] = out[csums, :, 0] + ccoefs if t else ccoefs
        return out


def _apply(op, jet: Jet3) -> Jet3:
    """An atom's operation on the jet of its argument: a sum inside a
    product is its argument, an int is a power, a name a Jet3 method."""
    if op == "sum":
        return jet
    return jet ** op if type(op) is int else getattr(jet, op)()


class JetTape:
    """Expression text compiled once into shared, batched jet products.

    The compiler reads each entry as a sum of terms, a term as a constant
    times a product of atoms, in the parse itself: ``exprs.parse_expr``
    hands each reduction to the tape's :class:`~lcwcheck.exprs.Builder`,
    so no tree is built.  An atom is a coordinate or any other subterm:
    a function call, the reciprocal of a divisor, a power (raised by
    ``Jet3.__pow__``, as ``exprs.evaluate`` raises it) or a sum inside a
    product.  Each atom's argument is compiled the same way, and each
    atom, keyed by its operation and argument terms, is compiled once and
    shared by every entry that uses it, like each distinct product of
    atoms.  Subterms without coordinates fold to floats with
    ``exprs.apply``, as ``exprs.evaluate`` computes them; ``x / c`` is x
    times the factor 1/c by which :class:`Jet3` divides.  A fold that
    fails is kept, and :meth:`run` raises its ``EvalError``: a constant
    domain error is an evaluation error, not a parse error.  An atom's
    operation is applied by :func:`_apply`, which maps it to its
    :class:`Jet3` method without an offset, since an atom stands for
    subterms at many offsets.

    :meth:`run` fills one table of rows.  Atoms and products have a level:
    0 for the coordinates and their products, one more than the highest
    atom of its argument for another atom, the highest of its atoms for a
    product.  Level by level, it applies each operation once to the
    arguments of all its atoms of the level, then forms the level's
    products degree by degree, each one :class:`Jet3` product of its
    prefix (its atoms but the last, in atom order) and its last atom.
    Each entry's row is then its terms' coefficients times their product
    rows, added in source order, element by element (:class:`_Sums`).
    Every operation acts row by row, so a row of a batch has the bits of
    its point alone; floats differ from ``exprs.evaluate``'s by
    reassociation, ``c*x1*x2`` being ``c*(x1*x2)`` here.
    """

    def __init__(self, coordinates, sources):
        self.n = n = len(coordinates)
        var = {name: (1.0, (k,)) for k, name in enumerate(coordinates)}
        keys = {}                 # (operation, argument terms) -> atom; the
        #                           coefficients by their bits, as -0.0 == 0.0
        args = []                 # per atom n, n + 1, ...: (operation, argument terms)
        level = [0] * n           # per atom
        self.error = None

        def atom(op, terms):
            key = (op, tuple(p for _, p in terms), array("d", [c for c, _ in terms]).tobytes())
            a = keys.setdefault(key, n + len(args))
            if a == n + len(args):
                args.append((op, terms))
                level.append(1 + max((level[b] for _, p in terms for b in p), default=0))
            return a

        def as_terms(x):
            """A float, a term or terms as a list of terms of its own."""
            return [(x, ())] if type(x) is float else [x] if type(x) is tuple else x

        def factor(x):
            """A float, a term or terms as one term: a sum of several is an atom."""
            if type(x) is list:
                return x[0] if len(x) == 1 else (1.0, (atom("sum", x),))
            return (x, ()) if type(x) is float else x

        def fold(op, pos, *operands):
            """The operation on floats; one that fails is NaN here, and the
            first such error is kept for :meth:`run` to raise."""
            try:
                return exprs.apply(op, pos, operands)
            except exprs.EvalError as exc:
                self.error = self.error or exc.with_traceback(None)
                return math.nan

        # the reductions: each value is a float, a term or a list of terms of its own

        def negation(pos, x):
            return -x if type(x) is float else [(-c, p) for c, p in as_terms(x)]

        def call(pos, func, x):
            return fold(func, pos, x) if type(x) is float else (1.0, (atom(func, as_terms(x)),))

        def power(pos, x, exponent):
            if type(x) is float:
                return fold(exponent, pos, x)
            return 1.0, (atom(exponent, as_terms(x)),)

        def binary(pos, op, x, y):
            if type(x) is float and type(y) is float:
                return fold(op, pos, x, y)
            if op in "+-":
                x, y = as_terms(x), as_terms(y)
                x.extend(y if op == "+" else [(-c, p) for c, p in y])
                return x
            c, p = factor(x)
            if op == "*":
                d, q = factor(y)
            elif type(y) is float:
                d, q = fold("/", pos, _UNIT, y), ()
                d = d if type(d) is float else float(d.value[0])
            else:
                d, q = 1.0, (atom("reciprocal", as_terms(y)),)
            return c * d, tuple(sorted(p + q))

        terms = exprs.Builder(lambda pos, value: value, lambda pos, name: var[name],
                              negation, call, power, binary)
        self.terms = [as_terms(exprs.parse_expr(source, coordinates, terms))
                      for source in sources]

        # every product of two or more atoms, with every prefix, at its level
        products = {}
        for terms in (*self.terms, *(t for _, t in args)):
            for _, p in terms:
                while len(p) > 1 and p not in products:
                    products[p] = max(level[a] for a in p)
                    p = p[:-1]

        # the table: the coordinates, then per level its atoms by operation and
        # its products by degree, each operation's rows contiguous
        slot = {(a,): a for a in range(n)}
        self.steps = []           # (operation, first row, its operands)
        for lv in range(1 + max(level, default=0)):
            ops = {}
            for a in range(n, len(level)):
                if level[a] == lv:
                    ops.setdefault(args[a - n][0], []).append(a)
            for op, group in ops.items():
                self.steps.append((op, len(slot), _Sums([args[a - n][1] for a in group], slot)))
                slot.update({(a,): len(slot) + k for k, a in enumerate(group)})
            degrees = {}
            for p, at in products.items():
                if at == lv:
                    degrees.setdefault(len(p), []).append(p)
            for _, group in sorted(degrees.items()):
                self.steps.append(("*", len(slot), (
                    np.array([slot[p[:-1]] for p in group], dtype=np.intp),
                    np.array([slot[p[-1:]] for p in group], dtype=np.intp))))
                slot.update({p: len(slot) + k for k, p in enumerate(group)})
        self.size = len(slot)
        self.entries = _Sums(self.terms, slot)

    def run(self, variables) -> np.ndarray:
        """The entries' jet rows at the coordinate jets ``variables``, batched
        over the same B points, in the coordinates as variables or in none
        (plain values): one (B, width, entries) array, an entry without
        coordinates as constant rows, its value and then zeros.  A constant
        subterm that failed to fold raises its ``EvalError``."""
        if self.error:
            raise exprs.EvalError(self.error.message, self.error.pos)
        nvars = variables[0].n
        seeds = np.stack([v.data for v in variables])
        size, width = seeds.shape[1:]
        # in no variables a product gathers nothing: up to _GATHER_ENTRIES lanes per op
        lanes = max(1, _GATHER_ENTRIES // (variables[0].index.gather * size or 1))
        rows = np.empty((self.size, size, width))
        rows[:self.n] = seeds
        for op, start, operands in self.steps:
            if op == "*":
                left, right = operands
                for lo in range(0, len(left), lanes):
                    hi = min(lo + lanes, len(left))
                    a, b = (Jet3(nvars, rows[s[lo:hi]].reshape(-1, width)) for s in (left, right))
                    rows[start + lo:start + hi] = (a * b).data.reshape(-1, size, width)
                continue
            sums = operands.run(rows)
            for lo in range(0, len(sums), lanes):
                hi = min(lo + lanes, len(sums))
                jet = Jet3(nvars, sums[lo:hi].reshape(-1, width))
                rows[start + lo:start + hi] = _apply(op, jet).data.reshape(-1, size, width)
        return self.entries.run(rows).transpose(1, 2, 0)


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
