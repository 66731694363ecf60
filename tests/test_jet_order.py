"""Order-2 jets are the leading slots of order-3 jets, bit for bit.

The row width sets a jet's order: ``SymIndex(n, 2)`` rows hold the value,
gradient and packed Hessian, ``SymIndex(n, 3)`` rows add the packed third
derivatives.  No value, gradient or Hessian slot of an order-3 operation
reads a third slot, so every operation, the compiled tape and
``metric_jets`` give order-2 rows with exactly the bits of the first slots
of their order-3 rows, and the same errors.
"""

import operator
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lcwcheck.exprs import FUNCTIONS
from lcwcheck.jets import Jet3, JetTape, SymIndex, jet_environment, metric_jets
from lcwcheck.metrics import coordinate_metric

from oracles import eval_expr, to_source
from test_exprs import _trees

BATCHES = [1, 7]


def _bits(x) -> bytes:
    """The bytes of a float array, every NaN made the same one."""
    a = np.array(x, dtype=float)
    a[np.isnan(a)] = np.nan
    return a.tobytes()


def _leading(jet2, jet3) -> bool:
    """Whether ``jet2`` is an order-2 jet with the bits of ``jet3``'s first slots."""
    if not isinstance(jet3, Jet3):
        return type(jet2) is float and _bits(jet2) == _bits(jet3)
    width = SymIndex(jet3.n, 2).width
    return (isinstance(jet2, Jet3) and (jet2.order, jet3.order) == (2, 3)
            and jet2.third.shape == (len(jet3.data), 0)
            and _bits(jet2.data) == _bits(jet3.data[:, :width]))


def _outcome(f, *operands):
    """``f(*operands)``, or the type and message of the error it raises."""
    try:
        with np.errstate(all="ignore"):
            return f(*operands)
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


def test_the_order_sets_the_row_layout():
    for n in range(1, 9):
        two, three = SymIndex(n, 2), SymIndex(n, 3)
        assert two.width == 1 + n + n * (n + 1) // 2
        assert three.width == two.width + n * (n + 1) * (n + 2) // 6
        assert two.third == slice(two.width, two.width)
        assert (two.grad, two.hess) == (three.grad, three.hess)
        assert SymIndex(n).width == three.width
        for order in (2, 3):
            assert Jet3.constant(0.5, n, order).order == order
            assert Jet3.variable(n - 1, [0.1, 0.2], n, order).data.shape == (
                2, SymIndex(n, order).width)
    with pytest.raises(ValueError, match="order must be 2 or 3"):
        SymIndex(3, 4)
    with pytest.raises(ValueError, match="different variable counts or orders"):
        Jet3.variable(0, 0.5, 3, 2) * Jet3.variable(0, 0.5, 3, 3)
    with pytest.raises(ValueError, match="different variable counts or orders"):
        Jet3.variable(0, 0.5, 3, 2) + Jet3.variable(0, 0.5, 2, 3)  # both ten slots wide


def _unary(rows):
    """Every grammar function, integer powers of each sign and zero, the
    reciprocal, and a constant operand on either side of each binary
    operator: a float, a signed zero, or ``rows``, one float per row."""
    ops = (operator.add, operator.sub, operator.mul, operator.truediv)
    constants = [0.7, -2.5, 0.0, -0.0, rows]
    return ([operator.neg, Jet3.reciprocal] + [operator.methodcaller(f) for f in FUNCTIONS]
            + [lambda a, k=k: a ** k for k in (-3, -2, -1, 0, 1, 2, 5)]
            + [lambda a, op=op, c=c: op(a, c) for op in ops for c in constants]
            + [lambda a, op=op, c=c: op(c, a) for op in ops for c in constants])


def _same_outcome(got, want) -> bool:
    return _leading(got, want) if isinstance(want, Jet3) else got == want


@pytest.mark.parametrize("batch", BATCHES)
@pytest.mark.parametrize("n", range(1, 9))
def test_operations_keep_the_leading_slots(n, batch):
    """Random order-3 rows, every slot filled, and their order-2 leading
    slots: each operation's order-2 result is the order-3 result's leading
    slots, or the same error, so no third slot reaches a lower one."""
    rng = np.random.default_rng(100 * n + batch)
    width = SymIndex(n, 2).width

    def operands(low, high):
        data = rng.uniform(-1.0, 1.0, (batch, SymIndex(n, 3).width))
        data[:, 0] = rng.uniform(low, high, batch)
        return Jet3(n, data[:, :width].copy()), Jet3(n, data)

    a = operands(0.2, 0.9)    # inside every function's domain, bump's support too
    b = operands(-1.5, 1.5)   # either sign: some logs, roots and bumps fail or vanish
    z = operands(0.0, 0.0)    # zero values: every division by them fails
    for f in _unary(np.linspace(-1.5, 2.5, batch) + 0.25):
        for two, three in (a, b, z):
            assert _same_outcome(_outcome(f, two), _outcome(f, three))
    for f in (operator.add, operator.sub, operator.mul, operator.truediv):
        for x, y in ((a, b), (b, a), (a, z), (z, a)):
            assert _same_outcome(_outcome(f, x[0], y[0]), _outcome(f, x[1], y[1]))


def _function_entry(n: int, i: int, j: int) -> str:
    """Entry (i, j) of a metric on x1..xn with every grammar function on the
    diagonal, division and powers of each sign and zero off it, and a
    constant entry when n > 2."""
    a, b = f"x{i + 1}", f"x{(i + 1) % n + 1}"
    if i == j:
        return f"2+0.2*{FUNCTIONS[i % len(FUNCTIONS)]}(0.5+0.2*{a}-0.1*{b}^2)"
    if (i, j) == (0, n - 1) and n > 2:
        return "0.01"
    return f"0.02*{a}*(2+x{j + 1})^-2*{b}^0-0.01*{a}^3/(3-x{j + 1})"


@pytest.mark.parametrize("batch", BATCHES)
@pytest.mark.parametrize("n", range(1, 9))
def test_the_tape_keeps_the_leading_slots(n, batch):
    coords = [f"x{k + 1}" for k in range(n)]
    sources = [_function_entry(n, i, j) for i, j in SymIndex(n).pairs]
    tape = JetTape(coords, sources)
    points = np.random.default_rng(n).uniform(-0.9, 0.9, (batch, n))
    two, three = (tape.run(list(jet_environment(coords, points, order).values()))
                  for order in (2, 3))
    assert two.shape[-1] == three.shape[-1] == len(sources)
    for k in range(len(sources)):
        assert _leading(Jet3(n, two[..., k]), Jet3(n, three[..., k]))


@pytest.mark.parametrize("batch", BATCHES)
@pytest.mark.parametrize("n", range(3, 9))
def test_metric_jets_of_order_2_are_those_of_order_3_without_d3g(n, batch):
    spec = coordinate_metric(n, lambda i, j: _function_entry(n, i, j))
    points = np.random.default_rng(n).uniform(-0.9, 0.9, (batch, n))
    two, three = metric_jets(spec, points, 2), metric_jets(spec, points, 3)
    assert two.d3g is None and three.d3g.shape == (batch,) + (n,) * 5
    for name in ("g", "dg", "d2g"):
        assert _bits(getattr(two, name)) == _bits(getattr(three, name)), name
    assert _bits(metric_jets(spec, points).d3g) == _bits(three.d3g)  # order 3 by default


_COORDS = ("x1", "x2", "x3")


@settings(max_examples=200, deadline=None)
@given(_trees, st.lists(st.tuples(*[st.floats(-2.0, 2.0)] * 3), min_size=1, max_size=4))
def test_random_trees_keep_the_leading_slots(tree, points):
    """The expression walk and the compiled tape at order 2 give the leading
    slots of their order-3 results, or the same error."""
    envs = [jet_environment(_COORDS, np.array(points), order) for order in (2, 3)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        walk = [_outcome(eval_expr, tree, env) for env in envs]
        tape = _outcome(JetTape, _COORDS, [to_source(tree)])
        if isinstance(tape, JetTape):
            ran = [_outcome(lambda env: Jet3(3, tape.run([env[c] for c in _COORDS])[..., 0]), env)
                   for env in envs]
            assert _same_outcome(*ran)
    assert _same_outcome(*walk)
