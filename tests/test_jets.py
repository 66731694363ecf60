import math
import operator

import numpy as np
import pytest

from lcwcheck.exprs import FUNCTIONS, eval_expr, parse_expr
from lcwcheck.genericity import random_polynomial_metric
from lcwcheck.jets import Jet3, MetricNotPositive, SymIndex, metric_jets
from lcwcheck.metrics import (euclidean_metric, make_metric, parse_metric,
                              sphere_stereographic_metric)
from lcwcheck.perturb import AlgebraicCurvature, perturb_curvature

from oracles import (domain_points, fd_gradient, fd_hessian, fd_third, float_metric,
                     hess_matrix, scattered_metric_jets, third_tensor)


def test_packed_index_bijections():
    for n in (1, 2, 3, 5, 8):
        ix = SymIndex(n)
        assert len(ix.pairs) == n * (n + 1) // 2
        assert len(ix.triples) == n * (n + 1) * (n + 2) // 6
        seen = {ix.idx2[i, j] for i in range(n) for j in range(n)}
        assert seen == set(range(ix.npairs))
        assert all(ix.idx2[i, j] == ix.idx2[j, i] for i in range(n) for j in range(n))
        seen3 = {ix.idx3[i, j, k] for i in range(n) for j in range(n) for k in range(n)}
        assert seen3 == set(range(ix.ntriples))


def test_no_variables_index_shapes():
    ix = SymIndex(0)
    assert (ix.width, ix.npairs, ix.ntriples) == (1, 0, 0)
    assert ix.grad == ix.hess == ix.third == slice(1, 1)
    assert ix.idx2.shape == (0, 0) and ix.idx3.shape == (0, 0, 0)
    assert ix.pair_ij.shape == (2, 0)
    assert ix.triple_ijk.shape == ix.triple_hess.shape == (3, 0)


def test_variable_seeds():
    jet = Jet3.variable(0, 0.5, 2)
    assert np.array_equal(jet.value, [0.5])
    assert np.array_equal(jet.grad, [[1.0, 0.0]])
    assert not jet.hess.any() and not jet.third.any()

    jet = Jet3.variable(1, -2.0, 3)
    assert np.array_equal(jet.value, [-2.0])
    assert np.array_equal(jet.grad, [[0.0, 1.0, 0.0]])

    with pytest.raises(IndexError):
        Jet3.variable(3, 0.0, 3)


def test_sum_of_variables_is_linear():
    n = 4
    total = sum((Jet3.variable(k, 0.1 * k, n) for k in range(n)), Jet3.constant(0.0, n))
    assert np.array_equal(total.grad, np.ones((1, n)))
    assert not total.hess.any() and not total.third.any()


def test_product_examples():
    x = Jet3.variable(0, 3.0, 1)
    sq = x * x
    assert (sq.value[0], sq.grad[0, 0], sq.hess[0, 0], sq.third[0, 0]) == (9.0, 6.0, 2.0, 0.0)

    x = Jet3.variable(0, 1.0, 2)
    y = Jet3.variable(1, 2.0, 2)
    xy = x * y
    assert np.array_equal(xy.value, [2.0])
    assert np.array_equal(xy.grad, [[2.0, 1.0]])
    assert hess_matrix(xy)[0, 0, 1] == 1.0
    assert hess_matrix(xy)[0, 0, 0] == hess_matrix(xy)[0, 1, 1] == 0.0
    assert not xy.third.any()


def test_cube_of_sum():
    x = Jet3.variable(0, 1.0, 2)
    y = Jet3.variable(1, 1.0, 2)
    cube = (x + y) ** 3
    assert cube.value == 8.0
    assert np.allclose(cube.grad, 12.0)
    assert np.allclose(cube.hess, 12.0)
    assert np.allclose(cube.third, 6.0)

    def f(p):
        return (p[0] + p[1]) ** 3

    pt = np.array([1.0, 1.0])
    assert np.allclose(cube.grad, fd_gradient(f, pt), rtol=1e-6)
    assert np.allclose(hess_matrix(cube), fd_hessian(f, pt), rtol=1e-6)
    assert np.allclose(third_tensor(cube), fd_third(f, pt), rtol=1e-6)


def test_compose_taylor_tables():
    e = Jet3.variable(0, 0.0, 1).exp()
    assert np.allclose([e.value[0], e.grad[0, 0], e.hess[0, 0], e.third[0, 0]], 1.0)
    s = Jet3.variable(0, 0.0, 1).sin()
    assert np.allclose([s.value[0], s.grad[0, 0], s.hess[0, 0], s.third[0, 0]], [0, 1, 0, -1])


def test_bump_taylor_coefficients_at_zero_are_exact():
    b = Jet3.variable(0, 0.0, 1).bump()
    assert (b.value[0], b.grad[0, 0], b.hess[0, 0], b.third[0, 0]) == (1.0, -1.0, -1.0, -1.0)


def test_bump_jets_are_exact_zeros_from_one_on():
    for s in (1.0, 1.25, 1e300, math.inf):
        assert _slots(Jet3.variable(0, s, 2).bump()) == _slots(Jet3.constant(0.0, 2)), s
    s = np.array([1.0, 2.0, math.inf])
    assert _slots(Jet3.variable(1, s, 2).bump()) == _slots(Jet3.constant(np.zeros(3), 2))


def test_bump_jets_are_finite_up_to_the_edge_of_the_support():
    s = np.append(np.linspace(0.99, 1.0, 2001), math.nextafter(1.0, 0.0))
    b = Jet3.variable(0, s, 2).bump()
    assert all(np.isfinite(slot).all() for slot in (b.value, b.grad, b.hess, b.third))
    near = 1.0 - s <= 1e-3
    assert near.sum() > 200 and not b.value[near].any() and not b.third[near].any()
    assert b.value[0] > 0 and b.third[0, 0] != 0  # exp(-99) at s = 0.99


def test_bump_jets_propagate_nan():
    b = Jet3.variable(0, math.nan, 2).bump()
    assert all(np.isnan(slot).all() for slot in (b.value, b.grad, b.hess, b.third))


def test_log_composition_vs_fd():
    ast = parse_expr("log(1+x1^2)", ("x1",))
    jet = eval_expr(ast, {"x1": Jet3.variable(0, 0.3, 1)})

    def f(p):
        return np.log(1 + p[0] ** 2)

    pt = np.array([0.3])
    assert jet.grad[0, 0] == pytest.approx(fd_gradient(f, pt)[0], rel=1e-6)
    assert jet.hess[0, 0] == pytest.approx(fd_hessian(f, pt)[0, 0], rel=1e-6)
    assert jet.third[0, 0] == pytest.approx(fd_third(f, pt)[0, 0, 0], rel=1e-6)


def test_division_and_negative_powers():
    x = Jet3.variable(0, 2.0, 1)
    inv = 1.0 / x
    assert np.array_equal(inv.value, [0.5])
    assert inv.grad[0, 0] == -0.25
    assert np.array_equal((x ** -2).value, [0.25])
    assert np.array_equal((x ** 0).value, [1.0])
    with pytest.raises(ZeroDivisionError):
        Jet3.variable(0, 0.0, 1).reciprocal()
    with pytest.raises(TypeError):
        x ** 0.5


@pytest.mark.parametrize("v", [0.37, -2.5e-7, 7.3e76, 1e-60])
def test_taylor_coefficients_in_the_float_range_are_the_plain_quotients(v):
    r = Jet3.variable(0, v, 1).reciprocal()
    assert [r.value[0], r.grad[0, 0], r.hess[0, 0], r.third[0, 0]] == [
        1.0 / v, -1.0 / v**2, 2.0 / v**3, -6.0 / v**4]
    if v > 0:
        lg = Jet3.variable(0, v, 1).log()
        assert [lg.value[0], lg.grad[0, 0], lg.hess[0, 0], lg.third[0, 0]] == [
            math.log(v), 1.0 / v, -1.0 / v**2, 2.0 / v**3]
        s = math.sqrt(v)
        sq = Jet3.variable(0, v, 1).sqrt()
        assert [sq.value[0], sq.grad[0, 0], sq.hess[0, 0], sq.third[0, 0]] == [
            s, 0.5 / s, -0.25 / (v * s), 0.375 / (v * v * s)]
    if abs(v) < 1e50:
        d = 1.0 / (1.0 + v * v)
        at = Jet3.variable(0, v, 1).atan()
        assert [at.value[0], at.grad[0, 0], at.hess[0, 0], at.third[0, 0]] == [
            math.atan(v), d, -2.0 * v * d * d, (6.0 * v * v - 2.0) * d**3]


# f(k a), rescaled to f(a): log(k a) - log k, k / (k a) and sqrt(k a) / sqrt(k)
_SCALED_FUNCTIONS = {
    "log": lambda a, k: a.log() - math.log(k),
    "reciprocal": lambda a, k: a.reciprocal() * k,
    "sqrt": lambda a, k: a.sqrt() * (1.0 / math.sqrt(k)),
}


@pytest.mark.parametrize("k", [2e200, 1e-200, 3e120, 1e-110, 1e300])
@pytest.mark.parametrize("name", sorted(_SCALED_FUNCTIONS))
def test_a_function_of_a_scaled_argument_has_the_jets_of_the_unscaled_one(name, k):
    """At k = 2e200, log's f'' = -1/v**2 underflows to 0 and the powers of v
    in 1/v's coefficients overflow, while the derivatives of f(k a) are
    those of f(a) up to a factor: the chain rule takes a' / v there, not a
    coefficient of 0 (or a domain error) times a power of k a'."""
    f = _SCALED_FUNCTIONS[name]
    points = np.array([[0.0, 0.0, 0.0], [0.3, -0.2, 0.7], [-0.9, 0.4, 0.1]])
    x = [Jet3.variable(i, points[:, i], 3) for i in range(3)]
    a = x[0] + x[1] * x[2] + 2.0 + (x[0] * x[1]).sin()
    plain = f(a, 1.0)
    assert np.abs(plain.hess).max() > 0.1 and np.abs(plain.third).max() > 0.1
    scaled = f(a * k, k)
    np.testing.assert_allclose(scaled.data[:, 1:], plain.data[:, 1:], rtol=1e-14, atol=1e-15)
    np.testing.assert_allclose(scaled.value, plain.value, rtol=1e-14, atol=1e-12)  # log k - log k


@pytest.mark.parametrize("k", [1e60, 2e200, 1e300])
def test_atan_of_a_scaled_argument_has_the_jets_of_its_complement(k):
    """atan(v) = pi/2 - atan(1/v) for v > 0.  Past |v| = 1.4e51 the powers of
    1/(1 + v^2) in atan's coefficients underflow, while 1/v is in range."""
    x = [Jet3.variable(i, np.array([0.0, 0.3, -0.4]), 3) for i in range(3)]
    a = (x[0] + x[1] * x[2] + 2.0) * k
    far, near = a.atan(), -(a.reciprocal().atan())
    assert np.abs(near.hess).max() > 0.1 / k
    np.testing.assert_allclose(far.data[:, 1:], near.data[:, 1:], rtol=1e-14, atol=0)
    assert np.array_equal(far.value, np.full(3, math.pi / 2))


def test_out_of_range_rows_keep_their_batch_in_bits():
    """A batch that mixes rows in and out of the float range gives each row
    the bits of its batch of one."""
    k = np.array([0.4, 2e200, 1.5, 1e-200, 7.0, 3e120])
    x = [Jet3.variable(i, np.linspace(0.1, 0.6, 6) * (1 + i), 3) for i in range(3)]
    a = (x[0] + x[1] * 0.5 + x[2] * x[2] + 1.0) * k
    for name in ("reciprocal", "log", "sqrt", "atan"):
        jet = getattr(a, name)()
        assert np.isfinite(jet.data).all()
        for b in range(len(k)):
            assert _slots(_row(jet, b)) == _slots(getattr(_row(a, b), name)()), (name, b)


def _slots(jet) -> bytes:
    return b"".join(np.asarray(getattr(jet, s), dtype=float).tobytes()
                    for s in ("value", "grad", "hess", "third"))


def _row(jet, k) -> Jet3:
    """Row ``k`` of a batched jet, as a batch of one."""
    return Jet3(jet.n, jet.data[[k]])


def _batched_jet() -> Jet3:
    points = np.random.default_rng(5).uniform(0.2, 1.0, size=(5, 3))
    x = [Jet3.variable(k, points[:, k], 3) for k in range(3)]
    return (x[0] * x[1] + x[2]).sin() / x[0]


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul, operator.truediv])
def test_a_constant_per_row_acts_as_that_rows_float(op):
    jet = _batched_jet()
    c = np.array([-3.25, 0.5, -0.0, 7.0, 0.0])
    divisor = c + (c == 0)  # jet / c takes no zero
    right, left = op(jet, divisor if op is operator.truediv else c), op(c, jet)
    assert isinstance(right, Jet3) and isinstance(left, Jet3)
    for k in range(len(c)):
        row = _row(jet, k)
        want_right = op(row, float(divisor[k] if op is operator.truediv else c[k]))
        assert _slots(_row(right, k)) == _slots(want_right), k
        assert _slots(_row(left, k)) == _slots(op(float(c[k]), row)), k


def test_a_zero_constant_in_any_row_is_a_division_by_zero():
    jet = _batched_jet()
    for c in (np.array([1.0, 2.0, 0.0, 3.0, 4.0]), np.array([-0.0, 1.0, 1.0, 1.0, 1.0])):
        with pytest.raises(ZeroDivisionError):
            jet / c


def test_numpy_scalars_defer_to_the_jet():
    for jet in (Jet3.variable(0, 0.5, 2), _batched_jet()):
        got = np.float64(2.0) * jet
        assert isinstance(got, Jet3) and _slots(got) == _slots(2.0 * jet)


def _outcome(f, *operands):
    """The value slot's bytes of ``f(*operands)``, or the error it raises."""
    try:
        jet = f(*operands)
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)
    assert jet.data.shape == (len(jet.data), SymIndex(jet.n).width)
    return jet.value.tobytes()


_UNARY = ([operator.neg] + [lambda a, k=k: a ** k for k in (-3, -1, 0, 1, 2, 5)]
          + [operator.methodcaller(f) for f in FUNCTIONS]
          + [lambda a, op=op, c=c: op(a, c) for op in (operator.add, operator.sub, operator.mul,
                                                         operator.truediv)
             for c in (0.7, -2.5, 0.0, np.array([0.3, -1.0, 2.0, 0.5, 1.5, -0.0]))]
          + [lambda a, op=op: op(1.5, a) for op in (operator.add, operator.sub, operator.mul,
                                                     operator.truediv)])
_BINARY = [operator.add, operator.sub, operator.mul, operator.truediv]


@pytest.mark.parametrize("values", [
    [0.3, 0.7, 0.05, 0.95, 0.5, 0.2],        # every operation succeeds
    [0.4, -0.6, 1.5, -3.0, 0.999, 2.5],      # negative logs and square roots, bumps past 1
    [0.0, 0.5, -0.0, 1.0, -1e-160, 1e160]])  # zero divisors, overflowing coefficients
def test_a_jet_in_no_variables_is_the_value_slot(values):
    """Every operation on jets in no variables gives the value slot of the
    same operation in n variables, bit for bit, and the same errors."""
    rng = np.random.default_rng(13)
    values = np.array(values)
    other = np.roll(values, 1) + 0.25
    for n in (1, 3):
        def seeded(v):
            data = rng.uniform(-1.0, 1.0, (len(v), SymIndex(n).width))
            data[:, 0] = v
            return Jet3(n, data)

        a, b = seeded(values), seeded(other)
        a0, b0 = Jet3.constant(values, 0), Jet3.constant(other, 0)
        with np.errstate(all="ignore"):  # derivative slots may overflow; values are compared
            for f in _UNARY:
                assert _outcome(f, a0) == _outcome(f, a)
            for f in _BINARY:
                assert _outcome(f, a0, b0) == _outcome(f, a, b)
                assert _outcome(f, b0, a0) == _outcome(f, b, a)


def test_ring_axioms_at_roundoff():
    rng = np.random.default_rng(17)
    n = 3
    ix = SymIndex(n)

    def random_jet():
        return Jet3(n, np.concatenate([rng.uniform(-1, 1, (1, 1)), rng.uniform(-1, 1, (1, n)),
                                       rng.uniform(-1, 1, (1, ix.npairs)),
                                       rng.uniform(-1, 1, (1, ix.ntriples))], axis=1))

    def slots(j):
        return np.concatenate([j.value, j.grad[0], j.hess[0], j.third[0]])

    for _ in range(50):
        a, b, c = random_jet(), random_jet(), random_jet()
        assert np.allclose(slots(a * b), slots(b * a), rtol=1e-12, atol=1e-12)
        assert np.allclose(slots((a * b) * c), slots(a * (b * c)), rtol=1e-12, atol=1e-12)
        assert np.allclose(slots(a * (b + c)), slots(a * b + a * c), rtol=1e-12, atol=1e-12)


def test_grammar_expressions_vs_fd_property():
    rng = np.random.default_rng(23)
    coords = ("x1", "x2", "x3")
    sources = ["sin(x1)*exp(0.5*x2)+x3^3", "sqrt(4+x1*x2)", "atan(x1-x2^2)/(2+x3)",
               "cos(x1*x2*x3)", "exp(sin(x1)+cos(x2))", "1/(1+x1^2+x2^2+x3^2)",
               "bump(x1^2+x2^2/2+x3^2/3)"]
    for source in sources:
        ast = parse_expr(source, coords)
        pt = rng.uniform(-0.6, 0.6, size=3)
        env = {c: Jet3.variable(k, pt[k], 3) for k, c in enumerate(coords)}
        jet = eval_expr(ast, env)

        def f(p, ast=ast):
            return eval_expr(ast, dict(zip(coords, p)))

        for got, want in ((jet.grad[0], fd_gradient(f, pt)),
                          (hess_matrix(jet)[0], fd_hessian(f, pt)),
                          (third_tensor(jet)[0], fd_third(f, pt))):
            mask = np.abs(want) > 1e-8
            assert np.allclose(got[mask], want[mask], rtol=1e-6)


def test_metric_jets_euclidean():
    mj = metric_jets(euclidean_metric(4), [0.3, -0.2, 0.0, 0.9])
    assert len(mj) == 1 and mj.g.shape == (1, 4, 4)  # one point is a batch of one
    assert np.array_equal(mj.g[0], np.eye(4))
    assert not mj.dg.any() and not mj.d2g.any() and not mj.d3g.any()


def test_metric_jets_polynomial_entry():
    spec = parse_metric(
        '{"dimension": 3, "coordinates": ["x1", "x2", "x3"],'
        ' "g": [["1+x1^2", "0", "0"], [null, "1", "0"], [null, null, "1"]],'
        ' "domain": {"x1": [0.5, 2.0]}}')
    mj = metric_jets(spec, [1.0, 0.0, 0.0])
    assert mj.dg[0, 0, 0, 0] == 2.0
    assert mj.d2g[0, 0, 0, 0, 0] == 2.0
    assert not mj.d3g.any()


def test_metric_jets_sphere_vs_fd():
    spec = sphere_stereographic_metric(4)
    pt = np.array([0.1, 0.2, 0.0, 0.0])
    mj = metric_jets(spec, pt)
    g_at = float_metric(spec)
    for i in range(4):
        for j in range(4):
            def f(p, i=i, j=j):
                return g_at(p)[i, j]

            grad = fd_gradient(f, pt)
            hess = fd_hessian(f, pt)
            third = fd_third(f, pt)
            assert np.allclose(mj.dg[0, :, i, j], grad, rtol=1e-6, atol=1e-8)
            assert np.allclose(mj.d2g[0, :, :, i, j], hess, rtol=1e-6, atol=1e-7)
            assert np.allclose(mj.d3g[0, :, :, :, i, j], third, rtol=1e-6, atol=1e-5)


def test_bump_metric_jets_vs_fd_inside_the_support():
    rstar = AlgebraicCurvature.random(3, np.random.default_rng(4), scale=0.05)
    spec = perturb_curvature(rstar, radius=0.8)
    g_at = float_metric(spec)
    for pt in (np.array([0.3, -0.2, 0.1]), np.array([-0.1, 0.45, 0.35])):
        mj = metric_jets(spec, pt)
        for i, j in SymIndex(3).pairs:
            def f(p, i=i, j=j):
                return g_at(p)[i, j]

            assert np.allclose(mj.dg[0, :, i, j], fd_gradient(f, pt), rtol=1e-6, atol=1e-10)
            assert np.allclose(mj.d2g[0, :, :, i, j], fd_hessian(f, pt), rtol=1e-6, atol=1e-9)
            assert np.allclose(mj.d3g[0, :, :, :, i, j], fd_third(f, pt), rtol=1e-5,
                               atol=1e-7)


def _metric_for_gather(case):
    if case.startswith("poly"):
        n = int(case[4:])
        return random_polynomial_metric(n, np.random.default_rng(n))
    if case == "constant-off-diagonal":
        return parse_metric(
            '{"dimension": 3, "coordinates": ["x", "y", "z"],'
            ' "g": [["2+sin(x)*y", "0.25", "-0.5"], [null, "exp(y/3)", "0"],'
            ' [null, null, "1+z^2"]]}')
    return perturb_curvature(AlgebraicCurvature(4, np.zeros((4,) * 4)))  # all constants


@pytest.mark.parametrize("case", [f"poly{n}" for n in range(3, 9)]
                         + ["constant-off-diagonal", "flat"])
def test_metric_jets_gather_equals_the_entrywise_scatter(case):
    spec = _metric_for_gather(case)
    points = domain_points(spec, 5, np.random.default_rng(11))
    for batch in (points[:1], points):
        mj = metric_jets(spec, batch)
        fields = (mj.g, mj.dg, mj.d2g, mj.d3g)
        for got, want in zip(fields, scattered_metric_jets(spec, batch)):
            assert got.flags.c_contiguous
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
    single = metric_jets(spec, points[3])
    for got, want in zip((single.g, single.dg, single.d2g, single.d3g), fields):
        assert got.flags.c_contiguous and got.shape == want[3:4].shape
        assert got.tobytes() == want[3].tobytes()


def test_metric_jets_failures():
    spec = parse_metric(
        '{"dimension": 3, "coordinates": ["x1", "x2", "x3"],'
        ' "g": [["x1", "0", "0"], [null, "1", "0"], [null, null, "1"]]}')
    with pytest.raises(MetricNotPositive):
        metric_jets(spec, [-0.5, 0.0, 0.0])
    with pytest.raises(ValueError, match="outside"):
        metric_jets(spec, [2.0, 0.0, 0.0])


@pytest.mark.parametrize("where", ["jets", "evaluate"])
def test_evaluate_checks_points_as_metric_jets_does(where):
    spec = sphere_stereographic_metric(3)
    at = (lambda p: metric_jets(spec, p)) if where == "jets" else spec.evaluate
    for bad in ([0.1, 0.2], [[0.1, 0.2]], [[[0.1, 0.2, 0.3]]], [0.1, 0.2, 0.3, 0.4]):
        with pytest.raises(ValueError, match=r"^point must have 3 coordinates$"):
            at(bad)
    with pytest.raises(ValueError, match=r"^point \[5\.0, 0\.0, 0\.0\] is outside the chart "
                       r"domain box$"):
        at([5.0, 0.0, 0.0])
    with pytest.raises(ValueError, match=r"^point \[0\.0, 1\.5, 0\.0\] is outside"):
        at([[0.5, 0.0, 0.0], [0.0, 1.5, 0.0], [2.0, 0.0, 0.0]])


def test_evaluate_is_the_value_slot_of_metric_jets():
    spec = make_metric(3, ("x", "y", "z"),
                       [["1+x/3", "bump((x^2+y^2)/0.8^2)*y^3/5", "(x-z)^2/9"],
                        [None, "1+y/7", "0.125"],
                        [None, None, "1+x/(3+z)"]])
    points = domain_points(spec, 300, np.random.default_rng(0))
    g = spec.evaluate(points)
    assert g.shape == (300, 3, 3)
    assert g.tobytes() == metric_jets(spec, points).g.tobytes()
    for p, gp in zip(points, g):
        one = spec.evaluate(p)
        assert one.shape == (3, 3) and one.tobytes() == gp.tobytes()
