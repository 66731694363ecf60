import operator

import numpy as np
import pytest

from lcwcheck.exprs import eval_expr, parse_expr
from lcwcheck.jets import (Jet3, MetricNotPositive, SymIndex, jet_variable,
                           metric_jets)
from lcwcheck.metrics import euclidean_metric, parse_metric, sphere_stereographic_metric

from oracles import fd_gradient, fd_hessian, fd_third


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


def test_variable_seeds():
    jet = jet_variable(0, 0.5, 2)
    assert jet.value == 0.5
    assert np.array_equal(jet.grad, [1.0, 0.0])
    assert not jet.hess.any() and not jet.third.any()

    jet = jet_variable(1, -2.0, 3)
    assert jet.value == -2.0
    assert np.array_equal(jet.grad, [0.0, 1.0, 0.0])

    with pytest.raises(IndexError):
        jet_variable(3, 0.0, 3)


def test_sum_of_variables_is_linear():
    n = 4
    total = sum((jet_variable(k, 0.1 * k, n) for k in range(n)), Jet3.constant(0.0, n))
    assert np.array_equal(total.grad, np.ones(n))
    assert not total.hess.any() and not total.third.any()


def test_product_examples():
    x = jet_variable(0, 3.0, 1)
    sq = x * x
    assert (sq.value, sq.grad[0], sq.hess[0], sq.third[0]) == (9.0, 6.0, 2.0, 0.0)

    x = jet_variable(0, 1.0, 2)
    y = jet_variable(1, 2.0, 2)
    xy = x * y
    assert xy.value == 2.0
    assert np.array_equal(xy.grad, [2.0, 1.0])
    assert xy.hess_matrix()[0, 1] == 1.0
    assert xy.hess_matrix()[0, 0] == xy.hess_matrix()[1, 1] == 0.0
    assert not xy.third.any()


def test_cube_of_sum():
    x = jet_variable(0, 1.0, 2)
    y = jet_variable(1, 1.0, 2)
    cube = (x + y) ** 3
    assert cube.value == 8.0
    assert np.allclose(cube.grad, 12.0)
    assert np.allclose(cube.hess, 12.0)
    assert np.allclose(cube.third, 6.0)

    def f(p):
        return (p[0] + p[1]) ** 3

    pt = np.array([1.0, 1.0])
    assert np.allclose(cube.grad, fd_gradient(f, pt), rtol=1e-6)
    assert np.allclose(cube.hess_matrix(), fd_hessian(f, pt), rtol=1e-6)
    assert np.allclose(cube.third_tensor(), fd_third(f, pt), rtol=1e-6)


def test_compose_taylor_tables():
    e = jet_variable(0, 0.0, 1).exp()
    assert np.allclose([e.value, e.grad[0], e.hess[0], e.third[0]], 1.0)
    s = jet_variable(0, 0.0, 1).sin()
    assert np.allclose([s.value, s.grad[0], s.hess[0], s.third[0]], [0, 1, 0, -1])


def test_log_composition_vs_fd():
    ast = parse_expr("log(1+x1^2)", ("x1",))
    jet = eval_expr(ast, {"x1": jet_variable(0, 0.3, 1)})

    def f(p):
        return np.log(1 + p[0] ** 2)

    pt = np.array([0.3])
    assert jet.grad[0] == pytest.approx(fd_gradient(f, pt)[0], rel=1e-6)
    assert jet.hess[0] == pytest.approx(fd_hessian(f, pt)[0, 0], rel=1e-6)
    assert jet.third[0] == pytest.approx(fd_third(f, pt)[0, 0, 0], rel=1e-6)


def test_division_and_negative_powers():
    x = jet_variable(0, 2.0, 1)
    inv = 1.0 / x
    assert inv.value == 0.5
    assert inv.grad[0] == -0.25
    assert (x ** -2).value == 0.25
    assert (x ** 0).value == 1.0
    with pytest.raises(ZeroDivisionError):
        jet_variable(0, 0.0, 1).reciprocal()
    with pytest.raises(TypeError):
        x ** 0.5


def _slots(jet) -> bytes:
    return b"".join(np.asarray(getattr(jet, s), dtype=float).tobytes()
                    for s in ("value", "grad", "hess", "third"))


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
        row = Jet3(3, float(jet.value[k]), jet.grad[k], jet.hess[k], jet.third[k])
        want_right = op(row, float(divisor[k] if op is operator.truediv else c[k]))
        assert _slots(right.take([k])) == _slots(want_right), k
        assert _slots(left.take([k])) == _slots(op(float(c[k]), row)), k


def test_a_zero_constant_in_any_row_is_a_division_by_zero():
    jet = _batched_jet()
    for c in (np.array([1.0, 2.0, 0.0, 3.0, 4.0]), np.array([-0.0, 1.0, 1.0, 1.0, 1.0])):
        with pytest.raises(ZeroDivisionError):
            jet / c


def test_numpy_scalars_defer_to_the_jet():
    for jet in (jet_variable(0, 0.5, 2), _batched_jet()):
        got = np.float64(2.0) * jet
        assert isinstance(got, Jet3) and _slots(got) == _slots(2.0 * jet)


def test_ring_axioms_at_roundoff():
    rng = np.random.default_rng(17)
    n = 3
    ix = SymIndex(n)

    def random_jet():
        return Jet3(n, rng.uniform(-1, 1), rng.uniform(-1, 1, n),
                    rng.uniform(-1, 1, ix.npairs), rng.uniform(-1, 1, ix.ntriples))

    def slots(j):
        return np.concatenate([[j.value], j.grad, j.hess, j.third])

    for _ in range(50):
        a, b, c = random_jet(), random_jet(), random_jet()
        assert np.allclose(slots(a * b), slots(b * a), rtol=1e-12, atol=1e-12)
        assert np.allclose(slots((a * b) * c), slots(a * (b * c)), rtol=1e-12, atol=1e-12)
        assert np.allclose(slots(a * (b + c)), slots(a * b + a * c), rtol=1e-12, atol=1e-12)


def test_grammar_expressions_vs_fd_property():
    rng = np.random.default_rng(23)
    coords = ("x1", "x2", "x3")
    sources = ["sin(x1)*exp(0.5*x2)+x3^3", "sqrt(4+x1*x2)", "atan(x1-x2^2)/(2+x3)",
               "cos(x1*x2*x3)", "exp(sin(x1)+cos(x2))", "1/(1+x1^2+x2^2+x3^2)"]
    for source in sources:
        ast = parse_expr(source, coords)
        pt = rng.uniform(-0.6, 0.6, size=3)
        env = {c: jet_variable(k, pt[k], 3) for k, c in enumerate(coords)}
        jet = eval_expr(ast, env)

        def f(p, ast=ast):
            return eval_expr(ast, dict(zip(coords, p)))

        for got, want in ((jet.grad, fd_gradient(f, pt)),
                          (jet.hess_matrix(), fd_hessian(f, pt)),
                          (jet.third_tensor(), fd_third(f, pt))):
            mask = np.abs(want) > 1e-8
            assert np.allclose(got[mask], want[mask], rtol=1e-6)


def test_metric_jets_euclidean():
    mj = metric_jets(euclidean_metric(4), [0.3, -0.2, 0.0, 0.9])
    assert np.array_equal(mj.g, np.eye(4))
    assert not mj.dg.any() and not mj.d2g.any() and not mj.d3g.any()


def test_metric_jets_polynomial_entry():
    spec = parse_metric(
        '{"dimension": 3, "coordinates": ["x1", "x2", "x3"],'
        ' "g": [["1+x1^2", "0", "0"], [null, "1", "0"], [null, null, "1"]],'
        ' "domain": {"x1": [0.5, 2.0]}}')
    mj = metric_jets(spec, [1.0, 0.0, 0.0])
    assert mj.dg[0, 0, 0] == 2.0
    assert mj.d2g[0, 0, 0, 0] == 2.0
    assert not mj.d3g.any()


def test_metric_jets_sphere_vs_fd():
    spec = sphere_stereographic_metric(4)
    pt = np.array([0.1, 0.2, 0.0, 0.0])
    mj = metric_jets(spec, pt)
    for i in range(4):
        for j in range(4):
            def f(p, i=i, j=j):
                return spec.evaluate(p)[i, j]

            grad = fd_gradient(f, pt)
            hess = fd_hessian(f, pt)
            third = fd_third(f, pt)
            assert np.allclose(mj.dg[:, i, j], grad, rtol=1e-6, atol=1e-8)
            assert np.allclose(mj.d2g[:, :, i, j], hess, rtol=1e-6, atol=1e-7)
            assert np.allclose(mj.d3g[:, :, :, i, j], third, rtol=1e-6, atol=1e-5)


def test_metric_jets_failures():
    spec = parse_metric(
        '{"dimension": 3, "coordinates": ["x1", "x2", "x3"],'
        ' "g": [["x1", "0", "0"], [null, "1", "0"], [null, null, "1"]]}')
    with pytest.raises(MetricNotPositive):
        metric_jets(spec, [-0.5, 0.0, 0.0])
    with pytest.raises(ValueError, match="outside"):
        metric_jets(spec, [2.0, 0.0, 0.0])
