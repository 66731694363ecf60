import math

import numpy as np
import pytest

from lcwcheck import exprs
from lcwcheck.exprs import (BinOp, Call, Const, EvalError, Neg, ParseError, Pow,
                            Var, eval_expr, parse_expr, to_source)
from lcwcheck.jets import Jet3

from oracles import fd_gradient, fd_hessian, fd_third


def test_literal_zero():
    ast = parse_expr("0", ("x", "y"))
    assert ast == Const(0, 0.0)


def test_nested_div_pow_tree():
    ast = parse_expr("4/(1+x1^2+x2^2)^2", ("x1", "x2"))
    assert isinstance(ast, BinOp) and ast.op == "/"
    assert ast.left == Const(0, 4.0)
    assert isinstance(ast.right, Pow) and ast.right.exponent == 2
    inner = ast.right.base
    assert isinstance(inner, BinOp) and inner.op == "+"


def test_unknown_identifier_offset():
    with pytest.raises(ParseError) as err:
        parse_expr("sin(q)*r", ("r",))
    assert "unknown identifier 'q'" in str(err.value)
    assert err.value.pos == 4


@pytest.mark.parametrize("source,message", [
    ("3 + $", "unexpected character"),
    ("sin()", "exactly one argument"),
    ("sin(x, x)", "exactly one argument"),
    ("cos(x)(", "trailing input"),
    ("x^2.5", "exponent must be an integer"),
    ("x^y", "exponent must be an integer"),
    ("foo(x)", "unknown function"),
    ("1.", "malformed number"),
    ("2e", "malformed exponent"),
    ("(x", r"expected '\)'"),
])
def test_parse_errors(source, message):
    with pytest.raises(ParseError, match=message):
        parse_expr(source, ("x",))


@pytest.mark.parametrize("source", ["(" * 1200 + "1+x1" + ")" * 1200,
                                    "-" * 1200 + "x1+2",
                                    "sin(" * 1200 + "x1" + ")" * 1200,
                                    "-" * (exprs.MAX_NESTING + 1) + "x1"],
                         ids=["parentheses", "minuses", "calls", "one-past-the-limit"])
def test_deep_nesting_is_a_parse_error(source):
    with pytest.raises(ParseError, match="expression nested too deeply") as err:
        parse_expr(source, ("x1",))
    assert err.value.pos < len(source)


def test_nesting_within_the_limit_parses():
    coords = ("x1",)
    assert eval_expr(parse_expr("(" * 50 + "1+x1" + ")" * 50, coords), {"x1": 2.0}) == 3.0
    assert eval_expr(parse_expr("-" * 50 + "x1+2", coords), {"x1": 2.0}) == 4.0
    deepest = parse_expr("-" * exprs.MAX_NESTING + "x1", coords)
    assert eval_expr(deepest, {"x1": 2.0}) == 2.0


def test_eval_plain():
    ast = parse_expr("x1^2", ("x1",))
    assert eval_expr(ast, {"x1": 3.0}) == 9.0


def test_eval_jet_polynomial():
    ast = parse_expr("x1^2", ("x1",))
    jet = eval_expr(ast, {"x1": Jet3.variable(0, 3.0, 1)})
    assert jet.value == 9.0
    assert jet.grad[0] == 6.0
    assert jet.hess[0] == 2.0
    assert jet.third[0] == 0.0


def test_eval_jet_vs_finite_differences():
    source = "exp(x1)*sin(x2)"
    ast = parse_expr(source, ("x1", "x2"))

    def f(p):
        return eval_expr(ast, {"x1": p[0], "x2": p[1]})

    x = np.array([0.0, 0.0])
    jet = eval_expr(ast, {"x1": Jet3.variable(0, 0.0, 2), "x2": Jet3.variable(1, 0.0, 2)})
    assert jet.value == 0.0
    for got, want in ((jet.grad, fd_gradient(f, x)),
                      (jet.hess_matrix(), fd_hessian(f, x)),
                      (jet.third_tensor(), fd_third(f, x))):
        mask = np.abs(want) > 1e-8
        assert np.allclose(got[mask], want[mask], rtol=1e-6)
        assert np.allclose(got[~mask], want[~mask], atol=1e-6)


@pytest.mark.parametrize("source,env,message", [
    ("log(x)", {"x": -1.0}, "domain error in log"),
    ("sqrt(x)", {"x": -4.0}, "domain error in sqrt"),
    ("1/x", {"x": 0.0}, "domain error"),
    ("x^-1", {"x": 0.0}, "domain error in power"),
])
def test_eval_domain_errors(source, env, message):
    ast = parse_expr(source, ("x",))
    with pytest.raises(EvalError, match=message):
        eval_expr(ast, env)


def test_eval_domain_errors_on_jets():
    ast = parse_expr("log(x)", ("x",))
    with pytest.raises(EvalError):
        eval_expr(ast, {"x": Jet3.variable(0, -1.0, 1)})
    with pytest.raises(EvalError):
        eval_expr(parse_expr("1/x", ("x",)), {"x": Jet3.variable(0, 0.0, 1)})


def _random_ast(rng, coords, depth):
    roll = rng.integers(0, 8 if depth > 0 else 2)
    if roll == 0:
        return Const(0, float(round(rng.uniform(0, 5), 3)))
    if roll == 1:
        return Var(0, coords[rng.integers(0, len(coords))])
    if roll == 2:
        return Neg(0, _random_ast(rng, coords, depth - 1))
    if roll == 3:
        return Pow(0, _random_ast(rng, coords, depth - 1), int(rng.integers(-3, 4)))
    if roll == 4:
        func = exprs.FUNCTIONS[rng.integers(0, len(exprs.FUNCTIONS))]
        return Call(0, func, _random_ast(rng, coords, depth - 1))
    op = "+-*/"[rng.integers(0, 4)]
    return BinOp(0, op, _random_ast(rng, coords, depth - 1),
                 _random_ast(rng, coords, depth - 1))


def test_print_parse_round_trip_random():
    rng = np.random.default_rng(99)
    coords = ("x1", "x2", "x3")
    for _ in range(300):
        ast = _random_ast(rng, coords, 4)
        text = to_source(ast)
        assert parse_expr(text, coords) == ast, text


def test_round_trip_sample_strings():
    coords = ("x1", "x2")
    for source in ("1+2*x1", "4/(1+x1^2+x2^2)^2", "-x1^2", "-(x1^2)",
                   "x1-(x2-1)", "sin(x1)*cos(x2)-exp(-x1)", "x1^-2",
                   "2/(x1*x2)/x1"):
        ast = parse_expr(source, coords)
        assert parse_expr(to_source(ast), coords) == ast


def test_neg_power_grammar_binding():
    # per the grammar, '^' binds the negated base: -x^2 is (-x)^2
    ast = parse_expr("-x^2", ("x",))
    assert isinstance(ast, Pow) and isinstance(ast.base, Neg)
    assert eval_expr(ast, {"x": 3.0}) == 9.0
    assert eval_expr(parse_expr("-(x^2)", ("x",)), {"x": 3.0}) == -9.0


def test_jet_order_zero_matches_plain():
    rng = np.random.default_rng(5)
    coords = ("x1", "x2")
    for _ in range(100):
        ast = _random_ast(rng, coords, 3)
        point = rng.uniform(0.2, 1.0, size=2)
        env_f = {"x1": point[0], "x2": point[1]}
        env_j = {"x1": Jet3.variable(0, point[0], 2), "x2": Jet3.variable(1, point[1], 2)}
        try:
            plain = eval_expr(ast, env_f)
        except EvalError:
            continue
        if not math.isfinite(plain) or abs(plain) > 1e12:
            continue
        jet = eval_expr(ast, env_j)
        value = jet.value if isinstance(jet, Jet3) else jet
        assert value == pytest.approx(plain, rel=1e-13, abs=1e-300)
