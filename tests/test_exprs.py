import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lcwcheck import exprs
from lcwcheck.exprs import EvalError, ParseError
from lcwcheck.jets import Jet3
from lcwcheck.metrics import make_metric

from oracles import (BinOp, Call, Const, Neg, Pow, Var, eval_expr, fd_gradient, fd_hessian,
                     fd_third, hess_matrix, parse_tree, third_tensor, to_source)


def test_literal_zero():
    ast = parse_tree("0", ("x", "y"))
    assert ast == Const(0, 0.0)


def test_nested_div_pow_tree():
    ast = parse_tree("4/(1+x1^2+x2^2)^2", ("x1", "x2"))
    assert isinstance(ast, BinOp) and ast.op == "/"
    assert ast.left == Const(0, 4.0)
    assert isinstance(ast.right, Pow) and ast.right.exponent == 2
    inner = ast.right.base
    assert isinstance(inner, BinOp) and inner.op == "+"


def test_unknown_identifier_offset():
    with pytest.raises(ParseError) as err:
        parse_tree("sin(q)*r", ("r",))
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
        parse_tree(source, ("x",))


def _sin_iterated(x: float, depth: int) -> float:
    for _ in range(depth):
        x = math.sin(x)
    return x


@pytest.mark.parametrize("source,value", [
    ("(" * 1200 + "1+x1" + ")" * 1200, 3.0),
    ("-" * 1200 + "x1+2", 4.0),
    ("sin(" * 1200 + "x1" + ")" * 1200, _sin_iterated(2.0, 1200)),
    ("-" * 101 + "x1", -2.0),
    ("(" * 5000 + "1+x1" + ")" * 5000, 3.0),
    ("-" * 5000 + "x1+2", 4.0),
    ("sin(" * 5000 + "x1" + ")" * 5000, _sin_iterated(2.0, 5000)),
    ("(" * 50 + "1+x1" + ")" * 50, 3.0),
    ("-" * 50 + "x1+2", 4.0),
    ("-" * 100 + "x1", 2.0),
], ids=["parentheses", "minuses", "calls", "minuses-101",
        "parentheses-5000", "minuses-5000", "calls-5000",
        "parentheses-50", "minuses-50", "minuses-100"])
def test_nested_expressions_parse_evaluate_and_round_trip(source, value):
    assert sys.getrecursionlimit() <= 1000  # the default: nothing here may recurse per level
    coords = ("x1",)
    tree = parse_tree(source, coords)
    assert eval_expr(tree, {"x1": 2.0}) == value
    assert parse_tree(to_source(tree), coords) == tree


def test_a_long_sum_prints_and_round_trips():
    assert sys.getrecursionlimit() <= 1000  # the default: nothing here may recurse per term
    source = "1" + "+x1" * 1499
    tree = parse_tree(source, ("x1",))
    assert to_source(tree) == source
    assert parse_tree(to_source(tree), ("x1",)) == tree
    spec = make_metric(3, ["x1", "x2", "x3"],
                       [[source, "0", "0"], [None, "1", "0"], [None, None, "1"]])
    again = make_metric(3, ["x1", "x2", "x3"], json.loads(spec.to_json())["g"])
    assert parse_tree(again.sources[0], ("x1",)) == tree
    assert again == spec


@pytest.mark.parametrize("source,message,pos", [
    ("2²", "unexpected character '²'", 1),
    ("1.²", "malformed number", 0),
    ("x1+3²*x1", "unexpected character '²'", 4),
])
def test_non_decimal_digits_are_parse_errors(source, message, pos):
    with pytest.raises(ParseError) as err:
        parse_tree(source, ("x1",))
    assert (err.value.message, err.value.pos) == (message, pos)


@pytest.mark.parametrize("source,pos", [("x^" + "9" * 5000, 2), ("2*x^-" + "1" * 4301 + "+1", 5)],
                         ids=["positive", "negative"])
def test_an_exponent_past_the_integer_string_limit_is_a_parse_error(source, pos):
    with pytest.raises(ParseError) as err:
        parse_tree(source, ("x",))
    assert (err.value.message, err.value.pos) == ("exponent has too many digits", pos)


@pytest.mark.parametrize("source,pos", [("1e400*x1", 0), ("x1+2*(3-1e309)", 8),
                                        ("x1^2+" + "9" * 400, 5)],
                         ids=["1e400", "1e309", "400-digits"])
def test_an_out_of_range_literal_is_a_parse_error(source, pos):
    with pytest.raises(ParseError) as err:
        parse_tree(source, ("x1",))
    assert (err.value.message, err.value.pos) == ("number out of range", pos)


def test_an_infinite_constant_does_not_print():
    with pytest.raises(ValueError, match="infinite"):
        to_source(BinOp(0, "*", Const(0, math.inf), Var(0, "x1")))
    # an underflowing literal is zero, which is in range
    assert parse_tree("1e-400", ()).value == 0.0


def test_bump_is_one_at_zero_zero_from_one_on_and_nan_for_nan():
    assert exprs.bump(0.0) == 1.0
    assert exprs.bump(0.5) == math.exp(-1.0)
    for s in (1.0, 1.5, 1e300, math.inf):
        assert exprs.bump(s) == 0.0
    assert exprs.bump(math.nextafter(1.0, 0.0)) == 0.0  # underflows to zero
    assert math.isnan(exprs.bump(math.nan))
    assert exprs.bump(-math.inf) == math.e
    assert eval_expr(parse_tree("bump(x^2)", ("x",)), {"x": 0.5}) == exprs.bump(0.25)


def test_eval_plain():
    ast = parse_tree("x1^2", ("x1",))
    assert eval_expr(ast, {"x1": 3.0}) == 9.0


def test_eval_jet_polynomial():
    ast = parse_tree("x1^2", ("x1",))
    jet = eval_expr(ast, {"x1": Jet3.variable(0, 3.0, 1)})
    assert jet.value == 9.0
    assert jet.grad[0] == 6.0
    assert jet.hess[0] == 2.0
    assert jet.third[0] == 0.0


def test_eval_jet_vs_finite_differences():
    source = "exp(x1)*sin(x2)"
    ast = parse_tree(source, ("x1", "x2"))

    def f(p):
        return eval_expr(ast, {"x1": p[0], "x2": p[1]})

    x = np.array([0.0, 0.0])
    jet = eval_expr(ast, {"x1": Jet3.variable(0, 0.0, 2), "x2": Jet3.variable(1, 0.0, 2)})
    assert jet.value == 0.0
    for got, want in ((jet.grad[0], fd_gradient(f, x)),
                      (hess_matrix(jet)[0], fd_hessian(f, x)),
                      (third_tensor(jet)[0], fd_third(f, x))):
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
    ast = parse_tree(source, ("x",))
    with pytest.raises(EvalError, match=message):
        eval_expr(ast, env)


def test_eval_domain_errors_on_jets():
    ast = parse_tree("log(x)", ("x",))
    with pytest.raises(EvalError):
        eval_expr(ast, {"x": Jet3.variable(0, -1.0, 1)})
    with pytest.raises(EvalError):
        eval_expr(parse_tree("1/x", ("x",)), {"x": Jet3.variable(0, 0.0, 1)})


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
        assert parse_tree(text, coords) == ast, text


def test_round_trip_sample_strings():
    coords = ("x1", "x2")
    for source in ("1+2*x1", "4/(1+x1^2+x2^2)^2", "-x1^2", "-(x1^2)",
                   "x1-(x2-1)", "sin(x1)*cos(x2)-exp(-x1)", "x1^-2",
                   "2/(x1*x2)/x1"):
        ast = parse_tree(source, coords)
        assert parse_tree(to_source(ast), coords) == ast


def test_neg_power_grammar_binding():
    # per the grammar, '^' binds the negated base: -x^2 is (-x)^2
    ast = parse_tree("-x^2", ("x",))
    assert isinstance(ast, Pow) and isinstance(ast.base, Neg)
    assert eval_expr(ast, {"x": 3.0}) == 9.0
    assert eval_expr(parse_tree("-(x^2)", ("x",)), {"x": 3.0}) == -9.0


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


_COORDS = ("x1", "x2", "x3")

_trees = st.recursive(
    st.one_of(st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)
              .map(lambda v: Const(0, v)),
              st.sampled_from(_COORDS).map(lambda name: Var(0, name))),
    lambda kids: st.one_of(
        kids.map(lambda child: Neg(0, child)),
        st.builds(lambda base, e: Pow(0, base, e), kids, st.integers(-20, 20)),
        st.builds(lambda func, arg: Call(0, func, arg), st.sampled_from(exprs.FUNCTIONS), kids),
        st.builds(lambda op, left, right: BinOp(0, op, left, right),
                  st.sampled_from("+-*/"), kids, kids)),
    max_leaves=40)


@settings(max_examples=300, deadline=None)
@given(_trees)
def test_printed_trees_reparse_to_themselves(tree):
    assert parse_tree(to_source(tree), _COORDS) == tree


# The grammar's characters and words, a few near misses, and characters
# outside it ('²' is a digit to str.isdigit but not to float).
_FRAGMENTS = ["x1", "x2", "y", "sin", "sqrt", "foo", "0", "1", "7", "2.5", "1e3", "3E-2",
              ".", "e", "+", "-", "*", "/", "^", "(", ")", ",", " ", "\t", "²", "$"]


@settings(max_examples=1000, deadline=None)
@given(st.lists(st.sampled_from(_FRAGMENTS), max_size=24).map("".join))
def test_any_string_parses_or_is_a_parse_error(source):
    try:
        tree = parse_tree(source, _COORDS)
    except ParseError as exc:
        assert 0 <= exc.pos <= len(source)
        return
    assert parse_tree(to_source(tree), _COORDS) == tree
