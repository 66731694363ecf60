"""The compiled jet tape: shared products, exact properties and a rounding bound.

``MetricSpec.component_rows`` evaluates jets through a
:class:`~lcwcheck.jets.JetTape`, one array of the entries' rows;
``exprs.evaluate``, which evaluates a text as it parses it, only reports
its errors.  The reference here is the walk over the parse tree
(``oracles.eval_expr``), which applies the operations in the same order as
``exprs.evaluate``, bit for bit.  The tape reads each entry as a sum of
terms, a constant times a product of atoms shared by all entries, so its
floats are the walk's reassociated: ``c*x1*x2`` is ``c*(x1*x2)``.
The contract:

* each slot of a polynomial entry lies within the a-priori bound of
  recursive summation of its exact rational value (``polynomial_rows``),
  ``EPS * (terms + degree)`` times the sum of |coefficient x monomial|;
  the walk meets the same bound, and a dropped 1e-8 term breaks it;
* a row of a batch has the bits of its point alone, at orders 0, 2 and 3;
  ``evaluate`` is ``metric_jets(...).g`` bit for bit; a non-finite atom of
  one entry leaves every other entry's bits alone;
* each distinct product runs once, each shared atom once, and constant
  subtrees fold with the walk's floats;
* every error is the walk's, with its message and offset;
* ``exprs.evaluate`` raises the walk's errors and returns its bits.
"""

import json
import warnings
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from lcwcheck import exprs, metrics
from lcwcheck.cli import main
from lcwcheck.genericity import random_polynomial_metric
from lcwcheck.jets import Jet3, JetTape, SymIndex, jet_environment, metric_jets
from lcwcheck.metrics import MetricSpec, coordinate_metric, make_metric

from oracles import (BinOp, Call, Const, Neg, Pow, _polynomial, entry_trees, eval_expr,
                     parse_tree, polynomial_rows, to_source)
from test_exprs import _random_ast

COORDS = ("x1", "x2", "x3")

# Twice the unit roundoff: the rounding bound below is EPS (terms + degree)
# times the sum of |coefficient x monomial|.  Tape and walk stay below a
# third of it on the documents here.
EPS = np.finfo(float).eps


def _signed_zeros(node, rng):
    """``node`` with some constants replaced by 0.0 or -0.0 (as ``-0``)."""
    if isinstance(node, Const):
        roll = rng.integers(0, 4)
        return node if roll > 1 else Const(0, 0.0) if roll else Neg(0, Const(0, 0.0))
    if isinstance(node, Neg):
        return Neg(0, _signed_zeros(node.child, rng))
    if isinstance(node, Call):
        return Call(0, node.func, _signed_zeros(node.arg, rng))
    if isinstance(node, Pow):
        return Pow(0, _signed_zeros(node.base, rng), node.exponent)
    if isinstance(node, BinOp):
        return BinOp(0, node.op, _signed_zeros(node.left, rng), _signed_zeros(node.right, rng))
    return node


def _bits(x) -> bytes:
    """The bytes of a float array, every NaN made the same one."""
    a = np.array(x, dtype=float)
    a[np.isnan(a)] = np.nan
    return a.tobytes()


def _rows(want, env) -> np.ndarray:
    """The walk's value at ``env`` as (B, width) rows: a jet's, or a float's
    constant rows."""
    if isinstance(want, Jet3):
        return want.data
    seed = next(iter(env.values()))
    return Jet3.constant(np.full(len(seed.data), want), seed.n, seed.order).data


def _value_environment(coords, points) -> dict:
    """Each coordinate as jets in no variables at one point or the rows of a batch."""
    points = np.asarray(points, dtype=float).reshape(-1, len(coords))
    return {name: Jet3.constant(x, 0) for name, x in zip(coords, points.T)}


def _environments(coords, points):
    """Seeds in the coordinates as variables, then in no variables."""
    return jet_environment(coords, points), _value_environment(coords, points)


def _spec(trees) -> MetricSpec:
    """A 3-D spec with the six given trees, printed, as its upper triangle."""
    sources = dict(zip(SymIndex(3).pairs, map(to_source, trees)))
    return coordinate_metric(3, lambda i, j: sources[i, j])


# every kind of atom, shared between entries: calls, reciprocals, sums
# inside products, a power above the tape's repeated-product limit
MIXED = [["2+0.2*sin(x1)-x1*x2/3", "0.1*sin(x1)*x2+exp(x1*x2/3)/10", "(x1+0.5)*(x2-x3)^2/10"],
         [None, "2+exp(x1*x2/3)/5+x3^-2/50", "0.05*x1^17/(3-x2)-x2*x1*0.1"],
         [None, None, "3-sqrt(2+x1)*atan(x2)+tan(x3)^3/10+sin(x1)^2"]]


@pytest.mark.parametrize("batch", [None, 3])
def test_tape_errors_and_values_are_the_walks_on_random_trees(batch):
    """Where the walk raises, the tape raises the walk's error; elsewhere its
    rows are the walk's reassociated, within 1e-12 of each entry's largest
    slot, finite where the walk's are."""
    rng = np.random.default_rng(2024 + (batch or 0))
    checked, raised = [0, 0], [0, 0]  # per seeding: in the coordinates, in none
    for _ in range(150):
        trees = [_signed_zeros(_random_ast(rng, COORDS, 4), rng) for _ in range(6)]
        spec = _spec(trees)
        parsed = entry_trees(spec)  # the trees, with their offsets in the printed text
        assert parsed == tuple(trees)
        points = rng.uniform(0.2, 1.0, size=(batch or 1, 3))
        for k, env in enumerate(_environments(COORDS, points if batch else points[0])):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                try:
                    want = [eval_expr(t, env) for t in parsed]
                except Exception as exc:  # noqa: BLE001 - the walk's error is the reference
                    with pytest.raises(type(exc)) as got:
                        spec.component_rows(env)
                    assert str(got.value) == str(exc)
                    raised[k] += 1
                    continue
                got = spec.component_rows(env)
            assert got.shape[-1] == len(trees)
            for e, (tree, w) in enumerate(zip(trees, want)):
                w, g = _rows(w, env), got[..., e]
                finite = np.isfinite(w)
                assert np.array_equal(finite, np.isfinite(g)), to_source(tree)
                scale = np.abs(w[finite]).max(initial=0.0)
                assert np.abs(w[finite] - g[finite]).max(initial=0.0) <= 1e-12 * scale
            checked[k] += 1
    assert min(checked) > 30 and min(raised) > 10  # both outcomes, both seedings


def _outcome(evaluator, *args):
    """An evaluator's error as (type, message, offset), or its value's bytes."""
    try:
        value = evaluator(*args)
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc), getattr(exc, "pos", None)
    return np.asarray(value.data if isinstance(value, Jet3) else value).tobytes()


@pytest.mark.parametrize("batch", [None, 3])
def test_evaluate_is_the_walk_on_random_trees(batch):
    """Evaluating a text as it parses raises the tree walk's error, with its
    message and offset, or returns the walk's bits: floats at one point,
    and batched jets in the coordinates or in none."""
    rng = np.random.default_rng(7 + (batch or 0))
    outcomes = set()
    for _ in range(300):
        source = to_source(_signed_zeros(_random_ast(rng, COORDS, 4), rng))
        tree = parse_tree(source, COORDS)
        points = rng.uniform(0.2, 1.0, size=(batch or 1, 3))
        envs = [*_environments(COORDS, points)]
        if batch is None:
            envs.append(dict(zip(COORDS, map(float, points[0]))))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for env in envs:
                want = _outcome(eval_expr, tree, env)
                assert _outcome(exprs.evaluate, source, COORDS, env) == want, source
                outcomes.add(type(want))
    assert outcomes == {tuple, bytes}  # both errors and values


def test_jets_are_evaluated_by_the_tape_alone(monkeypatch):
    spec = make_metric(3, COORDS, [["2+x1*x2", "0.1*sin(x3)", "0"],
                                   [None, "1+x2^2", "x1/(3+x2)"],
                                   [None, None, "exp(0.1*x3)"]])
    want = metric_jets(spec, np.full(3, 0.3))

    def walk(*args):
        raise AssertionError("the walk evaluated jets")

    monkeypatch.setattr(exprs, "evaluate", walk)
    got = metric_jets(spec, np.full(3, 0.3))
    for name in ("g", "dg", "d2g", "d3g"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


# --- the rounding bound against the exact oracle ------------------------------


def _terms(tree) -> int:
    """The summands of a tree's outermost sum (through negations)."""
    count, todo = 1, [tree]
    while todo:
        node = todo.pop()
        if isinstance(node, BinOp) and node.op in "+-":
            count += 1
            todo += [node.left, node.right]
        elif isinstance(node, Neg):
            todo.append(node.child)
    return count


def _within_bound(rows, tree, coords, point) -> bool:
    """Whether every slot of an order-3 row of floats lies within EPS (terms
    + degree) times the sum of |coefficient x monomial| of the exact row."""
    degree = max(map(sum, _polynomial(tree, coords, absolute=True)))
    scale = EPS * (_terms(tree) + degree)
    exact = polynomial_rows(tree, coords, point)
    magnitude = polynomial_rows(tree, coords, point, absolute=True)
    return all(abs(Fraction(got) - x) <= Fraction(scale) * m
               for got, x, m in zip(rows.tolist(), exact, magnitude))


# sums of monomials written every way the grammar allows, and products of sums
POLYNOMIAL = [["1+x1*0.3*x2-x2*x1*0.3+x1^3/3", "(x1+0.25)*(x2-x3)-0.5*x1",
               "(1-x1)^3+(0.5*x2)^2"],
              [None, "2-x3*x1*x2+x1*x2*x3-x2*x3*x1+7*x1*x1*x1", "x1/4-x2*x3/3"],
              [None, None, "1e-3*(x1*x2+x3)^2*x1-x1"]]

_DOCUMENTS = {"random3": lambda: random_polynomial_metric(3, np.random.default_rng(3)),
              "random4": lambda: random_polynomial_metric(4, np.random.default_rng(4)),
              "written": lambda: make_metric(3, COORDS, POLYNOMIAL)}


@pytest.mark.parametrize("evaluator", ["tape", "walk"])
@pytest.mark.parametrize("document", sorted(_DOCUMENTS))
def test_polynomial_rows_lie_within_the_summation_bound(document, evaluator):
    spec = _DOCUMENTS[document]()
    points = np.random.default_rng(5).uniform(-1.0, 1.0, (3, spec.dimension))
    env = jet_environment(spec.coordinates, points)
    if evaluator == "tape":
        rows = spec.component_rows(env)
    else:
        rows = np.stack([eval_expr(tree, env).data for tree in entry_trees(spec)], axis=-1)
    for k, tree in enumerate(entry_trees(spec)):
        for b, point in enumerate(points):
            assert _within_bound(rows[b, :, k], tree, spec.coordinates, point), (k, b)


def test_a_dropped_small_term_breaks_the_bound():
    entry = POLYNOMIAL[0][0] + "+1e-8*x1*x2"
    full, dropped = (make_metric(3, COORDS, [[e, "0", "0"], [None, "1", "0"], [None, None, "1"]])
                     for e in (entry, POLYNOMIAL[0][0]))
    points = np.array([[0.5, -0.75, 0.25], [-0.625, 0.875, 0.5]])
    env = jet_environment(COORDS, points)
    tree = parse_tree(entry, COORDS)
    for b, point in enumerate(points):
        assert _within_bound(full.component_rows(env)[b, :, 0], tree, COORDS, point)
        assert not _within_bound(dropped.component_rows(env)[b, :, 0], tree, COORDS, point)


# --- exact properties -----------------------------------------------------------


@pytest.mark.parametrize("batch", [1, 7, 81])
@pytest.mark.parametrize("order", [0, 2, 3])
def test_a_row_of_a_batch_has_the_bits_of_its_point_alone(order, batch):
    """At order 0 (jets in no variables), 2 and 3; 81 points split every
    product and atom operation of the tape into several slices."""
    spec = make_metric(3, COORDS, MIXED)
    points = np.random.default_rng(batch).uniform(0.2, 0.9, (batch, 3))

    def rows(pts):
        env = (_value_environment(COORDS, pts) if order == 0
               else jet_environment(COORDS, pts, order))
        return spec.component_rows(env)

    together = rows(points)
    assert together.shape[:2] == (batch, {0: 1, 2: 10, 3: 20}[order])
    for b, point in enumerate(points):
        assert _bits(rows(point[None])) == _bits(together[b:b + 1])


@pytest.mark.parametrize("order", [2, 3])
def test_evaluate_is_metric_jets_g_bit_for_bit(order):
    for spec in (make_metric(3, COORDS, MIXED),
                 random_polynomial_metric(4, np.random.default_rng(1))):
        points = np.random.default_rng(order).uniform(0.2, 0.9, (9, spec.dimension))
        assert _bits(spec.evaluate(points)) == _bits(metric_jets(spec, points, order).g)


@pytest.mark.parametrize("order", [2, 3])
def test_a_non_finite_atom_leaves_every_other_entry_alone(order):
    """exp(709 x1) overflows its derivatives at x1 = 1; the entries that do
    not use it keep their bits, finite, though they share its products."""
    rest = [["", "0.1*x1*x2-0.02*x1", "0.3*x1*x2*x3"],
            [None, "2+x1*x2", "0.05*x1"], [None, None, "1+x2*x3*x1"]]
    specs = [make_metric(3, COORDS, [[first] + rest[0][1:]] + rest[1:])
             for first in ("1+1e-300*exp(709*x1)+x1*x2", "1+x1*x2")]
    points = np.array([[1.0, 0.5, -0.5], [0.25, -0.75, 0.5]])
    env = jet_environment(COORDS, points, order)
    with np.errstate(all="ignore"):
        overflowing, reference = (spec.component_rows(env) for spec in specs)
    assert not np.isfinite(overflowing[0, :, 0]).all()
    assert np.isfinite(overflowing[..., 1:]).all()
    assert _bits(overflowing[..., 1:]) == _bits(reference[..., 1:])


# --- structure: what the tape shares ---------------------------------------------


def _counting(monkeypatch, method: str) -> list:
    """Count the rows of jets passed to a Jet3 method (jet operands only)."""
    rows = []
    original = getattr(Jet3, method)

    def counted(self, *args):
        if all(isinstance(a, Jet3) for a in args):
            rows.append(len(self.data))
        return original(self, *args)

    monkeypatch.setattr(Jet3, method, counted)
    return rows


@pytest.mark.parametrize("n", range(3, 9))
def test_a_degree_3_document_runs_one_product_per_monomial(monkeypatch, n):
    """Each distinct monomial of degree 2 or 3 is one jet product, shared by
    all entries: C(n + 3, 3) monomials less the constant and the n linear."""
    spec = random_polynomial_metric(n, np.random.default_rng(n))
    points = np.random.default_rng(0).uniform(-0.5, 0.5, (2, n))
    rows = _counting(monkeypatch, "__mul__")
    metric_jets(spec, points, 2 if n >= 4 else 3)
    assert sum(rows) // len(points) == comb(n + 3, 3) - n - 1
    assert n < 8 or sum(rows) // len(points) == 156


def test_an_atom_shared_by_entries_is_computed_once(monkeypatch):
    spec = make_metric(3, COORDS, [["2+0.1*sin(x1)", "0.2*sin(x1)*x2", "0"],
                                   [None, "1+sin(x1)^2", "0.1*exp(x1*x2/3)"],
                                   [None, None, "1+exp(x1*x2/3)"]])
    sines, exps = _counting(monkeypatch, "sin"), _counting(monkeypatch, "exp")
    points = np.full((5, 3), 0.25)
    metric_jets(spec, points)
    assert sines == [5] and exps == [5]


def test_constant_subtrees_fold_with_the_walks_floats():
    tape = JetTape(COORDS, ["-0*1", "2^-1*x1", "(1+2)*(3-4)", "-0"])
    assert tape.terms[0] == tape.terms[3] == [(0.0, ())]
    assert _bits(tape.terms[0][0][0]) == _bits(tape.terms[3][0][0]) == _bits(-0.0)
    assert tape.terms[2] == [(-3.0, ())]
    # x1 times a folded 0.5: one term, with no product to build
    assert tape.terms[1] == [(0.5, (0,))] and tape.steps == []
    rows = tape.run(list(jet_environment(COORDS, np.full(3, 0.5)).values()))
    assert _bits(rows[0, 0, [0, 2, 3]]) == _bits([-0.0, -3.0, -0.0])
    assert not rows[0, 1:, [0, 2, 3]].any()


@pytest.mark.parametrize("entry,compiles", [("x1+log(0-1)", False),  # fails to fold
                                             ("2+x1*(1/0)", False),
                                             ("2+x1/(2-2)", False),   # x1 times 1/0
                                             ("2+log(x1-2)", True),   # fails when run
                                             ("2+(x1-x1)^-2", True)])
def test_errors_are_the_walks(entry, compiles):
    """The tape's errors are reported by the walk, with its messages and
    offsets; a subtree that fails to fold, or a quotient by a constant 0,
    loads, and the tape raises the walk's error itself when it runs."""
    spec = make_metric(3, COORDS, [[entry, "0", "0"], [None, "1", "0"], [None, None, "1"]])
    for points in (np.full(3, 0.5), np.full((2, 3), 0.5)):
        env = jet_environment(COORDS, points)
        with pytest.raises(exprs.EvalError) as want:
            eval_expr(parse_tree(entry, COORDS), env)
        with pytest.raises(exprs.EvalError) as got:
            spec.component_rows(env)
        assert str(got.value) == str(want.value)
    assert (spec.tape.error is None) == compiles
    if not compiles:
        for _ in range(2):
            with pytest.raises(exprs.EvalError) as fold:
                spec.tape.run(list(env.values()))
            assert str(fold.value) == str(want.value)


def _deep_metric(entry: str) -> dict:
    return {"dimension": 3, "coordinates": list(COORDS),
            "g": [[entry, "0", "0"], [None, "1", "0"], [None, None, "1"]]}


def test_a_deep_entry_evaluates(tmp_path):
    terms = "".join(f"+1e-6*x{1 + k % 3}" for k in range(1500))
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(_deep_metric("1" + terms)))
    out = tmp_path / "out.json"
    assert main(["obstruct", str(path), "--point=0.1,0.2,0.3", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["points"][0]["verdict"] in ("zero", "inconclusive", "no_lcw_certified")
    spec = metrics.load_metric(path)
    env = jet_environment(COORDS, np.array([0.1, 0.2, 0.3]))
    tree = parse_tree(spec.sources[0], COORDS)
    want = _rows(eval_expr(tree, env), env)
    assert _bits(spec.component_rows(env)[..., 0]) == _bits(want)
    point = (0.1, 0.2, 0.3)
    assert spec.evaluate(point)[0, 0] == eval_expr(tree, dict(zip(COORDS, point)))


def test_deep_documents_compare_equal():
    terms = "".join(f"+1e-6*x{1 + k % 3}" for k in range(1500))
    document = json.dumps(_deep_metric("1" + terms))
    spec = metrics.parse_metric(document)
    assert metrics.parse_metric(document) == spec
    assert metrics.parse_metric(spec.to_json()) == spec
    assert metrics.parse_metric(document.replace("+1e-6*x1", "+2e-6*x1", 1)) != spec


def test_a_deep_entry_in_both_triangles_is_compared():
    terms = "".join(f"+1e-6*x{1 + k % 3}" for k in range(1500))
    rows = [["1", "0" + terms, "0"], ["0" + terms, "1", "0"], ["0", "0", "1"]]
    spec = make_metric(3, COORDS, rows)
    assert len(spec.sources) == 6
    rows[1][0] += "+x1"
    with pytest.raises(metrics.MetricError, match="asymmetric"):
        make_metric(3, COORDS, rows)


def test_a_deep_entry_reports_its_domain_error(tmp_path, capsys):
    terms = "".join(f"+1e-6*x{1 + k % 3}" for k in range(1500))
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(_deep_metric("log(x1-2)" + terms)))
    assert main(["obstruct", str(path), "--point=0.1,0.2,0.3"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("lcwcheck: evaluation error: domain error in log")
    assert err.endswith("(offset 0)\n")
