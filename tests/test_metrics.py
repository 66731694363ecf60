import hashlib
import json

import numpy as np
import pytest

from lcwcheck import exprs
from lcwcheck.genericity import obstruct_points, random_polynomial_metric, scan_metric
from lcwcheck.jets import JetTape, SymIndex, jet_environment
from lcwcheck.metrics import (MetricError, MetricSpec, conformally_flat_metric,
                              euclidean_metric, make_metric, parse_metric,
                              sphere_stereographic_metric)
from lcwcheck.perturb import (AlgebraicCurvature, CottonCoefficients, cubic_metric_spec,
                              perturb_curvature, solve_cy_target)

from oracles import Const, domain_points, entry_trees, eval_expr, parse_tree, vec5_to_sym3


def doc(dimension, coords, g, domain=None):
    d = {"dimension": dimension, "coordinates": coords, "g": g}
    if domain is not None:
        d["domain"] = domain
    return json.dumps(d)


def test_euclidean_document():
    spec = parse_metric(doc(4, ["x1", "x2", "x3", "x4"],
                            [["1" if i == j else "0" for j in range(4)] for i in range(4)]))
    assert spec.dimension == 4
    assert len(spec.sources) == 10
    for (i, j), entry in zip(SymIndex(4).pairs, entry_trees(spec)):
        assert entry == Const(0, 1.0 if i == j else 0.0)


def test_sphere_chart_is_valid():
    spec = sphere_stereographic_metric(4)
    g = spec.evaluate([0.0, 0.0, 0.0, 0.0])
    assert np.allclose(g, 4.0 * np.eye(4))


def test_asymmetric_entries_rejected():
    g = [["1", "x1", "0"], ["x2", "1", "0"], ["0", "0", "1"]]
    with pytest.raises(MetricError, match="asymmetric"):
        parse_metric(doc(3, ["x1", "x2", "x3"], g))


def test_lower_triangle_omitted_is_symmetrized():
    g = [["1", "x1*x2", "0"], [None, "1", "0"], [None, None, "1"]]
    spec = parse_metric(doc(3, ["x1", "x2", "x3"], g))
    assert len(spec.sources) == 6
    m = spec.evaluate([0.5, 0.25, 0.0])
    assert m[0, 1] == m[1, 0] == 0.125


@pytest.mark.parametrize("n", [2, 9])
def test_dimension_out_of_range(n):
    g = [["1" if i == j else "0" for j in range(n)] for i in range(n)]
    with pytest.raises(MetricError, match="dimension"):
        parse_metric(doc(n, [f"x{i}" for i in range(n)], g))


def test_schema_errors():
    with pytest.raises(MetricError, match="invalid JSON"):
        parse_metric("{not json")
    with pytest.raises(MetricError, match="missing required key"):
        parse_metric(json.dumps({"dimension": 3}))
    with pytest.raises(MetricError, match="unknown keys"):
        parse_metric(doc(3, ["x1", "x2", "x3"],
                         [["1", "0", "0"], [None, "1", "0"], [None, None, "1"]])
                     [:-1] + ', "extra": 1}')
    with pytest.raises(MetricError, match="coordinate name"):
        make_metric(3, ["x1", "x1 bad", "x3"], [["1", "0", "0"]] * 3)
    with pytest.raises(MetricError, match="distinct"):
        make_metric(3, ["x1", "x1", "x3"], [["1", "0", "0"]] * 3)
    with pytest.raises(MetricError, match="shadows"):
        make_metric(3, ["sin", "x2", "x3"], [["1", "0", "0"]] * 3)
    with pytest.raises(MetricError, match="only lower-triangle"):
        make_metric(3, ["x1", "x2", "x3"],
                    [["1", None, "0"], [None, "1", "0"], [None, None, "1"]])


def test_domain_validation_and_default():
    spec = euclidean_metric(3)
    assert spec.domain == ((-1.0, 1.0),) * 3
    spec = euclidean_metric(3, domain={"x1": [0.5, 3.0]})
    assert spec.domain[0] == (0.5, 3.0)
    assert spec.domain[1] == (-1.0, 1.0)
    with pytest.raises(MetricError, match="unknown coordinate"):
        euclidean_metric(3, domain={"q": [0, 1]})
    with pytest.raises(MetricError, match="lo < hi"):
        euclidean_metric(3, domain={"x1": [1, 1]})
    g = [["1", "0", "0"], [None, "1", "0"], [None, None, "1"]]
    for box in ('[0, Infinity]', '[-1e308, 1e308]'):  # unbounded, and a width that overflows
        text = doc(3, ["x1", "x2", "x3"], g, domain={"x1": "BOX"}).replace('"BOX"', box)
        with pytest.raises(MetricError, match="domain for 'x1' must be finite"):
            parse_metric(text)


@pytest.mark.parametrize("interval", ['"01"', "[true, 2]", "[0, 1, 2]", '{"a": 1, "b": 2}'],
                         ids=["string", "boolean", "three", "object"])
def test_a_domain_interval_is_an_array_of_two_numbers(interval):
    g = [["1", "0", "0"], [None, "1", "0"], [None, None, "1"]]
    text = doc(3, ["x1", "x2", "x3"], g, domain={"x1": "BOX"}).replace('"BOX"', interval)
    with pytest.raises(MetricError, match=r"domain for 'x1' must be a \[lo, hi\] pair$"):
        parse_metric(text)


def test_parse_error_carries_entry_position():
    g = [["1", "0", "0"], [None, "1+q", "0"], [None, None, "1"]]
    with pytest.raises(MetricError, match=r"g\[1\]\[1\].*unknown identifier"):
        parse_metric(doc(3, ["x1", "x2", "x3"], g))


def test_symmetric_at_random_points():
    specs = [sphere_stereographic_metric(4),
             parse_metric(doc(3, ["x1", "x2", "x3"],
                              [["1+0.1*x2^2", "0.05*x1*x3", "0.02*x2"],
                               [None, "1+exp(0.1*x1)", "0"],
                               [None, None, "2"]]))]
    rng = np.random.default_rng(0)
    for spec in specs:
        for p in domain_points(spec, 100, rng):
            g = spec.evaluate(p)
            assert np.array_equal(g, g.T)


def test_document_round_trip():
    spec = parse_metric(doc(3, ["x1", "x2", "x3"],
                            [["1+0.1*x2^2", "0.05*x1*x3", "0"],
                             [None, "1", "0"],
                             [None, None, "4/(1+x1^2)^2"]],
                            domain={"x2": [-0.5, 0.5]}))
    again = parse_metric(spec.to_json())
    assert entry_trees(again) == entry_trees(spec)
    assert again.domain == spec.domain
    assert isinstance(again, MetricSpec)


def test_a_document_keeps_the_text_it_was_given():
    upper = [["1 + (0.1*x2^2)", " 0.05 * x1*x3", "(0)"],
             [None, "1+exp( 0.1*x1 )", "x2 * (x3)"],
             [None, None, "((2))"]]
    g = [[upper[min(i, j)][max(i, j)] for j in range(3)] for i in range(3)]
    g[1][0], g[2][0], g[2][1] = "0.05*x1*x3", "0", "(x2)*x3"
    spec = parse_metric(doc(3, ["x1", "x2", "x3"], g))
    assert len(spec.sources) == 6
    written = spec.to_document()["g"]
    for i in range(3):
        for j in range(3):
            assert written[i][j] == upper[min(i, j)][max(i, j)]
    assert entry_trees(parse_metric(spec.to_json())) == entry_trees(spec)


# --- generated metrics: one writer, each upper-triangle entry written once ----


def _generated_documents():
    for n in range(3, 9):
        for seed in range(4):
            rstar = AlgebraicCurvature.random(n, np.random.default_rng(seed), scale=0.05)
            yield perturb_curvature(rstar)
            yield perturb_curvature(rstar, radius=0.8)
    for seed in range(4):
        rng = np.random.default_rng(seed)
        yield cubic_metric_spec(CottonCoefficients(0.01 * rng.standard_normal(60)))
        yield solve_cy_target(vec5_to_sym3(0.01 * rng.standard_normal(5))).metric
    for n in (3, 4, 8):
        yield euclidean_metric(n)
        yield sphere_stereographic_metric(n)
        yield conformally_flat_metric(n, "0.3*x1+0.2*x2^2")
        yield random_polynomial_metric(n, np.random.default_rng(n))


def test_generated_documents_keep_their_text():
    # every entry's text, the term order and each coefficient's repr included
    digest = hashlib.sha256()
    for spec in _generated_documents():
        digest.update(spec.to_json().encode())
    assert digest.hexdigest() == "df90ff562c97596ec3e5a2457fa91105f672ffd8f6067939abc77e23ee60abbe"


_CONSTRUCTORS = {
    "euclidean": lambda: euclidean_metric(5),
    "sphere": lambda: sphere_stereographic_metric(5),
    "conformally_flat": lambda: conformally_flat_metric(5, "0.3*x1"),
    "random_polynomial": lambda: random_polynomial_metric(5, np.random.default_rng(0)),
    "perturb_curvature": lambda: perturb_curvature(
        AlgebraicCurvature.random(5, np.random.default_rng(0), scale=0.05), radius=0.8),
    "cubic": lambda: cubic_metric_spec(CottonCoefficients(0.01 * np.arange(60.0))),
}


@pytest.mark.parametrize("name", _CONSTRUCTORS)
def test_a_generated_metric_parses_each_entry_once(monkeypatch, name):
    calls = []
    parse = exprs.parse_expr
    monkeypatch.setattr(exprs, "parse_expr", lambda *args: calls.append(args) or parse(*args))
    n = _CONSTRUCTORS[name]().dimension
    assert len(calls) == n * (n + 1) // 2


# --- one parse per entry: text to tape terms, and no tree in src/ ---------------


def test_the_obstruct_path_never_evaluates_the_text(monkeypatch):
    """``lcwcheck.exprs`` defines no tree; loading, obstructing and scanning
    a healthy metric run its tape alone: ``exprs.evaluate`` never runs."""
    for name in ("Node", "Const", "BinOp", "TREE", "eval_expr", "_operation"):
        assert not hasattr(exprs, name), name

    def evaluate(*args):
        raise AssertionError("a healthy metric's text was evaluated")

    monkeypatch.setattr(exprs, "evaluate", evaluate)
    spec = parse_metric(random_polynomial_metric(5, np.random.default_rng(0)).to_json())
    obstruct_points(spec, np.zeros((2, 5)), starts=2, seed=0)
    scan_metric(spec, (2, 1, 1, 1, 1), starts=2, seed=0)


# the malformed sources of the ParseError cases in test_exprs
_MALFORMED = ["3 + $", "sin()", "sin(x, x)", "cos(x)(", "x^2.5", "x^y", "foo(x)", "1.",
              "2e", "(x", "sin(q)*r", "2\u00b2", "1.\u00b2", "x1+3\u00b2*x1",
              "x^" + "9" * 5000, "2*x^-" + "1" * 4301 + "+1", "1e400*x1",
              "x1+2*(3-1e309)", "x1^2+" + "9" * 400]


@pytest.mark.parametrize("source", _MALFORMED, ids=range(len(_MALFORMED)))
@pytest.mark.parametrize("entry", [(0, 0), (0, 2), (2, 0)])
def test_a_malformed_entry_fails_to_load_with_the_parsers_error(source, entry):
    coords = ("x", "x1", "r")
    with pytest.raises(exprs.ParseError) as want:
        parse_tree(source, coords)
    g = [["1", "0", "0"], [None, "1", "0"], [None, None, "1"]]
    g[entry[0]][entry[1]] = source
    with pytest.raises(MetricError) as got:
        make_metric(3, coords, g)
    assert str(got.value) == f"g[{entry[0]}][{entry[1]}]: {want.value.message} (offset {want.value.pos})"


_BAD_DOMAIN = {"x1": "01"}


@pytest.mark.parametrize("rows,domain,message", [
    ([["1", "0", "0"], ["0+$", "sin()", "0"], [None, None, "1"]], None, r"g\[1\]\[0\]: unexpected"),
    ([["1", "(", 0], [None, "1", "0"], [None, None, "1"]], None, r"g\[0\]\[1\]: unexpected end"),
    ([["1", "0", "0"], [None, "1", "0"], [None, "0*", None]], None, r"g\[2\]\[1\]: unexpected end"),
    ([["1", "0", "0"], ["x1", "1", "0"], [None, "0*", "1"]], None, r"g\[2\]\[1\]: unexpected end"),
    ([["1", "0", "0"], [None, "1", "0"], [None, None, "1+"]], _BAD_DOMAIN, r"g\[2\]\[2\]: unexpected end"),
    ([["1", "0", "0"], ["x1", "1", "0"], [None, None, "1"]], _BAD_DOMAIN, "asymmetric"),
], ids=["lower-before-upper", "parse-before-type", "lower-before-omitted",
        "parse-before-asymmetry", "parse-before-domain", "asymmetry-before-domain"])
def test_the_first_error_in_document_order_is_raised(rows, domain, message):
    """Parse errors in document order, either triangle, then the symmetry
    check, then the chart box."""
    with pytest.raises(MetricError, match=message):
        make_metric(3, ["x1", "x2", "x3"], rows, domain)


@pytest.mark.parametrize("source", ["(" * 5000 + "1+x1" + ")" * 5000, "-" * 5000 + "x1+2",
                                    "sin(" * 5000 + "x1" + ")" * 5000],
                         ids=["parentheses", "minuses", "calls"])
def test_a_deep_entry_compiles_to_the_walks_rows(source):
    """5,000 levels compile without recursion; sums of one term, negations
    and calls are exact in the tape, so its rows have the walk's bits."""
    spec = make_metric(3, ["x1", "x2", "x3"], [[source, "0", "0"], [None, "1", "0"],
                                               [None, None, "1"]])
    env = jet_environment(spec.coordinates, np.array([[0.3, -0.2, 0.1], [0.5, 0.5, -0.5]]))
    want = eval_expr(parse_tree(source, spec.coordinates), env)
    assert spec.component_rows(env)[..., 0].tobytes() == want.data.tobytes()


# --- the symmetry check compares tape terms, == compares text --------------------


def _both_triangles(upper: str, lower: str) -> list:
    return [["1", upper, "0"], [lower, "1", "0"], ["0", "0", "1"]]


def test_reordered_products_in_the_two_triangles_are_symmetric():
    spec = make_metric(3, ["x1", "x2", "x3"], _both_triangles("2*x1*x2", "x2*x1*2"))
    assert spec.sources[1] == "2*x1*x2"  # the upper text is kept
    g = spec.evaluate(np.random.default_rng(0).uniform(-1.0, 1.0, (5, 3)))
    assert g.tobytes() == g.transpose(0, 2, 1).tobytes()


@pytest.mark.parametrize("upper,lower", [("1+x1", "x1+1"), ("x1*x2", "x1*x3"),
                                         ("0*x1", "-0*x1")])
def test_sums_in_another_order_are_asymmetric(upper, lower):
    """Sums keep source order, and coefficients compare by their bits."""
    with pytest.raises(MetricError, match=r"^asymmetric entries: g\[0\]\[1\] and g\[1\]\[0\]"):
        make_metric(3, ["x1", "x2", "x3"], _both_triangles(upper, lower))


def test_a_constant_that_fails_to_fold_in_both_triangles():
    """``log(1-2)`` folds to a NaN coefficient in both texts, equal by its
    bits; the metric loads and evaluating it raises the fold's error."""
    coords = ("x1", "x2", "x3")
    tape = JetTape(coords, ("log(1-2)*x1", "log(1-2) * x1"))
    (c, p), (d, q) = tape.terms[0][0], tape.terms[1][0]
    assert np.isnan(c) and np.float64(c).tobytes() == np.float64(d).tobytes() and p == q
    spec = make_metric(3, coords, _both_triangles("log(1-2)*x1", "log(1-2) * x1"))
    fold = r"^domain error in log: math domain error \(offset 0\)$"
    with pytest.raises(exprs.EvalError, match=fold):
        spec.evaluate([0.0, 0.0, 0.0])


def test_specs_compare_and_hash_by_their_text():
    spec = parse_metric(doc(3, ["x1", "x2", "x3"],
                            [["1+0.1*x2^2", "0.05*x1*x3", "0"], [None, "1", "0"],
                             [None, None, "4/(1+x1^2)^2"]], domain={"x2": [-0.5, 0.5]}))
    again = parse_metric(spec.to_json())
    assert again == spec and hash(again) == hash(spec)
    assert again.tape is not spec.tape
    spaced = make_metric(3, ["x1", "x2", "x3"], [["1 + 0.1*x2^2", "0.05*x1*x3", "0"],
                                                 [None, "1", "0"], [None, None, "4/(1+x1^2)^2"]],
                         {"x2": [-0.5, 0.5]})
    assert entry_trees(spaced) == entry_trees(spec) and spaced != spec
    assert euclidean_metric(3, {"x1": [0, 1]}) != euclidean_metric(3)


def test_failing_entries_raise_in_document_order():
    """Parse errors and evaluation errors alike name the first failing entry."""
    coords = ["x1", "x2", "x3"]
    rows = [["1", "0", "x1+"], [None, "(x2", "0"], [None, None, "1"]]
    with pytest.raises(MetricError, match=r"^g\[0\]\[2\]: unexpected end of input"):
        make_metric(3, coords, rows)
    rows[0][2] = "0"
    with pytest.raises(MetricError, match=r"^g\[1\]\[1\]: expected '\)'"):
        make_metric(3, coords, rows)
    rows = [["1", "0", "2+sqrt(x1-3)"], [None, "1+log(x2-2)", "0"], [None, None, "1"]]
    for point in ([0.0, 0.0, 0.0], [[0.0, 0.0, 0.0], [0.5, 0.5, 0.5]]):
        with pytest.raises(exprs.EvalError, match=r"^domain error in sqrt: .* \(offset 2\)$"):
            make_metric(3, coords, rows).evaluate(point)
    rows[0][2] = "0"
    with pytest.raises(exprs.EvalError, match=r"^domain error in log: .* \(offset 2\)$"):
        make_metric(3, coords, rows).evaluate([0.0, 0.0, 0.0])
