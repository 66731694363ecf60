"""The compiled jet tape computes exactly the bits of the expression walk.

``MetricSpec.component_rows`` evaluates jets through a
:class:`~lcwcheck.jets.JetTape`, one batched operation per (depth,
operation) group, into one array of the entries' rows; the walk
(``eval_expr``) only reports its errors.  Every value, gradient, Hessian
and third-derivative entry must equal the walk's bit for bit, over a batch
of one point and of several, for jets in the coordinates and for jets in
no variables (plain values, which ``MetricSpec.evaluate`` seeds), an entry
without coordinates as constant rows, and every error must be the walk's.
"""

import json
import warnings

import numpy as np
import pytest

from lcwcheck import exprs, metrics
from lcwcheck.cli import main
from lcwcheck.exprs import BinOp, Call, Const, Neg, Pow, eval_expr
from lcwcheck.jets import Jet3, JetTape, jet_environment, metric_jets
from lcwcheck.metrics import MetricSpec, make_metric, sphere_stereographic_metric

from oracles import to_source
from test_exprs import _random_ast

COORDS = ("x1", "x2", "x3")


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


def _same_rows(got, want, env) -> bool:
    """Whether the (B, width) rows ``got`` have the bits of the walk's value
    ``want`` at ``env``: a jet's rows, or a float's constant rows."""
    if not isinstance(want, Jet3):
        seed = next(iter(env.values()))
        want = Jet3.constant(np.full(len(seed.data), want), seed.n, seed.order)
    return got.shape == want.data.shape and _bits(got) == _bits(want.data)


def _value_environment(coords, points) -> dict:
    """Each coordinate as jets in no variables at one point or the rows of a batch."""
    points = np.asarray(points, dtype=float).reshape(-1, len(coords))
    return {name: Jet3.constant(x, 0) for name, x in zip(coords, points.T)}


def _environments(coords, points):
    """Seeds in the coordinates as variables, then in no variables."""
    return jet_environment(coords, points), _value_environment(coords, points)


def _spec(trees) -> MetricSpec:
    """A 3-D spec with the six given trees as its upper triangle."""
    return MetricSpec(3, COORDS, tuple(map(to_source, trees)), tuple(trees), ((-1.0, 1.0),) * 3)


@pytest.mark.parametrize("batch", [None, 3])
def test_tape_equals_the_walk_on_random_trees(batch):
    rng = np.random.default_rng(2024 + (batch or 0))
    checked, raised = [0, 0], [0, 0]  # per seeding: in the coordinates, in none
    for _ in range(150):
        trees = [_signed_zeros(_random_ast(rng, COORDS, 4), rng) for _ in range(6)]
        spec = _spec(trees)
        points = rng.uniform(0.2, 1.0, size=(batch or 1, 3))
        for k, env in enumerate(_environments(COORDS, points if batch else points[0])):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                try:
                    want = [eval_expr(t, env) for t in trees]
                except Exception as exc:  # noqa: BLE001 - the walk's error is the reference
                    with pytest.raises(type(exc)) as got:
                        spec.component_rows(env)
                    assert str(got.value) == str(exc)
                    raised[k] += 1
                    continue
                got = spec._tape.run([env[c] for c in COORDS])
            assert got.shape[-1] == len(trees)
            for e, (tree, w) in enumerate(zip(trees, want)):
                assert _same_rows(got[..., e], w, env), to_source(tree)
            checked[k] += 1
    assert min(checked) > 30 and min(raised) > 10  # both outcomes, both seedings


def test_tape_equals_the_walk_on_metrics():
    cases = [sphere_stereographic_metric(4),
             make_metric(3, COORDS, [["-0*x1+2*x2^-2", "0/(x1+3)-0", "-0-x3*0"],
                                     [None, "1+(-0)*x3-x1/-0.5", "x1^0*exp(x2)/2"],
                                     [None, None, "3-sqrt(2+x1)*atan(x2)+tan(x3)^3"]])]
    for spec in cases:
        n = spec.dimension
        points = np.random.default_rng(n).uniform(0.2, 0.8, size=(200, n))
        # one point, a few, and enough that each group runs in several slices
        for pts in (points[0], points[:4], points):
            for env in _environments(spec.coordinates, pts):
                got = spec.component_rows(env)
                assert got.shape[-1] == len(spec.entries) == n * (n + 1) // 2
                for k, entry in enumerate(spec.entries):
                    assert _same_rows(got[..., k], eval_expr(entry, env), env), k


def test_jets_are_evaluated_by_the_tape_alone(monkeypatch):
    spec = make_metric(3, COORDS, [["2+x1*x2", "0.1*sin(x3)", "0"],
                                   [None, "1+x2^2", "x1/(3+x2)"],
                                   [None, None, "exp(0.1*x3)"]])
    want = metric_jets(spec, np.full(3, 0.3))

    def walk(*args):
        raise AssertionError("the walk evaluated jets")

    monkeypatch.setattr(metrics.exprs, "eval_expr", walk)
    got = metric_jets(spec, np.full(3, 0.3))
    for name in ("g", "dg", "d2g", "d3g"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


def _operation(group):
    """A tape group's operation and which of its operands are constants."""
    node = group.node
    return (type(node), getattr(node, "op", None), getattr(node, "func", None),
            getattr(node, "exponent", None), [o.dtype.kind for o in group.operands])


def test_identical_entries_are_lanes_of_one_operation():
    sphere = sphere_stereographic_metric(4)
    diagonal = sphere.entries[0]
    one = JetTape(sphere.coordinates, [diagonal])
    all_entries = sphere._tape
    shape = [[_operation(g) for g in level] for level in one.levels]
    assert [[_operation(g) for g in level] for level in all_entries.levels] == shape
    for mine, single in zip(all_entries.levels, one.levels):
        for g, h in zip(mine, single):
            assert len(g.operands[0]) == 4 * len(h.operands[0])


def test_constant_subtrees_fold_with_the_walks_floats():
    tape = JetTape(COORDS, [exprs.parse_expr(s, COORDS)
                            for s in ("-0*1", "2^-1*x1", "(1+2)*(3-4)", "-0")])
    assert _bits(tape.results[0]) == _bits(-0.0)
    assert _bits(tape.results[3]) == _bits(-0.0)
    assert tape.results[2] == -3.0
    # x1 times a folded 0.5: one constant operation at the root, nothing deeper
    assert [[(g.node.op, [o.tolist() for o in g.operands if o.dtype.kind == "f"])
             for g in level] for level in tape.levels] == [[("*", [[0.5]])]]


@pytest.mark.parametrize("entry,compiles", [("x1+log(0-1)", False),  # fails to fold
                                             ("2+x1*(1/0)", False),
                                             ("2+x1/(2-2)", True),    # fails when run
                                             ("2+log(x1-2)", True)])
def test_errors_are_the_walks(entry, compiles):
    """The tape's errors are reported by the walk, with its messages and
    offsets; a subtree that fails to fold raises the walk's error itself."""
    spec = make_metric(3, COORDS, [[entry, "0", "0"], [None, "1", "0"], [None, None, "1"]])
    for points in (np.full(3, 0.5), np.full((2, 3), 0.5)):
        env = jet_environment(COORDS, points)
        with pytest.raises(exprs.EvalError) as want:
            eval_expr(spec.entries[0], env)
        with pytest.raises(exprs.EvalError) as got:
            spec.component_rows(env)
        assert str(got.value) == str(want.value)
    if compiles:
        assert isinstance(spec._tape, JetTape)
    else:
        with pytest.raises(exprs.EvalError) as fold:
            spec._tape
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
    assert _same_rows(spec.component_rows(env)[..., 0], eval_expr(spec.entries[0], env), env)
    assert spec.evaluate([0.1, 0.2, 0.3])[0, 0] == eval_expr(spec.entries[0],
                                                               dict(zip(COORDS, (0.1, 0.2, 0.3))))


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
    assert len(spec.entries) == 6
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
