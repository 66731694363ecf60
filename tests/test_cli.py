import json
import warnings

import numpy as np
import pytest

from lcwcheck import eigenflag
from lcwcheck.cli import dumps17, main
from lcwcheck.cottonyork import CottonYorkTensor
from lcwcheck.curvature import curvature_package
from lcwcheck.genericity import obstruct_point
from lcwcheck.metrics import (conformally_flat_metric, coordinate_metric, euclidean_metric,
                              load_metric, sphere_stereographic_metric)
from lcwcheck.perturb import AlgebraicCurvature, perturb_curvature, solve_cy_target


@pytest.fixture()
def flat4(tmp_path):
    path = tmp_path / "flat4.json"
    path.write_text(euclidean_metric(4).to_json())
    return path


@pytest.fixture()
def sphere4(tmp_path):
    path = tmp_path / "sphere4.json"
    path.write_text(sphere_stereographic_metric(4).to_json())
    return path


def test_dumps17_round_trips_through_json():
    doc = {"a": [0.1, 1.0, 2e-6], "b": {"c": True, "d": None, "e": "x\"y"}}
    parsed = json.loads(dumps17(doc))
    assert parsed["a"] == [0.1, 1.0, 2e-6]
    assert parsed["b"]["e"] == 'x"y'
    for text in ("a\nb", "tab\there", "\x00\x1f\\", "non-ASCII: é ∂"):
        assert json.loads(dumps17({"metric": text}))["metric"] == text


def test_dumps17_breaks_a_list_whose_inline_form_passes_100_characters():
    """The elements joined by ", " take one line up to 100 characters;
    past that each element takes its own line."""
    assert dumps17([7] * 34) == "[" + ", ".join(["7"] * 34) + "]"  # 34 + 33 * 2 = 100
    assert dumps17([7] * 33 + [10]) == "[\n" + "  7,\n" * 33 + "  10\n]"  # 101


def test_dumps17_indents_two_spaces_per_level():
    doc = {"points": [{"point": [0.5, -0.25], "verdict": "zero"},
                      {"point": [1, 2], "verdict": "no_lcw_certified"}],
           "rows": [[1 / 3] * 5, [1]],
           "a": {}, "b": [], "c": [{}]}
    third = "      0.33333333333333331"
    assert dumps17(doc) == "\n".join([
        "{",
        '  "points": [',
        "    {",
        '      "point": [0.5, -0.25],',
        '      "verdict": "zero"',
        "    },",
        "    {",
        '      "point": [1, 2],',
        '      "verdict": "no_lcw_certified"',
        "    }",
        "  ],",
        '  "rows": [',
        "    [",
        *[third + ","] * 4,
        third,
        "    ],",
        "    [1]",
        "  ],",
        '  "a": {},',
        '  "b": [],',
        '  "c": [{}]',
        "}"])
    assert (dumps17({}), dumps17([]), dumps17(())) == ("{}", "[]", "[]")
    # a dict always breaks, and a list short enough keeps it inline
    assert dumps17([{"a": 1}]) == '[{\n    "a": 1\n  }]'


def test_dumps17_writes_arrays_and_numpy_scalars_as_lists_and_numbers():
    doc = {"m": np.array([[1.0, 0.5], [0.0, -2.0]]), "i": np.int64(3),
           "f": np.float32(0.1), "d": np.float64(2.5), "long": np.full((2, 5), 1 / 3)}
    row = "    [\n" + "      0.33333333333333331,\n" * 4 + "      0.33333333333333331\n    ]"
    assert dumps17(doc) == (
        "{\n"
        '  "m": [[1, 0.5], [0, -2]],\n'
        '  "i": 3,\n'
        '  "f": 0.10000000149011612,\n'
        '  "d": 2.5,\n'
        '  "long": [\n' + row + ",\n" + row + "\n  ]\n"
        "}")


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -np.inf, np.float64("nan")])
def test_dumps17_rejects_values_that_are_not_finite(value):
    """JSON has no NaN or infinity, so a report never carries one."""
    with pytest.raises(ValueError, match="is not finite"):
        dumps17({"a": [1.0, {"b": value}]})


def test_curvature_command(flat4, sphere4, capsys, tmp_path):
    assert main(["curvature", str(flat4), "--point", "0.1,0.2,0,0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["norms"]["riemann"] == 0.0

    out = tmp_path / "report.json"
    assert main(["curvature", str(sphere4), "--point", "0.1,0.2,0,0",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["scalar_curvature"] == pytest.approx(12.0, abs=1e-9)
    assert doc["norms"]["weyl"] < 1e-9


def test_obstruct_flat_headline_inconclusive(flat4, capsys):
    assert main(["obstruct", str(flat4), "--point", "0,0,0,0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["headline"]["verdict"] == "inconclusive"
    assert doc["points"][0]["verdict"] == "weyl_negligible"


def test_obstruct_certifies_cy_metric(tmp_path, capsys):
    sol = solve_cy_target(0.01 * np.diag([2.0, -1.0, -1.0]))
    path = tmp_path / "cubic.json"
    path.write_text(sol.metric.to_json())
    assert main(["obstruct", str(path), "--point", "0,0,0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["branch"] == "cotton_york"
    assert doc["headline"]["verdict"] == "no_lcw_certified"
    assert "neighborhood" in doc["headline"]["text"]
    engine = obstruct_point(load_metric(path), (0.0, 0.0, 0.0))
    assert doc["points"] == json.loads(dumps17([engine.to_dict()]))


def test_obstruct_grid_and_csv(flat4, capsys):
    assert main(["obstruct", str(flat4), "--grid", "2,2,2,2", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "x1,x2,x3,x4,norm,obstruction,verdict"
    assert len(lines) == 17


def test_obstruct_requires_points_or_grid(flat4, capsys):
    assert main(["obstruct", str(flat4)]) == 2
    assert "needs --point or --grid" in capsys.readouterr().err


def test_obstruct_rejects_point_with_grid(flat4, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["obstruct", str(flat4), "--point", "0.3,0.2,0.1,0", "--grid", "1,1,1,1"])
    assert exc.value.code == 2
    assert "argument --grid: not allowed with argument --point" in capsys.readouterr().err


def test_subnormal_tol_det_does_not_certify_a_singular_tensor(tmp_path, capsys):
    metric = tmp_path / "m3.json"
    metric.write_text(json.dumps({
        "dimension": 3, "coordinates": ["x1", "x2", "x3"],
        "g": [["1+0.3*x1^2*x2", "0", "0"], [None, "1+0.2*x1*x2^2+0.1*x2^3", "0"],
              [None, None, "1"]]}))
    assert main(["obstruct", str(metric), "--point", "0.3,0.2,0.1", "--tol-det=1e-320"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["points"][0]["stratum"] == "regular_singular"
    assert doc["headline"]["verdict"] == "inconclusive"


def test_obstruct_grid_3d_branch(tmp_path, capsys):
    metric = tmp_path / "m3.json"
    metric.write_text(sphere_stereographic_metric(3).to_json())
    assert main(["obstruct", str(metric), "--grid", "2,2,2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["branch"] == "cotton_york"
    assert doc["headline"]["verdict"] == "inconclusive"  # constant curvature: CY = 0
    assert all(r["verdict"] in ("zero", "inconclusive") for r in doc["points"])


CONFORMAL3 = "0.1*x1^2+0.1*x2^2+0.1*x3^2+0.05*x1*x2"


def test_scan_of_the_round_sphere_is_zero_everywhere(tmp_path):
    metric = tmp_path / "sphere3.json"
    metric.write_text(sphere_stereographic_metric(3).to_json())
    out = tmp_path / "scan.csv"
    assert main(["scan", str(metric), "--grid", "6,6,6", "--out", str(out)]) == 0
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 216
    assert all(row.endswith(",zero") for row in rows)


@pytest.mark.parametrize("spec", [sphere_stereographic_metric(3),
                                  conformally_flat_metric(3, CONFORMAL3)],
                         ids=["sphere", "conformal"])
@pytest.mark.parametrize("where", [["--point", "0.1,0.1,0.1"], ["--point=-0.3,-0.3,-0.3"],
                                   ["--grid", "4,4,3"]])
def test_obstruct_on_conformally_flat_3d_metrics_is_zero(tmp_path, capsys, spec, where):
    """Their Cotton-York tensor is roundoff below the zero floor, which need
    not pass the symmetry check; the points are ``zero``, not errors."""
    metric = tmp_path / "m3.json"
    metric.write_text(spec.to_json())
    assert main(["obstruct", str(metric), *where]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["headline"]["verdict"] == "inconclusive"
    assert len(doc["points"]) == (48 if where[0] == "--grid" else 1)
    assert all(p["stratum"] == p["verdict"] == "zero" for p in doc["points"])


def test_perturb_zero_emits_flat_metric(tmp_path, capsys):
    out = tmp_path / "metric.json"
    assert main(["perturb", "--dimension", "4", "--zero", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["g"][0][0] == "1"
    assert doc["g"][2][3] == "0"


@pytest.mark.parametrize("n", range(3, 9))
def test_perturb_zero_is_scale_zero(tmp_path, n):
    """--zero writes the bytes of --scale 0, whatever the seed."""
    paths = [tmp_path / f"{name}.json" for name in ("zero", "scale0", "scale0seed5")]
    for args, path in zip((["--zero"], ["--scale", "0"], ["--scale", "0", "--seed", "5"]), paths):
        assert main(["perturb", "--dimension", str(n), *args, "--out", str(path)]) == 0
    zero = paths[0].read_bytes()
    assert json.loads(zero)["g"][0] == ["1"] + ["0"] * (n - 1)
    assert paths[1].read_bytes() == zero and paths[2].read_bytes() == zero


def test_perturb_random_then_obstruct(tmp_path, capsys):
    out = tmp_path / "metric.json"
    assert main(["perturb", "--dimension", "4", "--seed", "9", "--scale", "0.05",
                 "--out", str(out)]) == 0
    assert main(["obstruct", str(out), "--point", "0,0,0,0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["points"][0]["branch"] == "weyl_eigenflag"
    engine = obstruct_point(load_metric(out), (0.0, 0.0, 0.0, 0.0))
    assert doc["points"] == json.loads(dumps17([engine.to_dict()]))


def test_solve_cy_command(tmp_path, capsys):
    out = tmp_path / "cubic.json"
    assert main(["solve-cy", "--target", "0.02", "-0.01", "-0.01", "0", "0", "0",
                 "--out", str(out)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "no_lcw_certified"
    assert out.exists()


def test_solve_cy_zero_target_prints_the_verdict_obstruct_prints(tmp_path, capsys):
    out = tmp_path / "cubic.json"
    assert main(["solve-cy", "--target", "0", "0", "0", "0", "0", "0", "--out", str(out)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "zero"
    assert main(["obstruct", str(out), "--point", "0,0,0"]) == 0
    assert json.loads(capsys.readouterr().out)["points"][0]["verdict"] == "zero"


def test_obstruct_on_a_bump_document(tmp_path, capsys):
    rstar = AlgebraicCurvature.random(4, np.random.default_rng(0), scale=0.05)
    paths = tmp_path / "plain.json", tmp_path / "bump.json"
    paths[0].write_text(perturb_curvature(rstar).to_json())
    paths[1].write_text(perturb_curvature(rstar, radius=0.8).to_json())
    assert main(["obstruct", str(paths[0]), "--point", "0,0,0,0"]) == 0
    plain = json.loads(capsys.readouterr().out)["points"]
    assert main(["obstruct", str(paths[1]), "--point", "0,0,0,0", "--point", "0.9,0,0,0"]) == 0
    center, outside = json.loads(capsys.readouterr().out)["points"]
    # the cutoff leaves the prescribed curvature at the center untouched
    assert plain[0]["verdict"] == center["verdict"] == "no_lcw_certified"
    assert center["obstruction"] == pytest.approx(plain[0]["obstruction"], rel=1e-12)
    # and outside its ball the metric is flat
    assert (outside["verdict"], outside["norm"]) == ("weyl_negligible", 0.0)


def test_an_out_of_range_literal_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"dimension": 3, "coordinates": ["x1", "x2", "x3"],
                                "g": [["1e400*x1^2+1", "0", "0"], [None, "1", "0"],
                                      [None, None, "1"]]}))
    assert main(["obstruct", str(path), "--point", "0,0,0"]) == 2
    assert capsys.readouterr().err == (
        "lcwcheck: parse error: g[0][0]: number out of range (offset 0)\n")


def test_a_constant_that_fails_to_fold_is_an_evaluation_error(tmp_path, capsys):
    """log(1-2) has no coordinates: the document loads, and each point at
    which it is evaluated is an evaluation error at its offset; a point of
    the wrong arity is still a parse error first."""
    path = tmp_path / "fold.json"
    path.write_text('{"g": [["1+log(1-2)*x1","0","0"],[null,"1","0"],[null,null,"1"]], '
                    '"dimension": 3, "coordinates": ["x1", "x2", "x3"]}')
    assert main(["obstruct", str(path), "--point", "0,0,0"]) == 3
    assert capsys.readouterr().err == (
        "lcwcheck: evaluation error: domain error in log: math domain error (offset 2)\n")
    out = tmp_path / "scan.csv"
    assert main(["scan", str(path), "--grid", "2,1,1", "--out", str(out)]) == 0
    rows = out.read_text().splitlines()[1:]
    assert [row.split(",")[-1] for row in rows] == ["error:EvalError"] * 2
    assert main(["obstruct", str(path), "--point", "0,0"]) == 2
    assert "--point must have 3 coordinates" in capsys.readouterr().err


def test_sample_determinism(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (out1, out2):
        assert main(["sample", "--dimension", "4", "--count", "6", "--seed", "7",
                     "--out", str(out)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    header = out1.read_text().splitlines()[0]
    assert header == "index,residual_min,verdict"


def test_scan_command(tmp_path):
    metric = tmp_path / "m3.json"
    metric.write_text(euclidean_metric(3).to_json())
    out = tmp_path / "scan.csv"
    assert main(["scan", str(metric), "--grid", "2,2,2", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x1,x2,x3,norm,obstruction,verdict"
    assert len(lines) == 9

    # scan and obstruct --format csv share one engine: the same numbers on the
    # same grid; scan prints the branch label, obstruct the one-sided verdict
    cubic = tmp_path / "cubic.json"
    cubic.write_text(solve_cy_target(0.01 * np.diag([2.0, -1.0, -1.0])).metric.to_json())
    mapping = {"nonsingular": "no_lcw_certified", "zero": "zero"}
    for path in (metric, cubic):
        scan_out, obstruct_out = tmp_path / "scan.csv", tmp_path / "obstruct.csv"
        assert main(["scan", str(path), "--grid", "3,2,3", "--out", str(scan_out)]) == 0
        assert main(["obstruct", str(path), "--grid", "3,2,3", "--format", "csv",
                     "--out", str(obstruct_out)]) == 0
        scan_rows = [r.split(",") for r in scan_out.read_text().splitlines()]
        obstruct_rows = [r.split(",") for r in obstruct_out.read_text().splitlines()]
        assert len(scan_rows) == len(obstruct_rows) == 1 + 18
        assert [r[:-1] for r in scan_rows] == [r[:-1] for r in obstruct_rows]
        assert scan_rows[0][-1] == obstruct_rows[0][-1] == "verdict"
        labels = [r[-1] for r in scan_rows[1:]]
        assert [mapping.get(x, "inconclusive") for x in labels] == [
            r[-1] for r in obstruct_rows[1:]]
    assert set(labels) == {"nonsingular"}


@pytest.mark.parametrize("command", ["obstruct", "scan"])
def test_grid_counts_below_one_are_parse_errors(tmp_path, capsys, command):
    metric = tmp_path / "m3.json"
    metric.write_text(euclidean_metric(3).to_json())
    out = tmp_path / "table.csv"
    with pytest.raises(SystemExit) as exc:
        main([command, str(metric), "--grid", "0,3,3", "--out", str(out)])
    assert exc.value.code == 2
    assert "at least 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["obstruct", "--grid", "2,2"],
    ["obstruct", "--grid", "2,2,2,2"],
    ["obstruct", "--point", "0.1,0.2"],
    ["obstruct", "--point", "0,0,0", "--point", "0.1,0.2,0.3,0.4"],
    ["scan", "--grid", "2,2"],
    ["curvature", "--point", "0.1,0.2"],
    ["obstruct", "--point", "0,0,0", "--starts", "2"],
    ["obstruct", "--grid", "2,2,2", "--starts", "1"],
    ["scan", "--grid", "2,2,2", "--starts", "2"],
    ["sample", "--dimension", "5", "--count", "1", "--starts", "4"],
])
def test_wrong_arity_is_a_parse_error(tmp_path, capsys, args):
    """A --grid or --point of the wrong length, or --starts below the
    dimension (the 3-D metric's, or sample's --dimension), exits 2."""
    metric = tmp_path / "m3.json"
    metric.write_text(euclidean_metric(3).to_json())
    out = tmp_path / "report"
    dimension = args[args.index("--dimension") + 1] if args[0] == "sample" else "3"
    if args[0] != "sample":
        args = [args[0], str(metric), *args[1:]]
    assert main([*args, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("lcwcheck: parse error: ") and dimension in err
    assert not out.exists()


@pytest.mark.parametrize("box", ["[0, Infinity]", "[-1e308, 1e308]"])
def test_a_domain_that_is_not_finite_is_a_parse_error(tmp_path, capsys, box):
    metric = tmp_path / "m.json"
    metric.write_text(json.dumps({
        "dimension": 3, "coordinates": ["x1", "x2", "x3"],
        "g": [["1", "0", "0"], [None, "1", "0"], [None, None, "1"]],
        "domain": {"x1": "BOX"}}).replace('"BOX"', box))
    assert main(["obstruct", str(metric), "--grid", "2,1,1"]) == 2
    assert capsys.readouterr().err == (
        "lcwcheck: parse error: domain for 'x1' must be finite\n")


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["curvature", str(bad), "--point", "0,0,0"]) == 2
    assert "parse error" in capsys.readouterr().err

    asym = tmp_path / "asym.json"
    asym.write_text(json.dumps({
        "dimension": 3, "coordinates": ["x1", "x2", "x3"],
        "g": [["1", "x1", "0"], ["x2", "1", "0"], ["0", "0", "1"]]}))
    assert main(["obstruct", str(asym), "--point", "0,0,0"]) == 2


_ROWS = [["1", "0", "0"], [None, "1", "0"], [None, None, "1"]]


@pytest.mark.parametrize("coordinates,g", [
    ([1, 2, 3], _ROWS),
    (None, _ROWS),
    (["x1", "x2", "x3"], 5),
    (["x1", "x2", "x3"], [["1", "0", "0"], 5, [None, None, "1"]]),
    ("xyz", _ROWS),
], ids=["int-names", "null-names", "int-g", "int-row", "string-names"])
def test_malformed_coordinates_or_g_are_parse_errors(tmp_path, capsys, coordinates, g):
    metric = tmp_path / "m.json"
    metric.write_text(json.dumps({"dimension": 3, "coordinates": coordinates, "g": g}))
    assert main(["obstruct", str(metric), "--point", "0,0,0"]) == 2
    assert capsys.readouterr().err.startswith("lcwcheck: parse error:")


def test_reports_echo_a_metric_path_with_control_characters(tmp_path, capsys):
    metric = tmp_path / "tab\there\nnewline.json"
    metric.write_text(euclidean_metric(3).to_json())
    assert main(["obstruct", str(metric), "--point", "0,0,0"]) == 0
    assert json.loads(capsys.readouterr().out)["metric"] == str(metric)


@pytest.mark.parametrize("entry", ["(" * 1200 + "1+x1" + ")" * 1200, "-" * 1200 + "x1+2"],
                         ids=["parentheses", "minuses"])
def test_deeply_nested_entries_evaluate(tmp_path, capsys, entry):
    # g = diag(g00(x1), 1, 1) is flat, so its Cotton-York tensor is zero
    metric = tmp_path / "deep.json"
    metric.write_text(json.dumps({
        "dimension": 3, "coordinates": ["x1", "x2", "x3"],
        "g": [[entry, "0", "0"], [None, "1", "0"], [None, None, "1"]]}))
    assert main(["obstruct", str(metric), "--point", "0.1,0.2,0.3"]) == 0
    assert json.loads(capsys.readouterr().out)["points"][0]["verdict"] == "zero"


def test_non_decimal_digits_are_parse_errors(tmp_path, capsys):
    metric = tmp_path / "m.json"
    metric.write_text(json.dumps({
        "dimension": 3, "coordinates": ["x1", "x2", "x3"],
        "g": [["2²", "0", "0"], [None, "1", "0"], [None, None, "1"]]}))
    assert main(["obstruct", str(metric), "--point", "0,0,0"]) == 2
    assert capsys.readouterr().err == (
        "lcwcheck: parse error: g[0][0]: unexpected character '²' (offset 1)\n")


def test_an_exponent_past_the_integer_string_limit_is_a_parse_error(tmp_path, capsys):
    metric = tmp_path / "m.json"
    metric.write_text(json.dumps({
        "dimension": 3, "coordinates": ["x1", "x2", "x3"],
        "g": [["1+x1^" + "1" * 5000, "0", "0"], [None, "1", "0"], [None, None, "1"]]}))
    assert main(["obstruct", str(metric), "--point", "0,0,0"]) == 2
    assert capsys.readouterr().err == (
        "lcwcheck: parse error: g[0][0]: exponent has too many digits (offset 5)\n")


def test_evaluation_error_exit_code(tmp_path, capsys):
    metric = tmp_path / "m.json"
    metric.write_text(euclidean_metric(4).to_json())
    assert main(["curvature", str(metric), "--point", "5,0,0,0"]) == 3
    assert capsys.readouterr().err == ("lcwcheck: evaluation error: point [5.0, 0.0, 0.0, 0.0]"
                                       " is outside the chart domain box\n")

    nonpd = tmp_path / "nonpd.json"
    nonpd.write_text(json.dumps({
        "dimension": 3, "coordinates": ["x1", "x2", "x3"],
        "g": [["x1", "0", "0"], [None, "1", "0"], [None, None, "1"]]}))
    assert main(["curvature", str(nonpd), "--point=-0.5,0,0"]) == 3


@pytest.mark.parametrize("n", [3, 4])
def test_an_overflow_prints_only_the_error_line(tmp_path, capsys, n):
    """Where g's derivative overflows, numpy warns on the way to the checks
    that reject the point; the commands print none of those warnings, only
    their one error line (and ``scan`` its error row)."""
    metric = tmp_path / "overflow.json"
    metric.write_text(coordinate_metric(n, lambda i, j: (
        "1+1e-300*exp(709*x1)" if i == j == 0 else "1" if i == j else "0")).to_json())
    corner = ",".join(["1"] + ["0"] * (n - 1))
    out = tmp_path / "report"
    finite = "Cotton-York tensor must be finite" if n == 3 else "curvature tensor must be finite"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would raise, and change the error
        assert main(["obstruct", str(metric), "--point", corner]) == 3
        assert capsys.readouterr().err == f"lcwcheck: evaluation error: {finite}\n"
        assert main(["curvature", str(metric), "--point", corner]) == 3
        assert capsys.readouterr().err == (
            "lcwcheck: evaluation error: report value nan is not finite\n")
        assert main(["scan", str(metric), "--grid", ",".join(["2"] + ["1"] * (n - 1)),
                     "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
    assert out.read_text().splitlines()[-1] == corner + ",nan,nan,error:ValueError"


@pytest.mark.parametrize("n", [4, 5])
def test_a_curvature_tensor_that_is_not_finite_is_an_evaluation_error(tmp_path, capsys, n):
    """g_00 = 1 + 1e-300 exp(709 x1) is finite at x1 = 1, where its derivative
    overflows: no report there carries a NaN, as in the n = 3 branch."""
    metric = tmp_path / "overflow.json"
    metric.write_text(coordinate_metric(n, lambda i, j: (
        "1+1e-300*exp(709*x1)" if i == j == 0 else "1" if i == j else "0")).to_json())
    corner = ",".join(["1"] + ["0"] * (n - 1))
    out = tmp_path / "report"
    with np.errstate(all="ignore"):
        for fmt in ("json", "csv"):
            assert main(["obstruct", str(metric), "--point", corner, "--format", fmt,
                         "--out", str(out)]) == 3
            assert capsys.readouterr().err == (
                "lcwcheck: evaluation error: curvature tensor must be finite\n")
            assert not out.exists()
        assert main(["curvature", str(metric), "--point", corner, "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "lcwcheck: evaluation error: report value nan is not finite\n")
        assert not out.exists()
        assert main(["scan", str(metric), "--grid", ",".join(["2"] + ["1"] * (n - 1)),
                     "--out", str(out)]) == 0
    assert out.read_text().splitlines()[-1] == corner + ",nan,nan,error:ValueError"


@pytest.mark.parametrize("entry", ["1+1e-300/(1e200*(2+x1))", "1+1e-300*log(1e200*(2+x1))",
                                   "1+1e-300/(1e-110*(2+x1))", "1+1e-300*log(1e-200*(2+x1))"])
def test_a_taylor_coefficient_out_of_the_float_range_obstructs(tmp_path, capsys, entry):
    """g_00 is 1 to roundoff, but the Taylor coefficients of 1/v and log v at
    v = 2e200 or 2e-110 (2e-200) are powers of v out of the float range,
    which failed with a domain error.  The point obstructs as the Euclidean
    metric does."""
    metric = tmp_path / "tiny.json"
    metric.write_text(coordinate_metric(3, lambda i, j: (
        entry if i == j == 0 else "1" if i == j else "0")).to_json())
    out = tmp_path / "report.json"
    assert main(["obstruct", str(metric), "--point", "0,0,0", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    (point,) = json.loads(out.read_text())["points"]
    assert (point["stratum"], point["verdict"], point["norm"]) == ("zero", "zero", 0)


@pytest.mark.parametrize("entry, unscaled", [
    ("1e200/(1e200*(2+x1+x2))", "1/(2+x1+x2)"),
    ("1e-110/(1e-110*(2+x1+x2))", "1/(2+x1+x2)"),
    ("log(1e200*(2+x1+x2))", "460.51701859880916+log(2+x1+x2)"),
    ("log(1e-200*(2+x1+x2))+921.03403719761833", "460.51701859880916+log(2+x1+x2)"),
    ("sqrt(1e300*(2+x1+x2))*1e-150", "sqrt(2+x1+x2)"),
])
def test_a_scaled_argument_obstructs_as_the_unscaled_one(tmp_path, entry, unscaled):
    """Where 1/v, log v and sqrt v take an argument past the range of their
    Taylor coefficients, g_00 still has the jets of the unscaled entry, so
    the curved metric gets its Cotton-York tensor and verdict (the scaled
    entries gave a zero gradient and Hessian, or a domain error)."""
    points = []
    for name, g00 in (("scaled", entry), ("unscaled", unscaled)):
        metric = tmp_path / f"{name}.json"
        metric.write_text(coordinate_metric(3, lambda i, j: (
            g00 if i == j == 0 else "1+x1^2*x3" if i == j == 1 else "1" if i == j else "0")
        ).to_json())
        out = tmp_path / f"{name}-report.json"
        assert main(["obstruct", str(metric), "--point", "0.1,0.2,0.3", "--out", str(out)]) == 0
        (point,) = json.loads(out.read_text())["points"]
        points.append(point)
    scaled, plain = points
    assert plain["verdict"] == "no_lcw_certified" and plain["norm"] > 1e-3
    assert (scaled["stratum"], scaled["verdict"]) == (plain["stratum"], plain["verdict"])
    for field in ("norm", "obstruction", "eigenvalues"):
        assert scaled[field] == pytest.approx(plain[field], rel=1e-12, abs=1e-14), field


def test_a_division_by_zero_in_the_tape_alone_is_an_evaluation_error(tmp_path, capsys):
    """The tape forms x1*x2*x3 and x3*x2*x1 as one product, so their
    difference is an exact 0 in the tape; at (-0.97, 0.63, 0.83) the walk's
    (x1*x2)*x3 and (x3*x2)*x1 differ by one ulp, so it raises nothing.  The
    tape's error is still an evaluation error: exit 3 and an error row."""
    x, y, z = -0.97, 0.63, 0.83
    assert (x * y) * z != (z * y) * x
    metric = tmp_path / "cancel.json"
    metric.write_text(coordinate_metric(3, lambda i, j: (
        "2+0.01/(x1*x2*x3-x3*x2*x1)" if i == j == 0 else "1" if i == j else "0"),
        {"x1": [2 * x, 0.0], "x2": [0.0, 2 * y], "x3": [0.0, 2 * z]}).to_json())
    out = tmp_path / "report"
    assert main(["obstruct", str(metric), f"--point={x},{y},{z}"]) == 3
    assert capsys.readouterr().err == (
        "lcwcheck: evaluation error: domain error: jet division by zero\n")
    assert main(["scan", str(metric), "--grid", "1,1,1", "--out", str(out)]) == 0
    row = out.read_text().splitlines()[-1].split(",")
    assert [float(v) for v in row[:3]] == [x, y, z]
    assert row[3:] == ["nan", "nan", "error:ValueError"]


def test_io_error_exit_code(flat4, capsys):
    assert main(["obstruct", str(flat4), "--point", "0,0,0,0",
                 "--out", "/nonexistent-dir/report.json"]) == 5
    assert "i/o error" in capsys.readouterr().err


def test_missing_metric_file_is_io_error(capsys):
    assert main(["curvature", "/no/such/metric.json", "--point", "0,0,0"]) == 5


@pytest.mark.parametrize("args,bad", [
    (["sample", "--dimension", "9", "--count", "1"], "--dimension"),
    (["sample", "--dimension", "3", "--count", "1"], "--dimension"),
    (["sample", "--dimension", "4", "--count", "0"], "--count"),
    (["perturb", "--dimension", "2"], "--dimension"),
    (["perturb", "--dimension", "9"], "--dimension"),
    (["obstruct", "m.json", "--point", "0,0,0", "--starts", "0"], "--starts"),
    (["obstruct", "m.json", "--point", "0,0,0", "--starts", "-3"], "--starts"),
    (["scan", "m.json", "--grid", "2,2,2", "--starts", "0"], "--starts"),
    (["sample", "--dimension", "4", "--count", "1", "--starts", "0"], "--starts"),
    (["obstruct", "m.json", "--point", "0,0,0", "--tol-det=nan"], "--tol-det"),
    (["obstruct", "m.json", "--point", "0,0,0", "--tol-det=-1"], "--tol-det"),
    (["obstruct", "m.json", "--point", "0,0,0", "--tol-det=0"], "--tol-det"),
    (["obstruct", "m.json", "--point", "0,0,0", "--tol-det=1e-9x"], "--tol-det"),
    (["obstruct", "m.json", "--point", "0,0,0", "--tol-eigenflag=inf"], "--tol-eigenflag"),
    (["scan", "m.json", "--grid", "2,2,2", "--tol-eigenflag=-1e-08"], "--tol-eigenflag"),
    (["scan", "m.json", "--grid", "2,2,2", "--tol-det=-inf"], "--tol-det"),
    (["solve-cy", "--target", "1", "-1", "0", "0", "0", "0", "--tol-det=nan"], "--tol-det"),
    (["solve-cy", "--target", "1", "-1", "0", "0", "0", "0", "--tol-det", "0"], "--tol-det"),
])
def test_out_of_range_sizes_are_parse_errors(tmp_path, capsys, args, bad):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([*args, "--out", str(out)])
    assert exc.value.code == 2
    assert f"argument {bad}: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["obstruct", "M", "--point", "0,0,0,0"],
    ["scan", "M", "--grid", "2,1,1,1"],
    ["sample", "--dimension", "4", "--count", "1"],
    ["perturb", "--dimension", "4"],
])
def test_negative_seeds_are_parse_errors(flat4, tmp_path, capsys, args):
    out = tmp_path / "out"
    args = [str(flat4) if a == "M" else a for a in args]
    with pytest.raises(SystemExit) as exc:
        main([*args, "--seed", "-1", "--out", str(out)])
    assert exc.value.code == 2
    assert "argument --seed: bad seed '-1': must be at least 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", ["nan", "inf"])
def test_perturb_rejects_a_scale_that_is_not_finite(tmp_path, capsys, scale):
    out = tmp_path / "metric.json"
    assert main(["perturb", "--dimension", "4", "--scale", scale, "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        "lcwcheck: evaluation error: curvature tensor must be finite\n")
    assert not out.exists()
    with pytest.raises(ValueError, match="curvature tensor must be finite"):
        AlgebraicCurvature(4, np.full((4,) * 4, np.inf))


def test_solve_cy_takes_negative_targets_in_exponent_form(tmp_path, capsys):
    values = ["-9.114520310293805e-05", "0", "9.114520310293805e-05", "0", "0", "0"]
    out = tmp_path / "cubic.json"
    assert main(["solve-cy", "--target", *values, "--out", str(out)]) == 0
    doc = json.loads(capsys.readouterr().out)
    target = np.diag([-9.114520310293805e-05, 0.0, 9.114520310293805e-05])
    assert doc["target"] == target.tolist()
    achieved = curvature_package(load_metric(out), np.zeros(3)).cotton_york
    assert np.linalg.norm(achieved - target) <= 1e-7 * np.linalg.norm(target)
    assert np.allclose(doc["achieved"], target, rtol=0, atol=1e-12 * np.linalg.norm(target))


def test_solve_cy_values_a_near_double_spectrum_as_lapack_does(capsys):
    # the achieved spectrum, about (-0.02, 0.01, 0.01 + 7.6e-12), is within
    # 7.6e-12 of a double eigenvalue
    values = ["-0.010841143568679091", "0.004443422657252945", "0.006397720911426146",
              "-0.010761292960331001", "0.008664618620374698", "0.004473962716414633"]
    assert main(["solve-cy", "--target", *values]) == 0
    doc = json.loads(capsys.readouterr().out)
    achieved = np.array(doc["achieved"])
    gap = np.abs(np.array(doc["achieved_eigenvalues"]) - np.linalg.eigvalsh(achieved)).max()
    assert gap <= 1e-13 * np.linalg.norm(achieved)


def test_solve_cy_rejects_a_target_that_is_not_trace_free(tmp_path, capsys):
    out = tmp_path / "cubic.json"
    assert main(["solve-cy", "--target", "0.01", "0.01", "0.01", "0", "0", "0",
                 "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        "lcwcheck: evaluation error: Cotton-York tensor must be trace-free\n")
    assert not out.exists()


def test_solve_cy_rejects_a_target_that_is_not_finite(tmp_path, capsys):
    out = tmp_path / "cubic.json"
    assert main(["solve-cy", "--target", "nan", "0", "0", "0", "0", "0",
                 "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        "lcwcheck: evaluation error: Cotton-York tensor must be finite\n")
    assert not out.exists()
    with pytest.raises(ValueError, match="must be finite"):
        solve_cy_target(np.diag([np.inf, -np.inf, 0.0]))


@pytest.mark.parametrize("target", [np.diag([1.0, 1.0, 1.0]),
                                    np.array([[0, 1, 0], [0, 0, 0], [0, 0, 0.0]]),
                                    np.zeros((2, 2)),
                                    np.diag([np.nan, 0.0, 0.0])])
def test_solve_cy_checks_its_target_as_a_cotton_york_tensor(target):
    with pytest.raises(ValueError) as tensor_error:
        CottonYorkTensor.from_matrix(target)
    with pytest.raises(ValueError) as target_error:
        solve_cy_target(target)
    assert str(target_error.value) == str(tensor_error.value)


def test_curvature_command_in_dimension_3(tmp_path, capsys):
    metric = tmp_path / "cy.json"
    metric.write_text(solve_cy_target(0.01 * np.diag([2.0, -1.0, -1.0])).metric.to_json())
    assert main(["curvature", str(metric), "--point", "0,0,0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    cy = np.array(doc["components_frame"]["cotton_york"])
    assert cy.shape == (3, 3) and np.array(doc["components_frame"]["cotton"]).shape == (3, 3, 3)
    assert doc["norms"]["cotton_york"] == np.linalg.norm(cy) > 0.0
    assert doc["cotton_york_det"] == np.linalg.det(cy) != 0.0


_GOOD = {"dimension": 3, "coordinates": ["x1", "x2", "x3"], "g": _ROWS}


@pytest.mark.parametrize("document,message", [
    (dict(_GOOD, coordinates=["1x", "x2", "x3"]), "invalid coordinate name '1x'"),
    (dict(_GOOD, coordinates=["x1", "x2"]), "expected 3 coordinate names, got 2"),
    (dict(_GOOD, g=[[1, "0", "0"], [None, "1", "0"], [None, None, "1"]]),
     "g[0][0] must be an expression string"),
    (dict(_GOOD, domain=[[-1, 1]]), "'domain' must be an object mapping coordinates to [lo, hi]"),
    (dict(_GOOD, domain={"x2": [0]}), "domain for 'x2' must be a [lo, hi] pair"),
    ([_GOOD], "document must be a JSON object"),
], ids=["digit-name", "name-count", "number-entry", "domain-list", "short-interval",
        "not-an-object"])
def test_metric_document_errors_exit_2_with_their_message(tmp_path, capsys, document, message):
    metric = tmp_path / "m.json"
    metric.write_text(json.dumps(document))
    assert main(["obstruct", str(metric), "--point", "0,0,0"]) == 2
    assert capsys.readouterr().err == f"lcwcheck: parse error: {message}\n"


@pytest.mark.parametrize("args,message", [
    (["obstruct", "M", "--point", "0,x"],
     "argument --point: bad point '0,x': expected comma-separated floats"),
    (["scan", "M", "--grid", "2,a"],
     "argument --grid: bad grid '2,a': expected comma-separated counts"),
    (["obstruct", "M", "--point", "0,0,0,0", "--seed", "x"],
     "argument --seed: bad seed 'x': expected an integer"),
])
def test_malformed_numbers_on_the_command_line_exit_2(flat4, capsys, args, message):
    with pytest.raises(SystemExit) as exc:
        main([str(flat4) if a == "M" else a for a in args])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_obstruct_exits_4_with_its_report_when_no_start_converges(monkeypatch, tmp_path):
    """Only the descent of n >= 5 can leave every start short of convergence."""
    monkeypatch.setattr(eigenflag, "MAXITER", 0)
    metric = tmp_path / "m5.json"
    metric.write_text(perturb_curvature(
        AlgebraicCurvature.random(5, np.random.default_rng(0), scale=0.05)).to_json())
    out = tmp_path / "report.json"
    assert main(["obstruct", str(metric), "--point", "0,0,0,0,0", "--out", str(out)]) == 4
    point = json.loads(out.read_text())["points"][0]
    assert point["optimizer_converged"] is False
    assert point["eigenflag_verdict"] != "weyl_negligible"


def test_obstruct_never_exits_4_in_dimension_4(monkeypatch, tmp_path):
    """n = 4 takes the closed form, which runs no descent round."""
    monkeypatch.setattr(eigenflag, "MAXITER", 0)
    metric = tmp_path / "m4.json"
    metric.write_text(perturb_curvature(
        AlgebraicCurvature.random(4, np.random.default_rng(0), scale=0.05)).to_json())
    out = tmp_path / "report.json"
    assert main(["obstruct", str(metric), "--grid", "2,2,1,1", "--out", str(out)]) == 0
    points = json.loads(out.read_text())["points"]
    assert [p["optimizer_converged"] for p in points] == [True] * 4
    assert all(p["eigenflag_verdict"] != "weyl_negligible" for p in points)


def test_obstruct_orientation_leaves_the_4d_obstruction(tmp_path):
    metric = tmp_path / "m4.json"
    metric.write_text(perturb_curvature(
        AlgebraicCurvature.random(4, np.random.default_rng(3), scale=0.05)).to_json())
    obstructions = []
    for orientation in ("1", "-1"):
        out = tmp_path / f"report{orientation}.json"
        assert main(["obstruct", str(metric), "--point=0.1,-0.2,0.3,0",
                     "--orientation", orientation, "--out", str(out)]) == 0
        obstructions.append(json.loads(out.read_text())["points"][0]["obstruction"])
    assert obstructions[0] == obstructions[1] > 0.0
