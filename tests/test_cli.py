import json

import numpy as np
import pytest

from lcwcheck.cli import dumps17, main
from lcwcheck.cottonyork import CottonYorkTensor
from lcwcheck.genericity import obstruct_point
from lcwcheck.metrics import euclidean_metric, load_metric, sphere_stereographic_metric
from lcwcheck.perturb import AlgebraicCurvature, solve_cy_target


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


def test_obstruct_grid_3d_branch(tmp_path, capsys):
    metric = tmp_path / "m3.json"
    metric.write_text(sphere_stereographic_metric(3).to_json())
    assert main(["obstruct", str(metric), "--grid", "2,2,2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["branch"] == "cotton_york"
    assert doc["headline"]["verdict"] == "inconclusive"  # constant curvature: CY = 0
    assert all(r["verdict"] in ("zero", "inconclusive") for r in doc["points"])


def test_perturb_zero_emits_flat_metric(tmp_path, capsys):
    out = tmp_path / "metric.json"
    assert main(["perturb", "--dimension", "4", "--zero", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["g"][0][0] == "1"
    assert doc["g"][2][3] == "0"


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
])
def test_wrong_arity_is_a_parse_error(tmp_path, capsys, args):
    metric = tmp_path / "m3.json"
    metric.write_text(euclidean_metric(3).to_json())
    out = tmp_path / "report"
    assert main([args[0], str(metric), *args[1:], "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("lcwcheck: parse error: ") and "3" in err
    assert not out.exists()


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


@pytest.mark.parametrize("entry", ["(" * 1200 + "1+x1" + ")" * 1200, "-" * 1200 + "x1+2"],
                         ids=["parentheses", "minuses"])
def test_deeply_nested_entries_are_parse_errors(tmp_path, capsys, entry):
    metric = tmp_path / "deep.json"
    metric.write_text(json.dumps({
        "dimension": 3, "coordinates": ["x1", "x2", "x3"],
        "g": [[entry, "0", "0"], [None, "1", "0"], [None, None, "1"]]}))
    assert main(["obstruct", str(metric), "--point", "0.1,0.2,0.3"]) == 2
    assert capsys.readouterr().err == (
        "lcwcheck: parse error: g[0][0]: expression nested too deeply (offset 100)\n")


def test_evaluation_error_exit_code(tmp_path, capsys):
    metric = tmp_path / "m.json"
    metric.write_text(euclidean_metric(4).to_json())
    assert main(["curvature", str(metric), "--point", "5,0,0,0"]) == 3
    assert "evaluation error" in capsys.readouterr().err

    nonpd = tmp_path / "nonpd.json"
    nonpd.write_text(json.dumps({
        "dimension": 3, "coordinates": ["x1", "x2", "x3"],
        "g": [["x1", "0", "0"], [None, "1", "0"], [None, None, "1"]]}))
    assert main(["curvature", str(nonpd), "--point=-0.5,0,0"]) == 3


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
