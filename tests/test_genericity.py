import numpy as np
import pytest
from scipy.stats import ks_2samp

from lcwcheck import eigenflag, genericity
from lcwcheck.bivectors import bianchi_map, ricci_contraction
from lcwcheck.eigenflag import construct_stratum4, min_residual
from lcwcheck.genericity import (SampleStats, fmt17, grid_points, obstruct_point,
                                 random_polynomial_metric, residual_statistics,
                                 sample_weyl, scan_metric)
from lcwcheck.metrics import euclidean_metric, make_metric, parse_metric

from oracles import domain_points


def product_metric_4d():
    return parse_metric(
        '{"dimension": 4, "coordinates": ["x1", "x2", "x3", "x4"],'
        ' "g": [["1", "0", "0", "0"],'
        '       [null, "1+0.3*x3^2", "0.1*x3*x4", "0"],'
        '       [null, null, "1+0.2*x4^2+0.1*x2^2", "0.05*x2"],'
        '       [null, null, null, "1+0.15*x2^2"]]}')


def product_metric_3d():
    return parse_metric(
        '{"dimension": 3, "coordinates": ["x1", "x2", "x3"],'
        ' "g": [["1", "0", "0"],'
        '       [null, "1+0.3*x3^2+0.1*x2^2", "0.2*x2*x3"],'
        '       [null, null, "1+0.25*x2^2"]]}')


def test_sample_weyl_contract():
    rng = np.random.default_rng(0)
    for n in (4, 5):
        w = sample_weyl(n, rng)
        assert w.norm == pytest.approx(1.0, rel=1e-12)
        assert np.linalg.norm(bianchi_map(w.matrix)) < 1e-10
        assert np.linalg.norm(ricci_contraction(w.matrix)) < 1e-10
    with pytest.raises(ValueError):
        sample_weyl(3, rng)


def test_sample_weyl_seed_determinism():
    a = sample_weyl(5, np.random.default_rng(123))
    b = sample_weyl(5, np.random.default_rng(123))
    assert np.array_equal(a.matrix, b.matrix)


def test_sample_mean_is_centered():
    rng = np.random.default_rng(1)
    mean = np.zeros((6, 6))
    for _ in range(1000):
        mean += sample_weyl(4, rng).matrix
    assert np.linalg.norm(mean / 1000.0) < 0.1


def test_residual_statistics_determinism_and_quantiles():
    s1 = residual_statistics(4, 12, seed=7)
    s2 = residual_statistics(4, 12, seed=7)
    assert isinstance(s1, SampleStats)
    assert np.array_equal(s1.residuals, s2.residuals)
    assert s1.to_csv() == s2.to_csv()
    q = s1.quantiles
    assert q["min"] <= q["q05"] <= q["q50"] <= q["q95"]
    assert s1.threshold == q["q05"]
    assert (s1.residuals > 0).all()


def test_residual_statistics_descends_in_batches_with_per_operator_bits(monkeypatch):
    """min_residuals descends in chunks of its own (58 operators at n = 5,
    so 70 leave the last one part full, and chunks of a patched budget);
    residual_statistics calls it once, and every operator gets the report
    min_residual gives it alone, and the same CSV bytes."""
    rng = np.random.default_rng(11)
    singles = [min_residual(sample_weyl(5, rng)) for _ in range(70)]
    want_csv = "index,residual_min,verdict\n" + "".join(
        f"{k},{fmt17(r.residual_min)},{r.verdict}\n" for k, r in enumerate(singles))
    descend, batched = eigenflag._descend, genericity.min_residuals
    for budget, sizes in ((None, [58, 12]), (8 * 40 * 15 ** 2, [8] * 8 + [6])):
        if budget is not None:  # 8 operators of 40 starts, N^2 = 15^2 floats each
            monkeypatch.setattr(eigenflag, "DESCENT_BUDGET", budget)
        calls, chunks = [], []

        def spy(ws, **kwargs):
            calls.append(batched(ws, **kwargs))
            return calls[-1]

        def chunk_spy(pairs, live, *args):
            chunks.append(len(live))
            return descend(pairs, live, *args)

        monkeypatch.setattr(genericity, "min_residuals", spy)
        monkeypatch.setattr(eigenflag, "_descend", chunk_spy)
        stats = residual_statistics(5, 70, seed=11)
        assert len(calls) == 1
        assert chunks == sizes
        for got, want in zip(calls[0], singles, strict=True):
            for name in ("residual_min", "raw_residual", "minimizer", "verdict",
                         "iterations", "converged"):
                assert np.asarray(getattr(got, name)).tobytes() == \
                    np.asarray(getattr(want, name)).tobytes(), name
        assert stats.to_csv() == want_csv


def test_planted_stratum_sample_is_detected():
    planted = construct_stratum4((0.4, 0.1, -0.5))
    stats = residual_statistics(4, 10, seed=3, extra_operators=[planted])
    assert stats.quantiles["min"] < 1e-10
    assert stats.residuals[:10].min() > 1e-6  # the random part stays away
    # the CSV carries min_residual's own verdicts, planted row last
    assert stats.to_csv().splitlines()[-1].endswith(",eigenflag_within_tol")
    assert stats.verdicts[-1] == "eigenflag_within_tol"


def test_adjacent_seeds_statistically_indistinguishable():
    a = residual_statistics(4, 100, seed=100).residuals
    b = residual_statistics(4, 100, seed=101).residuals
    assert ks_2samp(a, b).statistic < 0.2


def test_scan_product_metric_4d():
    result = scan_metric(product_metric_4d(), (3, 3, 3, 3), starts=8)
    assert len(result.rows) == 81
    for row in result.rows:
        assert row.verdict == "eigenflag_within_tol"
        assert row.obstruction < 1e-8


def test_scan_product_metric_3d():
    result = scan_metric(product_metric_3d(), (5, 5, 5))
    assert len(result.rows) == 125
    for row in result.rows:
        assert row.verdict in ("regular_singular", "zero")
        assert abs(row.obstruction) < 1e-9 * max(row.norm, 1e-12) ** 3


def test_scan_flat_metric():
    result = scan_metric(euclidean_metric(4), (2, 2, 2, 2))
    assert all(row.verdict == "weyl_negligible" for row in result.rows)
    assert all(row.norm == 0.0 for row in result.rows)
    v = obstruct_point(euclidean_metric(4), result.rows[0].point)
    assert (v.branch, v.label, v.verdict) == ("weyl_eigenflag", "weyl_negligible",
                                              "weyl_negligible")
    result3 = scan_metric(euclidean_metric(3), (2, 2, 2))
    assert all(row.verdict == "zero" for row in result3.rows)


def test_scan_csv_determinism_and_format():
    result1 = scan_metric(product_metric_3d(), (3, 3, 3))
    result2 = scan_metric(product_metric_3d(), (3, 3, 3))
    csv1, csv2 = result1.to_csv(), result2.to_csv()
    assert csv1 == csv2
    header = csv1.splitlines()[0]
    assert header == "x1,x2,x3,norm,obstruction,verdict"
    assert len(csv1.splitlines()) == 1 + 27
    # every row is the engine's verdict at that point, labelled by branch
    for row, point in zip(result1.rows, grid_points(product_metric_3d(), (3, 3, 3))):
        v = obstruct_point(product_metric_3d(), point)
        assert row.point == v.point
        assert (row.norm, row.obstruction, row.verdict) == (v.norm, v.obstruction, v.label)
        assert v.verdict == {"nonsingular": "no_lcw_certified",
                             "zero": "zero"}.get(v.label, "inconclusive")


def test_scan_records_per_point_errors():
    spec = make_metric(3, ["x1", "x2", "x3"],
                       [["1+log(x1+0.5)", "0", "0"], [None, "1", "0"], [None, None, "1"]])
    result = scan_metric(spec, (5, 1, 1))
    verdicts = [row.verdict for row in result.rows]
    assert any(v.startswith("error:") for v in verdicts)
    assert any(not v.startswith("error:") for v in verdicts)


def test_scan_grid_validation():
    with pytest.raises(ValueError, match="grid"):
        scan_metric(euclidean_metric(3), (5, 5))
    with pytest.raises(ValueError, match="grid"):
        grid_points(euclidean_metric(3), (0, 3, 3))
    mesh = grid_points(euclidean_metric(3), (2, 1, 3))
    assert mesh.shape == (6, 3)
    assert mesh[0].tolist() == [-1.0, 0.0, -1.0] and mesh[-1].tolist() == [1.0, 0.0, 1.0]


def test_fmt17_representation():
    assert fmt17(0.1) == "0.10000000000000001"
    assert fmt17(1.0) == "1"
    assert fmt17(2e-6) == "1.9999999999999999e-06"
    assert float(fmt17(2e-6)) == 2e-6  # 17 significant digits round-trip


def test_random_polynomial_metric_is_positive_on_box():
    rng = np.random.default_rng(5)
    for n in (3, 4, 5):
        spec = random_polynomial_metric(n, rng)
        for p in domain_points(spec, 50, rng):
            np.linalg.cholesky(spec.evaluate(p))  # raises if not PD
