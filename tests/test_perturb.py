import re
from itertools import permutations

import numpy as np
import pytest

from lcwcheck import perturb
from lcwcheck.bivectors import to_operator
from lcwcheck.cottonyork import classify_cy
from lcwcheck.curvature import curvature_package, kulkarni_nomizu
from lcwcheck.eigenflag import construct_stratum4, min_residual
from lcwcheck.genericity import grid_points, obstruct_point
from lcwcheck.jets import MetricNotPositive, SymIndex, metric_jets
from lcwcheck.metrics import MetricSpec, parse_metric
from lcwcheck.perturb import (AlgebraicCurvature, CottonCoefficients, cubic_metric_spec,
                              cy_linear_map, perturb_curvature, solve_cy_target,
                              sym3_to_vec5)

from oracles import vec5_to_sym3


def rel(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300)


# --- algebraic curvature -------------------------------------------------------


def test_random_algebraic_curvature_is_valid():
    rng = np.random.default_rng(1)
    for n in (4, 5):
        r = AlgebraicCurvature.random(n, rng, scale=0.1)  # validates on build
        assert r.norm == pytest.approx(0.1)


def test_space_form_tensor():
    r = AlgebraicCurvature.space_form(4, 1.0)
    assert np.allclose(r.tensor, 0.5 * kulkarni_nomizu(np.eye(4), np.eye(4)))


def test_from_operator_accepts_weyl():
    w = construct_stratum4((1.0, 2.0, -3.0))
    r = AlgebraicCurvature.from_operator(w)
    assert np.allclose(r.tensor, w.tensor())


def test_invalid_tensor_rejected():
    bad = np.zeros((4,) * 4)
    bad[0, 1, 2, 3] = 1.0
    with pytest.raises(ValueError, match="symmetries"):
        AlgebraicCurvature(4, bad)


# --- prescribed curvature ------------------------------------------------------


def test_zero_prescription_gives_flat_metric():
    spec = perturb_curvature(AlgebraicCurvature(4, np.zeros((4,) * 4)))
    doc = spec.to_document()
    assert doc["g"][0][0] == "1" and doc["g"][0][1] == "0"
    pkg = curvature_package(spec, np.zeros(4))
    assert pkg.riemann_norm == 0.0


def test_space_form_round_trip():
    rstar = AlgebraicCurvature.space_form(4, 1.0)
    spec = perturb_curvature(rstar, domain_halfwidth=0.5)
    pkg = curvature_package(spec, np.zeros(4))
    assert np.abs(pkg.coord.riemann - rstar.tensor).max() < 1e-9


def test_random_round_trips():
    rng = np.random.default_rng(3)
    for n in (4, 5):
        for _ in range(5):
            rstar = AlgebraicCurvature.random(n, rng, scale=0.08)
            spec = perturb_curvature(rstar)
            pkg = curvature_package(spec, np.zeros(n))
            assert rel(pkg.coord.riemann, rstar.tensor) < 1e-8


def test_pair_exchange_within_the_tolerance_still_builds():
    # one pair-exchanged component off by a few ulps: the symmetry check takes
    # it, and entry (0, 1) prints other floats than entry (1, 0) would
    t = AlgebraicCurvature.random(4, np.random.default_rng(0), scale=0.05).tensor.copy()
    for index in ((0, 2, 1, 3), (2, 0, 1, 3), (0, 2, 3, 1), (2, 0, 3, 1)):
        t[index] *= 1.0 + 1e-15
    assert t[0, 2, 1, 3] != t[1, 3, 0, 2]
    spec = perturb_curvature(AlgebraicCurvature(4, t))
    pkg = curvature_package(spec, np.zeros(4))
    assert rel(pkg.coord.riemann, t) < 1e-12


def test_stratum_prescription_is_eigenflag_at_origin():
    w = construct_stratum4((0.05, 0.02, -0.07))
    rstar = AlgebraicCurvature.from_operator(w)
    spec = perturb_curvature(rstar)
    pkg = curvature_package(spec, np.zeros(4))
    assert rel(pkg.coord.weyl, rstar.tensor) < 1e-8  # trace-free input: W = R*
    report = min_residual(to_operator(pkg.weyl))
    assert report.residual_min < 1e-8


def test_emitted_document_reparses():
    rng = np.random.default_rng(5)
    rstar = AlgebraicCurvature.random(4, rng, scale=0.05)
    spec = perturb_curvature(rstar)
    again = parse_metric(spec.to_json())
    assert isinstance(again, MetricSpec)
    p = np.array([0.3, -0.2, 0.1, 0.4])
    assert np.array_equal(again.evaluate(p), spec.evaluate(p))


def test_positivity_rejection():
    with pytest.raises(MetricNotPositive, match="perturbed metric is not positive definite"):
        perturb_curvature(AlgebraicCurvature.space_form(4, 1.0), domain_halfwidth=1.0)


def test_a_failing_prescription_names_the_point_a_point_by_point_scan_finds(monkeypatch):
    check = perturb._check_positivity
    monkeypatch.setattr(perturb, "_check_positivity", lambda spec: None)
    # first failing points: a corner, random points 115 and 94, the second corner, point 0
    cases = [AlgebraicCurvature.space_form(4, 1.0)] + [
        AlgebraicCurvature.random(n, np.random.default_rng(0), scale=scale)
        for n, scale in ((4, 5.0), (8, 5.0), (6, 5.0), (8, 50.0))]
    for rstar in cases:
        n, spec = rstar.n, perturb_curvature(rstar)
        # the check's points one at a time: 200 seeded draws of the box, then its corners
        rng = np.random.default_rng(20240901)
        points = [-1.0 + 2.0 * rng.random(n) for _ in range(200)]
        first = None
        for p in [*points, *grid_points(spec, [2] * n)]:
            try:
                np.linalg.cholesky(spec.evaluate(p))
            except np.linalg.LinAlgError:
                first = p
                break
        assert first is not None
        with pytest.raises(MetricNotPositive) as got:
            check(spec)
        assert str(got.value) == (f"perturbed metric is not positive definite at "
                                  f"{first.tolist()}; shrink the perturbation or the domain box")


def test_halving_the_prescription_halves_the_positivity_margin():
    # distance of g from losing definiteness: 1 - lambda_min(g) is exactly
    # linear in the quadratic perturbation, so halving R* halves it
    rng = np.random.default_rng(7)
    rstar = AlgebraicCurvature.random(4, rng, scale=0.08)
    half = AlgebraicCurvature(4, 0.5 * rstar.tensor)
    g_full = perturb_curvature(rstar)
    g_half = perturb_curvature(half)
    for _ in range(10):
        p = rng.uniform(-1, 1, 4)
        viol_full = 1.0 - np.linalg.eigvalsh(g_full.evaluate(p))[0]
        viol_half = 1.0 - np.linalg.eigvalsh(g_half.evaluate(p))[0]
        assert viol_half == pytest.approx(0.5 * viol_full, abs=1e-12)


def test_bump_cutoff_locality():
    rng = np.random.default_rng(9)
    rstar = AlgebraicCurvature.random(4, rng, scale=0.05)
    pert = perturb_curvature(rstar, radius=0.8)
    assert isinstance(pert, MetricSpec)

    outside = np.array([0.9, 0.0, 0.0, 0.0])
    assert np.array_equal(pert.evaluate(outside), np.eye(4))
    mj = metric_jets(pert, outside)
    assert not mj.dg.any() and not mj.d2g.any() and not mj.d3g.any()

    inside = np.array([0.2, 0.1, 0.0, 0.0])
    assert not np.array_equal(pert.evaluate(inside), np.eye(4))

    # curvature at the center is untouched by the cutoff (phi(0)=1, dphi(0)=0)
    pkg = curvature_package(pert, np.zeros(4))
    assert rel(pkg.coord.riemann, rstar.tensor) < 1e-8


def test_cutoff_validation():
    rstar = AlgebraicCurvature.random(4, np.random.default_rng(9), scale=0.05)
    for radius in (0.0, -0.8, float("inf"), float("nan"), 1e-200, 1e200):
        message = f"bump radius must be .*, got {re.escape(repr(radius))}$"
        with pytest.raises(ValueError, match=message):
            perturb_curvature(rstar, radius=radius)


def test_bump_document_reparses_and_is_flat_without_curvature():
    rstar = AlgebraicCurvature.random(4, np.random.default_rng(9), scale=0.05)
    spec = perturb_curvature(rstar, radius=0.8)
    assert spec.to_document()["g"][0][1].endswith("*bump((x1^2+x2^2+x3^2+x4^2)/0.8^2)")
    again = parse_metric(spec.to_json())
    p = np.array([0.3, -0.2, 0.1, 0.4])
    assert np.array_equal(again.evaluate(p), spec.evaluate(p))
    zero = AlgebraicCurvature(4, np.zeros((4,) * 4))
    assert perturb_curvature(zero, radius=0.8).to_document() == \
        perturb_curvature(zero).to_document()


# --- prescribed Cotton-York -----------------------------------------------------


def test_vec5_round_trip():
    rng = np.random.default_rng(11)
    v = rng.standard_normal(5)
    m = vec5_to_sym3(v)
    assert abs(np.trace(m)) < 1e-14
    assert np.allclose(sym3_to_vec5(m), v)


def test_cy_map_zero_and_rank():
    m = cy_linear_map()
    assert m.shape == (5, 60)
    svals = np.linalg.svd(m, compute_uv=False)
    assert (svals > 1e-10 * svals[0]).sum() == 5
    assert np.allclose(m @ np.zeros(60), 0.0)


def test_cy_map_columns_match_expression_pipeline():
    # second, independent evaluation: emit the document, parse, run the full chain
    m = cy_linear_map()
    rng = np.random.default_rng(13)
    for d in rng.choice(60, size=6, replace=False):
        packed = np.zeros(60)
        packed[d] = 1e-3  # keep the cubic term positive-definite-friendly
        spec = cubic_metric_spec(CottonCoefficients(packed), domain_halfwidth=0.3)
        pkg = curvature_package(spec, np.zeros(3))
        assert np.allclose(sym3_to_vec5(pkg.cotton_york), 1e-3 * m[:, d], atol=1e-12)


def test_cy_map_linearity_through_pipeline():
    rng = np.random.default_rng(17)
    a = 1e-3 * rng.standard_normal(60)
    b = 1e-3 * rng.standard_normal(60)
    al, be = 0.7, -1.3

    def cy_of(packed):
        spec = cubic_metric_spec(CottonCoefficients(packed), domain_halfwidth=0.3)
        return curvature_package(spec, np.zeros(3)).cotton_york

    lhs = cy_of(al * a + be * b)
    rhs = al * cy_of(a) + be * cy_of(b)
    assert np.abs(lhs - rhs).max() < 1e-10


def test_solve_cy_zero_target():
    sol = solve_cy_target(np.zeros((3, 3)))
    assert not sol.coefficients.packed.any()
    assert sol.achieved.norm == 0.0


def test_solve_cy_singular_target():
    sol = solve_cy_target(0.01 * np.diag([1.0, -1.0, 0.0]))
    assert np.abs(sol.achieved.matrix - sol.target).max() < 1e-7 * 1.01
    assert classify_cy(sol.achieved) == "regular_singular"


def test_solve_cy_nonsingular_target():
    sol = solve_cy_target(0.01 * np.diag([2.0, -1.0, -1.0]))
    assert sol.achieved.determinant == pytest.approx(2e-6, rel=1e-7)
    assert obstruct_point(sol.metric, np.zeros(3)).verdict == "no_lcw_certified"


def test_solve_cy_rejects_bad_targets():
    with pytest.raises(ValueError, match="trace-free"):
        solve_cy_target(np.eye(3))
    with pytest.raises(ValueError, match="symmetric"):
        solve_cy_target(np.array([[0, 1, 0], [0, 0, 0], [0, 0, 0.0]]))


def test_cubic_document_round_trip():
    rng = np.random.default_rng(19)
    packed = 1e-3 * rng.standard_normal(60)
    spec = cubic_metric_spec(CottonCoefficients(packed))
    again = parse_metric(spec.to_json())
    p = np.array([0.2, -0.1, 0.3])
    assert np.array_equal(again.evaluate(p), spec.evaluate(p))


def test_cotton_coefficients_validation():
    with pytest.raises(ValueError, match="60"):
        CottonCoefficients(np.zeros(10))
    full = CottonCoefficients(np.arange(60.0)).full()
    assert np.allclose(full, full.transpose(1, 0, 2, 3, 4))
    assert np.allclose(full, full.transpose(0, 1, 3, 2, 4))
    assert np.allclose(full, full.transpose(0, 1, 2, 4, 3))


def test_cotton_coefficients_full_matches_the_entrywise_expansion():
    packed = np.random.default_rng(23).standard_normal(60)
    want = np.zeros((3, 3, 3, 3, 3))
    for p, (i, j) in enumerate(SymIndex(3).pairs):
        for t, klm in enumerate(SymIndex(3).triples):
            for k, l, m in set(permutations(klm)):
                want[i, j, k, l, m] = want[j, i, k, l, m] = packed[p * 10 + t]
    assert np.array_equal(CottonCoefficients(packed).full(), want)
