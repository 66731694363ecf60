import numpy as np
import pytest

from lcwcheck.bivectors import bianchi_map, ricci_contraction, to_operator
from lcwcheck.curvature import (DimensionError, cotton_york, curvature_package,
                                kulkarni_nomizu, orthonormal_frame, rotate_tensor,
                                schouten)
from lcwcheck.eigenflag import min_residual
from lcwcheck.genericity import random_polynomial_metric
from lcwcheck.jets import metric_jets
from lcwcheck.metrics import (conformally_flat_metric, euclidean_metric,
                              make_metric, parse_metric,
                              sphere_stereographic_metric)

import oracles


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


def rel(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300)


# --- christoffel -------------------------------------------------------------


def test_christoffel_flat_is_zero():
    mj = metric_jets(euclidean_metric(4), [0.2, 0.1, 0.0, -0.3])
    gamma, dgamma, d2gamma = oracles.christoffel(mj)
    assert not gamma.any() and not dgamma.any() and not d2gamma.any()


def test_christoffel_polar_like():
    spec = parse_metric(
        '{"dimension": 3, "coordinates": ["x1", "x2", "x3"],'
        ' "g": [["1", "0", "0"], [null, "x1^2", "0"], [null, null, "1"]],'
        ' "domain": {"x1": [0.5, 3.0]}}')
    gamma, _, _ = oracles.christoffel(metric_jets(spec, [2.0, 0.3, 0.0]))
    assert gamma[0, 1, 1] == pytest.approx(-2.0, abs=1e-12)
    assert gamma[1, 0, 1] == pytest.approx(0.5, abs=1e-12)


def test_christoffel_conformal_closed_form():
    # g = exp(2f) delta with f = 0.3 x1 + 0.1 x2^2: closed-form symbols
    n = 4
    spec = conformally_flat_metric(n, "0.3*x1+0.1*x2^2")
    rng = np.random.default_rng(1)
    for _ in range(5):
        p = rng.uniform(-0.8, 0.8, n)
        df = np.zeros(n)
        df[0] = 0.3
        df[1] = 0.2 * p[1]
        want = np.zeros((n, n, n))
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    want[k, i, j] = ((i == k) * df[j] + (j == k) * df[i]
                                     - (i == j) * df[k])
        gamma, _, _ = oracles.christoffel(metric_jets(spec, p))
        assert np.abs(gamma - want).max() < 1e-10


# --- riemann / ricci / schouten ---------------------------------------------


def test_riemann_flat():
    pkg = curvature_package(euclidean_metric(5), np.zeros(5))
    assert pkg.riemann_norm == 0.0


def test_riemann_sphere_sectional_curvature():
    pkg = curvature_package(sphere_stereographic_metric(4), [0.1, 0.2, -0.3, 0.05])
    for i in range(4):
        for j in range(i + 1, 4):
            assert pkg.riemann[i, j, i, j] == pytest.approx(1.0, abs=1e-9)


def test_riemann_product_has_no_mixed_block():
    pkg = curvature_package(product_metric_4d(), [0.3, 0.2, -0.1, 0.4])
    assert np.abs(pkg.riemann[0, 1:, 1:, 1:]).max() < 1e-10 * (1 + pkg.riemann_norm)


def test_riemann_symmetries_and_bianchi():
    rng = np.random.default_rng(7)
    for n in (3, 4, 5):
        spec = random_polynomial_metric(n, rng)
        pkg = curvature_package(spec, rng.uniform(-0.7, 0.7, n))
        r = pkg.riemann
        scale = max(pkg.riemann_norm, 1e-300)
        assert np.abs(r + r.transpose(1, 0, 2, 3)).max() < 1e-10 * scale
        assert np.abs(r + r.transpose(0, 1, 3, 2)).max() < 1e-10 * scale
        assert np.abs(r - r.transpose(2, 3, 0, 1)).max() < 1e-10 * scale
        cyc = r + np.einsum("jkil->ijkl", r) + np.einsum("kijl->ijkl", r)
        assert np.abs(cyc).max() < 1e-10 * scale


def test_ricci_and_scalar():
    pkg = curvature_package(euclidean_metric(4), np.zeros(4))
    assert not pkg.ricci.any() and pkg.scalar == 0.0

    pkg = curvature_package(sphere_stereographic_metric(4), [0.1, -0.2, 0.3, 0.0])
    assert np.abs(pkg.ricci - 3.0 * np.eye(4)).max() < 1e-9
    assert pkg.scalar == pytest.approx(12.0, abs=1e-9)

    pkg3 = curvature_package(sphere_stereographic_metric(3), [0.2, 0.1, -0.1])
    assert pkg3.scalar == pytest.approx(6.0, abs=1e-9)


def test_schouten_values():
    assert not schouten(np.zeros((4, 4)), 0.0, np.eye(4), 4).any()
    # constant curvature kappa = 1 in the orthonormal frame
    s2 = schouten(3.0 * np.eye(4), 12.0, np.eye(4), 4)
    assert np.allclose(s2, 0.5 * np.eye(4))
    pkg = curvature_package(sphere_stereographic_metric(4), [0.3, 0.0, 0.1, 0.0])
    assert np.abs(pkg.schouten - 0.5 * np.eye(4)).max() < 1e-9


# --- kulkarni-nomizu ----------------------------------------------------------


def test_kn_basic_value():
    gg = kulkarni_nomizu(np.eye(4), np.eye(4))
    assert gg[0, 1, 0, 1] == 2.0


def test_kn_ricci_identity_random_metrics():
    rng = np.random.default_rng(11)
    for n in (3, 4, 5):
        spec = random_polynomial_metric(n, rng)
        pkg = curvature_package(spec, rng.uniform(-0.7, 0.7, n))
        sg = kulkarni_nomizu(pkg.schouten, np.eye(n))
        ric_back = np.einsum("ikjk->ij", sg)
        assert np.abs(ric_back - pkg.ricci).max() < 1e-10 * max(1.0, np.linalg.norm(pkg.ricci))


def test_kn_bianchi_vanishes():
    rng = np.random.default_rng(13)
    for n in (4, 5):
        a = rng.standard_normal((n, n))
        a = a + a.T
        op = to_operator(kulkarni_nomizu(a, np.eye(n)))
        assert np.linalg.norm(bianchi_map(op)) < 1e-12 * max(np.linalg.norm(op), 1.0)


# --- weyl ----------------------------------------------------------------------


def test_weyl_vanishes_for_constant_curvature():
    for n in (3, 4, 5):
        pkg = curvature_package(sphere_stereographic_metric(n), 0.1 * np.ones(n))
        assert pkg.weyl_norm < 1e-9


def test_weyl_vanishes_conformally_flat():
    rng = np.random.default_rng(19)
    for n in (4, 5):
        spec = conformally_flat_metric(n, "0.3*x1+0.2*x2^2-0.1*x1*x3")
        pkg = curvature_package(spec, rng.uniform(-0.6, 0.6, n))
        assert pkg.weyl_norm < 1e-8 * max(pkg.riemann_norm, 1e-12)


def test_weyl_constant_conformal_scaling():
    rng = np.random.default_rng(29)
    spec = random_polynomial_metric(4, rng)
    doc = spec.to_document()
    c = 0.37
    scaled = make_metric(4, doc["coordinates"],
                         [[f"exp({2 * c!r})*({doc['g'][i][j]})" for j in range(4)]
                          for i in range(4)])
    p = rng.uniform(-0.7, 0.7, 4)
    w1 = curvature_package(spec, p).coord.weyl
    w2 = curvature_package(scaled, p).coord.weyl
    assert rel(w2, np.exp(2 * c) * w1) < 1e-10


def test_weyl_is_trace_free():
    rng = np.random.default_rng(31)
    for n in (4, 5):
        pkg = curvature_package(random_polynomial_metric(n, rng), rng.uniform(-0.7, 0.7, n))
        op = to_operator(pkg.weyl)
        assert np.linalg.norm(ricci_contraction(op)) < 1e-10 * max(pkg.riemann_norm, 1e-12)
        assert np.linalg.norm(bianchi_map(op)) < 1e-10 * max(pkg.riemann_norm, 1e-12)


def test_decomposition_reassembles():
    rng = np.random.default_rng(37)
    for n in (3, 4, 5):
        pkg = curvature_package(random_polynomial_metric(n, rng), rng.uniform(-0.7, 0.7, n))
        back = pkg.weyl + kulkarni_nomizu(pkg.schouten, np.eye(n))
        assert np.abs(back - pkg.riemann).max() < 1e-11 * max(pkg.riemann_norm, 1e-12)


# --- cotton / cotton-york -------------------------------------------------------


def test_cotton_constant_curvature_vanishes():
    pkg = curvature_package(sphere_stereographic_metric(3), [0.2, -0.1, 0.3])
    assert pkg.cotton_norm < 1e-9


def test_cotton_conformal_invariance_dim3():
    spec = product_metric_3d()
    doc = spec.to_document()
    scaled = make_metric(3, doc["coordinates"],
                         [[f"exp(2*(0.3*x1))*({doc['g'][i][j]})" for j in range(3)]
                          for i in range(3)])
    rng = np.random.default_rng(41)
    for _ in range(4):
        p = rng.uniform(-0.7, 0.7, 3)
        c1 = curvature_package(spec, p).coord.cotton
        c2 = curvature_package(scaled, p).coord.cotton
        assert rel(c2, c1) < 1e-8


def test_cotton_symmetries_random_metric():
    rng = np.random.default_rng(43)
    for n in (3, 4):
        pkg = curvature_package(random_polynomial_metric(n, rng), rng.uniform(-0.7, 0.7, n))
        c = pkg.cotton
        scale = max(np.linalg.norm(c), 1e-300)
        assert np.abs(c + np.einsum("jik->ijk", c)).max() < 1e-10 * scale
        cyc = c + np.einsum("jki->ijk", c) + np.einsum("kij->ijk", c)
        assert np.abs(cyc).max() < 1e-10 * scale
        assert np.abs(np.einsum("iik->k", c)).max() < 1e-10 * scale
        assert np.abs(np.einsum("iji->j", c)).max() < 1e-10 * scale


def test_cotton_york_basics():
    pkg = curvature_package(euclidean_metric(3), np.zeros(3))
    assert not pkg.cotton_york.any()

    rng = np.random.default_rng(47)
    pkg = curvature_package(random_polynomial_metric(3, rng), rng.uniform(-0.7, 0.7, 3))
    cy = pkg.cotton_york
    scale = max(np.linalg.norm(cy), 1e-300)
    assert abs(np.trace(cy)) < 1e-10 * scale
    assert np.abs(cy - cy.T).max() < 1e-10 * scale


def test_cotton_york_orientation_reversal():
    rng = np.random.default_rng(53)
    spec = random_polynomial_metric(3, rng)
    p = rng.uniform(-0.7, 0.7, 3)
    plus = curvature_package(spec, p, orientation=1).cotton_york
    minus = curvature_package(spec, p, orientation=-1).cotton_york
    assert np.allclose(plus, -minus)


def test_cotton_york_product_metric_is_singular():
    rng = np.random.default_rng(59)
    spec = product_metric_3d()
    for _ in range(5):
        pkg = curvature_package(spec, rng.uniform(-0.9, 0.9, 3))
        cy = pkg.cotton_york
        norm = np.linalg.norm(cy)
        assert abs(np.linalg.det(cy)) < 1e-9 * max(norm, 1e-12) ** 3


def test_cotton_york_wrong_dimension():
    with pytest.raises(DimensionError):
        cotton_york(np.zeros((4, 4, 4)), np.eye(4))


# --- frames, rotation invariance, oracle equivalence ---------------------------


def test_orthonormal_frame_property():
    rng = np.random.default_rng(61)
    for n in (3, 5):
        a = rng.standard_normal((n, n))
        g = a @ a.T + n * np.eye(n)
        f = orthonormal_frame(g)
        assert np.abs(f.T @ g @ f - np.eye(n)).max() < 1e-12 * np.linalg.norm(g)
        assert np.linalg.det(f) > 0


def test_frame_scalars_are_rotation_invariant():
    rng = np.random.default_rng(67)
    spec = random_polynomial_metric(4, rng)
    pkg = curvature_package(spec, rng.uniform(-0.7, 0.7, 4))
    q, r = np.linalg.qr(rng.standard_normal((4, 4)))
    q *= np.sign(np.diag(r))

    w_rot = rotate_tensor(pkg.weyl, q)
    c_rot = rotate_tensor(pkg.cotton, q)
    assert rel(np.linalg.norm(w_rot), pkg.weyl_norm) < 1e-9
    assert rel(np.linalg.norm(c_rot), max(pkg.cotton_norm, 1e-300)) < 1e-9

    res1 = min_residual(to_operator(pkg.weyl)).residual_min
    res2 = min_residual(to_operator(w_rot)).residual_min
    assert abs(res1 - res2) < 1e-9 * max(res1, 1e-12)

    spec3 = random_polynomial_metric(3, rng)
    pkg3 = curvature_package(spec3, rng.uniform(-0.7, 0.7, 3))
    q3, r3 = np.linalg.qr(rng.standard_normal((3, 3)))
    q3 *= np.sign(np.diag(r3))
    cy_rot = rotate_tensor(pkg3.cotton_york, q3)
    assert rel(np.linalg.det(cy_rot), np.linalg.det(pkg3.cotton_york)) < 1e-9


def test_pipeline_vs_fd_oracle():
    rng = np.random.default_rng(71)
    for n in (3, 4):
        spec = random_polynomial_metric(n, rng)
        p = rng.uniform(-0.5, 0.5, n)
        pkg = curvature_package(spec, p)
        g_at = oracles.float_metric(spec)

        scale = max(pkg.riemann_norm, 1e-12)
        assert rel(oracles.christoffel_at(g_at, p), pkg.gamma) < 1e-5
        assert rel(oracles.riemann_at(g_at, p), pkg.coord.riemann) < 1e-5
        assert rel(oracles.ricci_at(g_at, p), pkg.coord.ricci) < 1e-5
        assert abs(oracles.scalar_at(g_at, p) - pkg.scalar) < 1e-5 * max(1, abs(pkg.scalar))
        assert rel(oracles.schouten_at(g_at, p), pkg.coord.schouten) < 1e-5
        assert rel(oracles.cotton_at(g_at, p), pkg.coord.cotton) < 1e-4
        # Weyl vanishes identically for n=3; compare against curvature scale
        assert np.linalg.norm(oracles.weyl_at(g_at, p) - pkg.coord.weyl) < 1e-4 * scale
        if n == 3:
            assert rel(oracles.cotton_york_at(g_at, p), pkg.coord.cotton_york) < 1e-4


def test_curvature_package_takes_one_point():
    spec = random_polynomial_metric(4, np.random.default_rng(3))
    points = oracles.domain_points(spec, 3, np.random.default_rng(4))
    for bad in (points, points[1:2]):
        with pytest.raises(ValueError, match=r"^point must have 4 coordinates$"):
            curvature_package(spec, bad)
    pkg = curvature_package(spec, points[1])
    assert pkg.n == 4 and pkg.point.tobytes() == points[1].tobytes()
