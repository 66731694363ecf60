import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtri

import lcwcheck
from lcwcheck import curvature, eigenflag
from lcwcheck.bivectors import WeylOperator, to_operator
from lcwcheck.curvature import curvature_package
from lcwcheck.eigenflag import (DimensionError, certify_positive_minimum,
                                classify_weyl_spectrum, codim_eigenflag,
                                construct_stratum4, min_residual, residual,
                                sphere_start_set)
from lcwcheck.genericity import sample_weyl
from lcwcheck.metrics import parse_metric

from oracles import (conjugate_operator, face_points, grid_min_both_signs, grid_min_exact,
                     project_weyl, residual_explicit, residual_gradient)


def random_rotation(n, rng):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def product_metric_4d():
    return parse_metric(
        '{"dimension": 4, "coordinates": ["x1", "x2", "x3", "x4"],'
        ' "g": [["1", "0", "0", "0"],'
        '       [null, "1+0.3*x3^2", "0.1*x3*x4", "0"],'
        '       [null, null, "1+0.2*x4^2+0.1*x2^2", "0.05*x2"],'
        '       [null, null, null, "1+0.15*x2^2"]]}')


# --- residual ----------------------------------------------------------------


def test_residual_zero_operator():
    w = WeylOperator(4, np.zeros((6, 6)))
    rng = np.random.default_rng(0)
    for _ in range(5):
        v = rng.standard_normal(4)
        assert residual(w, v / np.linalg.norm(v)) == 0.0


def test_residual_requires_unit_vector():
    w = construct_stratum4((1.0, 2.0, -3.0))
    with pytest.raises(ValueError, match="unit"):
        residual(w, [1.0, 1.0, 0.0, 0.0])


def test_residual_zero_on_stratum_flag():
    w = construct_stratum4((1.0, 2.0, -3.0))
    assert residual(w, [1, 0, 0, 0]) < 1e-12


def test_residual_basis_independence():
    rng = np.random.default_rng(3)
    w = sample_weyl(5, rng)
    t = w.tensor()
    for _ in range(5):
        v = rng.standard_normal(5)
        v /= np.linalg.norm(v)
        via_formula = residual(w, v)
        b1 = residual_explicit(t, v, np.random.default_rng(10))
        b2 = residual_explicit(t, v, np.random.default_rng(20))
        assert via_formula == pytest.approx(b1, abs=1e-12 * max(1, b1))
        assert b1 == pytest.approx(b2, abs=1e-12 * max(1, b1))


def test_residual_even_and_quadratic_scaling():
    rng = np.random.default_rng(5)
    w = sample_weyl(4, rng)
    v = rng.standard_normal(4)
    v /= np.linalg.norm(v)
    assert residual(w, v) == pytest.approx(residual(w, -v), rel=1e-14)
    scaled = WeylOperator(4, 2.5 * w.matrix)
    assert residual(scaled, v) == pytest.approx(2.5 ** 2 * residual(w, v), rel=1e-12)


def test_residual_orthogonal_equivariance():
    rng = np.random.default_rng(7)
    w = sample_weyl(4, rng)
    v = rng.standard_normal(4)
    v /= np.linalg.norm(v)
    q = random_rotation(4, rng)
    # components in the rotated frame, direction with rotated coordinates
    conj = conjugate_operator(w.matrix, q)
    assert residual(conj, q.T @ v) == pytest.approx(residual(w, v), abs=1e-11)


# --- gradient ----------------------------------------------------------------


def test_gradient_zero_cases():
    w = WeylOperator(4, np.zeros((6, 6)))
    v = np.array([1.0, 0, 0, 0])
    assert not residual_gradient(w, v).any()
    ws = construct_stratum4((1.0, 1.0, -2.0))
    assert np.linalg.norm(residual_gradient(ws, v)) < 1e-8


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    h = 1e-6
    for n in (4, 5):
        for _ in range(5):
            w = sample_weyl(n, rng)
            v = rng.standard_normal(n)
            v /= np.linalg.norm(v)
            grad = residual_gradient(w, v)
            assert abs(np.dot(grad, v)) < 1e-12
            for _ in range(5):
                t = rng.standard_normal(n)
                t -= np.dot(t, v) * v
                t /= np.linalg.norm(t)
                vp = v + h * t
                vp /= np.linalg.norm(vp)
                vm = v - h * t
                vm /= np.linalg.norm(vm)
                fd = (residual(w, vp) - residual(w, vm)) / (2 * h)
                assert np.dot(grad, t) == pytest.approx(fd, rel=1e-6, abs=1e-10)


# --- minimization ------------------------------------------------------------


def test_min_residual_product_metric():
    pkg = curvature_package(product_metric_4d(), [0.3, 0.2, -0.1, 0.4])
    report = min_residual(to_operator(pkg.weyl))
    assert report.residual_min < 1e-10
    assert report.verdict == "eigenflag_within_tol"
    gap = min(np.linalg.norm(report.minimizer - np.eye(4)[0]),
              np.linalg.norm(report.minimizer + np.eye(4)[0]))
    assert gap < 1e-4


def test_min_residual_zero_operator():
    report = min_residual(WeylOperator(4, np.zeros((6, 6))))
    assert report.verdict == "weyl_negligible"


def test_min_residual_random_operator_positive():
    rng = np.random.default_rng(13)
    report = min_residual(sample_weyl(5, rng))
    assert report.verdict == "not_eigenflag"
    assert report.residual_min > 1e-4
    assert report.converged.any()


def test_min_residual_reported_value_is_recomputable():
    rng = np.random.default_rng(17)
    w = sample_weyl(4, rng)
    report = min_residual(w)
    again = residual(w, report.minimizer / np.linalg.norm(report.minimizer))
    assert abs(again - report.raw_residual) <= 1e-12 * max(1.0, report.raw_residual)
    assert abs(np.linalg.norm(report.minimizer) - 1.0) < 1e-12


def test_min_residual_determinism():
    rng = np.random.default_rng(19)
    w = sample_weyl(4, rng)
    r1 = min_residual(w, seed=42)
    r2 = min_residual(w, seed=42)
    assert r1.residual_min == r2.residual_min
    assert np.array_equal(r1.minimizer, r2.minimizer)
    r3 = min_residual(w)
    r4 = min_residual(w)
    assert np.array_equal(r3.minimizer, r4.minimizer)


def test_min_residual_inconclusive_band():
    # slightly perturbed eigenflag operator: minimum is positive but lands
    # between the two thresholds, which must be reported as such
    w0 = construct_stratum4((0.6, -0.1, -0.5))
    noise = sample_weyl(4, np.random.default_rng(77))
    w = project_weyl(w0.matrix / np.linalg.norm(w0.matrix) + 1e-2 * noise.matrix)
    report = min_residual(w)
    assert report.verdict == "inconclusive"
    assert 1e-8 < report.residual_min < 1e-4


def test_min_residual_needs_dim_4():
    with pytest.raises(DimensionError):
        min_residual(np.zeros((3, 3)))
    assert eigenflag.DimensionError is curvature.DimensionError
    assert lcwcheck.DimensionError is curvature.DimensionError


def test_start_set_shape_and_antipode_convention():
    pts = sphere_start_set(4, 32)
    assert pts.shape == (32, 4)
    assert np.allclose(np.linalg.norm(pts, axis=1), 1.0)
    # canonical sign: largest-magnitude component is positive
    lead = np.take_along_axis(pts, np.abs(pts).argmax(axis=1)[:, None], axis=1)
    assert (lead > 0).all()
    assert np.array_equal(pts, sphere_start_set(4, 32))
    assert not np.array_equal(pts, sphere_start_set(4, 32, seed=1))


def reference_start_set(n, count, seed):
    """sphere_start_set's steps, with scipy's ndtri as the inverse normal CDF."""
    count = max(count, n)
    pts = ndtri(np.clip(eigenflag._halton(count - n, n), 1e-12, 1 - 1e-12))
    if seed is not None:
        q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
        pts = pts @ (q * np.sign(np.diag(r)))
    pts = np.vstack([np.eye(n), pts])
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    lead = np.take_along_axis(pts, np.abs(pts).argmax(axis=1)[:, None], axis=1)[:, 0]
    return pts * np.where(lead < 0, -1.0, 1.0)[:, None]


@pytest.mark.parametrize("n", range(4, 9))
def test_start_set_is_bit_identical_to_the_scipy_reference(n):
    for count in (1, n, n + 1, 8 * n, 100):
        for seed in (None, 0, 3):
            got, want = sphere_start_set(n, count, seed), reference_start_set(n, count, seed)
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), (count, seed)


def test_ndtri_port_is_bit_identical_to_scipy():
    rng = np.random.default_rng(20240611)
    edges = [1e-12, 1 - 1e-12, math.exp(-2), 1 - math.exp(-2), 0.5]
    edges += [np.nextafter(e, d) for e in edges[2:4] for d in (0.0, 1.0)]
    y = np.concatenate([edges, rng.uniform(1e-12, 1 - 1e-12, 100_000),
                        10.0 ** rng.uniform(-12, -0.5, 10_000)])
    got = np.array([eigenflag._ndtri(v) for v in y.tolist()])
    mismatched = got.view(np.int64) != ndtri(y).view(np.int64)
    assert not mismatched.any(), y[mismatched][:5]


def test_importing_the_package_loads_no_scipy():
    src = str(Path(lcwcheck.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    code = ("import sys, lcwcheck, lcwcheck.cli\n"
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


# --- certification -----------------------------------------------------------


def test_certify_stratum_is_inconclusive():
    w = construct_stratum4((0.5, 0.2, -0.7))
    cert = certify_positive_minimum(w, grid_resolution=12)
    assert not cert.conclusive
    assert cert.lower_bound <= 0.0


def test_certify_rejects_zero_and_wrong_dim():
    with pytest.raises(ValueError, match="zero"):
        certify_positive_minimum(WeylOperator(4, np.zeros((6, 6))))
    rng = np.random.default_rng(23)
    with pytest.raises(DimensionError):
        certify_positive_minimum(sample_weyl(5, rng))


def test_certify_lipschitz_bound_holds_empirically():
    # the certificate rests on |grad E| <= 3 sigma^2 on the sphere; probe it
    rng = np.random.default_rng(41)
    w = sample_weyl(4, rng)
    t = w.tensor()
    gram = np.einsum("ijkl,mjkl->im", t, t)
    sigma2 = np.linalg.eigvalsh(gram)[-1]
    worst = 0.0
    for _ in range(500):
        v = rng.standard_normal(4)
        v /= np.linalg.norm(v)
        worst = max(worst, np.linalg.norm(residual_gradient(w, v)))
    assert worst <= 3.0 * sigma2


def test_certify_positive_for_far_operator():
    # seed/index chosen during calibration for a large minimum (~0.153)
    rng = np.random.default_rng(5)
    w = None
    for _ in range(10):
        w = sample_weyl(4, rng)
    cert = certify_positive_minimum(w, grid_resolution=64)
    assert cert.conclusive
    assert cert.lower_bound > 0.0
    assert cert.grid_min >= min_residual(w).raw_residual - 1e-12


def certificate_operators():
    rng = np.random.default_rng(77)
    planted = []
    for _ in range(3):
        a, b = rng.uniform(-1.0, 1.0, 2)
        planted.append(construct_stratum4((a, b, -a - b), random_rotation(4, rng)))
    return [(sample_weyl(4, rng), False) for _ in range(6)] + [(w, True) for w in planted]


@pytest.mark.parametrize("k", [8, 24])
def test_certify_scores_each_direction_pair_once(k):
    """E is even, so the 4 faces x_a = +1 give the grid minimum of all 8
    faces up to roundoff in E(-v) - E(v), with half the points."""
    for w, planted in certificate_operators():
        cert = certify_positive_minimum(w, grid_resolution=k)
        ref_min, ref_points = grid_min_both_signs(w, k)
        assert cert.points == 4 * k ** 3 == ref_points // 2
        assert ref_min <= cert.grid_min <= ref_min + 1e-15
        ref_bound = ref_min - eigenflag.E_SLACK - cert.lipschitz * cert.covering_radius
        assert cert.conclusive == (ref_bound > 0.0)
        if planted:
            assert not cert.conclusive


@pytest.mark.parametrize("k", [8, 24])
def test_certify_form_minimum_is_within_slack_of_exact(k):
    """The certificate scores its grid on the packed quartic form and
    subtracts E_SLACK, the form's rounding floor at |W| = 1: its grid minimum
    is that of the exact |G'|^2 / 2 to within E_SLACK, so its bound is never
    above the one the exact grid minimum gives."""
    for w, _ in certificate_operators():
        cert = certify_positive_minimum(w, grid_resolution=k)
        exact_min, points = grid_min_exact(w, k)
        assert points == cert.points
        assert abs(cert.grid_min - exact_min) < eigenflag.E_SLACK
        lipschitz_term = cert.lipschitz * cert.covering_radius
        assert cert.lower_bound == cert.grid_min - eigenflag.E_SLACK - lipschitz_term
        assert cert.lower_bound <= exact_min - lipschitz_term


def test_certify_scores_whole_faces_chunk_by_chunk(monkeypatch):
    """The certificate builds each CHUNK of face points from its flat grid
    indices.  At k = 41 a face has 68,921 points, so two chunks, the last
    one short: the chunks it scores are bit for bit those of whole-face
    arrays, and so is its grid minimum."""
    k = 41
    chunk = eigenflag.CHUNK
    assert chunk < k ** 3 < 2 * chunk
    scored = []
    first_values = eigenflag._QuarticForms.first_values

    def record(forms, v):
        scored.append(v.copy())
        return first_values(forms, v)

    monkeypatch.setattr(eigenflag._QuarticForms, "first_values", record)
    w = certificate_operators()[0][0]
    cert = certify_positive_minimum(w, grid_resolution=k)
    whole = [face_points(k, a)[lo:lo + chunk] for a in range(4) for lo in (0, chunk)]
    assert len(scored) == len(whole)
    for got, want in zip(sorted(scored, key=lambda x: x[0].tolist()),
                         sorted(whole, key=lambda x: x[0].tolist())):
        assert np.array_equal(got, want)
    forms = eigenflag._QuarticForms((w.tensor() / w.norm)[None])
    assert cert.grid_min == min(float(first_values(forms, x).min()) for x in whole)


# --- strata ------------------------------------------------------------------


def test_codimension_formula():
    assert codim_eigenflag(4) == 2
    assert codim_eigenflag(5) == 12
    assert codim_eigenflag(6) == 30
    with pytest.raises(DimensionError):
        codim_eigenflag(3)


def test_construct_stratum4_invariants():
    w = construct_stratum4((1.0, 1.0, -2.0))  # validated as a WeylOperator on build
    assert residual(w, [1, 0, 0, 0]) < 1e-12
    assert classify_weyl_spectrum(w) == "double_quadruple"

    w2 = construct_stratum4((1.0, 2.0, -3.0))
    assert classify_weyl_spectrum(w2) == "three_double_eigenvalues"

    w0 = construct_stratum4((0.0, 0.0, 0.0))
    assert not w0.matrix.any()
    assert classify_weyl_spectrum(w0) == "zero"

    with pytest.raises(ValueError, match="sum to zero"):
        construct_stratum4((1.0, 1.0, -1.0))


def test_construct_stratum4_frame_equivariance():
    # every frame vector is a flag direction of the diagonal-on-simple-bivectors
    # operator, so the minimizer must align with some column of the frame
    rng = np.random.default_rng(29)
    for _ in range(3):
        q = random_rotation(4, rng)
        w = construct_stratum4((0.7, -0.2, -0.5), frame=q)
        report = min_residual(w)
        assert report.residual_min < 1e-10
        gap = min(min(np.linalg.norm(report.minimizer - s * q[:, k])
                      for s in (1, -1)) for k in range(4))
        assert gap < 1e-4
    with pytest.raises(ValueError, match="orthogonal"):
        construct_stratum4((1.0, 0.0, -1.0), frame=np.ones((4, 4)))


def test_classify_generic_sample_is_other():
    rng = np.random.default_rng(31)
    assert classify_weyl_spectrum(sample_weyl(4, rng)) == "other"


# --- the packed quartic form of E ----------------------------------------------


def tangent_unit(x, rng):
    t = rng.standard_normal(len(x))
    t -= np.dot(t, x) * x
    return t / np.linalg.norm(t)


@pytest.mark.parametrize("n", range(4, 9))
def test_quartic_form_matches_residual_gradient_and_hessian(n):
    """E, its Riemannian gradient and Hessian from K agree with the exact
    |G'|^2 / 2, the oracle gradient and central differences of it."""
    rng = np.random.default_rng(90 + n)
    ops = [sample_weyl(n, rng), WeylOperator(n, 3.0 * sample_weyl(n, rng).matrix)]
    v = rng.standard_normal((5, n))
    if n == 4:  # a planted flag: E vanishes at the first frame vector
        frame = random_rotation(4, rng)
        ops.append(construct_stratum4((0.6, -0.1, -0.5), frame))
        v[0] = frame[:, 0]
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    forms = eigenflag._QuarticForms(np.stack([w.tensor() for w in ops]))
    h = 1e-5
    for p, w in enumerate(ops):
        scale = w.norm ** 2
        e, u = forms.values(v, np.full(len(v), p))
        rgrad, hess = forms.derivatives(v, u)
        exact = np.array([residual(w, x) for x in v])
        assert np.abs(e - exact).max() <= 1e-14 * scale
        for x, g, hx in zip(v, rgrad, hess):
            assert np.abs(g - residual_gradient(w, x)).max() <= 1e-13 * scale
            for _ in range(3):
                t = tangent_unit(x, rng)
                plus, minus = x + h * t, x - h * t
                fd = (residual_gradient(w, plus / np.linalg.norm(plus))
                      - residual_gradient(w, minus / np.linalg.norm(minus))) / (2 * h)
                fd -= np.dot(fd, x) * x
                assert np.abs(hx @ t - fd).max() <= 1e-8 * scale


# --- the Newton step ---------------------------------------------------------


def tangent_newton_problem(n, seed, mixed_signs):
    """80 tangent Hessians H and gradients g at v, v the first column of a
    rotation q: the first 40 positive definite on v-perp, the last 40 with
    tangent eigenvalues of modulus in [0.1, 10] and random sign (with the
    first one negative when mixed_signs is False)."""
    rng = np.random.default_rng(seed)
    q = np.stack([random_rotation(n, rng) for _ in range(80)])
    v, tangent = q[:, :, 0], q[:, :, 1:]
    lam = rng.uniform(0.1, 10.0, (80, n - 1))
    lam[40:] *= np.where(rng.random((40, n - 1)) < 0.5, -1.0, 1.0)
    if not mixed_signs:
        lam[40:, 0] = -np.abs(lam[40:, 0])
    hess = np.einsum("bij,bj,bkj->bik", tangent, lam, tangent)
    rgrad = np.einsum("bij,bj->bi", tangent, rng.standard_normal((80, n - 1)))
    definite = np.linalg.eigvalsh(tangent.transpose(0, 2, 1) @ hess @ tangent)[:, 0] > 0.0
    return v, tangent, hess, rgrad, definite


@pytest.mark.parametrize("n", range(4, 9))
def test_cholesky_solve_flags_and_solutions(n):
    """The modified Cholesky solve changes a pivot exactly on the rows whose
    H is not positive definite on v-perp: there the step differs from the
    plain Newton step, the solution of (H + s v v^T) x = -g with
    s = tr H / (n - 1); on the positive definite rows it is that solution."""
    v, _, hess, rgrad, definite = tangent_newton_problem(n, 110 + n, mixed_signs=False)
    assert (definite == (np.arange(80) < 40)).all()
    step = eigenflag._newton_steps(v, rgrad, hess)
    shift = np.trace(hess, axis1=1, axis2=2) / (n - 1)
    shifted = hess + shift[:, None, None] * v[:, :, None] * v[:, None, :]
    newton = np.linalg.solve(shifted, -rgrad[:, :, None])[:, :, 0]
    error = np.linalg.norm(step - newton, axis=1) / np.linalg.norm(newton, axis=1)
    assert (error[definite] <= 1e-12).all()
    assert (error[~definite] > 1e-6).all()


@pytest.mark.parametrize("n", range(4, 9))
def test_newton_steps_are_tangent_and_match_saddle_free(n):
    """Every step is tangent and goes downhill.  On the rows whose H is
    positive definite on v-perp it is the saddle-free step -|H|^+ g (there
    |H| = H); on the others it is not, but goes downhill as that one does."""
    v, tangent, hess, rgrad, definite = tangent_newton_problem(n, 120 + n, mixed_signs=True)
    assert 40 <= definite.sum() < 80
    step = eigenflag._newton_steps(v, rgrad, hess)
    length = np.linalg.norm(step, axis=1)
    assert (np.abs(np.einsum("bi,bi->b", v, step)) <= 1e-14 * length).all()
    assert (np.einsum("bi,bi->b", rgrad, step) < 0.0).all()
    lam, basis = np.linalg.eigh(tangent.transpose(0, 2, 1) @ hess @ tangent)
    coords = np.einsum("bji,bj->bi", basis, np.einsum("bji,bj->bi", tangent, rgrad))
    saddle_free = -np.einsum("bij,bjk,bk->bi", tangent, basis, coords / np.abs(lam))
    assert (np.linalg.norm(step[definite] - saddle_free[definite], axis=1)
            <= 1e-12 * np.linalg.norm(saddle_free[definite], axis=1)).all()


def test_seed0_hard_operators_converge():
    """The operators of residual_statistics(n, 300, seed=0), n = 4 and 5, on
    which a first-order descent, or a modified Cholesky step with its pivots
    only floored (no growth bound), left a start short of GTOL after MAXITER
    rounds."""
    for n, hard in ((4, (153,)), (5, (41, 135, 163, 183, 209, 224, 252, 278, 299))):
        rng = np.random.default_rng(0)
        ops = [sample_weyl(n, rng) for _ in range(300)]
        for report in eigenflag.min_residuals([ops[k] for k in hard]):
            assert report.converged.all()
            assert report.iterations < eigenflag.MAXITER
