from itertools import combinations

import numpy as np
import pytest

from lcwcheck.bivectors import (BivectorBasis, WeylOperator, bianchi_map, lift_orthogonal,
                                operator_to_tensor, ricci_contraction, to_operator,
                                weyl_part)
from lcwcheck.curvature import curvature_package, kulkarni_nomizu, rotate_tensor
from lcwcheck.genericity import random_polynomial_metric
from lcwcheck.metrics import sphere_stereographic_metric

from oracles import (conjugate_operator, project_weyl, svec, unsvec, weyl_projector_matrix,
                     weyl_space_dim)


def random_rotation(n, rng):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def test_basis_bijection():
    for n in (3, 4, 6, 8):
        basis = BivectorBasis(n)
        assert basis.size == n * (n - 1) // 2
        for a, (i, j) in enumerate(basis.pairs):
            assert basis.flat[i, j] == basis.flat[j, i] == a
        assert basis.flat[1, 1] == -1


def test_to_operator_zero_and_sphere():
    assert not to_operator(np.zeros((4,) * 4)).any()
    pkg = curvature_package(sphere_stereographic_metric(4), [0.1, 0.0, -0.2, 0.3])
    op = to_operator(pkg.riemann)
    # space form: operator is half the (g o g) operator = identity on bivectors
    gg = to_operator(kulkarni_nomizu(np.eye(4), np.eye(4)))
    assert np.allclose(op, 0.5 * gg, atol=1e-9)
    assert np.allclose(0.5 * gg, np.eye(6))


def test_to_operator_rejects_broken_pair_symmetry():
    t = np.zeros((4,) * 4)
    t[0, 1, 2, 3] = 1.0  # no pair partner
    with pytest.raises(ValueError, match="pair-exchange"):
        to_operator(t)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_to_operator_rejects_a_tensor_that_is_not_finite(bad):
    """NaN passes the pair-exchange comparison and drops out of the scale,
    so finiteness is checked on its own."""
    t = np.zeros((4,) * 4)
    t[0, 0, 0, 0] = bad  # not in the operator's entries
    with pytest.raises(ValueError, match="curvature tensor must be finite"):
        to_operator(t)
    with pytest.raises(ValueError, match="curvature tensor must be finite"):
        to_operator(np.full((5,) * 4, bad), scale=1.0)


def test_operator_tensor_round_trip():
    rng = np.random.default_rng(2)
    for n in (4, 5):
        basis = BivectorBasis(n)
        a = rng.standard_normal((basis.size, basis.size))
        op = 0.5 * (a + a.T)
        t = operator_to_tensor(op)
        assert np.allclose(to_operator(t), op)
        # antisymmetries of the expansion
        assert np.allclose(t, -t.transpose(1, 0, 2, 3))
        assert np.allclose(t, -t.transpose(0, 1, 3, 2))
        assert np.allclose(t, t.transpose(2, 3, 0, 1))


def test_to_operator_frame_equivariance():
    rng = np.random.default_rng(3)
    pkg = curvature_package(sphere_stereographic_metric(4), [0.1, 0.2, 0.0, 0.0])
    q = random_rotation(4, rng)
    direct = to_operator(rotate_tensor(pkg.riemann, q))
    conj = conjugate_operator(to_operator(pkg.riemann), q)
    assert np.abs(direct - conj).max() < 1e-10


def test_bianchi_on_metric_curvature_vanishes():
    rng = np.random.default_rng(5)
    for n in (3, 4, 5):
        pkg = curvature_package(random_polynomial_metric(n, rng), rng.uniform(-0.7, 0.7, n))
        op = to_operator(pkg.riemann)
        assert np.linalg.norm(bianchi_map(op)) <= 1e-10 * max(pkg.riemann_norm, 1e-12)


def test_bianchi_on_kn_product_vanishes():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((5, 5))
    op = to_operator(kulkarni_nomizu(a + a.T, np.eye(5)))
    assert np.linalg.norm(bianchi_map(op)) < 1e-12 * np.linalg.norm(op)


def test_bianchi_single_offdiagonal_entry():
    basis = BivectorBasis(4)
    op = np.zeros((6, 6))
    a, b = basis.flat[0, 1], basis.flat[2, 3]
    op[a, b] = op[b, a] = 1.0
    out = bianchi_map(op)
    assert out.shape == (1,)
    assert out[0] == pytest.approx(1.0 / 3.0)


def test_bianchi_map_matches_the_entrywise_sum():
    rng = np.random.default_rng(37)
    for n in (4, 5, 6):
        basis = BivectorBasis(n)
        a = rng.standard_normal((basis.size, basis.size))
        op, fl = 0.5 * (a + a.T), basis.flat
        want = [(op[fl[i, j], fl[k, l]] + op[fl[j, k], fl[i, l]] - op[fl[i, k], fl[j, l]]) / 3.0
                for i, j, k, l in combinations(range(n), 4)]
        # the same three terms, summed in another order
        assert np.abs(bianchi_map(op) - want).max() <= 8 * np.finfo(float).eps * np.abs(op).max()


def test_ricci_contraction_values():
    assert not ricci_contraction(np.zeros((6, 6))).any()
    for n in (4, 5):
        gg = to_operator(kulkarni_nomizu(np.eye(n), np.eye(n)))
        r = ricci_contraction(0.5 * gg)
        assert np.allclose(r, (n - 1) * np.eye(n))


def test_ricci_contraction_of_weyl_vanishes():
    rng = np.random.default_rng(11)
    pkg = curvature_package(random_polynomial_metric(4, rng), rng.uniform(-0.7, 0.7, 4))
    op = to_operator(pkg.weyl)
    assert np.linalg.norm(ricci_contraction(op)) < 1e-10 * max(np.linalg.norm(op), 1e-12)


def test_equivariance_of_maps():
    rng = np.random.default_rng(13)
    n = 4
    basis = BivectorBasis(n)
    a = rng.standard_normal((basis.size, basis.size))
    op = 0.5 * (a + a.T)
    q = random_rotation(n, rng)
    conj = conjugate_operator(op, q)

    r_direct = ricci_contraction(conj)
    r_expect = q.T @ ricci_contraction(op) @ q
    assert np.abs(r_direct - r_expect).max() < 1e-10 * np.linalg.norm(op)

    # bianchi components transform as a 4-form
    t = operator_to_tensor(op)
    b_direct = bianchi_map(conj)
    b_of_rotated = bianchi_map(to_operator(rotate_tensor(t, q)))
    assert np.abs(b_direct - b_of_rotated).max() < 1e-10 * np.linalg.norm(op)


def test_lift_is_orthogonal():
    rng = np.random.default_rng(17)
    for n in (4, 5):
        lift = lift_orthogonal(random_rotation(n, rng))
        assert np.abs(lift.T @ lift - np.eye(lift.shape[0])).max() < 1e-12


def test_svec_isometry():
    rng = np.random.default_rng(19)
    a = rng.standard_normal((6, 6))
    m = a + a.T
    v = svec(m)
    assert np.linalg.norm(v) == pytest.approx(np.linalg.norm(m), rel=1e-12)
    assert np.allclose(unsvec(v, 6), m)


def test_weyl_space_dimension_values():
    assert weyl_space_dim(3) == 0
    assert weyl_space_dim(4) == 10
    assert weyl_space_dim(5) == 35


def test_projector_rank_matches_formula():
    for n in (3, 4, 5, 6):
        p = weyl_projector_matrix(n)
        if p.size:
            svals = np.linalg.svd(p, compute_uv=False)
            rank = int((svals > 1e-9 * max(svals[0], 1e-300)).sum())
            assert rank == weyl_space_dim(n)


def test_projector_idempotent_and_self_adjoint():
    for n in (4, 5):
        p = weyl_projector_matrix(n)
        assert np.abs(p @ p - p).max() < 1e-11
        assert np.abs(p - p.T).max() < 1e-11


def test_project_weyl_fixes_weyl_operators():
    rng = np.random.default_rng(23)
    pkg = curvature_package(random_polynomial_metric(4, rng), rng.uniform(-0.7, 0.7, 4))
    op = to_operator(pkg.weyl)
    projected = project_weyl(op)
    assert np.abs(projected.matrix - op).max() < 1e-10 * max(np.linalg.norm(op), 1e-12)


def test_project_weyl_kills_kn_products():
    rng = np.random.default_rng(29)
    a = rng.standard_normal((4, 4))
    op = to_operator(kulkarni_nomizu(a + a.T, np.eye(4)))
    # the Weyl part is roundoff, which WeylOperator's own-norm checks reject
    assert np.linalg.norm(weyl_part(op)) < 1e-11 * max(np.linalg.norm(op), 1.0)


def test_weyl_operator_invariants_on_random_metrics():
    rng = np.random.default_rng(31)
    for _ in range(100):
        pkg = curvature_package(random_polynomial_metric(4, rng), rng.uniform(-0.7, 0.7, 4))
        WeylOperator(4, to_operator(pkg.weyl))  # raises on violation


def test_weyl_operator_rejects_non_weyl():
    with pytest.raises(ValueError, match="Ricci"):
        WeylOperator(4, np.eye(6))
