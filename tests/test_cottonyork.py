import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from lcwcheck.cottonyork import CottonYorkTensor, classify_cy, stratum_param
from lcwcheck.curvature import curvature_package
from lcwcheck.genericity import obstruct_point, random_polynomial_metric
from lcwcheck.metrics import conformally_flat_metric

from oracles import cotton_york_at, float_metric


def random_so3(rng):
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, [0, 1]] = q[:, [1, 0]]
    return q


def test_each_matrix_of_a_large_stack_has_the_eigenvalues_it_has_alone():
    """LAPACK's eigvalsh loops over the stack, so each matrix of a 5,000-matrix
    trace-free stack (every seventh diagonal) keeps the bits it gets alone."""
    a = np.random.default_rng(2).standard_normal((5000, 3, 3))
    stack = (a + a.swapaxes(1, 2)) * 10.0 ** np.arange(-6, 6, 12 / 5000)[:, None, None]
    stack[::7, 0, 1:] = stack[::7, 1:, 0] = stack[::7, 1, 2] = stack[::7, 2, 1] = 0.0
    stack -= np.trace(stack, axis1=1, axis2=2)[:, None, None] / 3.0 * np.eye(3)
    got = CottonYorkTensor.from_matrix(stack).eigenvalues
    want = np.array([CottonYorkTensor.from_matrix(m).eigenvalues for m in stack])
    assert got.tobytes() == want.tobytes()


def test_eigenvalues_stay_accurate_near_a_double_eigenvalue():
    """Rotations of diag(1, 1 + d, -2 - d), d from 1e-17 to 1e-2: a spectrum
    within d of a double eigenvalue is valued to 1e-13 |m|."""
    rng = np.random.default_rng(17)
    d = 10.0 ** rng.uniform(-17, -2, 2000)
    q = np.array([random_so3(rng) for _ in d])
    spectrum = np.stack([np.ones_like(d), 1.0 + d, -2.0 - d], axis=-1)
    stack = np.einsum("kij,kj,klj->kil", q, spectrum, q)
    cy = CottonYorkTensor.from_matrix(stack)
    for want in (np.linalg.eigvalsh(stack), np.sort(spectrum)):
        assert (np.abs(cy.eigenvalues - want).max(axis=-1) <= 1e-13 * cy.norm).all()


# an entry: 0, or of magnitude 1e-3 to 1 (no products underflow)
ENTRY = st.one_of(st.just(0.0), st.floats(1e-3, 1.0), st.floats(-1.0, -1e-3))
KINDS = ("general", "diagonal", "zero", "noise", "nonfinite", "asymmetric", "traced")


@st.composite
def cy_items(draw):
    """A 3x3 matrix of one of ``KINDS`` and its zero floor."""
    kind = draw(st.sampled_from(KINDS))
    a00, a11, a01, a02, a12 = (draw(ENTRY) * 10.0 ** draw(st.integers(-6, 6))
                               for _ in range(5))
    if kind == "diagonal":
        a01 = a02 = a12 = 0.0
    m = np.array([[a00, a01, a02], [a01, a11, a12], [a02, a12, -a00 - a11]])
    floor = draw(st.sampled_from([0.0, 1e-12, 1e-9]))
    if kind == "zero":
        m[:] = 0.0
    elif kind == "noise":  # roundoff of a zero tensor, neither symmetric nor trace-free
        m = np.array([draw(ENTRY) for _ in range(9)]).reshape(3, 3) * 1e-16
        floor = 1e-12
    elif kind == "nonfinite":
        m[draw(st.integers(0, 2)), draw(st.integers(0, 2))] = draw(
            st.sampled_from([np.nan, np.inf, -np.inf]))
    elif kind == "asymmetric" and m.any():
        m[0, 1] += np.abs(m).max()
        floor = 0.0
    elif kind == "traced" and m.any():
        m += np.abs(m).max() * np.eye(3)
        floor = 0.0
    return m, floor


@settings(max_examples=300, deadline=None)
@given(st.lists(cy_items(), min_size=1, max_size=10))
def test_each_matrix_of_a_stack_is_checked_and_valued_as_if_alone(items):
    """Every field and label of a matrix in a stack has the bits of its stack
    of one and of the matrix alone; a matrix failing a check gets that check's
    error in the stack, and alone raises it, while the rest of the stack
    stands.  The eigenvalues are LAPACK's to 1e-13 |m|."""
    stack = np.array([m for m, _ in items])
    floors = np.array([f for _, f in items])
    cy = CottonYorkTensor.from_matrix(stack, floors)
    labels = classify_cy(cy, floor=floors)
    for k, (m, floor) in enumerate(items):
        one = CottonYorkTensor.from_matrix(m[None], floor)
        try:
            alone = CottonYorkTensor.from_matrix(m, floor)
        except ValueError as exc:
            assert str(cy.error(k)) == str(one.error(0)) == str(exc)
            continue
        assert cy.error(k) is None and one.error(0) is None
        for name in ("matrix", "trace", "determinant", "eigenvalues", "norm"):
            got = np.asarray(getattr(cy, name)[k])
            assert got.tobytes() == np.asarray(getattr(one, name)[0]).tobytes()
            assert got.tobytes() == np.asarray(getattr(alone, name)).tobytes()
        assert labels[k] == classify_cy(one, floor=floor)[0] == classify_cy(alone, floor=floor)
        exact = np.linalg.eigvalsh(alone.matrix)
        assert np.abs(alone.eigenvalues - exact).max() <= 1e-13 * alone.norm


def test_tensor_carrier_invariants():
    cy = CottonYorkTensor.from_matrix(np.diag([1.0, -1.0, 0.0]))
    assert cy.trace == 0.0
    assert cy.determinant == pytest.approx(0.0, abs=1e-15)
    assert np.allclose(cy.eigenvalues, [-1, 0, 1])
    assert cy.determinant == pytest.approx(np.prod(cy.eigenvalues), abs=1e-10)

    with pytest.raises(ValueError, match="trace-free"):
        CottonYorkTensor.from_matrix(np.eye(3))
    with pytest.raises(ValueError, match="symmetric"):
        CottonYorkTensor.from_matrix(np.array([[0, 1, 0], [0, 0, 0], [0, 0, 0.0]]))


def test_classification_examples():
    assert classify_cy(CottonYorkTensor.from_matrix(np.diag([1.0, -1.0, 0.0]))) \
        == "regular_singular"
    cy = CottonYorkTensor.from_matrix(np.diag([2.0, -1.0, -1.0]))
    assert cy.determinant == pytest.approx(2.0)
    assert classify_cy(cy) == "nonsingular"
    assert classify_cy(CottonYorkTensor.from_matrix(np.zeros((3, 3)))) == "zero"


def test_a_tensor_below_the_zero_floor_is_zero_whatever_its_roundoff():
    # roundoff of the true zero: neither symmetric nor trace-free relative to itself
    noise = np.array([[1e-15, 3e-15, 0.0], [0.0, -2e-15, 1e-15], [-1e-15, 0.0, 4e-15]])
    for check in ("symmetric", "trace-free"):
        m = noise if check == "symmetric" else 0.5 * (noise + noise.T)
        with pytest.raises(ValueError, match=check):
            CottonYorkTensor.from_matrix(m)
        with pytest.raises(ValueError, match=check):
            CottonYorkTensor.from_matrix(m, floor=1e-16)  # the floor is below |m|
        cy = CottonYorkTensor.from_matrix(m, floor=1e-12)
        assert np.array_equal(cy.matrix, cy.matrix.T)
        assert classify_cy(cy, floor=1e-12) == "zero"
    with pytest.raises(ValueError, match="finite"):
        CottonYorkTensor.from_matrix(np.full((3, 3), np.nan), floor=1e-12)


@pytest.mark.parametrize("tol", [1e-320, 5e-324])
def test_zero_determinant_is_singular_at_a_subnormal_tolerance(tol):
    # tol * |CY|^3 underflows to 0 here; det = 0 must still count as singular
    cy = CottonYorkTensor.from_matrix(np.diag([1.0, -1.0, 0.0]))
    assert cy.determinant == 0.0
    assert classify_cy(cy, tol=tol) == "regular_singular"


def test_stratum_param_examples():
    assert np.allclose(stratum_param(1.0, np.eye(3)).matrix, np.diag([1.0, -1.0, 0.0]))
    assert not stratum_param(0.0, random_so3(np.random.default_rng(2))).matrix.any()
    with pytest.raises(ValueError, match="orthogonal"):
        stratum_param(1.0, np.ones((3, 3)))
    with pytest.raises(ValueError, match="determinant"):
        stratum_param(1.0, np.diag([1.0, 1.0, -1.0]))


def test_stratum_param_classification_closed_under_rotation():
    rng = np.random.default_rng(3)
    for _ in range(10):
        lam = rng.uniform(0.1, 3.0) * rng.choice([-1.0, 1.0])
        cy = stratum_param(lam, random_so3(rng))
        assert classify_cy(cy) == "regular_singular"
        # spectrum forced to (lambda, -lambda, 0)
        assert np.allclose(np.sort(np.abs(cy.eigenvalues)), [0, abs(lam), abs(lam)],
                           atol=1e-12)


def test_stratum_jacobian_has_rank_4():
    # chart on R x SO(3): image is 4-dimensional inside the 5-dim trace-free space
    rng = np.random.default_rng(5)
    basis5 = []
    s2, s6 = 1 / np.sqrt(2), 1 / np.sqrt(6)
    basis5.append(np.diag([s2, -s2, 0.0]))
    basis5.append(np.diag([s6, s6, -2 * s6]))
    for (i, j) in ((0, 1), (0, 2), (1, 2)):
        b = np.zeros((3, 3))
        b[i, j] = b[j, i] = s2
        basis5.append(b)

    def coords(m):
        return np.array([np.tensordot(m, b) for b in basis5])

    h = 1e-6
    for _ in range(10):
        lam = rng.uniform(0.3, 2.0)
        q0 = random_so3(rng)
        cols = []

        def chart(d_lam, omega):
            gen = np.array([[0, -omega[2], omega[1]],
                            [omega[2], 0, -omega[0]],
                            [-omega[1], omega[0], 0]])
            return stratum_param(lam + d_lam, q0 @ expm(gen)).matrix

        cols.append((coords(chart(h, np.zeros(3))) - coords(chart(-h, np.zeros(3)))) / (2 * h))
        for k in range(3):
            e = np.zeros(3)
            e[k] = h
            cols.append((coords(chart(0.0, e)) - coords(chart(0.0, -e))) / (2 * h))
        jac = np.array(cols).T
        svals = np.linalg.svd(jac, compute_uv=False)
        assert (svals > 1e-8 * svals[0]).sum() == 4


def test_obstruction_verdicts():
    assert classify_cy(CottonYorkTensor.from_matrix(np.diag([2.0, -1.0, -1.0]))) \
        == "nonsingular"
    assert classify_cy(CottonYorkTensor.from_matrix(np.diag([1.0, -1.0, 0.0]))) \
        == "regular_singular"


def test_generic_metric_certified_and_matches_fd_oracle():
    rng = np.random.default_rng(7)
    spec = random_polynomial_metric(3, rng, amplitude=0.06)
    p = rng.uniform(-0.5, 0.5, 3)
    pkg = curvature_package(spec, p)
    cy = CottonYorkTensor.from_matrix(pkg.cotton_york)
    assert obstruct_point(spec, p).verdict == "no_lcw_certified"

    oracle = cotton_york_at(float_metric(spec), p)
    assert np.abs(oracle - pkg.coord.cotton_york).max() < 1e-4 * max(cy.norm, 1e-12)


def test_orientation_flips_det_sign_not_verdict():
    rng = np.random.default_rng(11)
    spec = random_polynomial_metric(3, rng, amplitude=0.06)
    p = rng.uniform(-0.5, 0.5, 3)
    plus = CottonYorkTensor.from_matrix(curvature_package(spec, p, 1).cotton_york)
    minus = CottonYorkTensor.from_matrix(curvature_package(spec, p, -1).cotton_york)
    assert plus.determinant == pytest.approx(-minus.determinant, rel=1e-9)
    assert obstruct_point(spec, p, orientation=1).verdict \
        == obstruct_point(spec, p, orientation=-1).verdict == "no_lcw_certified"


def test_cotton_zero_iff_cotton_york_zero():
    rng = np.random.default_rng(13)
    # conformally flat: C = 0 forces CY = 0
    for factor in ("0.3*x1", "0.2*x1*x2-0.1*x3^2", "sin(0.3*x2)"):
        spec = conformally_flat_metric(3, factor)
        pkg = curvature_package(spec, rng.uniform(-0.6, 0.6, 3))
        scale = max(pkg.riemann_norm, 1e-12)
        assert pkg.cotton_norm < 1e-9 * scale
        assert np.linalg.norm(pkg.cotton_york) < 1e-9 * scale
    # generic: C != 0 comes with CY != 0
    spec = random_polynomial_metric(3, rng, amplitude=0.06)
    pkg = curvature_package(spec, rng.uniform(-0.5, 0.5, 3))
    assert pkg.cotton_norm > 1e-6
    assert np.linalg.norm(pkg.cotton_york) > 1e-8
