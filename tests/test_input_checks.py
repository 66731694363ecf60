"""Each input check of the library raises its own error type and message."""

import numpy as np
import pytest

from lcwcheck.bivectors import BivectorBasis, WeylOperator, operator_to_tensor
from lcwcheck.curvature import (DimensionError, cotton_york, curvature_package,
                                schouten)
from lcwcheck.eigenflag import (certify_positive_minimum, construct_stratum4, min_residual,
                                min_residuals)
from lcwcheck.genericity import sample_weyl
from lcwcheck.metrics import euclidean_metric
from lcwcheck.perturb import AlgebraicCurvature


def _symmetric(size):
    a = np.random.default_rng(0).standard_normal((size, size))
    return a + a.T


def _nan_weyl():
    m = construct_stratum4((1.0, 2.0, -3.0)).matrix.copy()
    m[0, 0] = np.nan
    return WeylOperator(4, m)


CHECKS = {
    "bivector dimension": (lambda: BivectorBasis(1), ValueError, "bivectors need n >= 2"),
    "weyl asymmetric": (lambda: WeylOperator(4, np.triu(_symmetric(6))), ValueError,
                        "Weyl operator matrix must be symmetric"),
    "weyl non-finite": (_nan_weyl, ValueError, "Weyl operator entries must be finite"),
    "weyl bianchi": (lambda: WeylOperator(4, _symmetric(6)), ValueError,
                     "nonzero Bianchi component: not a curvature operator"),
    "curvature bianchi": (lambda: AlgebraicCurvature(4, operator_to_tensor(_symmetric(6))),
                          ValueError, "tensor violates the first Bianchi identity"),
    "schouten n = 2": (lambda: schouten(np.eye(2), 1.0, np.eye(2), 2), DimensionError,
                       "Schouten tensor needs dimension >= 3"),
    "cotton-york orientation": (lambda: cotton_york(np.zeros((3, 3, 3)), np.eye(3), 0),
                                ValueError, "orientation must be \\+1 or -1"),
    "cotton-york det n = 4": (
        lambda: curvature_package(euclidean_metric(4), np.zeros(4)).cotton_york_det,
        DimensionError, "Cotton-York determinant is defined in dimension 3 only"),
    "batch of two dimensions": (
        lambda: min_residuals([_symmetric(6), _symmetric(10)]), DimensionError,
        "operators of one batch must share their dimension"),
    "operator of rank 3": (lambda: min_residual(np.zeros((2, 6, 6))), TypeError,
                           "expected a WeylOperator or an operator matrix"),
    "grid resolution": (
        lambda: certify_positive_minimum(construct_stratum4((1.0, 2.0, -3.0)),
                                         grid_resolution=1),
        ValueError, "grid_resolution must be at least 2"),
}


@pytest.mark.parametrize("name", list(CHECKS))
def test_an_input_check_raises_its_error(name):
    call, error, message = CHECKS[name]
    with pytest.raises(error, match=f"^{message}$"):
        call()


def test_a_raw_6x6_array_classifies_as_its_weyl_operator():
    for w in (construct_stratum4((1.0, 2.0, -3.0)), sample_weyl(4, np.random.default_rng(0))):
        got, want = min_residual(w.matrix), min_residual(w)
        assert got.verdict == want.verdict
        assert got.raw_residual == want.raw_residual
