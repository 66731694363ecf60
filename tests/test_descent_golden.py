"""Golden reports of the eigenflag descent.

``min_residuals`` on seeded operators at n = 4..8, with the start set
unrotated (seed None) and rotated (seed 3): two random Weyl operators, at
n = 4 a planted ``construct_stratum4`` operator, and one operator below the
Weyl floor.  Each report's floats are pinned bit for bit as hex, with its
per-start convergence flags, its round count and its verdict, so any change
to the descent that moves a bit of its output fails here.
"""

import numpy as np
import pytest

from lcwcheck.eigenflag import construct_stratum4, min_residuals
from lcwcheck.genericity import sample_weyl


def operators(n: int) -> list:
    rng = np.random.default_rng(70 + n)
    ops = [sample_weyl(n, rng) for _ in range(2)]
    if n == 4:
        frame, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        ops.append(construct_stratum4([0.6, -0.1, -0.5], frame))
    ops.append(1e-14 * ops[0].matrix)  # below DEFAULT_ZERO_FLOOR: weyl_negligible
    return ops


# (n, seed) -> per operator: residual_min, raw_residual, minimizer (hex floats),
# converged flags per start, iterations, verdict
GOLDEN = {
    (4, None): [
        ('0x1.7f911ef8664f8p-6', '0x1.7f911ef8664f8p-6',
         ['0x1.fdb1879124815p-2', '0x1.55e0dbc5914f1p-1', '0x1.17c23fc55e2c7p-1',
          '-0x1.6a55c18cac5cbp-4'],
         '11111111111111111111111111111111',
         13, 'not_eigenflag'),
        ('0x1.b8a768f3e683ap-8', '0x1.b8a768f3e6838p-8',
         ['0x1.253a231f526d0p-2', '-0x1.4df13c4b4fe49p-1', '-0x1.1e84f9cf81be9p-1',
          '0x1.b1c3592ab7ea7p-2'],
         '11111111111111111111111111111111',
         12, 'not_eigenflag'),
        ('0x1.be45294a52949p-107', '0x1.14b0000000000p-106',
         ['-0x1.21a670bad1240p-2', '0x1.a8543e00567bfp-2', '-0x1.c6816fb9515f0p-2',
          '0x1.7c25bdfebc14ap-1'],
         '11111111111111111111111111111111',
         14, 'eigenflag_within_tol'),
        ('0x0.0p+0', '0x0.0p+0',
         ['0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0'],
         '',
         0, 'weyl_negligible'),
    ],
    (4, 3): [
        ('0x1.7f911ef8664f8p-6', '0x1.7f911ef8664f8p-6',
         ['0x1.fdb1879124815p-2', '0x1.55e0dbc5914f1p-1', '0x1.17c23fc55e2c7p-1',
          '-0x1.6a55c18cac5d0p-4'],
         '11111111111111111111111111111111',
         15, 'not_eigenflag'),
        ('0x1.b8a768f3e6839p-8', '0x1.b8a768f3e6837p-8',
         ['0x1.a09d3c9ea26fap-1', '0x1.1ac3f4e869ccfp-1', '-0x1.2f4747469fba8p-3',
          '0x1.acb47b8198a04p-4'],
         '11111111111111111111111111111111',
         12, 'not_eigenflag'),
        ('0x1.09dc3cf7bdef7p-106', '0x1.49aab20000000p-106',
         ['0x1.e328ae5abd087p-1', '0x1.0a21ebdf62781p-2', '-0x1.1d22650e6b4ecp-6',
          '0x1.a1e872bbf0e5ap-3'],
         '11111111111111111111111111111111',
         11, 'eigenflag_within_tol'),
        ('0x0.0p+0', '0x0.0p+0',
         ['0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0'],
         '',
         0, 'weyl_negligible'),
    ],
    (5, None): [
        ('0x1.079ac07e509cbp-4', '0x1.079ac07e509cbp-4',
         ['0x1.2446ad515fb0ep-1', '0x1.ac3a6436947a0p-2', '-0x1.6066f32a46129p-1',
          '0x1.dada5bad012b5p-4', '-0x1.c1f3aa715d2b3p-4'],
         '1111111111111111111111111111111111111111',
         14, 'not_eigenflag'),
        ('0x1.abe65461daca3p-5', '0x1.abe65461daca3p-5',
         ['-0x1.fa80a72cc7fefp-6', '0x1.5c01ffc81849dp-1', '0x1.a0cd322638b75p-3',
          '-0x1.03936e9b19003p-2', '-0x1.5046996e4838bp-1'],
         '1111111111111111111111111111111111111111',
         15, 'not_eigenflag'),
        ('0x0.0p+0', '0x0.0p+0',
         ['0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0'],
         '',
         0, 'weyl_negligible'),
    ],
    (5, 3): [
        ('0x1.079ac07e509ccp-4', '0x1.079ac07e509ccp-4',
         ['0x1.2446ad515fd93p-1', '0x1.ac3a643692631p-2', '-0x1.6066f32a4682dp-1',
          '0x1.dada5bad025f0p-4', '-0x1.c1f3aa715f37bp-4'],
         '1111111111111111111111111111111111111111',
         19, 'not_eigenflag'),
        ('0x1.abe65461daca4p-5', '0x1.abe65461daca4p-5',
         ['0x1.fa80a72cc79acp-6', '-0x1.5c01ffc818480p-1', '-0x1.a0cd322638b24p-3',
          '0x1.03936e9b18f8ap-2', '0x1.5046996e483c8p-1'],
         '1111111111111111111111111111111111111111',
         17, 'not_eigenflag'),
        ('0x0.0p+0', '0x0.0p+0',
         ['0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0'],
         '',
         0, 'weyl_negligible'),
    ],
    (6, None): [
        ('0x1.701706a9a182ap-4', '0x1.701706a9a182ap-4',
         ['-0x1.e9c1f44a2d885p-2', '0x1.20407ffc1eadep-1', '-0x1.50962e4990b62p-3',
          '0x1.23fe4b0c70e13p-1', '0x1.8d917194ec70fp-6', '-0x1.462756d8a8b75p-2'],
         '111111111111111111111111111111111111111111111111',
         16, 'not_eigenflag'),
        ('0x1.5d531241a1844p-4', '0x1.5d531241a1844p-4',
         ['0x1.e9bdc9b0bcbbap-3', '-0x1.905f875473306p-2', '-0x1.c8b51a8fad813p-3',
          '0x1.e62a44f58e070p-3', '-0x1.a274fc82014a4p-2', '0x1.70183f90eb70dp-1'],
         '111111111111111111111111111111111111111111111111',
         16, 'not_eigenflag'),
        ('0x0.0p+0', '0x0.0p+0',
         ['0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0'],
         '',
         0, 'weyl_negligible'),
    ],
    (6, 3): [
        ('0x1.701706a9a182cp-4', '0x1.701706a9a182cp-4',
         ['0x1.e9c1f44a2c75cp-2', '-0x1.20407ffc1f061p-1', '0x1.50962e498ff3ap-3',
          '-0x1.23fe4b0c70e29p-1', '-0x1.8d917194e52d9p-6', '0x1.462756d8a9520p-2'],
         '111111111111111111111111111111111111111111111111',
         19, 'not_eigenflag'),
        ('0x1.5d531241a1844p-4', '0x1.5d531241a1844p-4',
         ['0x1.e9bdc9b0bcbbbp-3', '-0x1.905f875473306p-2', '-0x1.c8b51a8fad813p-3',
          '0x1.e62a44f58e06fp-3', '-0x1.a274fc82014a4p-2', '0x1.70183f90eb70dp-1'],
         '111111111111111111111111111111111111111111111111',
         21, 'not_eigenflag'),
        ('0x0.0p+0', '0x0.0p+0',
         ['0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0'],
         '',
         0, 'weyl_negligible'),
    ],
    (7, None): [
        ('0x1.68d69a4d7e6c7p-4', '0x1.68d69a4d7e6c6p-4',
         ['0x1.5ea048b4868f4p-2', '0x1.e692e7be358c4p-7', '0x1.ca390aa9845b8p-3',
          '-0x1.fa4c630007debp-2', '-0x1.3e1ff32de2eb4p-1', '0x1.df86f32ec454bp-3',
          '-0x1.88c79ac48daa3p-2'],
         '11111111111111111111111111111111111111111111111111111111',
         15, 'not_eigenflag'),
        ('0x1.a2447935dba50p-4', '0x1.a2447935dba50p-4',
         ['-0x1.9d5adb3c4adedp-4', '-0x1.d692707eeff25p-1', '0x1.155eb343ccfbap-7',
          '0x1.70e730a7bd0fep-3', '-0x1.0e8bcec855c15p-3', '-0x1.6e2d10f2ce201p-3',
          '0x1.0158d067eae5ap-2'],
         '11111111111111111111111111111111111111111111111111111111',
         15, 'not_eigenflag'),
        ('0x0.0p+0', '0x0.0p+0',
         ['0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0'],
         '',
         0, 'weyl_negligible'),
    ],
    (7, 3): [
        ('0x1.68d69a4d7e6c9p-4', '0x1.68d69a4d7e6c8p-4',
         ['0x1.5ea048b48515ap-2', '0x1.e692e7be0c7cep-7', '0x1.ca390aa9850b9p-3',
          '-0x1.fa4c630007f7fp-2', '-0x1.3e1ff32de26d5p-1', '0x1.df86f32ec37e4p-3',
          '-0x1.88c79ac4908e0p-2'],
         '11111111111111111111111111111111111111111111111111111111',
         15, 'not_eigenflag'),
        ('0x1.a2447935dba52p-4', '0x1.a2447935dba52p-4',
         ['0x1.9d5adb3c4b0dap-4', '0x1.d692707eeff4dp-1', '-0x1.155eb343ceec5p-7',
          '-0x1.70e730a7bcffdp-3', '0x1.0e8bcec855a12p-3', '0x1.6e2d10f2cde1cp-3',
          '-0x1.0158d067eaf20p-2'],
         '11111111111111111111111111111111111111111111111111111111',
         15, 'not_eigenflag'),
        ('0x0.0p+0', '0x0.0p+0',
         ['0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0'],
         '',
         0, 'weyl_negligible'),
    ],
    (8, None): [
        ('0x1.b6c54763f4f47p-4', '0x1.b6c54763f4f47p-4',
         ['0x1.0b41327dd3b63p-1', '0x1.242c9e84ad6a4p-1', '-0x1.117c946f42cf8p-3',
          '0x1.e00f82399de50p-3', '0x1.183ea445fc853p-5', '0x1.ecf710b835ca1p-8',
          '0x1.b052725f711dap-2', '-0x1.8c1e7fb78b70dp-2'],
         '1111111111111111111111111111111111111111111111111111111111111111',
         20, 'not_eigenflag'),
        ('0x1.a8fa675ebb1d5p-4', '0x1.a8fa675ebb1d5p-4',
         ['0x1.41c222d78d3c0p-3', '-0x1.b9376685636d5p-4', '0x1.1f1338f8eb7eap-2',
          '0x1.d9e5648ce7dbbp-3', '0x1.23722ab5c8354p-1', '-0x1.0eeff21437af3p-2',
          '-0x1.9b0725db2803bp-2', '-0x1.0d310c3952e61p-1'],
         '1111111111111111111111111111111111111111111111111111111111111111',
         24, 'not_eigenflag'),
        ('0x0.0p+0', '0x0.0p+0',
         ['0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0',
          '0x0.0p+0'],
         '',
         0, 'weyl_negligible'),
    ],
    (8, 3): [
        ('0x1.b6c54763f4f44p-4', '0x1.b6c54763f4f44p-4',
         ['0x1.0b41327dd337cp-1', '0x1.242c9e84adbefp-1', '-0x1.117c946f42ea0p-3',
          '0x1.e00f82399da04p-3', '0x1.183ea445fba78p-5', '0x1.ecf710b80a6a8p-8',
          '0x1.b052725f70f0dp-2', '-0x1.8c1e7fb78c137p-2'],
         '1111111111111111111111111111111111111111111111111111111111111111',
         22, 'not_eigenflag'),
        ('0x1.a8fa675ebb1d5p-4', '0x1.a8fa675ebb1d5p-4',
         ['0x1.41c222d78d3c0p-3', '-0x1.b9376685636d5p-4', '0x1.1f1338f8eb7eap-2',
          '0x1.d9e5648ce7dbbp-3', '0x1.23722ab5c8354p-1', '-0x1.0eeff21437af3p-2',
          '-0x1.9b0725db2803bp-2', '-0x1.0d310c3952e61p-1'],
         '1111111111111111111111111111111111111111111111111111111111111111',
         18, 'not_eigenflag'),
        ('0x0.0p+0', '0x0.0p+0',
         ['0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0',
          '0x0.0p+0'],
         '',
         0, 'weyl_negligible'),
    ],
}


@pytest.mark.parametrize("n,seed", sorted(GOLDEN, key=str))
def test_min_residuals_reports_are_pinned(n, seed):
    reports = min_residuals(operators(n), seed=seed)
    assert len(reports) == len(GOLDEN[n, seed])
    for report, (residual_min, raw, minimizer, converged, iterations, verdict) in zip(
            reports, GOLDEN[n, seed]):
        assert report.residual_min.hex() == residual_min
        assert report.raw_residual.hex() == raw
        assert [x.hex() for x in report.minimizer] == minimizer
        assert "".join("1" if c else "0" for c in report.converged) == converged
        assert report.iterations == iterations
        assert report.verdict == verdict
