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
        ('0x1.7f911ef8664f9p-6', '0x1.7f911ef8664f9p-6',
         ['0x1.fdb187912483bp-2', '0x1.55e0dbc5914f4p-1', '0x1.17c23fc55e2b2p-1',
          '-0x1.6a55c18cac571p-4'],
         '11111111111111111111111111111111',
         13, 'not_eigenflag'),
        ('0x1.b8a768f3e683cp-8', '0x1.b8a768f3e683ap-8',
         ['0x1.9dc2ea6836e68p-2', '-0x1.a391def0706a5p-2', '0x1.9aff79927b668p-1',
          '0x1.40623bfedb829p-3'],
         '11111111111111111111111111111111',
         12, 'not_eigenflag'),
        ('0x1.be45294a52949p-107', '0x1.14b0000000000p-106',
         ['0x1.21a670bad1240p-2', '-0x1.a8543e00567bfp-2', '0x1.c6816fb9515f0p-2',
          '-0x1.7c25bdfebc14ap-1'],
         '11111111111111111111111111111111',
         14, 'eigenflag_within_tol'),
        ('0x0.0p+0', '0x0.0p+0',
         ['0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0'],
         '',
         0, 'weyl_negligible'),
    ],
    (4, 3): [
        ('0x1.7f911ef8664fap-6', '0x1.7f911ef8664fap-6',
         ['0x1.6e1c5a6c55e0ep-1', '-0x1.5aaddf6cceed2p-1', '0x1.601452bfe1d6cp-3',
          '-0x1.a4d8b430a2cccp-6'],
         '11111111111111111111111111111111',
         15, 'not_eigenflag'),
        ('0x1.b8a768f3e683ap-8', '0x1.b8a768f3e6838p-8',
         ['0x1.253a231f522bdp-2', '-0x1.4df13c4b506b5p-1', '-0x1.1e84f9cf818fep-1',
          '0x1.b1c3592ab6f2bp-2'],
         '11111111111111111111111111111111',
         12, 'not_eigenflag'),
        ('0x1.bd36318c6318bp-107', '0x1.1408000000000p-106',
         ['-0x1.21a670bad1240p-2', '0x1.a8543e00567c0p-2', '-0x1.c6816fb9515efp-2',
          '0x1.7c25bdfebc14ap-1'],
         '11111111111111111111111111111111',
         11, 'eigenflag_within_tol'),
        ('0x0.0p+0', '0x0.0p+0',
         ['0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0'],
         '',
         0, 'weyl_negligible'),
    ],
    (5, None): [
        ('0x1.079ac07e509ccp-4', '0x1.079ac07e509ccp-4',
         ['-0x1.2446ad515fd71p-1', '-0x1.ac3a6436926e8p-2', '0x1.6066f32a467f5p-1',
          '-0x1.dada5bad0290bp-4', '0x1.c1f3aa715f588p-4'],
         '1111111111111111111111111111111111111111',
         14, 'not_eigenflag'),
        ('0x1.abe65461daca4p-5', '0x1.abe65461daca4p-5',
         ['0x1.fa80a72ccfdc5p-6', '-0x1.5c01ffc819748p-1', '-0x1.a0cd32263ccbep-3',
          '0x1.03936e9b1d719p-2', '0x1.5046996e45d42p-1'],
         '1111111111111111111111111111111111111111',
         15, 'not_eigenflag'),
        ('0x0.0p+0', '0x0.0p+0',
         ['0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0'],
         '',
         0, 'weyl_negligible'),
    ],
    (5, 3): [
        ('0x1.079ac07e509ccp-4', '0x1.079ac07e509ccp-4',
         ['0x1.2446ad515fd93p-1', '0x1.ac3a64369262fp-2', '-0x1.6066f32a4682dp-1',
          '0x1.dada5bad025f0p-4', '-0x1.c1f3aa715f37dp-4'],
         '1111111111111111111111111111111111111111',
         19, 'not_eigenflag'),
        ('0x1.abe65461daca5p-5', '0x1.abe65461daca5p-5',
         ['0x1.fa80a72cc79a9p-6', '-0x1.5c01ffc818480p-1', '-0x1.a0cd322638b24p-3',
          '0x1.03936e9b18f89p-2', '0x1.5046996e483c8p-1'],
         '1111111111111111111111111111111111111111',
         17, 'not_eigenflag'),
        ('0x0.0p+0', '0x0.0p+0',
         ['0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0'],
         '',
         0, 'weyl_negligible'),
    ],
    (6, None): [
        ('0x1.701706a9a182bp-4', '0x1.701706a9a182bp-4',
         ['-0x1.e9c1f44a2be77p-2', '0x1.20407ffc1f15dp-1', '-0x1.50962e4990219p-3',
          '0x1.23fe4b0c71078p-1', '0x1.8d917194de144p-6', '-0x1.462756d8a9684p-2'],
         '111111111111111111111111111111111111111111111111',
         16, 'not_eigenflag'),
        ('0x1.5d531241a1842p-4', '0x1.5d531241a1842p-4',
         ['0x1.e9bdc9b0bcbbap-3', '-0x1.905f875473304p-2', '-0x1.c8b51a8fad812p-3',
          '0x1.e62a44f58e06fp-3', '-0x1.a274fc82014a3p-2', '0x1.70183f90eb70cp-1'],
         '111111111111111111111111111111111111111111111111',
         16, 'not_eigenflag'),
        ('0x0.0p+0', '0x0.0p+0',
         ['0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0'],
         '',
         0, 'weyl_negligible'),
    ],
    (6, 3): [
        ('0x1.701706a9a1828p-4', '0x1.701706a9a1828p-4',
         ['-0x1.e9c1f44a2c75dp-2', '0x1.20407ffc1f05fp-1', '-0x1.50962e498ff3dp-3',
          '0x1.23fe4b0c70e2ap-1', '0x1.8d917194e52d0p-6', '-0x1.462756d8a951cp-2'],
         '111111111111111111111111111111111111111111111111',
         19, 'not_eigenflag'),
        ('0x1.5d531241a1842p-4', '0x1.5d531241a1842p-4',
         ['0x1.e9bdc9b0bcbbcp-3', '-0x1.905f875473303p-2', '-0x1.c8b51a8fad813p-3',
          '0x1.e62a44f58e06dp-3', '-0x1.a274fc82014a3p-2', '0x1.70183f90eb70dp-1'],
         '111111111111111111111111111111111111111111111111',
         21, 'not_eigenflag'),
        ('0x0.0p+0', '0x0.0p+0',
         ['0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0'],
         '',
         0, 'weyl_negligible'),
    ],
    (7, None): [
        ('0x1.68d69a4d7e6c5p-4', '0x1.68d69a4d7e6c4p-4',
         ['0x1.5ea048b485b42p-2', '0x1.e692e7be0d738p-7', '0x1.ca390aa97f8d6p-3',
          '-0x1.fa4c630007044p-2', '-0x1.3e1ff32de2b85p-1', '0x1.df86f32ec315fp-3',
          '-0x1.88c79ac49200dp-2'],
         '11111111111111111111111111111111111111111111111111111111',
         15, 'not_eigenflag'),
        ('0x1.a2447935dba52p-4', '0x1.a2447935dba52p-4',
         ['-0x1.9d5adb3c4aef6p-4', '-0x1.d692707eeff1ep-1', '0x1.155eb343cd211p-7',
          '0x1.70e730a7bd0f1p-3', '-0x1.0e8bcec855be2p-3', '-0x1.6e2d10f2ce1e8p-3',
          '0x1.0158d067eae88p-2'],
         '11111111111111111111111111111111111111111111111111111111',
         15, 'not_eigenflag'),
        ('0x0.0p+0', '0x0.0p+0',
         ['0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0',
          '0x0.0p+0'],
         '',
         0, 'weyl_negligible'),
    ],
    (7, 3): [
        ('0x1.68d69a4d7e6c5p-4', '0x1.68d69a4d7e6c4p-4',
         ['0x1.5ea048b485b42p-2', '0x1.e692e7be0d738p-7', '0x1.ca390aa97f8d6p-3',
          '-0x1.fa4c630007044p-2', '-0x1.3e1ff32de2b85p-1', '0x1.df86f32ec315fp-3',
          '-0x1.88c79ac49200dp-2'],
         '11111111111111111111111111111111111111111111111111111111',
         15, 'not_eigenflag'),
        ('0x1.a2447935dba52p-4', '0x1.a2447935dba52p-4',
         ['-0x1.9d5adb3c4aef6p-4', '-0x1.d692707eeff1ep-1', '0x1.155eb343cd211p-7',
          '0x1.70e730a7bd0f1p-3', '-0x1.0e8bcec855be2p-3', '-0x1.6e2d10f2ce1e8p-3',
          '0x1.0158d067eae88p-2'],
         '11111111111111111111111111111111111111111111111111111111',
         15, 'not_eigenflag'),
        ('0x0.0p+0', '0x0.0p+0',
         ['0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0',
          '0x0.0p+0'],
         '',
         0, 'weyl_negligible'),
    ],
    (8, None): [
        ('0x1.b6c54763f4f49p-4', '0x1.b6c54763f4f49p-4',
         ['0x1.0b41327dd3b4ap-1', '0x1.242c9e84ad6bap-1', '-0x1.117c946f419f9p-3',
          '0x1.e00f82399d0ccp-3', '0x1.183ea445fa62fp-5', '0x1.ecf710b847af1p-8',
          '0x1.b052725f714b3p-2', '-0x1.8c1e7fb78bba0p-2'],
         '1111111111111111111111111111111111111111111111111111111111111111',
         20, 'not_eigenflag'),
        ('0x1.a8fa675ebb1d6p-4', '0x1.a8fa675ebb1d6p-4',
         ['0x1.41c222d78ed18p-3', '-0x1.b937668563bc7p-4', '0x1.1f1338f8eb52dp-2',
          '0x1.d9e5648ce7046p-3', '0x1.23722ab5c8250p-1', '-0x1.0eeff21437b22p-2',
          '-0x1.9b0725db27aafp-2', '-0x1.0d310c39531bep-1'],
         '1111111111111111111111111111111111111111111111111111111111111111',
         24, 'not_eigenflag'),
        ('0x0.0p+0', '0x0.0p+0',
         ['0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0',
          '0x0.0p+0'],
         '',
         0, 'weyl_negligible'),
    ],
    (8, 3): [
        ('0x1.b6c54763f4f45p-4', '0x1.b6c54763f4f45p-4',
         ['0x1.0b41327dd337dp-1', '0x1.242c9e84adbefp-1', '-0x1.117c946f42ea1p-3',
          '0x1.e00f82399da02p-3', '0x1.183ea445fba7bp-5', '0x1.ecf710b80a668p-8',
          '0x1.b052725f70f0cp-2', '-0x1.8c1e7fb78c139p-2'],
         '1111111111111111111111111111111111111111111111111111111111111111',
         22, 'not_eigenflag'),
        ('0x1.a8fa675ebb1d7p-4', '0x1.a8fa675ebb1d7p-4',
         ['-0x1.41c222d78d240p-3', '0x1.b937668563750p-4', '-0x1.1f1338f8eb82bp-2',
          '-0x1.d9e5648ce7ee2p-3', '-0x1.23722ab5c8353p-1', '0x1.0eeff21437acbp-2',
          '0x1.9b0725db2813fp-2', '0x1.0d310c3952df1p-1'],
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
