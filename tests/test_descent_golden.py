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
        ('0x1.7f911ef8664f4p-6', '0x1.7f911ef8664f4p-6',
         ['0x1.fdb187912371dp-2', '0x1.55e0dbc591451p-1', '0x1.17c23fc55ec0dp-1',
          '-0x1.6a55c18ca9f2dp-4'],
         '11111111111111111111111111111111',
         39, 'not_eigenflag'),
        ('0x1.b8a768f3e6850p-8', '0x1.b8a768f3e684ep-8',
         ['-0x1.37a66def45a77p-2', '0x1.468f9a898c711p-2', '0x1.2577971aa06f1p-3',
          '0x1.c5ac555fa633ep-1'],
         '11111111111111111111111111111111',
         34, 'not_eigenflag'),
        ('0x1.f6600fe94a528p-103', '0x1.3778ffa000000p-102',
         ['0x1.e328ae5abd088p-1', '0x1.0a21ebdf62782p-2', '-0x1.1d22650e6b4cfp-6',
          '0x1.a1e872bbf0e4ep-3'],
         '11111111111111111111111111111111',
         36, 'eigenflag_within_tol'),
        ('0x0.0p+0', '0x0.0p+0',
         ['0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0'],
         '',
         0, 'weyl_negligible'),
    ],
    (4, 3): [
        ('0x1.7f911ef8664f3p-6', '0x1.7f911ef8664f3p-6',
         ['0x1.fdb1879125b7cp-2', '0x1.55e0dbc591b06p-1', '0x1.17c23fc55d064p-1',
          '-0x1.6a55c18cb2e6bp-4'],
         '11111111111111111111111111111111',
         40, 'not_eigenflag'),
        ('0x1.b8a768f3e684fp-8', '0x1.b8a768f3e684dp-8',
         ['-0x1.37a66def46b29p-2', '0x1.468f9a898fa3cp-2', '0x1.2577971aa69f2p-3',
          '0x1.c5ac555fa532bp-1'],
         '11111111111111111111111111111111',
         34, 'not_eigenflag'),
        ('0x1.710d9ef7bdef7p-105', '0x1.c9a0400000000p-105',
         ['0x1.1377eae7e6679p-5', '-0x1.2ddd7079467a7p-1', '0x1.fa94192f7dbaep-2',
          '0x1.467338e8e7761p-1'],
         '11111111111111111111111111111111',
         41, 'eigenflag_within_tol'),
        ('0x0.0p+0', '0x0.0p+0',
         ['0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0'],
         '',
         0, 'weyl_negligible'),
    ],
    (5, None): [
        ('0x1.079ac07e509cdp-4', '0x1.079ac07e509ccp-4',
         ['0x1.2446ad51602a2p-1', '0x1.ac3a643691c0ap-2', '-0x1.6066f32a46788p-1',
          '0x1.dada5bad01d01p-4', '-0x1.c1f3aa715e56bp-4'],
         '1111111111111111111111111111111111111111',
         62, 'not_eigenflag'),
        ('0x1.abe65461daca2p-5', '0x1.abe65461daca2p-5',
         ['-0x1.fa80a72cc7d45p-6', '0x1.5c01ffc8184d5p-1', '0x1.a0cd322638a9dp-3',
          '-0x1.03936e9b18df6p-2', '-0x1.5046996e483c8p-1'],
         '1111111111111111111111111111111111111111',
         70, 'not_eigenflag'),
        ('0x0.0p+0', '0x0.0p+0',
         ['0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0'],
         '',
         0, 'weyl_negligible'),
    ],
    (5, 3): [
        ('0x1.079ac07e509ccp-4', '0x1.079ac07e509cbp-4',
         ['-0x1.2446ad516016dp-1', '-0x1.ac3a643692552p-2', '0x1.6066f32a465bfp-1',
          '-0x1.dada5bad01795p-4', '0x1.c1f3aa715e959p-4'],
         '1111111111111111111111111111111111111111',
         46, 'not_eigenflag'),
        ('0x1.abe65461daca6p-5', '0x1.abe65461daca6p-5',
         ['-0x1.fa80a72cd5adap-6', '0x1.5c01ffc81881bp-1', '0x1.a0cd322639d5cp-3',
          '-0x1.03936e9b18429p-2', '-0x1.5046996e48081p-1'],
         '1111111111111111111111111111111111111111',
         60, 'not_eigenflag'),
        ('0x0.0p+0', '0x0.0p+0',
         ['0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0'],
         '',
         0, 'weyl_negligible'),
    ],
    (6, None): [
        ('0x1.701706a9a1828p-4', '0x1.701706a9a1828p-4',
         ['-0x1.e9c1f44a27b90p-2', '0x1.20407ffc20a4dp-1', '-0x1.50962e498d2e5p-3',
          '0x1.23fe4b0c70d09p-1', '0x1.8d917194cc6cfp-6', '-0x1.462756d8abca2p-2'],
         '111111111111111111111111111111111111111111111111',
         86, 'not_eigenflag'),
        ('0x1.5d531241a183fp-4', '0x1.5d531241a183ep-4',
         ['-0x1.e9bdc9b0b7e4fp-3', '0x1.905f875473f47p-2', '0x1.c8b51a8fad012p-3',
          '-0x1.e62a44f5909b9p-3', '0x1.a274fc8200852p-2', '-0x1.70183f90ebadep-1'],
         '111111111111111111111111111111111111111111111111',
         105, 'not_eigenflag'),
        ('0x0.0p+0', '0x0.0p+0',
         ['0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0'],
         '',
         0, 'weyl_negligible'),
    ],
    (6, 3): [
        ('0x1.701706a9a1828p-4', '0x1.701706a9a1828p-4',
         ['-0x1.e9c1f44a27b90p-2', '0x1.20407ffc20a4dp-1', '-0x1.50962e498d2e5p-3',
          '0x1.23fe4b0c70d09p-1', '0x1.8d917194cc6cfp-6', '-0x1.462756d8abca2p-2'],
         '111111111111111111111111111111111111111111111111',
         97, 'not_eigenflag'),
        ('0x1.5d531241a183fp-4', '0x1.5d531241a183ep-4',
         ['0x1.e9bdc9b0c3987p-3', '-0x1.905f875470e5cp-2', '-0x1.c8b51a8fafefap-3',
          '0x1.e62a44f58a09dp-3', '-0x1.a274fc8200fb7p-2', '0x1.70183f90ebb8bp-1'],
         '111111111111111111111111111111111111111111111111',
         117, 'not_eigenflag'),
        ('0x0.0p+0', '0x0.0p+0',
         ['0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0'],
         '',
         0, 'weyl_negligible'),
    ],
    (7, None): [
        ('0x1.68d69a4d7e6c5p-4', '0x1.68d69a4d7e6c2p-4',
         ['-0x1.5ea048b4853c6p-2', '-0x1.e692e7bde9befp-7', '-0x1.ca390aa984f98p-3',
          '0x1.fa4c6300086d4p-2', '0x1.3e1ff32de3790p-1', '-0x1.df86f32ec21d5p-3',
          '0x1.88c79ac48cec5p-2'],
         '11111111111111111111111111111111111111111111111111111111',
         62, 'not_eigenflag'),
        ('0x1.a2447935dba54p-4', '0x1.a2447935dba54p-4',
         ['0x1.9d5adb3c4cbe2p-4', '0x1.d692707ef0032p-1', '-0x1.155eb343d0802p-7',
          '-0x1.70e730a7be1abp-3', '0x1.0e8bcec85c4dbp-3', '0x1.6e2d10f2cc996p-3',
          '-0x1.0158d067e8acap-2'],
         '11111111111111111111111111111111111101111111111111111111',
         65, 'not_eigenflag'),
        ('0x0.0p+0', '0x0.0p+0',
         ['0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0'],
         '',
         0, 'weyl_negligible'),
    ],
    (7, 3): [
        ('0x1.68d69a4d7e6c5p-4', '0x1.68d69a4d7e6c2p-4',
         ['-0x1.5ea048b4853c6p-2', '-0x1.e692e7bde9befp-7', '-0x1.ca390aa984f98p-3',
          '0x1.fa4c6300086d4p-2', '0x1.3e1ff32de3790p-1', '-0x1.df86f32ec21d5p-3',
          '0x1.88c79ac48cec5p-2'],
         '11111111111111111111111111111111111111111111111111111111',
         62, 'not_eigenflag'),
        ('0x1.a2447935dba52p-4', '0x1.a2447935dba52p-4',
         ['0x1.9d5adb3c49ba3p-4', '0x1.d692707ef0008p-1', '-0x1.155eb343e30d7p-7',
          '-0x1.70e730a7be0f7p-3', '0x1.0e8bcec85b36cp-3', '0x1.6e2d10f2ca05fp-3',
          '-0x1.0158d067ea3fap-2'],
         '11111111111111111111111111111111111111111111111111111111',
         116, 'not_eigenflag'),
        ('0x0.0p+0', '0x0.0p+0',
         ['0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0'],
         '',
         0, 'weyl_negligible'),
    ],
    (8, None): [
        ('0x1.b6c54763f4f42p-4', '0x1.b6c54763f4f42p-4',
         ['0x1.0b41327dd4c7dp-1', '0x1.242c9e84aa392p-1', '-0x1.117c946f45668p-3',
          '0x1.e00f823997aa7p-3', '0x1.183ea445e787ap-5', '0x1.ecf710b8ace45p-8',
          '0x1.b052725f713c3p-2', '-0x1.8c1e7fb7937afp-2'],
         '1111111111111111111111111111111111111111111111111111111111111111',
         230, 'not_eigenflag'),
        ('0x1.a8fa675ebb1d2p-4', '0x1.a8fa675ebb1d2p-4',
         ['-0x1.41c222d790aebp-3', '0x1.b9376685672a5p-4', '-0x1.1f1338f8ecb06p-2',
          '-0x1.d9e5648ce425ap-3', '-0x1.23722ab5c7f8ap-1', '0x1.0eeff21438370p-2',
          '0x1.9b0725db2778cp-2', '0x1.0d310c3952f73p-1'],
         '1111111111111111111111111111111111111111111111111111111111111011',
         500, 'not_eigenflag'),
        ('0x0.0p+0', '0x0.0p+0',
         ['0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0',
          '0x0.0p+0'],
         '',
         0, 'weyl_negligible'),
    ],
    (8, 3): [
        ('0x1.b6c54763f4f46p-4', '0x1.b6c54763f4f46p-4',
         ['0x1.0b41327dd3703p-1', '0x1.242c9e84ac7acp-1', '-0x1.117c946f41c9dp-3',
          '0x1.e00f82399d015p-3', '0x1.183ea446060b8p-5', '0x1.ecf710b614d68p-8',
          '0x1.b052725f74b9dp-2', '-0x1.8c1e7fb78b81bp-2'],
         '1111111111111111111111111111111111111111111111111111111111111111',
         154, 'not_eigenflag'),
        ('0x1.a8fa675ebb1d3p-4', '0x1.a8fa675ebb1d3p-4',
         ['0x1.41c222d789177p-3', '-0x1.b93766855fe43p-4', '0x1.1f1338f8e6909p-2',
          '0x1.d9e5648cf08e9p-3', '0x1.23722ab5c9185p-1', '-0x1.0eeff214359e3p-2',
          '-0x1.9b0725db29437p-2', '-0x1.0d310c3952bd5p-1'],
         '1111111111111111111111111111111111111111111111111111111111111111',
         104, 'not_eigenflag'),
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
