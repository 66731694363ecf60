"""Golden reports of the eigenflag minimizers.

``min_residuals`` on seeded operators at n = 4..8, with the start set
unrotated (seed None) and rotated (seed 3): two random Weyl operators, at
n = 4 a planted ``construct_stratum4`` operator, and one operator below the
Weyl floor.  Each report's floats are pinned bit for bit as hex, with its
per-start convergence flags, its round count and its verdict, so any change
to the n = 4 closed form or to the descent of n >= 5 that moves a bit of
its output fails here.
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

# n = 4 takes the closed form: one start, no iterations, whatever the seed
CLOSED_FORM4 = [
    ('0x1.7f911ef8664fep-6', '0x1.7f911ef8664fep-6',
     ['0x1.e1b5af54af546p-3', '0x1.33d02ae7b78a4p-3', '-0x1.fb5eb78374c8ap-3',
      '0x1.db017504a9f9cp-1'],
     '1', 0, 'not_eigenflag'),
    ('0x1.b8a768f3e6843p-8', '0x1.b8a768f3e6841p-8',
     ['0x1.a09d3c9ea2479p-1', '0x1.1ac3f4e86a114p-1', '-0x1.2f4747469f10dp-3',
      '0x1.acb47b8198f66p-4'],
     '1', 0, 'not_eigenflag'),
    ('0x1.68128dad6b5acp-105', '0x1.be7d680000000p-105',
     ['0x1.e328ae5abd087p-1', '0x1.0a21ebdf62786p-2', '-0x1.1d22650e6b527p-6',
      '0x1.a1e872bbf0e50p-3'],
     '1', 0, 'eigenflag_within_tol'),
    ('0x0.0p+0', '0x0.0p+0',
     ['0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0'],
     '',
     0, 'weyl_negligible'),
]

GOLDEN = {
    (4, None): CLOSED_FORM4,
    (4, 3): CLOSED_FORM4,
    (5, None): [
        ('0x1.079ac07e509ccp-4', '0x1.079ac07e509ccp-4',
         ['-0x1.2446ad515fcd0p-1', '-0x1.ac3a64369283ep-2', '0x1.6066f32a4683ap-1',
          '-0x1.dada5bad02889p-4', '0x1.c1f3aa715ee8cp-4'],
         '1111111111111111111111111111111111111111',
         12, 'not_eigenflag'),
        ('0x1.abe65461daca4p-5', '0x1.abe65461daca4p-5',
         ['-0x1.fa80a72cc79a4p-6', '0x1.5c01ffc818480p-1', '0x1.a0cd322638b23p-3',
          '-0x1.03936e9b18f88p-2', '-0x1.5046996e483c8p-1'],
         '1111111111111111111111111111111111111111',
         13, 'not_eigenflag'),
        ('0x0.0p+0', '0x0.0p+0',
         ['0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0'],
         '',
         0, 'weyl_negligible'),
    ],
    (5, 3): [
        ('0x1.079ac07e509ccp-4', '0x1.079ac07e509ccp-4',
         ['0x1.2446ad515fd83p-1', '0x1.ac3a643692643p-2', '-0x1.6066f32a46835p-1',
          '0x1.dada5bad025adp-4', '-0x1.c1f3aa715f3b8p-4'],
         '1111111111111111111111111111111111111111',
         11, 'not_eigenflag'),
        ('0x1.abe65461daca2p-5', '0x1.abe65461daca2p-5',
         ['0x1.fa80a72cc7f8fp-6', '-0x1.5c01ffc8184ccp-1', '-0x1.a0cd322638c53p-3',
          '0x1.03936e9b190b9p-2', '0x1.5046996e48327p-1'],
         '1111111111111111111111111111111111111111',
         14, 'not_eigenflag'),
        ('0x0.0p+0', '0x0.0p+0',
         ['0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0'],
         '',
         0, 'weyl_negligible'),
    ],
    (6, None): [
        ('0x1.701706a9a182ap-4', '0x1.701706a9a182ap-4',
         ['-0x1.e9c1f44a2c769p-2', '0x1.20407ffc1f05fp-1', '-0x1.50962e498ff35p-3',
          '0x1.23fe4b0c70e23p-1', '0x1.8d917194e53ffp-6', '-0x1.462756d8a9524p-2'],
         '111111111111111111111111111111111111111111111111',
         15, 'not_eigenflag'),
        ('0x1.5d531241a1844p-4', '0x1.5d531241a1844p-4',
         ['0x1.e9bdc9b0bcbbfp-3', '-0x1.905f875473304p-2', '-0x1.c8b51a8fad814p-3',
          '0x1.e62a44f58e06fp-3', '-0x1.a274fc82014a4p-2', '0x1.70183f90eb70dp-1'],
         '111111111111111111111111111111111111111111111111',
         14, 'not_eigenflag'),
        ('0x0.0p+0', '0x0.0p+0',
         ['0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0'],
         '',
         0, 'weyl_negligible'),
    ],
    (6, 3): [
        ('0x1.701706a9a182ap-4', '0x1.701706a9a182ap-4',
         ['-0x1.e9c1f44a2c75cp-2', '0x1.20407ffc1f061p-1', '-0x1.50962e498ff3ap-3',
          '0x1.23fe4b0c70e29p-1', '0x1.8d917194e52d2p-6', '-0x1.462756d8a951fp-2'],
         '111111111111111111111111111111111111111111111111',
         16, 'not_eigenflag'),
        ('0x1.5d531241a183ep-4', '0x1.5d531241a183ep-4',
         ['-0x1.e9bdc9b0bb0c9p-3', '0x1.905f8754737bap-2', '0x1.c8b51a8facfadp-3',
          '-0x1.e62a44f58ebd7p-3', '0x1.a274fc82011bep-2', '-0x1.70183f90eb88bp-1'],
         '111111111111111111111111111111111111111111111111',
         15, 'not_eigenflag'),
        ('0x0.0p+0', '0x0.0p+0',
         ['0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0'],
         '',
         0, 'weyl_negligible'),
    ],
    (7, None): [
        ('0x1.68d69a4d7e6cap-4', '0x1.68d69a4d7e6c9p-4',
         ['-0x1.5ea048b486847p-2', '-0x1.e692e7be34d38p-7', '-0x1.ca390aa9846cbp-3',
          '0x1.fa4c630007d4fp-2', '0x1.3e1ff32de2ef8p-1', '-0x1.df86f32ec43d3p-3',
          '0x1.88c79ac48db51p-2'],
         '11111111111111111111111111111111111111111111111111111111',
         15, 'not_eigenflag'),
        ('0x1.a2447935dba52p-4', '0x1.a2447935dba52p-4',
         ['-0x1.9d5adb3c4aeffp-4', '-0x1.d692707eeff1dp-1', '0x1.155eb343cd213p-7',
          '0x1.70e730a7bd0f7p-3', '-0x1.0e8bcec855be3p-3', '-0x1.6e2d10f2ce1eep-3',
          '0x1.0158d067eae8ap-2'],
         '11111111111111111111111111111111111111111111111111111111',
         15, 'not_eigenflag'),
        ('0x0.0p+0', '0x0.0p+0',
         ['0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0'],
         '',
         0, 'weyl_negligible'),
    ],
    (7, 3): [
        ('0x1.68d69a4d7e6c9p-4', '0x1.68d69a4d7e6c8p-4',
         ['0x1.5ea048b4865acp-2', '0x1.e692e7be2b774p-7', '0x1.ca390aa9836bfp-3',
          '-0x1.fa4c630007a5fp-2', '-0x1.3e1ff32de2e3bp-1', '0x1.df86f32ec3e40p-3',
          '-0x1.88c79ac48ea68p-2'],
         '11111111111111111111111111111111111111111111111111111111',
         15, 'not_eigenflag'),
        ('0x1.a2447935dba52p-4', '0x1.a2447935dba52p-4',
         ['-0x1.9d5adb3c4aeffp-4', '-0x1.d692707eeff1dp-1', '0x1.155eb343cd213p-7',
          '0x1.70e730a7bd0f7p-3', '-0x1.0e8bcec855be3p-3', '-0x1.6e2d10f2ce1eep-3',
          '0x1.0158d067eae8ap-2'],
         '11111111111111111111111111111111111111111111111111111111',
         14, 'not_eigenflag'),
        ('0x0.0p+0', '0x0.0p+0',
         ['0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0'],
         '',
         0, 'weyl_negligible'),
    ],
    (8, None): [
        ('0x1.b6c54763f4f45p-4', '0x1.b6c54763f4f45p-4',
         ['0x1.0b41327dd3b2dp-1', '0x1.242c9e84ad6dcp-1', '-0x1.117c946f41a05p-3',
          '0x1.e00f82399d0edp-3', '0x1.183ea445fa6a4p-5', '0x1.ecf710b847151p-8',
          '0x1.b052725f71499p-2', '-0x1.8c1e7fb78bb9cp-2'],
         '1111111111111111111111111111111111111111111111111111111111111111',
         17, 'not_eigenflag'),
        ('0x1.a8fa675ebb1d5p-4', '0x1.a8fa675ebb1d5p-4',
         ['-0x1.41c222d78d6ddp-3', '0x1.b937668563965p-4', '-0x1.1f1338f8eb7d5p-2',
          '-0x1.d9e5648ce7ceap-3', '-0x1.23722ab5c8310p-1', '0x1.0eeff21437ae0p-2',
          '0x1.9b0725db280d1p-2', '0x1.0d310c3952e48p-1'],
         '1111111111111111111111111111111111111111111111111111111111111111',
         16, 'not_eigenflag'),
        ('0x0.0p+0', '0x0.0p+0',
         ['0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0',
          '0x0.0p+0'],
         '',
         0, 'weyl_negligible'),
    ],
    (8, 3): [
        ('0x1.b6c54763f4f45p-4', '0x1.b6c54763f4f45p-4',
         ['-0x1.0b41327dd3b18p-1', '-0x1.242c9e84ad6fep-1', '0x1.117c946f419abp-3',
          '-0x1.e00f82399d114p-3', '-0x1.183ea445fa708p-5', '-0x1.ecf710b846c43p-8',
          '-0x1.b052725f71482p-2', '0x1.8c1e7fb78bb8bp-2'],
         '1111111111111111111111111111111111111111111111111111111111111111',
         20, 'not_eigenflag'),
        ('0x1.a8fa675ebb1dap-4', '0x1.a8fa675ebb1dap-4',
         ['-0x1.41c222d78d14fp-3', '0x1.b9376685636fep-4', '-0x1.1f1338f8eb848p-2',
          '-0x1.d9e5648ce7f51p-3', '-0x1.23722ab5c8358p-1', '0x1.0eeff21437ac8p-2',
          '0x1.9b0725db2816ap-2', '0x1.0d310c3952ddep-1'],
         '1111111111111111111111111111111111111111111111111111111111111111',
         17, 'not_eigenflag'),
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
