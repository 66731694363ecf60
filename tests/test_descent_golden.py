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
        ('0x1.7f911ef8664f2p-6', '0x1.7f911ef8664f2p-6',
         ['0x1.6e1c5a6c55e0ep-1', '-0x1.5aaddf6cceed2p-1', '0x1.601452bfe1d71p-3',
          '-0x1.a4d8b430a2d0ep-6'],
         '11111111111111111111111111111111',
         13, 'not_eigenflag'),
        ('0x1.b8a768f3e6850p-8', '0x1.b8a768f3e684ep-8',
         ['-0x1.37a66def46e8bp-2', '0x1.468f9a898f865p-2', '0x1.2577971aa6a11p-3',
          '0x1.c5ac555fa52e9p-1'],
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
        ('0x1.7f911ef8664f3p-6', '0x1.7f911ef8664f3p-6',
         ['0x1.e1b5af54af550p-3', '0x1.33d02ae7b78afp-3', '-0x1.fb5eb78374c7ap-3',
          '0x1.db017504a9f9bp-1'],
         '11111111111111111111111111111111',
         15, 'not_eigenflag'),
        ('0x1.b8a768f3e6850p-8', '0x1.b8a768f3e684ep-8',
         ['-0x1.37a66def46e8bp-2', '0x1.468f9a898f865p-2', '0x1.2577971aa6a11p-3',
          '0x1.c5ac555fa52e9p-1'],
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
        ('0x1.079ac07e509ccp-4', '0x1.079ac07e509cbp-4',
         ['0x1.2446ad515fdc5p-1', '0x1.ac3a643692604p-2', '-0x1.6066f32a46819p-1',
          '0x1.dada5bad023d5p-4', '-0x1.c1f3aa715f3a1p-4'],
         '1111111111111111111111111111111111111111',
         14, 'not_eigenflag'),
        ('0x1.abe65461daca4p-5', '0x1.abe65461daca4p-5',
         ['-0x1.fa80a72cd7595p-6', '0x1.5c01ffc818ba9p-1', '0x1.a0cd32263a7c3p-3',
          '-0x1.03936e9b1ad35p-2', '-0x1.5046996e4740fp-1'],
         '1111111111111111111111111111111111111111',
         15, 'not_eigenflag'),
        ('0x0.0p+0', '0x0.0p+0',
         ['0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0'],
         '',
         0, 'weyl_negligible'),
    ],
    (5, 3): [
        ('0x1.079ac07e509cbp-4', '0x1.079ac07e509cap-4',
         ['0x1.2446ad5160153p-1', '0x1.ac3a643692dfbp-2', '-0x1.6066f32a46117p-1',
          '0x1.dada5bad0a975p-4', '-0x1.c1f3aa715b937p-4'],
         '1111111111111111111111111111111111111111',
         19, 'not_eigenflag'),
        ('0x1.abe65461daca4p-5', '0x1.abe65461daca4p-5',
         ['-0x1.fa80a72cd7595p-6', '0x1.5c01ffc818ba9p-1', '0x1.a0cd32263a7c3p-3',
          '-0x1.03936e9b1ad35p-2', '-0x1.5046996e4740fp-1'],
         '1111111111111111111111111111111111111111',
         17, 'not_eigenflag'),
        ('0x0.0p+0', '0x0.0p+0',
         ['0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0'],
         '',
         0, 'weyl_negligible'),
    ],
    (6, None): [
        ('0x1.701706a9a182bp-4', '0x1.701706a9a182bp-4',
         ['0x1.e9c1f44a2c762p-2', '-0x1.20407ffc1f05fp-1', '0x1.50962e498ff3bp-3',
          '-0x1.23fe4b0c70e2ap-1', '-0x1.8d917194e52b2p-6', '0x1.462756d8a951bp-2'],
         '111111111111111111111111111111111111111111111111',
         16, 'not_eigenflag'),
        ('0x1.5d531241a1841p-4', '0x1.5d531241a1840p-4',
         ['-0x1.e9bdc9b0bcbbbp-3', '0x1.905f875473301p-2', '0x1.c8b51a8fad815p-3',
          '-0x1.e62a44f58e06fp-3', '0x1.a274fc82014a3p-2', '-0x1.70183f90eb70ep-1'],
         '111111111111111111111111111111111111111111111111',
         16, 'not_eigenflag'),
        ('0x0.0p+0', '0x0.0p+0',
         ['0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0'],
         '',
         0, 'weyl_negligible'),
    ],
    (6, 3): [
        ('0x1.701706a9a182ap-4', '0x1.701706a9a182ap-4',
         ['-0x1.e9c1f44a2c761p-2', '0x1.20407ffc1f05ep-1', '-0x1.50962e498ff3dp-3',
          '0x1.23fe4b0c70e2ap-1', '0x1.8d917194e52aap-6', '-0x1.462756d8a951bp-2'],
         '111111111111111111111111111111111111111111111111',
         19, 'not_eigenflag'),
        ('0x1.5d531241a1843p-4', '0x1.5d531241a1842p-4',
         ['0x1.e9bdc9b0bcbbcp-3', '-0x1.905f875473302p-2', '-0x1.c8b51a8fad815p-3',
          '0x1.e62a44f58e06ep-3', '-0x1.a274fc82014a4p-2', '0x1.70183f90eb70ep-1'],
         '111111111111111111111111111111111111111111111111',
         21, 'not_eigenflag'),
        ('0x0.0p+0', '0x0.0p+0',
         ['0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0'],
         '',
         0, 'weyl_negligible'),
    ],
    (7, None): [
        ('0x1.68d69a4d7e6c6p-4', '0x1.68d69a4d7e6c3p-4',
         ['0x1.5ea048b48600ep-2', '0x1.e692e7be1256ap-7', '0x1.ca390aa982b89p-3',
          '-0x1.fa4c630006582p-2', '-0x1.3e1ff32de31c6p-1', '0x1.df86f32ec20f3p-3',
          '-0x1.88c79ac490b7ep-2'],
         '11111111111111111111111111111111111111111111111111111111',
         15, 'not_eigenflag'),
        ('0x1.a2447935dba52p-4', '0x1.a2447935dba52p-4',
         ['0x1.9d5adb3c4b335p-4', '0x1.d692707eefebap-1', '-0x1.155eb343ccd7cp-7',
          '-0x1.70e730a7bd340p-3', '0x1.0e8bcec855b2dp-3', '0x1.6e2d10f2ce54fp-3',
          '-0x1.0158d067eaf25p-2'],
         '11111111111111111111111111111111111111111111111111111111',
         15, 'not_eigenflag'),
        ('0x0.0p+0', '0x0.0p+0',
         ['0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0',
          '0x0.0p+0'],
         '',
         0, 'weyl_negligible'),
    ],
    (7, 3): [
        ('0x1.68d69a4d7e6c9p-4', '0x1.68d69a4d7e6c6p-4',
         ['0x1.5ea048b485149p-2', '0x1.e692e7be0c365p-7', '0x1.ca390aa9850f9p-3',
          '-0x1.fa4c630007f73p-2', '-0x1.3e1ff32de26cfp-1', '0x1.df86f32ec37a9p-3',
          '-0x1.88c79ac490913p-2'],
         '11111111111111111111111111111111111111111111111111111111',
         15, 'not_eigenflag'),
        ('0x1.a2447935dba54p-4', '0x1.a2447935dba54p-4',
         ['0x1.9d5adb3c4aef0p-4', '0x1.d692707eeff20p-1', '-0x1.155eb343cd1fap-7',
          '-0x1.70e730a7bd0eap-3', '0x1.0e8bcec855bedp-3', '0x1.6e2d10f2ce1e3p-3',
          '-0x1.0158d067eae84p-2'],
         '11111111111111111111111111111111111111111111111111111111',
         15, 'not_eigenflag'),
        ('0x0.0p+0', '0x0.0p+0',
         ['0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0',
          '0x0.0p+0'],
         '',
         0, 'weyl_negligible'),
    ],
    (8, None): [
        ('0x1.b6c54763f4f44p-4', '0x1.b6c54763f4f44p-4',
         ['-0x1.0b41327dd3b75p-1', '-0x1.242c9e84ad522p-1', '0x1.117c946f42221p-3',
          '-0x1.e00f82399d50fp-3', '-0x1.183ea445f9cb5p-5', '-0x1.ecf710b83c806p-8',
          '-0x1.b052725f714b7p-2', '0x1.8c1e7fb78bd55p-2'],
         '1111111111111111111111111111111111111111111111111111111111111111',
         20, 'not_eigenflag'),
        ('0x1.a8fa675ebb1d7p-4', '0x1.a8fa675ebb1d7p-4',
         ['0x1.41c222d78db64p-3', '-0x1.b937668563862p-4', '0x1.1f1338f8eb734p-2',
          '0x1.d9e5648ce79e7p-3', '0x1.23722ab5c82f0p-1', '-0x1.0eeff21437aecp-2',
          '-0x1.9b0725db27ee5p-2', '-0x1.0d310c3952f54p-1'],
         '1111111111111111111111111111111111111111111111111111111111111111',
         24, 'not_eigenflag'),
        ('0x0.0p+0', '0x0.0p+0',
         ['0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0',
          '0x0.0p+0', '0x0.0p+0'],
         '',
         0, 'weyl_negligible'),
    ],
    (8, 3): [
        ('0x1.b6c54763f4f41p-4', '0x1.b6c54763f4f41p-4',
         ['0x1.0b41327dd3365p-1', '0x1.242c9e84adc0dp-1', '-0x1.117c946f42ed9p-3',
          '0x1.e00f82399da06p-3', '0x1.183ea445fbac5p-5', '0x1.ecf710b80a59ap-8',
          '0x1.b052725f70ee1p-2', '-0x1.8c1e7fb78c13ep-2'],
         '1111111111111111111111111111111111111111111111111111111111111111',
         21, 'not_eigenflag'),
        ('0x1.a8fa675ebb1d7p-4', '0x1.a8fa675ebb1d7p-4',
         ['-0x1.41c222d78e8e9p-3', '0x1.b937668563b73p-4', '-0x1.1f1338f8eb47dp-2',
          '-0x1.d9e5648ce708ap-3', '-0x1.23722ab5c8422p-1', '0x1.0eeff214376f4p-2',
          '0x1.9b0725db27fd2p-2', '0x1.0d310c3952f58p-1'],
         '1111111111111111111111111111111111111111111111111111111111111111',
         18, 'not_eigenflag'),
        ('0x0.0p+0', '0x0.0p+0',
         ['0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0',
          '0x0.0p+0', '0x0.0p+0'],
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
