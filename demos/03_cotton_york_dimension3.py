"""The Cotton-York determinant test in dimension 3.

The Weyl tensor vanishes identically in dimension 3, so the obstruction
switches to the Cotton-York tensor CY (the Hodge dual of the Cotton
tensor): a metric admitting a local limiting Carleman weight near a point
must have det(CY) = 0 there.  det(CY) != 0 certifies non-existence.

Run:  python3 demos/03_cotton_york_dimension3.py
"""

import numpy as np

import lcwcheck as lw

# Product metrics dx1^2 + h(x2, x3) admit the parallel field d/dx1 and
# must therefore have singular Cotton-York everywhere.
product = lw.parse_metric("""
{"dimension": 3, "coordinates": ["x1", "x2", "x3"],
 "g": [["1", "0", "0"],
       [null, "1+0.3*x3^2+0.1*x2^2", "0.2*x2*x3"],
       [null, null, "1+0.25*x2^2"]]}
""")
rng = np.random.default_rng(3)
print("product metric dx1^2 + h:")
for _ in range(3):
    p = rng.uniform(-0.8, 0.8, 3)
    pkg = lw.curvature_package(product, p)
    cy = lw.CottonYorkTensor.from_matrix(pkg.cotton_york)
    print(f"  point {np.round(p, 3)}: |CY| = {cy.norm:.3e}, det = {cy.determinant:+.2e},"
          f" eigenvalues {np.round(cy.eigenvalues, 4)} -> {lw.classify_cy(cy)}")

# A generic metric has nonsingular Cotton-York: the verdict certifies that
# no limiting Carleman weight exists near the point.
generic = lw.random_polynomial_metric(3, rng, amplitude=0.06)
p = rng.uniform(-0.5, 0.5, 3)
pkg = lw.curvature_package(generic, p)
cy = lw.CottonYorkTensor.from_matrix(pkg.cotton_york)
print(f"\ngeneric metric at {np.round(p, 3)}:")
print(f"  det(CY) = {cy.determinant:+.3e} -> {lw.obstruct_point(generic, p).verdict}")

# The singular set inside the 5-dimensional space of trace-free symmetric
# operators is a cone: a 4-dimensional stratum of spectra (l, -l, 0)
# parameterized by (l, rotation), plus the origin.  Its codimension is 1,
# which is why det(CY) = 0 cuts out surfaces, not open sets, for generic
# metrics.
q, r = np.linalg.qr(rng.standard_normal((3, 3)))
q = q * np.sign(np.diag(r))
if np.linalg.det(q) < 0:
    q[:, [0, 1]] = q[:, [1, 0]]
sample = lw.stratum_param(0.7, q)
print(f"\nstratum chart at (0.7, Q): eigenvalues {np.round(sample.eigenvalues, 6)},"
      f" det = {sample.determinant:.1e} -> {lw.classify_cy(sample)}")

# Orientation is a convention: reversing it flips CY and the sign of the
# determinant, never the verdict.
plus = lw.curvature_package(generic, p, orientation=1)
minus = lw.curvature_package(generic, p, orientation=-1)
print(f"\norientation flip: det {np.linalg.det(plus.cotton_york):+.3e} ->"
      f" {np.linalg.det(minus.cotton_york):+.3e} (same verdict)")
