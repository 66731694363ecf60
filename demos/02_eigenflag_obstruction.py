"""The eigenflag test in dimension >= 4.

A metric admitting a local limiting Carleman weight near a point has, at
that point, a Weyl operator W with the *eigenflag property*: some unit v
with W(v ^ v-perp) contained in v ^ v-perp.  The residual E(v) sums the
squared forbidden components; min E = 0 over the sphere exactly for
eigenflag operators.  A clearly positive minimum therefore certifies that
no weight exists on any neighborhood of the point.

In dimension 4 the minimum is exact: the Hodge star splits W into blocks
W+ and W-, and min E = d^2 with d = |spec W+ - spec W-| / 2.  In dimension
>= 5 it is found by a multistart descent.

Run:  python3 demos/02_eigenflag_obstruction.py
"""

import numpy as np

import lcwcheck as lw

# Product metrics dx1^2 + h admit the parallel field d/dx1, so their Weyl
# operator must be eigenflag at every point -- with flag direction e1.
product = lw.parse_metric("""
{"dimension": 4, "coordinates": ["x1", "x2", "x3", "x4"],
 "g": [["1", "0", "0", "0"],
       [null, "1+0.3*x3^2", "0.1*x3*x4", "0"],
       [null, null, "1+0.2*x4^2+0.1*x2^2", "0.05*x2"],
       [null, null, null, "1+0.15*x2^2"]]}
""")
pkg = lw.curvature_package(product, [0.3, 0.2, -0.1, 0.4])
report = lw.min_residual(lw.to_operator(pkg.weyl, scale=pkg.riemann_norm))
print("product metric dx1^2 + h:")
print(f"  |W| = {report.weyl_norm:.4f}, min residual = {report.residual_min:.2e}")
print(f"  verdict = {report.verdict}, minimizer = {np.round(report.minimizer, 6)}")

# A random Weyl operator (unit Frobenius norm) sits far from the eigenflag
# set: the minimum residual is a solidly positive number.
rng = np.random.default_rng(7)
w = lw.sample_weyl(4, rng)
report = lw.min_residual(w)
print(f"\nrandom Weyl operator n=4: min residual = {report.residual_min:.4f}"
      f" -> {report.verdict}")
print(f"  d = sqrt(min E) = {np.sqrt(report.raw_residual):.4f}, in closed form:"
      f" {report.n_starts} start, {report.iterations} iterations")
report5 = lw.min_residual(lw.sample_weyl(5, rng))
print(f"random Weyl operator n=5: min residual = {report5.residual_min:.4f}"
      f" -> {report5.verdict}")
print(f"  converged starts: {int(report5.converged.sum())}/{report5.n_starts}")

# An independent check of the n = 4 minimum: evaluate E on a covering grid
# of S^3 and subtract a computed Lipschitz bound times the covering radius.
cert = lw.certify_positive_minimum(w, grid_resolution=64)
print(f"  grid certificate: min_grid = {cert.grid_min:.4f}, "
      f"lower bound = {cert.lower_bound:.4f}, conclusive = {cert.conclusive}")

# Hand-built eigenflag operators: diagonal on simple bivectors with paired
# eigenvalues (a, a, b, b, c, c), a + b + c = 0.  The residual vanishes at
# every frame vector, W+ and W- share their spectrum (d = 0), and the
# certificate correctly refuses to certify.
stratum = lw.construct_stratum4((1.0, 0.5, -1.5))
print(f"\nstratum operator: residual at e1 = {lw.residual(stratum, [1, 0, 0, 0]):.2e}")
report = lw.min_residual(stratum)
print(f"  min residual = {report.residual_min:.2e}, d = {np.sqrt(report.raw_residual):.2e}")
print(f"  certificate conclusive? {lw.certify_positive_minimum(stratum, 16).conclusive}")

# The codimension of the eigenflag set inside the Weyl space grows fast
# with dimension -- the reason random operators at n = 5 sit so far away.
print("\neigenflag set codimension:",
      {n: lw.codim_eigenflag(n) for n in (4, 5, 6, 7)})
