"""Build 3-metrics whose Cotton-York tensor at the origin is prescribed.

A cubic perturbation g_ij = delta_ij + sum A_ij^klm x^k x^l x^m leaves
g(0), dg(0), d2g(0) untouched, so CY at the origin is an explicit linear
map of the 60 independent coefficients into the 5-dimensional space of
trace-free symmetric operators.  The map has full rank; a least-norm
pseudoinverse realizes any small target.

Run:  python3 demos/05_prescribed_cotton_york.py
"""

import numpy as np

import lcwcheck as lw

# Assemble the 5 x 60 coefficient-to-Cotton-York matrix (pipeline run per
# basis coefficient) and look at its spectrum: rank 5, well conditioned.
m = lw.cy_linear_map()
svals = np.linalg.svd(m, compute_uv=False)
print(f"coefficient map: shape {m.shape}, singular values {np.round(svals, 4)}")

# Target a *singular* Cotton-York tensor (the necessary condition holds):
target = 0.01 * np.diag([1.0, -1.0, 0.0])
sol = lw.solve_cy_target(target)
print("\ntarget diag(1,-1,0)*0.01:")
print(f"  achieved error = {np.abs(sol.achieved.matrix - target).max():.2e}")
print(f"  classification = {lw.classify_cy(sol.achieved)}"
      f" -> verdict {lw.obstruct_point(sol.metric, np.zeros(3)).verdict}")

# Target a *nonsingular* one: the constructed metric is certified to admit
# no limiting Carleman weight near the origin.
target = 0.01 * np.diag([2.0, -1.0, -1.0])
sol = lw.solve_cy_target(target)
print("\ntarget diag(2,-1,-1)*0.01:")
print(f"  achieved det = {sol.achieved.determinant:.6e} (exact 2e-06)")
print(f"  verdict = {lw.obstruct_point(sol.metric, np.zeros(3)).verdict}")
print(f"  coefficient norm used = {np.linalg.norm(sol.coefficients.packed):.4f}")

# The emitted metric is an ordinary document; rerun the full pipeline on
# the parsed text as an end-to-end confirmation.
again = lw.parse_metric(sol.metric.to_json())
pkg = lw.curvature_package(again, np.zeros(3))
print(f"  reparsed round trip: |CY - target| = "
      f"{np.abs(pkg.cotton_york - target).max():.2e}")
print("\nmetric g_11 =", sol.metric.to_document()["g"][0][0][:70], "...")
