"""Build metrics whose curvature at the origin is exactly prescribed.

Over the flat base the quadratic perturbation

    g_ij = delta_ij - (1/3) R*_ihjk x^h x^k

has curvature exactly R* at 0 for any algebraic curvature operator R*
(the classical normal-coordinate coefficient).  This turns pointwise
statements about curvature operators into honest metrics the rest of the
pipeline can digest.

Run:  python3 demos/04_prescribed_curvature.py
"""

import numpy as np

import lcwcheck as lw

rng = np.random.default_rng(11)

# Any algebraic curvature operator (curvature symmetries + first Bianchi)
# round-trips through metric construction and the jet pipeline exactly.
rstar = lw.AlgebraicCurvature.random(4, rng, scale=0.08)
spec = lw.perturb_curvature(rstar)
pkg = lw.curvature_package(spec, np.zeros(4))
err = np.linalg.norm(pkg.coord.riemann - rstar.tensor) / rstar.norm
print(f"random R* (n=4): relative round-trip error = {err:.2e}")

# Space forms: prescribing (kappa/2) g o g recovers constant curvature.
sf = lw.AlgebraicCurvature.space_form(4, 0.3)
pkg = lw.curvature_package(lw.perturb_curvature(sf, domain_halfwidth=0.6), np.zeros(4))
print(f"space form kappa=0.3: sectional at origin = {pkg.riemann[0, 1, 0, 1]:.12f}")

# Prescribing curvature turns operator-level statements into metrics.
# An eigenflag Weyl operator gives a metric where the necessary condition
# holds at the origin (verdict inconclusive); a random Weyl operator gives
# a metric certified to admit no weight near the origin.
w = lw.construct_stratum4((0.05, 0.02, -0.07))
spec = lw.perturb_curvature(lw.AlgebraicCurvature.from_operator(w))
pkg0 = lw.curvature_package(spec, np.zeros(4))
report0 = lw.min_residual(lw.to_operator(pkg0.weyl, scale=pkg0.riemann_norm))
print(f"\nstratum-prescribed metric at origin: residual = {report0.residual_min:.2e}"
      f" -> {report0.verdict}")

generic_w = lw.sample_weyl(4, rng)
spec_g = lw.perturb_curvature(
    lw.AlgebraicCurvature(4, 0.05 * generic_w.tensor()))
pkg_g = lw.curvature_package(spec_g, np.zeros(4))
report_g = lw.min_residual(lw.to_operator(pkg_g.weyl, scale=pkg_g.riemann_norm))
print(f"random-Weyl-prescribed metric at origin: residual = "
      f"{report_g.residual_min:.4f} -> {report_g.verdict}"
      " (certifies: no local weight near 0)")

# The construction also exists with the grammar's smooth bump cutoff: the
# perturbation then lives inside a ball and the metric is exactly flat
# outside it.
bump = lw.perturb_curvature(rstar, radius=0.8)
inside, outside = np.array([0.2, 0.1, 0, 0.0]), np.array([0.9, 0, 0, 0.0])
print(f"\nbump cutoff: g(inside) differs from flat by "
      f"{np.abs(bump.evaluate(inside) - np.eye(4)).max():.1e}, "
      f"g(outside) - identity = {np.abs(bump.evaluate(outside) - np.eye(4)).max():.1f}")
pkg = lw.curvature_package(bump, np.zeros(4))
print(f"bump cutoff leaves curvature at the center exact: error = "
      f"{np.linalg.norm(pkg.coord.riemann - rstar.tensor) / rstar.norm:.2e}")

# Every constructed metric, the bump one included, is a parseable document,
# so it feeds straight back into the command line.
print("\nemitted document g_11 =", spec.to_document()["g"][0][0][:60], "...")
