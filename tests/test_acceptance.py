"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run as ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import numpy as np

import lcwcheck as lw
from lcwcheck.bivectors import bianchi_map, ricci_contraction, to_operator
from lcwcheck.genericity import random_polynomial_metric

from oracles import residual_gradient, weyl_projector_matrix, weyl_space_dim


def check(criterion: str, ok: bool, detail: str = ""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def rel(a, b):
    return np.linalg.norm(np.asarray(a) - np.asarray(b)) / max(np.linalg.norm(b), 1e-300)


def product_metric_4d(rng):
    amp = 0.2
    h = {}
    coords = ["x2", "x3", "x4"]
    for i in range(3):
        for j in range(i, 3):
            terms = "1" if i == j else "0"
            for c in coords:
                a = rng.uniform(-amp, amp) / 6
                terms += ("+" if a >= 0 else "-") + f"{abs(a)!r}*{c}^2"
            for k in range(3):
                for l in range(k + 1, 3):
                    a = rng.uniform(-amp, amp) / 6
                    terms += ("+" if a >= 0 else "-") + f"{abs(a)!r}*{coords[k]}*{coords[l]}"
            h[(i, j)] = terms
    g = [["1", "0", "0", "0"],
         [None, h[(0, 0)], h[(0, 1)], h[(0, 2)]],
         [None, None, h[(1, 1)], h[(1, 2)]],
         [None, None, None, h[(2, 2)]]]
    return lw.make_metric(4, ["x1", "x2", "x3", "x4"], g)


def product_metric_3d(rng):
    amp = 0.25
    entries = {}
    for key in ("g22", "g23", "g33"):
        base = "1" if key != "g23" else "0"
        for mono in ("x2^2", "x3^2", "x2*x3"):
            a = rng.uniform(-amp, amp) / 3
            base += ("+" if a >= 0 else "-") + f"{abs(a)!r}*{mono}"
        entries[key] = base
    g = [["1", "0", "0"],
         [None, entries["g22"], entries["g23"]],
         [None, None, entries["g33"]]]
    return lw.make_metric(3, ["x1", "x2", "x3"], g)


def test_criterion_01_codimension_formula():
    ok = lw.codim_eigenflag(4) == 2 and lw.codim_eigenflag(5) == 12
    check("1 codimension formula", ok,
          f"n=4 -> {lw.codim_eigenflag(4)}, n=5 -> {lw.codim_eigenflag(5)}")


def test_criterion_02_weyl_space_dimension():
    ranks = {}
    for n in (4, 5):
        p = weyl_projector_matrix(n)
        svals = np.linalg.svd(p, compute_uv=False)
        ranks[n] = int((svals > 1e-9 * svals[0]).sum())
    ok = (ranks[4] == 10 == weyl_space_dim(4)
          and ranks[5] == 35 == weyl_space_dim(5))
    check("2 weyl space dimension", ok, f"ranks {ranks}")


def test_criterion_03_pipeline_identities():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for k in range(50):
        n = (3, 4, 5)[k % 3]
        spec = random_polynomial_metric(n, rng)
        pkg = lw.curvature_package(spec, rng.uniform(-0.7, 0.7, n))
        scale = max(pkg.riemann_norm, 1e-300)
        r = pkg.riemann

        errs = [np.abs(r + r.transpose(1, 0, 2, 3)).max() / scale,
                np.abs(r + np.einsum("jkil->ijkl", r) + np.einsum("kijl->ijkl", r)).max() / scale]

        c = pkg.cotton
        cs = max(np.linalg.norm(c), 1e-300)
        errs += [np.abs(c + np.einsum("jik->ijk", c)).max() / cs,
                 np.abs(c + np.einsum("jki->ijk", c) + np.einsum("kij->ijk", c)).max() / cs,
                 np.abs(np.einsum("iik->k", c)).max() / cs,
                 np.abs(np.einsum("iji->j", c)).max() / cs]

        w_op = to_operator(pkg.weyl, scale=pkg.riemann_norm)
        errs += [np.linalg.norm(ricci_contraction(w_op)) / scale,
                 np.linalg.norm(bianchi_map(w_op)) / scale]

        sg = lw.kulkarni_nomizu(pkg.schouten, np.eye(n))
        errs.append(np.abs(np.einsum("ikjk->ij", sg) - pkg.ricci).max()
                    / max(np.linalg.norm(pkg.ricci), 1e-300))
        errs.append(np.abs(pkg.weyl + sg - r).max() / scale)
        worst = max(worst, max(errs))
    check("3 pipeline identities (50 random metrics)", worst < 1e-10,
          f"worst relative violation {worst:.2e}")


def test_criterion_04_analytic_oracles():
    flat = lw.curvature_package(lw.euclidean_metric(4), np.zeros(4))
    ok_flat = flat.riemann_norm < 1e-12 and flat.cotton_norm < 1e-12

    ok_sphere = True
    for n in (3, 4, 5):
        pkg = lw.curvature_package(lw.sphere_stereographic_metric(n), 0.1 * np.ones(n))
        ok_sphere &= abs(pkg.scalar - n * (n - 1)) < 1e-9 and pkg.weyl_norm < 1e-9

    rng = np.random.default_rng(7)
    ok_conf = True
    for n in (4, 5):
        spec = lw.conformally_flat_metric(n, "0.3*x1+0.2*x2^2-0.1*x1*x3")
        pkg = lw.curvature_package(spec, rng.uniform(-0.6, 0.6, n))
        ok_conf &= pkg.weyl_norm < 1e-8 * pkg.riemann_norm

    base = product_metric_3d(np.random.default_rng(11))
    doc = base.to_document()
    scaled = lw.make_metric(3, doc["coordinates"],
                            [[f"exp(2*(0.3*x1))*({doc['g'][i][j]})" for j in range(3)]
                             for i in range(3)])
    ok_cotton = True
    for _ in range(5):
        p = rng.uniform(-0.7, 0.7, 3)
        c1 = lw.curvature_package(base, p).coord.cotton
        c2 = lw.curvature_package(scaled, p).coord.cotton
        ok_cotton &= rel(c2, c1) < 1e-8

    check("4 analytic oracles", ok_flat and ok_sphere and ok_conf and ok_cotton,
          f"flat={ok_flat} sphere={ok_sphere} conformal_weyl={ok_conf} cotton={ok_cotton}")


def test_criterion_05_product_metrics_eigenflag():
    rng = np.random.default_rng(501)
    e0 = np.eye(4)[0]
    worst_res, worst_gap = 0.0, 0.0
    for _ in range(5):
        spec = product_metric_4d(rng)
        for _ in range(20):
            p = rng.uniform(-0.8, 0.8, 4)
            pkg = lw.curvature_package(spec, p)
            report = lw.min_residual(to_operator(pkg.weyl),
                                     weyl_floor=1e-12 * (1 + pkg.riemann_norm))
            worst_res = max(worst_res, report.residual_min)
            gap = min(np.linalg.norm(report.minimizer - e0),
                      np.linalg.norm(report.minimizer + e0))
            worst_gap = max(worst_gap, gap)
    ok = worst_res < 1e-8 and worst_gap < 1e-3
    check("5 product metrics are eigenflag (n=4)", ok,
          f"max residual {worst_res:.2e}, max minimizer gap {worst_gap:.2e}")


def test_criterion_06_product_metrics_singular_cy():
    rng = np.random.default_rng(601)
    worst = 0.0
    for _ in range(5):
        spec = product_metric_3d(rng)
        for _ in range(20):
            p = rng.uniform(-0.8, 0.8, 3)
            pkg = lw.curvature_package(spec, p)
            cy = pkg.cotton_york
            norm = max(np.linalg.norm(cy), 1e-12)
            worst = max(worst, abs(np.linalg.det(cy)) / norm ** 3)
    check("6 product metrics have singular Cotton-York (n=3)", worst < 1e-9,
          f"max |det|/|CY|^3 = {worst:.2e}")


def test_criterion_07_prescribed_curvature_round_trip():
    rng = np.random.default_rng(701)
    worst = 0.0
    for k in range(20):
        n = 4 if k % 2 == 0 else 5
        rstar = lw.AlgebraicCurvature.random(n, rng, scale=0.08)
        spec = lw.perturb_curvature(rstar)
        pkg = lw.curvature_package(spec, np.zeros(n))
        worst = max(worst, rel(pkg.coord.riemann, rstar.tensor))
    check("7 prescribed curvature round trip", worst < 1e-8,
          f"worst relative error {worst:.2e}")


def test_criterion_08_prescribed_cotton_york_round_trip():
    m = lw.cy_linear_map()
    svals = np.linalg.svd(m, compute_uv=False)
    rank = int((svals > 1e-10 * svals[0]).sum())
    rng = np.random.default_rng(801)
    worst = 0.0
    for _ in range(10):
        raw = rng.standard_normal((3, 3))
        sym = raw + raw.T
        target = sym - np.trace(sym) / 3.0 * np.eye(3)
        target *= 0.01 / np.linalg.norm(target)
        sol = lw.solve_cy_target(target)
        worst = max(worst, np.linalg.norm(sol.achieved.matrix - target)
                    / np.linalg.norm(target))
    check("8 prescribed Cotton-York round trip", rank == 5 and worst < 1e-7,
          f"rank {rank}, worst relative error {worst:.2e}")


def test_criterion_09_stratum_constructions():
    w = lw.construct_stratum4((1.0, 1.0, -2.0))  # WeylOperator validation on build
    res = lw.residual(w, [1, 0, 0, 0])

    rng = np.random.default_rng(901)
    from scipy.linalg import expm
    ranks = []
    for _ in range(10):
        lam = rng.uniform(0.3, 2.0)
        q, r = np.linalg.qr(rng.standard_normal((3, 3)))
        q = q * np.sign(np.diag(r))
        if np.linalg.det(q) < 0:
            q[:, [0, 1]] = q[:, [1, 0]]
        h = 1e-6
        cols = [(lw.stratum_param(lam + h, q).matrix
                 - lw.stratum_param(lam - h, q).matrix).ravel() / (2 * h)]
        for k in range(3):
            omega = np.zeros(3)
            omega[k] = h
            gen = np.array([[0, -omega[2], omega[1]],
                            [omega[2], 0, -omega[0]],
                            [-omega[1], omega[0], 0]])
            cols.append((lw.stratum_param(lam, q @ expm(gen)).matrix
                         - lw.stratum_param(lam, q @ expm(-gen)).matrix).ravel() / (2 * h))
        svals = np.linalg.svd(np.array(cols).T, compute_uv=False)
        ranks.append(int((svals > 1e-8 * svals[0]).sum()))
    ok = res < 1e-12 and all(r == 4 for r in ranks)
    check("9 stratum constructions", ok,
          f"residual at e1 = {res:.2e}, chart Jacobian ranks {set(ranks)}")


def test_criterion_10_genericity_evidence():
    stats = lw.residual_statistics(5, 100, seed=1001)
    min_random = float(stats.residuals.min())

    planted = lw.construct_stratum4((0.6, -0.1, -0.5))
    stats4 = lw.residual_statistics(4, 10, seed=1002, extra_operators=[planted])
    planted_min = float(stats4.residuals.min())
    ok = min_random > 1e-6 and planted_min < 1e-10
    check("10 genericity evidence", ok,
          f"min over 100 random n=5 samples {min_random:.2e}, planted {planted_min:.2e}")


def test_criterion_11_gradient_checks():
    rng = np.random.default_rng(1101)
    h = 1e-6
    worst = 0.0
    for k in range(50):
        n = 4 if k % 2 == 0 else 5
        w = lw.sample_weyl(n, rng)
        v = rng.standard_normal(n)
        v /= np.linalg.norm(v)
        grad = residual_gradient(w, v)
        for _ in range(5):
            t = rng.standard_normal(n)
            t -= np.dot(t, v) * v
            t /= np.linalg.norm(t)
            vp = v + h * t
            vp /= np.linalg.norm(vp)
            vm = v - h * t
            vm /= np.linalg.norm(vm)
            fd = (lw.residual(w, vp) - lw.residual(w, vm)) / (2 * h)
            worst = max(worst, abs(np.dot(grad, t) - fd) / max(abs(fd), 1e-10))
    check("11 gradient vs finite differences", worst < 1e-6,
          f"worst relative deviation {worst:.2e}")


def test_criterion_12_deterministic_outputs(tmp_path):
    from lcwcheck.cli import main

    csvs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        assert main(["sample", "--dimension", "4", "--count", "8", "--seed", "7",
                     "--out", str(out)]) == 0
        csvs.append(out.read_bytes())

    metric = tmp_path / "m.json"
    metric.write_text(lw.sphere_stereographic_metric(4).to_json())
    jsons = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        assert main(["obstruct", str(metric), "--point", "0.1,0.2,0,0",
                     "--seed", "3", "--out", str(out)]) == 0
        jsons.append(out.read_bytes())

    scans = []
    metric3 = tmp_path / "m3.json"
    metric3.write_text(lw.euclidean_metric(3).to_json())
    for name in ("s1.csv", "s2.csv"):
        out = tmp_path / name
        assert main(["scan", str(metric3), "--grid", "3,3,3", "--seed", "5",
                     "--out", str(out)]) == 0
        scans.append(out.read_bytes())

    ok = csvs[0] == csvs[1] and jsons[0] == jsons[1] and scans[0] == scans[1]
    check("12 deterministic seeded outputs", ok,
          "sample/obstruct/scan byte-identical across runs")
