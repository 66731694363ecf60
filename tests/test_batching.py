"""Batched evaluation computes exactly the bits of its points one at a time.

``metric_jets``, the curvature stages, ``obstruction_tensors``,
``min_residuals`` and ``obstruct_points`` take a batch of points (or
operators) in one call; each result must equal, byte for byte, what the
per-point call gives.  A point whose pipeline fails must not disturb the
others in its batch.
"""

import json

import numpy as np
import pytest

from lcwcheck import eigenflag
from lcwcheck.bivectors import to_operator
from lcwcheck.cli import main
from lcwcheck.cottonyork import CottonYorkTensor
from lcwcheck.curvature import (cotton_york, curvature_package, curvature_stage,
                                derivative_stage, obstruction_tensors, orthonormal_frame,
                                rotate_tensor)
from lcwcheck.eigenflag import construct_stratum4, min_residual, min_residuals
from lcwcheck.exprs import EvalError
from lcwcheck.genericity import (grid_points, obstruct_point, obstruct_points,
                                 random_polynomial_metric, sample_weyl, scan_metric)
from lcwcheck.jets import MetricJets, MetricNotPositive, metric_jets
from lcwcheck.metrics import make_metric, sphere_stereographic_metric
from lcwcheck.perturb import AlgebraicCurvature, perturb_curvature

COORDS3 = ["x1", "x2", "x3"]

# every elementary function, integer powers of each sign, and division
ENTRIES = [
    "2+sin(x1)*cos(x2*x3)",
    "2+tan(0.4*x1)-x2^2*x3",
    "exp(0.3*x1-x2*x3)",
    "2+log(2+x1*x2)+x3^3",
    "sqrt(3+x1+x2^2)",
    "2+atan(x1-x2^2)/(2+x3)",
    "(1+x1^2+x3^2)^-2+x2^0",
    "3+x1/(2+x2)-x3^5",
]


def entry_metric(entry: str):
    g = [[entry, "0.1*x1*x2", "0.05*sin(x3)"],
         [None, "1+0.2*x2^2", "0.1*x1*x3"],
         [None, None, "1.5+0.1*cos(x1+x2)"]]
    return make_metric(3, COORDS3, g)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def assert_jets_match(batch: MetricJets, points, spec):
    assert len(batch) == len(points)
    for k, point in enumerate(points):
        one = metric_jets(spec, point)
        for name in ("g", "dg", "d2g", "d3g"):
            assert same_bits(getattr(batch, name)[k:k + 1], getattr(one, name)), (k, name)


def sample_points(n: int, count: int, seed: int, half_width: float = 0.9) -> np.ndarray:
    return np.random.default_rng(seed).uniform(-half_width, half_width, (count, n))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_metric_jets_batch_polynomial(n):
    spec = random_polynomial_metric(n, np.random.default_rng(n))
    points = sample_points(n, 7, seed=n)
    assert_jets_match(metric_jets(spec, points), points, spec)


@pytest.mark.parametrize("entry", ENTRIES)
def test_metric_jets_batch_functions_powers_division(entry):
    spec = entry_metric(entry)
    points = sample_points(3, 6, seed=1, half_width=0.7)
    assert_jets_match(metric_jets(spec, points), points, spec)


def test_metric_jets_batch_bump_inside_and_outside():
    rstar = AlgebraicCurvature.random(4, np.random.default_rng(9), scale=0.05)
    pert = perturb_curvature(rstar, radius=0.8)
    points = np.array([[0.9, 0.0, 0.0, 0.0],      # outside the bump
                       [0.2, 0.1, 0.0, 0.0],      # inside
                       [0.0, 0.0, 0.0, 0.0],      # the center
                       [0.5, -0.5, 0.5, -0.5],    # outside
                       [-0.3, 0.2, 0.4, -0.1]])   # inside
    batch = metric_jets(pert, points)
    assert_jets_match(batch, points, pert)
    for k in (0, 3):  # the base metric exactly, with no derivatives
        assert np.array_equal(batch.g[k], np.eye(4))
        assert not batch.dg[k].any() and not batch.d2g[k].any() and not batch.d3g[k].any()
    assert not np.array_equal(batch.g[1], np.eye(4))

    outside = points[[0, 3]]
    only_outside = metric_jets(pert, outside)
    assert np.array_equal(only_outside.g, np.broadcast_to(np.eye(4), (2, 4, 4)))
    assert not only_outside.d3g.any()


def test_metric_jets_batch_names_the_first_failing_point():
    spec = make_metric(3, COORDS3, [["x1", "0", "0"], [None, "1", "0"], [None, None, "1"]])
    with pytest.raises(MetricNotPositive, match=r"\[-0\.5, 0\.0, 0\.0\]"):
        metric_jets(spec, [[0.5, 0.0, 0.0], [-0.5, 0.0, 0.0], [-0.7, 0.0, 0.0]])
    with pytest.raises(ValueError, match="outside"):
        metric_jets(spec, [[0.5, 0.0, 0.0], [2.0, 0.0, 0.0]])
    with pytest.raises(ValueError, match="3 coordinates"):
        metric_jets(spec, [[0.5, 0.0]])


def tensordot_rotation(t, basis):
    for _ in range(t.ndim):
        t = np.tensordot(t, basis, axes=([0], [0]))
    return t


def einsum_cotton_york(c, g, orientation):
    eps = np.fromfunction(lambda i, j, k: (i - j) * (j - k) * (k - i) / 2, (3, 3, 3))
    ginv = np.linalg.inv(g)
    craised = np.einsum("ak,bl,kli->abi", ginv, ginv, c)
    vol = orientation * np.sqrt(np.linalg.det(g)) * eps
    return 0.5 * np.einsum("abi,abj->ij", craised, vol)


@pytest.mark.parametrize("n", range(3, 9))
@pytest.mark.parametrize("batch", [1, 5, 67])
def test_frame_stages_batch_equals_single(n, batch):
    rng = np.random.default_rng(10 * n + batch)
    a = rng.standard_normal((batch, n, n))
    g = a @ a.swapaxes(-1, -2) + n * np.eye(n)
    frames = orthonormal_frame(g)
    for p in range(batch):
        assert same_bits(frames[p], orthonormal_frame(g[p]))
        assert same_bits(frames[p], np.linalg.inv(np.linalg.cholesky(g[p])).T)
    for basis in (frames, rng.standard_normal((batch, n, n))):
        for rank in (1, 2, 3, 4):
            t = rng.standard_normal((batch,) + (n,) * rank)
            rotated = rotate_tensor(t, basis)
            for p in range(batch):
                assert same_bits(rotated[p], rotate_tensor(t[p], basis[p])), (rank, p)
                assert same_bits(rotated[p], tensordot_rotation(t[p], basis[p])), (rank, p)
    if n == 3:
        c = rng.standard_normal((batch, 3, 3, 3))
        for orientation in (1, -1):
            cy = cotton_york(c, g, orientation)
            for p in range(batch):
                assert same_bits(cy[p], cotton_york(c[p], g[p], orientation)), p
                assert same_bits(cy[p], einsum_cotton_york(c[p], g[p], orientation)), p


PACKAGE_FIELDS = ("point", "g", "gamma", "riemann", "ricci", "scalar", "schouten", "cotton",
                  "weyl", "cotton_york")
COORD_FIELDS = ("riemann", "ricci", "schouten", "cotton", "weyl", "cotton_york")


@pytest.mark.parametrize("spec", [random_polynomial_metric(3, np.random.default_rng(0)),
                                  random_polynomial_metric(4, np.random.default_rng(1)),
                                  random_polynomial_metric(5, np.random.default_rng(2)),
                                  sphere_stereographic_metric(3),
                                  entry_metric(ENTRIES[2])],
                         ids=["poly3", "poly4", "poly5", "sphere3", "exp3"])
@pytest.mark.parametrize("orientation", [1, -1])
def test_curvature_packages_batch_equals_single(spec, orientation):
    """Every array of both stages over a batch has, at each point, the bits
    of that point's batch of one, and so do the point's package and its
    obstruction tensors."""
    points = sample_points(spec.dimension, 5, seed=3, half_width=0.7)
    mj = metric_jets(spec, points)
    first = curvature_stage(mj)
    second = derivative_stage(mj, first, orientation)
    riemann, tensor = obstruction_tensors(mj, orientation)
    assert len(riemann) == len(tensor) == len(points)
    coord = {**first._asdict(), **second._asdict()}
    frame = orthonormal_frame(mj.g)
    batch = dict(point=points, g=mj.g, gamma=first.gamma, scalar=first.scalar, **{
        name: coord[name] if coord[name] is None else rotate_tensor(coord[name], frame)
        for name in COORD_FIELDS})
    for p, point in enumerate(points):
        one = metric_jets(spec, point[None])
        one_first = curvature_stage(one)
        one_second = derivative_stage(one, one_first, orientation)
        for stage, alone in ((first, one_first), (second, one_second)):
            for name, a, b in zip(stage._fields, stage, alone):
                assert (a is None and b is None) or same_bits(a[p], b[0]), name

        pkg = curvature_package(spec, point, orientation)
        for name in PACKAGE_FIELDS:
            a, b = getattr(pkg, name), batch[name]
            assert (a is None and b is None) or same_bits(a, b[p]), name
        for name in COORD_FIELDS:
            a, b = getattr(pkg.coord, name), coord[name]
            assert (a is None and b is None) or same_bits(a, b[p]), name
        assert pkg.orientation == orientation
        assert same_bits(riemann[p], pkg.riemann)
        assert same_bits(tensor[p], pkg.weyl if spec.dimension > 3 else pkg.cotton_york)


def assert_reports_match(batch, singles):
    assert len(batch) == len(singles)
    for got, want in zip(batch, singles):
        assert same_bits(got.residual_min, want.residual_min)
        assert same_bits(got.raw_residual, want.raw_residual)
        assert same_bits(got.minimizer, want.minimizer)
        assert same_bits(got.weyl_norm, want.weyl_norm)
        assert same_bits(got.converged, want.converged)
        assert got.verdict == want.verdict
        assert got.iterations == want.iterations
        assert got.n_starts == want.n_starts


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("seed", [None, 3])
def test_min_residuals_batch_equals_single(n, seed):
    rng = np.random.default_rng(40 + n)
    ops = [sample_weyl(n, rng) for _ in range(5)]
    if n == 4:  # an eigenflag operator converges in a different number of rounds
        frame, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        ops.insert(2, construct_stratum4([0.7, -0.2, -0.5], frame))
    ops.insert(1, 0.0 * ops[0].matrix)  # below the floor: weyl_negligible
    batch = min_residuals(ops, starts=12, seed=seed)
    singles = [min_residual(op, starts=12, seed=seed) for op in ops]
    assert_reports_match(batch, singles)
    assert batch[1].verdict == "weyl_negligible"
    assert len({r.iterations for r in batch}) > 1


def test_min_residuals_per_operator_floors(monkeypatch):
    rng = np.random.default_rng(5)
    ops = [sample_weyl(4, rng) for _ in range(5)]
    floors = [0.5, 2.0, 0.5, 0.5, 2.0]  # the operators have unit norm
    singles = [min_residual(op, weyl_floor=f) for op, f in zip(ops, floors)]
    batch = min_residuals(ops, weyl_floor=floors)
    assert [r.verdict == "weyl_negligible" for r in batch] == [False, True, False, False, True]
    assert_reports_match(batch, singles)
    # chunks of 2 operators (32 starts, N^2 = 10^2 floats each): the
    # negligible operators take no place in a chunk, and the reports of the
    # second chunk land around them
    monkeypatch.setattr(eigenflag, "DESCENT_BUDGET", 2 * 32 * 10 ** 2)
    descend, chunks = eigenflag._descend, []

    def spy(pairs, live, *args):
        chunks.append(list(live))
        return descend(pairs, live, *args)

    monkeypatch.setattr(eigenflag, "_descend", spy)
    assert_reports_match(min_residuals(ops, weyl_floor=floors), singles)
    assert chunks == [[0, 2], [3]]


def test_min_residuals_on_curvature_operators():
    spec = random_polynomial_metric(4, np.random.default_rng(8))
    pkgs = [curvature_package(spec, p) for p in grid_points(spec, [2, 2, 1, 2])]
    ops = [to_operator(p.weyl, scale=p.riemann_norm) for p in pkgs]
    assert_reports_match(min_residuals(ops), [min_residual(op) for op in ops])


def verdict_json(v) -> str:
    return json.dumps(v.to_dict(), default=np.ndarray.tolist)


@pytest.mark.parametrize("n,grid", [(3, [6, 6, 5]), (4, [3, 3, 2, 2])])
def test_obstruct_points_equals_obstruct_point(n, grid):
    spec = random_polynomial_metric(n, np.random.default_rng(60 + n))
    points = grid_points(spec, grid)  # 3-D: more points than one batch holds
    batch = obstruct_points(spec, points)
    for got, point in zip(batch, points):
        want = obstruct_point(spec, point)
        assert verdict_json(got) == verdict_json(want)
        assert same_bits(got.detail, want.detail)


@pytest.mark.parametrize("n,grid", [(4, [3, 3, 2, 2]), (6, [2, 1, 1, 1, 1, 2])])
def test_weyl_verdict_reads_no_third_derivative(monkeypatch, n, grid):
    """The n >= 4 verdict reads g, dg and d2g alone: it asks for jets of
    order 2, without d3g, and gives every verdict with the bits of a run on
    jets of order 3."""
    import lcwcheck.genericity as genericity

    spec = random_polynomial_metric(n, np.random.default_rng(80 + n))
    points = grid_points(spec, grid)
    orders = []

    def jets(spec, points, order):
        orders.append(order)
        mj = metric_jets(spec, points, order)
        assert mj.d3g is None
        return mj

    monkeypatch.setattr(genericity, "metric_jets", jets)
    got = obstruct_points(spec, points)
    assert orders and set(orders) == {2}
    monkeypatch.setattr(genericity, "metric_jets",
                        lambda spec, points, order: metric_jets(spec, points, 3))
    want = obstruct_points(spec, points)
    assert len(got) == len(want) == len(points)
    for v, w in zip(got, want):
        assert not isinstance(v, Exception), v
        assert (v.verdict, v.label) == (w.verdict, w.label)
        assert same_bits(v.obstruction, w.obstruction)
        assert same_bits(v.detail, w.detail)
        assert verdict_json(v) == verdict_json(w)


@pytest.fixture
def descents(monkeypatch):
    """The operator count of each min_residuals call of the obstruction path,
    and the point count of each metric_jets call (one per curvature batch)."""
    import lcwcheck.genericity as genericity

    calls = {"descent": [], "jets": []}
    batched, jets = genericity.min_residuals, genericity.metric_jets

    def counting_descent(ws, *args, **kwargs):
        calls["descent"].append(len(ws))
        return batched(ws, *args, **kwargs)

    def counting_jets(spec, points, order):
        calls["jets"].append(len(points))
        return jets(spec, points, order)

    monkeypatch.setattr(genericity, "min_residuals", counting_descent)
    monkeypatch.setattr(genericity, "metric_jets", counting_jets)
    return calls


def test_one_descent_per_descent_chunk(descents):
    """Two curvature batches of an 81-point grid at n = 4 (64 points, then
    17) feed one descent, and so do two of five n = 8 points (four points per
    batch)."""
    spec = random_polynomial_metric(4, np.random.default_rng(64))
    obstruct_points(spec, grid_points(spec, [3, 3, 3, 3]))
    assert descents == {"descent": [81], "jets": [64, 17]}
    spec = random_polynomial_metric(8, np.random.default_rng(68))
    for calls in descents.values():
        calls.clear()
    obstruct_points(spec, sample_points(8, 5, seed=8, half_width=0.5))
    assert descents == {"descent": [5], "jets": [4, 1]}


def test_descent_chunks_of_a_patched_budget(monkeypatch, descents):
    """With a budget of 5 operators (32 starts of N^2 = 10^2 floats each) no
    descent gets more than 5, curvature batches stop at the chunk's end, and
    every row is the one obstruct_point gives."""
    monkeypatch.setattr(eigenflag, "DESCENT_BUDGET", 5 * 32 * 10 ** 2)
    spec = random_polynomial_metric(4, np.random.default_rng(65))
    points = grid_points(spec, [3, 3, 2, 1])
    got = obstruct_points(spec, points)
    assert descents == {"descent": [5, 5, 5, 3], "jets": [5, 5, 5, 3]}
    for v, point in zip(got, points, strict=True):
        want = obstruct_point(spec, point)
        assert verdict_json(v) == verdict_json(want)
        assert same_bits(v.detail, want.detail)


# --- failure isolation -----------------------------------------------------------

FAILING = {
    # sqrt(x1) raises EvalError at x1 <= 0; x1 alone is not positive there
    "sqrt": ("1+0.1*x2^2+sqrt(x1)", EvalError),
    "linear": ("x1+0.1*x2^3", MetricNotPositive),
}


def failing_metric(n: int, entry: str):
    coords = [f"x{i + 1}" for i in range(n)]
    g = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            g[i][j] = "0" if i != j else f"1+0.1*{coords[i]}^2*{coords[(i + 1) % n]}"
    g[0][0] = entry
    g[1][2] = f"0.05*{coords[0]}*{coords[2]}"
    return make_metric(n, coords, g)


def expected_failures(spec, points):
    """Each point's verdict, or the exception, from the per-point engine."""
    out = []
    for point in points:
        try:
            out.append(obstruct_point(spec, point))
        except (ValueError, np.linalg.LinAlgError) as exc:
            out.append(exc)
    return out


# [5, 4, 2, 2] fails at points 0 to 39 ("linear") or 0 to 47 ("sqrt") of 80:
# in the first of its two n = 4 curvature batches (64 and 16 points), which
# feed one descent
FAILING_GRIDS = [(3, [3, 3, 3]), (4, [3, 2, 2, 2]), (4, [5, 4, 2, 2])]


@pytest.mark.parametrize("kind", sorted(FAILING))
@pytest.mark.parametrize("n,grid", FAILING_GRIDS)
def test_scan_isolates_failing_points(kind, n, grid):
    entry, error = FAILING[kind]
    spec = failing_metric(n, entry)
    points = grid_points(spec, grid).tolist()
    expected = expected_failures(spec, points)
    failing = [isinstance(e, Exception) for e in expected]
    assert 0 < sum(failing) < len(points)
    assert all(isinstance(e, error) for e in expected if isinstance(e, Exception))

    rows = scan_metric(spec, grid).rows
    for row, want, failed in zip(rows, expected, failing):
        if failed:
            assert row.verdict == f"error:{type(want).__name__}"
            assert np.isnan(row.norm) and np.isnan(row.obstruction)
        else:
            assert row.verdict == want.label
            assert same_bits(row.norm, want.norm)
            assert same_bits(row.obstruction, want.obstruction)
    got = obstruct_points(spec, points)
    assert [isinstance(v, type(e)) for v, e in zip(got, expected)] == [True] * len(points)


@pytest.mark.parametrize("kind", sorted(FAILING))
def test_obstruct_exits_3_at_the_first_failing_point(tmp_path, capsys, kind):
    spec = failing_metric(4, FAILING[kind][0])
    path = tmp_path / "m.json"
    path.write_text(spec.to_json())
    points = grid_points(spec, [3, 2, 2, 2]).tolist()
    first = next(e for e in expected_failures(spec, points) if isinstance(e, Exception))
    out = tmp_path / "report.json"
    assert main(["obstruct", str(path), "--grid", "3,2,2,2", "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"lcwcheck: evaluation error: {first}\n"
    assert not out.exists()


@pytest.mark.parametrize("n,grid", FAILING_GRIDS)
def test_rows_do_not_depend_on_failing_neighbours(n, grid):
    """A healthy point's row is the same bytes in a batch with or without failures."""
    spec = failing_metric(n, FAILING["sqrt"][0])
    points = grid_points(spec, grid).tolist()
    with_failures = obstruct_points(spec, points)
    healthy = [p for p, v in zip(points, with_failures) if not isinstance(v, Exception)]
    alone = iter(obstruct_points(spec, healthy))
    for v in with_failures:
        if not isinstance(v, Exception):
            w = next(alone)
            assert (v.point, v.label, v.verdict) == (w.point, w.label, w.verdict)
            for name in ("norm", "obstruction", "detail"):
                assert same_bits(getattr(v, name), getattr(w, name))


def test_a_failing_cotton_york_check_fails_only_its_point(monkeypatch):
    """Points whose Cotton-York tensor fails its check become errors without
    the batch being re-run.  No metric's tensor fails the check above the zero
    floor, so the check is made to fail at the half of the points with the
    largest (1,1) entry."""
    import lcwcheck.genericity as genericity

    calls = []

    def counting(spec, points, order):
        calls.append((len(points), order))
        return metric_jets(spec, points, order)

    spec = random_polynomial_metric(3, np.random.default_rng(12))
    points = grid_points(spec, (4, 4, 4)).tolist()
    median = np.median(obstruction_tensors(metric_jets(spec, np.array(points)))[1][:, 0, 0])

    class Failing(CottonYorkTensor):
        @staticmethod
        def from_matrix(m, floor=0.0):
            if m[0, 0] > median:
                raise ValueError("Cotton-York tensor must be symmetric")
            return CottonYorkTensor.from_matrix(m, floor)

    monkeypatch.setattr(genericity, "CottonYorkTensor", Failing)
    expected = expected_failures(spec, points)
    assert 0 < sum(isinstance(e, ValueError) for e in expected) < len(points)
    monkeypatch.setattr(genericity, "metric_jets", counting)
    rows = scan_metric(spec, (4, 4, 4)).rows
    assert calls == [(64, 3)]
    for row, want in zip(rows, expected):
        if isinstance(want, Exception):
            assert row.verdict == f"error:{type(want).__name__}"
        else:
            assert row.verdict == want.label
            assert same_bits(row.obstruction, want.obstruction)
