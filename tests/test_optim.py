import collections
import itertools
import math
import sys
import tracemalloc
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from stratopt import optim, tables
from stratopt.model import Chart, ChartPoint, GaussianLocationModel, chain_rule, information
from stratopt.optim import (NonFiniteStepError, OptimizerConfig, SettingError,
                            SingularFIMError, STALL_WINDOW, Termination, TrajectoryRecord,
                            detect_stall, gd_step, ngd_step, run)
from stratopt.verify import monte_carlo_fim
from test_model import MappedCone, MomentMap

CONE = Chart.cone()
HYP = Chart.hyperboloid(0.05)


def cone_model(xbar):
    return GaussianLocationModel(CONE, xbar)


# -- single steps -----------------------------------------------------------

def test_gd_step_example():
    m = cone_model([0.0, 0.0, 0.0])
    q1 = gd_step(m, ChartPoint(1.0, 0.0), OptimizerConfig(method="gd", step_size=0.1))
    assert (q1.xi, q1.theta) == (0.8, 0.0)


def test_gd_step_fixed_at_optimum():
    q = ChartPoint(0.7, 1.3)
    m = cone_model(CONE.embed(q))
    q1 = gd_step(m, q, OptimizerConfig(method="gd", step_size=0.1))
    assert (q1.xi, q1.theta) == (q.xi, q.theta)


def test_gd_step_cap_is_exact():
    # gradient norm 10 through a unit step size, capped at 0.5
    m = cone_model([-4.0, -4.0, 0.0])  # grad at (1,0): (2*1 +4 +4cos0, ...) = (10, 0)
    cfg = OptimizerConfig(method="gd", step_size=1.0, step_cap=0.5)
    q0 = ChartPoint(1.0, 0.0)
    g = m.loss_grad(q0)
    assert np.linalg.norm(g) == 10.0
    q1 = gd_step(m, q0, cfg)
    moved = np.hypot(q1.xi - q0.xi, q1.theta - q0.theta)
    assert moved == 0.5


def test_step_scales_linearly_in_rate():
    # at the origin the point update equals the raw update vector exactly,
    # so doubling the rate must double both components bit-for-bit
    m = GaussianLocationModel(HYP, [0.3, -1.0, 0.4])
    q0 = ChartPoint(0.0, 0.0)
    q1 = gd_step(m, q0, OptimizerConfig(method="gd", step_size=0.01, step_cap=1e9))
    q2 = gd_step(m, q0, OptimizerConfig(method="gd", step_size=0.02, step_cap=1e9))
    assert q1.xi != 0.0 and q1.theta != 0.0
    assert q2.xi == 2.0 * q1.xi
    assert q2.theta == 2.0 * q1.theta


def test_method_mismatch_guard():
    m = cone_model([0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        gd_step(m, ChartPoint(1.0, 0.0), OptimizerConfig(method="ngd"))
    with pytest.raises(ValueError):
        ngd_step(m, ChartPoint(1.0, 0.0), OptimizerConfig(method="gd"))


def test_ngd_equals_componentwise_rescaled_gd():
    # diagonal information diag(a, b): the natural step is (g0/a, g1/b)
    m = cone_model([0.0, -0.5, 0.8])
    q0 = ChartPoint(1.0, 0.0)  # information diag(2, 1)
    cfg = OptimizerConfig(method="ngd", damping=0.0, step_size=0.04, step_cap=1e9)
    q1 = ngd_step(m, q0, cfg)
    g = m.loss_grad(q0)
    want_xi = q0.xi - 0.04 / 2.0 * g[0]
    want_theta = q0.theta - 0.04 / 1.0 * g[1]
    assert abs(q1.xi - want_xi) < 1e-12
    assert abs(q1.theta - want_theta) < 1e-12


def test_ngd_singular_information_raises():
    m = cone_model([1.0, 0.5, 0.5])
    cfg = OptimizerConfig(method="ngd", damping=0.0)
    with pytest.raises(SingularFIMError):
        ngd_step(m, ChartPoint(0.0, 0.3), cfg)


def test_ngd_damped_survives_apex():
    m = cone_model([1.0, 0.5, 0.5])
    cfg = OptimizerConfig(method="ngd", damping=1e-8, step_cap=1.0)
    q1 = ngd_step(m, ChartPoint(0.0, 0.3), cfg)
    assert np.isfinite([q1.xi, q1.theta]).all()


@pytest.mark.parametrize("method, step", [("gd", gd_step), ("ngd", ngd_step)])
def test_overflowing_scaled_step_is_capped(method, step):
    # 1e308 * g overflows (|g| ~ 4); the capped step is still the unit step
    # along the direction, as at 1e307
    m = cone_model(CONE.embed(ChartPoint(-1.0, 0.5)))
    q0 = ChartPoint(1.0, 0.3)
    want = step(m, q0, OptimizerConfig(method=method, step_size=1e307))
    got = step(m, q0, OptimizerConfig(method=method, step_size=1e308))
    assert math.hypot(want.xi - q0.xi, want.theta - q0.theta) == pytest.approx(1.0, abs=1e-12)
    assert got.xi == pytest.approx(want.xi, abs=1e-12)
    assert got.theta == pytest.approx(want.theta, abs=1e-12)


@pytest.mark.parametrize("damping", [1e155, 1e200])
def test_huge_damping_is_not_singular(damping):
    # the information entries square past 1e308; the step is lr * g / damping,
    # so lr = damping / 100 gives the step g / 100 that damping 1e150 gives
    m = GaussianLocationModel(HYP, [1.0, 0.5, 0.5])
    q0 = ChartPoint(1.0, 0.3)
    got = ngd_step(m, q0, OptimizerConfig(method="ngd", damping=damping,
                                          step_size=damping / 100))
    want = ngd_step(m, q0, OptimizerConfig(method="ngd", damping=1e150, step_size=1e148))
    assert (want.xi, want.theta) != (q0.xi, q0.theta)
    assert got.xi == pytest.approx(want.xi, abs=1e-12)
    assert got.theta == pytest.approx(want.theta, abs=1e-12)


def test_ngd_never_singular_on_hyperboloid():
    rng = np.random.default_rng(77)
    cfg = OptimizerConfig(method="ngd", damping=0.0, step_size=0.01)
    m = GaussianLocationModel(HYP, [1.0, 0.0, 0.0])
    for _ in range(1000):
        q = ChartPoint(float(rng.uniform(-2, 2)), float(rng.uniform(-6, 6)))
        ngd_step(m, q, cfg)  # must not raise


def finite_records(traj):
    return all(math.isfinite(v) for r in traj.records for v in r)


def columns(traj, *names):
    """The named columns of a trajectory's records, as lists."""
    return [traj.records.column(name).tolist() for name in names]


def record_list(traj):
    """Every record of a trajectory, each a ``TrajectoryRecord``."""
    return [traj.records[k] for k in range(len(traj.records))]


@pytest.mark.parametrize("chart, damping", [(HYP, 1e-3), (CONE, 0.0)],
                         ids=["hyperboloid", "cone"])
def test_ngd_runs_far_from_the_apex(chart, damping):
    # J^T J is about diag(2, xi^2) = diag(2, 1e16): badly scaled, not singular
    m = GaussianLocationModel(chart, [1.0, 0.5, 0.5])
    cfg = OptimizerConfig(method="ngd", damping=damping, step_size=0.05, max_steps=30)
    traj = run(m, ChartPoint(1e8, 0.3), cfg)
    assert traj.terminated_by is Termination.MAX_STEPS
    assert len(traj.records) == 31 and finite_records(traj)


def test_undamped_cone_steps_near_the_apex():
    # at xi = 1e-9 the information is diag(2, 1e-18): the angular step is
    # huge, and the cap leaves it at step_cap
    m = cone_model([1.0, 0.5, 0.5])
    cfg = OptimizerConfig(method="ngd", damping=0.0, step_cap=0.5)
    q0 = ChartPoint(1e-9, 0.3)
    q1 = ngd_step(m, q0, cfg)
    assert math.isfinite(q1.xi) and math.isfinite(q1.theta)
    assert abs(q1.theta - q0.theta) == pytest.approx(cfg.step_cap, rel=1e-15)


@pytest.mark.parametrize("xi", [0.0, 1e-300])
def test_undamped_cone_is_singular_at_the_apex(xi):
    # a11 = xi^2 is 0, also where it underflows
    m = cone_model([1.0, 0.5, 0.5])
    with pytest.raises(SingularFIMError) as err:
        ngd_step(m, ChartPoint(xi, 0.3), OptimizerConfig(method="ngd", damping=0.0))
    assert str(err.value) == ("step 1: information matrix is singular at "
                              f"(xi={xi:.6g}, theta=0.3) with damping=0.0")


def test_ngd_grid_fails_only_at_the_undamped_apex():
    # 224 runs toward (1, 0.5, 0.5) from theta = 0.3: a run fails only where
    # the undamped cone's a11 = xi^2 is 0
    charts = [CONE] + [Chart.hyperboloid(eps) for eps in (0.05, 1e-300, 1e300)]
    failed = []
    for chart, xi, damping, mode in itertools.product(
            charts, (0.0, 1e-200, 1e-9, 1e-8, 1.0, 1e8, 1e150),
            (0.0, 1e-8, 1e3, 1e200), optim.MODES):
        m = GaussianLocationModel(chart, [1.0, 0.5, 0.5])
        cfg = OptimizerConfig(method="ngd", step_size=0.05, max_steps=30, damping=damping,
                              mode=mode)
        traj = run(m, ChartPoint(xi, 0.3), cfg)
        assert finite_records(traj)
        if traj.terminated_by is Termination.FAILED:
            assert isinstance(traj.error, SingularFIMError) and len(traj.records) == 1
            failed.append((chart, xi, damping, mode))
        else:
            assert traj.terminated_by is Termination.MAX_STEPS
    assert failed == [(CONE, xi, 0.0, mode) for xi in (0.0, 1e-200) for mode in optim.MODES]


@dataclass(frozen=True)
class FixedJacobian(Chart):
    """A chart whose kernel returns one chosen Jacobian, rows (j00, j01),
    (j10, j11), (j20, j21), at the point (0.5, -0.25, 1) everywhere."""

    rows: tuple

    def local(self, xi, theta):
        return (0.5, -0.25, 1.0) + self.rows


def test_fixed_jacobian_is_a_chart_the_oracles_accept():
    # its rows are the chart's Jacobian, which the Monte-Carlo oracle reads
    m = GaussianLocationModel(FixedJacobian((1.0, 2.0, 3.0, 4.0, 5.0, 6.0)), [0.75, 0.5, -0.5])
    q = ChartPoint(0.5, 0.25)
    assert m.chart.jacobian(q).tolist() == [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]
    F = m.fim(q)
    assert np.linalg.norm(monte_carlo_fim(m, q, 20_000, seed=0) - F) < 0.05 * np.linalg.norm(F)


SINGULAR = "singular"


def exact_ngd_direction(local, target, damping):
    """The damped information sums as ``run`` forms them, judged and solved in
    rationals: (SINGULAR, h) when h = det / (a00 * a11) is at most EPS, else
    the exact direction and h."""
    _, g0, g1 = chain_rule(local, target)
    a00, a01, a11 = information(local)
    a00, a01, a11 = Fraction(a00 + damping), Fraction(a01), Fraction(a11 + damping)
    h = 1 - a01 * a01 / (a00 * a11)
    if h <= Fraction(optim.EPS):
        return SINGULAR, h
    det = a00 * a11 - a01 * a01
    g0, g1 = Fraction(g0), Fraction(g1)
    return ((a11 * g0 - a01 * g1) / det, (a00 * g1 - a01 * g0) / det), h


ULP_BELOW_1 = 1.0 - 2.0 ** -53

# (jacobian, damping, verdict): a None verdict is exact_ngd_direction's; the
# rows with a zero, inf or nan sum, and the row at EPS, carry theirs
# (SINGULAR, or the direction, compared with ==)
NGD_TABLE = [
    # a01 = -0.0 and a00 = a11 = 1: a signed zero off the diagonal
    ((1.0, -0.0, 0.0, -1.0, 0.0, -0.0), 0.0, None),
    ((1.0, -0.0, 0.0, -1.0, 0.0, -0.0), 1e-3, None),
    # equal and opposite columns: h is 0, and 3.8e-4 once damped
    ((1.0, 1.0, 2.0, 2.0, 0.5, 0.5), 0.0, None),
    ((1.0, -1.0, 2.0, -2.0, 0.5, -0.5), 0.0, None),
    ((1.0, -1.0, 2.0, -2.0, 0.5, -0.5), 1e-3, None),
    # a zero column: a11 is 0
    ((1.0, 0.0, 0.0, 0.0, 0.0, 0.0), 0.0, SINGULAR),
    # the float h is EPS exactly (the exact h is 2^-106 less): not above EPS
    ((1.0, ULP_BELOW_1, 0.0, 2.0 ** -26, 0.0, 0.0), 0.0, SINGULAR),
    ((1e-5, 0.0, 0.0, 1e-5, 0.0, 0.0), 0.0, None),  # a small diagonal matrix: h is 1
    ((1.0, 1e8, 0.0, 1e4, 0.0, 0.0), 0.0, None),  # a00 = 1, a11 = 1e16: h is 1e-8
    # nearly parallel columns whose sums give h = -2.4e-16
    ((-0.7312715117751976, -0.6454228239768396, 0.6948674738744653, 0.6132924913059923,
      0.5275492379532281, 0.4656168242080706), 0.0, None),
    # subnormal sums, and a J^T J that underflows to 0 under the damping
    ((1e-160, 2e-160, 3e-160, -1e-160, 0.0, 0.0), 0.0, None),
    ((1e-160, 2e-160, 3e-160, -1e-160, 0.0, 0.0), 1e-3, None),
    ((5e-324, -5e-324, 0.0, 1e-310, 0.0, 0.0), 1e-300, None),
    # an inf diagonal sum: g / inf is 0, so its coordinate does not move
    # (the exact d0 is -2.5e-201)
    ((1e200, 0.0, 0.0, 1.0, 0.0, 0.0), 0.0, (0.0, -0.75)),
    ((1e200, 0.0, 0.0, 1e200, 0.0, 0.0), 0.0, (0.0, 0.0)),
    # a nan a01 between a finite and an inf diagonal sum, either way round
    ((1e100, 1e300, 1e100, -1e300, 0.0, 0.0), 0.0, SINGULAR),
    ((1e300, 1e100, 1e300, -1e100, 0.0, 0.0), 0.0, SINGULAR),
    ((1e200, 1e200, 1e200, -1e200, 0.0, 0.0), 0.0, SINGULAR),
    # sums of 1e154 to 1e201, whose products would overflow
    ((1e77, 0.0, 0.0, 1e77, 0.0, 0.0), 0.0, None),
    ((1.2e77, 0.0, 0.0, 1e77, 0.0, 0.0), 0.0, None),
    ((1e80, 3e79, -2e79, 1e80, 5e79, 0.0), 0.0, None),
    ((1e100, 0.0, 0.0, 1e100, 0.0, 0.0), 0.0, None),
    ((1e100, 2e100, 1e100, 2e100, 0.0, 0.0), 0.0, None),
    ((1e100, -2e100, 1e100, -2e100, 1.0, 0.0), 1e-3, None),
    ((1e100, -3e100, 2e100, 1e100, 0.0, 0.0), 0.0, None),
]


# named for the largest-entry scale the solve once had; the case ids
# (jacobian<row>-<damping>) stay as they were
@pytest.mark.parametrize("jacobian, damping, verdict", NGD_TABLE,
                         ids=[f"jacobian{i}-{row[1]}" for i, row in enumerate(NGD_TABLE)])
def test_ngd_scale_matches_max_abs(jacobian, damping, verdict):
    # the verdict is the exact one, and each entry of a direction is within
    # 4 EPS * max|d| / h of the exact solve: 4 ulp of the direction's size,
    # times the condition 1 / h of the scaled matrix
    m = GaussianLocationModel(FixedJacobian(jacobian), [0.75, 0.5, -0.5])
    q0 = ChartPoint(0.0, 0.0)  # with lr = 1 and no cap the new iterate is -d, exactly
    cfg = OptimizerConfig(method="ngd", damping=damping, step_size=1.0, step_cap=1e300)
    h = None
    if verdict is None:
        verdict, h = exact_ngd_direction(m.chart.local(0.0, 0.0), m.target_mean.tolist(),
                                         damping)
    if verdict == SINGULAR:
        with pytest.raises(SingularFIMError) as err:
            ngd_step(m, q0, cfg)
        assert str(err.value) == ("step 1: information matrix is singular at "
                                  f"(xi=0, theta=0) with damping={damping}")
        return
    q1 = ngd_step(m, q0, cfg)
    d = (-q1.xi, -q1.theta)
    if h is None:
        assert d == verdict
    else:
        tol = 4 * Fraction(optim.EPS) * max(map(abs, verdict)) / h
        assert all(abs(Fraction(got) - want) <= tol for got, want in zip(d, verdict))


# -- run ------------------------------------------------------------------------

def test_run_terminates_immediately_at_optimum():
    q = ChartPoint(1.2, -0.4)
    m = cone_model(CONE.embed(q))
    traj = run(m, q, OptimizerConfig(method="gd"))
    assert traj.terminated_by is Termination.GRAD_TOL
    assert len(traj.records) == 1
    assert traj.records[0].step == 0


def test_aligned_pair_sails_through_the_apex():
    # same chart angle on both nappes: the path crosses the apex along a
    # straight ruling and converges (simulation oracle, frozen here)
    xbar = CONE.embed(ChartPoint(-1.0, 0.0))
    cfg = OptimizerConfig(method="gd", step_size=0.05, max_steps=50_000)
    traj = run(cone_model(xbar), ChartPoint(1.0, 0.0), cfg)
    assert traj.terminated_by is Termination.LOSS_TOL
    assert traj.final.loss < 1e-9
    assert traj.final.xi == pytest.approx(-1.0, abs=1e-4)


def test_opposite_ray_is_captured_by_the_apex():
    # init ray nearly opposite the target ray: the angle cannot rotate fast
    # enough near the apex, so the loss plateaus at the apex loss of 1
    xbar = CONE.embed(ChartPoint(-1.0, 0.0))
    cfg = OptimizerConfig(method="gd", step_size=0.05, max_steps=2000)
    traj = run(cone_model(xbar), ChartPoint(1.0, 3.13), cfg)
    assert traj.terminated_by is Termination.MAX_STEPS
    assert traj.final.loss == pytest.approx(1.0, abs=1e-3)
    assert abs(traj.final.xi) < 0.05
    report = detect_stall(traj, singularities=[np.zeros(3)])
    assert report.stalled
    assert report.nearest_singularity_distance < 0.1


def test_hyperboloid_crosses_where_cone_stalls():
    xbar = HYP.embed(ChartPoint(-1.0, 0.0))
    cfg = OptimizerConfig(method="gd", step_size=0.05, max_steps=50_000)
    traj = run(GaussianLocationModel(HYP, xbar), ChartPoint(1.0, 3.13), cfg)
    assert traj.steps_to_loss(1e-4) is not None
    assert traj.final.xi == pytest.approx(-1.0, abs=1e-3)


def test_gd_monotone_at_small_rate():
    rng = np.random.default_rng(314)
    cfg = OptimizerConfig(method="gd", step_size=1e-3, max_steps=400)
    for k in range(20):
        chart = CONE if k % 2 == 0 else HYP
        xbar = CONE.embed(ChartPoint(float(rng.uniform(-2, 2)), float(rng.uniform(-4, 4))))
        q0 = ChartPoint(float(rng.uniform(-2, 2)), float(rng.uniform(-4, 4)))
        traj = run(GaussianLocationModel(chart, xbar), q0, cfg)
        losses = traj.losses()
        assert (np.diff(losses) <= 1e-12 * np.maximum(losses[:-1], 1.0)).all()


def test_run_deterministic():
    xbar = CONE.embed(ChartPoint(-1.0, 0.0))
    cfg = OptimizerConfig(method="gd", step_size=0.05, max_steps=500)
    a = run(cone_model(xbar), ChartPoint(1.0, 2.0), cfg)
    b = run(cone_model(xbar), ChartPoint(1.0, 2.0), cfg)
    fields = ("step", "xi", "theta", "loss")
    assert columns(a, *fields) == columns(b, *fields)


def test_stochastic_mode_deterministic_given_seed():
    xbar = CONE.embed(ChartPoint(1.0, 0.5))
    cfg = OptimizerConfig(method="gd", step_size=0.02, max_steps=200,
                          mode="stochastic", batch=8, sample_seed=11)
    a = run(cone_model(xbar), ChartPoint(1.5, 1.0), cfg)
    b = run(cone_model(xbar), ChartPoint(1.5, 1.0), cfg)
    assert columns(a, "xi", "theta") == columns(b, "xi", "theta")
    # and a different seed takes a different path
    c = run(cone_model(xbar), ChartPoint(1.5, 1.0),
            OptimizerConfig(method="gd", step_size=0.02, max_steps=200,
                            mode="stochastic", batch=8, sample_seed=12))
    assert columns(a, "xi", "theta") != columns(c, "xi", "theta")


def reference_means(mu_star, seed, batch, steps):
    """One generator, one ``(batch, 3)`` draw per step: the stream's definition."""
    rng = np.random.default_rng(seed)
    return [(mu_star + rng.standard_normal((batch, 3)).mean(axis=0)).tolist()
            for _ in range(steps)]


def take(means, steps):
    return list(itertools.islice(means, steps))


def block_rows(batch):
    return max(64, optim.BLOCK_NORMALS // (3 * batch))


@pytest.mark.parametrize("batch", [1, 3, 29, 64, 65, 683, 4096])
def test_shared_stream_is_one_draw_per_step(batch):
    optim._noise_stream.cache_clear()
    rows = block_rows(batch)
    steps = 2 * rows + 1  # crosses two block boundaries
    mu_star = np.array([0.25, -1.5, 3.0])
    assert take(optim._batch_means(mu_star, 5, batch), steps) == \
        reference_means(mu_star, 5, batch, steps)
    _, blocks = optim._noise_stream(5, batch)
    assert [len(block) for block in blocks] == [rows] * 3  # drawn only when needed
    assert not any(block.flags.writeable for block in blocks)


@pytest.mark.parametrize("batch", [65, 256, 683, 1365, 4096])
def test_large_batch_stream_holds_no_array_per_mean(batch):
    # above batch 64 a block holds 64 means, not the 1-63 that BLOCK_NORMALS
    # normals give; an array object per 1-5 means would hold ~60-160 B per
    # 24-B mean, a block of 64 holds ~27 B
    optim._noise_stream.cache_clear()
    means = optim._batch_means(np.zeros(3), 5, batch)
    tracemalloc.start()
    try:
        take(means, 200)  # the allocator's free lists fill before the count
        before = tracemalloc.get_traced_memory()[0]
        take(means, 1000)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 40 * 1000


def test_largest_batch_draw_stays_bounded():
    # the first mean at batch 4096 draws a 64-mean block: 64 * 4096 * 3
    # normals, 6.3 MB, which must not grow unnoticed
    optim._noise_stream.cache_clear()
    tracemalloc.start()
    try:
        next(optim._batch_means(np.zeros(3), 5, optim.BLOCK_NORMALS // 3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8_000_000


def test_a_recorded_trajectory_holds_64_bytes_a_row():
    # 20,001 packed rows are 1.28 MB, at most 1.44 MB with the bytearray's
    # over-allocation; a namedtuple and seven floats per row take about 5.9 MB
    m = cone_model(CONE.embed(ChartPoint(-1.0, 0.0)))
    cfg = OptimizerConfig(max_steps=20_000, grad_tol=0.0, loss_tol=0.0, record_every=1)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        traj = run(m, ChartPoint(1.0, 3.13), cfg)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(traj.records) == 20_001 and len(traj.records.buf) == 64 * 20_001
    assert held < 1_500_000


def test_shared_stream_with_interleaved_seeds():
    # each stream evicts the other from the one-entry cache
    optim._noise_stream.cache_clear()
    batch, steps = 29, 2 * block_rows(29) + 3
    mu_star = np.array([1.0, 0.0, -1.0])
    a, b = optim._batch_means(mu_star, 1, batch), optim._batch_means(mu_star, 2, batch)
    got_a, got_b = zip(*((next(a), next(b)) for _ in range(steps)))
    assert list(got_a) == reference_means(mu_star, 1, batch, steps)
    assert list(got_b) == reference_means(mu_star, 2, batch, steps)


def test_late_consumer_reads_the_grown_stream(monkeypatch):
    optim._noise_stream.cache_clear()
    seeds = []
    default_rng = np.random.default_rng
    monkeypatch.setattr(optim.np.random, "default_rng",
                        lambda seed: seeds.append(seed) or default_rng(seed))
    batch, rows = 3, block_rows(3)
    mu_a, mu_b = np.array([0.5, 0.5, 0.0]), np.array([-2.0, 1.0, 0.125])
    first = optim._batch_means(mu_a, 9, batch)
    head = take(first, rows + 1)  # two blocks drawn
    second = optim._batch_means(mu_b, 9, batch)
    late = take(second, 3 * rows)  # reads both, then draws the third
    head += take(first, 2 * rows)  # reads the third
    assert seeds == [9]
    assert head == reference_means(mu_a, 9, batch, 3 * rows + 1)
    assert late == reference_means(mu_b, 9, batch, 3 * rows)
    monkeypatch.undo()
    assert head == take(optim._batch_means(mu_a, 9, batch), 3 * rows + 1)


def test_failed_step_records_partial_trajectory():
    m = cone_model([1.0, 0.5, 0.5])
    cfg = OptimizerConfig(method="ngd", damping=0.0, step_size=0.05, max_steps=50)
    traj = run(m, ChartPoint(0.0, 0.3), cfg)  # information singular at the start
    assert traj.terminated_by is Termination.FAILED
    assert traj.failure is not None
    assert len(traj.records) == 1


def test_record_thinning_keeps_endpoints():
    xbar = CONE.embed(ChartPoint(-1.0, 0.0))
    cfg = OptimizerConfig(method="gd", step_size=0.05, max_steps=137, record_every=10)
    traj = run(cone_model(xbar), ChartPoint(1.0, 3.13), cfg)
    [steps] = columns(traj, "step")
    assert steps[0] == 0 and steps[-1] == 137
    assert all(b > a for a, b in zip(steps, steps[1:]))
    assert set(steps[1:-1]) <= set(range(10, 140, 10))


def test_non_finite_iterate_fails_the_run():
    # the uncapped first step moves theta by +6.4e306 from 1.78e308 and overflows
    xbar = CONE.embed(ChartPoint(-1.0, 0.0))
    cfg = OptimizerConfig(step_size=1e307, step_cap=1e308, max_steps=5)
    traj = run(cone_model(xbar), ChartPoint(1.0, 1.78e308), cfg)
    assert traj.terminated_by is Termination.FAILED
    assert traj.failure.startswith("step 1: non-finite iterate (-2.23308611537959")
    assert ", inf) from (1.0, 1.78e+308)" in traj.failure
    assert isinstance(traj.error, NonFiniteStepError)
    assert columns(traj, "step") == [[0]]
    assert np.isfinite(np.array(list(traj.records))).all()


@pytest.mark.parametrize("method", ["gd", "ngd"])
def test_huge_step_is_taken_and_non_finite_loss_fails_the_run(method):
    # the 1.5e200 step is under the 1e300 cap, so it must not be zeroed by an
    # overflowing norm; the next iterate is finite but its loss overflows
    xbar = CONE.embed(ChartPoint(-1.0, 0.0))
    cfg = OptimizerConfig(method=method, step_size=1e200, step_cap=1e300, max_steps=5)
    traj = run(cone_model(xbar), ChartPoint(0.5, 0.0), cfg)
    assert traj.terminated_by is Termination.FAILED
    assert traj.failure.startswith("step 1: non-finite loss inf")
    assert columns(traj, "step") == [[0]]
    assert np.isfinite(np.array(list(traj.records))).all()


def test_non_finite_loss_at_the_start_point_raises():
    with pytest.raises(ValueError, match="step 0: non-finite loss"):
        run(cone_model([0.0, 0.0, 0.0]), ChartPoint(1e200, 0.0), OptimizerConfig())


def test_records_are_flat_rows_in_csv_order():
    assert TrajectoryRecord._fields == tuple(tables.TRAJ_FIELDS)
    xbar = HYP.embed(ChartPoint(-1.0, 0.0))
    traj = run(GaussianLocationModel(HYP, xbar), ChartPoint(1.0, 2.0),
               OptimizerConfig(max_steps=30, record_every=7))
    assert tables.TRAJ_DTYPE.names == tuple(tables.TRAJ_FIELDS)
    assert tables.TRAJ_ROW.size == tables.TRAJ_DTYPE.itemsize == 64
    assert len(traj.records.buf) == 64 * len(traj.records)
    table = np.array(list(traj.records))
    assert table.shape == (len(traj.records), len(tables.TRAJ_FIELDS))
    assert type(traj.final.step) is int
    for row in record_list(traj):
        assert np.array_equal(row[3:6], HYP.embed(ChartPoint(row.xi, row.theta)))


@pytest.mark.parametrize("chart, method, mode", [
    (CONE, "gd", "population"),
    (HYP, "ngd", "population"),
    (CONE, "gd", "stochastic"),
    (MappedCone(), "gd", "population"),
])
def test_one_chart_evaluation_per_step(monkeypatch, chart, method, mode):
    m = GaussianLocationModel(chart, CONE.embed(ChartPoint(-1.0, 0.0)))
    cfg = OptimizerConfig(method=method, mode=mode, max_steps=40, grad_tol=0.0,
                          loss_tol=0.0, damping=1e-3, record_every=10)
    calls = []
    local = type(chart).local

    def counted(self, xi, theta):
        calls.append((xi, theta))
        return local(self, xi, theta)

    monkeypatch.setattr(type(chart), "local", counted)
    traj = run(m, ChartPoint(1.0, 3.13), cfg)
    assert traj.terminated_by is Termination.MAX_STEPS
    # one chart kernel call per step, plus the initial point
    assert len(calls) == cfg.max_steps + 1


def hexes(*values):
    return [float(v).hex() for v in values]


def reference_step(local, target, xi, theta, cfg):
    """The step as the model states it: ``chain_rule``'s gradient toward
    ``target``, ``information`` plus damping for NGD, the 2x2 solve with the
    diagonal scaled to 1, and the hypot cap; returns the new iterate and
    whether the cap acted."""
    _, g0, g1 = chain_rule(local, target)
    if cfg.method == "ngd":
        a00, a01, a11 = information(local)
        a00 += cfg.damping
        a11 += cfg.damping
        r0, r1 = a01 / a00, a01 / a11
        h = 1.0 - r0 * r1
        u0, u1 = g0 / a00, g1 / a11
        g0, g1 = (u0 - r0 * u1) / h, (u1 - r1 * u0) / h
    s0, s1 = cfg.step_size * g0, cfg.step_size * g1
    n = math.hypot(s0, s1)
    capped = n > cfg.step_cap
    if capped:
        k = cfg.step_cap / n
        s0, s1 = s0 * k, s1 * k
    return xi - s0, theta - s1, capped


@pytest.mark.parametrize("chart", [CONE, HYP, MomentMap(), MappedCone()],
                         ids=["cone", "hyperboloid", "moment_map", "mapped_cone"])
@pytest.mark.parametrize("method, mode", [("gd", "population"), ("ngd", "population"),
                                          ("gd", "stochastic"), ("ngd", "stochastic")])
def test_run_does_the_model_arithmetic_bit_for_bit(chart, method, mode):
    # every record's point, loss and gradient norm, and every step, carry the
    # bytes of Chart.local, model.chain_rule/information and the reference step
    m = GaussianLocationModel(chart, [0.45, 0.675, 1.0125])
    cfg = OptimizerConfig(method=method, mode=mode, step_size=0.2, step_cap=0.2,
                          damping=1e-3, max_steps=80, grad_tol=0.0, loss_tol=0.0,
                          batch=4, sample_seed=7)
    q0 = ChartPoint(-1.0, 2.5)
    traj = run(m, q0, cfg)
    assert traj.terminated_by is Termination.MAX_STEPS
    target = m.target_mean.tolist()
    means = (reference_means(m.target_mean, 7, 4, cfg.max_steps) if mode == "stochastic"
             else [target] * cfg.max_steps)
    capped = 0
    records = record_list(traj)
    for r, after, mean in zip(records, records[1:], means):
        local = chart.local(r.xi, r.theta)
        loss, g0, g1 = chain_rule(local, target)
        assert hexes(*r[3:]) == hexes(*local[:3], loss, math.hypot(g0, g1))
        *want, was_capped = reference_step(local, mean, r.xi, r.theta, cfg)
        assert hexes(after.xi, after.theta) == hexes(*want)
        capped += was_capped
    assert 0 < capped < cfg.max_steps  # both sides of the cap are checked
    if mode == "population":
        q1 = (gd_step if method == "gd" else ngd_step)(m, q0, cfg)
        assert hexes(q1.xi, q1.theta) == hexes(traj.records[1].xi, traj.records[1].theta)


def step_calls(method, mode, steps, record_every):
    """The Python calls of a run, by function name, and the builtin calls made
    from ``run``'s own frame, by name (Chart.local's sin and cos are its own)."""
    m = GaussianLocationModel(HYP, CONE.embed(ChartPoint(-1.0, 0.0)))
    cfg = OptimizerConfig(method=method, mode=mode, max_steps=steps, grad_tol=0.0,
                          loss_tol=0.0, damping=1e-3, record_every=record_every)
    python, builtin = collections.Counter(), collections.Counter()

    def profile(frame, event, arg):
        if event == "call":
            python[frame.f_code.co_name] += 1
        elif event == "c_call" and frame.f_code is run.__code__:
            builtin[arg.__name__] += 1

    optim._noise_stream.cache_clear()  # each run draws the first noise block
    sys.setprofile(profile)
    try:
        run(m, ChartPoint(1.0, 3.13), cfg)
    finally:
        sys.setprofile(None)
    return python, builtin


def more_calls(method, mode, record_every=1000):
    """The calls that 40 more steps add: (Python calls, builtin calls)."""
    step_calls(method, mode, 40, record_every)  # a first run does the lazy imports of the draw
    short = step_calls(method, mode, 40, record_every)
    long = step_calls(method, mode, 80, record_every)
    added = []
    for before, after in zip(short, long):
        after.subtract(before)
        added.append({name: n for name, n in after.items() if n})
    return tuple(added)


@pytest.mark.parametrize("method", optim.METHODS)
def test_a_population_step_makes_one_python_call(method):
    # the loop's arithmetic is inline: each more step calls Chart.local and
    # math.hypot twice (the gradient norm and the step norm), nothing else
    assert more_calls(method, "population") == ({"local": 40}, {"hypot": 80})


@pytest.mark.parametrize("method", optim.METHODS)
def test_a_stochastic_step_makes_one_python_call(method):
    # the batch mean is one next() on a C-level iterator (the 80 steps stay
    # in the first noise block), and its gradient is inline
    assert more_calls(method, "stochastic") == ({"local": 40}, {"hypot": 80, "next": 40})


@pytest.mark.parametrize("mode", optim.MODES)
@pytest.mark.parametrize("method", optim.METHODS)
def test_a_recorded_step_adds_one_pack(method, mode):
    # a recorded step appends its row with one TRAJ_ROW.pack and makes no Python call
    python, builtin = more_calls(method, mode, record_every=1)
    assert python == {"local": 40}
    assert builtin == {"hypot": 80, "pack": 40, **({"next": 40} if mode == "stochastic" else {})}


# -- detect_stall ------------------------------------------------------------------

def synthetic_trajectory(losses):
    from stratopt.optim import Trajectory, TrajectoryRecord
    records = [
        TrajectoryRecord(step=i, xi=1.0, theta=0.0, mu1=1.0, mu2=1.0, mu3=0.0,
                         loss=float(L), grad_norm=1.0)
        for i, L in enumerate(losses)
    ]
    return Trajectory(tables.TrajectoryTable(records), Termination.MAX_STEPS)


def test_geometric_decrease_is_not_a_stall():
    traj = synthetic_trajectory([0.9 ** i for i in range(200)])
    assert not detect_stall(traj).stalled


def test_constant_loss_above_tolerance_is_a_stall():
    traj = synthetic_trajectory([0.5] * 120)
    rep = detect_stall(traj)
    assert rep.stalled
    assert rep.mean_rel_decrease < 1e-5
    assert rep.window_start == 0


def test_converged_plateau_is_not_a_stall():
    # flat but *below* the loss tolerance: that is convergence, not a stall
    traj = synthetic_trajectory([1e-12] * 120)
    assert not detect_stall(traj, loss_tol=1e-10).stalled


def stall_reference(traj, singularities, loss_tol):
    """The stall report, as hex, by the whole-trajectory formula: every
    relative decrease, one running sum and every window mean at once."""
    records, losses, w = traj.records, traj.losses(), STALL_WINDOW
    rel = (losses[:-1] - losses[1:]) / np.maximum(np.abs(losses[:-1]), 1e-300)
    csum = np.concatenate([[0.0], np.cumsum(rel)])
    n_windows = len(records) - w + 1
    means = (csum[w - 1:w - 1 + n_windows] - csum[:n_windows]) / (w - 1)
    stalled = (means < optim.STALL_PLATEAU_TOL) & (losses[w - 1:] > loss_tol)
    j = int(np.argmax(stalled))
    start, mean, end = ((records[j].step, means[j], j + w - 1) if stalled.any()
                        else (-1, means.min(), len(records) - 1))
    r = records[end]
    distance = min(np.linalg.norm(np.array([r.mu1, r.mu2, r.mu3]) - s) for s in singularities)
    return bool(stalled.any()), start, float(mean).hex(), float(distance).hex()


def stall_hex(report):
    return (report.stalled, report.window_start, report.mean_rel_decrease.hex(),
            report.nearest_singularity_distance.hex())


def noisy_descent(n, flat=(), seed=0):
    """A trajectory of ``n`` records whose loss falls by a random relative
    amount up to 2e-4 a step (up to 1e-7 on the steps in ``flat``, rising on
    every 97th step), with mu1 = step so each record has its own distance."""
    rng = np.random.default_rng(seed)
    drop = rng.uniform(0.0, 2e-4, n)
    drop[list(flat)] *= 5e-4
    drop[::97] *= -1.0
    losses = np.cumprod(1.0 - drop)
    return optim.Trajectory(tables.TrajectoryTable(
        (i, 1.0, 0.0, float(i), 1.0, 0.0, float(L), 1.0) for i, L in enumerate(losses)),
        Termination.MAX_STEPS)


@pytest.mark.parametrize("block", [STALL_WINDOW, 257, optim.STALL_BLOCK])
@pytest.mark.parametrize("n, flat", [
    # the first stalled window straddles the default block boundary at 65,536
    (70_000, range(65_480, 65_640)),
    # nothing stalls: the flattest window is the smallest mean over three blocks
    (140_000, ()),
    # a window stalls in the third block only
    (140_000, range(139_000, 139_200)),
], ids=["straddles", "none", "third-block"])
def test_stall_blocks_keep_the_whole_trajectory_bits(monkeypatch, block, n, flat):
    traj = noisy_descent(n, flat)
    want = stall_reference(traj, [np.zeros(3)], loss_tol=1e-10)
    monkeypatch.setattr(optim, "STALL_BLOCK", block)
    assert stall_hex(detect_stall(traj, [np.zeros(3)], loss_tol=1e-10)) == want
    assert want[0] == bool(flat)


def test_stall_window_validation():
    # shorter than the window: no window, distance from the final point
    traj = synthetic_trajectory([1.0] * (STALL_WINDOW - 1))
    report = detect_stall(traj, singularities=[np.zeros(3)])
    assert (report.stalled, report.window_start) == (False, -1)
    assert np.isnan(report.mean_rel_decrease)
    assert report.nearest_singularity_distance == np.sqrt(2.0)


# -- config validation ----------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(step_size=0.0)
    with pytest.raises(ValueError):
        OptimizerConfig(step_cap=-1.0)
    with pytest.raises(ValueError):
        OptimizerConfig(damping=-1e-9)
    with pytest.raises(ValueError):
        OptimizerConfig(mode="stochastic", batch=0)
    assert OptimizerConfig(method="ngd").method == "ngd"
    assert OptimizerConfig(mode="stochastic").mode == "stochastic"
    with pytest.raises(SettingError, match=r"method must be one of \('gd', 'ngd'\), got 'GD'"):
        OptimizerConfig(method="GD")
    with pytest.raises(SettingError, match=r"mode must be one of \('population', "
                                           r"'stochastic'\), got None"):
        OptimizerConfig(mode=None)
