import itertools

import numpy as np
import pytest

from stratopt import optim, tables
from stratopt.model import Chart, ChartPoint, GaussianLocationModel
from stratopt.optim import (OptimizerConfig, SettingError, SingularFIMError,
                            STALL_WINDOW, Termination, TrajectoryRecord, detect_stall,
                            gd_step, ngd_step, run)

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


def test_ngd_never_singular_on_hyperboloid():
    rng = np.random.default_rng(77)
    cfg = OptimizerConfig(method="ngd", damping=0.0, step_size=0.01)
    m = GaussianLocationModel(HYP, [1.0, 0.0, 0.0])
    for _ in range(1000):
        q = ChartPoint(float(rng.uniform(-2, 2)), float(rng.uniform(-6, 6)))
        ngd_step(m, q, cfg)  # must not raise


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
    assert [(r.step, r.xi, r.theta, r.loss) for r in a.records] == \
           [(r.step, r.xi, r.theta, r.loss) for r in b.records]


def test_stochastic_mode_deterministic_given_seed():
    xbar = CONE.embed(ChartPoint(1.0, 0.5))
    cfg = OptimizerConfig(method="gd", step_size=0.02, max_steps=200,
                          mode="stochastic", batch=8, sample_seed=11)
    a = run(cone_model(xbar), ChartPoint(1.5, 1.0), cfg)
    b = run(cone_model(xbar), ChartPoint(1.5, 1.0), cfg)
    assert [(r.xi, r.theta) for r in a.records] == \
           [(r.xi, r.theta) for r in b.records]
    # and a different seed takes a different path
    c = run(cone_model(xbar), ChartPoint(1.5, 1.0),
            OptimizerConfig(method="gd", step_size=0.02, max_steps=200,
                            mode="stochastic", batch=8, sample_seed=12))
    assert [(r.xi, r.theta) for r in a.records] != \
           [(r.xi, r.theta) for r in c.records]


def reference_means(mu_star, seed, batch, steps):
    """One generator, one ``(batch, 3)`` draw per step: the stream's definition."""
    rng = np.random.default_rng(seed)
    return [(mu_star + rng.standard_normal((batch, 3)).mean(axis=0)).tolist()
            for _ in range(steps)]


def take(means, steps):
    return list(itertools.islice(means, steps))


def block_rows(batch):
    return max(1, optim.BLOCK_NORMALS // (3 * batch))


@pytest.mark.parametrize("batch", [1, 3, 29, 4096])
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
    steps = [r.step for r in traj.records]
    assert steps[0] == 0 and steps[-1] == 137
    assert all(b > a for a, b in zip(steps, steps[1:]))
    assert set(steps[1:-1]) <= set(range(10, 140, 10))


def test_non_finite_iterate_fails_the_run():
    # the first update overflows: the capped step is inf * 0 = nan
    xbar = CONE.embed(ChartPoint(-1.0, 0.0))
    cfg = OptimizerConfig(step_size=1e308, step_cap=1e308, max_steps=5)
    with np.errstate(over="ignore", invalid="ignore"):
        traj = run(cone_model(xbar), ChartPoint(1.0, 3.13), cfg)
    assert traj.terminated_by is Termination.FAILED
    assert traj.failure.startswith("step 1: non-finite iterate (nan, 3.13)")
    assert [r.step for r in traj.records] == [0]
    assert np.isfinite(np.array(traj.records)).all()


@pytest.mark.parametrize("method", ["gd", "ngd"])
def test_huge_step_is_taken_and_non_finite_loss_fails_the_run(method):
    # the 1.5e200 step is under the 1e300 cap, so it must not be zeroed by an
    # overflowing norm; the next iterate is finite but its loss overflows
    xbar = CONE.embed(ChartPoint(-1.0, 0.0))
    cfg = OptimizerConfig(method=method, step_size=1e200, step_cap=1e300, max_steps=5)
    traj = run(cone_model(xbar), ChartPoint(0.5, 0.0), cfg)
    assert traj.terminated_by is Termination.FAILED
    assert traj.failure.startswith("step 1: non-finite loss inf")
    assert [r.step for r in traj.records] == [0]
    assert np.isfinite(np.array(traj.records)).all()


def test_non_finite_loss_at_the_start_point_raises():
    with pytest.raises(ValueError, match="step 0: non-finite loss"):
        run(cone_model([0.0, 0.0, 0.0]), ChartPoint(1e200, 0.0), OptimizerConfig())


def test_records_are_flat_rows_in_csv_order():
    assert TrajectoryRecord._fields == tuple(tables.TRAJ_FIELDS)
    xbar = HYP.embed(ChartPoint(-1.0, 0.0))
    traj = run(GaussianLocationModel(HYP, xbar), ChartPoint(1.0, 2.0),
               OptimizerConfig(max_steps=30, record_every=7))
    table = np.array(traj.records)
    assert table.shape == (len(traj.records), len(tables.TRAJ_FIELDS))
    assert type(traj.final.step) is int
    for row in traj.records:
        assert np.array_equal(row[3:6], HYP.embed(ChartPoint(row.xi, row.theta)))


@pytest.mark.parametrize("chart, method, mode", [
    (CONE, "gd", "population"),
    (HYP, "ngd", "population"),
    (CONE, "gd", "stochastic"),
])
def test_one_chart_evaluation_per_step(monkeypatch, chart, method, mode):
    m = GaussianLocationModel(chart, CONE.embed(ChartPoint(-1.0, 0.0)))
    cfg = OptimizerConfig(method=method, mode=mode, max_steps=40, grad_tol=0.0,
                          loss_tol=0.0, damping=1e-3, record_every=10)
    calls = []
    local = Chart.local

    def counted(self, xi, theta):
        calls.append((xi, theta))
        return local(self, xi, theta)

    monkeypatch.setattr(Chart, "local", counted)
    traj = run(m, ChartPoint(1.0, 3.13), cfg)
    assert traj.terminated_by is Termination.MAX_STEPS
    # one chart kernel call per step, plus the initial point
    assert len(calls) == cfg.max_steps + 1


# -- detect_stall ------------------------------------------------------------------

def synthetic_trajectory(losses):
    from stratopt.optim import Trajectory, TrajectoryRecord
    records = [
        TrajectoryRecord(step=i, xi=1.0, theta=0.0, mu1=1.0, mu2=1.0, mu3=0.0,
                         loss=float(L), grad_norm=1.0)
        for i, L in enumerate(losses)
    ]
    return Trajectory(records, Termination.MAX_STEPS)


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
