import csv
import hashlib
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from stratopt import optim, runner
from stratopt.cli import main
from stratopt.config import SURFACES, ExperimentSpec, InitDistribution, load_config
from stratopt.model import Chart, ChartPoint
from stratopt.optim import Termination, Trajectory, TrajectoryRecord
from stratopt.poly import double_cone
from stratopt.presets import preset
from stratopt.resolve import default_region, deform
from stratopt.runner import _aggregate_rows, _loss_curve, _surfaces, run_experiment
from stratopt.tables import AGG_FIELDS, STALL_FIELDS, TRAJ_FIELDS, read_csv, write_csv


def small_spec(**overrides):
    base = dict(
        name="tiny",
        model="both",
        eps=0.05,
        method="gd",
        step_size=0.05,
        max_steps=300,
        loss_tol=1e-9,
        record_every=5,
        init=(ChartPoint(1.5, 0.4), ChartPoint(0.8, -1.0), ChartPoint(1.2, 2.0)),
        target=ChartPoint(1.0, 0.0),
    )
    base.update(overrides)
    return ExperimentSpec(**base)


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny")
    result = run_experiment(small_spec(), out_dir=out)
    return result


def test_artifact_files_exist(tiny_run):
    names = {p.name for p in tiny_run.out_dir.iterdir()}
    assert "metadata.cfg" in names
    assert "stalls.csv" in names
    assert "targets.csv" in names
    for surface in ("cone", "hyperboloid"):
        assert f"aggregate_{surface}.csv" in names
        for i in range(3):
            assert f"traj_{surface}_{i:03d}.csv" in names
    assert tiny_run.n_failures == 0


def test_trajectory_header_bit_exact(tiny_run):
    path = tiny_run.trajectory_paths[("cone", 0)]
    first = path.read_bytes().split(b"\n", 1)[0]
    assert first == b"step,xi,theta,mu1,mu2,mu3,loss,grad_norm"


def test_csv_is_lf_utf8_with_17_digits(tiny_run):
    raw = tiny_run.trajectory_paths[("cone", 0)].read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")
    header, rows = read_csv(tiny_run.trajectory_paths[("cone", 0)])
    assert header == TRAJ_FIELDS
    for text in rows[1][1:]:
        assert text == format(float(text), ".17g")  # round-trips at 17 digits


def test_records_cover_run(tiny_run):
    _, rows = read_csv(tiny_run.trajectory_paths[("cone", 0)])
    steps = [int(r[0]) for r in rows]
    assert steps[0] == 0
    assert all(b > a for a, b in zip(steps, steps[1:]))
    losses = [float(r[6]) for r in rows]
    assert losses[-1] < 1e-4  # this tiny run converges


def test_aggregate_matches_direct_recomputation(tiny_run):
    header, agg_rows = read_csv(tiny_run.aggregate_paths["cone"])
    assert header == AGG_FIELDS
    per_traj = []
    for i in range(3):
        _, rows = read_csv(tiny_run.trajectory_paths[("cone", i)])
        per_traj.append([(int(r[0]), float(r[6])) for r in rows])
    union = sorted({s for rows in per_traj for s, _ in rows})
    for agg in agg_rows:
        step, mean_loss, median_loss = int(agg[0]), float(agg[1]), float(agg[2])
        assert step in union
        carried = []
        for rows in per_traj:
            past = [L for s, L in rows if s <= step]
            carried.append(past[-1])
        assert mean_loss == pytest.approx(np.mean(carried), rel=0, abs=0)
        assert median_loss == pytest.approx(np.median(carried), rel=0, abs=0)


def test_stall_csv_schema(tiny_run):
    header, rows = read_csv(tiny_run.stall_path)
    assert header == STALL_FIELDS
    assert len(rows) == 6  # 3 inits x 2 surfaces
    assert {r[0] for r in rows} == {"cone", "hyperboloid"}
    assert all(r[2] in ("true", "false") for r in rows)


def test_targets_csv(tiny_run):
    _, rows = read_csv(tiny_run.targets_path)
    by_surface = {r[0]: np.array([float(v) for v in r[1:]]) for r in rows}
    assert np.allclose(by_surface["cone"], Chart.cone().embed(ChartPoint(1.0, 0.0)))
    # target_surface=cone: both runs share the cone-embedded target
    assert np.allclose(by_surface["hyperboloid"], by_surface["cone"])


def test_metadata_reloads_to_equal_spec(tiny_run):
    assert load_config(tiny_run.metadata_path) == small_spec()
    text = tiny_run.metadata_path.read_text(encoding="utf-8")
    assert text.startswith("# stratopt 0.1.0 experiment echo\n[experiment]\n")


def test_rerun_is_byte_identical(tmp_path):
    spec = small_spec(init=InitDistribution((0.5, 1.5), (-2.0, 2.0), 4, 99),
                      max_steps=200)
    a = run_experiment(spec, out_dir=tmp_path / "a")
    b = run_experiment(spec, out_dir=tmp_path / "b")
    files_a = sorted(p.name for p in a.out_dir.glob("*.csv"))
    files_b = sorted(p.name for p in b.out_dir.glob("*.csv"))
    assert files_a == files_b and files_a
    for name in files_a:
        assert (a.out_dir / name).read_bytes() == (b.out_dir / name).read_bytes()


def csv_bytes(out_dir):
    return {p.name: p.read_bytes() for p in sorted(out_dir.glob("*.csv"))}


def test_rerun_in_place_equals_a_fresh_run(tmp_path):
    out = tmp_path / "run"
    run_experiment(preset("fig1-cusp"), out_dir=out)
    run_experiment(small_spec(max_steps=20), out_dir=out)  # 3 inits on both surfaces
    (out / "notes.txt").write_text("not the runner's\n", encoding="utf-8")
    spec = small_spec(model="cone", init=(ChartPoint(1.5, 0.4),), max_steps=20)
    run_experiment(spec, out_dir=out)
    fresh = run_experiment(spec, out_dir=tmp_path / "fresh")
    assert sorted(p.name for p in out.iterdir()) == sorted(
        [p.name for p in fresh.out_dir.iterdir()] + ["notes.txt"])
    assert csv_bytes(out) == csv_bytes(fresh.out_dir)
    assert (out / "metadata.cfg").read_bytes() == fresh.metadata_path.read_bytes()


def test_failed_rerun_leaves_no_metadata(tmp_path):
    out = tmp_path / "run"
    run_experiment(small_spec(max_steps=20), out_dir=out)
    with pytest.raises(ValueError, match="non-finite loss"):
        run_experiment(small_spec(init=(ChartPoint(1e200, 0.3),)), out_dir=out)
    assert not (out / "metadata.cfg").exists()


def test_stochastic_experiment_draws_its_stream_once(tmp_path, monkeypatch):
    spec = small_spec(init=InitDistribution((0.5, 1.5), (-2.0, 2.0), 4, 99),
                      max_steps=200, mode="stochastic", batch=12, sample_seed=21)
    seeds = []
    default_rng = np.random.default_rng
    monkeypatch.setattr(optim.np.random, "default_rng",
                        lambda seed: seeds.append(seed) or default_rng(seed))
    optim._noise_stream.cache_clear()
    first = run_experiment(spec, out_dir=tmp_path / "first")
    assert seeds == [99, 21]  # the init draw, then one stream for 8 trajectories
    again = run_experiment(spec, out_dir=tmp_path / "again")  # reads the cached stream
    assert seeds == [99, 21, 99]
    optim._noise_stream.cache_clear()
    fresh = run_experiment(spec, out_dir=tmp_path / "fresh")
    assert seeds == [99, 21, 99, 99, 21]
    want = csv_bytes(fresh.out_dir)
    assert len(want) == 2 * 4 + 4
    assert csv_bytes(first.out_dir) == want
    assert csv_bytes(again.out_dir) == want


def aggregate_reference(trajs):
    """The aggregate rows through ``np.unique`` and ``np.median``."""
    steps_per = [np.array([r.step for r in t.records]) for t in trajs]
    union = np.unique(np.concatenate(steps_per))
    carried = np.empty((len(trajs), union.size))
    for i, (steps, t) in enumerate(zip(steps_per, trajs)):
        idx = np.searchsorted(steps, union, side="right") - 1
        carried[i] = t.losses()[np.clip(idx, 0, len(steps) - 1)]
    return list(zip(union.tolist(), carried.mean(axis=0).tolist(),
                    np.median(carried, axis=0).tolist()))


losses = st.one_of(st.sampled_from([0.0, 1e-12, 0.5, 1.0]), st.floats(0.0, 1e300))
loss_paths = st.lists(st.tuples(st.sets(st.integers(0, 60), min_size=1),
                                st.lists(losses, min_size=61, max_size=61)),
                      min_size=1, max_size=7)


# four paths whose step union spans more than two blocks of AGGREGATE_STEPS
STEPS = 3 * runner.AGGREGATE_STEPS
LONG_PATHS = [(set(range(STEPS - 500)), [0.5, 3.0, 0.25] * STEPS),
              (set(range(0, STEPS, 3)), [1.0, 0.5] * STEPS),
              (set(range(5, 700, 2)), [0.25] * STEPS),
              (set(range(0, STEPS, 7)), [3.0, 1.0, 1.0] * STEPS)]


@given(loss_paths)
@example([({0, 5}, [1.0] * 61), ({0, 3, 9}, [0.5] * 61)])  # even count, one repeated loss
@example([({0}, [2.0] * 61), ({4}, [1.0] * 61), ({0, 4}, [3.0] * 61)])  # odd count
@example(LONG_PATHS)  # even count
@example(LONG_PATHS + [({0}, [2.0] * STEPS)])  # odd count
def test_aggregate_rows_match_unique_and_median(paths):
    trajs = [Trajectory([TrajectoryRecord(s, 1.0, 0.0, 1.0, 1.0, 0.0, loss[s], 1.0)
                         for s in sorted(steps)], Termination.MAX_STEPS)
             for steps, loss in paths]
    bits = lambda rows: [(s, a.hex(), b.hex()) for s, a, b in rows]
    curves = [_loss_curve(t) for t in trajs]
    assert bits(_aggregate_rows(curves)) == bits(aggregate_reference(trajs))


def test_on_model_target_differs_on_hyperboloid(tmp_path):
    res = run_experiment(small_spec(target_surface="model", max_steps=50),
                         out_dir=tmp_path / "m")
    _, rows = read_csv(res.targets_path)
    by_surface = {r[0]: np.array([float(v) for v in r[1:]]) for r in rows}
    want = Chart.hyperboloid(0.05).embed(ChartPoint(1.0, 0.0))
    assert np.allclose(by_surface["hyperboloid"], want)
    assert not np.allclose(by_surface["hyperboloid"], by_surface["cone"])


def test_failed_trajectories_are_counted_not_raised(tmp_path):
    # undamped natural gradient started exactly at the apex fails immediately
    spec = small_spec(model="cone", eps=0.0, method="ngd", damping=0.0,
                      init=(ChartPoint(0.0, 0.5), ChartPoint(1.0, 0.5)),
                      max_steps=50)
    res = run_experiment(spec, out_dir=tmp_path / "f")
    assert res.n_failures == 1
    _, rows = read_csv(res.stall_path)
    assert rows[0][7] == "failed"
    assert "singular" in rows[0][8]
    assert rows[1][7] != "failed"


def test_failure_text_with_commas_stays_one_cell(tmp_path):
    from stratopt.model import GaussianLocationModel
    from stratopt.optim import run
    spec = small_spec(model="cone", method="ngd", damping=0.0,
                      init=(ChartPoint(0.0, 0.3),), max_steps=10)
    res = run_experiment(spec, out_dir=tmp_path / "f")
    model = GaussianLocationModel(Chart.cone(), Chart.cone().embed(spec.target))
    failure = run(model, spec.init[0], spec).failure
    assert "," in failure  # "... singular at (xi=0, theta=0.3) ..."
    with open(res.stall_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert [len(r) for r in rows] == [len(STALL_FIELDS)] * 2
    assert rows[1][8] == failure


def test_cusp_quiver(tmp_path):
    res = run_experiment(preset("fig1-cusp"), out_dir=tmp_path / "cusp")
    assert res.quiver_path is not None
    header, rows = read_csv(res.quiver_path)
    assert header == ["level", "x1", "x2", "gx", "gy", "status"]
    undefined = [r for r in rows if r[5] == "undefined"]
    assert len(undefined) == 1
    assert float(undefined[0][1]) == 0.0 and float(undefined[0][2]) == 0.0
    assert float(undefined[0][0]) == 0.0  # only the base level has the singular point
    levels = sorted({float(r[0]) for r in rows})
    assert levels == [0.0, 0.05, 0.2]
    oks = [r for r in rows if r[5] == "ok"]
    assert all(np.isfinite([float(r[3]), float(r[4])]).all() for r in oks)


def decided_level(level):
    """A stand-in for ``resolve.decide`` that resolves the double cone at ``level``."""
    def decide(p, eps, region):
        assert (p, eps, region) == (double_cone(), 0.05, default_region(3))
        return deform(p, level, region), "morse", ((2, 1),)
    return decide


def test_the_hyperboloid_level_comes_from_decide(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(runner, "decide", decided_level(0.07))
    result = run_experiment(small_spec(max_steps=20), out_dir=tmp_path / "run")
    for i in range(3):
        _, traj = read_csv(result.trajectory_paths[("hyperboloid", i)])
        mu = np.array([[float(v) for v in row[3:6]] for row in traj])
        assert len(mu) > 1
        assert np.allclose(mu[:, 1] ** 2 + mu[:, 2] ** 2 - mu[:, 0] ** 2, 0.07,
                           rtol=1e-12, atol=0)
    # a level the chart cannot carry ends the run before metadata.cfg is written
    monkeypatch.setattr(runner, "decide", decided_level(-0.05))
    cfg = tmp_path / "both.cfg"
    cfg.write_text("[experiment]\nmodel = both\neps = 0.05\nmax_steps = 5\n"
                   "init = 1.2 0.3\ntarget = 1.0 0.0\n", encoding="utf-8")
    assert main(["run", str(cfg), "--out", str(tmp_path / "neg")]) == 2
    assert capsys.readouterr().err == (
        "error: hyperboloid chart requires a finite eps > 0, got eps=-0.05\n")
    assert not (tmp_path / "neg" / "metadata.cfg").exists()


def test_a_hyperboloid_at_eps_1e6_runs_as_before(tmp_path):
    # decide resolves the double cone at +1e6, the level the chart was built at
    # when the runner took spec.eps as it is: these are that run's bytes
    result = run_experiment(small_spec(model="hyperboloid", eps=1e6, max_steps=20),
                            out_dir=tmp_path)
    assert result.n_failures == 0
    files = csv_bytes(tmp_path)
    assert list(files) == ["aggregate_hyperboloid.csv", "stalls.csv", "targets.csv",
                           *(f"traj_hyperboloid_{i:03d}.csv" for i in range(3))]
    assert hashlib.sha256(b"".join(files.values())).hexdigest() == (
        "f032cab21c12a1d0093e9935848a0dd393921df9ee9d50a9e0b7d89134f5341e")


def test_write_trajectory_csv_standalone(tmp_path):
    from stratopt.model import GaussianLocationModel
    from stratopt.optim import OptimizerConfig, run
    m = GaussianLocationModel(Chart.cone(), [1.0, 1.0, 0.0])
    traj = run(m, ChartPoint(1.5, 0.5), OptimizerConfig(method="gd", max_steps=20))
    path = write_csv(tmp_path / "t.csv", TRAJ_FIELDS, traj.records)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == TRAJ_FIELDS
    assert len(rows) == len(traj.records) + 1


def surface_spec(model):
    return ExperimentSpec(model=model, eps=0.05, target=ChartPoint(1, 0),
                          init=(ChartPoint(1, 0),))


@pytest.mark.parametrize("model, charts", [
    ("cone", [("cone", Chart.cone())]),
    ("hyperboloid", [("hyperboloid", Chart.hyperboloid(0.05))]),
    ("both", [("cone", Chart.cone()), ("hyperboloid", Chart.hyperboloid(0.05))]),
    ("cusp", []),
])
def test_surfaces_come_from_the_model_table(model, charts):
    assert _surfaces(surface_spec(model)) == charts


def test_a_surface_without_a_chart_is_an_error(monkeypatch):
    # a surface listed in config.SURFACES before the runner builds its chart
    spec = surface_spec("cone")
    monkeypatch.setitem(SURFACES, "cone", ("cone", "sphere"))
    with pytest.raises(KeyError, match="sphere"):
        _surfaces(spec)


@pytest.mark.parametrize("surface", sorted({s for ss in SURFACES.values() for s in ss}))
def test_every_surface_has_a_chart_and_a_rerun_clears_its_files(surface, tmp_path):
    # each surface is also a model, whose one chart is Chart.<surface>
    assert [(s, type(chart)) for s, chart in _surfaces(surface_spec(surface))] == \
        [(surface, getattr(Chart, surface))]
    out = tmp_path / "run"
    out.mkdir()
    for name in (f"traj_{surface}_000.csv", f"traj_{surface}_1000.csv",
                 f"aggregate_{surface}.csv"):
        (out / name).write_text("stale\n", encoding="utf-8")
    run_experiment(preset("fig1-cusp"), out_dir=out)
    assert sorted(p.name for p in out.iterdir()) == ["metadata.cfg", "quiver.csv"]


def test_sweep_memory_does_not_grow_with_the_trajectories(tmp_path):
    # 32 inits x 1,001 records x 2 surfaces; a surface holds only the steps
    # and losses of its finished trajectories, about 16 B per record
    spec = small_spec(max_steps=1000, loss_tol=0.0, grad_tol=0.0, record_every=1,
                      init=InitDistribution(xi_range=(0.25, 2.0), theta_range=(-3.0, 3.0),
                                            count=32, seed=5))
    run_experiment(replace(spec, max_steps=2), out_dir=tmp_path / "warm")  # caches, imports
    tracemalloc.start()
    try:
        result = run_experiment(spec, out_dir=tmp_path / "run")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(result.trajectory_paths) == 64
    assert read_csv(result.trajectory_paths[("cone", 31)])[1][-1][0] == "1000"
    assert peak < 4_000_000
