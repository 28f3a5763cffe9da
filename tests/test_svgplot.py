import xml.etree.ElementTree as ET

import pytest

from stratopt.config import ExperimentSpec
from stratopt.model import ChartPoint
from stratopt.presets import preset
from stratopt.runner import run_experiment
from stratopt.svgplot import PlotDataError, SchemaError, plot
from stratopt.tables import TRAJ_FIELDS, write_csv


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("plotsrc")
    spec = ExperimentSpec(
        name="plotsrc", model="both", eps=0.05, method="gd",
        step_size=0.05, max_steps=200, record_every=5,
        init=(ChartPoint(1.5, 0.4), ChartPoint(0.8, -1.0), ChartPoint(1.2, 2.0)),
        target=ChartPoint(1.0, 0.0),
    )
    return run_experiment(spec, out_dir=out)


def test_loss_curves_has_labeled_series(run_dir, tmp_path):
    paths = [run_dir.trajectory_paths[("cone", i)] for i in range(3)]
    out = plot([str(p) for p in paths], "loss_curves", tmp_path / "loss.svg")
    svg = out.read_text()
    assert svg.startswith("<svg")
    assert svg.count("<polyline") == 3
    for i in range(3):
        assert f"traj_cone_{i:03d}" in svg


def test_loss_curves_accepts_aggregates(run_dir, tmp_path):
    out = plot([str(run_dir.aggregate_paths["cone"])], "loss_curves", tmp_path / "agg.svg")
    svg = out.read_text()
    assert "aggregate_cone:mean" in svg and "aggregate_cone:median" in svg


def test_topview_draws_markers_and_targets(run_dir, tmp_path):
    paths = [str(run_dir.trajectory_paths[("cone", 0)]),
             str(run_dir.trajectory_paths[("hyperboloid", 0)]),
             str(run_dir.targets_path)]
    out = plot(paths, "topview_trajectories", tmp_path / "top.svg")
    svg = out.read_text()
    assert svg.count("<polyline") == 2
    assert "<circle" in svg      # start/end markers
    assert "<path" in svg        # target cross


def test_quiver_marks_undefined_point(tmp_path):
    res = run_experiment(preset("fig1-cusp"), out_dir=tmp_path / "cusp")
    out = plot([str(res.quiver_path)], "quiver", tmp_path / "q.svg")
    svg = out.read_text()
    assert 'r="6" fill="#d62728"' in svg  # the singular point
    assert "<line" in svg


def test_labels_are_escaped(run_dir, tmp_path):
    src = tmp_path / "a&b<c.csv"
    src.write_bytes(run_dir.trajectory_paths[("cone", 0)].read_bytes())
    out = plot([str(src)], "loss_curves", tmp_path / "x.svg")
    root = ET.parse(out).getroot()
    texts = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
    assert "a&b<c" in texts


def test_empty_csv_errors_and_writes_nothing(tmp_path):
    empty = write_csv(tmp_path / "empty.csv", TRAJ_FIELDS, [])
    target = tmp_path / "out.svg"
    with pytest.raises(PlotDataError):
        plot([str(empty)], "loss_curves", target)
    assert not target.exists()


def test_schema_mismatch_rejected(tmp_path):
    weird = write_csv(tmp_path / "weird.csv", ["a", "b"], [[1, 2]])
    with pytest.raises(SchemaError):
        plot([str(weird)], "loss_curves", tmp_path / "x.svg")
    with pytest.raises(SchemaError):
        plot([str(weird)], "quiver", tmp_path / "x.svg")


def test_unknown_kind_rejected(run_dir, tmp_path):
    with pytest.raises(ValueError):
        plot([str(run_dir.aggregate_paths["cone"])], "scatter", tmp_path / "x.svg")


def test_no_inputs_rejected(tmp_path):
    with pytest.raises(PlotDataError):
        plot([], "loss_curves", tmp_path / "x.svg")
