import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from stratopt.config import ExperimentSpec
from stratopt.model import ChartPoint
from stratopt.presets import preset
from stratopt.runner import run_experiment
from stratopt.svgplot import HEIGHT, MARGIN, WIDTH, PlotDataError, SchemaError, _Canvas, plot
from stratopt.tables import QUIVER_FIELDS, TRAJ_FIELDS, write_csv


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


def test_quiver_legend_lists_levels_by_value(tmp_path):
    # as text, "10" sorts before "2.5"
    rows = [[level, x, 0.0, 1.0, 0.0, "ok"]
            for level in (0.0, 10.0, 2.5) for x in (-1.0, 1.0)]
    src = write_csv(tmp_path / "quiver.csv", QUIVER_FIELDS, rows)
    root = ET.parse(plot([str(src)], "quiver", tmp_path / "q.svg")).getroot()
    texts = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
    assert [t for t in texts if t.startswith("level ")] == ["level 0", "level 2.5", "level 10"]


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


# Coordinates on `.xx5` rounding boundaries (in data and in pixels), signed
# zeros and the ends of the range, mixed with arbitrary values.
EDGES = st.sampled_from([0.0, -0.0, 0.005, 0.015, 0.125, 0.375, 1.005, 2.675, -2.675,
                         64.005, 100.125, 1e6, -1e6])
COORD = EDGES | st.floats(-1e6, 1e6)


def _reference_points(canvas, xs, ys) -> str:
    """Per-point pixel mapping and formatting, one Python float at a time."""
    (x0, x1), (y0, y1) = canvas.xlim, canvas.ylim
    sx_span, sy_span = (x1 - x0) or 1.0, (y1 - y0) or 1.0
    pts = []
    for x, y in zip(xs, ys):
        sx = MARGIN + (x - x0) / sx_span * (WIDTH - 2 * MARGIN)
        sy = HEIGHT - MARGIN - (y - y0) / sy_span * (HEIGHT - 2 * MARGIN)
        pts.append(f"{sx:.2f},{sy:.2f}")
    return " ".join(pts)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@given(st.lists(st.tuples(COORD, COORD), min_size=1, max_size=40),
       st.tuples(COORD, COORD), st.tuples(COORD, COORD))
@example([(0.0, 0.005)], (0.0, 0.0), (0.0, 5e-324))  # overflows to -inf px, silently
def test_polyline_matches_per_point_formatting(points, xlim, ylim):
    canvas = _Canvas(xlim, ylim)
    xs, ys = [p[0] for p in points], [p[1] for p in points]
    canvas.polyline(np.array(xs), np.array(ys), "#000")
    expected = _reference_points(canvas, xs, ys)
    assert canvas.parts[-1].startswith(f'<polyline points="{expected}" ')


def test_polyline_on_pixel_rounding_boundaries():
    # With this window a data value v lands on pixel 64 + v exactly.
    canvas = _Canvas((0.0, 592.0), (0.0, 412.0))
    xs = [0.005, 0.125, 0.375, 1.005, 2.675, 100.125, -0.0, -0.004]
    canvas.polyline(np.array(xs), np.array(xs), "#000")
    assert canvas.parts[-1].startswith(f'<polyline points="{_reference_points(canvas, xs, xs)}" ')
