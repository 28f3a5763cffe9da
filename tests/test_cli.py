import codecs
import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import stratopt
from stratopt import resolve, stratify
from stratopt.cli import main
from stratopt.tables import AGG_FIELDS, TARGET_FIELDS, TRAJ_FIELDS, read_csv, write_csv

CONE_TEXT = "x1^2 + x2^2 - x0^2"


def test_stratify_reports_apex(capsys, tmp_path):
    csv_out = tmp_path / "sing.csv"
    rc = main(["stratify", CONE_TEXT, "--csv", str(csv_out)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "singular points: 1" in out
    assert "regular stratum dimension: 2" in out
    header, rows = read_csv(csv_out)
    assert header == ["x0", "x1", "x2"]
    assert len(rows) == 1
    assert max(abs(float(v)) for v in rows[0]) < 1e-6


def test_stratify_smooth_level(capsys):
    rc = main(["stratify", CONE_TEXT, "--level", "0.1"])
    assert rc == 0
    assert "singular points: 0" in capsys.readouterr().out


def test_resolve_reports_both_signs(capsys, tmp_path):
    csv_out = tmp_path / "samples.csv"
    rc = main(["resolve", CONE_TEXT, "--eps", "0.1", "--grid-n", "32",
               "--samples", "200", "--csv", str(csv_out)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "level +0.1: 1 component(s)" in out
    assert "level -0.1: 2 component(s)" in out
    assert "chosen level: +0.1" in out
    assert "smoothness check: pass" in out
    header, rows = read_csv(csv_out)
    assert header == ["x0", "x1", "x2"]
    assert rows


def test_resolve_counts_each_level_once(capsys, monkeypatch):
    calls = []
    count_components = resolve.count_components

    def counted(*args, **kwargs):
        calls.append(args[0].level)
        return count_components(*args, **kwargs)
    monkeypatch.setattr(resolve, "count_components", counted)
    assert main(["resolve", CONE_TEXT, "--eps", "0.1", "--grid-n", "32"]) == 0
    assert calls == [0.1, -0.1]
    assert "chosen level: +0.1" in capsys.readouterr().out


@pytest.mark.parametrize("polynomial, eps, counts", [
    ("x0^2*x1 - x1^3", "0.1", (3, 3)),  # a degenerate point
    ("x0*x1", "0.1", (2, 2)),  # a Morse point of inertia (1, 1): no sign preferred
])
def test_resolve_says_when_the_tie_break_chose(capsys, polynomial, eps, counts):
    assert main(["resolve", polynomial, "--eps", eps]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[2:] == [f"chosen level: +{eps}",
                         f"tie: both levels have {counts[0]} component(s); "
                         f"+{eps} wins only by tie-break",
                         "smoothness check: pass"]
    assert [line.split()[2] for line in lines[:2]] == [str(n) for n in counts]


def test_resolve_without_a_tie_prints_no_tie_line(capsys):
    assert main(["resolve", CONE_TEXT, "--eps", "0.1"]) == 0
    assert capsys.readouterr().out == (
        "level +0.1: 1 component(s), 15160 occupied cells\n"
        "level -0.1: 2 component(s), 13848 occupied cells\n"
        "chosen level: +0.1\n"
        "morse: 1 singular point(s) of Hessian inertia (2, 1): "
        "1 local piece(s) at +0.1, 2 at -0.1\n"
        "smoothness check: pass\n")


@pytest.mark.parametrize("eps", ["0.001", "0.0001", "1e-12"])
def test_resolve_decides_by_morse_where_the_grid_ties(capsys, eps):
    # grid 64 misses the neck of width ~sqrt(eps) and counts (1, 1); the
    # apex's inertia (2, 1) makes +eps one piece near it and -eps two
    assert main(["resolve", CONE_TEXT, "--eps", eps]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[2] for line in lines[:2]] == ["1", "1"]
    assert lines[2:] == [f"chosen level: +{eps}",
                         f"morse: 1 singular point(s) of Hessian inertia (2, 1): "
                         f"1 local piece(s) at +{eps}, 2 at -{eps}",
                         "smoothness check: pass"]


def test_resolve_ties_in_four_variables(capsys):
    # inertia (2, 2) prefers neither sign, so the counts decide; swapping two
    # columns maps det to -det, so the two levels are mirror images and tie
    assert main(["resolve", "x0*x3 - x1*x2", "--eps", "0.1", "--grid-n", "32"]) == 0
    assert capsys.readouterr().out.splitlines()[2:] == [
        "chosen level: +0.1",
        "tie: both levels have 1 component(s); +0.1 wins only by tie-break",
        "smoothness check: pass"]


@pytest.mark.parametrize("polynomial, stdout", [
    ("x0*x1 - 0.1", "level +0.1: 2 component(s), 122 occupied cells\n"
                    "level -0.1: 1 component(s), 252 occupied cells\n"
                    "chosen level: +0.1\n"
                    "fallback: -0.1 fails the smoothness check: "
                    "a singular point lies on the level\n"
                    "smoothness check: pass\n"),
    ("0.1 - x0^2 - x1^2", "level +0.1: 1 component(s), 4 occupied cells\n"
                          "level -0.1: 1 component(s), 60 occupied cells\n"
                          "chosen level: -0.1\n"
                          "fallback: +0.1 fails the smoothness check: "
                          "a singular point lies on the level\n"
                          "smoothness check: pass\n"),
    # 669 of -0.1's 10000 samples do not reach it, but no critical point lies
    # on it: the level with fewer components wins, and no fallback is printed
    ("x0^2 + x1^2 - x0^4", "level +0.1: 3 component(s), 212 occupied cells\n"
                           "level -0.1: 2 component(s), 164 occupied cells\n"
                           "chosen level: -0.1\n"
                           "smoothness check: pass\n"),
], ids=["fewer components but singular", "tie won by a single point",
        "fewer components but unprojected"])
def test_resolve_says_when_a_level_fails_the_smoothness_check(capsys, polynomial, stdout):
    assert main(["resolve", polynomial, "--eps", "0.1"]) == 0
    assert capsys.readouterr().out == stdout


def test_resolve_at_grid_128_counts_across_slabs(capsys):
    # 129^3 corners are streamed in many x0 slabs; the counts are those of
    # the whole corner lattice
    assert main(["resolve", CONE_TEXT, "--eps", "0.1", "--grid-n", "128"]) == 0
    assert capsys.readouterr().out == (
        "level +0.1: 1 component(s), 60752 occupied cells\n"
        "level -0.1: 2 component(s), 55424 occupied cells\n"
        "chosen level: +0.1\n"
        "morse: 1 singular point(s) of Hessian inertia (2, 1): "
        "1 local piece(s) at +0.1, 2 at -0.1\n"
        "smoothness check: pass\n")


def test_resolve_cusp_csv_is_pinned(capsys, monkeypatch, tmp_path):
    # the README's cusp command; its samples come from the projection, whose
    # rows near the cusp run all PROJECTION_MAX_ITER steps
    monkeypatch.chdir(tmp_path)
    assert main(["resolve", "x0^2 + x1^3", "--eps", "0.1", "--csv", "cusp.csv"]) == 0
    assert capsys.readouterr().out == (
        "level +0.1: 1 component(s), 130 occupied cells\n"
        "level -0.1: 1 component(s), 100 occupied cells\n"
        "chosen level: +0.1\n"
        "tie: both levels have 1 component(s); +0.1 wins only by tie-break\n"
        "smoothness check: pass\n"
        "1992 deformation samples written to cusp.csv\n")
    data = (tmp_path / "cusp.csv").read_bytes()
    assert data.count(b"\n") == 1993
    assert hashlib.sha256(data).hexdigest() == (
        "fd31a863c7c48dca65d9f8c44f115b5f25c9959fed753ee10e7b638be8666dbf")


@pytest.mark.parametrize("argv", [
    ["stratify", CONE_TEXT, "--level", "nan"],
    ["stratify", CONE_TEXT, "--level=-inf"],
    ["resolve", CONE_TEXT, "--eps", "nan"],
    ["resolve", CONE_TEXT, "--eps", "inf"],
])
def test_non_finite_levels_exit_2(capsys, argv):
    assert main(argv) == 2
    assert "must be" in capsys.readouterr().err


@pytest.mark.parametrize("samples, message", [
    ("-3", "must be >= 0, got -3"),
    ("100000000", f"must be <= {resolve.MAX_SAMPLES}, got 100000000"),  # would need GBs
], ids=["negative", "above MAX_SAMPLES"])
def test_out_of_range_samples_is_a_usage_error(capsys, monkeypatch, tmp_path, samples, message):
    def no_count(*args, **kwargs):
        raise AssertionError("components counted before the arguments were checked")
    monkeypatch.setattr(resolve, "count_components", no_count)
    with pytest.raises(SystemExit) as exc:
        main(["resolve", CONE_TEXT, "--eps", "0.1", "--samples", samples,
              "--csv", str(tmp_path / "out.csv")])
    assert exc.value.code == 2
    assert f"argument --samples: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


def test_zero_samples_writes_header_only_csv(capsys, tmp_path):
    csv_out = tmp_path / "samples.csv"
    assert main(["resolve", CONE_TEXT, "--eps", "0.1", "--grid-n", "32",
                 "--samples", "0", "--csv", str(csv_out)]) == 0
    assert csv_out.read_text() == "x0,x1,x2\n"
    assert "0 deformation samples written" in capsys.readouterr().out


def test_bad_polynomial_is_reported(capsys):
    rc = main(["stratify", "x0^^2"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_run_preset_exit_zero(capsys, tmp_path):
    rc = main(["run", "--preset", "fig1-cusp", "--out", str(tmp_path / "cusp")])
    assert rc == 0
    assert (tmp_path / "cusp" / "quiver.csv").exists()


def test_run_config_file(capsys, tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("[experiment]\nname = quick\nmodel = cone\nmethod = gd\n"
                   "max_steps = 50\ninit = 1.2 0.3\ntarget = 1.0 0.0\n",
                   encoding="utf-8")
    rc = main(["run", str(cfg), "--out", str(tmp_path / "quick")])
    assert rc == 0
    assert (tmp_path / "quick" / "traj_cone_000.csv").exists()
    assert (tmp_path / "quick" / "metadata.cfg").exists()


def test_run_reports_failures_in_exit_code(tmp_path):
    cfg = tmp_path / "fail.cfg"
    cfg.write_text("[experiment]\nmodel = cone\nmethod = ngd\ndamping = 0.0\n"
                   "max_steps = 10\ninit = 0.0 0.5\ntarget = 1.0 0.0\n",
                   encoding="utf-8")
    rc = main(["run", str(cfg), "--out", str(tmp_path / "failed")])
    assert rc == 1


@pytest.mark.parametrize("argv", [
    ["stratify", CONE_TEXT],
    ["resolve", CONE_TEXT, "--eps", "0.1", "--grid-n", "32"],
], ids=["stratify", "resolve"])
def test_default_region_is_the_box_from_minus_2_to_2(capsys, argv):
    assert main(argv) == 0
    default = capsys.readouterr().out
    assert main([*argv, "--region=-2,2"]) == 0
    assert capsys.readouterr().out == default


def test_constant_polynomial_exits_2_before_the_newton_search(capsys, monkeypatch):
    def no_search(*args):
        raise AssertionError("Newton search run on a constant")
    monkeypatch.setattr(stratify, "_newton_endpoints", no_search)
    assert main(["stratify", "0*x0 + 0*x1 + 0*x2"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [
        "error: polynomial '0' is constant: each of its level sets is empty or all of R^3"]


def test_overflowing_region_width_exits_2(capsys):
    # each bound is finite, but the width is not; the origin would be missed
    assert main(["stratify", "x0^2 + x1^2", "--region=-1e308,1e308"]) == 2
    assert "region width" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["stratify", "x0^2", "--region", "a,b"], "--region needs two numbers 'lo,hi', got 'a,b'"),
    (["stratify", "x0^2", "--region", "1,2,3"],
     "--region needs two numbers 'lo,hi', got '1,2,3'"),
    (["resolve", CONE_TEXT, "--eps", "0.1", "--region", "-1"],
     "--region needs two numbers 'lo,hi', got '-1'"),
    (["stratify", "x0*x1", "--grid-points", "2000"],
     "grid_points=2000 in 2 dimensions needs 4000000 seeds, more than "
     f"MAX_SEEDS={stratify.MAX_SEEDS}; lower grid_points"),
    (["stratify", "x0^2", "--grid-points", "1"], "grid_points must be >= 2, got 1"),
    (["stratify", "x0^2", "--region=-1,nan"], "--region '-1,nan': region bounds must be finite"),
    (["stratify", "x0^2", "--region=2,1"],
     "--region '2,1': region requires lower < upper componentwise"),
    (["stratify", "x0^2", "--region=-1e308,1e308"],
     "--region '-1e308,1e308': region width upper - lower must be finite, got [inf]"),
], ids=["region-not-numbers", "region-three-numbers", "region-one-number", "grid-points",
        "grid-points-below-2", "region-not-finite", "region-reversed", "region-width-overflows"])
def test_bad_region_or_grid_names_its_flag(capsys, argv, message):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [f"error: {message}"]  # one line, no traceback


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("polynomial, bound", [("x0^2 + x1^2", "1e300"),
                                               ("x0^2*x1 - x1^3", "1e200")])
def test_huge_finite_region_runs_without_warnings(capsys, polynomial, bound):
    # the Newton seeds overflow to inf/NaN rows, which the search drops
    assert main(["stratify", polynomial, f"--region=-{bound},{bound}"]) == 0
    assert f"s0 = (0, 0)  ball_radius = {bound.replace('e', 'e+')}" in capsys.readouterr().out


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, count", [(["x0*x1*x2"], 61), (["x0^2", "--nvars", "2"], 21)],
                         ids=["x0*x1*x2", "x0^2 in 2 variables"])
def test_huge_finite_region_merges_singular_points_without_warnings(capsys, argv, count):
    # distances between points near +-1e300 overflow to inf: far apart, so
    # neither merged nor a close pair
    assert main(["stratify", *argv, "--region=-1e300,1e300"]) == 0
    assert f"singular points: {count}" in capsys.readouterr().out.splitlines()


@pytest.mark.filterwarnings("error")
def test_huge_finite_region_resolves_a_cubic_without_warnings(capsys):
    # the corner lattice overflows to inf/NaN corners, which leave their cells
    # empty; the check draws no samples, which would overflow in projection
    argv = ["resolve", "x0^2 + x1^2 + x1^3", "--eps", "0.1", "--region=-1e300,1e300"]
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines() == [
        "level +0.1: 1 component(s), 2 occupied cells",
        "level -0.1: 0 component(s), 0 occupied cells",
        "chosen level: +0.1",
        "smoothness check: pass"]


@pytest.mark.filterwarnings("error")
def test_huge_finite_region_resolves_a_quadric_without_warnings(capsys):
    # the circle {x0^2 + x1^2 = 0.1} has no critical point on it
    argv = ["resolve", "x0^2 + x1^2", "--eps", "0.1", "--region=-1e300,1e300"]
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines() == [
        "level +0.1: 1 component(s), 4 occupied cells",
        "level -0.1: 0 component(s), 0 occupied cells",
        "chosen level: +0.1",
        "smoothness check: pass"]


@pytest.mark.filterwarnings("error")
def test_close_pair_warning_as_an_error_exits_2(capsys):
    # x0^2 is singular along the line x0 = 0: 21 points, 210 close pairs
    assert main(["stratify", "x0^2", "--nvars", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: 210 pair(s) of singular points closer than 4*max(ball radius)")
    assert err.count("\n") == 1


def test_close_pair_warning_leaves_the_output_as_it_is(capsys):
    with pytest.warns(RuntimeWarning, match="210 pair"):
        assert main(["stratify", "x0^2", "--nvars", "2"]) == 0
    out = capsys.readouterr().out
    assert "singular points: 21" in out and out.endswith("regular stratum dimension: 1\n")


def test_run_unknown_preset_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["run", "--preset", "fig99"])
    assert err.value.code == 2


def test_config_error_paths_surface(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[experiment]\nmodle = cone\n", encoding="utf-8")
    rc = main(["run", str(cfg)])
    assert rc == 2
    assert "unknown key" in capsys.readouterr().err


def test_non_utf8_config_names_path_and_line(capsys, tmp_path):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes("[experiment]\nname = caf\u00e9\n".encode("latin-1"))
    assert main(["run", str(cfg), "--out", str(tmp_path / "run")]) == 2
    assert f"{cfg}:2: not UTF-8" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("key, lines", [
    ("sample_seed", "mode = stochastic\nsample_seed = -1\ninit = 1.2 0.3\n"),
    ("init_seed", "init_xi = 0.25 2.0\ninit_theta = -3.0 3.0\ninit_count = 2\ninit_seed = -5\n"),
], ids=["sample_seed", "init_seed"])
def test_run_with_negative_seed_leaves_no_directory(capsys, tmp_path, key, lines):
    cfg = tmp_path / "seed.cfg"
    cfg.write_text("[experiment]\nmodel = cone\nmax_steps = 5\ntarget = 1.0 0.0\n" + lines,
                   encoding="utf-8")
    assert main(["run", str(cfg), "--out", str(tmp_path / "run")]) == 2
    assert f"{key} must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


INIT_DIST = ("model = cone\ntarget = 1.0 0.0\ninit_xi = {xi}\ninit_theta = -3.0 3.0\n"
             "init_count = {count}\ninit_seed = 0\n")


@pytest.mark.parametrize("lines, error", [
    ("model = both\neps = 0.1\ntarget = 1.0 0.0\ninit = 1e200 0.3\n", "non-finite loss"),
    ("model = hyperboloid\neps = 0.1\ntarget_surface = model\ntarget = 1e200 0\n"
     "init = 1.0 0.3\n", "target_mean must be a finite 3-vector"),
    ("model = cusp\neps = 1e9\ntarget = 1.0 0.0\n", "is not on the level set"),
    # would draw two 7.45 GiB arrays of initial points
    (INIT_DIST.format(xi="0.25 2.0", count=1_000_000_000),
     "raises.cfg:7: init_count must be between 1 and MAX_INIT_COUNT=10000, got 1000000000"),
    # rng.uniform would raise OverflowError: high - low range exceeds valid bounds
    (INIT_DIST.format(xi="-1e308 1e308", count=2),
     "raises.cfg:5: init_xi width hi - lo must be finite, got -1e+308 1e+308"),
], ids=["init overflows the loss", "target overflows the chart", "cusp level off its samples",
        "init_count above the cap", "init_xi width overflows"])
def test_run_that_raises_leaves_no_directory(capsys, tmp_path, lines, error):
    cfg = tmp_path / "raises.cfg"
    cfg.write_text("[experiment]\nmax_steps = 5\n" + lines, encoding="utf-8")
    assert main(["run", str(cfg), "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert error in err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("name", ["", ".", "..", "a/b", "a\\b", "ABSOLUTE"])
def test_run_with_a_name_that_is_not_one_directory_leaves_nothing(capsys, tmp_path,
                                                                  monkeypatch, name):
    # the default run directory is out/<name>; ABSOLUTE stands for a path under tmp_path
    name = str(tmp_path / "abs") if name == "ABSOLUTE" else name
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"[experiment]\nname = {name}\nmodel = cone\nmax_steps = 5\n"
                   "init = 1.2 0.3\ntarget = 1.0 0.0\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert main(["run", str(cfg)]) == 2
    assert f"{cfg}:2: name {name!r} must be one directory name" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["bad.cfg"]


def test_plot_from_run(capsys, tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("[experiment]\nmodel = cone\nmethod = gd\nmax_steps = 60\n"
                   "init = 1.2 0.3\ntarget = 1.0 0.0\n", encoding="utf-8")
    assert main(["run", str(cfg), "--out", str(tmp_path / "r")]) == 0
    rc = main(["plot", str(tmp_path / "r" / "traj_cone_000.csv"),
               "--kind", "loss_curves", "--out", str(tmp_path / "loss.svg")])
    assert rc == 0
    assert (tmp_path / "loss.svg").exists()


def test_plot_schema_error(capsys, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n", encoding="utf-8")
    rc = main(["plot", str(bad), "--kind", "loss_curves",
               "--out", str(tmp_path / "x.svg")])
    assert rc == 2
    assert not (tmp_path / "x.svg").exists()


def test_check_suite_passes(capsys):
    rc = main(["check"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("PASS") == 5
    assert "FAIL" not in out
    # the fifth check comes after the four whose draws it must not disturb:
    # 300 uncapped ngd_steps match lr * numpy's solve, also far from the apex
    line = out.splitlines()[4]
    prefix = "PASS  natural gradient steps vs numpy's solve  (max rel err "
    assert line.startswith(prefix) and line.endswith(")")
    assert float(line[len(prefix):-1]) < 1e-12


def _traj_row(step=0, mu2=-1.0, mu3=0.5, loss=0.5):
    return (step, 1.0, 3.0, 1.0, mu2, mu3, loss, 1.0)


def _write(path, fields, rows):
    return str(write_csv(path, fields, rows))


def _bad_trajectory_text(path):
    path.write_text(",".join(TRAJ_FIELDS) + "\n0,1,3,1,-1,0.5,0.5,1\n1,1,3,1,-1,0.5,abc,1\n",
                    encoding="utf-8")
    return str(path)


def _non_utf8_cell(path):
    path.write_bytes((",".join(TRAJ_FIELDS) + "\n0,1,3,1,-1,0.5,0.5,1\n").encode()
                     + b"1,1,3,1,-1,0.5,0.\xff5,1\n")
    return str(path)


def _short_trajectory_row(path):
    path.write_text(",".join(TRAJ_FIELDS) + "\n0,1,3,1,-1,0.5,0.5,1\n1,1,3,1,-1,0.5,0.5\n",
                    encoding="utf-8")
    return str(path)


def _short_target_row(path):
    path.write_text("surface,mu1,mu2,mu3\ncone,1,-1\n", encoding="utf-8")
    return str(path)


def _bad_quiver_status(path):
    path.write_text("level,x1,x2,gx,gy,status\n0,1,2,0.5,0.5,ok\n0,1,-1,0.5,0.5,maybe\n",
                    encoding="utf-8")
    return str(path)


def _non_utf8_target(path):
    path.write_bytes(b"surface,mu1,mu2,mu3\ncone,1,-1,0\nhyp\xe9rboloid,1,-1,0\n")
    return str(path)


def _non_utf8_quiver(path):
    path.write_bytes(b"level,x1,x2,gx,gy,status\n0,1,2,0.5,0.5,ok\n\n0,1,-1,0.5,0.5,\xffok\n")
    return str(path)


def _two_bad_target_rows(path):
    path.write_text("surface,mu1,mu2,mu3\ncone,1,abc,0\nhyperboloid,1\n", encoding="utf-8")
    return str(path)


def _short_target_after_blank_and_quoted_break(path):
    path.write_text('surface,mu1,mu2,mu3\n"co\nne",1,-1,0\n\ncone,1,-1\n', encoding="utf-8")
    return str(path)


def _non_utf8_undrawn_cell(path):
    path.write_bytes((",".join(TRAJ_FIELDS) + "\n0,1,3,1,-1,0.5,0.5,1\n").encode()
                     + b"1,\xff1,3,1,-1,0.5,0.5,1\n")
    return str(path)


BIG_CELL = "o" * 200_000  # over the csv module's 131,072-character field limit


def _big_quiver_status(path):
    path.write_text(f"level,x1,x2,gx,gy,status\n0,1,2,0.5,0.5,ok\n0,1,-1,0.5,0.5,{BIG_CELL}\n",
                    encoding="utf-8")
    return str(path)


def _big_target_cell(path):
    path.write_text(f"surface,mu1,mu2,mu3\n{BIG_CELL},1,-1,0\n", encoding="utf-8")
    return str(path)


def _big_trajectory_header(path):
    path.write_text(",".join(TRAJ_FIELDS + [BIG_CELL]) + "\n0,1,3,1,-1,0.5,0.5,1\n",
                    encoding="utf-8")
    return str(path)


# (kind, build the bad file, its line named in the error, other inputs)
BAD_PLOT_INPUTS = {
    "short trajectory row": ("loss_curves", _short_trajectory_row, 3, False),
    "short targets row": ("topview_trajectories", _short_target_row, 2, True),
    "non-numeric cell": ("loss_curves", _bad_trajectory_text, 3, False),
    "non-UTF-8 cell": ("loss_curves", _non_utf8_cell, 3, False),
    "inf loss": ("loss_curves", lambda p: _write(
        p, TRAJ_FIELDS, [_traj_row(), _traj_row(1, loss=math.inf)]), 3, False),
    "nan loss": ("loss_curves", lambda p: _write(
        p, TRAJ_FIELDS, [_traj_row(loss=math.nan)]), 2, False),
    "nan aggregate median": ("loss_curves", lambda p: _write(
        p, AGG_FIELDS, [(0, 1.0, 1.0), (1, 0.5, math.nan)]), 3, False),
    "nan mu2": ("topview_trajectories", lambda p: _write(
        p, TRAJ_FIELDS, [_traj_row(), _traj_row(1), _traj_row(2, mu2=math.nan)]), 4, False),
    "inf mu3": ("topview_trajectories", lambda p: _write(
        p, TRAJ_FIELDS, [_traj_row(mu3=-math.inf)]), 2, False),
    "nan target mu3": ("topview_trajectories", lambda p: _write(
        p, TARGET_FIELDS, [["cone", 1.0, -1.0, 0.0], ["hyperboloid", 1.0, -1.0, math.nan]]),
        3, True),
    "unknown quiver status": ("quiver", _bad_quiver_status, 3, False),
    "non-UTF-8 targets row": ("topview_trajectories", _non_utf8_target, 3, True),
    "non-UTF-8 quiver row": ("quiver", _non_utf8_quiver, 4, False),
    "short targets row after a blank line and a quoted line break": (
        "topview_trajectories", _short_target_after_blank_and_quoted_break, 5, True),
    "two bad targets rows, the first reported": (
        "topview_trajectories", _two_bad_target_rows, 2, True),
    "non-UTF-8 cell in a column not drawn": ("loss_curves", _non_utf8_undrawn_cell, 3, False),
    "oversized quiver cell": ("quiver", _big_quiver_status, 3, False),
    "oversized targets cell": ("topview_trajectories", _big_target_cell, 2, True),
    "oversized trajectory header cell": ("loss_curves", _big_trajectory_header, 1, False),
}


@pytest.mark.parametrize("case", sorted(BAD_PLOT_INPUTS))
def test_plot_rejects_malformed_rows(capsys, tmp_path, case):
    kind, build, line, needs_trajectory = BAD_PLOT_INPUTS[case]
    bad = build(tmp_path / "bad.csv")
    inputs = [bad]
    if needs_trajectory:
        inputs.insert(0, _write(tmp_path / "good.csv", TRAJ_FIELDS, [_traj_row()]))
    svg = tmp_path / "x.svg"
    rc = main(["plot", *inputs, "--kind", kind, "--out", str(svg)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"error: {bad}, line {line}: ")
    if case.startswith("oversized"):
        assert err.endswith(": field larger than field limit (131072)\n")
    assert not svg.exists()


def test_plot_reads_a_csv_that_starts_with_a_bom(tmp_path):
    svgs = {}
    for bom in (b"", codecs.BOM_UTF8):
        d = tmp_path / f"bom{len(bom)}"
        d.mkdir()
        traj = write_csv(d / "t.csv", TRAJ_FIELDS, [_traj_row(), _traj_row(1, -0.5, 0.25, 0.1)])
        targets = write_csv(d / "g.csv", TARGET_FIELDS, [["cone", 1.0, -1.0, 0.0]])
        for path in (traj, targets):
            path.write_bytes(bom + path.read_bytes())
        for kind, inputs in (("loss_curves", [traj]), ("topview_trajectories", [traj, targets])):
            svg = d / f"{kind}.svg"
            assert main(["plot", *map(str, inputs), "--kind", kind, "--out", str(svg)]) == 0
            svgs.setdefault(kind, []).append(svg.read_bytes())
    assert all(plain == with_bom for plain, with_bom in svgs.values())


def test_plot_header_only_csv_is_a_data_error(capsys, tmp_path, recwarn):
    empty = _write(tmp_path / "empty.csv", TRAJ_FIELDS, [])
    svg = tmp_path / "x.svg"
    assert main(["plot", empty, "--kind", "loss_curves", "--out", str(svg)]) == 2
    assert capsys.readouterr().err == f"error: {empty}: no data rows\n"
    assert not svg.exists()
    assert not recwarn.list


def test_python_dash_m_runs_the_cli(tmp_path):
    src = Path(stratopt.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])}
    done = subprocess.run([sys.executable, "-m", "stratopt", "stratify", "x0^2 - x1^2"],
                          capture_output=True, text=True, env=env, check=False)
    assert done.returncode == 0, done.stderr
    assert "singular points: 1" in done.stdout
