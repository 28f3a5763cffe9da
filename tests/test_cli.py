import pytest

from stratopt import cli, resolve
from stratopt.cli import main
from stratopt.tables import read_csv

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
    monkeypatch.setattr(cli, "count_components", counted)
    assert main(["resolve", CONE_TEXT, "--eps", "0.1", "--grid-n", "32"]) == 0
    assert calls == [0.1, -0.1]
    assert "chosen level: +0.1" in capsys.readouterr().out


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
    assert out.count("PASS") == 4
    assert "FAIL" not in out
