import codecs
import math
import re
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from stratopt.config import (MAX_INIT_COUNT, MODELS, TARGET_SURFACES, ConfigError,
                             ExperimentSpec, InitDistribution, format_config, load_config)
from stratopt.model import ChartPoint
from stratopt.optim import OptimizerConfig, SettingError
from stratopt.presets import PRESET_NAMES, preset

MINIMAL = """\
[experiment]
model = cone
method = gd
target = 1.0 0.0
init = 0.5 2.0
"""


def write(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_config_with_a_utf8_bom_loads_as_without(tmp_path):
    bom = tmp_path / "bom.cfg"
    bom.write_bytes(codecs.BOM_UTF8 + MINIMAL.encode())
    assert load_config(bom) == load_config(write(tmp_path, MINIMAL))


def test_bad_byte_after_a_bom_is_reported_at_its_line(tmp_path):
    bom = tmp_path / "bom.cfg"
    bom.write_bytes(codecs.BOM_UTF8 + b"[experiment]\nmodel = cone\nname = caf\xe9\n")
    with pytest.raises(ConfigError, match=r"bom\.cfg:3: not UTF-8: byte 0xe9"):
        load_config(bom)


def test_minimal_config_gets_defaults(tmp_path):
    spec = load_config(write(tmp_path, MINIMAL))
    assert spec.model == "cone"
    assert spec.step_size == 0.01
    assert spec.max_steps == 100_000
    assert spec.damping == 1e-8
    assert spec.mode == "population"
    assert spec.target == ChartPoint(1.0, 0.0)
    assert spec.init == (ChartPoint(0.5, 2.0),)
    assert spec.target_surface == "cone"


def test_unknown_key_is_a_hard_error(tmp_path):
    path = write(tmp_path, MINIMAL + "learning_rate = 0.1\n")
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert "unknown key" in str(err.value)
    assert ":6:" in str(err.value)


def test_malformed_number_names_the_line(tmp_path):
    path = write(tmp_path, "[experiment]\nmodel = cone\nstep_size = fast\n"
                           "target = 1 0\ninit = 1 0\n")
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert ":3:" in str(err.value)
    assert "malformed number" in str(err.value)


def test_hyperboloid_requires_eps(tmp_path):
    path = write(tmp_path, "[experiment]\nmodel = hyperboloid\nmethod = gd\n"
                           "target = 1 0\ninit = 1 0\n")
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert "eps" in str(err.value)
    assert str(err.value).startswith(f"{path}: ")  # the file sets no eps line


def test_duplicate_key_rejected(tmp_path):
    path = write(tmp_path, MINIMAL + "model = both\n")
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert "duplicate key" in str(err.value)


def test_missing_section_rejected(tmp_path):
    path = write(tmp_path, "model = cone\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_comments_and_blank_lines_ignored(tmp_path):
    text = "# leading comment\n\n[experiment]\nmodel = cone  # trailing\n" \
           "method = gd\ntarget = 1 0\ninit = 1 0\n"
    spec = load_config(write(tmp_path, text))
    assert spec.model == "cone"


def test_fixed_init_and_distribution_conflict(tmp_path):
    text = MINIMAL + "init_xi = 0 1\ninit_theta = 0 1\ninit_count = 3\ninit_seed = 1\n"
    with pytest.raises(ConfigError) as err:
        load_config(write(tmp_path, text))
    assert "not both" in str(err.value)


def test_distribution_needs_all_fields(tmp_path):
    text = "[experiment]\nmodel = cone\ntarget = 1 0\ninit_xi = 0 1\ninit_count = 3\n"
    with pytest.raises(ConfigError) as err:
        load_config(write(tmp_path, text))
    assert "init" in str(err.value)


def test_multiple_fixed_inits(tmp_path):
    text = "[experiment]\nmodel = cone\ntarget = 1 0\ninit = 1 0; 2 1; 0.5 -0.25\n"
    spec = load_config(write(tmp_path, text))
    assert len(spec.init) == 3
    assert spec.init[2] == ChartPoint(0.5, -0.25)


def test_distribution_round_trip(tmp_path):
    spec = ExperimentSpec(
        name="sweep", model="both", eps=0.05,
        init=InitDistribution((0.25, 2.0), (-math.pi, math.pi), 20, 7),
        target=ChartPoint(1.0, 0.0),
    )
    path = write(tmp_path, format_config(spec))
    assert load_config(path) == spec


def test_format_parses_back_for_all_presets(tmp_path):
    for name in PRESET_NAMES:
        spec = preset(name)
        path = write(tmp_path, format_config(spec), name + ".cfg")
        assert load_config(path) == spec


def test_optimizer_config_mapping(tmp_path):
    text = ("[experiment]\nmodel = cone\nmethod = ngd\ntarget = 1 0\ninit = 1 0\n"
            "damping = 0.5\nmode = stochastic\nbatch = 4\n")
    spec = load_config(write(tmp_path, text))
    assert isinstance(spec, OptimizerConfig)  # optim.run takes the spec itself
    assert spec.method == "ngd"
    assert spec.mode == "stochastic"
    assert spec.damping == 0.5
    assert spec.batch == 4


def test_default_spec_has_the_default_optimizer_config():
    spec = ExperimentSpec(target=ChartPoint(1, 0), init=(ChartPoint(1, 0),))
    default = OptimizerConfig()
    for f in fields(OptimizerConfig):
        assert getattr(spec, f.name) == getattr(default, f.name), f.name


def test_spec_declares_only_its_experiment_fields():
    own = ["name", "model", "eps", "init", "target", "target_surface", "output_dir"]
    assert issubclass(ExperimentSpec, OptimizerConfig)
    assert list(ExperimentSpec.__annotations__) == own
    assert [f.name for f in fields(ExperimentSpec)] == \
        [f.name for f in fields(OptimizerConfig)] + own


# a metadata.cfg echo in the older field order: name, model and eps first
OLDER_ORDER_ECHO = """\
# stratopt 0.1.0 experiment echo
[experiment]
name = fig5b-ngd
model = both
eps = 0.05
method = ngd
step_size = 0.02
max_steps = 5000
grad_tol = 1e-10
loss_tol = 1e-08
damping = 1e-08
step_cap = 1.0
mode = population
batch = 16
sample_seed = 0
record_every = 10
init_xi = 0.25 2.0
init_theta = -3.141592653589793 3.141592653589793
init_count = 20
init_seed = 20260505
target = 1.0 0.0
target_surface = cone
"""


def test_older_order_echo_loads_to_an_equal_spec(tmp_path):
    spec = load_config(write(tmp_path, OLDER_ORDER_ECHO))
    assert spec == preset("fig5b-ngd")
    # the echo of today holds the same lines; name, model and eps now follow
    # the optimizer settings
    echo = format_config(spec).splitlines()
    assert sorted(echo) == sorted(OLDER_ORDER_ECHO.splitlines())
    assert echo.index("name = fig5b-ngd") == echo.index("record_every = 10") + 1


finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
points = st.builds(ChartPoint, finite, finite)
# text the echo carries: no '#', no line breaks (Cc, Zl, Zp), no edge spaces
echo_text = st.text(st.characters(blacklist_categories=("Cs", "Cc", "Zl", "Zp"),
                                  blacklist_characters="#"),
                    max_size=12).filter(lambda text: text == text.strip())
# a name the run directory out/<name> can take: one directory name
dir_name = echo_text.filter(lambda text: text not in ("", ".", "..")
                            and "/" not in text and "\\" not in text)


@st.composite
def ranges(draw):
    # the width hi - lo must be finite, as a Region's
    lo, hi = sorted(draw(st.lists(finite, min_size=2, max_size=2, unique=True)
                         .filter(lambda ends: math.isfinite(ends[1] - ends[0]))))
    return (lo, hi)


@st.composite
def specs(draw):
    model = draw(st.sampled_from(MODELS))
    init = draw(st.one_of(
        st.lists(points, min_size=0 if model == "cusp" else 1, max_size=3).map(tuple),
        st.builds(InitDistribution, ranges(), ranges(), st.integers(1, MAX_INIT_COUNT),
                  st.integers(0, 10 ** 12)),
    ))
    return ExperimentSpec(
        name=draw(dir_name), model=model, eps=draw(positive if model != "cone" else finite),
        method=draw(st.sampled_from(["gd", "ngd"])), step_size=draw(positive),
        max_steps=draw(st.integers(0, 10 ** 9)), grad_tol=draw(finite),
        loss_tol=draw(finite), damping=draw(st.floats(0.0, allow_infinity=False)),
        step_cap=draw(positive), mode=draw(st.sampled_from(["population", "stochastic"])),
        batch=draw(st.integers(1, 4096)), sample_seed=draw(st.integers(0, 10 ** 12)),
        record_every=draw(st.integers(1, 10 ** 6)), init=init, target=draw(points),
        target_surface=draw(st.sampled_from(TARGET_SURFACES)),
        output_dir=draw(st.none() | echo_text),
    )


@settings(max_examples=100, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(specs())
def test_echo_parses_back_to_an_equal_spec(tmp_path, spec):
    assert load_config(write(tmp_path, format_config(spec))) == spec


EXAMPLE = Path(__file__).resolve().parents[1] / "docs" / "example_experiment.cfg"


def line_of(text, key):
    """The 1-based line of the setting ``key`` in config ``text``."""
    return next(n for n, line in enumerate(text.splitlines(), 1)
                if line.partition("=")[0].strip() == key)


@pytest.mark.parametrize("key, value", [
    ("step_size", "0"),
    ("step_size", "inf"),
    ("step_cap", "inf"),
    ("loss_tol", "nan"),
    ("grad_tol", "-inf"),
    ("damping", "inf"),  # rejected although the example uses method = gd
    ("method", "sgd"),
    ("mode", "online"),
    ("max_steps", "-1"),
    ("record_every", "0"),
    ("model", "plane"),
    ("eps", "0"),
    ("target_surface", "sphere"),
])
def test_bad_optimizer_settings_rejected_at_load(tmp_path, key, value):
    text, n = re.subn(rf"^{key} = \S+", f"{key} = {value}",
                      EXAMPLE.read_text(encoding="utf-8"), flags=re.M)
    assert n == 1
    path = write(tmp_path, text)
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert str(err.value).startswith(f"{path}:{line_of(text, key)}: ")
    assert key in str(err.value)


SEEDED = """\
[experiment]
model = cone
mode = stochastic
sample_seed = 3
target = 1.0 0.0
init_xi = 0.25 2.0
init_theta = -3.0 3.0
init_count = 2
init_seed = 7
"""


def test_stochastic_batch_is_capped_at_load(tmp_path):
    # a third of optim.BLOCK_NORMALS: one batch mean per block of normals
    assert load_config(write(tmp_path, SEEDED + "batch = 4096\n")).batch == 4096
    path = write(tmp_path, SEEDED + "batch = 4097\n")
    with pytest.raises(ConfigError, match="batch 4097") as err:
        load_config(path)
    assert str(err.value).startswith(f"{path}:10: ")


@pytest.mark.parametrize("key", ["sample_seed", "init_seed"])
def test_negative_seeds_rejected_at_load(tmp_path, key):
    assert load_config(write(tmp_path, SEEDED)).sample_seed == 3
    text, n = re.subn(rf"^{key} = \S+", f"{key} = -1", SEEDED, flags=re.M)
    assert n == 1
    path = write(tmp_path, text)
    with pytest.raises(ConfigError, match=key) as err:
        load_config(path)
    assert str(err.value).startswith(f"{path}:{line_of(text, key)}: ")


@pytest.mark.parametrize("key, value", [
    ("name", "a#b"),
    ("name", "a\nb"),
    ("name", " a"),
    ("name", "a "),
    ("output_dir", "out#1"),
    ("output_dir", "out/a\r"),
])
def test_text_the_echo_cannot_carry_is_rejected(key, value):
    # format_config would write it, but it would not load back the same
    with pytest.raises(ValueError, match=key):
        ExperimentSpec(target=ChartPoint(1, 0), init=(ChartPoint(1, 0),), **{key: value})


def test_inner_spaces_survive_the_echo(tmp_path):
    spec = ExperimentSpec(name="my run", output_dir="out/my run",
                          target=ChartPoint(1, 0), init=(ChartPoint(1, 0),))
    assert load_config(write(tmp_path, format_config(spec))) == spec


@pytest.mark.parametrize("line", [
    "target = nan 0",
    "init = 1 0; 0.5 nan",
    "eps = inf",
])
def test_non_finite_numbers_name_the_line(tmp_path, line):
    key = line.split()[0]
    text = re.sub(rf"^{key} = .*$", line, MINIMAL, flags=re.M)
    if key not in MINIMAL:
        text += line + "\n"
    lineno = text.splitlines().index(line) + 1
    with pytest.raises(ConfigError) as err:
        load_config(write(tmp_path, text))
    assert f":{lineno}:" in str(err.value)
    assert key in str(err.value)


def test_bad_init_distribution_names_a_line(tmp_path):
    text = ("[experiment]\nmodel = cone\ntarget = 1 0\n"
            "init_xi = 1 0\ninit_theta = 0 1\ninit_count = 3\ninit_seed = 1\n")
    with pytest.raises(ConfigError) as err:
        load_config(write(tmp_path, text))
    assert ":4:" in str(err.value)


def test_spec_invariants():
    with pytest.raises(ValueError):
        ExperimentSpec(model="flat", target=ChartPoint(0, 0), init=(ChartPoint(1, 0),))
    with pytest.raises(ValueError):
        ExperimentSpec(model="cone", target=ChartPoint(0, 0))  # init required
    with pytest.raises(ValueError):
        ExperimentSpec(model="cone", init=(ChartPoint(1, 0),))  # target required
    with pytest.raises(ValueError):
        InitDistribution((1.0, 0.0), (0.0, 1.0), 5, 0)
    with pytest.raises(ValueError):
        InitDistribution((0.0, 1.0), (0.0, 1.0), 0, 0)
    InitDistribution((0.0, 1.0), (0.0, 1.0), MAX_INIT_COUNT, 0)
    with pytest.raises(ValueError, match="init_count"):
        InitDistribution((0.0, 1.0), (0.0, 1.0), MAX_INIT_COUNT + 1, 0)
    with pytest.raises(ValueError, match="init_theta width"):  # finite ends, infinite width
        InitDistribution((0.0, 1.0), (-1e308, 1e308), 5, 0)


@pytest.mark.parametrize("eps", [math.inf, -math.inf, math.nan])
def test_non_finite_eps_is_rejected_where_the_spec_enters(eps):
    # the echo would write 'eps = inf', which load_config rejects
    with pytest.raises(SettingError, match="eps must be finite") as err:
        ExperimentSpec(model="cone", eps=eps, target=ChartPoint(1, 0), init=(ChartPoint(1, 0),))
    assert err.value.key == "eps"


@pytest.mark.parametrize("model", MODELS)
def test_only_the_cone_runs_undeformed_and_only_the_cusp_without_init(model):
    undeformed = dict(model=model, eps=0.0, target=ChartPoint(1, 0), init=(ChartPoint(1, 0),))
    if model == "cone":
        ExperimentSpec(**undeformed)
    else:
        with pytest.raises(SettingError, match=f"model={model} requires eps > 0"):
            ExperimentSpec(**undeformed)
    no_init = dict(model=model, eps=0.1, target=ChartPoint(1, 0))
    if model == "cusp":
        ExperimentSpec(**no_init)
    else:
        with pytest.raises(SettingError, match="init is required"):
            ExperimentSpec(**no_init)


@pytest.mark.parametrize("init", [(), [], None])
def test_missing_init_is_rejected_in_every_empty_form(init):
    # the echo writes no init line for any of them, and that echo cannot load
    with pytest.raises(SettingError, match="init is required") as err:
        ExperimentSpec(model="cone", target=ChartPoint(1, 0), init=init)
    assert err.value.key == "init"


def test_unknown_preset():
    with pytest.raises(KeyError):
        preset("fig9")


def test_preset_shapes():
    assert preset("fig5a").model == "both"
    assert len(preset("fig5a").init) == 3
    assert preset("fig5b-ngd").method == "ngd"
    assert preset("fig5b-ngd").init.count == 20
    assert preset("fig6-cone").model == "cone"
    assert preset("fig6-hyp").target_surface == "model"
    assert preset("fig1-cusp").model == "cusp"
