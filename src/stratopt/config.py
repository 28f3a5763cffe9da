"""Experiment configuration: a line-oriented ``key = value`` format.

One ``[experiment]`` section per file; ``#`` starts a comment; unknown keys
are hard errors.  The keys, their parsers and the echo all come from the
fields of ``ExperimentSpec``: each scalar field is one key, parsed by its
annotation, and ``init``/``target`` (chart points, or the ``init_*``
distribution keys, one per ``InitDistribution`` field) are the only keys
with their own syntax.
``format_config`` echoes every resolved setting in field order (defaults
included) under a version comment, and the echo parses back to an equal
spec, which is what makes the metadata file written next to each run
sufficient to reproduce it.
"""

from __future__ import annotations

import codecs
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

from .model import ChartPoint
from .optim import OptimizerConfig, SettingError, check_int_fields

ARTIFACT_VERSION = "stratopt 0.1.0"
# the chart surfaces each model runs on; the cusp runs on none (a quiver field)
SURFACES = {"cone": ("cone",), "hyperboloid": ("hyperboloid",),
            "both": ("cone", "hyperboloid"), "cusp": ()}
MODELS = tuple(SURFACES)
TARGET_SURFACES = ("cone", "model")
# most initial points an init_* distribution may draw: each is one trajectory,
# and the draw itself is two float64 arrays of init_count entries
MAX_INIT_COUNT = 10_000


class ConfigError(ValueError):
    def __init__(self, path, lineno, message):
        where = f"{path}:{lineno}: " if lineno else f"{path}: "
        super().__init__(where + message)
        self.path = path
        self.lineno = lineno


@dataclass(frozen=True)
class InitDistribution:
    """Uniform initialization box with a fixed draw count and seed."""

    xi_range: tuple[float, float]
    theta_range: tuple[float, float]
    count: int
    seed: int

    def __post_init__(self):
        check_int_fields(self, prefix="init_")
        if not 1 <= self.count <= MAX_INIT_COUNT:
            raise SettingError("init_count", f"init_count must be between 1 and "
                               f"MAX_INIT_COUNT={MAX_INIT_COUNT}, got {self.count}")
        if self.seed < 0:
            raise SettingError("init_seed", "init_seed must be >= 0")
        for key, (lo, hi) in (("init_xi", self.xi_range), ("init_theta", self.theta_range)):
            if not lo < hi:
                raise SettingError(key, f"{key} must satisfy lo < hi, got {lo!r} {hi!r}")
            if not math.isfinite(hi - lo):  # as a Region's width: rng.uniform needs it finite
                raise SettingError(key, f"{key} width hi - lo must be finite, got {lo!r} {hi!r}")


@dataclass(frozen=True)
class ExperimentSpec(OptimizerConfig):
    """An experiment: the optimizer settings it inherits plus what to run them on."""

    name: str = "experiment"
    model: str = "cone"
    eps: float = 0.0
    init: tuple[ChartPoint, ...] | InitDistribution = field(default=())
    target: ChartPoint | None = None
    target_surface: str = "cone"
    output_dir: str | None = None

    def __post_init__(self):
        if not isinstance(self.init, InitDistribution):  # a list of points echoes as a tuple
            object.__setattr__(self, "init", tuple(self.init or ()))
        for key in ("name", "output_dir"):
            text = getattr(self, key)
            if text is not None and ("#" in text or text != text.strip()
                                     or len(text.splitlines()) > 1):
                raise SettingError(key, f"{key} {text!r} would not survive the metadata "
                                   "echo: no '#', line breaks, or leading or trailing spaces")
        if self.name in ("", ".", "..") or "/" in self.name or "\\" in self.name:
            raise SettingError("name", f"name {self.name!r} must be one directory name, "
                               "since the run directory is out/<name>: not empty, '.' or "
                               "'..', and no '/' or '\\'")
        if self.model not in MODELS:
            raise SettingError("model", f"model must be one of {MODELS}, got {self.model!r}")
        if self.target_surface not in TARGET_SURFACES:
            raise SettingError("target_surface", f"target_surface must be one of "
                               f"{TARGET_SURFACES}, got {self.target_surface!r}")
        super().__post_init__()  # rejects bad optimizer settings here, where the spec enters
        if self.target is None:
            raise SettingError("target", "target is required")
        if self.model != "cone" and not self.eps > 0:  # every other model deforms
            raise SettingError("eps", f"model={self.model} requires eps > 0")
        if SURFACES[self.model] and not self.init:  # an empty init echoes no line
            raise SettingError("init", "init is required (fixed chart point(s) or a "
                               "distribution)")


def _parse_float(path, lineno, key, text) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(path, lineno, f"malformed number {text!r} for key {key!r}") from None
    if not math.isfinite(value):
        raise ConfigError(path, lineno, f"non-finite number {text!r} for key {key!r}")
    return value


def _parse_int(path, lineno, key, text) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(path, lineno, f"malformed integer {text!r} for key {key!r}") from None


def _parse_pair(path, lineno, key, text) -> tuple[float, float]:
    parts = text.replace(",", " ").split()
    if len(parts) != 2:
        raise ConfigError(path, lineno, f"key {key!r} needs two numbers, got {text!r}")
    return (_parse_float(path, lineno, key, parts[0]),
            _parse_float(path, lineno, key, parts[1]))


def _parse_text(path, lineno, key, text) -> str:
    return text


# one key per scalar field, parsed by its annotation; an annotation missing
# here fails at import
_PARSERS = {"str": _parse_text, "str | None": _parse_text, "float": _parse_float,
            "int": _parse_int, "tuple[float, float]": _parse_pair}
_SCALAR_KEYS = {f.name: _PARSERS[f.type] for f in fields(ExperimentSpec)
                if f.name not in ("init", "target")}
# one init_* key per InitDistribution field: init_ and the name without _range
_DIST_KEYS = {"init_" + f.name.removesuffix("_range"): (f.name, _PARSERS[f.type])
              for f in fields(InitDistribution)}
KNOWN_KEYS = _SCALAR_KEYS.keys() | {"init", "target"} | _DIST_KEYS.keys()


def load_config(path) -> ExperimentSpec:
    """Parse an experiment file, UTF-8 with or without a BOM; errors carry
    the offending line number.

    A setting the spec rejects is reported at the line of its key; a key the
    file omits (a required ``target`` or ``init``, or the ``eps`` a model
    needs) has no line.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise ConfigError(path, 0, f"cannot read config: {exc}") from None
    # cut from the bytes: decoding with utf-8-sig would give an exc.start
    # 3 bytes short of its place in data
    data = data.removeprefix(codecs.BOM_UTF8)
    try:
        lines = data.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:  # reported at the line of the first bad byte
        raise ConfigError(path, data.count(b"\n", 0, exc.start) + 1,
                          f"not UTF-8: byte {data[exc.start]:#04x} ({exc.reason})") from None
    raw: dict[str, tuple[str, int]] = {}
    in_section = False
    for lineno, line in enumerate(lines, 1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if text.startswith("["):
            if text != "[experiment]":
                raise ConfigError(path, lineno, f"unknown section {text!r}")
            if in_section:
                raise ConfigError(path, lineno, "duplicate [experiment] section")
            in_section = True
            continue
        if not in_section:
            raise ConfigError(path, lineno, "settings must follow an [experiment] section")
        key, sep, value = text.partition("=")
        if not sep:
            raise ConfigError(path, lineno, f"expected 'key = value', got {text!r}")
        key, value = key.strip(), value.strip()
        if key not in KNOWN_KEYS:
            raise ConfigError(path, lineno, f"unknown key {key!r}")
        if key in raw:
            raise ConfigError(path, lineno, f"duplicate key {key!r}")
        raw[key] = (value, lineno)
    if not in_section:
        raise ConfigError(path, 0, "missing [experiment] section")

    kwargs: dict = {key: _SCALAR_KEYS[key](path, lineno, key, value)
                    for key, (value, lineno) in raw.items() if key in _SCALAR_KEYS}
    if "target" in raw:
        xi, theta = _parse_pair(path, raw["target"][1], "target", raw["target"][0])
        kwargs["target"] = ChartPoint(xi, theta)

    dist_keys = [key for key in raw if key in _DIST_KEYS]
    if "init" in raw and dist_keys:
        raise ConfigError(path, raw["init"][1],
                          "give either fixed init points or an init_* distribution, not both")
    if "init" in raw:
        value, lineno = raw["init"]
        points = []
        for chunk in value.split(";"):
            chunk = chunk.strip()
            if not chunk:
                raise ConfigError(path, lineno, "empty init point")
            xi, theta = _parse_pair(path, lineno, "init", chunk)
            points.append(ChartPoint(xi, theta))
        kwargs["init"] = tuple(points)
    elif dist_keys:
        missing = _DIST_KEYS.keys() - raw.keys()
        if missing:  # reported at the first init_* line
            raise ConfigError(path, raw[dist_keys[0]][1],
                              f"init distribution needs {sorted(missing)} as well")
        dist = {name: parse(path, raw[key][1], key, raw[key][0])
                for key, (name, parse) in _DIST_KEYS.items()}
        try:
            kwargs["init"] = InitDistribution(**dist)
        except SettingError as exc:
            raise ConfigError(path, raw[exc.key][1], str(exc)) from None
    try:
        return ExperimentSpec(**kwargs)
    except SettingError as exc:  # reported at the line of its key, if the file sets it
        raise ConfigError(path, raw.get(exc.key, ("", 0))[1], str(exc)) from None


def format_config(spec: ExperimentSpec) -> str:
    """Full echo of a spec under a version comment, defaults included; parses
    back to an equal spec."""
    lines = [f"# {ARTIFACT_VERSION} experiment echo", "[experiment]"]
    for f in fields(spec):
        value = getattr(spec, f.name)
        if isinstance(value, InitDistribution):
            for key, (name, _) in _DIST_KEYS.items():
                v = getattr(value, name)  # a (lo, hi) range or an integer
                lines.append(f"{key} = " + (" ".join(map(repr, v)) if isinstance(v, tuple)
                                            else str(v)))
        elif f.name == "init":
            if value:
                lines.append("init = " + "; ".join(f"{q.xi!r} {q.theta!r}" for q in value))
        elif f.name == "target":
            lines.append(f"target = {value.xi!r} {value.theta!r}")
        elif value is not None:  # output_dir = None is the default out/<name>
            lines.append(f"{f.name} = {value!r}" if isinstance(value, float)
                         else f"{f.name} = {value}")
    return "\n".join(lines) + "\n"
