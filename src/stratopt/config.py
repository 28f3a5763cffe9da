"""Experiment configuration: a line-oriented ``key = value`` format.

One ``[experiment]`` section per file; ``#`` starts a comment; unknown keys
are hard errors.  ``format_config`` echoes every resolved setting (defaults
included), and the echo parses back to an equal spec, which is what makes
the metadata file written next to each run sufficient to reproduce it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

from .model import ChartPoint
from .optim import OptimizerConfig

MODELS = ("cone", "hyperboloid", "both", "cusp")
TARGET_SURFACES = ("cone", "model")


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
        if self.count < 1:
            raise ValueError("init_count must be >= 1")
        if not (self.xi_range[0] < self.xi_range[1]
                and self.theta_range[0] < self.theta_range[1]):
            raise ValueError("init ranges must satisfy lo < hi")


@dataclass(frozen=True)
class ExperimentSpec:
    name: str = "experiment"
    model: str = "cone"
    eps: float = 0.0
    method: str = "gd"
    step_size: float = 0.01
    max_steps: int = 100_000
    grad_tol: float = 1e-10
    loss_tol: float = 1e-10
    damping: float = 1e-8
    step_cap: float = 1.0
    mode: str = "population"
    batch: int = 16
    sample_seed: int = 0
    record_every: int = 1
    init: tuple[ChartPoint, ...] | InitDistribution = field(default=())
    target: ChartPoint | None = None
    target_surface: str = "cone"
    output_dir: str | None = None

    def __post_init__(self):
        for key in ("name", "output_dir"):
            text = getattr(self, key)
            if text is not None and ("#" in text or text != text.strip()
                                     or len(text.splitlines()) > 1):
                raise ValueError(f"{key} {text!r} would not survive the metadata echo: "
                                 "no '#', line breaks, or leading or trailing spaces")
        if self.model not in MODELS:
            raise ValueError(f"model must be one of {MODELS}, got {self.model!r}")
        if self.target_surface not in TARGET_SURFACES:
            raise ValueError(f"target_surface must be one of {TARGET_SURFACES}")
        self.optimizer_config()  # rejects bad optimizer settings here, where the spec enters
        if self.target is None:
            raise ValueError("target is required")
        if self.model in ("hyperboloid", "both", "cusp") and not self.eps > 0:
            raise ValueError(f"model={self.model} requires eps > 0")
        if self.model != "cusp":
            if isinstance(self.init, tuple) and len(self.init) == 0:
                raise ValueError("init is required (fixed chart point(s) or a distribution)")

    def optimizer_config(self) -> OptimizerConfig:
        return OptimizerConfig(
            method=self.method,
            step_size=self.step_size,
            max_steps=self.max_steps,
            grad_tol=self.grad_tol,
            loss_tol=self.loss_tol,
            damping=self.damping,
            step_cap=self.step_cap,
            mode=self.mode,
            batch=self.batch,
            sample_seed=self.sample_seed,
            record_every=self.record_every,
        )


_STR_KEYS = {"name", "model", "method", "mode", "target_surface", "output_dir"}
_FLOAT_KEYS = {"eps", "step_size", "grad_tol", "loss_tol", "damping", "step_cap"}
_INT_KEYS = {"max_steps", "batch", "sample_seed", "record_every", "init_count", "init_seed"}
_PAIR_KEYS = {"target", "init_xi", "init_theta"}
KNOWN_KEYS = _STR_KEYS | _FLOAT_KEYS | _INT_KEYS | _PAIR_KEYS | {"init"}


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


def load_config(path) -> ExperimentSpec:
    """Parse an experiment file; errors carry the offending line number."""
    path = Path(path)
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise ConfigError(path, 0, f"cannot read config: {exc}") from None
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

    kwargs: dict = {}
    for key in _STR_KEYS & raw.keys():
        kwargs[key] = raw[key][0]
    for key in _FLOAT_KEYS & raw.keys():
        kwargs[key] = _parse_float(path, raw[key][1], key, raw[key][0])
    for key in (_INT_KEYS - {"init_count", "init_seed"}) & raw.keys():
        kwargs[key] = _parse_int(path, raw[key][1], key, raw[key][0])
    if "target" in raw:
        xi, theta = _parse_pair(path, raw["target"][1], "target", raw["target"][0])
        kwargs["target"] = ChartPoint(xi, theta)

    dist_keys = {"init_xi", "init_theta", "init_count", "init_seed"} & raw.keys()
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
        missing = {"init_xi", "init_theta", "init_count", "init_seed"} - dist_keys
        if missing:
            any_line = raw[next(iter(dist_keys))][1]
            raise ConfigError(path, any_line,
                              f"init distribution needs {sorted(missing)} as well")
        xi_range = _parse_pair(path, raw["init_xi"][1], "init_xi", raw["init_xi"][0])
        theta_range = _parse_pair(path, raw["init_theta"][1], "init_theta", raw["init_theta"][0])
        count = _parse_int(path, raw["init_count"][1], "init_count", raw["init_count"][0])
        seed = _parse_int(path, raw["init_seed"][1], "init_seed", raw["init_seed"][0])
        try:
            kwargs["init"] = InitDistribution(xi_range, theta_range, count, seed)
        except ValueError as exc:  # reported at the first init_* line
            raise ConfigError(path, min(raw[key][1] for key in dist_keys), str(exc)) from None
    try:
        return ExperimentSpec(**kwargs)
    except ValueError as exc:
        raise ConfigError(path, 0, str(exc)) from None


def format_config(spec: ExperimentSpec, header_comment: str | None = None) -> str:
    """Full echo of a spec, defaults included; parses back to an equal spec."""
    lines = []
    if header_comment:
        for piece in header_comment.splitlines():
            lines.append(f"# {piece}")
    lines.append("[experiment]")
    lines.append(f"name = {spec.name}")
    lines.append(f"model = {spec.model}")
    lines.append(f"eps = {spec.eps!r}")
    lines.append(f"method = {spec.method}")
    lines.append(f"step_size = {spec.step_size!r}")
    lines.append(f"max_steps = {spec.max_steps}")
    lines.append(f"grad_tol = {spec.grad_tol!r}")
    lines.append(f"loss_tol = {spec.loss_tol!r}")
    lines.append(f"damping = {spec.damping!r}")
    lines.append(f"step_cap = {spec.step_cap!r}")
    lines.append(f"mode = {spec.mode}")
    lines.append(f"batch = {spec.batch}")
    lines.append(f"sample_seed = {spec.sample_seed}")
    lines.append(f"record_every = {spec.record_every}")
    if isinstance(spec.init, InitDistribution):
        lines.append(f"init_xi = {spec.init.xi_range[0]!r} {spec.init.xi_range[1]!r}")
        lines.append(f"init_theta = {spec.init.theta_range[0]!r} {spec.init.theta_range[1]!r}")
        lines.append(f"init_count = {spec.init.count}")
        lines.append(f"init_seed = {spec.init.seed}")
    elif spec.init:
        joined = "; ".join(f"{q.xi!r} {q.theta!r}" for q in spec.init)
        lines.append(f"init = {joined}")
    lines.append(f"target = {spec.target.xi!r} {spec.target.theta!r}")
    lines.append(f"target_surface = {spec.target_surface}")
    if spec.output_dir is not None:
        lines.append(f"output_dir = {spec.output_dir}")
    return "\n".join(lines) + "\n"
