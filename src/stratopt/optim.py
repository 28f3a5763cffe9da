"""Gradient descent and natural gradient descent in chart coordinates.

Both methods iterate q <- q - lr * d with d the gradient (GD) or the
damped-information-preconditioned gradient (NGD); the update vector is
norm-capped so the degenerate information matrix near the cone apex cannot
launch unbounded angular steps.  A trajectory is a list of flat rows in
``tables.TRAJ_FIELDS`` order (step, xi, theta, mu1, mu2, mu3, loss,
grad_norm), so ``np.array(traj.records)`` is its CSV table, plus a
termination reason.  The step is float arithmetic on one ``Chart.local``
call per step: its ambient point and whole 3x2 Jacobian give the recorded
loss and gradient (``model.chain_rule``), the NGD matrix J^T J
(``model.information``) and the update.  Stochastic mode descends toward a
fresh batch mean each step, while the recorded loss and gradient stay
population quantities.  The noise of those means is one seeded stream per
``(sample_seed, batch)``, drawn in blocks in the same order as one draw per
step; it is cached and shared read-only by every trajectory of an experiment,
and each trajectory adds its own target mean.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from .model import ChartPoint, GaussianLocationModel, chain_rule, information
from .tables import TrajectoryRecord

EPS = float(np.finfo(float).eps)
BLOCK_NORMALS = 12_288  # standard normals per block of stochastic batch means
STALL_WINDOW = 100  # consecutive records in a stall window
STALL_PLATEAU_TOL = 1e-5  # mean relative loss decrease below which a window stalls
METHODS = ("gd", "ngd")
MODES = ("population", "stochastic")


class Termination(enum.Enum):
    GRAD_TOL = "grad_tol"
    LOSS_TOL = "loss_tol"
    MAX_STEPS = "max_steps"
    FAILED = "failed"


class SingularFIMError(RuntimeError):
    """Undamped information matrix is singular to machine precision."""


class NonFiniteStepError(RuntimeError):
    """An update produced a non-finite iterate."""


class SettingError(ValueError):
    """A setting outside its domain; ``key`` names it as a config key."""

    def __init__(self, key: str, message: str):
        super().__init__(message)
        self.key = key


def check_int_fields(obj, prefix: str = ""):
    """Raise ``SettingError`` (key ``prefix`` + field name) at the first
    ``int`` field of the dataclass ``obj`` that holds no integer whose echo
    loads back as itself: any ``numbers.Integral`` (numpy integers too)
    passes, a ``bool`` does not."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if f.type == "int" and (isinstance(value, bool)
                                or not isinstance(value, numbers.Integral)):
            raise SettingError(prefix + f.name, f"{prefix}{f.name} must be an integer, "
                               f"got {value!r}")


@dataclass(frozen=True)
class OptimizerConfig:
    method: str = "gd"
    step_size: float = 0.01
    max_steps: int = 100_000
    grad_tol: float = 1e-10
    loss_tol: float = 1e-10
    damping: float = 1e-8        # NGD only
    step_cap: float = 1.0
    mode: str = "population"
    batch: int = 16              # stochastic only
    sample_seed: int = 0         # stochastic only
    record_every: int = 1

    def __post_init__(self):
        for name, allowed in (("method", METHODS), ("mode", MODES)):
            if getattr(self, name) not in allowed:
                raise SettingError(name, f"{name} must be one of {allowed}, "
                                   f"got {getattr(self, name)!r}")
        for f in fields(self):  # every float field, a subclass's eps too
            value = getattr(self, f.name)
            if f.type == "float" and not math.isfinite(value):
                raise SettingError(f.name, f"{f.name} must be finite, got {value}")
        check_int_fields(self)
        for name in ("step_size", "step_cap"):
            if not getattr(self, name) > 0:
                raise SettingError(name, f"{name} must be positive")
        if self.damping < 0:
            raise SettingError("damping", "damping must be >= 0")
        for name in ("max_steps", "sample_seed"):
            if getattr(self, name) < 0:
                raise SettingError(name, f"{name} must be >= 0")
        if self.record_every < 1:
            raise SettingError("record_every", "record_every must be >= 1")
        if self.mode == "stochastic" and not 1 <= self.batch <= BLOCK_NORMALS // 3:
            raise SettingError("batch", f"stochastic mode needs 1 <= batch <= "
                               f"{BLOCK_NORMALS // 3}, got batch {self.batch}")


@dataclass
class Trajectory:
    records: list[TrajectoryRecord]
    terminated_by: Termination
    failure: str | None = None

    @property
    def final(self) -> TrajectoryRecord:
        return self.records[-1]

    def losses(self) -> np.ndarray:
        return np.array([r.loss for r in self.records])

    def steps_to_loss(self, threshold: float) -> int | None:
        """First recorded step index with loss below ``threshold``; None if never."""
        for r in self.records:
            if r.loss < threshold:
                return r.step
        return None


@dataclass(frozen=True)
class StallReport:
    stalled: bool
    window_start: int
    mean_rel_decrease: float
    nearest_singularity_distance: float


def _update(xi: float, theta: float, g0: float, g1: float, local,
            cfg: OptimizerConfig) -> tuple[float, float]:
    """The capped step (xi, theta) - lr * d from gradient (g0, g1) at ``Chart.local``.

    d is g for GD and (J^T J + damping I)^-1 g for NGD, solved explicitly;
    with zero damping a machine-singular information matrix raises
    SingularFIMError instead of producing a garbage direction.  The cap uses
    ``math.hypot``, which does not overflow.  A non-finite new iterate (from
    overflow, or a non-finite gradient or direction, which propagates
    through the cap) raises NonFiniteStepError.
    """
    if cfg.method == "ngd":
        a00, a01, a11 = information(local)
        a00 += cfg.damping
        a11 += cfg.damping
        det = a00 * a11 - a01 * a01
        big = max(abs(a00), abs(a01), abs(a11))
        if abs(det) <= EPS * max(big * big, 1.0):
            raise SingularFIMError(
                f"information matrix is singular at (xi={xi:.6g}, theta={theta:.6g}) "
                f"with damping={cfg.damping}"
            )
        g0, g1 = (a11 * g0 - a01 * g1) / det, (a00 * g1 - a01 * g0) / det
    s0, s1 = cfg.step_size * g0, cfg.step_size * g1
    n = math.hypot(s0, s1)
    if n > cfg.step_cap:
        k = cfg.step_cap / n
        s0, s1 = s0 * k, s1 * k
    new = xi - s0, theta - s1
    if not (math.isfinite(new[0]) and math.isfinite(new[1])):
        raise NonFiniteStepError(
            f"non-finite iterate {new} from ({xi}, {theta}) along ({g0}, {g1})")
    return new


def _step(m: GaussianLocationModel, q: ChartPoint, cfg: OptimizerConfig) -> ChartPoint:
    local = m.chart.local(q.xi, q.theta)
    _, g0, g1 = chain_rule(local, m.target_mean.tolist())
    return ChartPoint(*_update(q.xi, q.theta, g0, g1, local, cfg))


def gd_step(m: GaussianLocationModel, q: ChartPoint, cfg: OptimizerConfig) -> ChartPoint:
    """One capped gradient step q - lr * grad."""
    if cfg.method != "gd":
        raise ValueError("gd_step requires cfg.method == 'gd'")
    return _step(m, q, cfg)


def ngd_step(m: GaussianLocationModel, q: ChartPoint, cfg: OptimizerConfig) -> ChartPoint:
    """One capped natural gradient step q - lr * (F + damping I)^-1 grad."""
    if cfg.method != "ngd":
        raise ValueError("ngd_step requires cfg.method == 'ngd'")
    return _step(m, q, cfg)


@functools.lru_cache(maxsize=1)
def _noise_stream(seed: int, batch: int) -> tuple[np.random.Generator, list[np.ndarray]]:
    """The seeded generator of a batch-mean noise stream and its blocks drawn so far.

    Each block is a read-only array of batch means, one row per step (see
    ``_batch_means``).  The generator has drawn exactly the listed blocks, so
    the consumer that first reaches block ``len(blocks)`` draws and appends
    it.  The cache keeps one stream, since every trajectory of an experiment
    uses the same seed and batch.
    """
    return np.random.default_rng(seed), []


def _batch_means(mu_star: np.ndarray, seed: int, batch: int):
    """Endless stream of mu_star + the mean of ``batch`` N(0, I_3) draws.

    Drawn in blocks of about BLOCK_NORMALS normals, so a draw does not grow
    with ``batch`` (``OptimizerConfig`` caps it at a third of BLOCK_NORMALS,
    one mean per block); the generator fills a block in the same order as one
    ``(batch, 3)`` draw per mean, so the stream does not depend on the block
    size.  The blocks come from ``_noise_stream`` and are drawn only when a
    consumer first needs them.
    """
    rng, blocks = _noise_stream(seed, batch)
    rows = max(1, BLOCK_NORMALS // (3 * batch))
    for i in itertools.count():
        if i == len(blocks):
            block = rng.standard_normal((rows, batch, 3)).mean(axis=1)
            block.flags.writeable = False
            blocks.append(block)
        yield from (mu_star + blocks[i]).tolist()


def run(m: GaussianLocationModel, q0: ChartPoint, cfg: OptimizerConfig) -> Trajectory:
    """Iterate the configured step until a tolerance or the step budget hits.

    Records are thinned to every ``record_every``-th step; the initial and
    final states are always recorded.  Step errors, and a non-finite loss or
    gradient at a later iterate, terminate the run with a FAILED marker
    naming the step, and the partial trajectory is returned; no non-finite
    value is recorded.  A start point whose loss or gradient is not finite
    raises ValueError.
    """
    local_at = m.chart.local
    target = m.target_mean.tolist()
    means = (_batch_means(m.target_mean, cfg.sample_seed, cfg.batch)
             if cfg.mode == "stochastic" else None)
    grad_tol, loss_tol, max_steps = cfg.grad_tol, cfg.loss_tol, cfg.max_steps
    xi, theta = float(q0.xi), float(q0.theta)
    records = []
    for t in range(max_steps + 1):  # returns at the latest when t == max_steps
        local = local_at(xi, theta)
        loss, g0, g1 = chain_rule(local, target)
        grad_norm = math.hypot(g0, g1)
        if not (math.isfinite(loss) and math.isfinite(grad_norm)):
            failure = (f"step {t}: non-finite loss {loss} (gradient norm {grad_norm}) "
                       f"at ({xi}, {theta})")
            if not records:
                raise ValueError(failure)
            return Trajectory(records, Termination.FAILED, failure=failure)
        if grad_norm < grad_tol:
            terminated = Termination.GRAD_TOL
        elif loss < loss_tol:
            terminated = Termination.LOSS_TOL
        elif t == max_steps:
            terminated = Termination.MAX_STEPS
        else:
            terminated = None
        if terminated or t % cfg.record_every == 0:
            records.append(TrajectoryRecord(t, xi, theta, *local[:3], loss, grad_norm))
        if terminated:
            return Trajectory(records, terminated)
        if means is not None:
            _, g0, g1 = chain_rule(local, next(means))
        try:
            xi, theta = _update(xi, theta, g0, g1, local, cfg)
        except (SingularFIMError, NonFiniteStepError) as exc:
            return Trajectory(records, Termination.FAILED, failure=f"step {t + 1}: {exc}")


def detect_stall(traj: Trajectory, singularities=(),
                 loss_tol: float = OptimizerConfig.loss_tol) -> StallReport:
    """Flag a window of records whose loss has stopped decreasing.

    A trajectory stalls when some window of ``STALL_WINDOW`` consecutive
    records has mean relative loss decrease below ``STALL_PLATEAU_TOL`` while
    the loss is still above ``loss_tol``.  The report carries the ambient
    distance from the (first) stalled window's last point to the nearest
    singularity; when nothing stalls it describes the flattest window seen
    and the distance from the final point.  A trajectory with fewer than
    ``STALL_WINDOW`` records cannot stall: its report has no window (start
    -1, mean decrease NaN).
    """
    window = STALL_WINDOW
    records = traj.records

    def distance_from(idx: int) -> float:
        if not len(singularities):
            return math.inf
        r = records[idx]
        x = np.array([r.mu1, r.mu2, r.mu3])
        return float(min(np.linalg.norm(x - np.asarray(s, dtype=float)) for s in singularities))

    if len(records) < window:
        return StallReport(False, -1, math.nan, distance_from(len(records) - 1))
    losses = np.array([r.loss for r in records])
    rel = (losses[:-1] - losses[1:]) / np.maximum(np.abs(losses[:-1]), 1e-300)
    csum = np.concatenate([[0.0], np.cumsum(rel)])
    n_windows = len(records) - window + 1
    means = (csum[window - 1:window - 1 + n_windows] - csum[:n_windows]) / (window - 1)
    end_losses = losses[window - 1:]

    stalled_mask = (means < STALL_PLATEAU_TOL) & (end_losses > loss_tol)
    if stalled_mask.any():
        j = int(np.argmax(stalled_mask))
        return StallReport(
            stalled=True,
            window_start=records[j].step,
            mean_rel_decrease=float(means[j]),
            nearest_singularity_distance=distance_from(j + window - 1),
        )
    return StallReport(
        stalled=False,
        window_start=-1,
        mean_rel_decrease=float(means.min()),
        nearest_singularity_distance=distance_from(len(records) - 1),
    )
