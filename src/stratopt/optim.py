"""Gradient descent and natural gradient descent in chart coordinates.

Both methods iterate q <- q - lr * d with d the gradient (GD) or the
damped-information-preconditioned gradient (NGD); the update vector is
norm-capped so the degenerate information matrix near the cone apex cannot
launch unbounded angular steps.  A trajectory is a list of flat rows in
``tables.TRAJ_FIELDS`` order (step, xi, theta, mu1, mu2, mu3, loss,
grad_norm), so ``np.array(traj.records)`` is its CSV table, plus a
termination reason.  Each step evaluates the chart once: the same embedding
and Jacobian give the recorded loss and gradient and the update.  Stochastic
mode redraws a batch mean each step from a seeded generator and descends
toward it while the recorded loss and gradient stay population quantities.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import ChartPoint, GaussianLocationModel, _mean_of_draws, chain_rule


class Method(enum.Enum):
    GD = "gd"
    NGD = "ngd"


class Mode(enum.Enum):
    POPULATION = "population"
    STOCHASTIC = "stochastic"


class Termination(enum.Enum):
    GRAD_TOL = "grad_tol"
    LOSS_TOL = "loss_tol"
    MAX_STEPS = "max_steps"
    FAILED = "failed"


class SingularFIMError(RuntimeError):
    """Undamped information matrix is singular to machine precision."""


class NonFiniteStepError(RuntimeError):
    """An update produced a non-finite iterate."""


@dataclass(frozen=True)
class OptimizerConfig:
    method: Method = Method.GD
    step_size: float = 0.01
    max_steps: int = 100_000
    grad_tol: float = 1e-10
    loss_tol: float = 1e-10
    damping: float = 1e-8        # NGD only
    step_cap: float = 1.0
    mode: Mode = Mode.POPULATION
    batch: int = 16              # stochastic only
    sample_seed: int = 0         # stochastic only
    record_every: int = 1

    def __post_init__(self):
        object.__setattr__(self, "method", Method(self.method))
        object.__setattr__(self, "mode", Mode(self.mode))
        for name in ("step_size", "step_cap", "damping", "grad_tol", "loss_tol"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.step_size > 0:
            raise ValueError("step_size must be positive")
        if not self.step_cap > 0:
            raise ValueError("step_cap must be positive")
        if self.damping < 0:
            raise ValueError("damping must be >= 0")
        if self.max_steps < 0:
            raise ValueError("max_steps must be >= 0")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")
        if self.mode is Mode.STOCHASTIC and self.batch < 1:
            raise ValueError("stochastic mode needs batch >= 1")


class TrajectoryRecord(NamedTuple):
    """One trajectory row; the fields are ``tables.TRAJ_FIELDS``."""

    step: int
    xi: float
    theta: float
    mu1: float
    mu2: float
    mu3: float
    loss: float
    grad_norm: float


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


def _update(xi: float, theta: float, g: np.ndarray, J: np.ndarray,
            cfg: OptimizerConfig) -> tuple[float, float]:
    """The capped step (xi, theta) - lr * d from gradient g and chart Jacobian J.

    d is g for GD and (J^T J + damping I)^-1 g for NGD, solved explicitly;
    with zero damping a machine-singular information matrix raises
    SingularFIMError instead of producing a garbage direction.  A non-finite
    new iterate (from overflow, or a non-finite gradient or direction, which
    propagates through the cap) raises NonFiniteStepError.
    """
    if cfg.method is Method.NGD:
        A = J.T @ J + cfg.damping * np.eye(2)
        det = A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
        scale = max(abs(A).max() ** 2, 1.0)
        if abs(det) <= np.finfo(float).eps * scale:
            raise SingularFIMError(
                f"information matrix is singular at (xi={xi:.6g}, theta={theta:.6g}) "
                f"with damping={cfg.damping}"
            )
        g = np.array([
            (A[1, 1] * g[0] - A[0, 1] * g[1]) / det,
            (A[0, 0] * g[1] - A[1, 0] * g[0]) / det,
        ])
    step = cfg.step_size * g
    n = float(np.linalg.norm(step))
    if n > cfg.step_cap:
        step = step * (cfg.step_cap / n)
    new = float(xi - step[0]), float(theta - step[1])
    if not (math.isfinite(new[0]) and math.isfinite(new[1])):
        raise NonFiniteStepError(f"non-finite iterate {new} from ({xi}, {theta}) along {g}")
    return new


def gd_step(m: GaussianLocationModel, q: ChartPoint, cfg: OptimizerConfig) -> ChartPoint:
    """One capped gradient step q - lr * grad."""
    if cfg.method is not Method.GD:
        raise ValueError("gd_step requires cfg.method == Method.GD")
    _, J, _, g = m.evaluate(q)
    return ChartPoint(*_update(q.xi, q.theta, g, J, cfg))


def ngd_step(m: GaussianLocationModel, q: ChartPoint, cfg: OptimizerConfig) -> ChartPoint:
    """One capped natural gradient step q - lr * (F + damping I)^-1 grad."""
    if cfg.method is not Method.NGD:
        raise ValueError("ngd_step requires cfg.method == Method.NGD")
    _, J, _, g = m.evaluate(q)
    return ChartPoint(*_update(q.xi, q.theta, g, J, cfg))


def run(m: GaussianLocationModel, q0: ChartPoint, cfg: OptimizerConfig) -> Trajectory:
    """Iterate the configured step until a tolerance or the step budget hits.

    Records are thinned to every ``record_every``-th step; the initial and
    final states are always recorded.  Step errors terminate the run with a
    FAILED marker naming the step, and the partial trajectory is returned.
    """
    rng = np.random.default_rng(cfg.sample_seed) if cfg.mode is Mode.STOCHASTIC else None
    xi, theta = q0.xi, q0.theta
    records = []
    for t in range(cfg.max_steps + 1):  # returns at the latest when t == max_steps
        x, J, loss, g = m.evaluate(ChartPoint(xi, theta))
        rec = TrajectoryRecord(t, xi, theta, *x.tolist(), loss, float(np.linalg.norm(g)))
        terminated = None
        if rec.grad_norm < cfg.grad_tol:
            terminated = Termination.GRAD_TOL
        elif loss < cfg.loss_tol:
            terminated = Termination.LOSS_TOL
        elif t == cfg.max_steps:
            terminated = Termination.MAX_STEPS
        if terminated or t % cfg.record_every == 0:
            records.append(rec)
        if terminated:
            return Trajectory(records, terminated)
        if rng is not None:
            g = chain_rule(x, J, _mean_of_draws(rng, m.target_mean, cfg.batch))[1]
        try:
            xi, theta = _update(xi, theta, g, J, cfg)
        except (SingularFIMError, NonFiniteStepError) as exc:
            return Trajectory(records, Termination.FAILED, failure=f"step {t + 1}: {exc}")


def detect_stall(
    traj: Trajectory,
    window: int = 100,
    plateau_tol: float = 1e-5,
    singularities=(),
    loss_tol: float = 1e-10,
) -> StallReport:
    """Flag a window of records whose loss has stopped decreasing.

    A trajectory stalls when some window of ``window`` consecutive records
    has mean relative loss decrease below ``plateau_tol`` while the loss is
    still above ``loss_tol``.  The report carries the ambient distance from
    the (first) stalled window's last point to the nearest singularity; when
    nothing stalls it describes the flattest window seen and the distance
    from the final point.
    """
    if window < 2:
        raise ValueError("window must be >= 2")
    records = traj.records
    if len(records) < window:
        raise ValueError(f"trajectory has {len(records)} records, shorter than window {window}")
    losses = np.array([r.loss for r in records])
    rel = (losses[:-1] - losses[1:]) / np.maximum(np.abs(losses[:-1]), 1e-300)
    csum = np.concatenate([[0.0], np.cumsum(rel)])
    n_windows = len(records) - window + 1
    means = (csum[window - 1:window - 1 + n_windows] - csum[:n_windows]) / (window - 1)
    end_losses = losses[window - 1:]

    def distance_from(idx: int) -> float:
        if not len(singularities):
            return math.inf
        r = records[idx]
        x = np.array([r.mu1, r.mu2, r.mu3])
        return float(min(np.linalg.norm(x - np.asarray(s, dtype=float)) for s in singularities))

    stalled_mask = (means < plateau_tol) & (end_losses > loss_tol)
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
