"""Gradient descent and natural gradient descent in chart coordinates.

Both methods iterate q <- q - lr * d with d the gradient (GD) or the
damped-information-preconditioned gradient (NGD); the update vector is
norm-capped so the degenerate information matrix near the cone apex cannot
launch unbounded angular steps.  A trajectory is its CSV table packed, a
``tables.TrajectoryTable`` of 64-byte rows in ``tables.TRAJ_FIELDS`` order
(step, xi, theta, mu1, mu2, mu3, loss, grad_norm), plus a termination
reason; ``run`` appends a recorded step to its buffer with one
``TRAJ_ROW.pack``, and the loss and stall readers take numpy columns of it.
A step of ``run`` makes one Python call,
``Chart.local``, and computes the rest inline from its ambient point and
whole 3x2 Jacobian: the recorded loss and gradient, the NGD matrix J^T J
and the update.  That arithmetic is ``model.chain_rule``'s and
``model.information``'s, operation for operation, so every record carries
the model's bits (``tests/test_optim.py`` pins the loop to them).
``gd_step``/``ngd_step`` are one-step runs.  Stochastic mode descends toward
a fresh batch mean each step, with ``model.chain_rule``'s gradient arithmetic
inline, while the recorded loss and gradient stay population quantities.
The noise of those means is one seeded stream per ``(sample_seed, batch)``,
drawn in blocks in the same order as one draw per step; it is cached and
shared read-only by every trajectory of an experiment, and each trajectory
adds its own target mean a block at a time and reads the means through a
C-level iterator, which runs Python code once per block.  Besides
``Chart.local`` a step calls only builtins: ``math.hypot`` twice, ``pack``
when it is recorded, ``next`` for the batch mean in stochastic mode, and
more only when ``step_size * d`` overflows; NGD tests and solves its matrix
with the diagonal scaled to 1.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
import numbers
from dataclasses import dataclass, fields, replace

import numpy as np

from .model import ChartPoint, GaussianLocationModel
from .tables import TRAJ_ROW, TrajectoryRecord, TrajectoryTable

EPS = float(np.finfo(float).eps)
BLOCK_NORMALS = 12_288  # standard normals per block of stochastic batch means
STALL_WINDOW = 100  # consecutive records in a stall window
STALL_PLATEAU_TOL = 1e-5  # mean relative loss decrease below which a window stalls
STALL_BLOCK = 65_536  # records whose stall windows detect_stall computes at once
METHODS = ("gd", "ngd")
MODES = ("population", "stochastic")


class Termination(enum.Enum):
    GRAD_TOL = "grad_tol"
    LOSS_TOL = "loss_tol"
    MAX_STEPS = "max_steps"
    FAILED = "failed"


class SingularFIMError(RuntimeError):
    """The damped information matrix is singular: det / (a00 * a11) <= EPS."""


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
    records: TrajectoryTable
    terminated_by: Termination
    error: Exception | None = None  # what ended a FAILED run; its text names the step

    @property
    def failure(self) -> str | None:
        return None if self.error is None else str(self.error)

    @property
    def final(self) -> TrajectoryRecord:
        return self.records[-1]

    def losses(self) -> np.ndarray:
        return self.records.column("loss")

    def steps_to_loss(self, threshold: float) -> int | None:
        """First recorded step index with loss below ``threshold``; None if never."""
        below = np.flatnonzero(self.losses() < threshold)
        return self.records[int(below[0])].step if below.size else None


@dataclass(frozen=True)
class StallReport:
    stalled: bool
    window_start: int
    mean_rel_decrease: float
    nearest_singularity_distance: float


def _step(m: GaussianLocationModel, q: ChartPoint, cfg: OptimizerConfig) -> ChartPoint:
    """The iterate after a one-step population ``run`` without tolerance tests.

    Raises the error that failed the run: SingularFIMError or
    NonFiniteStepError from the step, ValueError when the loss at ``q`` is
    not finite, and also when the loss at the new iterate is not finite.
    """
    traj = run(m, q, replace(cfg, max_steps=1, grad_tol=0.0, loss_tol=0.0, mode="population"))
    if traj.error is not None:
        raise traj.error
    return ChartPoint(traj.final.xi, traj.final.theta)


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
    """Endless stream of mu_star + the mean of ``batch`` N(0, I_3) draws, as
    ``[m0, m1, m2]`` lists.

    Drawn in blocks of ``max(64, BLOCK_NORMALS // (3 * batch))`` means: about
    BLOCK_NORMALS normals up to batch 64, and 64 means above it, so a cached
    array never holds fewer than 64 means and a draw holds at most
    ``64 * BLOCK_NORMALS`` normals (``OptimizerConfig`` caps ``batch`` at a
    third of BLOCK_NORMALS).  The generator fills a block in the same order
    as one ``(batch, 3)`` draw per mean, so the stream does not depend on the
    block size.  The blocks come from ``_noise_stream`` and are drawn only
    when a consumer first needs them.  The stream is a C-level iterator over
    one list per block, so ``next`` runs Python code only at a block's first
    mean.
    """
    rng, blocks = _noise_stream(seed, batch)
    rows = max(64, BLOCK_NORMALS // (3 * batch))

    def block_means(i):
        if i == len(blocks):
            block = rng.standard_normal((rows, batch, 3)).mean(axis=1)
            block.flags.writeable = False
            blocks.append(block)
        return (mu_star + blocks[i]).tolist()

    return itertools.chain.from_iterable(map(block_means, itertools.count()))


def run(m: GaussianLocationModel, q0: ChartPoint, cfg: OptimizerConfig) -> Trajectory:
    """Iterate the configured step until a tolerance or the step budget hits.

    Records are thinned to every ``record_every``-th step; the initial and
    final states are always recorded.  Step errors, and a non-finite loss or
    gradient at a later iterate, terminate the run with a FAILED marker and
    the error, whose text names the step, and the partial trajectory is
    returned; no non-finite value is recorded.  A start point whose loss or gradient is not finite
    raises ValueError.

    A step is d = g for GD and A^-1 g for NGD, A = J^T J + damping I,
    solved on A with its diagonal scaled to 1: h = det(A) / (a00 * a11)
    does not depend on either coordinate's scale, and h <= EPS (also a zero
    diagonal or a nan entry) fails with SingularFIMError instead of
    producing a garbage direction.  The step lr * d is capped at ``step_cap``
    by its ``math.hypot`` norm; when lr * d overflows for a finite d, the
    capped step is taken along d / max|d_i|, so steps up to ~1e308 are
    capped, not zeroed.  A non-finite new iterate (from overflow, or a
    non-finite gradient or direction, which propagates through the cap)
    fails with NonFiniteStepError.
    """
    local_at = m.chart.local
    t0, t1, t2 = m.target_mean.tolist()
    means = (_batch_means(m.target_mean, cfg.sample_seed, cfg.batch)
             if cfg.mode == "stochastic" else None)
    grad_tol, loss_tol, max_steps = cfg.grad_tol, cfg.loss_tol, cfg.max_steps
    step_size, step_cap, damping = cfg.step_size, cfg.step_cap, cfg.damping
    record_every, ngd = cfg.record_every, cfg.method == "ngd"
    hypot, inf = math.hypot, math.inf
    pack = TRAJ_ROW.pack
    xi, theta = float(q0.xi), float(q0.theta)
    records = TrajectoryTable()
    buf = records.buf
    for t in range(max_steps + 1):  # returns at the latest when t == max_steps
        local = local_at(xi, theta)
        x0, x1, x2, j00, j01, j10, j11, j20, j21 = local
        d0, d1, d2 = x0 - t0, x1 - t1, x2 - t2
        loss = 0.5 * (d0 * d0 + d1 * d1 + d2 * d2)
        g0, g1 = j00 * d0 + j10 * d1 + j20 * d2, j01 * d0 + j11 * d1 + j21 * d2
        grad_norm = hypot(g0, g1)
        if not (loss < inf and grad_norm < inf):  # both are >= 0 or nan
            error = ValueError(f"step {t}: non-finite loss {loss} (gradient norm "
                               f"{grad_norm}) at ({xi}, {theta})")
            if not buf:
                raise error
            return Trajectory(records, Termination.FAILED, error)
        if grad_norm < grad_tol:
            terminated = Termination.GRAD_TOL
        elif loss < loss_tol:
            terminated = Termination.LOSS_TOL
        elif t == max_steps:
            terminated = Termination.MAX_STEPS
        else:
            terminated = None
        if terminated or t % record_every == 0:
            buf += pack(t, xi, theta, x0, x1, x2, loss, grad_norm)
        if terminated:
            return Trajectory(records, terminated)
        if means is not None:  # chain_rule's gradient toward this step's batch mean
            m0, m1, m2 = next(means)
            d0, d1, d2 = x0 - m0, x1 - m1, x2 - m2
            g0, g1 = j00 * d0 + j10 * d1 + j20 * d2, j01 * d0 + j11 * d1 + j21 * d2
        if ngd:
            a00 = (j00 * j00 + j10 * j10 + j20 * j20) + damping
            a01 = j00 * j01 + j10 * j11 + j20 * j21
            a11 = (j01 * j01 + j11 * j11 + j21 * j21) + damping
            if a00 > 0.0 and a11 > 0.0:  # solve with the diagonal scaled to 1
                r0, r1 = a01 / a00, a01 / a11
                h = 1.0 - r0 * r1  # det / (a00 * a11)
            else:
                h = 0.0
            if not h > EPS:  # a nan entry fails here too
                return Trajectory(records, Termination.FAILED, SingularFIMError(
                    f"step {t + 1}: information matrix is singular at "
                    f"(xi={xi:.6g}, theta={theta:.6g}) with damping={damping}"))
            u0, u1 = g0 / a00, g1 / a11
            g0, g1 = (u0 - r0 * u1) / h, (u1 - r1 * u0) / h
        s0, s1 = step_size * g0, step_size * g1
        n = hypot(s0, s1)
        if n > step_cap:
            if n == inf and math.isfinite(g0) and math.isfinite(g1):  # lr * d overflows
                big = max(abs(g0), abs(g1))
                s0, s1 = g0 / big, g1 / big
                n = hypot(s0, s1)
            k = step_cap / n
            s0, s1 = s0 * k, s1 * k
        new_xi, new_theta = xi - s0, theta - s1
        if not (-inf < new_xi < inf and -inf < new_theta < inf):
            return Trajectory(records, Termination.FAILED, NonFiniteStepError(
                f"step {t + 1}: non-finite iterate ({new_xi}, {new_theta}) from "
                f"({xi}, {theta}) along ({g0}, {g1})"))
        xi, theta = new_xi, new_theta


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

    The relative decreases, their running sum and the window means are
    computed ``STALL_BLOCK`` records at a time, carrying the running sum
    and its last ``STALL_WINDOW - 1`` values across blocks; every mean has
    the bits of the whole-trajectory sum.
    """
    window = STALL_WINDOW
    records = traj.records

    def distance_from(idx: int) -> float:
        if not len(singularities):
            return math.inf
        r = records[idx]
        x = np.array([r.mu1, r.mu2, r.mu3])
        return float(min(np.linalg.norm(x - np.asarray(s, dtype=float)) for s in singularities))

    n = len(records)
    if n < window:
        return StallReport(False, -1, math.nan, distance_from(n - 1))
    # csum[k] sums the relative decreases from record 0 to record k; a block
    # holds csum[start:k1], its own sums after the carried last window - 1
    tail = np.empty(0)
    smallest = np.inf
    for k0 in range(0, n, STALL_BLOCK):
        k1 = min(k0 + STALL_BLOCK, n)
        losses = records.column("loss", max(k0 - 1, 0), k1)
        rel = (losses[:-1] - losses[1:]) / np.maximum(np.abs(losses[:-1]), 1e-300)
        if k0:  # np.cumsum adds left to right, so going on from tail[-1] keeps the bits
            csum = np.concatenate([tail[:-1], np.cumsum(np.concatenate([tail[-1:], rel]))])
        else:
            csum = np.concatenate([[0.0], np.cumsum(rel)])
        start = k0 - len(tail)
        means = (csum[window - 1:] - csum[:len(csum) - window + 1]) / (window - 1)
        stalled_mask = (means < STALL_PLATEAU_TOL) & (losses[len(losses) - len(means):] > loss_tol)
        if stalled_mask.any():
            i = int(np.argmax(stalled_mask))
            return StallReport(
                stalled=True,
                window_start=records[start + i].step,
                mean_rel_decrease=float(means[i]),
                nearest_singularity_distance=distance_from(start + i + window - 1),
            )
        smallest = np.minimum(smallest, means.min())
        tail = csum[len(csum) - window + 1:]
    return StallReport(
        stalled=False,
        window_start=-1,
        mean_rel_decrease=float(smallest),
        nearest_singularity_distance=distance_from(n - 1),
    )
