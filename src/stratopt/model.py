"""Gaussian location models whose mean is constrained to a surface chart.

Two charts share the intrinsic coordinates (xi, theta): the double cone
(xi, xi*cos theta, xi*sin theta) and its smooth deformation the hyperboloid
(xi, r*cos theta, r*sin theta) with r = sqrt(xi^2 + eps).  The observation
noise is a fixed identity covariance, so the population loss is half the
squared distance between the target mean and the embedded point, the
gradient follows from the chart Jacobian by the chain rule, and the Fisher
information is J^T J.  Gradients and the information matrix are always
computed through the Jacobian, never from transcribed component formulas.
The chart formulas live in one float kernel, ``Chart.local``, which returns
the ambient point and the Jacobian entries; ``embed``/``jacobian`` wrap it in
arrays, and ``chain_rule``/``information`` read its entries, so the model
methods and the optimizer's step evaluate the same code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Chart:
    """A 2-parameter chart of a surface in R^3: the cone's signed-radius
    chart when ``eps == 0``, the hyperboloid r = sqrt(xi^2 + eps) when ``eps > 0``."""

    eps: float

    def __post_init__(self):
        if not self.eps >= 0:  # also rejects NaN
            raise ValueError(f"chart requires eps >= 0, got {self.eps}")

    @classmethod
    def cone(cls) -> "Chart":
        return cls(0.0)

    @classmethod
    def hyperboloid(cls, eps: float) -> "Chart":
        if not eps > 0:
            raise ValueError("hyperboloid chart requires eps > 0")
        return cls(float(eps))

    def local(self, xi: float, theta: float) -> tuple[float, ...]:
        """The chart at (xi, theta) as floats: the one place its formulas live.

        Returns ``(x0, x1, x2, j10, j11, j20, j21)``: the ambient point and the
        Jacobian rows ``(j10, j11)`` and ``(j20, j21)``; row 0 is always (1, 0).
        """
        c, s = math.cos(theta), math.sin(theta)
        if self.eps == 0.0:
            radial, dradial = xi, 1.0
        else:
            radial = math.sqrt(xi * xi + self.eps)
            dradial = xi / radial
        return xi, radial * c, radial * s, dradial * c, -radial * s, dradial * s, radial * c

    def embed(self, q: "ChartPoint") -> np.ndarray:
        """Ambient coordinates of the chart point."""
        return np.array(self.local(q.xi, q.theta)[:3])

    def jacobian(self, q: "ChartPoint") -> np.ndarray:
        """3x2 matrix of ambient partials with respect to (xi, theta)."""
        _, _, _, j10, j11, j20, j21 = self.local(q.xi, q.theta)
        return np.array([[1.0, 0.0], [j10, j11], [j20, j21]])


@dataclass(frozen=True)
class ChartPoint:
    """Intrinsic coordinates; theta is kept unwrapped so paths stay continuous."""

    xi: float
    theta: float

    def __post_init__(self):
        if not (math.isfinite(self.xi) and math.isfinite(self.theta)):
            raise ValueError(f"chart point must be finite, got ({self.xi}, {self.theta})")


@dataclass(frozen=True, eq=False)
class GaussianLocationModel:
    """N(mu, I_3) observations with mu constrained to a chart.

    ``target_mean`` is the population mean of the data; the population loss
    at q is the expected negative log-likelihood up to an additive constant.
    """

    chart: Chart
    target_mean: np.ndarray

    def __post_init__(self):
        mu = np.asarray(self.target_mean, dtype=float)
        if mu.shape != (3,) or not np.isfinite(mu).all():
            raise ValueError("target_mean must be a finite 3-vector")
        mu = mu.copy()
        mu.setflags(write=False)
        object.__setattr__(self, "target_mean", mu)

    def loss(self, q: ChartPoint) -> float:
        return chain_rule(self.chart.local(q.xi, q.theta), self.target_mean.tolist())[0]

    def loss_grad(self, q: ChartPoint) -> np.ndarray:
        """Chain-rule gradient J^T (embed(q) - target)."""
        return np.array(chain_rule(self.chart.local(q.xi, q.theta), self.target_mean.tolist())[1:])

    def fim(self, q: ChartPoint) -> np.ndarray:
        """Fisher information J^T J (exact for identity-covariance location families)."""
        f00, f01, f11 = information(self.chart.local(q.xi, q.theta))
        return np.array([[f00, f01], [f01, f11]])


def chain_rule(local, target) -> tuple[float, float, float]:
    """Loss 0.5 |x - target|^2 and the gradient J^T (x - target), from ``Chart.local``."""
    x0, x1, x2, j10, j11, j20, j21 = local
    t0, t1, t2 = target
    d0, d1, d2 = x0 - t0, x1 - t1, x2 - t2
    return 0.5 * (d0 * d0 + d1 * d1 + d2 * d2), d0 + j10 * d1 + j20 * d2, j11 * d1 + j21 * d2


def information(local) -> tuple[float, float, float]:
    """Entries (F00, F01, F11) of the symmetric 2x2 J^T J, from ``Chart.local``."""
    _, _, _, j10, j11, j20, j21 = local
    return 1.0 + j10 * j10 + j20 * j20, j10 * j11 + j20 * j21, j11 * j11 + j21 * j21

