"""Gaussian location models whose mean is constrained to a surface chart.

A ``Chart`` is its map from the intrinsic coordinates (xi, theta) into R^3:
its one abstract method, ``local``, returns the ambient point and the whole
3x2 Jacobian as floats, and ``embed``/``jacobian`` wrap it in arrays.
``Chart.cone()`` is the double cone (xi, xi*cos theta, xi*sin theta) and
``Chart.hyperboloid(eps)``, the one chart with a parameter, its smooth
deformation (xi, r*cos theta, r*sin theta) with r = sqrt(xi^2 + eps).  The
noise is a fixed identity covariance, so the population loss is half the
squared distance between the target mean and the embedded point; its
gradient J^T (x - target) and the Fisher information J^T J are always read
off the Jacobian, never transcribed component formulas, by ``chain_rule``
and ``information``, which compute ``loss``, ``loss_grad`` and ``fim`` for
the ``stratopt check`` oracles.  The optimizer's step does the same
arithmetic inline, operation for operation, on one ``local`` call, in
population and stochastic mode alike (it calls neither function), and
``tests/test_optim.py`` checks it against them bit for bit on four charts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class Chart:
    """A 2-parameter chart of a surface in R^3: a subclass defines ``local``."""

    def local(self, xi: float, theta: float) -> tuple[float, ...]:
        """The chart at (xi, theta) as floats: the one place its formulas live.

        Returns ``(x0, x1, x2, j00, j01, j10, j11, j20, j21)``: the ambient
        point and the Jacobian row by row, ``jik`` = d x_i / d (xi, theta)[k].
        """
        raise NotImplementedError

    def embed(self, q: "ChartPoint") -> np.ndarray:
        """Ambient coordinates of the chart point."""
        return np.array(self.local(q.xi, q.theta)[:3])

    def jacobian(self, q: "ChartPoint") -> np.ndarray:
        """3x2 matrix of ambient partials with respect to (xi, theta)."""
        return np.array(self.local(q.xi, q.theta)[3:]).reshape(3, 2)


@dataclass(frozen=True)
class Cone(Chart):
    """The double cone's signed-radius chart (xi, xi*cos theta, xi*sin theta)."""

    def local(self, xi: float, theta: float) -> tuple[float, ...]:
        c, s = math.cos(theta), math.sin(theta)
        return (xi, xi * c, xi * s, 1.0, 0.0, c, -xi * s, s, xi * c)


@dataclass(frozen=True)
class Hyperboloid(Chart):
    """The hyperboloid (xi, r*cos theta, r*sin theta), r = sqrt(xi^2 + eps), eps > 0."""

    eps: float

    def __post_init__(self):
        if not (math.isfinite(self.eps) and self.eps > 0):
            raise ValueError(f"hyperboloid chart requires a finite eps > 0, got eps={self.eps}")
        object.__setattr__(self, "eps", float(self.eps))

    def local(self, xi: float, theta: float) -> tuple[float, ...]:
        c, s = math.cos(theta), math.sin(theta)
        radial = math.sqrt(xi * xi + self.eps)
        dradial = xi / radial
        return (xi, radial * c, radial * s,
                1.0, 0.0, dradial * c, -radial * s, dradial * s, radial * c)


Chart.cone, Chart.hyperboloid = Cone, Hyperboloid


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
    x0, x1, x2, j00, j01, j10, j11, j20, j21 = local
    t0, t1, t2 = target
    d0, d1, d2 = x0 - t0, x1 - t1, x2 - t2
    return (0.5 * (d0 * d0 + d1 * d1 + d2 * d2),
            j00 * d0 + j10 * d1 + j20 * d2, j01 * d0 + j11 * d1 + j21 * d2)


def information(local) -> tuple[float, float, float]:
    """Entries (F00, F01, F11) of the symmetric 2x2 J^T J, from ``Chart.local``."""
    _, _, _, j00, j01, j10, j11, j20, j21 = local
    return (j00 * j00 + j10 * j10 + j20 * j20, j00 * j01 + j10 * j11 + j20 * j21,
            j01 * j01 + j11 * j11 + j21 * j21)

