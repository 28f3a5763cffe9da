"""Gaussian location models whose mean is constrained to a surface chart.

Two charts share the intrinsic coordinates (xi, theta): the double cone
(xi, xi*cos theta, xi*sin theta) and its smooth deformation the hyperboloid
(xi, r*cos theta, r*sin theta) with r = sqrt(xi^2 + eps).  The observation
noise is a fixed identity covariance, so the population loss is half the
squared distance between the target mean and the embedded point, the
gradient follows from the chart Jacobian by the chain rule, and the Fisher
information is J^T J.  Gradients and the information matrix are always
computed through the Jacobian, never from transcribed component formulas.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np


class ChartKind(enum.Enum):
    CONE = "cone"
    HYPERBOLOID = "hyperboloid"


@dataclass(frozen=True)
class Chart:
    """A 2-parameter chart of a surface in R^3."""

    kind: ChartKind
    eps: float = 0.0

    def __post_init__(self):
        if self.kind is ChartKind.HYPERBOLOID:
            if not self.eps > 0:
                raise ValueError("hyperboloid chart requires eps > 0")
        elif self.eps != 0.0:
            raise ValueError("cone chart takes no eps")

    @classmethod
    def cone(cls) -> "Chart":
        return cls(ChartKind.CONE)

    @classmethod
    def hyperboloid(cls, eps: float) -> "Chart":
        return cls(ChartKind.HYPERBOLOID, float(eps))

    @property
    def intrinsic_dim(self) -> int:
        return 2

    @property
    def ambient_dim(self) -> int:
        return 3

    def embed(self, q: "ChartPoint") -> np.ndarray:
        """Ambient coordinates of the chart point."""
        c, s = math.cos(q.theta), math.sin(q.theta)
        if self.kind is ChartKind.CONE:
            radial = q.xi
        else:
            radial = math.sqrt(q.xi * q.xi + self.eps)
        return np.array([q.xi, radial * c, radial * s])

    def jacobian(self, q: "ChartPoint") -> np.ndarray:
        """3x2 matrix of ambient partials with respect to (xi, theta)."""
        c, s = math.cos(q.theta), math.sin(q.theta)
        if self.kind is ChartKind.CONE:
            radial, dradial = q.xi, 1.0
        else:
            radial = math.sqrt(q.xi * q.xi + self.eps)
            dradial = q.xi / radial
        return np.array([
            [1.0, 0.0],
            [dradial * c, -radial * s],
            [dradial * s, radial * c],
        ])


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

    def evaluate(self, q: ChartPoint):
        """(x, J, loss, gradient) at q for the population mean, per ``chain_rule``.

        Stochastic runs reuse x and J and apply ``chain_rule`` to a batch mean.
        """
        x = self.chart.embed(q)
        J = self.chart.jacobian(q)
        return (x, J) + chain_rule(x, J, self.target_mean)

    def loss(self, q: ChartPoint) -> float:
        d = self.chart.embed(q) - self.target_mean
        return 0.5 * float(d @ d)

    def loss_grad(self, q: ChartPoint) -> np.ndarray:
        """Chain-rule gradient J^T (embed(q) - target)."""
        return self.evaluate(q)[3]

    def fim(self, q: ChartPoint) -> np.ndarray:
        """Fisher information J^T J (exact for identity-covariance location families)."""
        J = self.chart.jacobian(q)
        return J.T @ J


def chain_rule(x: np.ndarray, J: np.ndarray, target) -> tuple[float, np.ndarray]:
    """Loss 0.5 |x - target|^2 at ambient point x and its chart gradient J^T (x - target)."""
    d = x - target
    return 0.5 * float(d @ d), J.T @ d


def _mean_of_draws(rng: np.random.Generator, mu_star: np.ndarray, n: int) -> np.ndarray:
    return mu_star + rng.standard_normal((n, 3)).mean(axis=0)


def sample_mean(mu_star, n: int, seed: int) -> np.ndarray:
    """Empirical mean of n draws from N(mu_star, I_3); deterministic given seed."""
    if n < 1:
        raise ValueError(f"need n >= 1 draws, got {n}")
    mu_star = np.asarray(mu_star, dtype=float)
    if mu_star.shape != (3,):
        raise ValueError("mu_star must be a 3-vector")
    return _mean_of_draws(np.random.default_rng(seed), mu_star, n)
