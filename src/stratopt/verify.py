"""Independent numerical oracles: finite differences, Monte-Carlo information
and the natural gradient.

These deliberately avoid the analytic gradient, information and step code
paths: the finite-difference probe sees only a black-box loss, and the
Monte-Carlo estimator and numpy's natural-gradient solve start from the
chart Jacobian.  Tests use them to cross-check the closed forms.
"""

from __future__ import annotations

import numpy as np

from .model import ChartPoint, GaussianLocationModel

FD_STEP = 1e-6  # step of the central-difference probe


def central_differences(f, x) -> np.ndarray:
    """Central-difference gradient of a scalar function of a float vector: each
    probe moves one coordinate by +-FD_STEP, the others keep their bits."""
    x = np.array(x, dtype=float)
    out = np.empty(x.size)
    for i in range(x.size):
        hi, lo = x.copy(), x.copy()
        hi[i], lo[i] = x[i] + FD_STEP, x[i] - FD_STEP
        fp, fm = f(hi), f(lo)
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise ValueError(f"non-finite evaluation near ({', '.join(map(str, x.tolist()))})")
        out[i] = (fp - fm) / (2.0 * FD_STEP)
    return out


def finite_diff_grad(f, q: ChartPoint) -> np.ndarray:
    """Central-difference gradient of a scalar function of a chart point."""
    return central_differences(lambda x: f(ChartPoint(*x.tolist())), (q.xi, q.theta))


def monte_carlo_fim(m: GaussianLocationModel, q: ChartPoint, n: int, seed: int) -> np.ndarray:
    """Empirical covariance of the score over n draws x ~ N(embed(q), I_3).

    The score of an identity-covariance location family is J^T (x - mu), and
    x - mu ~ N(0, I_3) whatever the mean, so the estimator needs only the
    Jacobian; it never calls the model's own gradient or information methods.
    """
    if n < 10_000:
        raise ValueError(f"need n >= 10000 draws for a usable estimate, got {n}")
    rng = np.random.default_rng(seed)
    J = m.chart.jacobian(q)
    deviations = rng.standard_normal((n, 3))  # row i: x_i - mu
    scores = deviations @ J  # row i: J^T (x_i - mu)
    return (scores.T @ scores) / n


def natural_gradient(m: GaussianLocationModel, q: ChartPoint, damping: float) -> np.ndarray:
    """The damped NGD direction (J^T J + damping I)^-1 J^T (embed(q) - target),
    by ``numpy.linalg.solve`` on the chart's Jacobian and embedding."""
    J = m.chart.jacobian(q)
    return np.linalg.solve(J.T @ J + damping * np.eye(2), J.T @ (m.chart.embed(q) - m.target_mean))
