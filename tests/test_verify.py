import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from stratopt.model import Chart, ChartPoint, GaussianLocationModel
from stratopt.verify import FD_STEP, central_differences, finite_diff_grad, monte_carlo_fim

CONE = Chart.cone()


def test_fd_constant_function():
    g = finite_diff_grad(lambda q: 3.5, ChartPoint(0.3, -0.7))
    assert np.array_equal(g, np.zeros(2))


def test_fd_quadratic_is_near_exact():
    f = lambda q: 0.5 * (q.xi ** 2 + q.theta ** 2)
    g = finite_diff_grad(f, ChartPoint(1.0, 2.0))
    assert np.abs(g - np.array([1.0, 2.0])).max() < 1e-9


def test_fd_anchors_the_cone_gradient_example():
    m = GaussianLocationModel(CONE, np.zeros(3))
    g = finite_diff_grad(m.loss, ChartPoint(1.0, 0.0))
    assert np.abs(g - np.array([2.0, 0.0])).max() < 1e-6


def test_fd_nonfinite_loss_raises():
    def bad(q):
        return np.inf if q.xi > 1.0 else 0.0

    with pytest.raises(ValueError):
        finite_diff_grad(bad, ChartPoint(1.0, 0.0))


def _two_probe_grad(f, q):
    """The chart-point formula ``finite_diff_grad`` had before it called
    ``central_differences``: each probe is built from Python floats."""
    h = FD_STEP
    out = np.empty(2)
    probes = [
        (ChartPoint(q.xi + h, q.theta), ChartPoint(q.xi - h, q.theta)),
        (ChartPoint(q.xi, q.theta + h), ChartPoint(q.xi, q.theta - h)),
    ]
    for i, (hi, lo) in enumerate(probes):
        out[i] = (f(hi) - f(lo)) / (2.0 * h)
    return out


def _signed_zero_sensitive(q):
    # atan2(-0.0, -1) = -pi but atan2(0.0, -1) = pi: a probe that drops the
    # sign of a zero coordinate changes the value
    return q.xi * math.atan2(q.theta, -1.0) + q.theta * math.atan2(q.xi, -1.0)


COORD = st.floats(-4, 4) | st.sampled_from([0.0, -0.0])


@given(xi=COORD, theta=COORD, eps=st.sampled_from([0.0, 0.05, 1.0]))
@example(xi=1.0, theta=-0.0, eps=0.0)
def test_fd_is_bit_for_bit_the_two_probe_formula(xi, theta, eps):
    q = ChartPoint(xi, theta)
    chart = Chart.cone() if eps == 0.0 else Chart.hyperboloid(eps)
    m = GaussianLocationModel(chart, np.array([1.0, -0.5, 0.25]))
    for f in (m.loss, _signed_zero_sensitive):
        assert finite_diff_grad(f, q).tobytes() == _two_probe_grad(f, q).tobytes()


def test_fd_nonfinite_message_is_unchanged():
    with pytest.raises(ValueError) as err:
        finite_diff_grad(lambda q: np.inf if q.xi > 1.0 else 0.0, ChartPoint(1.0, -0.0))
    assert str(err.value) == "non-finite evaluation near (1.0, -0.0)"


def test_central_differences_probe_any_length():
    x = np.array([0.5, -1.0, 2.0, -0.0])
    g = central_differences(lambda v: float(v @ v), x)
    assert np.abs(g - 2 * x).max() < 1e-9


def test_mc_fim_sample_floor():
    m = GaussianLocationModel(CONE, np.zeros(3))
    with pytest.raises(ValueError):
        monte_carlo_fim(m, ChartPoint(1.0, 0.0), n=5000, seed=0)


def test_mc_fim_symmetric_psd():
    m = GaussianLocationModel(Chart.hyperboloid(0.3), np.zeros(3))
    F = monte_carlo_fim(m, ChartPoint(0.4, 1.1), n=20_000, seed=4)
    assert np.array_equal(F, F.T)
    assert np.linalg.eigvalsh(F).min() >= 0.0


def test_mc_fim_matches_cone_closed_form():
    m = GaussianLocationModel(CONE, np.zeros(3))
    F = monte_carlo_fim(m, ChartPoint(1.0, 0.8), n=200_000, seed=21)
    want = np.diag([2.0, 1.0])
    assert np.linalg.norm(F - want) / np.linalg.norm(want) < 0.05


def test_mc_fim_matches_hyperboloid_waist():
    m = GaussianLocationModel(Chart.hyperboloid(0.1), np.zeros(3))
    F = monte_carlo_fim(m, ChartPoint(0.0, -0.3), n=200_000, seed=22)
    want = np.diag([1.0, 0.1])
    assert np.linalg.norm(F - want) / np.linalg.norm(want) < 0.05


def test_mc_fim_deterministic():
    m = GaussianLocationModel(CONE, np.zeros(3))
    a = monte_carlo_fim(m, ChartPoint(0.6, 0.0), n=20_000, seed=5)
    b = monte_carlo_fim(m, ChartPoint(0.6, 0.0), n=20_000, seed=5)
    assert np.array_equal(a, b)


def test_mc_fim_error_shrinks_with_more_draws():
    m = GaussianLocationModel(CONE, np.zeros(3))
    q = ChartPoint(1.3, 0.5)
    exact = m.fim(q)
    errs_small, errs_big = [], []
    for seed in range(10):
        small = monte_carlo_fim(m, q, n=20_000, seed=seed)
        big = monte_carlo_fim(m, q, n=40_000, seed=1000 + seed)
        errs_small.append(np.linalg.norm(small - exact))
        errs_big.append(np.linalg.norm(big - exact))
    assert np.mean(errs_big) < np.mean(errs_small)
