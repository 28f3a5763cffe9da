import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from stratopt.model import Chart, ChartPoint, GaussianLocationModel
from stratopt.poly import double_cone
from stratopt.verify import finite_diff_grad

CONE = Chart.cone()


def hyperboloid(eps=0.05):
    return Chart.hyperboloid(eps)


# -- charts ------------------------------------------------------------------

def test_chart_validation():
    with pytest.raises(ValueError):
        Chart.hyperboloid(0.0)
    for eps in (-0.1, math.nan):
        with pytest.raises(ValueError):
            Chart(eps)
    assert Chart(0.0) == CONE


def test_embed_cone():
    assert np.allclose(CONE.embed(ChartPoint(1.0, 0.0)), [1, 1, 0], atol=0)
    for theta in (0.0, 1.0, -2.5, 9.0):
        assert np.allclose(CONE.embed(ChartPoint(0.0, theta)), [0, 0, 0], atol=0)


def test_embed_hyperboloid_waist():
    assert np.allclose(hyperboloid(0.04).embed(ChartPoint(0.0, 0.0)), [0, 0.2, 0], atol=1e-15)


def test_chart_point_finite():
    with pytest.raises(ValueError):
        ChartPoint(math.inf, 0.0)


def fd_jacobian(chart, q, h=1e-7):
    cols = []
    for dxi, dth in ((1, 0), (0, 1)):
        hi = chart.embed(ChartPoint(q.xi + h * dxi, q.theta + h * dth))
        lo = chart.embed(ChartPoint(q.xi - h * dxi, q.theta - h * dth))
        cols.append((hi - lo) / (2 * h))
    return np.stack(cols, axis=1)


def test_jacobian_cone_examples():
    J = CONE.jacobian(ChartPoint(1.0, 0.0))
    assert np.allclose(J[:, 0], [1, 1, 0], atol=0)
    assert np.allclose(J[:, 1], [0, 0, 1], atol=0)
    J0 = CONE.jacobian(ChartPoint(0.0, 0.7))
    assert np.allclose(J0[:, 1], 0.0, atol=0)  # angular column dies at the apex


def test_jacobian_hyperboloid_waist_against_fd():
    eps = 0.04
    J = hyperboloid(eps).jacobian(ChartPoint(0.0, 0.0))
    assert np.allclose(J[:, 0], [1, 0, 0], atol=1e-12)
    assert np.allclose(J[:, 1], [0, 0, math.sqrt(eps)], atol=1e-12)
    assert np.allclose(J, fd_jacobian(hyperboloid(eps), ChartPoint(0.0, 0.0)), atol=1e-7)


@given(st.floats(-2, 2), st.floats(-6, 6), st.sampled_from([0.0, 0.01, 0.1, 1.0]))
def test_jacobian_matches_fd_everywhere(xi, theta, eps):
    chart = CONE if eps == 0.0 else hyperboloid(eps)
    q = ChartPoint(xi, theta)
    assert np.allclose(chart.jacobian(q), fd_jacobian(chart, q), atol=5e-7)


@given(st.floats(-2, 2), st.floats(-6, 6), st.sampled_from([0.01, 0.1, 1.0]))
def test_embeddings_satisfy_variety_constraint(xi, theta, eps):
    h = double_cone()
    mu_cone = CONE.embed(ChartPoint(xi, theta))
    assert abs(h.eval(mu_cone)) < 1e-12
    mu_hyp = hyperboloid(eps).embed(ChartPoint(xi, theta))
    assert abs(h.eval(mu_hyp) - eps) < 1e-12


def test_hyperboloid_approaches_cone_away_from_apex():
    # pointwise chart convergence with the stated bound, valid for xi >= sqrt(eps)
    rng = np.random.default_rng(5)
    for eps in (1e-2, 1e-3, 1e-4):
        for _ in range(50):
            xi = rng.uniform(math.sqrt(eps), 2.0)
            theta = rng.uniform(-4, 4)
            q = ChartPoint(xi, theta)
            diff = np.linalg.norm(hyperboloid(eps).embed(q) - CONE.embed(q))
            assert diff <= eps / (2 * max(abs(xi), math.sqrt(eps))) + 1e-15


# -- model --------------------------------------------------------------------

def test_target_mean_validation():
    with pytest.raises(ValueError):
        GaussianLocationModel(CONE, np.zeros(2))
    with pytest.raises(ValueError):
        GaussianLocationModel(CONE, [1.0, np.nan, 0.0])


def test_loss_examples():
    q = ChartPoint(0.8, -1.1)
    m_fit = GaussianLocationModel(CONE, CONE.embed(q))
    assert m_fit.loss(q) == 0.0
    m_apex = GaussianLocationModel(CONE, [-1.0, -1.0, 0.0])
    assert m_apex.loss(ChartPoint(0.0, 2.2)) == 1.0
    m_origin = GaussianLocationModel(CONE, [0.0, 0.0, 0.0])
    assert m_origin.loss(ChartPoint(1.0, 0.0)) == 1.0


def test_loss_grad_examples():
    m = GaussianLocationModel(CONE, [0.0, 0.0, 0.0])
    assert np.allclose(m.loss_grad(ChartPoint(1.0, 0.0)), [2.0, 0.0], atol=0)
    q = ChartPoint(0.8, -1.1)
    m_fit = GaussianLocationModel(CONE, CONE.embed(q))
    assert np.allclose(m_fit.loss_grad(q), [0.0, 0.0], atol=1e-15)


def test_loss_grad_matches_fd_at_random_configurations():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        chart = CONE if rng.random() < 0.5 else hyperboloid(float(rng.uniform(0.01, 1.0)))
        q = ChartPoint(float(rng.uniform(-2, 2)), float(rng.uniform(-4, 4)))
        xbar = CONE.embed(ChartPoint(float(rng.uniform(-2, 2)), float(rng.uniform(-4, 4))))
        xbar = xbar + rng.normal(0, 0.5, size=3)
        m = GaussianLocationModel(chart, xbar)
        g = m.loss_grad(q)
        fd = finite_diff_grad(m.loss, q)
        worst = max(worst, float(np.linalg.norm(fd - g) / max(1.0, np.linalg.norm(g))))
    assert worst < 1e-6


def test_fim_cone_closed_form():
    m = GaussianLocationModel(CONE, np.zeros(3))
    for xi in (-1.7, -0.3, 0.5, 1.0, 2.0):
        F = m.fim(ChartPoint(xi, 0.9))
        assert np.abs(F - np.diag([2.0, xi * xi])).max() < 1e-12


def test_fim_degenerates_at_apex():
    m = GaussianLocationModel(CONE, np.zeros(3))
    F = m.fim(ChartPoint(0.0, 0.4))
    assert np.allclose(F, np.diag([2.0, 0.0]), atol=1e-15)
    assert np.linalg.det(F) == 0.0


def test_fim_hyperboloid_closed_form():
    for eps in (0.01, 0.1, 1.0):
        m = GaussianLocationModel(hyperboloid(eps), np.zeros(3))
        for xi in (-2.0, -0.5, 0.0, 0.7, 1.9):
            F = m.fim(ChartPoint(xi, -2.2))
            want = np.diag([(eps + 2 * xi * xi) / (eps + xi * xi), eps + xi * xi])
            assert np.abs(F - want).max() < 1e-12


def test_fim_hyperboloid_waist():
    m = GaussianLocationModel(hyperboloid(0.04), np.zeros(3))
    assert np.abs(m.fim(ChartPoint(0.0, 0.0)) - np.diag([1.0, 0.04])).max() < 1e-12


@given(st.floats(-2, 2), st.floats(-6, 6), st.sampled_from([0.0, 0.01, 0.1, 1.0]))
def test_fim_positive_semidefinite(xi, theta, eps):
    chart = CONE if eps == 0.0 else hyperboloid(eps)
    m = GaussianLocationModel(chart, np.zeros(3))
    eig = np.linalg.eigvalsh(m.fim(ChartPoint(xi, theta)))
    assert eig.min() >= -1e-14
    if eps > 0.0:
        assert eig.min() >= min(eps, 1.0) - 1e-12

