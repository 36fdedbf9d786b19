import math

import numpy as np
import pytest

from nspb.flow import slip_poiseuille_profile
from nspb.params import SimParams
from nspb.wallbc import duhamel_boundary, exp_weights, step_boundary_ode


@pytest.fixture()
def params():
    # friction_ratio = 10, beta = -5
    return SimParams(Re=10.0, Wi=1.0, tau=10.0, alpha=10.0, kappa=0.0)


def test_exp_weights_limits():
    E, w0, w1 = exp_weights(1e-7, 2.0)
    assert E == pytest.approx(math.exp(-5e-8), rel=1e-12)
    assert w0 == pytest.approx(5e-8, rel=1e-4)
    assert w1 == pytest.approx(5e-8, rel=1e-4)
    E, w0, w1 = exp_weights(0.5, 1.0)
    assert w0 + w1 == pytest.approx(1.0 - math.exp(-0.5), rel=1e-13)


def test_free_decay_half_step(params):
    out = step_boundary_ode(np.array([1.0]), np.array([0.0]), params, 0.5)
    assert out[0] == pytest.approx(0.6065306597126334, abs=1e-12)


def test_constant_slip_reaches_friction_fixed_point(params):
    c = 0.3
    g = np.array([0.0])
    E = math.exp(-0.5 / params.Wi)
    for n in range(1, 41):
        g = step_boundary_ode(g, np.array([c]), params, 0.5)
        expected = -params.friction_ratio * c * (1.0 - E**n)
        assert g[0] == pytest.approx(expected, rel=1e-12)
    assert g[0] == pytest.approx(-params.friction_ratio * c, rel=1e-7)


def _exact_sine_response(params, T):
    # g' = -g/Wi - coef sin(t), g(0)=0
    W = params.Wi
    coef = params.alpha * params.Re / params.tau
    integral = W * (math.sin(T) - W * math.cos(T) + W * math.exp(-T / W)) / (1.0 + W * W)
    return -coef * integral


def _stepped_sine_response(params, T, n):
    dt = T / n
    g = np.array([0.0])
    for i in range(n):
        u0 = math.sin(i * dt)
        u1 = math.sin((i + 1) * dt)
        g = step_boundary_ode(g, np.array([u0]), params, dt, u_tau_end=np.array([u1]))
    return g[0]


def test_trapezoid_update_is_second_order(params):
    T = 2.0
    exact = _exact_sine_response(params, T)
    e1 = abs(_stepped_sine_response(params, T, 40) - exact)
    e2 = abs(_stepped_sine_response(params, T, 80) - exact)
    assert e1 / e2 >= 3.5


def test_duhamel_at_zero_returns_g0(params):
    g0 = np.array([2.5, -1.0])
    times = np.array([0.0, 0.1, 0.2])
    u = np.zeros((3, 2))
    out = duhamel_boundary(g0, times, u, params, 0.0)
    assert np.array_equal(out, g0)


def test_duhamel_matches_step_recursion(params):
    # both walls at once, in the solver's (2, nx) layout
    n = 50
    dt = 0.04
    times = np.arange(n + 1) * dt
    u = np.sin(times)[:, None, None] * np.array([[1.0, 0.5, -0.2], [-1.0, 0.3, 0.8]])
    g0 = np.array([[0.7, 0.7, 0.7], [-0.4, 0.1, 0.0]])
    g = g0
    for i in range(n):
        g = step_boundary_ode(g, u[i], params, dt, u_tau_end=u[i + 1])
    via_duhamel = duhamel_boundary(g0, times, u, params, times[-1])
    assert g.shape == (2, 3)
    assert np.max(np.abs(g - via_duhamel)) < 1e-12


def test_duhamel_partial_segment(params):
    times = np.array([0.0, 1.0])
    u = np.array([[1.0], [1.0]])
    out = duhamel_boundary(np.array([0.0]), times, u, params, 0.5)
    coef = params.alpha * params.Re / params.tau
    expected = -coef * params.Wi * (1.0 - math.exp(-0.5 / params.Wi))
    assert out[0] == pytest.approx(expected, rel=1e-12)


def test_steady_slip_value_and_monotonicity(params):
    # the forced channel's wall slip: wall shear Re*F = 15 over alpha/2 + friction_ratio
    walls = np.array([1.0, -1.0])
    F = 15.0 / params.Re
    np.testing.assert_allclose(slip_poiseuille_profile(params, F, walls), 1.0, rtol=1e-14)
    slips = []
    for alpha in [5.0, 10.0, 20.0, 40.0, 80.0]:
        p = SimParams(Re=10.0, Wi=1.0, tau=10.0, alpha=alpha, kappa=0.0)
        slips.append(float(slip_poiseuille_profile(p, F, walls)[0]))
    assert all(a > b for a, b in zip(slips, slips[1:]))
