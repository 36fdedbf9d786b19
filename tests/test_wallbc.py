import math

import numpy as np
import pytest

from nspb.flow import slip_poiseuille_profile
from nspb.params import SimParams
from nspb.wallbc import MaxwellWall, exp_weights, step_boundary_ode


def duhamel_boundary(g0, times, u_tau_series, params: SimParams, t: float):
    """Evaluate g(t) from the slip history by piecewise-linear quadrature:
    the Duhamel form of the wall law, the reference for step_boundary_ode.

    ``times`` is an increasing sample grid starting at 0 and ``u_tau_series``
    the matching slip samples (leading axis = time).  The result is exact for
    slip histories linear on each sample interval.
    """
    times = np.asarray(times, dtype=float)
    u = np.asarray(u_tau_series, dtype=float)
    if times.ndim != 1 or len(times) != u.shape[0]:
        raise ValueError("times and u_tau_series must align on the leading axis")
    if times[0] != 0.0:
        raise ValueError("history must start at time 0")
    if t < -1e-15 or t > times[-1] + 1e-12:
        raise ValueError(f"t={t} outside the sampled history [0, {times[-1]}]")
    g0 = np.asarray(g0, dtype=float)
    coef = params.alpha * params.Re / params.tau
    acc = np.zeros_like(u[0], dtype=float)
    reached = 0.0
    for i in range(len(times) - 1):
        t0, t1 = times[i], times[i + 1]
        if t0 >= t - 1e-15:
            break
        u0, u1 = u[i], u[i + 1]
        if t1 > t:  # partial last segment
            frac = (t - t0) / (t1 - t0)
            u1 = u0 + frac * (u1 - u0)
            t1 = t
        E, w0, w1 = exp_weights(t1 - t0, params.Wi)
        acc = E * acc + w0 * u0 + w1 * u1
        reached = t1
    E_tail = math.exp(-(t - reached) / params.Wi) if t > reached else 1.0
    return math.exp(-t / params.Wi) * g0 - coef * E_tail * acc


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
    zero = np.array([0.0])
    out = step_boundary_ode(np.array([1.0]), zero, MaxwellWall(params, 0.5), u_tau_end=zero)
    assert out[0] == pytest.approx(0.6065306597126334, abs=1e-12)


def test_constant_slip_reaches_friction_fixed_point(params):
    c = 0.3
    g = np.array([0.0])
    E = math.exp(-0.5 / params.Wi)
    wall = MaxwellWall(params, 0.5)
    for n in range(1, 41):
        g = step_boundary_ode(g, np.array([c]), wall, u_tau_end=np.array([c]))
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
    wall = MaxwellWall(params, dt)
    for i in range(n):
        u0 = math.sin(i * dt)
        u1 = math.sin((i + 1) * dt)
        g = step_boundary_ode(g, np.array([u0]), wall, u_tau_end=np.array([u1]))
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
    wall = MaxwellWall(params, dt)
    for i in range(n):
        g = step_boundary_ode(g, u[i], wall, u_tau_end=u[i + 1])
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


@pytest.mark.parametrize("Re, alpha", [(37.0, 3.0), (29.0, 7.0)])
def test_law_arithmetic_is_bitwise_the_inline_formulas(Re, alpha):
    # At Wi, tau, alpha and Re off the dyadic values the shipped configs use,
    # each of the law's numbers must equal, to the last bit, the formula
    # written out here, so the CSV and checkpoint bytes stay put.  Closing the
    # step as drive(g, u) - b*u_end changes bits at both points; at the
    # second, (tau/(alpha Re^2))/Wi for tau/(alpha Re^2 Wi) does too.
    from dataclasses import replace

    from nspb.diagnostics import compute_record
    from nspb.flow import ChannelFlowSolver, SolverConfig, initial_state
    from nspb.grid import ChannelGrid

    params = SimParams(Re=Re, Wi=0.3, tau=7.0, alpha=alpha, kappa=0.2)
    dt = 3e-3
    grid = ChannelGrid(nx=24, ny=25, lx=2.0 * np.pi)
    rng = np.random.default_rng(20190419)
    g, u0, u1 = rng.standard_normal((3, 2, grid.nx))

    E, w0, w1 = exp_weights(dt, params.Wi)
    coef = params.alpha * params.Re / params.tau
    wall = MaxwellWall(params, dt)
    assert np.array_equal(
        step_boundary_ode(g, u0, wall, u_tau_end=u1), E * g - coef * (w0 * u0 + w1 * u1)
    )
    assert np.array_equal(wall.drive(g, u0), E * g - coef * w0 * u0)

    solver = ChannelFlowSolver(grid, params, SolverConfig(dt=dt, t_end=1.0))
    assert solver.c2 == params.beta - params.alpha * params.Re / params.tau * w1

    # a state's g is the (2, J+1) Fourier modes 0..J of both walls, and the
    # record integrates |g|^2 over them by Parseval: lx at k = 0, 2 lx above
    J = grid.dealias_kx
    g = rng.standard_normal((2, J + 1)) + 1j * rng.standard_normal((2, J + 1))
    g[:, 0] = g[:, 0].real
    rec = compute_record(replace(initial_state(grid, params), g=g), params)
    cx = np.full(J + 1, 2.0 * grid.lx)
    cx[0] = grid.lx
    wall_g_sq = float(cx @ (g.real**2 + g.imag**2).sum(axis=0))
    assert rec.boundary_stress_energy == params.tau / (2.0 * params.alpha * Re**2) * wall_g_sq
    assert rec.boundary_relaxation_dissipation == (
        params.tau / (params.alpha * Re**2 * params.Wi) * wall_g_sq
    )
