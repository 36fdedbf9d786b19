"""Dynamic wall-stress law and its exact-exponential time integration.

The boundary trace g = 2(D(u)n)*tau + (alpha/2) u*tau relaxes as

    (d/dt + 1/Wi) g = -(alpha*Re/tau) u*tau

so over one step g is advanced by the exact exponential with the slip
history entering through a discounted integral (Duhamel form).  The wall
vorticity follows from g via omega_wall = g + beta * u*tau with
beta = 2*kappa - alpha/2.
"""

from __future__ import annotations

import math

import numpy as np

from .params import SimParams


def exp_weights(dt: float, Wi: float) -> tuple[float, float, float]:
    """Decay factor and endpoint weights of the exponential trapezoid.

    Returns (E, w0, w1) with E = exp(-dt/Wi) and
    integral_0^dt exp(-(dt-s)/Wi) u(s) ds = w0*u(0) + w1*u(dt)
    exact for linear-in-time u.
    """
    if dt < 0:
        raise ValueError("dt must be nonnegative")
    em = -math.expm1(-dt / Wi)  # 1 - exp(-dt/Wi) without cancellation
    E = 1.0 - em
    I0 = Wi * em
    I1 = Wi * dt - Wi * Wi * em
    w1 = I1 / dt if dt > 0 else 0.0
    return E, I0 - w1, w1


def step_boundary_ode(g, u_tau, params: SimParams, dt: float, u_tau_end=None) -> np.ndarray:
    """Advance g over one step by the exact exponential integrator.

    g and the slips are plain arrays of one shape; the solver passes both
    walls at once as (2, nx) arrays, row 0 the top wall and row 1 the
    bottom.  With only ``u_tau`` the slip is held constant over the step;
    passing ``u_tau_end`` as well uses the exponential trapezoid (second
    order).
    """
    E, w0, w1 = exp_weights(dt, params.Wi)
    u0 = np.asarray(u_tau, dtype=float)
    if u_tau_end is None:
        quad = params.Wi * (1.0 - E) * u0
    else:
        quad = w0 * u0 + w1 * np.asarray(u_tau_end, dtype=float)
    coef = params.alpha * params.Re / params.tau
    return E * np.asarray(g, dtype=float) - coef * quad


def duhamel_boundary(g0, times, u_tau_series, params: SimParams, t: float):
    """Evaluate g(t) from the slip history by piecewise-linear quadrature.

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
