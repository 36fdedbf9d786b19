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


def step_boundary_ode(g, u_tau, params: SimParams, dt: float, u_tau_end) -> np.ndarray:
    """Advance g over one step by the exact exponential integrator.

    g and the slips are plain arrays of one shape; the solver passes both
    walls at once as (2, nx) arrays, row 0 the top wall and row 1 the
    bottom.  The slip runs linearly from ``u_tau`` at the step start to
    ``u_tau_end`` at its end (the exponential trapezoid, second order).
    """
    E, w0, w1 = exp_weights(dt, params.Wi)
    quad = w0 * np.asarray(u_tau, dtype=float) + w1 * np.asarray(u_tau_end, dtype=float)
    coef = params.alpha * params.Re / params.tau
    return E * np.asarray(g, dtype=float) - coef * quad
