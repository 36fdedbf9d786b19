"""The dynamic wall-stress law: the one home of its step, closure scalar and energy.

The boundary trace g = 2(D(u)n)*tau + (alpha/2) u*tau relaxes as

    (d/dt + 1/Wi) g = -(alpha*Re/tau) u*tau

so over one step g is advanced by the exact exponential with the slip
history entering through a discounted integral (Duhamel form).  The wall
vorticity follows from g via omega_wall = g + beta * u*tau with
beta = 2*kappa - alpha/2.
"""

from __future__ import annotations

import math

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


class MaxwellWall:
    """The law over one step of dt: E, w0, w1 from ``exp_weights``, coef = alpha*Re/tau,
    and b = coef*w1, the end-slip weight the solver's implicit wall closure folds in."""

    def __init__(self, params: SimParams, dt: float):
        self.E, self.w0, self.w1 = exp_weights(dt, params.Wi)
        self.coef = params.alpha * params.Re / params.tau
        self.b = self.coef * self.w1

    def drive(self, g, u_tau):
        """The update's part fixed at the step start, E*g - coef*w0*u_tau."""
        return self.E * g - self.coef * self.w0 * u_tau


def step_boundary_ode(g, u_tau, wall: MaxwellWall, u_tau_end):
    """Advance g over one step of ``wall`` by the exact exponential integrator.

    g and the slips are arrays of one shape, in the solver the (2, J+1) Fourier
    modes 0..J of both walls (row 0 the top wall).  The slip runs linearly from
    ``u_tau`` to ``u_tau_end`` over the step (the exponential trapezoid).  The algebraically equal
    ``wall.drive(g, u_tau) - wall.b * u_tau_end`` would change g's last bits.
    """
    return wall.E * g - wall.coef * (wall.w0 * u_tau + wall.w1 * u_tau_end)


def wall_stress_terms(params: SimParams, g_sq: float) -> tuple[float, float]:
    """Stored energy tau/(2 alpha Re^2) g_sq and relaxation drain tau/(alpha Re^2 Wi) g_sq."""
    e_g = params.tau / (2.0 * params.alpha * params.Re**2) * g_sq
    return e_g, params.tau / (params.alpha * params.Re**2 * params.Wi) * g_sq
