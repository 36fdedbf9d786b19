"""Semi-implicit channel solver with the dynamic wall-stress closure.

Fluctuation vorticity (Fourier modes k != 0) and the mean profile U0(y)
are advanced by a one-step predictor-corrector: implicit Euler predictor,
Crank-Nicolson diffusion with Heun advection in the corrector.  The wall
law is closed implicitly per mode by a 2x2 influence solve that makes the
imposed wall vorticity g + beta*u_tau consistent with the slip the new
field itself induces; this keeps the scheme stable for arbitrarily stiff
wall friction.  In "euler" mode diffusion and the wall law are switched
off and the same advection terms are advanced explicitly (Heun).

Every per-mode map of a step is linear and fixed for given (dt, Re, grid),
so the solver builds each one once as an operator stack (see
``elliptic.apply_modes``) and applies it as one matmul per stage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .elliptic import (
    SolverError,
    _bc_row,
    _wall_rows,
    apply_modes,
    streamfunction_operator,
    tau_matrices,
    velocity_spectral,
)
from .grid import ChannelGrid, Field2D, cheb_diff_matrices, cheb_forward, cheb_inverse
from .params import SimParams
from .wallbc import exp_weights, step_boundary_ode

_MODES = ("navier_stokes", "euler")
_FORCINGS = ("zero", "steady_pressure_gradient")
_SLIP_SIGN = np.array([[-1.0], [1.0]])


class CFLError(RuntimeError):
    """Advective CFL number exceeded the configured bound."""


class SolverDivergedError(RuntimeError):
    """A field of the solver state stopped being finite."""

    def __init__(self, step: int, t: float, field: str):
        super().__init__(f"non-finite {field} at step {step} (t={t:.6g})")
        self.step = step
        self.t = t
        self.field = field


@dataclass(frozen=True)
class SolverConfig:
    dt: float
    t_end: float
    mode: str = "navier_stokes"
    forcing: str = "zero"
    forcing_amplitude: float = 0.0
    cfl_max: float = 0.5
    checkpoint_every: int = 1000
    record_every: int = 1

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be positive, got {self.dt!r}")
        if not (math.isfinite(self.t_end) and self.t_end >= 0):
            raise ValueError(f"t_end must be nonnegative, got {self.t_end!r}")
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if self.forcing not in _FORCINGS:
            raise ValueError(f"forcing must be one of {_FORCINGS}, got {self.forcing!r}")
        if not math.isfinite(self.forcing_amplitude):
            raise ValueError(f"forcing_amplitude must be finite, got {self.forcing_amplitude!r}")
        if not (0.0 < self.cfl_max < 1.0):
            raise ValueError(f"cfl_max must lie in (0, 1), got {self.cfl_max!r}")
        if self.checkpoint_every < 1 or self.record_every < 1:
            raise ValueError("checkpoint_every and record_every must be >= 1")

    @property
    def mean_force(self) -> float:
        return self.forcing_amplitude if self.forcing == "steady_pressure_gradient" else 0.0


@dataclass(frozen=True)
class FlowState:
    """Solver state: fluctuation vorticity, mean profile, wall stresses.

    ``g`` is the (2, nx) wall stress, row 0 the top wall and row 1 the
    bottom, in the order of the physical grid rows.
    """

    omega: Field2D
    mean_u: np.ndarray
    g: np.ndarray
    t: float = 0.0
    step_index: int = 0

    def with_(self, **kw) -> "FlowState":
        return replace(self, **kw)


def mean_vorticity(mean_u: np.ndarray) -> np.ndarray:
    """Vorticity -dU0/dy of the mean profile at the Gauss-Lobatto nodes."""
    D, _ = cheb_diff_matrices(len(mean_u))
    return cheb_inverse(-(D @ cheb_forward(mean_u)))


def total_vorticity(state: FlowState) -> np.ndarray:
    """Total vorticity of a state at the grid nodes: fluctuation plus mean."""
    return state.omega.values + mean_vorticity(state.mean_u)[:, None]


def total_velocity_spectral(
    grid: ChannelGrid, omega_spec: np.ndarray, mean_coeffs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(u, v) coefficients of the total velocity, all rfft modes.

    The fluctuation's velocity, with the mean profile's Chebyshev
    coefficients written into u's k = 0 column.
    """
    u, v = velocity_spectral(grid, omega_spec)
    u[:, 0] = mean_coeffs
    return u, v


def wall_slip(u_wall: np.ndarray) -> np.ndarray:
    """Slip u_tau from u on the (top, bottom) walls, both (2, nx) arrays.

    The top wall's tangent points in -x, so its slip is -u.
    """
    return u_wall * _SLIP_SIGN


def _zero_mean_column(spec: np.ndarray) -> np.ndarray:
    out = spec.copy()
    out[:, 0] = 0.0
    return out


def initial_state(grid: ChannelGrid, params: SimParams, u=None, v=None) -> FlowState:
    """Build a state from velocity samples (physical arrays or Field2D).

    The wall stress is initialized compatibly, g = omega_wall - beta*u_tau.
    Inputs are dealiased in x.

    g uses the slip traces of the velocity *reconstructed* from the
    vorticity, not the raw input traces.  The two differ by the solenoidal
    projection and the tau truncation, and the solver's wall law closes on
    the reconstructed trace; seeding g from the raw input leaves the state
    off the discrete constraint manifold, which costs a full order of time
    accuracy in a wall layer.
    """
    if u is None:
        u = np.zeros((grid.ny, grid.nx))
    if v is None:
        v = np.zeros((grid.ny, grid.nx))
    uf = u if isinstance(u, Field2D) else Field2D(grid, values=u)
    vf = v if isinstance(v, Field2D) else Field2D(grid, values=v)
    uf = uf.dealias()
    vf = vf.dealias()
    omega_full = vf.ddx() - uf.ddy()
    mean_coeffs = uf.spectral[:, 0].real.copy()
    mean_u = cheb_inverse(mean_coeffs)
    omega_f = Field2D(grid, spectral=_zero_mean_column(omega_full.spectral))

    u_rec, _ = total_velocity_spectral(grid, omega_f.spectral, mean_coeffs)
    slip = wall_slip(grid.spec_to_phys(u_rec)[[0, -1]])
    om_wall = omega_f.values[[0, -1]] + mean_vorticity(mean_u)[[0, -1], None]
    return FlowState(omega=omega_f, mean_u=mean_u, g=om_wall - params.beta * slip)


def slip_poiseuille_profile(params: SimParams, F: float, y: np.ndarray) -> np.ndarray:
    """Analytic steady profile under a mean force F: parabola plus slip.

    friction_ratio - beta = alpha/2 + alpha*Re*Wi/tau - 2*kappa; for
    kappa=0 the wall slip is the Navier-friction slip Re*F/(alpha/2 + friction_ratio).
    """
    s = params.Re * F / (params.friction_ratio - params.beta)
    return params.Re * F / 2.0 * (1.0 - y**2) + s


def steady_channel_state(grid: ChannelGrid, params: SimParams, F: float) -> FlowState:
    """The exact steady state of the forced channel (a solver fixed point)."""
    prof = slip_poiseuille_profile(params, F, grid.y)
    u = np.repeat(prof[:, None], grid.nx, axis=1)
    return initial_state(grid, params, u=u)


class ChannelFlowSolver:
    """Time stepper for the channel with the dynamic wall law."""

    def __init__(self, grid: ChannelGrid, params: SimParams, config: SolverConfig):
        self.grid = grid
        self.params = params
        self.config = config
        self.jmax = grid.dealias_kx
        self._modes = slice(1, self.jmax + 1)
        ny = grid.ny
        self._D, self._D2 = cheb_diff_matrices(ny)

        dt = config.dt
        Re = params.Re
        self._E, self._w0, self._w1 = exp_weights(dt, params.Wi)
        self._slip_coef = params.alpha * Re / params.tau
        self.c2 = params.beta - self._slip_coef * self._w1

        # (J, 2, ny): u at the (top, bottom) wall induced by each vorticity mode
        self._traces = -(_wall_rows(ny) @ self._D) @ streamfunction_operator(grid)[self._modes]

        if config.mode == "navier_stokes":
            self._stage_p = self._stage_operators(Re / dt)
            self._stage_c = self._stage_operators(2.0 * Re / dt)

    def _stage_operators(self, lam: float) -> tuple[np.ndarray, np.ndarray]:
        """Maps of one implicit stage (lam - Laplacian) with the wall law closed.

        Both read the wall data (q_top, q_bottom) from the two tau rows of
        their right-hand side.  The mean profile's rows are the Robin form
        c2*u - u' = q_top, -c2*u - u' = q_bottom.  Each fluctuation mode is
        a Dirichlet tau solve A^-1 P plus the two unit-boundary profiles
        A^-1 E, weighted by the 2x2 influence matrix K (Kleiser & Schumann
        1980) so that the wall vorticity equals g + beta*u_tau for the slip
        the new field induces:

            out = A^-1 P b + A^-1 E K^-1 (E^T b + S T A^-1 P b),
            K = I - S T A^-1 E,  S = diag(-c2, c2),  T = wall u-traces.

        Returns the (ny, ny) mean map and the (J, ny, ny) mode stack.
        """
        ny, c2 = self.grid.ny, self.c2
        robin = np.stack([_bc_row(ny, "top", c2, -1.0), _bc_row(ny, "bottom", -c2, -1.0)])
        mean = np.linalg.inv(tau_matrices(ny, [lam], robin))[0]
        ksq = self.grid.kx[self._modes] ** 2
        A_inv = np.linalg.inv(tau_matrices(ny, lam + ksq, _wall_rows(ny)))
        unit = A_inv[:, :, ny - 2 :].copy()
        A_inv[:, :, ny - 2 :] = 0.0
        S = np.diag([-c2, c2])
        K = np.eye(2) - S @ self._traces @ unit
        weights = S @ self._traces @ A_inv
        weights[:, :, ny - 2 :] = np.eye(2)
        try:
            closure = np.linalg.solve(K, weights)
        except np.linalg.LinAlgError as exc:  # pragma: no cover
            raise SolverError("singular wall influence matrix") from exc
        return mean, A_inv + unit @ closure

    # ---- nonlinear terms ----

    def _nonlinear(self, omega_spec: np.ndarray, mean_coeffs: np.ndarray):
        """Advection for the fluctuation and the mean-flow exchange profile.

        Returns (N_spec, R_coeffs, aux) with N = -(u.grad omega) restricted
        to k != 0, R(y) the x-mean of v*omega (the mean-momentum source),
        and aux carrying physical velocities and the (2, nx) wall slip.
        """
        grid = self.grid
        u_spec, v_spec = total_velocity_spectral(grid, omega_spec, mean_coeffs)
        om_y_spec = self._D @ omega_spec
        om_y_spec[:, 0] = -(self._D2 @ mean_coeffs)

        u_tot = grid.spec_to_phys(u_spec)
        v_phys = grid.spec_to_phys(v_spec)
        om_phys = grid.spec_to_phys(omega_spec)
        om_x = grid.spec_to_phys(omega_spec * (1j * grid.kx))
        om_y = grid.spec_to_phys(om_y_spec)

        adv = grid.phys_to_spec(u_tot * om_x + v_phys * om_y)
        adv[:, self.jmax + 1 :] = 0.0
        adv[grid.dealias_cheb + 1 :, :] = 0.0
        N = -adv
        N[:, 0] = 0.0

        prod = grid.phys_to_spec(v_phys * om_phys)
        R = prod[:, 0].real.copy()
        R[grid.dealias_cheb + 1 :] = 0.0

        return N, R, {"u_tot": u_tot, "v": v_phys, "slip": wall_slip(u_tot[[0, -1]])}

    def _check_cfl(self, aux, state: FlowState):
        speed = max(float(np.max(np.abs(aux["u_tot"]))), float(np.max(np.abs(aux["v"]))))
        if not math.isfinite(speed):
            raise SolverDivergedError(state.step_index, state.t, "velocity")
        dx_min = min(self.grid.dx, self.grid.dy_min)
        cfl = self.config.dt * speed / dx_min
        if cfl > self.config.cfl_max:
            raise CFLError(
                f"CFL {cfl:.3f} > {self.config.cfl_max} at t={state.t:.6g} "
                f"(max speed {speed:.4g}, min spacing {dx_min:.4g})"
            )

    @staticmethod
    def _check_finite(state: FlowState) -> FlowState:
        for name, arr in (
            ("omega", state.omega.spectral),
            ("mean_u", state.mean_u),
            ("g", state.g),
        ):
            if not np.isfinite(arr).all():
                raise SolverDivergedError(state.step_index, state.t, name)
        return state

    # ---- implicit stage ----

    def _implicit_stage(self, stage, rhs_spec, mean_rhs, qhat):
        """Solve (lam + k^2 - D^2) with the wall law closed, mean and modes.

        qhat holds the rfft modes of the (top, bottom) wall data; it is
        written into the tau rows of both right-hand sides, in place.
        """
        mean_op, mode_ops = stage
        mean_rhs[-2:] = qhat[:, 0].real
        b = rhs_spec[:, self._modes]
        b[-2:] = qhat[:, self._modes]
        out = np.zeros_like(rhs_spec)
        out[:, self._modes] = apply_modes(mode_ops, b)
        return out, mean_op @ mean_rhs

    def _wall_slip(self, omega_spec: np.ndarray, mean_u: np.ndarray) -> np.ndarray:
        """Slip u_tau along the (top, bottom) walls as a (2, nx) array."""
        grid = self.grid
        u_hat = np.zeros((2, grid.nkx), dtype=complex)
        u_hat[:, self._modes] = apply_modes(self._traces, omega_spec[:, self._modes])
        u_hat[:, 0] = mean_u[[0, -1]]
        return wall_slip(np.fft.irfft(u_hat * grid.nx, n=grid.nx, axis=1))

    # ---- stepping ----

    def step(self, state: FlowState) -> FlowState:
        if self.config.mode == "euler":
            return self._step_euler(state)
        return self._step_ns(state)

    def _step_ns(self, state: FlowState) -> FlowState:
        grid, params, cfg = self.grid, self.params, self.config
        dt, Re = cfg.dt, params.Re
        mean_coeffs = cheb_forward(state.mean_u.copy())
        om = state.omega.spectral
        force = np.zeros(grid.ny)
        force[0] = cfg.mean_force

        N_n, R_n, aux_n = self._nonlinear(om, mean_coeffs)
        self._check_cfl(aux_n, state)

        # wall data pieces that depend only on the step start, (top, bottom)
        slip_n = aux_n["slip"]
        q = self._E * state.g - self._slip_coef * self._w0 * slip_n
        qhat = np.fft.rfft(q, axis=1) / grid.nx

        lam_p = Re / dt
        om_star, mean_star = self._implicit_stage(
            self._stage_p,
            lam_p * om + Re * N_n,
            lam_p * mean_coeffs + Re * (R_n + force),
            qhat,
        )

        N_s, R_s, _ = self._nonlinear(om_star, mean_star)

        lam_c = 2.0 * Re / dt
        ksq = grid.kx**2
        om_new, mean_new = self._implicit_stage(
            self._stage_c,
            lam_c * om - ksq * om + self._D2 @ om + Re * (N_n + N_s),
            lam_c * mean_coeffs + self._D2 @ mean_coeffs + Re * (R_n + R_s + 2.0 * force),
            qhat,
        )

        # final slip traces close the boundary-stress update
        mean_new_phys = cheb_inverse(mean_new)
        slip_new = self._wall_slip(om_new, mean_new_phys)

        return self._check_finite(
            FlowState(
                omega=Field2D(grid, spectral=om_new),
                mean_u=mean_new_phys,
                g=step_boundary_ode(state.g, slip_n, params, dt, u_tau_end=slip_new),
                t=state.t + dt,
                step_index=state.step_index + 1,
            )
        )

    def _step_euler(self, state: FlowState) -> FlowState:
        cfg = self.config
        dt = cfg.dt
        mean_coeffs = cheb_forward(state.mean_u.copy())
        om = state.omega.spectral
        force = np.zeros(self.grid.ny)
        force[0] = cfg.mean_force

        N_n, R_n, aux_n = self._nonlinear(om, mean_coeffs)
        self._check_cfl(aux_n, state)
        om_star = om + dt * N_n
        mean_star = mean_coeffs + dt * (R_n + force)

        N_s, R_s, _ = self._nonlinear(om_star, mean_star)
        om_new = om + 0.5 * dt * (N_n + N_s)
        mean_new = mean_coeffs + 0.5 * dt * (R_n + R_s + 2.0 * force)

        return self._check_finite(
            FlowState(
                omega=Field2D(self.grid, spectral=om_new),
                mean_u=cheb_inverse(mean_new),
                g=state.g,
                t=state.t + dt,
                step_index=state.step_index + 1,
            )
        )

    def run(self, state: FlowState, t_end: float | None = None, callback=None) -> FlowState:
        """Step until t_end (default: config.t_end); t_end=t is a no-op."""
        if t_end is None:
            t_end = self.config.t_end
        span = t_end - state.t
        if span < -1e-12:
            raise ValueError(f"t_end={t_end} lies before state.t={state.t}")
        n = int(round(span / self.config.dt))
        if abs(n * self.config.dt - span) > 1e-9 * max(1.0, abs(span)):
            raise ValueError(
                f"t_end - t = {span} is not an integer number of steps of dt={self.config.dt}"
            )
        for _ in range(n):
            state = self.step(state)
            if callback is not None:
                callback(state)
        return state

    # ---- reconstruction ----

    def slip_traces(self, state: FlowState) -> np.ndarray:
        """Slip u_tau along the (top, bottom) walls as a (2, nx) array."""
        return self._wall_slip(state.omega.spectral, state.mean_u)
