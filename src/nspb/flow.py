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
from dataclasses import dataclass

import numpy as np

from .elliptic import (
    SolverError,
    _bc_row,
    _wall_rows,
    apply_modes,
    biot_savart,
    streamfunction_operator,
    tau_matrices,
)
from .grid import (
    ChannelGrid,
    GridError,
    cheb_diff_matrices,
    cheb_forward,
    cheb_synthesis_matrix,
    real_matmul,
)
from .params import SimParams
from .wallbc import MaxwellWall, step_boundary_ode

_MODES = ("navier_stokes", "euler")
_FORCINGS = ("zero", "steady_pressure_gradient")
_SLIP_SIGN = np.array([[-1.0], [1.0]])


class CFLError(RuntimeError):
    """The directional CFL number exceeded the configured bound."""

    def __init__(self, cfl: float, cfl_max: float, t: float, node: tuple[int, int]):
        super().__init__(
            f"directional CFL number dt*max(|u|/dx + |v|/dy_local) = {cfl:.4g} "
            f"> cfl_max = {cfl_max:g} at t={t:.6g}, peaked at node (row, column) = {node}"
        )
        self.cfl = cfl
        self.cfl_max = cfl_max
        self.t = t
        self.node = node


class SolverDivergedError(RuntimeError):
    """A field of the solver state stopped being finite."""

    def __init__(self, step: int, t: float, field: str):
        super().__init__(f"non-finite {field} at step {step} (t={t:.6g})")
        self.step = step
        self.t = t
        self.field = field


def whole_steps(span: float, dt: float) -> int | None:
    """round(span / dt) when span is that many steps of dt to a relative 1e-9, else None."""
    n = round(span / dt)
    return n if abs(n * dt - span) <= 1e-9 * max(1.0, abs(span)) else None


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

    ``omega`` is the (ny, J) complex Chebyshev x Fourier coefficient array
    of the fluctuation vorticity on the modes the solver evolves, k_1..k_J
    (``grid.kx[1:J+1]``, J = ``grid.dealias_kx``, the 2/3 rule); the x-mean
    lives in ``mean`` and no mode above J is stored.  ``mean`` holds the
    (ny,) real Chebyshev coefficients of the mean profile U0(y).  ``g`` is
    the (2, nx) wall stress at the grid nodes, row 0 the top wall and row 1
    the bottom, in the order of the physical grid rows.  A field of another
    shape is a ``GridError`` that names it.
    """

    grid: ChannelGrid
    omega: np.ndarray
    mean: np.ndarray
    g: np.ndarray
    t: float = 0.0
    step_index: int = 0

    def __post_init__(self):
        grid = self.grid
        for name, want in (
            ("omega", (grid.ny, grid.dealias_kx)),
            ("mean", (grid.ny,)),
            ("g", (2, grid.nx)),
        ):
            got = np.shape(getattr(self, name))
            if got != want:
                raise GridError(f"FlowState.{name} has shape {got}, not {want}")


def total_velocity(
    grid: ChannelGrid, omega: np.ndarray, mean_coeffs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(u, v) coefficients of the total velocity on modes 0..J, (ny, J+1) each.

    The fluctuation's velocity from ``biot_savart``, with the mean profile's
    Chebyshev coefficients in u's k = 0 column and 0 in v's.  An ``irfft``
    with ``n=grid.nx`` reads the modes above J as 0.
    """
    u, v = biot_savart(grid, omega)
    return np.column_stack([mean_coeffs, u]), np.column_stack([np.zeros(grid.ny), v])


def wall_slip(u_wall: np.ndarray) -> np.ndarray:
    """Slip u_tau from u on the (top, bottom) walls, both (2, nx) arrays.

    The top wall's tangent points in -x, so its slip is -u.
    """
    return u_wall * _SLIP_SIGN


def initial_state(grid: ChannelGrid, params: SimParams, u=None, v=None) -> FlowState:
    """Build a state from velocity samples, (ny, nx) arrays at the grid nodes.

    The wall stress is initialized compatibly, g = omega_wall - beta*u_tau.
    Inputs are dealiased in x.

    g uses the slip traces of the velocity *reconstructed* from the
    vorticity, not the raw input traces.  The two differ by the solenoidal
    projection and the tau truncation, and the solver's wall law closes on
    the reconstructed trace; seeding g from the raw input leaves the state
    off the discrete constraint manifold, which costs a full order of time
    accuracy in a wall layer.
    """
    shape = (grid.ny, grid.nx)
    spec = []
    for name, f in (("u", u), ("v", v)):
        f = np.zeros(shape) if f is None else np.asarray(f, dtype=float)
        if f.shape != shape:
            raise GridError(f"{name} has shape {f.shape}, not (ny, nx) = {shape}")
        spec.append(grid.phys_to_spec(f))
    u_hat, v_hat = spec
    D, _ = cheb_diff_matrices(grid.ny)
    modes = slice(1, grid.dealias_kx + 1)
    omega = v_hat[:, modes] * (1j * grid.kx[modes]) - real_matmul(D, u_hat[:, modes])
    mean = u_hat[:, 0].real.copy()

    # u and the total vorticity (the mean's -U0' at k = 0) on both walls
    u_rec, _ = total_velocity(grid, omega, mean)
    om_tot = np.column_stack([-(D @ mean), omega])
    walls = real_matmul(_wall_rows(grid.ny), np.stack([u_rec, om_tot]))
    u_wall, om_wall = np.fft.irfft(walls, n=grid.nx, axis=-1, norm="forward")
    return FlowState(
        grid=grid, omega=omega, mean=mean, g=om_wall - params.beta * wall_slip(u_wall)
    )


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
    """Time stepper for the channel with the dynamic wall law.

    ``cfl_peak`` is the largest directional CFL number the solver has checked
    and the t of the step start where it occurred; (0.0, None) before a step.
    """

    def __init__(self, grid: ChannelGrid, params: SimParams, config: SolverConfig):
        self.grid = grid
        self.params = params
        self.config = config
        self.jmax = grid.dealias_kx
        ny = grid.ny
        self._D, self._D2 = cheb_diff_matrices(ny)

        dt = config.dt
        Re = params.Re
        self.wall = MaxwellWall(params, dt)
        self.c2 = params.beta - self.wall.b

        # (J, ny, ny): vorticity modes 1..J to streamfunction coefficients
        self._psi_ops = streamfunction_operator(grid)
        self._ksq = grid.kx[1 : self.jmax + 1] ** 2
        # the mean-momentum forcing in Chebyshev coefficients (F times T_0)
        self._force = np.zeros(ny)
        self._force[0] = config.mean_force
        # (2, ny): a coefficient column's values at the (top, bottom) wall
        self._walls = _wall_rows(ny)
        # (J, 2, ny): u at the (top, bottom) wall induced by each vorticity mode
        self._traces = -(self._walls @ self._D) @ self._psi_ops
        self._synth = cheb_synthesis_matrix(ny)
        # node values to the Chebyshev coefficients a dealiased product keeps
        self._fwd = cheb_forward(np.eye(ny))[: grid.dealias_cheb + 1]
        # dt over the node spacings of the directional CFL number
        self._dt_dx = dt / grid.dx
        self._dt_dy = (dt / grid.dy_local)[:, None]
        self.cfl_peak = (0.0, None)

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
        A_inv = np.linalg.inv(tau_matrices(ny, lam + self._ksq, _wall_rows(ny)))
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

    def _nonlinear(self, omega: np.ndarray, mean_coeffs: np.ndarray):
        """Advection for the fluctuation and the mean-flow exchange profile.

        Takes a ``FlowState``'s (ny, J) vorticity modes 1..J and mean
        coefficients.  Returns (N, R_coeffs, aux) with N = -(u.grad omega)
        on modes 1..J, R(y) the x-mean of v*omega (the mean-momentum
        source), and aux carrying physical velocities and the (2, nx) wall
        slip.

        One real matmul takes [mean | psi | mean vorticity | omega]
        coefficients to node values and d/dy node values; the five fields
        u, v, omega, omega_x, omega_y then share one irfft of modes 0..J
        (it reads the modes above J as 0), and the two products one rfft and
        one matmul onto the dealiased rows.
        """
        grid, ny, J = self.grid, self.grid.ny, self.jmax
        modes = slice(1, J + 1)
        ikx = 1j * grid.kx[modes]
        cols = np.empty((ny, 2 * (J + 1)), dtype=complex)
        cols[:, 0] = mean_coeffs
        cols[:, modes] = apply_modes(self._psi_ops, omega)
        cols[:, J + 1] = -(self._D @ mean_coeffs)
        cols[:, J + 2 :] = omega
        vals = real_matmul(self._synth, cols)
        f, df = vals[:ny], vals[ny:]

        spec = np.zeros((5, ny, J + 1), dtype=complex)
        spec[0, :, 0] = f[:, 0]  # the mean profile
        spec[0, :, modes] = -df[:, modes]  # u = -psi_y
        spec[1, :, modes] = f[:, modes] * ikx  # v = ik psi
        spec[2, :, modes] = f[:, J + 2 :]  # omega
        spec[3, :, modes] = spec[2, :, modes] * ikx  # omega_x
        spec[4] = df[:, J + 1 :]  # omega_y, the mean's -U0'' at k = 0
        u, v, om, om_x, om_y = np.fft.irfft(spec, n=grid.nx, axis=-1, norm="forward")

        prod = np.empty((2, ny, grid.nx))
        np.multiply(u, om_x, out=prod[0])
        prod[0] += v * om_y
        np.multiply(v, om, out=prod[1])
        prod_hat = np.fft.rfft(prod, axis=-1, norm="forward")[..., : J + 1]
        adv, exchange = real_matmul(self._fwd, prod_hat)

        N = np.zeros((ny, J), dtype=complex)
        N[: len(self._fwd)] = -adv[:, 1:]
        R = np.zeros(ny)
        R[: len(self._fwd)] = exchange[:, 0].real
        return N, R, {"u_tot": u, "v": v, "slip": wall_slip(u[[0, -1]])}

    def _check_cfl(self, aux, state: FlowState):
        """Directional CFL number of the step start, dt*max(|u|/dx + |v|/dy_local).

        Raises SolverDivergedError on a non-finite velocity and CFLError above
        cfl_max; keeps the largest number so far, with its t, in cfl_peak.
        """
        number = np.abs(aux["u_tot"]) * self._dt_dx
        number += np.abs(aux["v"]) * self._dt_dy
        cfl = float(number.max())
        if not math.isfinite(cfl):
            raise SolverDivergedError(state.step_index, state.t, "velocity")
        if cfl > self.cfl_peak[0]:
            self.cfl_peak = (cfl, state.t)
        if cfl > self.config.cfl_max:
            node = tuple(int(i) for i in np.unravel_index(number.argmax(), number.shape))
            raise CFLError(cfl, self.config.cfl_max, state.t, node)

    @staticmethod
    def _check_finite(state: FlowState) -> FlowState:
        for name, arr in (("omega", state.omega), ("mean", state.mean), ("g", state.g)):
            if not np.isfinite(arr).all():
                raise SolverDivergedError(state.step_index, state.t, name)
        return state

    # ---- implicit stage ----

    def _implicit_stage(self, stage, rhs, mean_rhs, qhat):
        """Solve (lam + k^2 - D^2) with the wall law closed, mean and modes 1..J.

        qhat holds rfft modes 0..J of the (top, bottom) wall data; it is
        written into the tau rows of both right-hand sides, in place.
        """
        mean_op, mode_ops = stage
        mean_rhs[-2:] = qhat[:, 0].real
        rhs[-2:] = qhat[:, 1:]
        return apply_modes(mode_ops, rhs), mean_op @ mean_rhs

    def _wall_slip(self, omega: np.ndarray, mean_coeffs: np.ndarray) -> np.ndarray:
        """Slip u_tau along the (top, bottom) walls as a (2, nx) array."""
        grid = self.grid
        u_hat = np.empty((2, self.jmax + 1), dtype=complex)
        u_hat[:, 0] = self._walls @ mean_coeffs
        u_hat[:, 1:] = apply_modes(self._traces, omega)
        return wall_slip(np.fft.irfft(u_hat * grid.nx, n=grid.nx, axis=1))

    # ---- stepping ----

    def step(self, state: FlowState) -> FlowState:
        if self.config.mode == "euler":
            return self._step_euler(state)
        return self._step_ns(state)

    def _step_ns(self, state: FlowState) -> FlowState:
        grid, dt, Re = self.grid, self.config.dt, self.params.Re
        mean_coeffs, om, force = state.mean, state.omega, self._force

        N_n, R_n, aux_n = self._nonlinear(om, mean_coeffs)
        self._check_cfl(aux_n, state)

        # wall data pieces that depend only on the step start, (top, bottom)
        slip_n = aux_n["slip"]
        q = self.wall.drive(state.g, slip_n)
        qhat = np.fft.rfft(q, axis=1)[:, : self.jmax + 1] / grid.nx

        lam_p = Re / dt
        om_star, mean_star = self._implicit_stage(
            self._stage_p,
            lam_p * om + Re * N_n,
            lam_p * mean_coeffs + Re * (R_n + force),
            qhat,
        )

        N_s, R_s, _ = self._nonlinear(om_star, mean_star)

        lam_c = 2.0 * Re / dt
        om_new, mean_new = self._implicit_stage(
            self._stage_c,
            lam_c * om - self._ksq * om + real_matmul(self._D2, om) + Re * (N_n + N_s),
            lam_c * mean_coeffs + self._D2 @ mean_coeffs + Re * (R_n + R_s + 2.0 * force),
            qhat,
        )

        # final slip traces close the boundary-stress update
        slip_new = self._wall_slip(om_new, mean_new)

        return self._check_finite(
            FlowState(
                grid=grid,
                omega=om_new,
                mean=mean_new,
                g=step_boundary_ode(state.g, slip_n, self.wall, u_tau_end=slip_new),
                t=state.t + dt,
                step_index=state.step_index + 1,
            )
        )

    def _step_euler(self, state: FlowState) -> FlowState:
        dt = self.config.dt
        mean_coeffs, om, force = state.mean, state.omega, self._force

        N_n, R_n, aux_n = self._nonlinear(om, mean_coeffs)
        self._check_cfl(aux_n, state)
        om_star = om + dt * N_n
        mean_star = mean_coeffs + dt * (R_n + force)

        N_s, R_s, _ = self._nonlinear(om_star, mean_star)
        om_new = om + 0.5 * dt * (N_n + N_s)
        mean_new = mean_coeffs + 0.5 * dt * (R_n + R_s + 2.0 * force)

        return self._check_finite(
            FlowState(
                grid=self.grid,
                omega=om_new,
                mean=mean_new,
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
        n = whole_steps(span, self.config.dt)
        if n is None:
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
        return self._wall_slip(state.omega, state.mean)
