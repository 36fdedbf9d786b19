"""Semi-implicit channel solver with the dynamic wall-stress closure.

Fluctuation vorticity (Fourier modes k != 0) and the mean profile U0(y)
are advanced by a one-step predictor-corrector: implicit Euler predictor,
Crank-Nicolson diffusion with Heun advection in the corrector.  The wall
law is closed implicitly per mode by a 2x2 influence solve that makes the
imposed wall vorticity g + beta*u_tau consistent with the slip the new
field itself induces; this keeps the scheme stable for arbitrarily stiff
wall friction.  In "euler" mode diffusion and the wall law are switched
off and the same advection terms are advanced explicitly (Heun).

The mean profile is the k = 0 column of a step: it obeys the same implicit
stage as every vorticity mode, with the Robin form of the wall law in its
two wall rows in place of the influence-matrix closure.  Every map of a
step is linear and fixed for given (dt, Re, grid), so the solver builds
each one once as an operator stack over modes 0..J (see
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

    A step works on one (ny, J+1) complex coefficient array x: column 0
    holds the mean profile's real Chebyshev coefficients and columns 1..J
    the vorticity modes, packed from the ``FlowState`` at the start of the
    step and unpacked at its end.  The mean is the k = 0 column of every
    map: each implicit stage is one (J+1, ny, ny) stack and the wall-trace
    map one (J+1, 2, ny) stack, whose k = 0 entries act on the mean.

    ``cfl_peak`` is the largest directional CFL number the solver has checked
    and the t of the step start where it occurred; (0.0, None) before a step.
    """

    def __init__(self, grid: ChannelGrid, params: SimParams, config: SolverConfig):
        self.grid = grid
        self.params = params
        self.config = config
        J = self.jmax = grid.dealias_kx
        ny = grid.ny
        self._D, self._D2 = cheb_diff_matrices(ny)

        dt = config.dt
        Re = params.Re
        self.wall = MaxwellWall(params, dt)
        self.c2 = params.beta - self.wall.b

        # (J, ny, ny): vorticity modes 1..J to streamfunction coefficients
        self._psi_ops = streamfunction_operator(grid)
        # k^2 of the packed columns, 0 for the mean
        self._ksq = grid.kx[: J + 1] ** 2
        # the mean-momentum forcing F times T_0, the mean's constant coefficient
        self._force = np.zeros((ny, J + 1), dtype=complex)
        self._force[0, 0] = config.mean_force
        # (J+1, 2, ny): u at the (top, bottom) wall of each packed column, the
        # mean's own values at k = 0 and those each vorticity mode induces after
        self._traces = np.empty((J + 1, 2, ny))
        self._traces[0] = _wall_rows(ny)
        self._traces[1:] = -(self._traces[0] @ self._D) @ self._psi_ops
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

    def _stage_operators(self, lam: float) -> np.ndarray:
        """(J+1, ny, ny) maps of one implicit stage (lam + k^2 - D^2), wall law closed.

        Each map reads the wall data (q_top, q_bottom) from the two tau rows
        of its right-hand side column.  The mean's (k = 0) rows are the Robin
        form c2*u - u' = q_top, -c2*u - u' = q_bottom.  Each fluctuation mode
        is a Dirichlet tau solve A^-1 P plus the two unit-boundary profiles
        A^-1 E, weighted by the 2x2 influence matrix K (Kleiser & Schumann
        1980) so that the wall vorticity equals g + beta*u_tau for the slip
        the new field induces:

            out = A^-1 P b + A^-1 E K^-1 (E^T b + S T A^-1 P b),
            K = I - S T A^-1 E,  S = diag(-c2, c2),  T = wall u-traces.
        """
        ny, c2 = self.grid.ny, self.c2
        A = tau_matrices(ny, lam + self._ksq, _wall_rows(ny))
        A[0, ny - 2 :] = [_bc_row(ny, "top", c2, -1.0), _bc_row(ny, "bottom", -c2, -1.0)]
        ops = np.linalg.inv(A)
        modes, traces = ops[1:], self._traces[1:]
        unit = modes[:, :, ny - 2 :].copy()
        modes[:, :, ny - 2 :] = 0.0
        S = np.diag([-c2, c2])
        K = np.eye(2) - S @ traces @ unit
        weights = S @ traces @ modes
        weights[:, :, ny - 2 :] = np.eye(2)
        try:
            closure = np.linalg.solve(K, weights)
        except np.linalg.LinAlgError as exc:  # pragma: no cover
            raise SolverError("singular wall influence matrix") from exc
        modes += unit @ closure
        return ops

    # ---- nonlinear terms ----

    def _nonlinear(self, x: np.ndarray):
        """Advection terms of a packed (ny, J+1) coefficient array x.

        Returns (N, aux): N is (ny, J+1), the mean-momentum source R(y) (the
        x-mean of v*omega) in column 0 and N = -(u.grad omega) on modes
        1..J; aux carries physical velocities and the (2, nx) wall slip.

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
        cols[:, 0] = x[:, 0]
        cols[:, modes] = apply_modes(self._psi_ops, x[:, modes])
        cols[:, J + 1] = -(self._D @ x[:, 0].real)
        cols[:, J + 2 :] = x[:, modes]
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

        N = np.zeros((ny, J + 1), dtype=complex)
        N[: len(self._fwd), 0] = exchange[:, 0].real
        N[: len(self._fwd), modes] = -adv[:, 1:]
        return N, {"u_tot": u, "v": v, "slip": wall_slip(u[[0, -1]])}

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

    def _wall_slip(self, x: np.ndarray) -> np.ndarray:
        """Slip u_tau along the (top, bottom) walls of a packed x, a (2, nx) array."""
        nx = self.grid.nx
        return wall_slip(np.fft.irfft(apply_modes(self._traces, x) * nx, n=nx, axis=1))

    # ---- stepping ----

    def _pack(self, state: FlowState) -> np.ndarray:
        """The state's (ny, J+1) array x, column-major as ``apply_modes`` returns
        it, so the mode columns reach the operator stacks without a copy."""
        x = np.empty((self.grid.ny, self.jmax + 1), dtype=complex, order="F")
        x[:, 0], x[:, 1:] = state.mean, state.omega
        return x

    def step(self, state: FlowState) -> FlowState:
        """Advance one step; SolverDivergedError names the first non-finite field."""
        x = self._pack(state)
        if self.config.mode == "euler":
            x, g = self._step_euler(state, x), state.g
        else:
            x, g = self._step_ns(state, x)
        new = FlowState(
            grid=self.grid,
            omega=x[:, 1:],
            mean=x[:, 0].real.copy(),
            g=g,
            t=state.t + self.config.dt,
            step_index=state.step_index + 1,
        )
        for name in ("omega", "mean", "g"):
            if not np.isfinite(getattr(new, name)).all():
                raise SolverDivergedError(new.step_index, new.t, name)
        return new

    def _step_ns(self, state: FlowState, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        dt, Re, F = self.config.dt, self.params.Re, self._force

        N_n, aux_n = self._nonlinear(x)
        self._check_cfl(aux_n, state)

        # wall data that depends only on the step start, (top, bottom); each
        # stage reads it from the two tau rows of its right-hand side
        slip_n = aux_n["slip"]
        q = self.wall.drive(state.g, slip_n)
        qhat = np.fft.rfft(q, axis=1)[:, : self.jmax + 1] / self.grid.nx

        rhs = Re / dt * x + Re * (N_n + F)
        rhs[-2:] = qhat
        x_star = apply_modes(self._stage_p, rhs)

        N_s, _ = self._nonlinear(x_star)
        rhs = (
            2.0 * Re / dt * x - self._ksq * x + real_matmul(self._D2, x)
            + Re * (N_n + N_s + 2.0 * F)
        )
        rhs[-2:] = qhat
        x_new = apply_modes(self._stage_c, rhs)

        # final slip traces close the boundary-stress update
        g = step_boundary_ode(state.g, slip_n, self.wall, u_tau_end=self._wall_slip(x_new))
        return x_new, g

    def _step_euler(self, state: FlowState, x: np.ndarray) -> np.ndarray:
        dt, F = self.config.dt, self._force
        N_n, aux_n = self._nonlinear(x)
        self._check_cfl(aux_n, state)
        N_s, _ = self._nonlinear(x + dt * (N_n + F))
        return x + 0.5 * dt * (N_n + N_s + 2.0 * F)

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
        return self._wall_slip(self._pack(state))
