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
step is linear and fixed for given (dt, Re, grid), so it is an operator
stack over the packed columns (see ``elliptic.apply_modes``), applied as
one matmul per stage.  A stage's Dirichlet inverses on modes 1..J read
only the grid and lam = Re/dt or 2 Re/dt, so they are built once per
process (``elliptic.dirichlet_stage_inverses``) and shared by every
solver at that key; the k = 0 Robin map and the wall closure, which read
alpha, are each solver's own.

An x-independent ("parallel") field has no advection: when the packed
array an evaluation reads has modes 1..J all exactly 0, ``_nonlinear``
returns zero terms without a transform.  A parallel state, whose wall
stress g is 0 on modes 1..J too, stays parallel, so its step applies only
the k = 0 maps and runs no predictor (see ``_step_ns``), with the bytes of
the full-width step.  So a solver keeps two whole sets of maps: the k = 0
set ``_mean_maps`` (the mean's wall rows and the corrector's Robin map),
built when it is made, and the full set ``_modes`` of modes 0..J, built
the first time a general state is stepped, evaluated or traced.  A build
that raises keeps nothing, so the next general state raises again, and a
run that stays parallel never builds ``_modes``.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .elliptic import (
    SolverError,
    _bc_row,
    _wall_rows,
    apply_modes,
    biot_savart,
    dirichlet_stage_inverses,
    streamfunction_operator,
    tau_matrices,
)
from .grid import (
    ChannelGrid,
    GridError,
    cheb_diff_matrices,
    cheb_forward,
    cheb_synthesis_matrix,
    fourier_matrices,
    real_matmul,
)
from .params import SimParams
from .wallbc import MaxwellWall, step_boundary_ode

_MODES = ("navier_stokes", "euler")
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
    ratio = span / dt
    if not math.isfinite(ratio):  # an overflowing count is no whole number; round(inf) raises
        return None
    n = round(ratio)
    return n if abs(n * dt - span) <= 1e-9 * max(1.0, abs(span)) else None


def forcing_name(amplitude: float) -> str:
    """Name of the forcing a mean pressure gradient F = amplitude makes ("zero" for 0)."""
    return "steady_pressure_gradient" if amplitude else "zero"


@dataclass(frozen=True)
class SolverConfig:
    dt: float
    t_end: float
    mode: str = "navier_stokes"
    forcing_amplitude: float = 0.0
    cfl_max: float = 0.5
    checkpoint_every: int = 1000
    record_every: int = 1
    forcing: InitVar[str | None] = None  # sets nothing: may name only the amplitude's forcing

    def __post_init__(self, forcing):
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be positive, got {self.dt!r}")
        if not (math.isfinite(self.t_end) and self.t_end >= 0):
            raise ValueError(f"t_end must be nonnegative, got {self.t_end!r}")
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if not math.isfinite(self.forcing_amplitude):
            raise ValueError(f"forcing_amplitude must be finite, got {self.forcing_amplitude!r}")
        if forcing not in (None, forcing_name(self.forcing_amplitude)):
            raise ValueError(
                f"forcing={forcing!r} contradicts forcing_amplitude={self.forcing_amplitude!r}"
            )
        if not (0.0 < self.cfl_max < 1.0):
            raise ValueError(f"cfl_max must lie in (0, 1), got {self.cfl_max!r}")
        if self.checkpoint_every < 1 or self.record_every < 1:
            raise ValueError("checkpoint_every and record_every must be >= 1")


@dataclass(frozen=True)
class FlowState:
    """Solver state: fluctuation vorticity, mean profile, wall stresses.

    ``omega`` is the (ny, J) complex Chebyshev x Fourier coefficient array
    of the fluctuation vorticity on the modes the solver evolves, k_1..k_J
    (``grid.kx[1:J+1]``, J = ``grid.dealias_kx``, the 2/3 rule); the x-mean
    lives in ``mean`` and no mode above J is stored.  ``mean`` holds the
    (ny,) real Chebyshev coefficients of the mean profile U0(y).  ``g`` is
    the (2, J+1) complex wall stress on Fourier modes 0..J, normalized as
    ``grid.fourier_matrices`` (``rfft(norm="forward")``), row 0 the top wall
    and row 1 the bottom, in the order of the physical grid rows.  A field
    of another shape is a ``GridError`` that names it.
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
            ("g", (2, grid.dealias_kx + 1)),
        ):
            got = np.shape(getattr(self, name))
            if got != want:
                raise GridError(f"FlowState.{name} has shape {got}, not {want}")


def total_velocity(
    grid: ChannelGrid, omega: np.ndarray, mean_coeffs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(u, v) coefficients of the total velocity on modes 0..J, (ny, J+1) each.

    The fluctuation's velocity from ``biot_savart``, with the mean profile's
    Chebyshev coefficients in u's k = 0 column and 0 in v's; the matrices of
    ``grid.fourier_matrices`` take such columns to node values in x.  Of n
    states side by side, omega (ny, n J) and mean_coeffs (ny, n), each is
    (ny, n (J+1)), one block of modes 0..J per state.
    """
    u, v = biot_savart(grid, omega)
    mean = np.reshape(mean_coeffs, (grid.ny, -1))
    return modes_from_zero(mean, u), modes_from_zero(np.zeros(mean.shape), v)


def modes_from_zero(col0: np.ndarray, modes: np.ndarray) -> np.ndarray:
    """Each state's k = 0 column, col0 (ny, n), put before its modes 1..J.

    modes holds n states' modes 1..J side by side, (ny, n J); the result
    holds their modes 0..J, (ny, n (J+1)).
    """
    ny, n = col0.shape
    out = np.empty((ny, n, modes.shape[1] // n + 1), dtype=complex)
    out[:, :, 0] = col0
    out[:, :, 1:] = modes.reshape(ny, n, -1)
    return out.reshape(ny, -1)


def wall_slip(u_wall: np.ndarray) -> np.ndarray:
    """Slip u_tau from u on the (top, bottom) walls, rows 0 and 1 of a (2, ...) array.

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

    # u and the total vorticity (the mean's -U0' at k = 0) on both walls, modes 0..J
    u_rec, _ = total_velocity(grid, omega, mean)
    om_tot = np.column_stack([-(D @ mean), omega])
    u_wall, om_wall = real_matmul(_wall_rows(grid.ny), np.stack([u_rec, om_tot]))
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


class _Maps(NamedTuple):
    """One set of a solver's linear maps, stacks over the leading n packed columns.

    ``traces`` (n, 2, ny) takes a column to u at the (top, bottom) wall;
    ``stage_c`` and ``stage_p`` (n, ny, ny) are the corrector's and the
    predictor's implicit stages; ``psi`` (n - 1, ny, ny) takes vorticity
    modes 1..J to streamfunction coefficients.  A map the set lacks is None.
    """

    traces: np.ndarray
    stage_c: np.ndarray | None
    stage_p: np.ndarray | None = None
    psi: np.ndarray | None = None


class ChannelFlowSolver:
    """Time stepper for the channel with the dynamic wall law.

    A step works on one (ny, J+1) complex coefficient array x: column 0
    holds the mean profile's real Chebyshev coefficients and columns 1..J
    the vorticity modes, packed from the ``FlowState`` at the start of the
    step and unpacked at its end.  The mean is the k = 0 column of every
    map.  The solver holds its maps as two ``_Maps`` sets, each built whole
    and never written after.  ``_mean_maps``, built in ``__init__``, holds
    the (1, 2, ny) mean wall rows and, in Navier-Stokes mode, the
    (1, ny, ny) corrector Robin map: all that a parallel state's step,
    evaluation or slip reads.  ``_modes`` holds the streamfunction stack,
    the (J+1, 2, ny) wall traces and the two (J+1, ny, ny) stage stacks
    (None in Euler mode); it is built the first time a general state is
    stepped, evaluated or traced, in either mode.  A build that raises
    keeps nothing, so every later general state builds, and raises, again.

    ``cfl_peak`` is the largest directional CFL number the solver has checked
    and the t of the step start where it occurred; (0.0, None) before a step.

    A Navier-Stokes step ends with the (2, J+1) wall slip of its new state,
    which is the next step's starting slip.  The solver keeps it with the state it
    returned and reuses it when that same object is stepped next (states are
    not changed in place); any other state (a restart, a caller's state) has
    its slip recomputed.
    """

    def __init__(self, grid: ChannelGrid, params: SimParams, config: SolverConfig):
        self.grid = grid
        self.params = params
        self.config = config
        J = self.jmax = grid.dealias_kx
        ny = grid.ny
        self._D, self._D2 = cheb_diff_matrices(ny)

        dt = config.dt
        self.wall = MaxwellWall(params, dt)
        self.c2 = params.beta - self.wall.b

        # k^2 of the packed columns, 0 for the mean
        self._ksq = grid.kx[: J + 1] ** 2
        # the mean-momentum forcing F times T_0, the mean's constant coefficient
        self._force = np.zeros((ny, J + 1), dtype=complex)
        self._force[0, 0] = config.forcing_amplitude
        self._synth = cheb_synthesis_matrix(ny)
        self._fourier = fourier_matrices(grid.nx, J, grid.lx)
        # node values to the Chebyshev coefficients a dealiased product keeps
        self._fwd = cheb_forward(np.eye(ny))[: grid.dealias_cheb + 1]
        # dt over the node spacings of the directional CFL number
        self._dt_dx = dt / grid.dx
        self._dt_dy = (dt / grid.dy_local)[:, None]
        self.cfl_peak = (0.0, None)
        self._end_slip = (None, None)  # (state returned by step, its wall slip or None)

        robin = self._robin_map(2.0 * params.Re / dt) if config.mode == "navier_stokes" else None
        self._mean_maps = _Maps(_wall_rows(ny)[None], robin)

    @cached_property
    def _modes(self) -> _Maps:
        """The maps of modes 0..J; the wall traces of modes 1..J are the u each
        vorticity mode induces.  The predictor's stage (lam = Re/dt) is built
        before the corrector's (2 lam), so the next solver of a sweep that
        doubles Re/dt finds its own lam, this 2 lam, in the two-entry cache
        of ``dirichlet_stage_inverses``."""
        psi = streamfunction_operator(self.grid)
        rows = self._mean_maps.traces
        traces = np.concatenate([rows, -(rows[0] @ self._D) @ psi])
        if self.config.mode == "euler":
            return _Maps(traces, None, psi=psi)
        lam = self.params.Re / self.config.dt
        stage_p = self._stage_operators(lam, self._robin_map(lam), traces)
        stage_c = self._stage_operators(2.0 * lam, self._mean_maps.stage_c, traces)
        return _Maps(traces, stage_c, stage_p, psi)

    def _robin_map(self, lam: float) -> np.ndarray:
        """(1, ny, ny) k = 0 map of the stage lam - D^2: the inverse of its tau
        matrix whose two rows read the wall data (q_top, q_bottom) in the Robin
        form c2*u - u' = q_top, -c2*u - u' = q_bottom (``inv`` of a one-matrix
        stack, bitwise entry 0 of a batched inverse)."""
        ny, c2 = self.grid.ny, self.c2
        robin = np.stack([_bc_row(ny, "top", c2, -1.0), _bc_row(ny, "bottom", -c2, -1.0)])
        return np.linalg.inv(tau_matrices(ny, [lam], robin))

    def _stage_operators(self, lam: float, robin: np.ndarray, traces: np.ndarray) -> np.ndarray:
        """A new (J+1, ny, ny) stack of the maps of one implicit stage (lam + k^2 - D^2).

        Each map reads the wall data (q_top, q_bottom) from the two tau rows
        of its right-hand side column.  The k = 0 map is ``robin``, a
        ``_robin_map(lam)``.  Each fluctuation mode is a Dirichlet tau solve
        A^-1 P plus the two unit-boundary profiles A^-1 E, weighted by the
        2x2 influence matrix K (Kleiser & Schumann 1980) so that the wall
        vorticity equals g + beta*u_tau for the slip the new field induces:

            out = A^-1 P b + A^-1 E K^-1 (E^T b + S T A^-1 P b),
            K = I - S T A^-1 E,  S = diag(-c2, c2),  T = traces[1:].

        The Dirichlet inverses A^-1 read neither alpha nor the mean, so they
        come from the per-process ``dirichlet_stage_inverses`` and are
        copied before the closure is added; the Robin map and the closure
        are the solver's own.
        """
        ny, c2 = self.grid.ny, self.c2
        dirichlet = dirichlet_stage_inverses(self.grid, lam)  # shared: never written
        ops = np.empty((self.jmax + 1, ny, ny))
        ops[:1], ops[1:] = robin, dirichlet
        modes, traces = ops[1:], traces[1:]
        unit = dirichlet[:, :, ny - 2 :]
        modes[:, :, ny - 2 :] = 0.0
        S = np.diag([-c2, c2])
        K = np.eye(2) - S @ traces @ unit
        weights = S @ traces @ modes
        weights[:, :, ny - 2 :] = np.eye(2)
        try:
            closure = np.linalg.solve(K, weights)
        except np.linalg.LinAlgError as exc:
            raise SolverError("singular wall influence matrix") from exc
        modes += unit @ closure
        return ops

    # ---- nonlinear terms ----

    def _nonlinear(self, x: np.ndarray):
        """Advection terms of a packed (ny, J+1) coefficient array x.

        Returns (N, u, v): N is (ny, J+1), the mean-momentum source R(y) (the
        x-mean of v*omega) in column 0 and N = -(u.grad omega) on modes
        1..J; u and v are the total velocity at the (ny, nx) nodes, or
        (ny, 1) columns that hold for every x when x is x-independent.

        x is x-independent when its modes 1..J are all exactly 0.  Then
        v = psi_x = 0 and omega_x = 0, so u.grad(omega) and <v omega> vanish
        identically: N = 0 and v = 0 with no transform, and u is the mean
        profile's node values: column 0 of the ``_synth`` value rows applied
        to all of x, which has the general path's bits on every grid from
        nx = 8 to 128 (a matrix-vector product of column 0 alone differs in
        the last bits and would move ``cfl_peak``).  The scalar test first
        spares a general x the full count.

        Otherwise one real matmul takes [mean | psi | mean vorticity | omega]
        coefficients to node values and d/dy node values.  ``grid.fourier_matrices``
        does every x-transform: S gives u, omega and omega_y, Sx (d/dx folded in)
        v and omega_x, and A takes u.grad(omega) to modes 1..J and v*omega to its
        x-mean, each then onto the dealiased rows by ``_fwd``.
        """
        ny, nx, J = self.grid.ny, self.grid.nx, self.jmax
        modes = slice(1, J + 1)
        if x[0, 1] == 0 and not np.count_nonzero(x[:, modes]):
            u = real_matmul(self._synth[:ny], x)[:, :1].real
            return np.zeros((ny, J + 1), dtype=complex), u, np.zeros((ny, 1))
        S, Sx, A = self._fourier
        cols = np.empty((ny, 2 * (J + 1)), dtype=complex)
        cols[:, 0] = x[:, 0]
        cols[:, modes] = apply_modes(self._modes.psi, x[:, modes])
        cols[:, J + 1] = -(self._D @ x[:, 0].real)
        cols[:, J + 2 :] = x[:, modes]
        vals = real_matmul(self._synth, cols)
        # u's coefficients in the d/dy rows: the mean profile at k = 0, -psi_y after
        vals[ny:, 0] = vals[:ny, 0]
        vals[ny:, modes] *= -1.0
        # float rows alternating the two halves, [mean | psi] and [mean vorticity | omega]
        f, df = vals.view(np.float64).reshape(2, 2 * ny, 2 * (J + 1))
        v, om_x = (f @ Sx).reshape(ny, 2, nx).swapaxes(0, 1)
        u, om_y = (df @ S).reshape(ny, 2, nx).swapaxes(0, 1)  # omega_y with the mean's -U0''
        om = f[1::2, 2:] @ S[2:]  # the fluctuation, modes 1..J

        # u.grad(omega) on modes 1..J, and the x-mean (k = 0) of v*omega
        adv = u * om_x
        adv += v * om_y
        adv_hat = (adv @ A[:, 2:]).view(np.complex128)
        exchange = (v * om) @ A[:, 0]

        N = np.zeros((ny, J + 1), dtype=complex)
        N[: len(self._fwd), 0] = self._fwd @ exchange
        N[: len(self._fwd), modes] = -real_matmul(self._fwd, adv_hat)
        return N, u, v

    def _check_cfl(self, u, v, state: FlowState):
        """Directional CFL number of the step start, dt*max(|u|/dx + |v|/dy_local).

        Raises SolverDivergedError on a non-finite velocity and CFLError above
        cfl_max; keeps the largest number so far, with its t, in cfl_peak.
        """
        number = np.abs(u) * self._dt_dx
        number += np.abs(v) * self._dt_dy
        cfl = float(number.max())
        if not math.isfinite(cfl):
            raise SolverDivergedError(state.step_index, state.t, "velocity")
        if cfl > self.cfl_peak[0]:
            self.cfl_peak = (cfl, state.t)
        if cfl > self.config.cfl_max:
            node = tuple(int(i) for i in np.unravel_index(number.argmax(), number.shape))
            raise CFLError(cfl, self.config.cfl_max, state.t, node)

    def _apply_leading(self, ops: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """apply_modes of a (w, p, ny) stack to the leading w columns of cols.

        Returns (p, J+1) in the column-major layout of ``_pack``, with columns
        w..J +0.0.  The k = 0 item of a one-map apply is bitwise that of the
        whole stack's.
        """
        w = len(ops)
        if w == self.jmax + 1:
            return apply_modes(ops, cols)
        out = np.zeros((ops.shape[1], self.jmax + 1), dtype=complex, order="F")
        out[:, :w] = apply_modes(ops, cols[:, :w])
        return out

    def _wall_slip(self, traces: np.ndarray, x: np.ndarray) -> np.ndarray:
        """(2, J+1) slip u_tau on the (top, bottom) walls, modes 0..J, of a packed
        x through a (w, 2, ny) trace stack, modes w..J of x being 0."""
        return wall_slip(self._apply_leading(traces, x))

    # ---- stepping ----

    def _pack(self, state: FlowState) -> np.ndarray:
        """The state's (ny, J+1) array x, column-major as ``apply_modes`` returns
        it, so the mode columns reach the operator stacks without a copy."""
        x = np.empty((self.grid.ny, self.jmax + 1), dtype=complex, order="F")
        x[:, 0], x[:, 1:] = state.mean, state.omega
        return x

    def step(self, state: FlowState) -> FlowState:
        """Advance one step; SolverDivergedError names the first non-finite field.

        A state this solver did not return has its wall stress checked first,
        at its own step index: the tau rows would carry a non-finite g into
        the new vorticity and have it named omega.  The new state's fields
        are checked after the step in the order omega, mean, g, since a
        blow-up reaches g through the end slip.
        """
        if self._end_slip[0] is not state and not np.isfinite(state.g).all():
            raise SolverDivergedError(state.step_index, state.t, "g")
        x = self._pack(state)
        if self.config.mode == "euler":
            x, g, slip = self._step_euler(state, x), state.g, None
        else:
            x, g, slip = self._step_ns(state, x)
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
        self._end_slip = (new, slip)
        return new

    def _step_ns(self, state: FlowState, x: np.ndarray) -> tuple[np.ndarray, ...]:
        """One predictor-corrector step on the leading w columns of x: (x_new, g, end slip).

        A parallel state, modes 1..J of x and of g all exactly 0, reads
        ``_mean_maps`` (w = 1): every right-hand side, the wall drive q in its
        tau rows included, is 0 on modes 1..J, so x_star, x_new and the end
        slip stay parallel and N(x_star) = 0, and the step runs no predictor,
        whose only output is N(x_star).  Any other state reads ``_modes``
        (w = J+1).  The wall law stays full width, so g keeps the signed
        zeros of a full-width step.
        """
        dt, Re, F = self.config.dt, self.params.Re, self._force

        N_n, u, v = self._nonlinear(x)
        self._check_cfl(u, v, state)
        # _nonlinear returns v as one column exactly when x is parallel
        parallel = v.shape[1] == 1 and not np.count_nonzero(state.g[:, 1:])
        maps = self._mean_maps if parallel else self._modes
        w = len(maps.traces)

        # wall data that depends only on the step start, (top, bottom) on modes
        # 0..J; each stage reads it from the two tau rows of its right-hand side
        last, slip_n = self._end_slip
        if last is not state:
            slip_n = self._wall_slip(maps.traces, x)
        q = self.wall.drive(state.g, slip_n)

        if parallel:
            N_s = N_n  # both 0
        else:
            rhs = Re / dt * x + Re * (N_n + F)
            rhs[-2:] = q
            x_star = apply_modes(maps.stage_p, rhs)
            N_s = self._nonlinear(x_star)[0]
        # D2 @ x at full width: its column 0 alone differs in the last bits
        xw = x[:, :w]
        rhs = (
            2.0 * Re / dt * xw - self._ksq[:w] * xw + real_matmul(self._D2, x)[:, :w]
            + Re * (N_n[:, :w] + N_s[:, :w] + 2.0 * F[:, :w])
        )
        rhs[-2:] = q[:, :w]
        x_new = self._apply_leading(maps.stage_c, rhs)

        # final slip traces close the boundary-stress update
        slip_new = self._wall_slip(maps.traces, x_new)
        g = step_boundary_ode(state.g, slip_n, self.wall, u_tau_end=slip_new)
        return x_new, g, slip_new

    def _step_euler(self, state: FlowState, x: np.ndarray) -> np.ndarray:
        dt, F = self.config.dt, self._force
        N_n, u, v = self._nonlinear(x)
        self._check_cfl(u, v, state)
        N_s = self._nonlinear(x + dt * (N_n + F))[0]
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
        """Slip u_tau along the (top, bottom) walls at the x-nodes, a (2, nx) array.

        Of a parallel state, omega all 0, only ``_mean_maps`` applies.
        """
        maps = self._modes if np.count_nonzero(state.omega) else self._mean_maps
        slip = np.ascontiguousarray(self._wall_slip(maps.traces, self._pack(state)))
        return slip.view(np.float64) @ self._fourier[0]
