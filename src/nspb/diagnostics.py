"""Energy and momentum bookkeeping, time averages, and scaling fits.

The discrete energy identity audited here is

    d/dt [ KE + (tau/(2 alpha Re^2)) |g|^2_wall ]
        = forcing_power - (1/Re) |grad u|^2
          - ((alpha/2 - 2 kappa)/Re) |u_tau|^2_wall
          - (tau/(alpha Re^2 Wi)) |g|^2_wall

with |.|^2_wall integrating over both walls; the kappa part is reported
separately as curvature_term (zero for the flat-wall default).  Records
are written to CSV in a frozen, versioned column order.

``compute_records`` takes a block of states on one grid at once and works
on Fourier modes 0..J; it forms no physical velocity field, and
``compute_record`` is ``compute_records`` of one state.  u and v of every
state come from one ``flow.total_velocity`` call, the map the set-up and
``euler_error`` use too, whose one streamfunction matmul covers all the
states.  One matmul with the shared ``grid.cheb_synthesis_matrix``
``[C^-1; C^-1 D]`` takes the side-by-side [u | v] coefficient columns of
every state to node values and to the node values of u_y and v_y.  The
integrals are discrete Parseval in x (weight lx at k = 0 and 2 lx at
k = 1..J, times k^2 for an x-derivative) and Clenshaw-Curtis in y, so the
kinetic energies and the dissipations of a block are one weighted
reduction each; so are the wall integrals of |g|^2 and |u_tau|^2 over the
modes of g and of the walls' u.  The x-means come from each state's k = 0
column.  Only the sup norms need the total vorticity at the nodes, from
the synthesis matrix's values rows and ``grid.fourier_matrices``.  A
block holds the states whose temporaries fit in ``_RECORD_BLOCK_BYTES``
(``record_block``: 16 at 32x33, 4 at 64x65).  With 1 BLAS thread a record
inside a full block takes 31 us at 32x33 and 133 us at 64x65, a block of
one state 140 and 224 us (median of 7 runs, each the best of 7; README
"Solver layout").
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .flow import FlowState, modes_from_zero, total_velocity, wall_slip
from .grid import (
    ChannelGrid,
    cheb_diff_matrices,
    cheb_synthesis_matrix,
    fourier_matrices,
    real_matmul,
)
from .params import SimParams
from .wallbc import wall_stress_terms

CSV_VERSION = "nspb-records-v1"

# compute_records holds at most this many bytes of temporaries per state
# and coefficient of its ny x (J+1) modes (tracemalloc peak: 121-145 from
# 128x129 to 32x33); a block of states keeps them within _RECORD_BLOCK_BYTES
_RECORD_TEMP_BYTES = 128
_RECORD_BLOCK_BYTES = 768 << 10


@dataclass(frozen=True)
class DiagnosticsRecord:
    t: float
    kinetic_energy: float
    boundary_stress_energy: float
    dissipation_rate: float
    wall_slip_dissipation: float
    boundary_relaxation_dissipation: float
    forcing_power: float
    curvature_term: float
    budget_residual: float
    omega_inf_norm: float
    omega_wall_inf_norm: float
    friction_trace: float
    friction_tangential: float
    momentum_x: float
    wall_u_top_mean: float
    wall_u_bottom_mean: float

    def row(self) -> list[str]:
        return [repr(float(getattr(self, c))) for c in _COLUMNS]


_COLUMNS = [f.name for f in fields(DiagnosticsRecord)]


def record_block(grid: ChannelGrid) -> int:
    """States per ``compute_records`` call that keep its temporaries within
    ``_RECORD_BLOCK_BYTES``: 16 at 32x33 and 4 at 64x65."""
    per_state = _RECORD_TEMP_BYTES * grid.ny * (grid.dealias_kx + 1)
    return max(1, _RECORD_BLOCK_BYTES // per_state)


def compute_record(state: FlowState, params: SimParams, mean_force: float = 0.0) -> DiagnosticsRecord:
    """Instantaneous diagnostics of one state: ``compute_records`` of [state]."""
    return compute_records([state], params, mean_force)[0]


def compute_records(
    states, params: SimParams, mean_force: float = 0.0
) -> list[DiagnosticsRecord]:
    """Instantaneous diagnostics of each state (budget_residual is NaN; see energy_audit).

    Everything is read from Fourier modes 0..J (J = ``dealias_kx``): each
    state's vorticity modes 1..J, with its mean's -U0' as the total
    vorticity's k = 0 column.  The states, all on one grid, ride side by
    side through every map, one block of modes 0..J per state; each record
    equals that of its state alone to 1e-14 relative (tests/test_diagnostics.py).
    A block of ``record_block(grid)`` states keeps the temporaries within
    ``_RECORD_BLOCK_BYTES``.
    """
    states = list(states)
    if not states:
        return []
    grid = states[0].grid
    for i, s in enumerate(states):
        if s.grid != grid:
            raise ValueError(f"grid mismatch at index {i}: {s.grid} vs {grid}")
    Re = params.Re
    ny, J, n = grid.ny, grid.dealias_kx, len(states)
    P = J + 1
    D, _ = cheb_diff_matrices(ny)
    k = grid.kx[:P]
    wy = grid.quad_weights_y
    cx = np.full(P, 2.0 * grid.lx)
    cx[0] = grid.lx

    # node values and d/dy node values of every state's [u | v] on modes
    # 0..J, the mean in each k = 0 column of u
    omega = np.concatenate([s.omega for s in states], axis=1)
    mean = np.column_stack([s.mean for s in states])
    synth = cheb_synthesis_matrix(ny)
    uv = real_matmul(synth, np.concatenate(total_velocity(grid, omega, mean), axis=1))

    # each state's k = 0 column is the x-mean of u and of u_y
    u_mean, uy_mean = uv[:ny, : n * P : P].real, uv[ny:, : n * P : P].real
    momentum_x = (wy @ u_mean) * grid.lx
    power = mean_force * momentum_x
    f_trace = -(1.0 / (2.0 * Re)) * (uy_mean[0] - uy_mean[-1])
    u_top, u_bottom = u_mean[[0, -1]]
    u_wall = uv[[0, ny - 1], : n * P].reshape(2, n, P)

    # x by discrete Parseval (a real field's modes 1..J count twice), y by
    # Clenshaw-Curtis: per state and mode, the integrals of |u|^2 + |v|^2 (a)
    # and of |u_y|^2 + |v_y|^2 (b); the x-derivatives bring k^2.  The squares
    # overwrite uv, so all read from it above is a copy or already reduced
    uv_sq = np.square(uv.view(np.float64), out=uv.view(np.float64))
    a, b = (wy @ uv_sq.reshape(2, ny, -1)).reshape(2, 2, n, P, 2).sum(axis=(1, 4))
    ke = 0.5 * (a @ cx)
    dissipation = (1.0 / Re) * ((k**2 * a + b) @ cx)

    # total vorticity at the nodes, for the sup norms: (ny, n) row maxima
    om = real_matmul(synth[:ny], modes_from_zero(-(D @ mean), omega)).view(np.float64)
    om_nodes = om.reshape(ny * n, 2 * P) @ fourier_matrices(grid.nx, J, grid.lx)[0]
    om_row_max = np.abs(om_nodes, out=om_nodes).max(axis=1).reshape(ny, n)

    # wall integrals by Parseval over both walls' modes 0..J, (2, n, P) arrays
    g = np.stack([s.g for s in states], axis=1)
    wall_g_sq = (g.real**2 + g.imag**2).sum(axis=0) @ cx
    wall_slip_sq = (u_wall.real**2 + u_wall.imag**2).sum(axis=0) @ cx  # |u_tau| = |u|
    e_g, d_relax = wall_stress_terms(params, wall_g_sq)
    d_slip = params.alpha / (2.0 * Re) * wall_slip_sq
    # the generalized trace identity feeds 2*kappa*u_tau back into the wall
    # vorticity, so the net wall drain is (alpha/2 - 2*kappa)/Re * |u_tau|^2;
    # positivity of that combination is the alpha > 4*kappa admissibility rule
    d_curv = -(2.0 * params.kappa / Re) * wall_slip_sq

    # the x-mean wall vorticity g + beta*u_tau of each wall is its k = 0 mode
    om_wall_mean = (g[:, :, 0] + params.beta * wall_slip(u_wall[:, :, 0])).real
    f_tang = (1.0 / (2.0 * Re)) * (om_wall_mean[0] - om_wall_mean[1])

    columns = np.stack(
        [
            [s.t for s in states],
            ke,
            e_g,
            dissipation,
            d_slip,
            d_relax,
            power,
            d_curv,
            np.full(n, np.nan),  # budget_residual
            om_row_max.max(axis=0),
            np.maximum(om_row_max[0], om_row_max[-1]),
            f_trace,
            f_tang,
            momentum_x,
            u_top,
            u_bottom,
        ],
        axis=1,
    )
    return [DiagnosticsRecord(*row) for row in columns.tolist()]


def total_energy(rec: DiagnosticsRecord) -> float:
    return rec.kinetic_energy + rec.boundary_stress_energy


def budget_rhs(rec: DiagnosticsRecord) -> float:
    return (
        rec.forcing_power
        - rec.dissipation_rate
        - rec.wall_slip_dissipation
        - rec.boundary_relaxation_dissipation
        - rec.curvature_term
    )


def energy_audit(
    rec_before: DiagnosticsRecord, rec_after: DiagnosticsRecord
) -> DiagnosticsRecord:
    """rec_after with the trapezoid budget residual over [rec_before.t, rec_after.t].

    Both records must come from adjacent states of one run, computed with the
    run's mean force so that forcing_power enters the budget.
    """
    dt = rec_after.t - rec_before.t
    if dt <= 0:
        raise ValueError("records must be in increasing time order")
    lhs = (total_energy(rec_after) - total_energy(rec_before)) / dt
    rhs = 0.5 * (budget_rhs(rec_before) + budget_rhs(rec_after))
    return replace(rec_after, budget_residual=abs(lhs - rhs))


def write_records(path, records) -> None:
    """The version line, then the header and one row of float reprs per record.

    The bytes are those ``csv.writer`` wrote for v1: the header and rows end
    in CRLF, and no repr of a float needs quoting.
    """
    with open(path, "w", newline="") as fh:
        fh.write(f"# {CSV_VERSION}\n" + ",".join(_COLUMNS) + "\r\n")
        fh.writelines(",".join(r.row()) + "\r\n" for r in records)


def time_average(records, field: str, t_start: float = 0.0) -> float:
    """Trapezoid time average of one record field from t_start on."""
    pts = [(r.t, getattr(r, field)) for r in records if r.t >= t_start - 1e-12]
    if len(pts) < 2:
        raise ValueError("need at least two records past t_start")
    t = np.array([p[0] for p in pts])
    v = np.array([p[1] for p in pts])
    return float(np.trapezoid(v, t) / (t[-1] - t[0]))


def euler_error(ns_states, euler_states) -> np.ndarray:
    """L2 velocity differences between paired viscous and inviscid states.

    States must align in time and live on one grid.  The total velocity is
    linear in (omega, mean), so the difference is taken on the coefficients.
    """
    if len(ns_states) != len(euler_states):
        raise ValueError("state sequences must have equal length")
    out = np.empty(len(ns_states))
    for i, (a, b) in enumerate(zip(ns_states, euler_states)):
        if abs(a.t - b.t) > 1e-9:
            raise ValueError(f"time mismatch at index {i}: {a.t} vs {b.t}")
        if a.grid != b.grid:
            raise ValueError(f"grid mismatch at index {i}: {a.grid} vs {b.grid}")
        grid = a.grid
        du, dv = total_velocity(grid, a.omega - b.omega, a.mean - b.mean)
        nodes = real_matmul(cheb_synthesis_matrix(grid.ny)[: grid.ny], np.stack([du, dv]))
        d = nodes.view(np.float64) @ fourier_matrices(grid.nx, grid.dealias_kx, grid.lx)[0]
        out[i] = math.sqrt(grid.integrate((d**2).sum(axis=0)))
    return out


def momentum_audit(records, lx: float, mean_force: float = 0.0) -> dict:
    """Residuals of the mean x-momentum balance between adjacent records."""
    if len(records) < 2:
        raise ValueError("need at least two records")
    res = []
    for a, b in zip(records, records[1:]):
        dt = b.t - a.t
        drive = 2.0 * lx * (mean_force - 0.5 * (a.friction_trace + b.friction_trace))
        res.append(abs((b.momentum_x - a.momentum_x) / dt - drive))
    return {
        "max_residual": max(res),
        "final_residual": res[-1],
        "n_intervals": len(res),
    }


@dataclass(frozen=True)
class ScalingFit:
    """Least-squares power law through (Re, value) pairs in log space."""

    slope: float
    r_squared: float
    n_points: int
    re_values: list
    values: list

    def to_json_dict(self) -> dict:
        return asdict(self)


def fit_scaling(re_values, values) -> ScalingFit:
    re_values = [float(r) for r in re_values]
    values = [float(v) for v in values]
    if len(re_values) != len(values):
        raise ValueError("re_values and values must align")
    if len(values) < 3:
        raise ValueError("need at least 3 points for a scaling fit")
    if any(not (math.isfinite(v) and v > 0) for v in values + re_values):
        raise ValueError("scaling fits need positive finite data")
    x = np.log(np.array(re_values))
    y = np.log(np.array(values))
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return ScalingFit(
        slope=float(slope),
        r_squared=r2,
        n_points=len(values),
        re_values=re_values,
        values=values,
    )
