"""Energy and momentum bookkeeping, friction factors, and scaling fits.

The discrete energy identity audited here is

    d/dt [ KE + (tau/(2 alpha Re^2)) |g|^2_wall ]
        = forcing_power - (1/Re) |grad u|^2
          - ((alpha/2 - 2 kappa)/Re) |u_tau|^2_wall
          - (tau/(alpha Re^2 Wi)) |g|^2_wall

with |.|^2_wall integrating over both walls; the kappa part is reported
separately as curvature_term (zero for the flat-wall default).  Records
are written to CSV in a frozen, versioned column order.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace

import numpy as np

from .flow import FlowState, total_velocity_spectral, total_vorticity, wall_slip
from .grid import Field2D, cheb_diff_matrices, cheb_forward, resample_field
from .params import SimParams

CSV_VERSION = "nspb-records-v1"

_trapz = getattr(np, "trapezoid", None) or np.trapz

_COLUMNS = [
    "t",
    "kinetic_energy",
    "boundary_stress_energy",
    "dissipation_rate",
    "wall_slip_dissipation",
    "boundary_relaxation_dissipation",
    "forcing_power",
    "curvature_term",
    "budget_residual",
    "omega_inf_norm",
    "omega_wall_inf_norm",
    "friction_trace",
    "friction_tangential",
    "momentum_x",
    "wall_u_top_mean",
    "wall_u_bottom_mean",
]


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


def compute_record(state: FlowState, params: SimParams, mean_force: float = 0.0) -> DiagnosticsRecord:
    """Instantaneous diagnostics (budget_residual is NaN; see energy_audit)."""
    grid = state.omega.grid
    Re = params.Re
    dx = grid.dx

    u, v = total_velocity_spectral(grid, state.omega.spectral, cheb_forward(state.mean_u))
    D, _ = cheb_diff_matrices(grid.ny)
    ikx = 1j * grid.kx
    u_vals = grid.spec_to_phys(u)

    ke = 0.5 * grid.integrate(u_vals**2 + grid.spec_to_phys(v) ** 2)

    ux = grid.spec_to_phys(u * ikx)
    uy = grid.spec_to_phys(D @ u)
    vx = grid.spec_to_phys(v * ikx)
    vy = grid.spec_to_phys(D @ v)
    dissipation = (1.0 / Re) * grid.integrate(ux**2 + uy**2 + vx**2 + vy**2)

    g_top, g_bot = state.g
    wall_g_sq = (np.sum(g_top**2) + np.sum(g_bot**2)) * dx
    u_tau_top, u_tau_bot = wall_slip(u_vals[[0, -1]])
    wall_slip_sq = (np.sum(u_tau_top**2) + np.sum(u_tau_bot**2)) * dx

    e_g = params.tau / (2.0 * params.alpha * Re**2) * wall_g_sq
    d_slip = params.alpha / (2.0 * Re) * wall_slip_sq
    d_relax = params.tau / (params.alpha * Re**2 * params.Wi) * wall_g_sq
    # the generalized trace identity feeds 2*kappa*u_tau back into the wall
    # vorticity, so the net wall drain is (alpha/2 - 2*kappa)/Re * |u_tau|^2;
    # positivity of that combination is the alpha > 4*kappa admissibility rule
    d_curv = -(2.0 * params.kappa / Re) * wall_slip_sq

    momentum_x = grid.integrate(u_vals)
    power = mean_force * momentum_x

    two_lx = 2.0 * grid.lx
    duy_top = uy[0]
    duy_bot = uy[-1]
    f_trace = -(1.0 / (Re * two_lx)) * (np.sum(duy_top) - np.sum(duy_bot)) * dx
    om_top = g_top + params.beta * u_tau_top
    om_bot = g_bot + params.beta * u_tau_bot
    f_tang = (1.0 / (Re * two_lx)) * (np.sum(om_top) - np.sum(om_bot)) * dx

    om_vals = total_vorticity(state)
    omega_inf = float(np.max(np.abs(om_vals)))
    omega_wall_inf = float(max(np.max(np.abs(om_vals[0])), np.max(np.abs(om_vals[-1]))))

    return DiagnosticsRecord(
        t=state.t,
        kinetic_energy=ke,
        boundary_stress_energy=e_g,
        dissipation_rate=dissipation,
        wall_slip_dissipation=d_slip,
        boundary_relaxation_dissipation=d_relax,
        forcing_power=power,
        curvature_term=d_curv,
        budget_residual=float("nan"),
        omega_inf_norm=omega_inf,
        omega_wall_inf_norm=omega_wall_inf,
        friction_trace=float(f_trace),
        friction_tangential=float(f_tang),
        momentum_x=momentum_x,
        wall_u_top_mean=float(np.mean(u_vals[0])),
        wall_u_bottom_mean=float(np.mean(u_vals[-1])),
    )


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
    before: FlowState,
    after: FlowState,
    params: SimParams,
    mean_force: float = 0.0,
    rec_before: DiagnosticsRecord | None = None,
) -> DiagnosticsRecord:
    """Trapezoid-consistent budget residual between two adjacent states."""
    if rec_before is None:
        rec_before = compute_record(before, params, mean_force)
    rec_after = compute_record(after, params, mean_force)
    dt = after.t - before.t
    if dt <= 0:
        raise ValueError("states must be in increasing time order")
    lhs = (total_energy(rec_after) - total_energy(rec_before)) / dt
    rhs = 0.5 * (budget_rhs(rec_before) + budget_rhs(rec_after))
    return replace(rec_after, budget_residual=abs(lhs - rhs))


def write_records(path, records) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(f"# {CSV_VERSION}\n")
        w = csv.writer(fh)
        w.writerow(_COLUMNS)
        for r in records:
            w.writerow(r.row())


def read_records(path) -> list[DiagnosticsRecord]:
    with open(path, newline="") as fh:
        first = fh.readline().strip()
        if first != f"# {CSV_VERSION}":
            raise ValueError(f"unsupported records file (got header {first!r})")
        rd = csv.reader(fh)
        header = next(rd)
        if header != _COLUMNS:
            raise ValueError("records column order does not match this version")
        out = []
        for row in rd:
            out.append(DiagnosticsRecord(**{c: float(v) for c, v in zip(_COLUMNS, row)}))
    return out


def time_average(records, field: str, t_start: float = 0.0) -> float:
    """Trapezoid time average of one record field from t_start on."""
    pts = [(r.t, getattr(r, field)) for r in records if r.t >= t_start - 1e-12]
    if len(pts) < 2:
        raise ValueError("need at least two records past t_start")
    t = np.array([p[0] for p in pts])
    v = np.array([p[1] for p in pts])
    return float(_trapz(v, t) / (t[-1] - t[0]))


def friction_factor(records, form: str = "trace", t_start: float = 0.0, cross_tol: float | None = 1e-8) -> float:
    """Time-averaged wall friction per unit area (positive = drag).

    The trace form integrates n.grad(u) at the walls; the tangential form
    uses the wall stress identity g + beta*u_tau.  Along solver
    trajectories both agree to roundoff and are cross-checked pointwise;
    pass cross_tol=None for records where the identity is not enforced
    (inviscid mode, hand-built states).
    """
    if form not in ("trace", "tangential"):
        raise ValueError("form must be 'trace' or 'tangential'")
    if cross_tol is not None:
        for r in records:
            if r.t < t_start - 1e-12:
                continue
            gap = abs(r.friction_trace - r.friction_tangential)
            if gap > cross_tol:
                raise ValueError(
                    f"friction forms disagree by {gap:.3e} at t={r.t} "
                    f"(tolerance {cross_tol:.1e})"
                )
    return time_average(records, f"friction_{form}", t_start)


def dissipation_average(records, t_start: float = 0.0) -> float:
    return time_average(records, "dissipation_rate", t_start)


def euler_error(ns_states, euler_states) -> np.ndarray:
    """L2 velocity differences between paired viscous and inviscid states.

    States must align in time; the inviscid reference is spectrally
    resampled when resolutions differ.
    """
    if len(ns_states) != len(euler_states):
        raise ValueError("state sequences must have equal length")
    out = np.empty(len(ns_states))
    for i, (a, b) in enumerate(zip(ns_states, euler_states)):
        if abs(a.t - b.t) > 1e-9:
            raise ValueError(f"time mismatch at index {i}: {a.t} vs {b.t}")
        grid, grid_b = a.omega.grid, b.omega.grid
        ua, va = total_velocity_spectral(grid, a.omega.spectral, cheb_forward(a.mean_u))
        ub, vb = total_velocity_spectral(grid_b, b.omega.spectral, cheb_forward(b.mean_u))
        if grid_b.nx != grid.nx or grid_b.ny != grid.ny:
            ub = resample_field(Field2D(grid_b, spectral=ub), grid).spectral
            vb = resample_field(Field2D(grid_b, spectral=vb), grid).spectral
        du = grid.spec_to_phys(ua - ub)
        dv = grid.spec_to_phys(va - vb)
        out[i] = math.sqrt(max(grid.integrate(du**2 + dv**2), 0.0))
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


def max_principle_report(records, curl_forcing_inf: float = 0.0, slack: float = 1e-8) -> dict:
    """Interior vorticity bound: start/wall maxima plus forcing growth.

    bound = max(|omega(0)|_inf, max_t |omega_wall|_inf) + T*|curl f_b|_inf.
    """
    if not records:
        raise ValueError("no records")
    T = records[-1].t - records[0].t
    wall_max = max(r.omega_wall_inf_norm for r in records)
    bound = max(records[0].omega_inf_norm, wall_max) + T * curl_forcing_inf
    observed = max(r.omega_inf_norm for r in records)
    return {
        "bound": bound,
        "observed": observed,
        "satisfied": observed <= bound + slack,
        "ratio": observed / bound if bound > 0 else math.inf,
    }


@dataclass(frozen=True)
class ScalingFit:
    """Least-squares power law through (Re, value) pairs in log space."""

    slope: float
    r_squared: float
    n_points: int
    re_values: tuple
    values: tuple

    def to_json_dict(self) -> dict:
        return {
            "slope": self.slope,
            "r_squared": self.r_squared,
            "n_points": self.n_points,
            "re_values": list(self.re_values),
            "values": list(self.values),
        }


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
        re_values=tuple(re_values),
        values=tuple(values),
    )
