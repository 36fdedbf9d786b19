import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nspb.diagnostics import (
    CSV_VERSION,
    DiagnosticsRecord,
    _COLUMNS,
    budget_rhs,
    compute_record,
    dissipation_average,
    euler_error,
    fit_scaling,
    read_records,
    time_average,
    total_energy,
    write_records,
)
from nspb.elliptic import biot_savart
from nspb.flow import initial_state
from nspb.grid import ChannelGrid, Field2D, cheb_derivative_coeffs, cheb_forward, cheb_inverse
from nspb.params import SimParams
from test_flow import grids, random_solver_state, seeds, sim_params


def make_record(t, **overrides):
    vals = {c: 0.0 for c in _COLUMNS}
    vals["t"] = t
    vals.update(overrides)
    return DiagnosticsRecord(**vals)


# ---- scaling fits ----


def test_fit_scaling_exact_power_law():
    re = [250.0, 500.0, 1000.0, 2000.0, 4000.0]
    vals = [3.7 / r for r in re]
    fit = fit_scaling(re, vals)
    assert fit.slope == pytest.approx(-1.0, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.n_points == 5


@settings(max_examples=40, deadline=None)
@given(
    p=st.floats(min_value=-3.0, max_value=3.0),
    c=st.floats(min_value=1e-3, max_value=1e3),
)
def test_fit_scaling_recovers_any_exponent(p, c):
    re = [100.0, 300.0, 900.0, 2700.0]
    fit = fit_scaling(re, [c * r**p for r in re])
    assert fit.slope == pytest.approx(p, abs=1e-9)


def test_fit_scaling_under_multiplicative_noise():
    # 10% noise on 5 log-spaced points leaves the fitted exponent well
    # inside +-0.15 of the truth for every seed tried
    re = np.array([250.0, 500.0, 1000.0, 2000.0, 4000.0])
    for seed in range(8):
        rng = np.random.default_rng(seed)
        vals = (2.0 / re) * (1.0 + 0.1 * rng.standard_normal(5))
        fit = fit_scaling(re, vals)
        assert abs(fit.slope - (-1.0)) < 0.15


def test_fit_scaling_validation():
    with pytest.raises(ValueError, match="at least 3"):
        fit_scaling([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(ValueError, match="align"):
        fit_scaling([1.0, 2.0, 3.0], [1.0, 2.0])
    with pytest.raises(ValueError, match="positive"):
        fit_scaling([1.0, 2.0, 3.0], [1.0, -2.0, 3.0])


def test_scaling_fit_json_shape():
    fit = fit_scaling([10.0, 100.0, 1000.0], [1.0, 0.1, 0.01])
    d = fit.to_json_dict()
    assert sorted(d) == ["n_points", "r_squared", "re_values", "slope", "values"]
    assert d["re_values"] == [10.0, 100.0, 1000.0]


# ---- record serialization ----


def test_records_csv_round_trip_bitwise(tmp_path):
    recs = [
        make_record(0.0, kinetic_energy=1.2345678901234567, omega_inf_norm=3.1),
        make_record(0.1, kinetic_energy=1.0 / 3.0, friction_trace=-1e-17),
    ]
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    write_records(p1, recs)
    back = read_records(p1)
    assert back == recs
    write_records(p2, back)
    assert p1.read_bytes() == p2.read_bytes()


def test_records_csv_header_versioned(tmp_path):
    p = tmp_path / "r.csv"
    write_records(p, [make_record(0.0)])
    first = p.read_text().splitlines()[0]
    assert first == f"# {CSV_VERSION}"


def test_read_records_rejects_foreign_version(tmp_path):
    p = tmp_path / "r.csv"
    write_records(p, [make_record(0.0)])
    body = p.read_text().replace(CSV_VERSION, "nspb-records-v999")
    p.write_text(body)
    with pytest.raises(ValueError, match="unsupported"):
        read_records(p)


def test_read_records_rejects_reordered_columns(tmp_path):
    p = tmp_path / "r.csv"
    write_records(p, [make_record(0.0)])
    lines = p.read_text().splitlines()
    cols = lines[1].split(",")
    lines[1] = ",".join([cols[1], cols[0]] + cols[2:])
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="column order"):
        read_records(p)


# ---- time averages ----


def test_time_average_trapezoid_and_window():
    recs = [make_record(t, dissipation_rate=2.0 * t) for t in (0.0, 0.5, 1.0, 2.0)]
    # trapezoid of a linear ramp is exact
    assert time_average(recs, "dissipation_rate") == pytest.approx(2.0)
    assert time_average(recs, "dissipation_rate", t_start=1.0) == pytest.approx(3.0)
    assert dissipation_average(recs) == pytest.approx(2.0)
    with pytest.raises(ValueError, match="two records"):
        time_average(recs, "dissipation_rate", t_start=1.5)


def test_budget_rhs_signs():
    r = make_record(
        0.0,
        forcing_power=5.0,
        dissipation_rate=1.0,
        wall_slip_dissipation=0.5,
        boundary_relaxation_dissipation=0.25,
        curvature_term=-0.125,
    )
    assert budget_rhs(r) == pytest.approx(5.0 - 1.0 - 0.5 - 0.25 + 0.125)
    assert total_energy(make_record(0.0, kinetic_energy=2.0, boundary_stress_energy=3.0)) == 5.0


# ---- viscous-vs-ideal distance ----


def _smooth_state(grid, params):
    X, Y = np.meshgrid(grid.x, grid.y)
    u = np.sin(np.pi * Y) + 0.1 * (1 - Y**2) ** 2 * np.cos(X)
    v = 0.1 * (1 - Y**2) ** 2 * np.sin(X)
    return initial_state(grid, params, u=u, v=v)


def test_euler_error_zero_against_itself_and_resampled():
    params = SimParams(Re=100.0, Wi=1.0, tau=1.0, alpha=1.0)
    fine = ChannelGrid(nx=32, ny=33, lx=2 * np.pi)
    coarse = ChannelGrid(nx=16, ny=17, lx=2 * np.pi)
    a = _smooth_state(fine, params)
    b = _smooth_state(coarse, params)
    assert euler_error([a], [a])[0] == 0.0
    # same smooth analytic field on both grids: spectral resampling closes
    # the gap to interpolation accuracy
    assert euler_error([a], [b])[0] < 1e-6


def test_euler_error_alignment_validation():
    params = SimParams(Re=100.0, Wi=1.0, tau=1.0, alpha=1.0)
    grid = ChannelGrid(nx=16, ny=17, lx=2 * np.pi)
    a = _smooth_state(grid, params)
    with pytest.raises(ValueError, match="equal length"):
        euler_error([a, a], [a])
    shifted = a.with_(t=0.5)
    with pytest.raises(ValueError, match="time mismatch"):
        euler_error([a], [shifted])


def test_compute_record_of_rest_state_is_zero():
    params = SimParams(Re=100.0, Wi=1.0, tau=1.0, alpha=1.0)
    grid = ChannelGrid(nx=16, ny=17, lx=2 * np.pi)
    rec = compute_record(initial_state(grid, params), params)
    for col in _COLUMNS:
        if col == "budget_residual":  # defined only between two states
            assert math.isnan(rec.budget_residual)
            continue
        assert getattr(rec, col) == pytest.approx(0.0, abs=1e-15), col


# ---- records oracle ----


def reference_record(state, params, mean_force):
    """compute_record's earlier arithmetic: biot_savart, the mean profile
    added in physical space, Field2D.ddx and the d/dy recurrence."""
    grid = state.omega.grid
    Re, dx, two_lx = params.Re, grid.dx, 2.0 * grid.lx

    def ddy(f):
        return Field2D(grid, spectral=cheb_derivative_coeffs(f.spectral))

    u_f, v = biot_savart(state.omega)
    u = Field2D(grid, values=u_f.values + state.mean_u[:, None])
    ux, uy, vx, vy = u.ddx().values, ddy(u).values, v.ddx().values, ddy(v).values
    g_top, g_bot = state.g
    wall_g_sq = (np.sum(g_top**2) + np.sum(g_bot**2)) * dx
    u_tau_top, u_tau_bot = -u.values[0], u.values[-1]
    wall_slip_sq = (np.sum(u_tau_top**2) + np.sum(u_tau_bot**2)) * dx
    momentum_x = grid.integrate(u.values)
    mean_om = cheb_inverse(-cheb_derivative_coeffs(cheb_forward(state.mean_u)))
    om = state.omega.values + mean_om[:, None]
    om_top = g_top + params.beta * u_tau_top
    om_bot = g_bot + params.beta * u_tau_bot
    return DiagnosticsRecord(
        t=state.t,
        kinetic_energy=0.5 * grid.integrate(u.values**2 + v.values**2),
        boundary_stress_energy=params.tau / (2.0 * params.alpha * Re**2) * wall_g_sq,
        dissipation_rate=(1.0 / Re) * grid.integrate(ux**2 + uy**2 + vx**2 + vy**2),
        wall_slip_dissipation=params.alpha / (2.0 * Re) * wall_slip_sq,
        boundary_relaxation_dissipation=params.tau / (params.alpha * Re**2 * params.Wi) * wall_g_sq,
        forcing_power=mean_force * momentum_x,
        curvature_term=-(2.0 * params.kappa / Re) * wall_slip_sq,
        budget_residual=float("nan"),
        omega_inf_norm=np.max(np.abs(om)),
        omega_wall_inf_norm=max(np.max(np.abs(om[0])), np.max(np.abs(om[-1]))),
        friction_trace=-(1.0 / (Re * two_lx)) * (np.sum(uy[0]) - np.sum(uy[-1])) * dx,
        friction_tangential=(1.0 / (Re * two_lx)) * (np.sum(om_top) - np.sum(om_bot)) * dx,
        momentum_x=momentum_x,
        wall_u_top_mean=np.mean(u.values[0]),
        wall_u_bottom_mean=np.mean(u.values[-1]),
    )


@settings(max_examples=20, deadline=None)
@given(grid=grids, params=sim_params, seed=seeds, mean_force=st.floats(-1.0, 1.0))
def test_compute_record_matches_reference(grid, params, seed, mean_force):
    state = random_solver_state(grid, np.random.default_rng(seed))
    rec = compute_record(state, params, mean_force)
    ref = reference_record(state, params, mean_force)
    assert math.isnan(rec.budget_residual)
    for col in _COLUMNS:
        if col == "budget_residual":
            continue
        got, want = getattr(rec, col), getattr(ref, col)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), col
