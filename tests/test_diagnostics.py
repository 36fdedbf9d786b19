import csv
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nspb.diagnostics import (
    CSV_VERSION,
    DiagnosticsRecord,
    _COLUMNS,
    _RECORD_BLOCK_BYTES,
    _RECORD_TEMP_BYTES,
    budget_rhs,
    compute_record,
    compute_records,
    euler_error,
    fit_scaling,
    record_block,
    time_average,
    total_energy,
    write_records,
)
import nspb.flow
import nspb.grid
from nspb.elliptic import biot_savart
from nspb.flow import FlowState, initial_state
from nspb.grid import ChannelGrid, cheb_derivative_coeffs, cheb_inverse
from nspb.params import SimParams
from test_flow import all_modes, grids, random_solver_state, seeds, sim_params


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


def csv_writer_records(path, records) -> None:
    """write_records as v1 wrote it: the version line, then csv.writer rows."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# {CSV_VERSION}\n")
        w = csv.writer(fh)
        w.writerow(_COLUMNS)
        for r in records:
            w.writerow([repr(float(getattr(r, c))) for c in _COLUMNS])


def test_write_records_keeps_the_csv_writer_bytes(tmp_path):
    # LF after the version line, CRLF after the header and every row, and
    # the repr of every value, including the ones with a sign, an exponent
    # or no digits at all
    odd = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 2.2250738585072014e-308,
           0.30000000000000004, 1.0 / 3.0, -1.2345678901234567e-17, 1e22, 123456789.12345678]
    recs = [
        make_record(0.1 * i, **{c: odd[(i + j) % len(odd)] for j, c in enumerate(_COLUMNS[1:])})
        for i in range(len(odd))
    ]
    ours, theirs = tmp_path / "ours.csv", tmp_path / "theirs.csv"
    write_records(ours, recs)
    csv_writer_records(theirs, recs)
    assert ours.read_bytes() == theirs.read_bytes()
    assert ours.read_bytes().count(b"\r\n") == len(recs) + 1
    write_records(ours, [])
    csv_writer_records(theirs, [])
    assert ours.read_bytes() == theirs.read_bytes()


def test_records_csv_header_versioned(tmp_path):
    p = tmp_path / "r.csv"
    write_records(p, [make_record(0.0)])
    first, header = p.read_text().splitlines()[:2]
    assert first == f"# {CSV_VERSION}"
    # the v1 column order, which the record's field order must keep
    assert header == (
        "t,kinetic_energy,boundary_stress_energy,dissipation_rate,wall_slip_dissipation,"
        "boundary_relaxation_dissipation,forcing_power,curvature_term,budget_residual,"
        "omega_inf_norm,omega_wall_inf_norm,friction_trace,friction_tangential,momentum_x,"
        "wall_u_top_mean,wall_u_bottom_mean"
    )


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


def test_euler_error_zero_against_itself_and_rejects_other_grids():
    params = SimParams(Re=100.0, Wi=1.0, tau=1.0, alpha=1.0)
    fine = ChannelGrid(nx=32, ny=33, lx=2 * np.pi)
    a = _smooth_state(fine, params)
    assert euler_error([a], [a])[0] == 0.0
    # the distance is the L2 norm of the velocity difference, here a pure
    # mean-flow shift of 0.1 over a channel of area 2 lx
    shifted = replace(a, mean=a.mean + np.eye(fine.ny)[0] * 0.1)
    assert euler_error([a], [shifted])[0] == pytest.approx(0.1 * math.sqrt(4 * np.pi), rel=1e-13)
    for other in (
        ChannelGrid(nx=16, ny=17, lx=2 * np.pi),
        ChannelGrid(nx=32, ny=17, lx=2 * np.pi),
        ChannelGrid(nx=32, ny=33, lx=3.0),
    ):
        with pytest.raises(ValueError, match="grid mismatch at index 1"):
            euler_error([a, a], [a, _smooth_state(other, params)])


def test_euler_error_alignment_validation():
    params = SimParams(Re=100.0, Wi=1.0, tau=1.0, alpha=1.0)
    grid = ChannelGrid(nx=16, ny=17, lx=2 * np.pi)
    a = _smooth_state(grid, params)
    with pytest.raises(ValueError, match="equal length"):
        euler_error([a, a], [a])
    shifted = replace(a, t=0.5)
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
    """compute_record's earlier arithmetic: biot_savart on every mode of the
    state, the mean profile added in physical space, physical fields of the
    ik products and the d/dy recurrence."""
    grid = state.grid
    Re, dx, two_lx = params.Re, grid.dx, 2.0 * grid.lx
    phys = grid.spec_to_phys

    u_f, v_spec = all_modes(grid, np.stack(biot_savart(grid, state.omega)))
    u_spec = grid.phys_to_spec(phys(u_f) + cheb_inverse(state.mean)[:, None])
    ik = 1j * grid.kx
    u, v = phys(u_spec), phys(v_spec)
    ux, vx = phys(u_spec * ik), phys(v_spec * ik)
    uy, vy = phys(cheb_derivative_coeffs(u_spec)), phys(cheb_derivative_coeffs(v_spec))
    g_top, g_bot = np.fft.irfft(state.g, n=grid.nx, norm="forward")
    wall_g_sq = (np.sum(g_top**2) + np.sum(g_bot**2)) * dx
    u_tau_top, u_tau_bot = -u[0], u[-1]
    wall_slip_sq = (np.sum(u_tau_top**2) + np.sum(u_tau_bot**2)) * dx
    momentum_x = grid.integrate(u)
    mean_om = cheb_inverse(-cheb_derivative_coeffs(state.mean))
    om = phys(all_modes(grid, state.omega)) + mean_om[:, None]
    om_top = g_top + params.beta * u_tau_top
    om_bot = g_bot + params.beta * u_tau_bot
    return DiagnosticsRecord(
        t=state.t,
        kinetic_energy=0.5 * grid.integrate(u**2 + v**2),
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
        wall_u_top_mean=np.mean(u[0]),
        wall_u_bottom_mean=np.mean(u[-1]),
    )


@settings(max_examples=20, deadline=None)
@given(
    grid=grids, params=sim_params, seed=seeds, mean_force=st.floats(-1.0, 1.0),
    n=st.integers(2, 5),
)
def test_compute_record_matches_reference(grid, params, seed, mean_force, n):
    # one state alone, and each of n states in one compute_records block
    rng = np.random.default_rng(seed)
    states = [replace(random_solver_state(grid, rng), t=0.25 * i) for i in range(n)]
    single = compute_record(states[0], params, mean_force)
    block = compute_records(states, params, mean_force)
    assert len(block) == n
    for rec, state in [(single, states[0])] + list(zip(block, states)):
        ref = reference_record(state, params, mean_force)
        assert math.isnan(rec.budget_residual)
        for col in _COLUMNS:
            if col == "budget_residual":
                continue
            got, want = getattr(rec, col), getattr(ref, col)
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), col


@pytest.mark.parametrize("nx", [16, 32, 64])
def test_compute_records_equal_per_state_calls(nx):
    # a block's matmuls and reductions run over more columns than one
    # state's, so BLAS may sum in another order: each record is its state's
    # own to 1e-14 relative (measured up to 3.2e-15), t exactly
    grid = ChannelGrid(nx=nx, ny=nx + 1, lx=3.0)
    params = SimParams(Re=80.0, Wi=0.7, tau=3.0, alpha=2.0, kappa=0.3)
    rng = np.random.default_rng(nx)
    states = [replace(random_solver_state(grid, rng), t=0.1 * i) for i in range(9)]
    block = compute_records(states, params, 0.4)
    assert [r.t for r in block] == [s.t for s in states]
    for rec, state in zip(block, states):
        alone = compute_record(state, params, 0.4)
        for col in _COLUMNS:
            got, want = getattr(rec, col), getattr(alone, col)
            if col == "budget_residual":
                assert math.isnan(got) and math.isnan(want)
                continue
            assert abs(got - want) <= 1e-14 * abs(want), col


def test_compute_records_of_no_state_and_of_mixed_grids():
    params = SimParams(Re=100.0, Wi=1.0, tau=1.0, alpha=1.0)
    assert compute_records([], params) == []
    a = initial_state(ChannelGrid(nx=16, ny=17), params)
    b = initial_state(ChannelGrid(nx=16, ny=25), params)
    with pytest.raises(ValueError, match="grid mismatch at index 2"):
        compute_records([a, a, b], params)


def test_record_block_keeps_the_temporaries_within_the_byte_budget():
    # 16 states at 32x33 and 4 at 64x65, never fewer than one
    assert record_block(ChannelGrid(nx=32, ny=33)) == 16
    assert record_block(ChannelGrid(nx=64, ny=65)) == 4
    assert record_block(ChannelGrid(nx=512, ny=513)) == 1
    for nx in (16, 32, 48, 64, 96, 128):
        grid = ChannelGrid(nx=nx, ny=nx + 1)
        n = record_block(grid)
        per_state = _RECORD_TEMP_BYTES * grid.ny * (grid.dealias_kx + 1)
        assert n == 1 or n * per_state <= _RECORD_BLOCK_BYTES < (n + 1) * per_state


def test_a_full_record_block_stays_within_the_byte_budget():
    # what compute_records allocates for a full block, records included, at
    # the shipped 32x33 and 64x65 grids (tracemalloc counts numpy's buffers)
    params = SimParams(Re=100.0, Wi=1.0, tau=1.0, alpha=1.0)
    for nx in (32, 64):
        grid = ChannelGrid(nx=nx, ny=nx + 1)
        rng = np.random.default_rng(nx)
        states = [random_solver_state(grid, rng) for _ in range(record_block(grid))]
        compute_records(states, params)  # builds the cached operators
        tracemalloc.start()
        try:
            compute_records(states, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= _RECORD_BLOCK_BYTES, nx


# ---- closed-form record ----


@pytest.mark.parametrize("nx, ny, lx, m", [(16, 17, 2 * np.pi, 2), (24, 33, 3.0, 3)])
def test_compute_record_matches_closed_form(nx, ny, lx, m):
    """psi = (1-y^2)^2 cos(k x) over the slip-Poiseuille mean A(1-y^2) + s.

    Every column checked is an exact polynomial integral, so this pins the
    x-weights (lx at k = 0, lx/2 for cos^2 and sin^2) and the k^2 of the
    x-derivatives independently of any transform the record uses.
    """
    P = np.polynomial.Polynomial
    grid = ChannelGrid(nx=nx, ny=ny, lx=lx)
    params = SimParams(Re=7.0, Wi=1.0, tau=1.0, alpha=1.0)
    k = 2.0 * np.pi * m / lx
    A, s = 0.8, 0.3
    psi_y = P([1.0, 0.0, -1.0]) ** 2  # psi's y-profile, zero on both walls
    U = P([A + s, 0.0, -A])

    # omega = Laplacian(psi): (psi_y'' - k^2 psi_y) cos(k x), coefficient 1/2 at
    # mode m, which is column m - 1 of a state's modes 1..J
    omega = np.zeros((grid.ny, grid.dealias_kx), dtype=complex)
    om_y = np.polynomial.chebyshev.poly2cheb((psi_y.deriv(2) - k**2 * psi_y).coef)
    omega[: len(om_y), m - 1] = 0.5 * om_y
    mean = np.zeros(grid.ny)
    mean[:3] = np.polynomial.chebyshev.poly2cheb(U.coef)
    g = np.zeros((2, grid.dealias_kx + 1), dtype=complex)
    state = FlowState(grid=grid, omega=omega, mean=mean, g=g)
    rec = compute_record(state, params, mean_force=0.0)

    def integral(p):
        q = p.integ()
        return q(1.0) - q(-1.0)

    # u = U + u1 cos, u_y = U' + u1' cos, u_x = -k u1 sin; v = -k psi_y sin
    u1 = -psi_y.deriv()
    half = 0.5 * lx
    ke = 0.5 * (lx * integral(U**2) + half * integral(u1**2) + half * k**2 * integral(psi_y**2))
    grad_sq = (
        lx * integral(U.deriv() ** 2)
        + half * integral(u1.deriv() ** 2)  # u_y
        + half * k**2 * integral(u1**2)  # u_x
        + half * k**4 * integral(psi_y**2)  # v_x
        + half * k**2 * integral(psi_y.deriv() ** 2)  # v_y
    )
    want = {
        "kinetic_energy": ke,
        "dissipation_rate": grad_sq / params.Re,
        "momentum_x": lx * integral(U),
        "friction_trace": -(U.deriv()(1.0) - U.deriv()(-1.0)) / (2.0 * params.Re),
        "wall_u_top_mean": U(1.0),
        "wall_u_bottom_mean": U(-1.0),
    }
    for col, value in want.items():
        assert abs(getattr(rec, col) - value) <= 1e-13 * max(1.0, abs(value)), col


# ---- what compute_record reads ----


def test_compute_record_reads_only_modes_up_to_the_cut(monkeypatch):
    grid = ChannelGrid(nx=32, ny=33, lx=2 * np.pi)
    params = SimParams(Re=50.0, Wi=0.5, tau=2.0, alpha=3.0)
    state = random_solver_state(grid, np.random.default_rng(3))
    rec = compute_record(state, params, 0.2)

    # no physical field synthesis and no Chebyshev transform: the state
    # already holds coefficients
    def refuse(*args, **kwargs):
        raise AssertionError("compute_record must not call this")

    monkeypatch.setattr(ChannelGrid, "spec_to_phys", refuse)
    monkeypatch.setattr(np.fft, "rfft", refuse)  # the DCT's transform
    for mod, name in (
        (nspb.grid, "cheb_forward"),
        (nspb.grid, "cheb_inverse"),
        (nspb.flow, "cheb_forward_matrix"),
    ):
        monkeypatch.setattr(mod, name, refuse)

    # the velocity comes from total_velocity's biot_savart, on modes 1..J only
    shapes = []

    def spy(grid, omega):
        shapes.append(omega.shape)
        return biot_savart(grid, omega)

    monkeypatch.setattr(nspb.flow, "biot_savart", spy)
    assert compute_record(state, params, 0.2).row() == rec.row()
    assert shapes == [(grid.ny, grid.dealias_kx)]
