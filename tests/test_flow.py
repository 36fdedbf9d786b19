import struct
from dataclasses import replace

import numpy as np
import scipy.fft
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nspb.checkpoint import CheckpointError, read_checkpoint, write_checkpoint
from nspb.diagnostics import (
    compute_record,
    energy_audit,
    max_principle_report,
    momentum_audit,
    time_average,
    total_energy,
)
import nspb.flow
import nspb.grid
from nspb.elliptic import TauSolver, apply_modes, biot_savart
from nspb.experiments import couette_perturbed_state
from nspb.flow import (
    CFLError,
    ChannelFlowSolver,
    FlowState,
    SolverConfig,
    SolverDivergedError,
    initial_state,
    slip_poiseuille_profile,
    steady_channel_state,
    total_velocity,
    wall_slip,
)
from nspb.grid import (
    ChannelGrid,
    GridError,
    cheb_derivative_coeffs,
    cheb_diff_matrices,
    cheb_inverse,
)
from nspb.params import SimParams
from nspb.wallbc import exp_weights


@pytest.fixture(scope="module")
def grid():
    return ChannelGrid(nx=32, ny=33, lx=2.0 * np.pi)


@pytest.fixture(scope="module")
def params():
    return SimParams(Re=200.0, Wi=0.5, tau=1.0, alpha=1.0, kappa=0.2)


def perturbed_shear(grid):
    """Smooth test flow: odd shear plus a wall-compatible cellular part."""
    X, Y = np.meshgrid(grid.x, grid.y)
    u = np.sin(np.pi * Y / 2.0) + 0.05 * (1.0 - Y**2) ** 2 * np.cos(X)
    v = 0.05 * (1.0 - Y**2) ** 2 * np.sin(2.0 * X)
    return u, v


def all_modes(grid, cols, first=1):
    """The (..., ny, nkx) rfft spectrum with cols at modes first, first + 1, ...

    Every other mode is 0.  A ``FlowState`` vorticity starts at mode 1, a
    ``total_velocity`` array at mode 0.
    """
    full = np.zeros(cols.shape[:-1] + (grid.nkx,), dtype=complex)
    full[..., first : first + cols.shape[-1]] = cols
    return full


def node_values(state):
    """A state's fluctuation vorticity and mean profile at the grid nodes."""
    grid = state.grid
    return grid.spec_to_phys(all_modes(grid, state.omega)), cheb_inverse(state.mean)


def total_vorticity(state):
    """Total vorticity of a state at the grid nodes: fluctuation plus mean."""
    D, _ = cheb_diff_matrices(state.grid.ny)
    cols = np.column_stack([-(D @ state.mean), state.omega])
    return state.grid.spec_to_phys(all_modes(state.grid, cols, first=0))


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(dt=0.0, t_end=1.0)
    with pytest.raises(ValueError):
        SolverConfig(dt=1e-3, t_end=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(dt=1e-3, t_end=1.0, mode="stokes")
    with pytest.raises(ValueError):
        SolverConfig(dt=1e-3, t_end=1.0, forcing="gravity")
    with pytest.raises(ValueError):
        SolverConfig(dt=1e-3, t_end=1.0, cfl_max=0.0)
    with pytest.raises(ValueError):
        SolverConfig(dt=1e-3, t_end=1.0, cfl_max=1.5)
    with pytest.raises(ValueError):
        SolverConfig(dt=1e-3, t_end=1.0, checkpoint_every=0)


def test_zero_state_stays_zero(grid, params):
    sol = ChannelFlowSolver(grid, params, SolverConfig(dt=1e-3, t_end=0.01))
    end = sol.run(initial_state(grid, params))
    assert np.all(end.omega == 0.0)
    assert np.all(end.mean == 0.0)
    assert np.all(end.g[0] == 0.0)
    assert np.all(end.g[1] == 0.0)
    rec = compute_record(end, params)
    assert total_energy(rec) == 0.0
    assert rec.dissipation_rate == 0.0
    assert rec.friction_trace == 0.0


def test_initial_state_seeds_g_on_the_trace_identity(grid, params):
    u, v = perturbed_shear(grid)
    st = initial_state(grid, params, u=u, v=v)
    sol = ChannelFlowSolver(grid, params, SolverConfig(dt=1e-3, t_end=1.0))
    traces = sol.slip_traces(st)
    om = total_vorticity(st)
    assert st.g.shape == traces.shape == (2, grid.nx)
    np.testing.assert_allclose(st.g[0], om[0] - params.beta * traces[0], rtol=0, atol=1e-11)
    np.testing.assert_allclose(st.g[1], om[-1] - params.beta * traces[1], rtol=0, atol=1e-11)


def test_stepped_state_keeps_g_on_the_trace_identity():
    # the implicit closure makes the new field's wall vorticity g + beta*u_tau
    # for the slip it induces, and step_boundary_ode advances g with that same
    # end slip, so the identity holds after every step, not only at the start
    grid = ChannelGrid(nx=24, ny=25, lx=2.0 * np.pi)
    params = SimParams(Re=37.0, Wi=0.3, tau=7.0, alpha=3.0, kappa=0.2)
    sol = ChannelFlowSolver(grid, params, SolverConfig(dt=3e-3, t_end=1.0))
    u, v = perturbed_shear(grid)
    st = sol.run(initial_state(grid, params, u=u, v=v), t_end=10 * 3e-3)
    assert st.step_index == 10
    traces = sol.slip_traces(st)
    om = total_vorticity(st)
    np.testing.assert_allclose(st.g[0], om[0] - params.beta * traces[0], rtol=0, atol=1e-12)
    np.testing.assert_allclose(st.g[1], om[-1] - params.beta * traces[1], rtol=0, atol=1e-12)


def test_mean_vorticity_of_a_cubic_profile(grid, params):
    y = grid.y
    u = np.repeat((1.0 - y**2 + y**3)[:, None], grid.nx, axis=1)
    st = initial_state(grid, params, u=u)
    assert np.all(st.omega == 0.0)
    want = np.repeat((2.0 * y - 3.0 * y**2)[:, None], grid.nx, axis=1)
    np.testing.assert_allclose(total_vorticity(st), want, rtol=0, atol=1e-12)


def test_initial_state_rejects_wrong_shape(grid, params):
    with pytest.raises(GridError, match=r"u has shape \(3, 3\)"):
        initial_state(grid, params, u=np.zeros((3, 3)))
    with pytest.raises(GridError, match="v has shape"):
        initial_state(grid, params, v=np.zeros((grid.nx, grid.ny)))


def test_flow_state_rejects_fields_of_another_shape(grid, params):
    # a state stores vorticity modes 1..J only; an all-mode (ny, nkx) array,
    # as states held before, is refused by name instead of failing in a reshape
    st = initial_state(grid, params)
    J = grid.dealias_kx
    assert st.omega.shape == (grid.ny, J)
    for field, value, shown in [
        ("omega", np.zeros((grid.ny, grid.nkx), dtype=complex), (grid.ny, grid.nkx)),
        ("mean", np.zeros(grid.ny + 1), (grid.ny + 1,)),
        ("g", np.zeros((2, grid.nx + 2)), (2, grid.nx + 2)),
    ]:
        with pytest.raises(GridError) as err:
            replace(st, **{field: value})
        assert f"FlowState.{field} has shape {shown}" in str(err.value)


@pytest.mark.parametrize("kappa", [0.0, 0.2])
def test_slip_poiseuille_is_a_discrete_fixed_point(grid, kappa):
    params = SimParams(Re=200.0, Wi=0.5, tau=1.0, alpha=1.0, kappa=kappa)
    F = 2.0 / params.Re
    st = steady_channel_state(grid, params, F)
    cfg = SolverConfig(
        dt=1e-3, t_end=0.05, forcing="steady_pressure_gradient", forcing_amplitude=F
    )
    end = ChannelFlowSolver(grid, params, cfg).run(st)
    (om_end, mean_end), (om_st, mean_st) = node_values(end), node_values(st)
    assert np.max(np.abs(mean_end - mean_st)) < 1e-12
    assert np.max(np.abs(om_end - om_st)) < 1e-12
    assert np.max(np.abs(end.g[0] - st.g[0])) < 1e-12
    assert np.max(np.abs(end.g[1] - st.g[1])) < 1e-12
    prof = slip_poiseuille_profile(params, F, grid.y)
    np.testing.assert_allclose(mean_end, prof, rtol=0, atol=1e-12)


def test_second_order_self_convergence(grid, params):
    u, v = perturbed_shear(grid)
    T = 0.2

    def endpoint(dt):
        sol = ChannelFlowSolver(grid, params, SolverConfig(dt=dt, t_end=T))
        return node_values(sol.run(initial_state(grid, params, u=u, v=v)))

    ends = [endpoint(dt) for dt in (2e-3, 1e-3, 5e-4, 2.5e-4)]

    def dist(a, b):
        return max(np.max(np.abs(a[0] - b[0])), np.max(np.abs(a[1] - b[1])))

    errs = [dist(a, b) for a, b in zip(ends, ends[1:])]
    # measured 3.99, 4.00; a clean dt^2 halving ratio is 4
    assert errs[0] / errs[1] > 3.5
    assert errs[1] / errs[2] > 3.5


def test_euler_parallel_shear_is_steady(grid, params):
    prof = np.sin(np.pi * grid.y)
    u = np.repeat(prof[:, None], grid.nx, axis=1)
    st = initial_state(grid, params, u=u)
    sol = ChannelFlowSolver(grid, params, SolverConfig(dt=2e-3, t_end=1.0, mode="euler"))
    end = sol.run(st)
    om0 = total_vorticity(st)
    om1 = total_vorticity(end)
    assert np.max(np.abs(om1 - om0)) <= 1e-8


def test_euler_conserves_energy_and_max_principle(grid, params):
    u, v = perturbed_shear(grid)
    st = initial_state(grid, params, u=u, v=v)
    sol = ChannelFlowSolver(grid, params, SolverConfig(dt=1e-3, t_end=0.5, mode="euler"))
    recs = [compute_record(st, params)]
    sol.run(st, callback=lambda s: recs.append(compute_record(s, params)))
    E = [r.kinetic_energy for r in recs]
    assert abs(E[-1] - E[0]) / E[0] < 1e-8
    report = max_principle_report(recs)
    assert report["satisfied"]
    assert report["ratio"] == pytest.approx(1.0, abs=1e-6)


def test_ns_unforced_energy_monotone_and_bounded_vorticity(grid):
    params = SimParams(Re=200.0, Wi=0.5, tau=1.0, alpha=1.0, kappa=0.0)
    u, v = perturbed_shear(grid)
    st = initial_state(grid, params, u=u, v=v)
    sol = ChannelFlowSolver(grid, params, SolverConfig(dt=1e-3, t_end=0.5))
    recs = [compute_record(st, params)]
    sol.run(st, callback=lambda s: recs.append(compute_record(s, params)))
    E = np.array([total_energy(r) for r in recs])
    assert np.all(np.diff(E) < 0.0)
    assert max_principle_report(recs)["satisfied"]


@pytest.mark.parametrize("kappa", [0.0, 0.2])
def test_energy_audit_second_order(grid, kappa):
    # wall layers must be resolved for the budget quadratures to see only
    # the time error; Re=20 keeps them fat on a 33-point grid
    params = SimParams(Re=20.0, Wi=0.5, tau=1.0, alpha=1.0, kappa=kappa)
    u, v = perturbed_shear(grid)
    T = 0.2

    def final_residual(dt):
        sol = ChannelFlowSolver(grid, params, SolverConfig(dt=dt, t_end=T))
        st = initial_state(grid, params, u=u, v=v)
        recs = [compute_record(st, params)]
        sol.run(st, callback=lambda s: recs.append(compute_record(s, params)))
        return energy_audit(recs[-2], recs[-1]).budget_residual

    r = [final_residual(dt) for dt in (2e-3, 1e-3, 5e-4)]
    # measured ratios 4.02, 4.01
    assert r[0] / r[1] > 3.5
    assert r[1] / r[2] > 3.5


def test_energy_audit_closes_at_steady_state(grid, params):
    F = 2.0 / params.Re
    st = steady_channel_state(grid, params, F)
    cfg = SolverConfig(
        dt=1e-3, t_end=1e-3, forcing="steady_pressure_gradient", forcing_amplitude=F
    )
    s1 = ChannelFlowSolver(grid, params, cfg).step(st)
    rec = energy_audit(compute_record(st, params, F), compute_record(s1, params, F))
    assert rec.budget_residual < 1e-12
    assert rec.curvature_term < 0.0  # kappa=0.2 feeds energy back at the wall


def test_energy_audit_rejects_misordered_states(grid, params):
    rec = compute_record(initial_state(grid, params), params)
    with pytest.raises(ValueError, match="increasing time order"):
        energy_audit(rec, rec)


def test_friction_factor_forms_agree_at_steady(grid, params):
    F = 2.0 / params.Re
    st = steady_channel_state(grid, params, F)
    cfg = SolverConfig(
        dt=1e-3, t_end=0.05, forcing="steady_pressure_gradient", forcing_amplitude=F
    )
    sol = ChannelFlowSolver(grid, params, cfg)
    recs = [compute_record(st, params, F)]
    sol.run(st, callback=lambda s: recs.append(compute_record(s, params, F)))
    assert time_average(recs, "friction_trace") == pytest.approx(F, rel=1e-10)
    assert time_average(recs, "friction_tangential") == pytest.approx(F, rel=1e-10)


def test_momentum_audit_balances(grid, params):
    F = 2.0 / params.Re
    st = steady_channel_state(grid, params, F)
    cfg = SolverConfig(
        dt=1e-3, t_end=0.05, forcing="steady_pressure_gradient", forcing_amplitude=F
    )
    sol = ChannelFlowSolver(grid, params, cfg)
    recs = [compute_record(st, params, F)]
    sol.run(st, callback=lambda s: recs.append(compute_record(s, params, F)))
    audit = momentum_audit(recs, grid.lx, F)
    assert audit["max_residual"] < 1e-10

    u, v = perturbed_shear(grid)
    st = initial_state(grid, params, u=u, v=v)
    sol = ChannelFlowSolver(grid, params, SolverConfig(dt=1e-3, t_end=0.1))
    recs = [compute_record(st, params)]
    sol.run(st, callback=lambda s: recs.append(compute_record(s, params)))
    assert momentum_audit(recs, grid.lx, 0.0)["max_residual"] < 1e-10


def test_cfl_guard_raises(grid, params):
    X, Y = np.meshgrid(grid.x, grid.y)
    v = 50.0 * np.sin(X) * (1.0 - Y**2)
    st = initial_state(grid, params, v=v)
    sol = ChannelFlowSolver(grid, params, SolverConfig(dt=5e-2, t_end=0.5, cfl_max=0.1))
    with pytest.raises(CFLError, match="CFL"):
        sol.run(st)


def _guard_number(sol, state, u, v):
    """What the guard computes for physical velocities (u, v) at state."""
    sol._check_cfl({"u_tot": u, "v": v}, state)
    return sol.cfl_peak


def test_cfl_number_is_directional(grid, params):
    dt = 1e-2
    sol = ChannelFlowSolver(grid, params, SolverConfig(dt=dt, t_end=1.0))
    st = replace(initial_state(grid, params), t=0.25)
    X, Y = np.meshgrid(grid.x, grid.y)
    zero = np.zeros_like(X)
    assert sol.cfl_peak == (0.0, None)

    # u alone: the x spacing is uniform, so the number is dt*max|u|/dx
    u = 3.0 * np.cos(X) * (1.0 + Y)
    value, t = _guard_number(sol, st, u, zero)
    assert value == pytest.approx(dt * np.max(np.abs(u)) / grid.dx, rel=1e-14)
    assert t == 0.25

    # v alone: each row is judged on its own smaller neighbour gap
    y, dy_local = grid.y, grid.dy_local
    wall_gap = y[0] - y[1]
    assert dy_local[[0, 1, -2, -1]] == pytest.approx([wall_gap] * 4, rel=1e-12)
    for j in range(1, grid.ny - 1):
        assert dy_local[j] == min(y[j - 1] - y[j], y[j] - y[j + 1])
    assert dy_local[grid.ny // 2] == pytest.approx(np.sin(np.pi / (grid.ny - 1)))
    v = 4.0 * np.sin(X) * (1.0 - Y**2)  # peaks mid-channel, where dy is largest
    sol2 = ChannelFlowSolver(grid, params, SolverConfig(dt=dt, t_end=1.0))
    value, _ = _guard_number(sol2, st, zero, v)
    assert value == pytest.approx(dt * np.max(np.abs(v) / dy_local[:, None]), rel=1e-14)
    assert value < dt * np.max(np.abs(v)) / wall_gap / 10.0

    # the peak only moves up, and keeps the t it was seen at
    _guard_number(sol2, replace(st, t=0.5), zero, 0.5 * v)
    assert sol2.cfl_peak == (value, 0.25)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_cfl_guard_non_finite_velocity_is_divergence(grid, params, bad):
    sol = ChannelFlowSolver(grid, params, SolverConfig(dt=1e-3, t_end=1.0))
    st = replace(initial_state(grid, params), t=0.5, step_index=500)
    v = np.zeros((grid.ny, grid.nx))
    v[7, 3] = bad
    with pytest.raises(SolverDivergedError, match=r"non-finite velocity at step 500 \(t=0.5\)"):
        sol._check_cfl({"u_tot": np.zeros_like(v), "v": v}, st)


def test_wall_parallel_shear_passes_the_directional_guard(grid, params):
    # u = y is 1 in size at the walls, where the wall-normal gap is smallest:
    # wall speed over that gap gives 4.2, far above cfl_max, but the flow
    # there only crosses x cells, at dt/dx = 0.1
    dt = 2e-2
    assert dt / min(grid.dx, grid.y[0] - grid.y[1]) > 4.0
    Y = np.meshgrid(grid.x, grid.y)[1]
    st = initial_state(grid, params, u=Y)
    sol = ChannelFlowSolver(grid, params, SolverConfig(dt=dt, t_end=0.1, cfl_max=0.5))
    final = sol.run(st)
    assert final.step_index == 5
    value, t = sol.cfl_peak
    assert value == pytest.approx(dt / grid.dx, rel=1e-3)
    assert value < 0.5 and t is not None


def test_cfl_error_names_number_bound_time_and_node(grid, params):
    X, Y = np.meshgrid(grid.x, grid.y)
    v = 50.0 * np.sin(X) * (1.0 - Y**2)
    st = replace(initial_state(grid, params, v=v), t=0.3)
    sol = ChannelFlowSolver(grid, params, SolverConfig(dt=5e-2, t_end=0.5, cfl_max=0.1))
    with pytest.raises(CFLError) as err:
        sol.step(st)
    e = err.value
    assert e.cfl > 0.1 and e.cfl_max == 0.1 and e.t == 0.3
    assert e.cfl == sol.cfl_peak[0]
    row, col = e.node
    assert 0 <= row < grid.ny and 0 <= col < grid.nx
    msg = str(e)
    for shown in ("directional CFL number", f"{e.cfl:.4g}", "cfl_max = 0.1", "t=0.3",
                  f"(row, column) = ({row}, {col})"):
        assert shown in msg


@pytest.mark.parametrize("dt, blows_up", [(0.09, False), (0.12, True)])
def test_euler_mode_blow_up_boundary(params, dt, blows_up):
    # Heun advection is unstable on the whole imaginary axis, |G|^2 = 1 + z^4/4,
    # so only the step count sets where roundoff grows to blow-up.  Over 200
    # Euler-mode steps from the inviscid_limit start, measured at 32x33, 64x65
    # and 128x129 alike: a run starting at directional CFL 0.46 stays bounded,
    # one starting at 0.56 or more diverges (0.51 amplifies the vorticity 2-6x).
    grid = ChannelGrid(nx=32, ny=33)
    st = couette_perturbed_state(grid, params)
    cfg = SolverConfig(dt=dt, t_end=200 * dt, mode="euler", cfl_max=0.99)
    sol = ChannelFlowSolver(grid, params, cfg)
    omega0 = compute_record(st, params).omega_inf_norm
    first = sol.step(st)
    cfl0 = sol.cfl_peak[0]
    if blows_up:
        assert cfl0 > 0.56
        # the blow-up drives the number past cfl_max long after the start
        with pytest.raises(CFLError) as err:
            sol.run(first)
        assert err.value.t > 50 * dt
        return
    assert cfl0 < 0.47
    final = sol.run(first)
    assert sol.cfl_peak[0] < 0.55
    assert compute_record(final, params).omega_inf_norm < 1.1 * omega0


def test_steps_make_no_dct_call(grid, params, monkeypatch):
    # the state holds coefficients, so a step never transforms in y
    u, v = perturbed_shear(grid)
    st = initial_state(grid, params, u=u, v=v)
    solvers = [
        ChannelFlowSolver(grid, params, SolverConfig(dt=1e-3, t_end=1.0, mode=mode))
        for mode in ("navier_stokes", "euler")
    ]
    want = [sol.step(st) for sol in solvers]

    def refuse(*args, **kwargs):
        raise AssertionError("a solver step must not call this")

    monkeypatch.setattr(scipy.fft, "dct", refuse)
    monkeypatch.setattr(nspb.grid, "cheb_forward", refuse)
    monkeypatch.setattr(nspb.grid, "cheb_inverse", refuse)
    monkeypatch.setattr(nspb.flow, "cheb_forward", refuse)
    for sol, ref in zip(solvers, want):
        got = sol.step(st)
        for name in ("omega", "mean", "g"):
            assert np.array_equal(getattr(got, name), getattr(ref, name)), name


def test_run_time_span_validation(grid, params):
    sol = ChannelFlowSolver(grid, params, SolverConfig(dt=1e-3, t_end=0.01))
    st = initial_state(grid, params)
    with pytest.raises(ValueError, match="before"):
        sol.run(replace(st, t=1.0), t_end=0.5)
    with pytest.raises(ValueError, match="integer"):
        sol.run(st, t_end=0.0015)


def test_checkpoint_restart_matches_uninterrupted(grid, params, tmp_path):
    u, v = perturbed_shear(grid)
    st = initial_state(grid, params, u=u, v=v)
    cfg = SolverConfig(dt=1e-3, t_end=0.04)
    sol = ChannelFlowSolver(grid, params, cfg)
    s40 = sol.run(st, t_end=0.04)
    s20 = sol.run(st, t_end=0.02)

    path = tmp_path / "mid.ckpt"
    write_checkpoint(path, s20, params, cfg)
    grid2, restored, dt, physics = read_checkpoint(path)
    assert dt == 1e-3
    assert restored.t == pytest.approx(0.02)
    assert physics == {
        "lx": grid.lx, "re": params.Re, "wi": params.Wi, "tau": params.tau,
        "alpha": params.alpha, "kappa": params.kappa, "mode": "navier_stokes",
        "forcing": "zero", "forcing_amplitude": 0.0,
    }
    sol2 = ChannelFlowSolver(grid2, params, SolverConfig(dt=dt, t_end=0.04))
    s40b = sol2.run(restored, t_end=0.04)

    (om_a, mean_a), (om_b, mean_b) = node_values(s40), node_values(s40b)
    assert np.max(np.abs(om_a - om_b)) < 1e-12
    assert np.max(np.abs(mean_a - mean_b)) < 1e-12
    assert np.max(np.abs(s40.g[0] - s40b.g[0])) < 1e-12
    assert np.max(np.abs(s40.g[1] - s40b.g[1])) < 1e-12


def test_read_checkpoint_restores_the_state_invariant(params, tmp_path):
    # the file holds node values of every mode; reading keeps modes 1..J,
    # the ones a state stores, and drops the roundoff at k = 0 and above J
    grid = ChannelGrid(nx=64, ny=65)
    u, v = perturbed_shear(grid)
    cfg = SolverConfig(dt=2e-4, t_end=4e-4)
    st = ChannelFlowSolver(grid, params, cfg).run(initial_state(grid, params, u=u, v=v))
    write_checkpoint(tmp_path / "s.ckpt", st, params, cfg)
    restored = read_checkpoint(tmp_path / "s.ckpt").state
    assert restored.omega.shape == st.omega.shape == (grid.ny, grid.dealias_kx)
    assert _rel(restored.omega, st.omega) <= 1e-13
    assert _rel(restored.mean, st.mean) <= 1e-13


def test_read_checkpoint_rejects_t_off_the_step_grid(tmp_path):
    # a restart runs from t in whole steps of dt, so a t between steps is a
    # corrupt file: named at load, not a runtime failure mid-restart
    nx, ny = 16, 17
    payload = np.zeros(ny * nx + ny + 4 * nx, dtype="<f8").tobytes()
    path = tmp_path / "between.ckpt"

    def v1(t):
        path.write_bytes(struct.pack("<4sIIIdd", b"NSPB", 1, nx, ny, t, 1e-3) + payload)
        return path

    with pytest.raises(CheckpointError) as err:
        read_checkpoint(v1(0.0105))
    assert str(err.value) == f"{path}: t = 0.0105 is not a whole number of steps of dt = 0.001"
    # roundoff in t within ChannelFlowSolver.run's tolerance still loads
    assert read_checkpoint(v1(0.3 * (1 + 1e-12))).state.step_index == 300


def test_version_1_checkpoint_loads_like_its_version_2_twin(grid, params, tmp_path):
    u, v = perturbed_shear(grid)
    cfg = SolverConfig(dt=1e-3, t_end=0.01)
    st = ChannelFlowSolver(grid, params, cfg).run(initial_state(grid, params, u=u, v=v))
    write_checkpoint(tmp_path / "v2.ckpt", st, params, cfg)
    # v1: a 32-byte header ending after dt, then two slip accumulators after g
    accumulators = np.random.default_rng(0).standard_normal((2, grid.nx))
    v1 = struct.pack("<4sIIIdd", b"NSPB", 1, grid.nx, grid.ny, st.t, cfg.dt) + b"".join(
        np.ascontiguousarray(a, dtype="<f8").tobytes()
        for a in (*node_values(st), st.g, accumulators)
    )
    (tmp_path / "v1.ckpt").write_bytes(v1)

    old = read_checkpoint(tmp_path / "v1.ckpt", lx=grid.lx)
    new = read_checkpoint(tmp_path / "v2.ckpt")
    assert old.physics is None
    assert new.physics["alpha"] == params.alpha
    assert old.grid == new.grid
    assert old.dt == new.dt
    assert (old.state.t, old.state.step_index) == (new.state.t, new.state.step_index)
    assert np.array_equal(old.state.omega, new.state.omega)
    assert np.array_equal(old.state.mean, new.state.mean)
    assert np.array_equal(old.state.g, new.state.g)


def test_checkpoint_rejects_corrupt_files(grid, params, tmp_path):
    st = initial_state(grid, params)
    path = tmp_path / "ok.ckpt"
    write_checkpoint(path, st, params, SolverConfig(dt=1e-3, t_end=1.0))
    raw = path.read_bytes()

    bad_magic = tmp_path / "magic.ckpt"
    bad_magic.write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(CheckpointError, match="magic"):
        read_checkpoint(bad_magic)

    truncated = tmp_path / "short.ckpt"
    truncated.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(CheckpointError, match="bytes"):
        read_checkpoint(truncated)

    header_only = tmp_path / "header.ckpt"
    header_only.write_bytes(raw[:10])
    with pytest.raises(CheckpointError, match="truncated"):
        read_checkpoint(header_only)

    flipped = bytearray(raw)
    flipped[-5] ^= 0x01
    corrupt = tmp_path / "flipped.ckpt"
    corrupt.write_bytes(bytes(flipped))
    with pytest.raises(CheckpointError, match="CRC32"):
        read_checkpoint(corrupt)

    # v1 headers carry no CRC, so crafted values reach the header checks
    def v1(name, nx=grid.nx, t=0.0, dt=1e-3):
        path = tmp_path / f"{name}.ckpt"
        payload = np.zeros(grid.ny * nx + grid.ny + 4 * nx, dtype="<f8")
        header = struct.pack("<4sIIIdd", b"NSPB", 1, nx, grid.ny, t, dt)
        path.write_bytes(header + payload.tobytes())
        return path

    assert read_checkpoint(v1("valid")).state.step_index == 0
    for name, header, shown in [
        ("dt_zero", {"dt": 0.0}, "dt must be positive and finite, got 0.0"),
        ("dt_negative", {"dt": -1e-3}, "dt must be positive and finite, got -0.001"),
        ("dt_inf", {"dt": np.inf}, "dt must be positive and finite, got inf"),
        ("t_nan", {"t": np.nan}, "t must be nonnegative and finite, got nan"),
        ("nx_odd", {"nx": 7}, "nx must be even and >= 8, got 7"),
    ]:
        path = v1(name, **header)
        with pytest.raises(CheckpointError) as err:
            read_checkpoint(path)
        assert str(err.value) == f"{path}: {shown}"


class PerModeReference:
    """The per-mode loops the batched operator stacks replaced.

    Every mode is one ``TauSolver.solve_mode`` (an LU solve) and every
    y-derivative one ``cheb_derivative_coeffs`` recurrence.  The wall law
    closes through the 2x2 influence matrix built from the two
    unit-boundary profiles of each mode, and the mean profile is the k = 0
    tau solve with Robin rows.
    """

    def __init__(self, grid, params, dt):
        self.grid = grid
        self.jmax = grid.dealias_kx
        _, w0, w1 = exp_weights(dt, params.Wi)
        self.c2 = params.beta - params.alpha * params.Re / params.tau * w1
        self.poisson = TauSolver(grid, 0.0, (1.0, 0.0), (1.0, 0.0))
        self.signs = np.where(np.arange(grid.ny) % 2 == 0, 1.0, -1.0)

    def velocity(self, omega):
        """(u, v) of the (ny, J) vorticity modes 1..J."""
        u = np.empty_like(omega)
        v = np.empty_like(omega)
        for j in range(1, self.jmax + 1):
            psi = self.poisson.solve_mode(j, -omega[:, j - 1])
            u[:, j - 1] = -cheb_derivative_coeffs(psi)
            v[:, j - 1] = 1j * self.grid.kx[j] * psi
        return u, v

    def wall_u_traces(self, j, col):
        ucol = -cheb_derivative_coeffs(self.poisson.solve_mode(j, -np.asarray(col, dtype=complex)))
        return ucol.sum(), self.signs @ ucol

    def slip_traces(self, state):
        u, _ = self.velocity(state.omega)
        u_phys = self.grid.spec_to_phys(all_modes(self.grid, u)) + cheb_inverse(state.mean)[:, None]
        return -u_phys[0], u_phys[-1]

    def stage(self, lam, rhs, mean_rhs, qhat):
        grid, c2 = self.grid, self.c2
        dirichlet = TauSolver(grid, lam, (1.0, 0.0), (1.0, 0.0))
        zeros = np.zeros(grid.ny)
        out = np.empty_like(rhs)
        for j in range(1, self.jmax + 1):
            unit_top = dirichlet.solve_mode(j, zeros, 1.0, 0.0).real
            unit_bot = dirichlet.solve_mode(j, zeros, 0.0, 1.0).real
            a_tt, a_bt = self.wall_u_traces(j, unit_top)
            a_tb, a_bb = self.wall_u_traces(j, unit_bot)
            K = np.array(
                [
                    [1.0 + c2 * a_tt.real, c2 * a_tb.real],
                    [-c2 * a_bt.real, 1.0 - c2 * a_bb.real],
                ]
            )
            part = dirichlet.solve_mode(j, rhs[:, j - 1], 0.0, 0.0)
            ut_p, ub_p = self.wall_u_traces(j, part)
            d_t, d_b = np.linalg.solve(K, [qhat[0, j] - c2 * ut_p, qhat[1, j] + c2 * ub_p])
            out[:, j - 1] = part + d_t * unit_top + d_b * unit_bot
        mean = TauSolver(grid, lam, (c2, -1.0), (c2, 1.0))
        mean_out = mean.solve_mode(0, mean_rhs, qhat[0, 0].real, -qhat[1, 0].real).real
        return out, mean_out


def _rel(a, b):
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


# hypothesis draws of the oracle tests, here and in test_diagnostics.py
grids = st.sampled_from([16, 24, 32, 48, 64]).map(lambda n: ChannelGrid(nx=n, ny=n + 1))
sim_params = st.builds(
    lambda Re, Wi, tau, alpha, kappa_frac: SimParams(
        Re=Re, Wi=Wi, tau=tau, alpha=alpha, kappa=kappa_frac * alpha
    ),
    st.floats(10.0, 1000.0),
    st.floats(0.1, 10.0),
    st.floats(0.1, 100.0),
    st.floats(0.1, 1000.0),
    st.floats(0.0, 0.24),
)
seeds = st.integers(0, 2**31)


def random_modes(grid, rng):
    """White-noise (ny, J) complex coefficients of Fourier modes 1..J."""
    shape = (grid.ny, grid.dealias_kx)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_solver_state(grid, rng):
    """White-noise state: vorticity modes 1..J, mean profile, wall stress."""
    return FlowState(
        grid=grid,
        omega=random_modes(grid, rng),
        mean=rng.standard_normal(grid.ny),
        g=rng.standard_normal((2, grid.nx)),
    )


@settings(max_examples=20, deadline=None)
@given(grid=grids, params=sim_params, dt=st.floats(1e-4, 1e-2), seed=seeds)
def test_batched_operators_match_per_mode_reference(grid, params, dt, seed):
    sol = ChannelFlowSolver(grid, params, SolverConfig(dt=dt, t_end=1.0))
    ref = PerModeReference(grid, params, dt)
    rng = np.random.default_rng(seed)
    Re = params.Re

    # velocity of vorticity modes 1..J, as biot_savart promises
    omega = random_modes(grid, rng)
    u, v = biot_savart(grid, omega)
    u_ref, v_ref = ref.velocity(omega)
    assert _rel(u, u_ref) <= 1e-12
    assert _rel(v, v_ref) <= 1e-12

    # wall slip traces of a solver state
    state = random_solver_state(grid, rng)
    traces = sol.slip_traces(state)
    top_ref, bottom_ref = ref.slip_traces(state)
    assert _rel(traces[0], top_ref) <= 1e-12
    assert _rel(traces[1], bottom_ref) <= 1e-12

    # both implicit stages, wall law closed; the mean is the k = 0 column,
    # and the stage reads the wall data from the tau rows of its right-hand side
    J = grid.dealias_kx
    assert sol._traces.shape == (J + 1, 2, grid.ny)
    for lam, stage in ((Re / dt, sol._stage_p), (2.0 * Re / dt, sol._stage_c)):
        assert stage.shape == (J + 1, grid.ny, grid.ny)
        rhs = random_modes(grid, rng)
        mean_rhs = rng.standard_normal(grid.ny)
        shape = (2, J + 1)
        qhat = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        qhat[:, 0] = qhat[:, 0].real
        out_ref, mean_ref = ref.stage(lam, rhs, mean_rhs, qhat)
        x = np.column_stack([mean_rhs, rhs])
        x[-2:] = qhat
        out = apply_modes(stage, x)
        assert _rel(out[:, 1:], out_ref) <= 1e-12
        assert _rel(out[:, 0].real, mean_ref) <= 1e-12
        assert np.all(out[:, 0].imag == 0.0)


def reference_nonlinear(grid, omega, mean_coeffs):
    """_nonlinear's earlier arithmetic: five single-field spec_to_phys and
    two full phys_to_spec calls, truncated to the dealiased rows and modes."""
    D, D2 = cheb_diff_matrices(grid.ny)
    u_spec, v_spec = all_modes(grid, np.stack(total_velocity(grid, omega, mean_coeffs)), first=0)
    omega_spec = all_modes(grid, omega)
    om_y_spec = D @ omega_spec
    om_y_spec[:, 0] = -(D2 @ mean_coeffs)

    u_tot = grid.spec_to_phys(u_spec)
    v_phys = grid.spec_to_phys(v_spec)
    om_phys = grid.spec_to_phys(omega_spec)
    om_x = grid.spec_to_phys(omega_spec * (1j * grid.kx))
    om_y = grid.spec_to_phys(om_y_spec)

    N = -grid.phys_to_spec(u_tot * om_x + v_phys * om_y)[:, 1 : grid.dealias_kx + 1]
    N[grid.dealias_cheb + 1 :, :] = 0.0
    R = grid.phys_to_spec(v_phys * om_phys)[:, 0].real.copy()
    R[grid.dealias_cheb + 1 :] = 0.0
    return N, R, {"u_tot": u_tot, "v": v_phys, "slip": wall_slip(u_tot[[0, -1]])}


@settings(max_examples=20, deadline=None)
@given(grid=grids, params=sim_params, seed=seeds)
def test_nonlinear_matches_reference(grid, params, seed):
    sol = ChannelFlowSolver(grid, params, SolverConfig(dt=1e-3, t_end=1.0))
    state = random_solver_state(grid, np.random.default_rng(seed))
    omega, mean_coeffs = state.omega, state.mean
    N, aux = sol._nonlinear(np.column_stack([mean_coeffs, omega]))
    N_ref, R_ref, aux_ref = reference_nonlinear(grid, omega, mean_coeffs)
    assert _rel(N[:, 1:], N_ref) <= 1e-12
    assert _rel(N[:, 0], R_ref) <= 1e-12
    assert np.all(N[:, 0].imag == 0.0)
    for key in ("u_tot", "v", "slip"):
        assert _rel(aux[key], aux_ref[key]) <= 1e-12, key


@pytest.mark.parametrize(
    "mode, field, detected",
    [
        ("navier_stokes", "omega", ("velocity", 5)),
        ("euler", "omega", ("velocity", 5)),
        ("navier_stokes", "g_top", ("omega", 6)),
        ("navier_stokes", "g_bottom", ("omega", 6)),
    ],
)
def test_nan_stops_the_run_with_a_named_error(grid, params, mode, field, detected):
    u, v = perturbed_shear(grid)
    sol = ChannelFlowSolver(grid, params, SolverConfig(dt=1e-3, t_end=0.01, mode=mode))
    mid = sol.run(initial_state(grid, params, u=u, v=v), t_end=0.005)
    if field == "omega":
        spec = mid.omega.copy()
        spec[3, 2] = np.nan
        bad = replace(mid, omega=spec)
    else:
        g = mid.g.copy()
        g[0 if field == "g_top" else 1, 1] = np.nan
        bad = replace(mid, g=g)
    name, step = detected
    with pytest.raises(SolverDivergedError, match=f"non-finite {name} at step {step}") as info:
        sol.run(bad)
    assert not isinstance(info.value, ValueError)
    assert (info.value.field, info.value.step) == (name, step)
    assert info.value.t == pytest.approx(step * 1e-3)


@pytest.mark.parametrize("field", ["omega", "mean", "g"])
def test_step_names_each_non_finite_field(grid, params, monkeypatch, field):
    # the step unpacks the mean from column 0 of its packed array and the
    # modes from the columns after it; a non-finite entry is named by field
    sol = ChannelFlowSolver(grid, params, SolverConfig(dt=1e-3, t_end=0.01))
    advance = sol._step_ns

    def poisoned(state, x):
        x, g = advance(state, x)
        if field == "g":
            g[1, 2] = np.nan
        else:
            x[3, 0 if field == "mean" else 2] = np.nan
        return x, g

    monkeypatch.setattr(sol, "_step_ns", poisoned)
    with pytest.raises(SolverDivergedError, match=f"non-finite {field} at step 1 "):
        sol.step(initial_state(grid, params))
