import math
import struct
import tracemalloc
import zlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nspb.checkpoint import CheckpointError, read_checkpoint, write_checkpoint
from nspb.diagnostics import (
    compute_record,
    compute_records,
    energy_audit,
    euler_error,
    momentum_audit,
    time_average,
    total_energy,
)
import nspb.flow
import nspb.grid
from nspb.elliptic import (
    SolverError,
    TauSolver,
    apply_modes,
    biot_savart,
    dirichlet_stage_inverses,
    streamfunction_operator,
)
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


def assert_same_state(a, b):
    """a and b are the same state bit for bit: the restart contract."""
    assert (a.t, a.step_index) == (b.t, b.step_index)
    for name in ("omega", "mean", "g"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def g_nodes(state):
    """A state's wall stress at the x-nodes, (2, nx): its modes 0..J through S."""
    grid = state.grid
    S = nspb.grid.fourier_matrices(grid.nx, grid.dealias_kx, grid.lx)[0]
    return np.ascontiguousarray(state.g).view(np.float64) @ S


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
    # forcing_amplitude alone sets the forcing; a named forcing must agree with it
    with pytest.raises(ValueError, match="contradicts"):
        SolverConfig(dt=1e-3, t_end=1.0, forcing="zero", forcing_amplitude=0.1)
    unforced = SolverConfig(dt=1e-3, t_end=1.0)
    named = replace(unforced, forcing="steady_pressure_gradient", forcing_amplitude=0.1)
    assert named == replace(unforced, forcing_amplitude=0.1)
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
    om, g = total_vorticity(st), g_nodes(st)
    assert st.g.shape == (2, grid.dealias_kx + 1)
    assert g.shape == traces.shape == (2, grid.nx)
    np.testing.assert_allclose(g[0], om[0] - params.beta * traces[0], rtol=0, atol=1e-11)
    np.testing.assert_allclose(g[1], om[-1] - params.beta * traces[1], rtol=0, atol=1e-11)


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
    om, g = total_vorticity(st), g_nodes(st)
    np.testing.assert_allclose(g[0], om[0] - params.beta * traces[0], rtol=0, atol=1e-12)
    np.testing.assert_allclose(g[1], om[-1] - params.beta * traces[1], rtol=0, atol=1e-12)


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
    # a state stores vorticity modes 1..J and g's modes 0..J only; an all-mode
    # (ny, nkx) omega or a (2, nx) node g, as states held before, is refused
    # by name instead of failing in a reshape
    st = initial_state(grid, params)
    J = grid.dealias_kx
    assert st.omega.shape == (grid.ny, J)
    assert st.g.shape == (2, J + 1)
    for field, value, shown in [
        ("omega", np.zeros((grid.ny, grid.nkx), dtype=complex), (grid.ny, grid.nkx)),
        ("mean", np.zeros(grid.ny + 1), (grid.ny + 1,)),
        ("g", np.zeros((2, grid.nx)), (2, grid.nx)),
    ]:
        with pytest.raises(GridError) as err:
            replace(st, **{field: value})
        assert f"FlowState.{field} has shape {shown}" in str(err.value)


@pytest.mark.parametrize("kappa", [0.0, 0.2])
def test_slip_poiseuille_is_a_discrete_fixed_point(grid, kappa):
    params = SimParams(Re=200.0, Wi=0.5, tau=1.0, alpha=1.0, kappa=kappa)
    F = 2.0 / params.Re
    st = steady_channel_state(grid, params, F)
    cfg = SolverConfig(dt=1e-3, t_end=0.05, forcing_amplitude=F)
    end = ChannelFlowSolver(grid, params, cfg).run(st)
    (om_end, mean_end), (om_st, mean_st) = node_values(end), node_values(st)
    assert np.max(np.abs(mean_end - mean_st)) < 1e-12
    assert np.max(np.abs(om_end - om_st)) < 1e-12
    assert np.max(np.abs(end.g[0] - st.g[0])) < 1e-12
    assert np.max(np.abs(end.g[1] - st.g[1])) < 1e-12
    prof = slip_poiseuille_profile(params, F, grid.y)
    np.testing.assert_allclose(mean_end, prof, rtol=0, atol=1e-12)


def test_forced_run_from_the_steady_state_keeps_the_fluctuation_exactly_zero():
    # the wall law acts on g's Fourier modes, so the x-constant wall drive of
    # the steady state reaches no mode above 0: not even roundoff enters the
    # fluctuation, and the forced run steps the exact fixed point
    grid = ChannelGrid(nx=16, ny=17)
    params = SimParams(Re=250.0, Wi=1.0, tau=100.0, alpha=10.0)
    F = 1.0 / params.Re
    cfg = SolverConfig(dt=5e-3, t_end=20 * 5e-3, forcing_amplitude=F)
    end = ChannelFlowSolver(grid, params, cfg).run(steady_channel_state(grid, params, F))
    assert end.step_index == 20
    assert np.all(end.omega == 0.0)
    assert np.all(end.g[:, 1:] == 0.0)


class ReportsNonzero(np.ndarray):
    """The same numbers, but a count of its nonzero entries is never 0.

    A packed array viewed as this class takes ``_nonlinear``'s general path
    even when its modes 1..J are all 0.
    """

    def __array_function__(self, func, types, args, kwargs):
        if func is np.count_nonzero:
            return 1
        return super().__array_function__(func, types, args, kwargs)


def parallel_states(grid, params):
    """x-independent states: the forced steady state, rest, a random profile."""
    prof = np.random.default_rng(5).standard_normal(grid.ny)
    return {
        "steady": steady_channel_state(grid, params, 0.01),
        "rest": initial_state(grid, params),
        "random": initial_state(grid, params, u=np.repeat(prof[:, None], grid.nx, axis=1)),
    }


@pytest.mark.parametrize("name", ["steady", "rest", "random"])
def test_nonlinear_of_a_parallel_state_is_exactly_zero(grid, params, name):
    # an x-independent field has v = psi_x = 0 and omega_x = 0, so both
    # advection terms vanish; u is the mean profile with the general path's bits
    sol = ChannelFlowSolver(grid, params, SolverConfig(dt=1e-3, t_end=1.0))
    x = sol._pack(parallel_states(grid, params)[name])
    N, u, v = sol._nonlinear(x)
    _, u_gen, v_gen = sol._nonlinear(x.view(ReportsNonzero))
    assert u_gen.shape == v_gen.shape == (grid.ny, grid.nx)
    assert u.shape == v.shape == (grid.ny, 1)
    assert N.shape == (grid.ny, grid.dealias_kx + 1)
    assert np.all(N == 0.0) and np.all(v == 0.0)
    assert np.broadcast_to(u, u_gen.shape).tobytes() == u_gen.tobytes()


@pytest.mark.parametrize("nx, ny", [(16, 17), (64, 65)])
@pytest.mark.parametrize("name", ["steady", "rest", "random"])
def test_parallel_step_is_bitwise_the_full_width_step(params, nx, ny, name):
    # a parallel state steps on its k = 0 column alone; a g whose count of
    # nonzero modes reads 1 takes the full-width step, predictor included.
    # Over 20 chained steps both give the same x, g and kept end slip
    grid = ChannelGrid(nx=nx, ny=ny)
    cfg = SolverConfig(dt=1e-3, t_end=1.0, forcing_amplitude=0.01)
    start = parallel_states(grid, params)[name]
    narrow, full = ChannelFlowSolver(grid, params, cfg), ChannelFlowSolver(grid, params, cfg)
    a, b = start, replace(start, g=start.g.view(ReportsNonzero))
    for _ in range(20):
        a, b = narrow.step(a), full.step(b)
        assert type(b.g) is ReportsNonzero and type(a.g) is np.ndarray
        for field in ("omega", "mean", "g"):
            assert getattr(a, field).tobytes() == np.asarray(getattr(b, field)).tobytes(), field
        assert narrow._end_slip[1].tobytes() == np.asarray(full._end_slip[1]).tobytes()
    assert np.all(a.omega == 0.0) and np.all(a.g[:, 1:] == 0.0)
    assert not np.array_equal(a.mean, start.mean)


def test_forced_run_from_the_steady_state_makes_no_transform(monkeypatch):
    # a parallel step applies no streamfunction stack, touches no Fourier
    # matrix, runs no predictor stage and applies no stack beyond its k = 0
    # map, and the run keeps its bytes; the counters read the solver's full
    # map set only once it is built, since reading it would build it
    grid = ChannelGrid(nx=16, ny=17)
    params = SimParams(Re=250.0, Wi=1.0, tau=100.0, alpha=10.0)
    F = 1.0 / params.Re
    cfg = SolverConfig(dt=5e-3, t_end=20 * 5e-3, forcing_amplitude=F)
    steady = steady_channel_state(grid, params, F)
    general = initial_state(grid, params, *perturbed_shear(grid))
    want = [ChannelFlowSolver(grid, params, cfg).run(st) for st in (steady, general)]
    calls = {}

    class Counted:
        """A Fourier matrix that counts the matmuls and slices made of it."""

        __array_ufunc__ = None  # numpy defers a @ Counted to __rmatmul__

        def __init__(self, M):
            self.M = M

        def __matmul__(self, other):
            calls["fourier"] += 1
            return self.M @ other

        def __rmatmul__(self, other):
            calls["fourier"] += 1
            return other @ self.M

        def __getitem__(self, key):
            calls["fourier"] += 1
            return self.M[key]

    apply = nspb.flow.apply_modes
    got = []
    for st in (steady, general):
        sol = ChannelFlowSolver(grid, params, cfg)
        sol._fourier = tuple(Counted(M) for M in sol._fourier)

        def counted_apply(ops, cols, sol=sol):
            modes = vars(sol).get("_modes")
            calls["psi"] += modes is not None and ops is modes.psi
            calls["predictor"] += modes is not None and np.shares_memory(ops, modes.stage_p)
            calls["wide" if len(ops) > 1 else "k0"] += 1
            return apply(ops, cols)

        monkeypatch.setattr(nspb.flow, "apply_modes", counted_apply)
        calls.update(psi=0, fourier=0, predictor=0, wide=0, k0=0)
        got.append((sol.run(st), dict(calls)))
    (steady_end, steady_calls), (general_end, general_calls) = got
    # a corrector and an end slip per step, and the first step's start slip
    assert steady_calls == {"psi": 0, "fourier": 0, "predictor": 0, "wide": 0, "k0": 41}
    # the counters see a general run's two evaluations and its predictor per step
    assert general_calls["psi"] == 40 and general_calls["fourier"] > 40
    assert general_calls["predictor"] == 20
    assert (general_calls["wide"], general_calls["k0"]) == (40 + 20 + 20 + 21, 0)
    assert_same_state(steady_end, want[0])
    assert_same_state(general_end, want[1])


def test_zero_vorticity_with_a_wall_fluctuation_takes_the_shortcut_once(
    grid, params, monkeypatch
):
    # the start of a step is x-independent, but the wall data on g's modes
    # 1..J puts a fluctuation into the predictor's x_star, and from there on
    # into every state: each step, the first included, is full width
    g = initial_state(grid, params).g.copy()
    g[:, 1:3] = [[0.3, -0.2j], [0.1 + 0.1j, 0.2]]
    st = replace(initial_state(grid, params), g=g)
    sol = ChannelFlowSolver(grid, params, SolverConfig(dt=1e-3, t_end=1.0))
    evaluate = sol._nonlinear
    took = []

    def recorded(x):
        out = evaluate(x)
        took.append(out[1].shape[1] == 1)
        return out

    sol._nonlinear = recorded
    apply = nspb.flow.apply_modes
    stages = []

    def recorded_apply(ops, cols):
        modes = vars(sol)["_modes"]  # built by the first, general, step
        if np.shares_memory(ops, modes.stage_p) or np.shares_memory(ops, modes.stage_c):
            stages.append(len(ops))
        return apply(ops, cols)

    monkeypatch.setattr(nspb.flow, "apply_modes", recorded_apply)
    sol.run(st, t_end=3e-3)
    assert took == [True] + [False] * 5
    assert stages == [grid.dealias_kx + 1] * 6


@pytest.mark.parametrize("mode", ["navier_stokes", "euler"])
def test_nan_in_a_parallel_mean_is_a_diverged_velocity(mode):
    grid = ChannelGrid(nx=16, ny=17)
    params = SimParams(Re=250.0, Wi=1.0, tau=100.0, alpha=10.0)
    F = 1.0 / params.Re
    cfg = SolverConfig(dt=5e-3, t_end=1.0, mode=mode, forcing_amplitude=F)
    sol = ChannelFlowSolver(grid, params, cfg)
    mid = sol.run(steady_channel_state(grid, params, F), t_end=5 * 5e-3)
    assert np.all(mid.omega == 0.0)
    mean = mid.mean.copy()
    mean[3] = np.nan
    with pytest.raises(SolverDivergedError, match="non-finite velocity at step 5 ") as info:
        sol.run(replace(mid, mean=mean))
    assert (info.value.field, info.value.step) == ("velocity", 5)


@pytest.mark.parametrize("row", [0, 1])
def test_nan_in_the_wall_modes_of_a_parallel_state_stops_the_full_width_step(row):
    # the solver did not return this state, so its g is checked before the
    # step and named at the state's own step index; unchecked, the tau rows
    # of the full-width step would carry the NaN into the new vorticity
    grid = ChannelGrid(nx=16, ny=17)
    params = SimParams(Re=250.0, Wi=1.0, tau=100.0, alpha=10.0)
    F = 1.0 / params.Re
    cfg = SolverConfig(dt=5e-3, t_end=1.0, forcing_amplitude=F)
    sol = ChannelFlowSolver(grid, params, cfg)
    mid = sol.run(steady_channel_state(grid, params, F), t_end=5 * 5e-3)
    assert np.all(mid.omega == 0.0) and np.all(mid.g[:, 1:] == 0.0)
    g = mid.g.copy()
    g[row, 1] = np.nan
    with pytest.raises(SolverDivergedError, match="non-finite g at step 5 ") as info:
        sol.run(replace(mid, g=g))
    assert (info.value.field, info.value.step) == ("g", 5)


def test_cfl_error_of_a_parallel_profile_names_its_peak_row(grid, params):
    # a parallel flow only crosses x cells: the number is dt*max|U0|/dx, and
    # the guard names the node (row of max|U0|, 0)
    prof = 20.0 * (1.0 - grid.y**2) * (1.0 + 0.5 * grid.y)
    st = initial_state(grid, params, u=np.repeat(prof[:, None], grid.nx, axis=1))
    dt = 2e-3
    sol = ChannelFlowSolver(grid, params, SolverConfig(dt=dt, t_end=1.0, cfl_max=0.1))
    with pytest.raises(CFLError) as err:
        sol.step(st)
    row = int(np.argmax(np.abs(prof)))
    assert 0 < row < grid.ny - 1
    assert err.value.node == (row, 0)
    assert err.value.cfl == pytest.approx(dt * np.max(np.abs(prof)) / grid.dx, rel=1e-12)
    assert f"(row, column) = ({row}, 0)" in str(err.value)


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
    cfg = SolverConfig(dt=1e-3, t_end=1e-3, forcing_amplitude=F)
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
    cfg = SolverConfig(dt=1e-3, t_end=0.05, forcing_amplitude=F)
    sol = ChannelFlowSolver(grid, params, cfg)
    recs = [compute_record(st, params, F)]
    sol.run(st, callback=lambda s: recs.append(compute_record(s, params, F)))
    assert time_average(recs, "friction_trace") == pytest.approx(F, rel=1e-10)
    assert time_average(recs, "friction_tangential") == pytest.approx(F, rel=1e-10)


def test_momentum_audit_balances(grid, params):
    F = 2.0 / params.Re
    st = steady_channel_state(grid, params, F)
    cfg = SolverConfig(dt=1e-3, t_end=0.05, forcing_amplitude=F)
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
    sol._check_cfl(u, v, state)
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
        sol._check_cfl(np.zeros_like(v), v, st)


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

    monkeypatch.setattr(np.fft, "rfft", refuse)  # the DCT's transform
    monkeypatch.setattr(nspb.grid, "cheb_forward", refuse)
    monkeypatch.setattr(nspb.grid, "cheb_inverse", refuse)
    monkeypatch.setattr(nspb.flow, "cheb_forward", refuse)
    for sol, ref in zip(solvers, want):
        got = sol.step(st)
        for name in ("omega", "mean", "g"):
            assert np.array_equal(getattr(got, name), getattr(ref, name)), name


def test_steps_and_records_make_no_fft_call(grid, params, monkeypatch):
    # modes 0..J go to and from the nodes in x by the cached Fourier matrices
    u, v = perturbed_shear(grid)
    st = initial_state(grid, params, u=u, v=v)
    solvers = [
        ChannelFlowSolver(grid, params, SolverConfig(dt=1e-3, t_end=1.0, mode=mode))
        for mode in ("navier_stokes", "euler")
    ]

    def outputs():
        ns, eu = (sol.step(st) for sol in solvers)
        return ns, eu, compute_record(ns, params), euler_error([ns], [eu])

    want = outputs()

    def refuse(*args, **kwargs):
        raise AssertionError("a step or a record must not call this")

    monkeypatch.setattr(np.fft, "rfft", refuse)
    monkeypatch.setattr(np.fft, "irfft", refuse)
    got = outputs()
    for a, b in zip(got[:2], want[:2]):
        for name in ("omega", "mean", "g"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert got[2].row() == want[2].row()  # budget_residual is NaN
    assert np.array_equal(got[3], want[3])


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
    restored, run = read_checkpoint(path)
    assert restored.t == pytest.approx(0.02)
    assert run == {
        "nx": grid.nx, "ny": grid.ny, "dt": 1e-3,
        "lx": grid.lx, "re": params.Re, "wi": params.Wi, "tau": params.tau,
        "alpha": params.alpha, "kappa": params.kappa, "mode": "navier_stokes",
        "forcing_amplitude": 0.0,
    }
    sol2 = ChannelFlowSolver(restored.grid, params, SolverConfig(dt=run["dt"], t_end=0.04))
    assert_same_state(s40, sol2.run(restored, t_end=0.04))


def test_read_checkpoint_restores_the_state_invariant(params, tmp_path):
    # the file holds the state's own modal arrays, so reading them back
    # changes no bit, and the arrays are the reader's own, not file bytes
    grid = ChannelGrid(nx=64, ny=65)
    u, v = perturbed_shear(grid)
    cfg = SolverConfig(dt=2e-4, t_end=4e-4)
    st = ChannelFlowSolver(grid, params, cfg).run(initial_state(grid, params, u=u, v=v))
    write_checkpoint(tmp_path / "s.ckpt", st, params, cfg)
    restored = read_checkpoint(tmp_path / "s.ckpt").state
    assert restored.omega.shape == st.omega.shape == (grid.ny, grid.dealias_kx)
    assert restored.g.shape == st.g.shape == (2, grid.dealias_kx + 1)
    assert_same_state(restored, st)
    for arr in (restored.omega, restored.mean, restored.g):
        assert arr.flags.owndata and arr.flags.writeable


def test_checkpoint_payload_follows_the_documented_layout(params, tmp_path):
    # the README's version 3 layout: a 120-byte header, its CRC32, then
    # omega (ny, J) <c16, the mean (ny,) <f8 and g (2, J+1) <c16 from byte 124
    grid = ChannelGrid(nx=16, ny=17)
    u, v = perturbed_shear(grid)
    cfg = SolverConfig(dt=1e-3, t_end=2e-3)
    st = ChannelFlowSolver(grid, params, cfg).run(initial_state(grid, params, u=u, v=v))
    write_checkpoint(tmp_path / "s.ckpt", st, params, cfg)
    raw = (tmp_path / "s.ckpt").read_bytes()
    ny, J = grid.ny, grid.dealias_kx
    assert struct.unpack_from("<4sIIIdd", raw) == (b"NSPB", 3, grid.nx, ny, st.t, cfg.dt)
    assert struct.unpack_from("<I", raw, 120)[0] == zlib.crc32(raw[:120] + raw[124:])
    omega = np.frombuffer(raw, "<c16", ny * J, 124).reshape(ny, J)
    mean = np.frombuffer(raw, "<f8", ny, 124 + 16 * ny * J)
    g = np.frombuffer(raw, "<c16", 2 * (J + 1), 124 + 16 * ny * J + 8 * ny).reshape(2, J + 1)
    assert len(raw) == 124 + 16 * ny * J + 8 * ny + 32 * (J + 1)
    assert np.array_equal(omega, st.omega)
    assert np.array_equal(mean, st.mean)
    assert np.array_equal(g, st.g)


def crafted_checkpoint(path, nx=16, ny=17, t=0.0, dt=1e-3, mode=b"navier_stokes"):
    """A version 3 file with a zero payload and a recomputed CRC32, so that
    crafted header values reach the header checks."""
    header = struct.pack(
        "<4sIIIdd6d32sd", b"NSPB", 3, nx, ny, t, dt,
        2.0 * np.pi, 50.0, 1.0, 20.0, 1.0, 0.0, mode, 0.0,
    )
    J = nx // 3
    payload = bytes(16 * ny * J + 8 * ny + 32 * (J + 1))
    crc = struct.pack("<I", zlib.crc32(payload, zlib.crc32(header)))
    path.write_bytes(header + crc + payload)
    return path


def test_read_checkpoint_rejects_t_off_the_step_grid(tmp_path):
    # a restart runs from t in whole steps of dt, so a t between steps is a
    # corrupt file: named at load, not a runtime failure mid-restart
    path = tmp_path / "between.ckpt"
    with pytest.raises(CheckpointError) as err:
        read_checkpoint(crafted_checkpoint(path, t=0.0105))
    assert str(err.value) == f"{path}: t = 0.0105 is not a whole number of steps of dt = 0.001"
    # roundoff in t within ChannelFlowSolver.run's tolerance still loads
    assert read_checkpoint(crafted_checkpoint(path, t=0.3 * (1 + 1e-12))).state.step_index == 300


def test_read_checkpoint_rejects_a_non_ascii_mode(tmp_path):
    # a CRC-valid file whose text field is not ASCII is a corrupt file, named
    # at load, not a decode error mid-restart
    path = tmp_path / "text.ckpt"
    with pytest.raises(CheckpointError) as err:
        read_checkpoint(crafted_checkpoint(path, mode=b"navier_\xffstokes"))
    assert str(err.value) == f"{path}: mode is not ASCII text"


def test_checkpoint_rejects_corrupt_files(grid, params, tmp_path):
    st = initial_state(grid, params)
    path = tmp_path / "ok.ckpt"
    write_checkpoint(path, st, params, SolverConfig(dt=1e-3, t_end=1.0))
    raw = path.read_bytes()

    bad_magic = tmp_path / "magic.ckpt"
    bad_magic.write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(CheckpointError, match="magic"):
        read_checkpoint(bad_magic)

    # version 1 stored no physics, so no restart from it can be checked
    v1 = tmp_path / "v1.ckpt"
    v1.write_bytes(raw[:4] + struct.pack("<I", 1) + raw[8:])
    with pytest.raises(CheckpointError, match="unsupported version 1"):
        read_checkpoint(v1)
    # version 2 stored node values, which no restart reads back bit for bit
    v2 = tmp_path / "v2.ckpt"
    v2.write_bytes(raw[:4] + struct.pack("<I", 2) + raw[8:])
    with pytest.raises(CheckpointError, match="unsupported version 2"):
        read_checkpoint(v2)

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

    assert read_checkpoint(crafted_checkpoint(tmp_path / "valid.ckpt")).state.step_index == 0
    for name, header, shown in [
        ("dt_zero", {"dt": 0.0}, "dt must be positive and finite, got 0.0"),
        ("dt_negative", {"dt": -1e-3}, "dt must be positive and finite, got -0.001"),
        ("dt_inf", {"dt": np.inf}, "dt must be positive and finite, got inf"),
        ("t_nan", {"t": np.nan}, "t must be nonnegative and finite, got nan"),
        ("nx_odd", {"nx": 7}, "nx must be even and >= 8, got 7"),
        # t / dt overflows to inf: no whole number of steps
        (
            "steps_overflow",
            {"t": 1e10, "dt": 1e-300},
            "t = 10000000000.0 is not a whole number of steps of dt = 1e-300",
        ),
    ]:
        path = crafted_checkpoint(tmp_path / f"{name}.ckpt", **header)
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
    """White-noise state: vorticity modes 1..J, mean profile, wall stress modes 0..J."""
    shape = (2, grid.dealias_kx + 1)
    g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    g[:, 0] = g[:, 0].real  # a real field's k = 0 mode
    return FlowState(
        grid=grid,
        omega=random_modes(grid, rng),
        mean=rng.standard_normal(grid.ny),
        g=g,
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
    modes = sol._modes
    assert modes.traces.shape == (J + 1, 2, grid.ny)
    for lam, stage in ((Re / dt, modes.stage_p), (2.0 * Re / dt, modes.stage_c)):
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


def test_solvers_at_one_re_and_dt_share_the_dirichlet_inverses(monkeypatch):
    # modes 1..J of each stage start from the Dirichlet inverses of
    # (lam + k^2 - D^2), which read neither alpha nor the mean: solvers at one
    # grid, Re and dt invert them once per process, and each keeps the bytes
    # of a cold build, stacks and steps alike
    grid = ChannelGrid(nx=16, ny=17)
    config = SolverConfig(dt=5e-3, t_end=1.0)
    Re, alphas = 250.0, (10.0, 1000.0, 10.0)
    lams = (Re / config.dt, 2.0 * Re / config.dt)
    u, v = perturbed_shear(grid)

    def build(alpha):
        params = SimParams(Re=Re, Wi=1.0, tau=100.0, alpha=alpha)
        return ChannelFlowSolver(grid, params, config), initial_state(grid, params, u=u, v=v)

    def chained(sol, state):
        states = [state]
        for _ in range(5):
            states.append(sol.step(states[-1]))
        return [(s.omega.tobytes(), s.mean.tobytes(), s.g.tobytes()) for s in states[1:]]

    # a general step builds the stacks, so each is read after the steps
    cold = {}
    for alpha in alphas[:2]:
        dirichlet_stage_inverses.cache_clear()
        sol, state = build(alpha)
        steps = chained(sol, state)
        cold[alpha] = (sol._modes.stage_p.tobytes(), sol._modes.stage_c.tobytes(), steps)

    dirichlet_stage_inverses.cache_clear()
    inverted = []
    inv = np.linalg.inv

    def counted_inv(a):
        if len(a) > 1:  # a stack of Dirichlet matrices, not a k = 0 Robin matrix
            inverted.append(len(a))
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", counted_inv)
    shared = None
    for alpha in alphas:
        sol, state = build(alpha)
        steps = chained(sol, state)
        if shared is None:
            shared = [dirichlet_stage_inverses(grid, lam) for lam in lams]
            before = [a.tobytes() for a in shared]
        stages = (sol._modes.stage_p.tobytes(), sol._modes.stage_c.tobytes())
        assert stages == cold[alpha][:2]
        assert steps == cold[alpha][2]
    assert inverted == [grid.dealias_kx] * 2
    for a, lam, b in zip(shared, lams, before):
        assert not a.flags.writeable
        assert dirichlet_stage_inverses(grid, lam) is a and a.tobytes() == b


def test_a_parallel_only_run_builds_no_mode_map(monkeypatch):
    # forced runs from the steady state, as sweep_alpha's points, with the
    # slip traces and records of every state: each solver inverts its
    # corrector's k = 0 Robin matrix and builds no map of modes 1..J
    grid = ChannelGrid(nx=16, ny=17)
    streamfunction_operator.cache_clear()
    dirichlet_stage_inverses.cache_clear()
    inverted = []
    inv = np.linalg.inv

    def counted_inv(a):
        inverted.append(np.shape(a))
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", counted_inv)
    for alpha in (10.0, 1000.0):
        params = SimParams(Re=250.0, Wi=1.0, tau=100.0, alpha=alpha)
        F = 1.0 / params.Re
        cfg = SolverConfig(dt=5e-3, t_end=0.1, forcing_amplitude=F)
        sol = ChannelFlowSolver(grid, params, cfg)
        states = [steady_channel_state(grid, params, F)]
        sol.run(states[0], callback=states.append)
        slips = [sol.slip_traces(s) for s in states]
        records = compute_records(states, params, F)
        assert len(slips) == len(records) == 21
        assert all(np.isfinite(s).all() for s in slips)
        assert "_modes" not in vars(sol)
    assert inverted == [(1, grid.ny, grid.ny)] * 2
    assert streamfunction_operator.cache_info().misses == 0
    assert dirichlet_stage_inverses.cache_info().misses == 0


def test_a_parallel_solver_allocates_less_than_one_stage_stack():
    # a solver's construction builds only its k = 0 maps, so at sweep_alpha's
    # 64x65 it keeps less than one (J+1, ny, ny) float64 stack; a warm-up
    # solver first fills the per-grid caches it shares
    grid = ChannelGrid(nx=64, ny=65)
    params = SimParams(Re=250.0, Wi=1.0, tau=100.0, alpha=10.0)
    cfg = SolverConfig(dt=5e-3, t_end=1.0, forcing_amplitude=1.0 / params.Re)
    ChannelFlowSolver(grid, params, cfg)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sol = ChannelFlowSolver(grid, params, cfg)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    stack = (grid.dealias_kx + 1) * grid.ny**2 * 8
    assert stack == 743_600
    assert kept < stack
    assert "_modes" not in vars(sol)


@pytest.mark.parametrize("mode", ["navier_stokes", "euler"])
def test_a_deferred_mode_map_build_is_bitwise_an_eager_one(mode):
    # a solver that stepped parallel states builds its mode maps at the first
    # general state; its stacks, its slip traces and 5 chained steps equal
    # those of a solver that built them before its first step.  The slip
    # traces of a parallel state, k = 0 alone, are the full-width ones
    grid = ChannelGrid(nx=16, ny=17)
    params = SimParams(Re=250.0, Wi=1.0, tau=100.0, alpha=10.0)
    F = 1.0 / params.Re
    cfg = SolverConfig(dt=5e-3, t_end=1.0, mode=mode, forcing_amplitude=F)
    general = initial_state(grid, params, *perturbed_shear(grid))
    lazy = ChannelFlowSolver(grid, params, cfg)
    end = lazy.run(steady_channel_state(grid, params, F), t_end=3 * 5e-3)
    narrow = lazy.slip_traces(end)
    assert "_modes" not in vars(lazy)
    eager = ChannelFlowSolver(grid, params, cfg)
    eager._modes  # reading the full set builds it
    full = eager.slip_traces(replace(end, omega=end.omega.view(ReportsNonzero)))
    assert narrow.tobytes() == full.tobytes()
    runs = []
    for sol in (lazy, eager):
        states = [general]
        for _ in range(5):
            states.append(sol.step(states[-1]))
        runs.append([getattr(s, f).tobytes() for s in states[1:] for f in ("omega", "mean", "g")])
        runs[-1].append(sol.slip_traces(general).tobytes())
    assert runs[0] == runs[1]
    stacks = ("psi", "traces") + (("stage_p", "stage_c") if mode == "navier_stokes" else ())
    for name in stacks:
        assert getattr(lazy._modes, name).tobytes() == getattr(eager._modes, name).tobytes(), name
    if mode == "euler":
        assert lazy._modes.stage_p is lazy._modes.stage_c is None


@pytest.mark.parametrize("n", [1, 3])
def test_biot_savart_of_zero_vorticity_has_the_full_path_bits(n):
    # an omega of zeros, of either sign, takes no streamfunction stack and
    # gives the bits of the general path, forced by a count that never reads 0
    grid = ChannelGrid(nx=16, ny=17)
    signs = np.random.default_rng(n).random((2, grid.ny, n * grid.dealias_kx)) < 0.5
    for omega in (
        np.zeros((grid.ny, n * grid.dealias_kx), dtype=complex),
        np.where(signs[0], 0.0, -0.0) + 1j * np.where(signs[1], 0.0, -0.0),
    ):
        fast = biot_savart(grid, omega)
        full = biot_savart(grid, omega.view(ReportsNonzero))
        for a, b in zip(fast, full):
            assert a.tobytes() == np.asarray(b).tobytes()


def test_a_failed_mode_map_build_raises_at_every_step(monkeypatch):
    # a singular wall influence matrix stops the first general step, and the
    # next step builds, and fails, again rather than stepping on unset stacks
    grid = ChannelGrid(nx=16, ny=17)
    params = SimParams(Re=250.0, Wi=1.0, tau=100.0, alpha=10.0)
    cfg = SolverConfig(dt=5e-3, t_end=1.0)
    state = initial_state(grid, params, *perturbed_shear(grid))
    want = ChannelFlowSolver(grid, params, cfg).step(state)

    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    sol = ChannelFlowSolver(grid, params, cfg)
    for _ in range(2):
        with pytest.raises(SolverError, match="singular wall influence matrix"):
            sol.step(state)
        assert "_modes" not in vars(sol)
    monkeypatch.undo()
    got = sol.step(state)
    for name in ("omega", "mean", "g"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


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
    N, u, v = sol._nonlinear(np.column_stack([mean_coeffs, omega]))
    N_ref, R_ref, aux_ref = reference_nonlinear(grid, omega, mean_coeffs)
    assert _rel(N[:, 1:], N_ref) <= 1e-12
    assert _rel(N[:, 0], R_ref) <= 1e-12
    assert np.all(N[:, 0].imag == 0.0)
    aux = {"u_tot": u, "v": v, "slip": wall_slip(u[[0, -1]])}
    for key in ("u_tot", "v", "slip"):
        assert _rel(aux[key], aux_ref[key]) <= 1e-12, key


@pytest.mark.parametrize(
    "mode, field, detected",
    [
        ("navier_stokes", "omega", ("velocity", 5)),
        ("euler", "omega", ("velocity", 5)),
        ("navier_stokes", "g_top", ("g", 5)),
        ("navier_stokes", "g_bottom", ("g", 5)),
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
        x, g, slip = advance(state, x)
        if field == "g":
            g[1, 2] = np.nan
        else:
            x[3, 0 if field == "mean" else 2] = np.nan
        return x, g, slip

    monkeypatch.setattr(sol, "_step_ns", poisoned)
    with pytest.raises(SolverDivergedError, match=f"non-finite {field} at step 1 "):
        sol.step(initial_state(grid, params))


def test_step_carries_its_end_slip_to_the_next_step(grid, params, monkeypatch):
    # a step ends with its new state's wall slip, which starts the next step
    # of that same state; any other state (here a copy of it) has the slip
    # recomputed.  Both runs give the same bytes over 50 steps
    u, v = perturbed_shear(grid)
    start = initial_state(grid, params, u=u, v=v)
    cfg = SolverConfig(dt=1e-3, t_end=0.05, forcing_amplitude=0.01)
    carried = ChannelFlowSolver(grid, params, cfg)
    fresh = ChannelFlowSolver(grid, params, cfg)
    calls = {"carried": 0, "fresh": 0}
    for name, sol in (("carried", carried), ("fresh", fresh)):

        def counted(traces, x, name=name, slip=sol._wall_slip):
            calls[name] += 1
            return slip(traces, x)

        monkeypatch.setattr(sol, "_wall_slip", counted)
    a = b = start
    for _ in range(50):
        a = carried.step(a)
        b = fresh.step(replace(b))
    assert calls == {"carried": 51, "fresh": 100}
    assert (a.t, a.step_index) == (b.t, b.step_index)
    for name in ("omega", "mean", "g"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
    assert not np.array_equal(a.g, start.g) and np.abs(a.omega).max() > 0.0
    # a state the solver did not just return steps as on a new solver
    other = initial_state(grid, params, u=2.0 * u, v=v)
    one, new = carried.step(other), ChannelFlowSolver(grid, params, cfg).step(other)
    for name in ("omega", "mean", "g"):
        assert getattr(one, name).tobytes() == getattr(new, name).tobytes(), name
