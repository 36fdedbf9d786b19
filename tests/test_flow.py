import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nspb.checkpoint import CheckpointError, read_checkpoint, write_checkpoint
from nspb.diagnostics import (
    DiagnosticsRecord,
    compute_record,
    energy_audit,
    friction_factor,
    max_principle_report,
    momentum_audit,
    total_energy,
)
from nspb.elliptic import TauSolver, biot_savart
from nspb.flow import (
    CFLError,
    ChannelFlowSolver,
    FlowState,
    SolverConfig,
    SolverDivergedError,
    initial_state,
    mean_vorticity,
    slip_poiseuille_profile,
    steady_channel_state,
    total_vorticity,
)
from nspb.grid import ChannelGrid, Field2D, cheb_derivative_coeffs
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
    assert np.all(end.omega.values == 0.0)
    assert np.all(end.mean_u == 0.0)
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


def test_mean_vorticity_of_a_cubic_profile(grid):
    y = grid.y
    np.testing.assert_allclose(
        mean_vorticity(1.0 - y**2 + y**3), 2.0 * y - 3.0 * y**2, rtol=0, atol=1e-12
    )


@pytest.mark.parametrize("kappa", [0.0, 0.2])
def test_slip_poiseuille_is_a_discrete_fixed_point(grid, kappa):
    params = SimParams(Re=200.0, Wi=0.5, tau=1.0, alpha=1.0, kappa=kappa)
    F = 2.0 / params.Re
    st = steady_channel_state(grid, params, F)
    cfg = SolverConfig(
        dt=1e-3, t_end=0.05, forcing="steady_pressure_gradient", forcing_amplitude=F
    )
    end = ChannelFlowSolver(grid, params, cfg).run(st)
    assert np.max(np.abs(end.mean_u - st.mean_u)) < 1e-12
    assert np.max(np.abs(end.omega.values - st.omega.values)) < 1e-12
    assert np.max(np.abs(end.g[0] - st.g[0])) < 1e-12
    assert np.max(np.abs(end.g[1] - st.g[1])) < 1e-12
    prof = slip_poiseuille_profile(params, F, grid.y)
    np.testing.assert_allclose(end.mean_u, prof, rtol=0, atol=1e-12)


def test_second_order_self_convergence(grid, params):
    u, v = perturbed_shear(grid)
    T = 0.2

    def endpoint(dt):
        sol = ChannelFlowSolver(grid, params, SolverConfig(dt=dt, t_end=T))
        s = sol.run(initial_state(grid, params, u=u, v=v))
        return s.omega.values, s.mean_u

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
        prev = initial_state(grid, params, u=u, v=v)
        rec_prev = compute_record(prev, params)
        for _ in range(int(round(T / dt))):
            nxt = sol.step(prev)
            rec = energy_audit(prev, nxt, params, 0.0, rec_before=rec_prev)
            prev, rec_prev = nxt, rec
        return rec_prev.budget_residual

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
    rec = energy_audit(st, s1, params, F)
    assert rec.budget_residual < 1e-12
    assert rec.curvature_term < 0.0  # kappa=0.2 feeds energy back at the wall


def test_energy_audit_rejects_misordered_states(grid, params):
    st = initial_state(grid, params)
    with pytest.raises(ValueError):
        energy_audit(st, st, params)


def test_friction_factor_forms_agree_at_steady(grid, params):
    F = 2.0 / params.Re
    st = steady_channel_state(grid, params, F)
    cfg = SolverConfig(
        dt=1e-3, t_end=0.05, forcing="steady_pressure_gradient", forcing_amplitude=F
    )
    sol = ChannelFlowSolver(grid, params, cfg)
    recs = [compute_record(st, params, F)]
    sol.run(st, callback=lambda s: recs.append(compute_record(s, params, F)))
    assert friction_factor(recs, "trace") == pytest.approx(F, rel=1e-10)
    assert friction_factor(recs, "tangential") == pytest.approx(F, rel=1e-10)


def test_friction_factor_cross_check_trips_on_mismatch(grid, params):
    st = initial_state(grid, params)
    rec = compute_record(st, params)
    bad = DiagnosticsRecord(
        **{
            **{c: getattr(rec, c) for c in rec.__dataclass_fields__},
            "t": 1.0,
            "friction_tangential": rec.friction_tangential + 1e-4,
        }
    )
    with pytest.raises(ValueError, match="disagree"):
        friction_factor([rec, bad], "trace")
    # and the escape hatch for states without the wall identity
    assert friction_factor([rec, bad], "trace", cross_tol=None) == 0.0
    assert friction_factor([rec, bad], "tangential", cross_tol=None) == pytest.approx(5e-5)


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


def test_run_time_span_validation(grid, params):
    sol = ChannelFlowSolver(grid, params, SolverConfig(dt=1e-3, t_end=0.01))
    st = initial_state(grid, params)
    with pytest.raises(ValueError, match="before"):
        sol.run(st.with_(t=1.0), t_end=0.5)
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

    assert np.max(np.abs(s40.omega.values - s40b.omega.values)) < 1e-12
    assert np.max(np.abs(s40.mean_u - s40b.mean_u)) < 1e-12
    assert np.max(np.abs(s40.g[0] - s40b.g[0])) < 1e-12
    assert np.max(np.abs(s40.g[1] - s40b.g[1])) < 1e-12


def test_version_1_checkpoint_loads_like_its_version_2_twin(grid, params, tmp_path):
    u, v = perturbed_shear(grid)
    cfg = SolverConfig(dt=1e-3, t_end=0.01)
    st = ChannelFlowSolver(grid, params, cfg).run(initial_state(grid, params, u=u, v=v))
    write_checkpoint(tmp_path / "v2.ckpt", st, params, cfg)
    # v1: a 32-byte header ending after dt, then two slip accumulators after g
    accumulators = np.random.default_rng(0).standard_normal((2, grid.nx))
    v1 = struct.pack("<4sIIIdd", b"NSPB", 1, grid.nx, grid.ny, st.t, cfg.dt) + b"".join(
        np.ascontiguousarray(a, dtype="<f8").tobytes()
        for a in (st.omega.values, st.mean_u, st.g, accumulators)
    )
    (tmp_path / "v1.ckpt").write_bytes(v1)

    old = read_checkpoint(tmp_path / "v1.ckpt", lx=grid.lx)
    new = read_checkpoint(tmp_path / "v2.ckpt")
    assert old.physics is None
    assert new.physics["alpha"] == params.alpha
    assert old.grid == new.grid
    assert old.dt == new.dt
    assert (old.state.t, old.state.step_index) == (new.state.t, new.state.step_index)
    assert np.array_equal(old.state.omega.spectral, new.state.omega.spectral)
    assert np.array_equal(old.state.mean_u, new.state.mean_u)
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

    def velocity(self, omega_spec, modes):
        u = np.zeros_like(omega_spec)
        v = np.zeros_like(omega_spec)
        for j in modes:
            psi = self.poisson.solve_mode(j, -omega_spec[:, j])
            u[:, j] = -cheb_derivative_coeffs(psi)
            v[:, j] = 1j * self.grid.kx[j] * psi
        return u, v

    def wall_u_traces(self, j, col):
        ucol = -cheb_derivative_coeffs(self.poisson.solve_mode(j, -np.asarray(col, dtype=complex)))
        return ucol.sum(), self.signs @ ucol

    def slip_traces(self, state):
        u, _ = self.velocity(state.omega.spectral, range(1, self.jmax + 1))
        u_phys = self.grid.spec_to_phys(u) + state.mean_u[:, None]
        return -u_phys[0], u_phys[-1]

    def stage(self, lam, rhs_spec, mean_rhs, qhat):
        grid, c2 = self.grid, self.c2
        dirichlet = TauSolver(grid, lam, (1.0, 0.0), (1.0, 0.0))
        zeros = np.zeros(grid.ny)
        out = np.zeros_like(rhs_spec)
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
            part = dirichlet.solve_mode(j, rhs_spec[:, j], 0.0, 0.0)
            ut_p, ub_p = self.wall_u_traces(j, part)
            d_t, d_b = np.linalg.solve(K, [qhat[0, j] - c2 * ut_p, qhat[1, j] + c2 * ub_p])
            out[:, j] = part + d_t * unit_top + d_b * unit_bot
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


def random_spectrum(grid, rng):
    shape = (grid.ny, grid.nkx)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_solver_state(grid, rng):
    """White-noise state with no k = 0 fluctuation and no modes above the 2/3 cut."""
    omega = random_spectrum(grid, rng)
    omega[:, 0] = 0.0
    omega[:, grid.dealias_kx + 1 :] = 0.0
    return FlowState(
        omega=Field2D(grid, spectral=omega),
        mean_u=rng.standard_normal(grid.ny),
        g=rng.standard_normal((2, grid.nx)),
    )


@settings(max_examples=20, deadline=None)
@given(grid=grids, params=sim_params, dt=st.floats(1e-4, 1e-2), seed=seeds)
def test_batched_operators_match_per_mode_reference(grid, params, dt, seed):
    sol = ChannelFlowSolver(grid, params, SolverConfig(dt=dt, t_end=1.0))
    ref = PerModeReference(grid, params, dt)
    rng = np.random.default_rng(seed)
    Re = params.Re

    # velocity over every rfft mode, as biot_savart promises
    omega = random_spectrum(grid, rng)
    u, v = biot_savart(Field2D(grid, spectral=omega))
    u_ref, v_ref = ref.velocity(omega, range(grid.nkx))
    assert _rel(u.spectral, u_ref) <= 1e-12
    assert _rel(v.spectral, v_ref) <= 1e-12

    # wall slip traces of a solver state
    state = random_solver_state(grid, rng)
    traces = sol.slip_traces(state)
    top_ref, bottom_ref = ref.slip_traces(state)
    assert _rel(traces[0], top_ref) <= 1e-12
    assert _rel(traces[1], bottom_ref) <= 1e-12

    # both implicit stages, wall law closed
    for lam, stage in ((Re / dt, sol._stage_p), (2.0 * Re / dt, sol._stage_c)):
        rhs = random_spectrum(grid, rng)
        mean_rhs = rng.standard_normal(grid.ny)
        qhat = rng.standard_normal((2, grid.nkx)) + 1j * rng.standard_normal((2, grid.nkx))
        qhat[:, 0] = qhat[:, 0].real
        out_ref, mean_ref = ref.stage(lam, rhs, mean_rhs, qhat)
        out, mean = sol._implicit_stage(stage, rhs.copy(), mean_rhs.copy(), qhat)
        assert _rel(out, out_ref) <= 1e-12
        assert _rel(mean, mean_ref) <= 1e-12


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
        spec = mid.omega.spectral.copy()
        spec[3, 2] = np.nan
        bad = mid.with_(omega=Field2D(grid, spectral=spec))
    else:
        g = mid.g.copy()
        g[0 if field == "g_top" else 1, 1] = np.nan
        bad = mid.with_(g=g)
    name, step = detected
    with pytest.raises(SolverDivergedError, match=f"non-finite {name} at step {step}") as info:
        sol.run(bad)
    assert not isinstance(info.value, ValueError)
    assert (info.value.field, info.value.step) == (name, step)
    assert info.value.t == pytest.approx(step * 1e-3)
