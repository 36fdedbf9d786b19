"""Driver-level behavior at small scale: summary structure, per-point
failure containment, restart.  The shipped full-size experiment
configurations are exercised in test_acceptance.py."""

import json
import math
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from nspb import experiments
from nspb.checkpoint import read_checkpoint, write_checkpoint
from nspb.config import parse_config
from nspb.diagnostics import _COLUMNS, compute_record, momentum_audit
from nspb.experiments import RunSummary, _trajectory, execute, shear_decay_state
from nspb.flow import ChannelFlowSolver, SolverConfig, steady_channel_state
from nspb.fplanck import FPError
from nspb.grid import ChannelGrid
from nspb.micro import SpringPotential, equilibrium_ensemble
from nspb.params import SimParams
from test_diagnostics import read_records
from test_flow import assert_same_state

TINY_SWEEP = (
    "kind = sweep_re\n"
    "re = 50\n"
    "wi = 1\n"
    "tau = 20\n"
    "alpha = 1\n"
    "nx = 16\n"
    "ny = 17\n"
    "dt = 2e-3\n"
    "t_end = 0.05\n"
    "record_every = 2\n"
    "sweep_values = 50,100,200\n"
)


def check_map(summary):
    return {c.name: c for c in summary.checks}


@pytest.fixture(scope="module")
def tiny_sweep(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep")
    plan = parse_config(TINY_SWEEP).with_output(out)
    return out, execute(plan)


def test_sweep_re_summary_structure(tiny_sweep):
    out, summary = tiny_sweep
    assert summary.kind == "sweep_re"
    assert summary.runtime_failures == 0
    assert any("friction_ratio held fixed" in n for n in summary.notes)
    assert any("Re*F = 1" in n for n in summary.notes)
    assert set(summary.fits) == {"dissipation_vs_re", "friction_vs_re"}
    assert set(check_map(summary)) == {
        "dissipation_re_slope",
        "dissipation_re_fit_r2",
        "friction_re_slope",
        "friction_forms_pointwise_agree",
        "vorticity_sup_re_uniform",
    }
    # the two friction forms agree identically at any resolution
    assert check_map(summary)["friction_forms_pointwise_agree"].passed
    for Re, label in ((50.0, "50"), (100.0, "100"), (200.0, "200")):
        assert (out / f"records_re{label}_decay.csv").is_file()
        assert (out / f"records_re{label}_forced.csv").is_file()
        point = next(p for p in summary.points if p["re"] == Re)
        # tau scales with Re so the friction ratio is shared
        assert point["tau"] == pytest.approx(20.0 * Re / 50.0)
        assert point["dissipation_average"] > 0
        assert point["forcing_amplitude"] == pytest.approx(1.0 / Re)
    assert summary.total_steps > 0


def test_summary_json_matches_in_memory(tiny_sweep):
    out, summary = tiny_sweep
    on_disk = json.loads((out / "summary.json").read_text())
    assert on_disk == summary.to_json_dict()
    assert on_disk["exit_code"] == summary.exit_code
    assert "summary.json" in on_disk["outputs"]


def test_sweep_re_reports_the_forced_momentum_balance(tiny_sweep):
    # reported beside friction_trace_mean, not judged: no check reads it
    out, _ = tiny_sweep
    lx = parse_config(TINY_SWEEP).grid().lx
    points = json.loads((out / "summary.json").read_text())["points"]
    assert len(points) == 3
    for point in points:
        audit = point["momentum_audit"]
        recs = read_records(out / f"records_re{point['re']:g}_forced.csv")
        assert audit["n_intervals"] == len(recs) - 1 > 0
        assert math.isfinite(audit["max_residual"])
        assert math.isfinite(audit["final_residual"])
        # the audit of the written forced records under the point's own forcing
        assert audit == momentum_audit(recs, lx, point["forcing_amplitude"])


def test_sweep_re_decay_phase_is_unforced(tmp_path):
    # a forcing amplitude in a sweep_re config drives the forced phase only
    text = TINY_SWEEP.replace("t_end = 0.05", "t_end = 0.02")
    forced_text = text + "forcing_amplitude = 0.02\n"
    execute(parse_config(text).with_output(tmp_path / "plain"))
    execute(parse_config(forced_text).with_output(tmp_path / "forced"))
    for label in ("50", "100", "200"):
        name = f"records_re{label}_decay.csv"
        assert (tmp_path / "plain" / name).read_bytes() == (tmp_path / "forced" / name).read_bytes()


SWEEP_ALPHA_TINY = (
    "kind = sweep_alpha\n"
    "re = 50\n"
    "wi = 1\n"
    "tau = 20\n"
    "nx = 16\n"
    "ny = 17\n"
    "dt = 2e-3\n"
    "t_end = 0.1\n"
    "record_every = 5\n"
    "sweep_values = 10,100,1000\n"
)


INVISCID_TINY = (
    "kind = inviscid_limit\n"
    "re = 50\n"
    "wi = 1\n"
    "tau = 1\n"
    "alpha = 1\n"
    "nx = 16\n"
    "ny = 17\n"
    "dt = 2e-3\n"
    "t_end = 0.1\n"
    "sweep_values = 50,100,200\n"
)


@pytest.mark.parametrize(
    "text, factory, key, done_field, n_checks",
    [
        (TINY_SWEEP, "shear_decay_state", "re", "dissipation_average", 0),
        (SWEEP_ALPHA_TINY, "steady_channel_state", "alpha", "slip_sup", 2),
        (INVISCID_TINY, "couette_perturbed_state", "re", "sup_l2_error", 0),
    ],
    ids=["sweep_re", "sweep_alpha", "inviscid_limit"],
)
def test_sweep_point_failure_is_contained(
    tmp_path, monkeypatch, text, factory, key, done_field, n_checks
):
    real = getattr(experiments, factory)
    attr = {"re": "Re", "alpha": "alpha"}[key]

    def sabotaged(grid, params, *args):
        if getattr(params, attr) == 100.0:
            raise RuntimeError("injected failure")
        return real(grid, params, *args)

    monkeypatch.setattr(experiments, factory, sabotaged)
    summary = execute(parse_config(text).with_output(tmp_path))
    assert summary.runtime_failures == 1
    assert summary.exit_code == 3
    bad = next(p for p in summary.points if p[key] == 100.0)
    assert "injected failure" in bad["error"]
    assert done_field not in bad
    # the remaining points still ran to completion
    others = [p for p in summary.points if p[key] != 100.0]
    assert len(others) == 2
    for point in others:
        assert done_field in point and "error" not in point
    # two surviving points are too few for a scaling fit, enough for the
    # alpha sweep's pairwise slip checks
    assert summary.fits == {}
    assert len(summary.checks) == n_checks


def _poisoned(make):
    """A state factory whose states carry one NaN vorticity coefficient."""

    def build(grid, params, *args):
        state = make(grid, params, *args)
        spec = state.omega.copy()
        spec[2, 1] = np.nan
        return replace(state, omega=spec)

    return build


@pytest.mark.parametrize(
    "text, factory",
    [(TINY_SWEEP, "shear_decay_state"), (SWEEP_ALPHA_TINY, "steady_channel_state")],
)
def test_sweep_records_divergence_as_named_failure(tmp_path, monkeypatch, text, factory):
    monkeypatch.setattr(experiments, factory, _poisoned(getattr(experiments, factory)))
    summary = execute(parse_config(text).with_output(tmp_path))
    assert summary.runtime_failures == 3
    assert summary.exit_code == 3
    for point in summary.points:
        assert point["error"] == "SolverDivergedError: non-finite velocity at step 0 (t=0)"


def test_sweep_alpha_tiny(tmp_path):
    summary = execute(parse_config(SWEEP_ALPHA_TINY).with_output(tmp_path))
    checks = check_map(summary)
    # the steady forced profile is polynomial, so even a tiny grid holds it
    assert checks["slip_strictly_decreasing_in_alpha"].passed
    assert checks["slip_inverse_alpha_trend"].passed
    assert checks["slip_inverse_alpha_trend"].value < 1e-10
    assert summary.exit_code == 0
    for label in ("10", "100", "1000"):
        assert (tmp_path / f"records_alpha{label}.csv").is_file()


def test_energy_audit_tiny(tmp_path):
    text = "kind = energy_audit\nnx = 16\nny = 17\nt_end = 0.04\n"
    summary = execute(parse_config(text).with_output(tmp_path))
    checks = check_map(summary)
    assert "budget_residual_order" in checks
    assert checks["energy_monotone_decay"].passed
    orders_point = next(p for p in summary.points if "refinement_orders" in p)
    assert len(orders_point["refinement_orders"]) == 2
    for label in ("0p002", "0p001", "0p0005"):
        assert (tmp_path / f"records_dt{label}.csv").is_file()


def test_energy_audit_judges_monotone_decay_at_nonzero_kappa(tmp_path):
    # alpha > 4*kappa keeps the wall law dissipative, so the decay is judged
    # at every admissible kappa, not only on the flat wall
    text = "kind = energy_audit\nnx = 16\nny = 17\nt_end = 0.04\nkappa = 0.2\n"
    summary = execute(parse_config(text).with_output(tmp_path))
    check = check_map(summary)["energy_monotone_decay"]
    assert check.passed
    assert check.value < 0.0


def test_inviscid_tiny(tmp_path):
    summary = execute(parse_config(INVISCID_TINY).with_output(tmp_path))
    assert "inviscid_error_slope" in check_map(summary)
    assert "euler_gap_vs_re" in summary.fits
    lines = (tmp_path / "inviscid_errors.csv").read_text().splitlines()
    assert lines[0] == "# nspb-inviscid-errors-v1"
    assert lines[1] == "re,t,l2_error"
    for p in summary.points:
        assert np.isfinite(p["sup_l2_error"]) and p["sup_l2_error"] > 0


def test_micro_verify_tiny(tmp_path, monkeypatch):
    monkeypatch.setattr(experiments, "MC_MEMBERS", 2000)
    monkeypatch.setattr(experiments, "MC_T_END", 0.5)
    monkeypatch.setattr(experiments, "MC_COMPARE_SPACING", 0.25)
    monkeypatch.setattr(experiments, "FP_RELAX_MULTIPLE", 2.0)
    plan = parse_config("kind = micro_verify\n").with_output(tmp_path)
    # unit bead drag whatever the config: the relaxation time is exactly 1
    assert experiments._micro_phys(plan).relaxation_time == 1.0
    summary = execute(plan)
    assert summary.runtime_failures == 0
    checks = check_map(summary)
    for scen in ("constant", "sinusoidal"):
        assert f"closure_tracks_sigma_nn_{scen}" in checks
        assert f"closure_tracks_sigma_tn_{scen}" in checks
        lines = (tmp_path / f"micro_moments_{scen}.csv").read_text().splitlines()
        assert lines[0] == "# nspb-micro-moments-v1"
        assert lines[1].startswith("t,sigma_tn_mc")
        assert len(lines) == 4  # two comparison instants
    assert checks["micro_seed_bitwise"].passed
    assert checks["equilibrium_normal_stress_anchor"].passed
    assert "tn_defect_band_constant" in checks
    assert "fp_steady_matches_gibbs" in checks
    assert (tmp_path / "ensemble_a.csv").is_file()
    assert not (tmp_path / "ensemble_b.csv").exists()


def _tiny_micro(monkeypatch):
    for name, value in {
        "MC_MEMBERS": 1000,
        "MC_T_END": 0.01,
        "MC_COMPARE_SPACING": 0.005,
        "FP_RELAX_MULTIPLE": 0.5,
    }.items():
        monkeypatch.setattr(experiments, name, value)


def test_micro_verify_fails_the_checks_of_non_finite_stresses(tmp_path, monkeypatch):
    # max(0.0, nan) is 0.0: a NaN ratio folded with max() would pass its check
    _tiny_micro(monkeypatch)
    real = experiments.kramers_stress
    monkeypatch.setattr(
        experiments,
        "kramers_stress",
        lambda *args: replace(real(*args), sigma_tn=math.nan, sigma_nn=math.nan),
    )
    checks = check_map(execute(parse_config("kind = micro_verify\n").with_output(tmp_path)))
    bands = ("closure_tracks_sigma_nn", "closure_tracks_sigma_tn", "memory_closure_tracks_sigma_tn")
    for scen in ("constant", "sinusoidal"):
        for band in bands:
            check = checks[f"{band}_{scen}"]
            assert not check.passed
            assert math.isnan(check.value)


def test_micro_verify_runs_at_the_largest_seed(tmp_path, monkeypatch):
    # the scenarios are seeded plan.seed + 0, 1, 2: their Philox keys wrap modulo 2^64
    _tiny_micro(monkeypatch)
    plan = parse_config("kind = micro_verify\n").with_output(tmp_path, seed=2**64 - 1)
    summary = execute(plan)
    assert summary.runtime_failures == 0
    assert check_map(summary)["micro_seed_bitwise"].passed
    pot = SpringPotential.hookean(H=1.0)
    wrapped = equilibrium_ensemble(10, pot, seed=2**64 + 1)
    assert np.array_equal(wrapped.members, equilibrium_ensemble(10, pot, seed=1).members)


def test_micro_verify_stops_on_a_non_finite_slip(tmp_path, monkeypatch):
    _tiny_micro(monkeypatch)
    monkeypatch.setattr(experiments, "MC_SLIP_AMPLITUDE", math.nan)
    with pytest.raises(ValueError, match="slip of step 0 must be finite, got nan"):
        execute(parse_config("kind = micro_verify\n").with_output(tmp_path))


def _threads_of(monkeypatch, names):
    """Wrap each experiments.<name> to record the threads it is called on."""
    seen = {name: set() for name in names}
    for name in names:
        real = getattr(experiments, name)

        def wrapped(*args, _real=real, _seen=seen[name], **kwargs):
            _seen.add(threading.current_thread())
            return _real(*args, **kwargs)

        monkeypatch.setattr(experiments, name, wrapped)
    return seen


def _scenario_walks():
    """The lockstep loop's walks: two per comparison interval, tail included."""
    _, n_steps, every = experiments._micro_schedule()
    return 2 * math.ceil(n_steps / every)


def _hold_the_relaxation(monkeypatch):
    """Hold the relaxation until the lockstep loop's last walk has ended, so
    each walk offered to the worker is cancelled and walked here instead.
    Returns the list the walks are recorded in."""
    scenario_walks = _scenario_walks()
    release, walks = threading.Event(), []
    real_walk, real_solve = experiments.hookean_exact_walk, experiments.fokker_planck_solve

    def walk(*args):
        result = real_walk(*args)
        walks.append(args)
        if len(walks) == scenario_walks:
            release.set()
        return result

    def solve(*args, **kwargs):
        assert release.wait(timeout=30)
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(experiments, "hookean_exact_walk", walk)
    monkeypatch.setattr(experiments, "fokker_planck_solve", solve)
    return walks


def test_micro_verify_walks_one_scenario_on_one_worker_thread(tmp_path, monkeypatch):
    # while the one worker relaxes, every walk runs on the main thread
    _tiny_micro(monkeypatch)
    main_only = (
        "kramers_stress",
        "closure_ode_step",
        "memory_closure_step",
        "equilibrium_ensemble",
        "hookean_exact_walk",
    )
    seen = _threads_of(monkeypatch, main_only + ("fokker_planck_solve",))
    walks = _hold_the_relaxation(monkeypatch)
    before = threading.active_count()
    execute(parse_config("kind = micro_verify\n").with_output(tmp_path))
    main = threading.main_thread()
    for name in main_only:
        assert seen[name] == {main}, name
    assert len(walks) == _scenario_walks() + 2  # and the two fixed-seed walks
    [relaxer] = seen["fokker_planck_solve"]
    assert relaxer is not main and not relaxer.is_alive()
    assert threading.active_count() == before


def _offer_walks_to_an_idle_worker(monkeypatch):
    """An instant relaxation, and each interval's walk here waits until the
    worker has started the walk offered to it, so none is cancelled."""
    monkeypatch.setattr(experiments, "FP_RELAX_MULTIPLE", 0.0)
    intervals = _scenario_walks() // 2
    started, here = threading.Semaphore(0), []
    real_walk = experiments.hookean_exact_walk

    def walk(*args):
        if threading.current_thread() is threading.main_thread():
            here.append(args)
            if len(here) <= intervals:
                assert started.acquire(timeout=30)
        else:
            started.release()
        return real_walk(*args)

    monkeypatch.setattr(experiments, "hookean_exact_walk", walk)


def test_micro_verify_walks_the_sinusoidal_scenario_on_an_idle_worker(tmp_path, monkeypatch):
    _tiny_micro(monkeypatch)
    walked_on = []
    real_walk = experiments.hookean_exact_walk

    def walk(ens, *args):
        walked_on.append((ens.seed, threading.current_thread()))
        return real_walk(ens, *args)

    monkeypatch.setattr(experiments, "hookean_exact_walk", walk)
    _offer_walks_to_an_idle_worker(monkeypatch)
    plan = parse_config("kind = micro_verify\n").with_output(tmp_path)
    before = threading.active_count()
    execute(plan)
    main = threading.main_thread()
    # the sinusoidal scenario is seeded plan.seed + 1; the constant one and
    # the fixed-seed walks plan.seed
    sinusoidal = [t for seed, t in walked_on if seed == plan.seed + 1]
    assert len(sinusoidal) == _scenario_walks() // 2
    [worker] = set(sinusoidal)
    assert worker is not main and not worker.is_alive()
    assert {t for seed, t in walked_on if seed != plan.seed + 1} == {main}
    assert threading.active_count() == before


def test_micro_verify_writes_the_same_bytes_whichever_thread_walks(tmp_path, monkeypatch):
    # each Philox stream is keyed by (seed, step), so the tables must not
    # depend on the schedule: every walk here, the sinusoidal ones on the
    # worker, or the free schedule under a short switch interval
    _tiny_micro(monkeypatch)
    plan = parse_config("kind = micro_verify\n")

    def tables(name, schedule):
        with monkeypatch.context() as m:
            schedule(m)
            execute(plan.with_output(tmp_path / name))
        return {p.name: p.read_bytes() for p in (tmp_path / name).glob("*.csv")}

    held = tables("held", _hold_the_relaxation)
    idle = tables("idle", _offer_walks_to_an_idle_worker)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        free = tables("free", lambda m: None)
    finally:
        sys.setswitchinterval(interval)
    assert len(held) == 3
    assert held == idle == free


def test_micro_verify_raises_a_walk_failure_off_the_main_thread(tmp_path, monkeypatch):
    # 4 steps compared every 2; only the sinusoidal slip turns NaN, at step 3
    for name, value in {
        "MC_DT": 5e-3,
        "MC_MEMBERS": 1000,
        "MC_T_END": 0.02,
        "MC_COMPARE_SPACING": 0.01,
        "FP_RELAX_MULTIPLE": 0.5,
    }.items():
        monkeypatch.setattr(experiments, name, value)
    real_slip = experiments._mc_slip

    def slip(name):
        u = real_slip(name)
        if name == "constant":
            return u
        return lambda t: math.nan if t > 0.0125 else u(t)

    monkeypatch.setattr(experiments, "_mc_slip", slip)
    real_walk = experiments.hookean_exact_walk
    raised_on = []

    def walk(*args):
        try:
            return real_walk(*args)
        except ValueError:
            raised_on.append(threading.current_thread())
            raise

    monkeypatch.setattr(experiments, "hookean_exact_walk", walk)
    _offer_walks_to_an_idle_worker(monkeypatch)
    before = threading.active_count()
    with pytest.raises(ValueError, match="slip of step 3 must be finite, got nan"):
        execute(parse_config("kind = micro_verify\n").with_output(tmp_path))
    assert len(raised_on) == 1 and raised_on[0] is not threading.main_thread()
    assert threading.active_count() == before
    # both scenarios write their tables after the last walk
    assert not (tmp_path / "micro_moments_constant.csv").exists()
    assert not (tmp_path / "micro_moments_sinusoidal.csv").exists()


def test_micro_verify_raises_a_relaxation_failure_before_writing(tmp_path, monkeypatch):
    _tiny_micro(monkeypatch)
    relaxed_on = []

    def solve(*args, **kwargs):
        relaxed_on.append(threading.current_thread())
        raise FPError("the relaxation failed")

    monkeypatch.setattr(experiments, "fokker_planck_solve", solve)
    before = threading.active_count()
    with pytest.raises(FPError, match="the relaxation failed"):
        execute(parse_config("kind = micro_verify\n").with_output(tmp_path))
    assert len(relaxed_on) == 1 and relaxed_on[0] is not threading.main_thread()
    assert threading.active_count() == before
    assert not list(tmp_path.glob("*.csv"))


def test_micro_verify_steps_at_a_spacing_below_mc_dt(tmp_path, monkeypatch):
    # a spacing of 0.02 under MC_DT = 0.1: the driver fits its step to the
    # spacing and compares after every step
    for name, value in {
        "MC_DT": 0.1,
        "MC_MEMBERS": 1000,
        "MC_T_END": 0.06,
        "MC_COMPARE_SPACING": 0.02,
        "FP_RELAX_MULTIPLE": 0.5,
    }.items():
        monkeypatch.setattr(experiments, name, value)
    assert experiments._micro_schedule() == (0.02, 3, 1)
    steps = []
    real_walk = experiments.hookean_exact_walk

    def walk(ens, dt, *args):
        steps.append(dt)
        return real_walk(ens, dt, *args)

    monkeypatch.setattr(experiments, "hookean_exact_walk", walk)
    summary = execute(parse_config("kind = micro_verify\n").with_output(tmp_path))
    assert summary.total_steps == 2 * 3
    assert set(steps) == {0.02}
    assert any("step h=0.02 " in n and "3 steps per scenario" in n for n in summary.notes)
    for scen in ("constant", "sinusoidal"):
        lines = (tmp_path / f"micro_moments_{scen}.csv").read_text().splitlines()
        t = [float(line.split(",")[0]) for line in lines[2:]]
        assert t == pytest.approx([0.02, 0.04, 0.06], rel=1e-12, abs=0.0)


@pytest.mark.parametrize(
    "name, value",
    [
        ("MC_COMPARE_SPACING", 0.0),  # no step fits a zero spacing
        ("MC_COMPARE_SPACING", 0.0075),  # fitted step 0.00375 does not divide the horizon
        ("MC_T_END", 0.9975),  # ends between two steps
        ("MC_T_END", 0.01),  # 2 steps against a 100-step spacing: no comparison
    ],
)
def test_micro_verify_rejects_horizons_off_the_step_grid(tmp_path, monkeypatch, name, value):
    monkeypatch.setattr(experiments, "MC_DT", 5e-3)
    monkeypatch.setattr(experiments, name, value)
    plan = parse_config("kind = micro_verify\n").with_output(tmp_path)
    with pytest.raises(ValueError) as err:
        execute(plan)
    for shown in (
        f"MC_T_END = {experiments.MC_T_END}",
        f"MC_COMPARE_SPACING = {experiments.MC_COMPARE_SPACING}",
        "MC_DT = 0.005",
    ):
        assert shown in str(err.value)
    assert not (tmp_path / "micro_moments_constant.csv").exists()


def test_restart_at_final_time_is_a_no_op(tmp_path):
    base = (
        "re = 50\nwi = 1\ntau = 20\nalpha = 1\n"
        "nx = 16\nny = 17\ndt = 2e-3\nt_end = 0.02\n"
    )
    first = tmp_path / "first"
    execute(parse_config(base).with_output(first))
    summary = execute(
        parse_config(base).with_output(tmp_path / "again"),
        checkpoint=first / "checkpoints" / "final.ckpt",
    )
    assert summary.total_steps == 0
    assert summary.exit_code == 0


def test_restart_from_a_perturbed_checkpoint_matches_the_uninterrupted_run(tmp_path):
    # the checkpoint holds nonzero omega, mean and g, so a reader that
    # dropped any of them would take the restarted run off the uninterrupted one
    text = (
        "re = 50\nwi = 1\ntau = 20\nalpha = 1\nnx = 16\nny = 17\n"
        "dt = 2e-3\nt_end = 0.04\nforcing_amplitude = 0.02\n"
    )
    plan = parse_config(text).with_output(tmp_path / "resumed")
    grid = plan.grid()
    solver = ChannelFlowSolver(grid, plan.sim, plan.solver)
    start = shear_decay_state(grid, plan.sim)
    mid = solver.run(start, t_end=0.02)
    for field in (mid.omega, mid.mean, mid.g[:, 0], mid.g[:, 1:]):
        assert np.abs(field).max() > 1e-6
    ckpt = tmp_path / "mid.ckpt"
    write_checkpoint(ckpt, mid, plan.sim, plan.solver)

    summary = execute(plan, checkpoint=ckpt)
    assert summary.exit_code == 0 and summary.total_steps == 10
    full = solver.run(start)
    rerun = read_checkpoint(tmp_path / "resumed" / "checkpoints" / "final.ckpt").state
    assert_same_state(full, rerun)


def test_restarted_forced_steady_run_stays_x_constant_and_writes_the_same_bytes(tmp_path):
    # the checkpoint holds g's modes, so a restart puts no roundoff into
    # modes 1..J: the resumed run keeps the fluctuation exactly 0, and its
    # final checkpoint is the uninterrupted run's, byte for byte
    text = (
        "re = 250\nwi = 1\ntau = 100\nalpha = 10\nnx = 16\nny = 17\n"
        "dt = 5e-3\nt_end = 0.1\nforcing_amplitude = 0.004\n"
    )
    plan = parse_config(text).with_output(tmp_path / "resumed")
    grid = plan.grid()
    solver = ChannelFlowSolver(grid, plan.sim, plan.solver)
    start = steady_channel_state(grid, plan.sim, plan.solver.forcing_amplitude)
    ckpt = tmp_path / "mid.ckpt"
    write_checkpoint(ckpt, solver.run(start, t_end=0.05), plan.sim, plan.solver)
    full = tmp_path / "full.ckpt"
    write_checkpoint(full, solver.run(start), plan.sim, plan.solver)

    assert execute(plan, checkpoint=ckpt).total_steps == 10
    final = tmp_path / "resumed" / "checkpoints" / "final.ckpt"
    for path in (ckpt, final):
        state = read_checkpoint(path).state
        assert np.all(state.omega == 0.0) and np.all(state.g[:, 1:] == 0.0)
    assert final.read_bytes() == full.read_bytes()


# ---- per-run bookkeeping ----

SMALL_FLOW = "re = 50\nwi = 1\ntau = 20\nnx = 16\nny = 17\ndt = 2e-3\n"
FLOW_KINDS = {
    "single_run": (
        "alpha = 1\nt_end = 0.02\nforcing_amplitude = 0.02\ncheckpoint_every = 4\n"
        "record_every = 3\n"
    ),
    "sweep_re": "alpha = 1\nt_end = 0.02\nrecord_every = 2\nsweep_values = 50,100\n",
    "sweep_alpha": "t_end = 0.02\nrecord_every = 5\nsweep_values = 10,100\n",
    "energy_audit": "alpha = 1\nt_end = 0.008\n",
    "inviscid_limit": "alpha = 1\nt_end = 0.06\nsweep_values = 50,100\n",
}


@pytest.fixture
def counted_steps(monkeypatch):
    """The number of ChannelFlowSolver.step calls so far, as a one-entry list."""
    calls = [0]
    step = ChannelFlowSolver.step

    def counting(self, state):
        calls[0] += 1
        return step(self, state)

    monkeypatch.setattr(ChannelFlowSolver, "step", counting)
    monkeypatch.setattr(experiments, "FORCED_PHASE_SPAN", 0.01)
    return calls


def assert_bookkeeping(summary, out, steps):
    assert summary.runtime_failures == 0
    assert summary.total_steps == steps > 0
    assert "summary.json" in summary.outputs
    for name in summary.outputs:
        assert (out / name).is_file(), name


@pytest.mark.parametrize("kind", sorted(FLOW_KINDS))
def test_summary_counts_every_step_and_lists_only_written_files(tmp_path, counted_steps, kind):
    text = f"kind = {kind}\n{SMALL_FLOW}{FLOW_KINDS[kind]}"
    summary = execute(parse_config(text).with_output(tmp_path))
    assert_bookkeeping(summary, tmp_path, counted_steps[0])


def test_restart_counts_only_the_resumed_steps(tmp_path, counted_steps):
    text = f"kind = single_run\n{SMALL_FLOW}{FLOW_KINDS['single_run']}"
    execute(parse_config(text).with_output(tmp_path / "first"))
    assert counted_steps[0] == 10
    counted_steps[0] = 0
    ckpt = tmp_path / "first" / "checkpoints" / "step00000004.ckpt"
    summary = execute(parse_config(text).with_output(tmp_path / "again"), checkpoint=ckpt)
    assert summary.kind == "restart" and counted_steps[0] == 6
    assert_bookkeeping(summary, tmp_path / "again", counted_steps[0])


# ---- sampled trajectories in blocks ----


def _expected_steps(n_steps, every):
    """The step indices _trajectory samples: the start, multiples of every, the end."""
    want = [k for k in range(n_steps + 1) if k % every == 0]
    return want if want[-1] == n_steps else want + [n_steps]


@pytest.mark.parametrize("with_on_step", [False, True])
@pytest.mark.parametrize(
    "n_steps, every",
    [
        (2, 1),  # 3 samples: shorter than a block of 4
        (7, 1),  # 8 samples: ends on a block boundary
        (9, 2),  # 6 samples: ends mid-block, the final state off the multiples
        (12, 3),  # 5 samples: one full block and one more
        (0, 1),  # no step: the start state alone
    ],
)
def test_trajectory_samples_in_blocks_in_order(monkeypatch, n_steps, every, with_on_step):
    monkeypatch.setattr(experiments, "record_block", lambda grid: 4)
    grid = ChannelGrid(nx=16, ny=17)
    params = SimParams(Re=50.0, Wi=1.0, tau=20.0, alpha=1.0)
    solver = ChannelFlowSolver(grid, params, SolverConfig(dt=2e-3, t_end=2e-3 * n_steps))
    start = shear_decay_state(grid, params)
    stepped, blocks = [], []

    def take(states):
        blocks.append(len(states))
        return [(s, i) for i, s in enumerate(states)]

    on_step = stepped.append if with_on_step else None
    final, samples = _trajectory(RunSummary("test", {}), solver, start, every, take, on_step)
    assert [s.step_index for s, _ in samples] == _expected_steps(n_steps, every)
    assert samples[0][0] is start and samples[-1][0] is final
    if with_on_step:
        assert [s.step_index for s in stepped] == list(range(1, n_steps + 1))
        by_step = {s.step_index: s for s in stepped}
        assert all(s is by_step[s.step_index] for s, _ in samples[1:])
    # full blocks of 4 and then what is left, each state sampled once
    assert blocks == [4] * (len(samples) // 4) + ([len(samples) % 4] if len(samples) % 4 else [])
    assert [i for _, i in samples] == [k % 4 for k in range(len(samples))]


def test_trajectory_records_equal_per_state_records():
    # the driver's recorder maps each block to the records of its states,
    # each within 1e-14 of the state's own compute_record, relative to values
    # above 1 (forcing_power and momentum_x start at the roundoff of an
    # integral of u that cancels to 0)
    grid = ChannelGrid(nx=32, ny=33)
    params = SimParams(Re=50.0, Wi=1.0, tau=20.0, alpha=1.0)
    cfg = SolverConfig(dt=2e-3, t_end=0.07, forcing_amplitude=0.01)
    solver = ChannelFlowSolver(grid, params, cfg)
    start = shear_decay_state(grid, params)
    final, states = _trajectory(RunSummary("test", {}), solver, start, 2, list)
    _, recs = _trajectory(RunSummary("test", {}), solver, start, 2)
    assert len(states) == len(recs) == 19 > experiments.record_block(grid)
    alone = [compute_record(state, params, 0.01) for state in states]
    assert [r.t for r in recs] == [r.t for r in alone]
    for col in _COLUMNS[1:]:
        got = np.array([getattr(r, col) for r in recs])
        want = np.array([getattr(r, col) for r in alone])
        if col == "budget_residual":
            assert np.isnan(got).all() and np.isnan(want).all()
            continue
        assert (np.abs(got - want) <= 1e-14 * np.maximum(1.0, np.abs(want))).all(), col
