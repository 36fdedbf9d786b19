"""Driver-level behavior at small scale: summary structure, per-point
failure containment, restart notes.  The shipped full-size experiment
configurations are exercised in test_acceptance.py."""

import json
import math
import threading
from dataclasses import replace

import numpy as np
import pytest

from nspb import experiments
from nspb.config import parse_config
from nspb.experiments import execute

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


def test_micro_verify_walks_one_scenario_on_one_worker_thread(tmp_path, monkeypatch):
    _tiny_micro(monkeypatch)
    main_only = (
        "kramers_stress",
        "closure_ode_step",
        "memory_closure_step",
        "equilibrium_ensemble",
        "fokker_planck_solve",
    )
    seen = _threads_of(monkeypatch, main_only + ("hookean_exact_walk",))
    before = threading.active_count()
    execute(parse_config("kind = micro_verify\n").with_output(tmp_path))
    main = threading.main_thread()
    for name in main_only:
        assert seen[name] == {main}, name
    walkers = seen["hookean_exact_walk"] - {main}
    assert len(walkers) == 1
    assert not any(t.is_alive() for t in walkers)
    assert threading.active_count() == before


def test_micro_verify_raises_a_walk_failure_off_the_main_thread(tmp_path, monkeypatch):
    # 4 steps compared every 2; only the sinusoidal slip turns NaN, at step 3
    for name, value in {
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
    before = threading.active_count()
    with pytest.raises(ValueError, match="slip of step 3 must be finite, got nan"):
        execute(parse_config("kind = micro_verify\n").with_output(tmp_path))
    assert len(raised_on) == 1 and raised_on[0] is not threading.main_thread()
    assert threading.active_count() == before
    # both scenarios write their tables after the last walk
    assert not (tmp_path / "micro_moments_constant.csv").exists()
    assert not (tmp_path / "micro_moments_sinusoidal.csv").exists()


@pytest.mark.parametrize(
    "name, value",
    [
        ("MC_COMPARE_SPACING", 0.002),  # below MC_DT / 2: zero steps apart
        ("MC_COMPARE_SPACING", 0.0075),  # 1.5 steps: compares at shifted times
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


def test_restart_takes_grid_and_dt_from_checkpoint(tmp_path):
    base = (
        "re = 50\nwi = 1\ntau = 20\nalpha = 1\n"
        "nx = 16\nny = 17\ndt = 2e-3\nt_end = 0.02\ncheckpoint_every = 5\n"
    )
    first = tmp_path / "first"
    execute(parse_config(base).with_output(first))
    ckpt = first / "checkpoints" / "final.ckpt"

    # config disagrees with the checkpoint on grid and dt; checkpoint wins
    clashing = (
        "re = 50\nwi = 1\ntau = 20\nalpha = 1\n"
        "nx = 24\nny = 25\ndt = 1e-3\nt_end = 0.04\n"
    )
    resumed = tmp_path / "resumed"
    summary = execute(parse_config(clashing).with_output(resumed), checkpoint=ckpt)
    assert summary.kind == "restart"
    assert summary.exit_code == 0
    assert any("grid 16x17 taken from the checkpoint" in n for n in summary.notes)
    assert any(n.startswith("dt=0.002 taken from the checkpoint") for n in summary.notes)
    assert summary.total_steps == 10  # 0.02 -> 0.04 at the checkpoint's dt
    assert summary.points[-1]["t_final"] == pytest.approx(0.04)


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
