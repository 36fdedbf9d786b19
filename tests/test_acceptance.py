"""End-to-end acceptance runs at the shipped experiment configurations.

Each heavy configuration under configs/ is executed exactly once as a
module fixture (the whole module takes under a minute); the tests then
assert the named verdicts at their advertised tolerances, and pin the
sweep kinds' default steps by running them once more at half the step.
One test is
an expected failure: the closed moment system drops the wall flux of the
reflected ensemble, so its shear stress sits well outside the advertised
band.  The defect itself is pinned quantitatively by a passing test.
"""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from nspb import experiments
from nspb.checkpoint import read_checkpoint
from nspb.config import load_config, parse_config
from nspb.experiments import (
    DISSIPATION_R2_MIN,
    DISSIPATION_SLOPE_WINDOW,
    FRICTION_FORM_TOL,
    INVISCID_SLOPE_WINDOW,
    SLIP_TREND_TOL,
    VORTICITY_SUP_RATIO_MAX,
    execute,
    perturbation_velocity,
)
from nspb.flow import ChannelFlowSolver, SolverConfig, initial_state
from nspb.grid import ChannelGrid, cheb_inverse
from nspb.params import SimParams
from test_flow import assert_same_state

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

pytestmark = pytest.mark.slow


def checks_of(summary):
    return {c.name: c for c in summary.checks}


def run_config(name, tmp_path_factory, slug, dt_scale=1.0):
    """A shipped config run as it stands, or with its dt scaled."""
    plan = load_config(CONFIGS / name)
    plan = replace(plan, solver=replace(plan.solver, dt=plan.solver.dt * dt_scale))
    return execute(plan.with_output(tmp_path_factory.mktemp(slug)))


@pytest.fixture(scope="module")
def sweep_re(tmp_path_factory):
    return run_config("sweep_re.cfg", tmp_path_factory, "sweepre")


@pytest.fixture(scope="module")
def inviscid(tmp_path_factory):
    return run_config("inviscid_limit.cfg", tmp_path_factory, "invlim")


@pytest.fixture(scope="module")
def alpha_sweep(tmp_path_factory):
    return run_config("sweep_alpha.cfg", tmp_path_factory, "sweepal")


@pytest.fixture(scope="module")
def audit(tmp_path_factory):
    return run_config("energy_audit.cfg", tmp_path_factory, "audit")


@pytest.fixture(scope="module")
def micro(tmp_path_factory):
    return run_config("micro_verify.cfg", tmp_path_factory, "micro")


def test_dissipation_decays_inversely_with_re(sweep_re):
    checks = checks_of(sweep_re)
    slope = checks["dissipation_re_slope"]
    assert slope.passed, f"slope {slope.value} outside {slope.requirement}"
    r2 = checks["dissipation_re_fit_r2"]
    assert r2.passed and r2.value >= 0.98


def test_friction_factor_scales_inversely_with_re(sweep_re):
    checks = checks_of(sweep_re)
    slope = checks["friction_re_slope"]
    assert slope.passed, f"slope {slope.value} outside {slope.requirement}"
    forms = checks["friction_forms_pointwise_agree"]
    assert forms.passed and forms.value <= 1e-8


def test_vorticity_bound_uniform_in_re(sweep_re):
    check = checks_of(sweep_re)["vorticity_sup_re_uniform"]
    assert check.passed, f"sup-vorticity spread {check.value} exceeds 2x"
    assert check.value <= 2.0


def test_distance_to_ideal_flow_shrinks_with_re(inviscid):
    check = checks_of(inviscid)["inviscid_error_slope"]
    assert check.passed, f"slope {check.value} outside {check.requirement}"
    assert -0.7 <= check.value <= -0.35


def test_forced_steady_profile_matches_slip_poiseuille():
    params = SimParams(Re=5.0, Wi=1.0, tau=1.0, alpha=1.0)
    F = 0.2  # Re*F = 1
    grid = ChannelGrid(nx=16, ny=33)
    cfg = SolverConfig(
        dt=1e-2,
        t_end=50.0,
        forcing_amplitude=F,
        record_every=10_000,
        checkpoint_every=10_000_000,
    )
    solver = ChannelFlowSolver(grid, params, cfg)
    final = solver.run(initial_state(grid, params))

    bulk = params.Re * F
    u_slip = bulk / (params.alpha / 2.0 + params.friction_ratio)
    expected = bulk / 2.0 * (1.0 - grid.y**2) + u_slip
    rel = np.max(np.abs(cheb_inverse(final.mean) - expected)) / np.max(np.abs(expected))
    assert rel <= 1e-6, f"relative profile error {rel:.3e}"


def test_energy_budget_residual_refines_at_second_order(audit):
    checks = checks_of(audit)
    order = checks["budget_residual_order"]
    assert order.passed, f"observed order {order.value} below 1.8 ({order.detail})"
    assert checks["energy_monotone_decay"].passed


def test_closure_matches_ensemble_normal_stress(micro):
    checks = checks_of(micro)
    for scen in ("constant", "sinusoidal"):
        check = checks[f"closure_tracks_sigma_nn_{scen}"]
        assert check.passed, f"{scen}: {check.value} x tolerance"


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the reflected half-space ensemble exerts a wall flux the closed moment "
        "system omits; at steady unit slip the ensemble shear stress develops to "
        "~1.4x the closure value, ~17x the advertised tolerance (see "
        "test_shear_stress_defect_is_the_omitted_wall_flux for the quantified gap)"
    ),
)
def test_closure_matches_ensemble_shear_stress(micro):
    checks = checks_of(micro)
    for scen in ("constant", "sinusoidal"):
        check = checks[f"closure_tracks_sigma_tn_{scen}"]
        assert check.passed, f"{scen}: {check.value} x tolerance"


def test_memory_closure_matches_ensemble_shear_stress(micro):
    # the exact memory closure keeps the wall flux, so it meets the band the
    # closed moment system misses
    checks = checks_of(micro)
    for scen in ("constant", "sinusoidal"):
        check = checks[f"memory_closure_tracks_sigma_tn_{scen}"]
        assert check.passed, f"{scen}: {check.value} x tolerance"


def test_shear_stress_defect_is_the_omitted_wall_flux(micro):
    check = checks_of(micro)["tn_defect_band_constant"]
    assert check.passed, f"developed ensemble/closure ratio {check.value}"
    assert 1.35 <= check.value <= 1.65


def test_equilibrium_stress_anchor_and_gibbs_density(micro):
    checks = checks_of(micro)
    anchor = checks["equilibrium_normal_stress_anchor"]
    assert anchor.passed, f"sigma_nn off by {anchor.value} x 3SE"
    fp = checks["fp_steady_matches_gibbs"]
    assert fp.passed and fp.value <= 1e-3, f"L1 distance {fp.value}"


def test_micro_moments_are_written_on_the_comparison_grid(micro):
    # the t column is the c-th comparison time c * 0.5, not the walk's
    # accumulated sum of steps
    outdir = Path(micro.config["output_dir"])
    for scen in ("constant", "sinusoidal"):
        lines = (outdir / f"micro_moments_{scen}.csv").read_text().splitlines()
        assert [float(line.split(",")[0]) for line in lines[2:]] == [
            0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0
        ]


def test_gibbs_relaxation_steps_at_the_positivity_bound(micro):
    [point] = [p for p in micro.points if "fp_l1_error" in p]
    assert point["fp_steps"] == 3716
    assert point["fp_dt"] * point["fp_steps"] == pytest.approx(experiments.FP_RELAX_MULTIPLE)
    assert any("at the positivity bound" in n for n in micro.notes)


def test_wall_slip_vanishes_inversely_with_alpha(alpha_sweep):
    checks = checks_of(alpha_sweep)
    assert checks["slip_strictly_decreasing_in_alpha"].passed
    trend = checks["slip_inverse_alpha_trend"]
    assert trend.passed and trend.value <= 0.10


def test_bitwise_determinism_and_restart(tmp_path, micro):
    text = (
        "re = 50\nwi = 1\ntau = 20\nalpha = 1\n"
        "nx = 16\nny = 17\ndt = 2e-3\nt_end = 0.04\ncheckpoint_every = 10\n"
    )
    byte_images = []
    for name in ("a", "b"):
        out = tmp_path / name
        execute(parse_config(text).with_output(out, seed=7))
        byte_images.append((out / "records.csv").read_bytes())
    assert byte_images[0] == byte_images[1]

    resumed = tmp_path / "resumed"
    mid = tmp_path / "a" / "checkpoints" / "step00000010.ckpt"
    execute(parse_config(text).with_output(resumed, seed=7), checkpoint=mid)
    full = read_checkpoint(tmp_path / "a" / "checkpoints" / "final.ckpt").state
    rerun = read_checkpoint(resumed / "checkpoints" / "final.ckpt").state
    assert_same_state(full, rerun)

    # the stochastic side: same seed walks the same ensemble, bit for bit
    assert checks_of(micro)["micro_seed_bitwise"].passed


# ---- the default steps of the sweep kinds ----

# every verdict of the sweep kinds against its window (lo, hi)
WINDOWS = {
    "dissipation_re_slope": DISSIPATION_SLOPE_WINDOW,
    "dissipation_re_fit_r2": (DISSIPATION_R2_MIN, np.inf),
    "friction_re_slope": DISSIPATION_SLOPE_WINDOW,
    "friction_forms_pointwise_agree": (-np.inf, FRICTION_FORM_TOL),
    "vorticity_sup_re_uniform": (-np.inf, VORTICITY_SUP_RATIO_MAX),
    "inviscid_error_slope": INVISCID_SLOPE_WINDOW,
    "slip_strictly_decreasing_in_alpha": (1.0, np.inf),  # the smallest slip ratio
    "slip_inverse_alpha_trend": (-np.inf, SLIP_TREND_TOL),
}
# Euler-mode blow-up boundary of the directional CFL number over 200 steps
# (tests/test_flow.py::test_euler_mode_blow_up_boundary); no default step
# may take a shipped sweep past half of it
CFL_BOUNDARY = 0.5
SELF_CONVERGENCE_BUDGET = 0.01


def assert_self_converged(at_dt, at_half):
    """Each verdict at dt and dt/2 within 1% of its margin to its window."""
    coarse, fine = checks_of(at_dt), checks_of(at_half)
    assert coarse and set(coarse) == set(fine)
    for name, check in coarse.items():
        lo, hi = WINDOWS[name]
        margin = min(abs(check.value - lo), abs(hi - check.value))
        gap = abs(check.value - fine[name].value)
        assert fine[name].passed == check.passed, name
        assert gap <= SELF_CONVERGENCE_BUDGET * margin, (
            f"{name}: {check.value!r} at dt, {fine[name].value!r} at dt/2, margin {margin:.3g}"
        )


@pytest.mark.parametrize(
    "fixture, name",
    [("sweep_re", "sweep_re.cfg"), ("inviscid", "inviscid_limit.cfg"),
     ("alpha_sweep", "sweep_alpha.cfg")],
)
def test_default_step_is_self_converged(request, tmp_path_factory, fixture, name):
    at_dt = request.getfixturevalue(fixture)
    assert at_dt.runtime_failures == 0
    peak = max(p["cfl_peak"]["value"] for p in at_dt.points)
    assert peak <= CFL_BOUNDARY / 2, f"peak directional CFL {peak}"
    assert_self_converged(at_dt, run_config(name, tmp_path_factory, f"{fixture}half", 0.5))


def test_sweep_alpha_step_is_self_converged_off_the_fixed_point(tmp_path_factory, monkeypatch):
    # the shipped sweep starts on an exact fixed point of the solver, where
    # any step reproduces the verdicts; the perturbed start makes the slip move
    steady = experiments.steady_channel_state

    def perturbed(grid, params, F):
        up, vp = perturbation_velocity(grid)
        u = cheb_inverse(steady(grid, params, F).mean)[:, None] + up
        return initial_state(grid, params, u=u, v=vp)

    monkeypatch.setattr(experiments, "steady_channel_state", perturbed)
    at_dt, at_half = (
        run_config("sweep_alpha.cfg", tmp_path_factory, "alphapert", scale) for scale in (1.0, 0.5)
    )
    assert checks_of(at_dt)["slip_inverse_alpha_trend"].value > 1e-3  # off the fixed point
    assert max(p["cfl_peak"]["value"] for p in at_dt.points) <= CFL_BOUNDARY / 2
    assert_self_converged(at_dt, at_half)
