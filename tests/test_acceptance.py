"""End-to-end acceptance runs at the shipped experiment configurations.

Each heavy configuration under configs/ is executed exactly once as a
module fixture (the whole module takes a few minutes); the tests then
assert the named verdicts at their advertised tolerances.  One test is
an expected failure: the closed moment system drops the wall flux of the
reflected ensemble, so its shear stress sits well outside the advertised
band.  The defect itself is pinned quantitatively by a passing test.
"""

from pathlib import Path

import numpy as np
import pytest

from nspb import execute, load_config
from nspb.checkpoint import read_checkpoint
from nspb.config import parse_config
from nspb.flow import ChannelFlowSolver, SolverConfig, initial_state
from nspb.grid import ChannelGrid
from nspb.params import SimParams

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

pytestmark = pytest.mark.slow


def checks_of(summary):
    return {c.name: c for c in summary.checks}


def run_config(name, tmp_path_factory, slug):
    plan = load_config(CONFIGS / name).with_output(tmp_path_factory.mktemp(slug))
    return execute(plan)


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
        dt=2e-3,
        t_end=50.0,
        forcing="steady_pressure_gradient",
        forcing_amplitude=F,
        record_every=10_000,
        checkpoint_every=10_000_000,
    )
    solver = ChannelFlowSolver(grid, params, cfg)
    final = solver.run(initial_state(grid, params))

    bulk = params.Re * F
    u_slip = bulk / (params.alpha / 2.0 + params.friction_ratio)
    expected = bulk / 2.0 * (1.0 - grid.y**2) + u_slip
    rel = np.max(np.abs(final.mean_u - expected)) / np.max(np.abs(expected))
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
    assert np.max(np.abs(full.omega.values - rerun.omega.values)) < 1e-12
    assert np.max(np.abs(full.mean_u - rerun.mean_u)) < 1e-12
    assert np.max(np.abs(full.g[0] - rerun.g[0])) < 1e-12
    assert np.max(np.abs(full.g[1] - rerun.g[1])) < 1e-12

    # the stochastic side: same seed walks the same ensemble, bit for bit
    assert checks_of(micro)["micro_seed_bitwise"].passed
