import math
import re
import warnings

import numpy as np
import pytest

from nspb.fplanck import (
    POSITIVITY_SAFETY,
    FPError,
    FPGrid,
    _bernoulli,
    density_mass,
    fokker_planck_solve,
    fp_moments,
    free_energy,
    gibbs_density,
    stable_dt,
    wall_tangential_flux_moment,
)
from nspb.micro import SpringPotential, closure_ode_step
from nspb.params import ParameterError, PhysicalParams


@pytest.fixture()
def phys():
    return PhysicalParams()


@pytest.fixture()
def pot():
    return SpringPotential.hookean(H=0.25)


@pytest.fixture()
def fpgrid(pot):
    # cutoff 20 leaves ~2e-9 tail mass, plenty for percent-level checks
    return FPGrid.for_potential(pot, cutoff=20.0, h=0.15)


def test_grid_validation():
    with pytest.raises(FPError):
        FPGrid(extent_t=-1.0, extent_n=1.0, n_t=8, n_n=8)
    with pytest.raises(FPError):
        FPGrid(extent_t=1.0, extent_n=1.0, n_t=2, n_n=8)
    for bad in (math.nan, math.inf):
        with pytest.raises(FPError, match="extent_t must be positive and finite"):
            FPGrid(extent_t=bad, extent_n=1.0, n_t=8, n_n=8)
        with pytest.raises(FPError, match="extent_n must be positive and finite"):
            FPGrid(extent_t=1.0, extent_n=bad, n_t=8, n_n=8)


def test_for_potential_extents(pot):
    g = FPGrid.for_potential(pot, cutoff=20.0, h=0.15)
    assert g.extent_t == pytest.approx(math.sqrt(80.0))
    assert g.extent_n == g.extent_t
    assert g.h_t <= 0.15 + 1e-12


def test_for_potential_rejects_the_free_spring():
    # no U >= cutoff bounds the box at H = 0; raise before sizing anything
    with pytest.raises(ParameterError, match="H = 0"):
        FPGrid.for_potential(SpringPotential.hookean(H=0.0), cutoff=20.0, h=0.15)


def test_gibbs_density_mass(fpgrid, pot):
    f = gibbs_density(fpgrid, pot, mass=2.5)
    assert density_mass(fpgrid, f) == pytest.approx(2.5, rel=1e-14)
    assert np.all(f > 0)


def _clipped_bernoulli(x):
    # the Bernoulli function as first written: clipped to +-500, with a
    # first-order series below 1e-8
    x = np.clip(x, -500.0, 500.0)
    small = np.abs(x) < 1e-8
    with np.errstate(over="ignore"):
        return np.where(small, 1.0 - 0.5 * x, x / np.expm1(np.where(small, 1.0, x)))


def test_bernoulli_is_one_at_zero():
    got = _bernoulli(np.array([-0.0, 0.0, 1e-300]))
    assert np.array_equal(got, [1.0, 1.0, 1.0])


def test_bernoulli_limits_past_overflow_raise_no_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _bernoulli(np.array([800.0, -800.0]))
    assert got[0] == 0.0 and got[1] == 800.0


def test_bernoulli_reflection_identity():
    # B(-s) - B(s) = s, the identity x_weights builds the upper weights by;
    # the difference cancels for small s, so the tolerance is relative to
    # B(-s), the size of its terms
    s = np.logspace(-12, math.log10(700.0), 1001)
    lower = _bernoulli(-s)
    assert np.all(np.abs(lower - _bernoulli(s) - s) <= 1e-15 * lower)


def test_bernoulli_matches_the_clipped_formula_inside_the_clip():
    s = np.logspace(-12, math.log10(500.0), 501)
    x = np.concatenate([-s, [0.0], s, np.linspace(-50.0, 50.0, 1001)])
    want = _clipped_bernoulli(x)
    np.testing.assert_allclose(_bernoulli(x), want, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("step", ["default", "bound"])
def test_gibbs_is_discretely_stationary(fpgrid, pot, phys, step):
    """The exponential-fitted fluxes vanish identically on the Gibbs cell
    density, so time stepping leaves it unchanged to roundoff, at the
    default step and at the positivity bound."""
    f0 = gibbs_density(fpgrid, pot)
    dt = None if step == "default" else stable_dt(fpgrid, pot, phys, safety=POSITIVITY_SAFETY)
    res = fokker_planck_solve(fpgrid, pot, phys, t_end=2.0, dt=dt, f0=f0)
    drift = np.sum(np.abs(res.density - f0)) * fpgrid.cell_area
    assert drift < 1e-11
    assert res.mass_final == pytest.approx(res.mass_initial, rel=1e-12)


def test_mass_conserved_under_shear(fpgrid, pot, phys):
    res = fokker_planck_solve(
        fpgrid, pot, phys, t_end=1.0, u_slip=1.0, f0=gibbs_density(fpgrid, pot)
    )
    assert res.mass_final == pytest.approx(res.mass_initial, rel=1e-12)
    assert res.density.min() >= 0.0


def test_oversized_dt_rejected(fpgrid, pot, phys):
    dt_ok = stable_dt(fpgrid, pot, phys)
    with pytest.raises(FPError):
        fokker_planck_solve(fpgrid, pot, phys, t_end=0.1, dt=10.0 * dt_ok)


def test_bad_initial_density_rejected(fpgrid, pot, phys):
    with pytest.raises(FPError):
        fokker_planck_solve(fpgrid, pot, phys, t_end=0.1, f0=np.ones((3, 3)))
    f0 = gibbs_density(fpgrid, pot)
    f0[0, 0] = -1.0
    with pytest.raises(FPError):
        fokker_planck_solve(fpgrid, pot, phys, t_end=0.1, f0=f0)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_nonfinite_initial_density_rejected(fpgrid, pot, phys, value):
    f0 = gibbs_density(fpgrid, pot)
    f0[5, 3] = value
    with pytest.raises(FPError, match=str(value)):
        fokker_planck_solve(fpgrid, pot, phys, t_end=0.1, f0=f0)


@pytest.mark.parametrize("t_end", [math.nan, -0.5, math.inf])
def test_bad_t_end_rejected(fpgrid, pot, phys, t_end):
    # a NaN or negative horizon used to return f0 at t = 0, and inf died
    # with a bare OverflowError
    with pytest.raises(FPError, match=re.escape(f"t_end={t_end}")):
        fokker_planck_solve(fpgrid, pot, phys, t_end=t_end)


@pytest.mark.parametrize("dt", [0.0, -1e-3, math.nan])
def test_bad_dt_rejected(fpgrid, pot, phys, dt):
    with pytest.raises(FPError, match=re.escape(f"dt={dt}")):
        fokker_planck_solve(fpgrid, pot, phys, t_end=0.1, dt=dt)


def test_normal_moment_relaxation_matches_closed_form(fpgrid, pot, phys):
    """Start from the Gibbs state of a stiffer spring and relax: the normal
    moment obeys the closed exponential exactly in the continuum, so the
    solver must track it to discretization error."""
    f = gibbs_density(fpgrid, SpringPotential.hookean(H=0.5))
    mom = fp_moments(fpgrid, f, pot, phys)
    assert mom.sigma_nn == pytest.approx(0.5, rel=0.02)
    assert abs(mom.sigma_tn) < 1e-10
    t_prev = 0.0
    for t_now in (0.3, 1.0, 2.5):
        f = fokker_planck_solve(fpgrid, pot, phys, t_end=t_now - t_prev, f0=f).density
        ref = fp_moments(fpgrid, f, pot, phys)
        mom = closure_ode_step(mom, 0.0, phys, t_now - t_prev)
        t_prev = t_now
        assert ref.sigma_nn == pytest.approx(mom.sigma_nn, rel=0.02)
        assert abs(ref.sigma_tn) < 1e-10


def test_free_energy_zero_at_gibbs_and_decreasing(fpgrid, pot, phys):
    assert free_energy(gibbs_density(fpgrid, pot), fpgrid, pot) == pytest.approx(0.0, abs=1e-12)
    f = gibbs_density(fpgrid, SpringPotential.hookean(H=1.0))
    values = [free_energy(f, fpgrid, pot)]
    for _ in range(9):
        f = fokker_planck_solve(fpgrid, pot, phys, t_end=0.4, f0=f).density
        values.append(free_energy(f, fpgrid, pot))
    assert values[0] > 0.1
    assert all(b < a for a, b in zip(values, values[1:]))
    assert values[-1] < 1e-3


def test_wall_flux_moment_vanishes_at_equilibrium(fpgrid, pot, phys):
    assert abs(wall_tangential_flux_moment(fpgrid, gibbs_density(fpgrid, pot), phys)) < 1e-12


def test_steady_shear_moments_and_wall_flux_identity(fpgrid, pot, phys):
    """Steady sheared state: the normal moment matches the closed form, the
    tangential moment sits ~1.5x above it, and the excess equals the wall
    flux term through the steady moment identity
        E[m_t m_n] = lambda * ((u/R) E[m_n^2] + W)
    with W the wall tangential flux moment."""
    early = fokker_planck_solve(
        fpgrid, pot, phys, t_end=24.0, u_slip=1.0, f0=gibbs_density(fpgrid, pot)
    )
    res = fokker_planck_solve(fpgrid, pot, phys, t_end=6.0, u_slip=1.0, f0=early.density)
    near, last = (fp_moments(fpgrid, r.density, pot, phys) for r in (early, res))
    assert last.sigma_tn == pytest.approx(near.sigma_tn, rel=1e-3)  # converged
    assert last.sigma_nn == pytest.approx(1.0, rel=0.02)
    assert 1.40 < last.sigma_tn / 1.0 < 1.60

    lam = phys.relaxation_time
    coef = 2.0 * pot.H / pot.R**2 * phys.kB_T / phys.rho  # moments to stress units
    e_tn = last.sigma_tn / coef
    e_nn = last.sigma_nn / coef
    w = wall_tangential_flux_moment(fpgrid, res.density, phys)
    assert e_tn == pytest.approx(lam * ((1.0 / pot.R) * e_nn + w), rel=0.02)


def test_time_dependent_slip_runs_and_conserves_mass(fpgrid, pot, phys):
    res = fokker_planck_solve(
        fpgrid,
        pot,
        phys,
        t_end=1.0,
        u_slip=lambda t: math.sin(t),
        f0=gibbs_density(fpgrid, pot),
    )
    assert res.mass_final == pytest.approx(res.mass_initial, rel=1e-12)
    assert fp_moments(fpgrid, res.density, pot, phys).sigma_tn > 0.0


def test_free_energy_requires_mass(fpgrid, pot):
    with pytest.raises(FPError):
        free_energy(np.zeros((fpgrid.n_t, fpgrid.n_n)), fpgrid, pot)


def test_fp_moments_of_gibbs_match_kramers_anchor(fpgrid, pot, phys):
    mom = fp_moments(fpgrid, gibbs_density(fpgrid, pot), pot, phys)
    assert mom.sigma_nn == pytest.approx(phys.kB_T * phys.N_P / phys.rho, rel=0.01)
    assert abs(mom.sigma_tn) < 1e-12


def test_callable_slip_checked_at_every_step_time(fpgrid, pot, phys):
    """A slip whose zeros fall on the 64 sampling points would pass the
    sampled bound; the step times see its peaks and the solve must refuse
    instead of returning a blown-up density."""
    t_end = 1.0
    with pytest.raises(FPError, match=r"t=.*slip"):
        fokker_planck_solve(
            fpgrid,
            pot,
            phys,
            t_end=t_end,
            u_slip=lambda t: 40.0 * math.sin(2.0 * math.pi * t / (t_end / 63)),
            f0=gibbs_density(fpgrid, pot),
        )


def _reference_solve(fpgrid, potential, phys, t_end, u_slip=0.0, f0=None):
    """The flux-form loop the kernel replaced, at the solver's default step:
    edge fluxes into (n_t + 1, n_n) and (n_t, n_n + 1) arrays whose wall
    rows stay zero, then their divergence into a new density."""
    slip = u_slip if callable(u_slip) else (lambda t, _c=float(u_slip): _c)
    u_bound = max(abs(slip(s)) for s in np.linspace(0.0, max(t_end, 1e-12), 64))
    dt = stable_dt(fpgrid, potential, phys, u_max=u_bound)
    if f0 is None:
        f = np.full((fpgrid.n_t, fpgrid.n_n), 1.0 / (4.0 * fpgrid.extent_t * fpgrid.extent_n))
    else:
        f = np.array(f0, dtype=float)
    U = potential.energy(fpgrid.center_points())
    _, yc = fpgrid.centers()
    D = phys.kB_T / phys.zeta
    dU_x = U[1:, :] - U[:-1, :]
    dU_y = U[:, 1:] - U[:, :-1]
    shear_gain = yc[None, :] * fpgrid.h_t / (D * potential.R)
    By_m = _bernoulli(dU_y)  # B(-s_y) with s_y = -dU_y
    By_p = _bernoulli(-dU_y)
    n_steps = max(1, int(math.ceil(t_end / dt - 1e-12))) if t_end > 0 else 0
    if n_steps:
        dt = t_end / n_steps
    fx = np.zeros((fpgrid.n_t + 1, fpgrid.n_n))
    fy = np.zeros((fpgrid.n_t, fpgrid.n_n + 1))
    t = 0.0
    for _ in range(n_steps):
        s_x = slip(t) * shear_gain - dU_x
        Bx_m = _bernoulli(-s_x)
        Bx_p = _bernoulli(s_x)
        fx[1:-1, :] = (D / fpgrid.h_t) * (Bx_m * f[:-1, :] - Bx_p * f[1:, :])
        fy[:, 1:-1] = (D / fpgrid.h_n) * (By_m * f[:, :-1] - By_p * f[:, 1:])
        f = f - dt * (
            (fx[1:, :] - fx[:-1, :]) / fpgrid.h_t + (fy[:, 1:] - fy[:, :-1]) / fpgrid.h_n
        )
        t += dt
    return f


@pytest.mark.parametrize(
    "u_slip, start, ends",
    [
        (0.0, "uniform", (2.0,)),
        (1.0, "gibbs", (0.5, 1.0)),
        (math.sin, "gibbs", (0.3, 0.7, 1.0)),
    ],
    ids=["zero_slip_uniform", "constant_slip_gibbs", "sin_slip_recorded"],
)
def test_kernel_matches_flux_form_reference(fpgrid, pot, phys, u_slip, start, ends):
    """Solves chained through ``ends`` match the reference loop chained the same
    way, in the density and its Kramers moments at every end."""
    res = ref = None if start == "uniform" else gibbs_density(fpgrid, pot)
    t0 = 0.0
    for t1 in ends:
        slip = (lambda t, t0=t0: u_slip(t0 + t)) if callable(u_slip) else u_slip
        res = fokker_planck_solve(fpgrid, pot, phys, t_end=t1 - t0, u_slip=slip, f0=res).density
        ref = _reference_solve(fpgrid, pot, phys, t1 - t0, u_slip=slip, f0=ref)
        t0 = t1
        assert np.max(np.abs(res - ref)) <= 1e-13 * np.max(np.abs(ref))
        assert res.min() >= 0.0 and ref.min() >= 0.0
        got, want = (fp_moments(fpgrid, f, pot, phys) for f in (res, ref))
        want = np.array([want.sigma_tn, want.sigma_nn])
        np.testing.assert_allclose(
            [got.sigma_tn, got.sigma_nn], want, rtol=1e-13, atol=1e-13 * np.abs(want).max()
        )


def test_solve_leaves_f0_untouched(fpgrid, pot, phys):
    f0 = gibbs_density(fpgrid, SpringPotential.hookean(H=0.5))
    kept = f0.copy()
    res = fokker_planck_solve(fpgrid, pot, phys, t_end=0.2, u_slip=1.0, f0=f0)
    assert np.array_equal(f0, kept)
    assert res.density.shape == (fpgrid.n_t, fpgrid.n_n) and res.density.base is None
