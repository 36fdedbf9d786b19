import math

import numpy as np
import pytest

from nspb.fplanck import (
    FPError,
    FPGrid,
    density_mass,
    fokker_planck_solve,
    fp_moments,
    free_energy,
    gibbs_density,
    stable_dt,
    wall_tangential_flux_moment,
)
from nspb.micro import SpringPotential, StressMoments, closure_ode_step
from nspb.params import PhysicalParams


@pytest.fixture()
def phys():
    return PhysicalParams(zeta=1.0, stokes_einstein_enforced=False)


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


def test_for_potential_extents(pot):
    g = FPGrid.for_potential(pot, cutoff=20.0, h=0.15)
    assert g.extent_t == pytest.approx(math.sqrt(80.0))
    assert g.extent_n == g.extent_t
    assert g.h_t <= 0.15 + 1e-12
    fene = SpringPotential.fene(H=1.0, R=2.0)
    gf = FPGrid.for_potential(fene, cutoff=20.0, h=0.15)
    assert gf.extent_t == pytest.approx(2.0, rel=1e-6)


def test_gibbs_density_mass(fpgrid, pot):
    f = gibbs_density(fpgrid, pot, mass=2.5)
    assert density_mass(fpgrid, f) == pytest.approx(2.5, rel=1e-14)
    assert np.all(f > 0)


def test_gibbs_is_discretely_stationary(fpgrid, pot, phys):
    """The exponential-fitted fluxes vanish identically on the Gibbs cell
    density, so time stepping leaves it unchanged to roundoff."""
    f0 = gibbs_density(fpgrid, pot)
    res = fokker_planck_solve(fpgrid, pot, phys, t_end=2.0, f0=f0)
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


def test_record_times_snapshots(fpgrid, pot, phys):
    res = fokker_planck_solve(
        fpgrid,
        pot,
        phys,
        t_end=0.5,
        f0=gibbs_density(fpgrid, pot),
        record_times=[0.0, 0.2, 0.5],
    )
    assert len(res.times) == 3
    assert res.times[0] == 0.0
    for asked, got in zip([0.0, 0.2, 0.5], res.times):
        assert got >= asked - 1e-12
        assert got - asked <= stable_dt(fpgrid, pot, phys) + 1e-12
    assert all(isinstance(m, StressMoments) for m in res.moment_history)


def test_normal_moment_relaxation_matches_closed_form(fpgrid, pot, phys):
    """Start from the Gibbs state of a stiffer spring and relax: the normal
    moment obeys the closed exponential exactly in the continuum, so the
    solver must track it to discretization error."""
    stiff = SpringPotential.hookean(H=0.5)
    f0 = gibbs_density(fpgrid, stiff)
    res = fokker_planck_solve(
        fpgrid, pot, phys, t_end=2.5, f0=f0, record_times=[0.0, 0.3, 1.0, 2.5]
    )
    first = res.moment_history[0]
    assert first.sigma_nn == pytest.approx(0.5, rel=0.02)
    assert abs(first.sigma_tn) < 1e-10
    mom = first
    t_prev = res.times[0]
    for t_now, ref in zip(res.times[1:], res.moment_history[1:]):
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
    res = fokker_planck_solve(
        fpgrid,
        pot,
        phys,
        t_end=30.0,
        u_slip=1.0,
        f0=gibbs_density(fpgrid, pot),
        record_times=[24.0, 30.0],
    )
    near, last = res.moment_history
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
        record_times=[1.0],
    )
    assert res.mass_final == pytest.approx(res.mass_initial, rel=1e-12)
    assert res.moment_history[-1].sigma_tn > 0.0


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
