import math

import numpy as np
import pytest

from nspb.micro import (
    ClosureError,
    PolymerEnsemble,
    SpringPotential,
    StressMoments,
    closure_equilibrium,
    closure_ode_step,
    ensemble_to_csv,
    equilibrium_ensemble,
    kramers_stress,
    sde_step,
)
from nspb.params import ParameterError, PhysicalParams


@pytest.fixture()
def phys():
    return PhysicalParams(zeta=1.0, stokes_einstein_enforced=False)


@pytest.fixture()
def pot():
    return SpringPotential.hookean(H=0.25)


def test_potential_validation():
    with pytest.raises(ParameterError):
        SpringPotential(kind="square", H=1.0)
    with pytest.raises(ParameterError):
        SpringPotential.hookean(H=-1.0)
    with pytest.raises(ParameterError):
        SpringPotential(kind="hookean", H=1.0, k_exponent=0)


def test_hookean_energy_and_grad(pot):
    m = np.array([[3.0, 4.0]])
    assert pot.energy(m)[0] == pytest.approx(0.25 * 25.0)
    assert np.allclose(pot.grad(m), 0.5 * m)
    quart = SpringPotential.hookean(H=2.0, k=2)
    # U = 2 r^4, grad = 8 r^2 m
    assert quart.energy(m)[0] == pytest.approx(2.0 * 625.0)
    assert np.allclose(quart.grad(m), 8.0 * 25.0 * m)


def test_fene_energy_and_grad():
    pot = SpringPotential.fene(H=1.5, R=2.0)
    m = np.array([[1.0, 1.0]])
    assert pot.energy(m)[0] == pytest.approx(-1.5 * math.log(0.5))
    assert np.allclose(pot.grad(m), (2 * 1.5 / 4.0) * m / 0.5)
    outside = np.array([[2.0, 1.0]])
    assert np.isinf(pot.energy(outside)[0])


def test_equilibrium_ensemble_moments(pot):
    ens = equilibrium_ensemble(100_000, pot, seed=11)
    m = ens.members
    assert np.all(m[:, 1] >= 0)
    # E[m_n^2] = R^2/(2H) = 2, SE = sqrt(8)/sqrt(n)
    assert np.mean(m[:, 1] ** 2) == pytest.approx(2.0, abs=4 * math.sqrt(8 / 1e5))
    assert np.mean(m[:, 0]) == pytest.approx(0.0, abs=4 * math.sqrt(2 / 1e5))


def test_equilibrium_ensemble_deterministic(pot):
    a = equilibrium_ensemble(1000, pot, seed=5)
    b = equilibrium_ensemble(1000, pot, seed=5)
    c = equilibrium_ensemble(1000, pot, seed=6)
    assert np.array_equal(a.members, b.members)
    assert not np.array_equal(a.members, c.members)


def test_ensemble_validation():
    with pytest.raises(ValueError):
        PolymerEnsemble(members=np.array([[0.0, -0.1]]), seed=0)
    with pytest.raises(ValueError):
        PolymerEnsemble(members=np.zeros((3,)), seed=0)


def test_zero_noise_drift_matches_exponential_decay(pot, phys):
    # drift is -(kB_T/zeta) grad U = -m/2, so |m| decays like exp(-t/2)
    ens = PolymerEnsemble(members=np.array([[1.0, 2.0]]), seed=0)
    dt = 1e-3
    for _ in range(1000):
        ens = sde_step(ens, dt, pot, phys, noise=False)
    exact = np.array([[1.0, 2.0]]) * math.exp(-0.5)
    err = np.max(np.abs(ens.members - exact))
    assert err < 5e-4  # first-order in dt
    assert err > 1e-7  # and genuinely Euler, not exact


def test_reflection_keeps_normal_positive(pot, phys):
    ens = equilibrium_ensemble(2000, pot, seed=3)
    for _ in range(50):
        ens = sde_step(ens, 5e-3, pot, phys, u_slip=0.5)
    assert np.all(ens.members[:, 1] >= 0)


def test_pure_diffusion_second_moment(phys):
    free = SpringPotential.hookean(H=0.0)
    n = 20_000
    ens = PolymerEnsemble(members=np.zeros((n, 2)), seed=9)
    dt, T = 1e-3, 0.5
    for _ in range(int(T / dt)):
        ens = sde_step(ens, dt, free, phys)
    target = 2.0 * phys.kB_T / phys.zeta * T  # reflection preserves m_n^2 of the free walk
    se = target * math.sqrt(2.0 / n)
    assert np.mean(ens.members[:, 1] ** 2) == pytest.approx(target, abs=4 * se)
    assert np.mean(ens.members[:, 0] ** 2) == pytest.approx(target, abs=4 * se)


def test_sde_step_deterministic(pot, phys):
    a = equilibrium_ensemble(500, pot, seed=21)
    b = equilibrium_ensemble(500, pot, seed=21)
    for _ in range(10):
        a = sde_step(a, 1e-3, pot, phys, u_slip=1.0)
        b = sde_step(b, 1e-3, pot, phys, u_slip=1.0)
    assert np.array_equal(a.members, b.members)


def test_fene_steps_stay_inside(phys):
    pot = SpringPotential.fene(H=1.0, R=1.0)
    ens = equilibrium_ensemble(5000, pot, seed=4)
    assert np.all(np.sum(ens.members**2, axis=1) < 1.0)
    # dt must keep 2 H D dt well below the typical boundary gap, else the
    # explicit drift overshoots and the retry cap trips (tested below)
    for _ in range(200):
        ens = sde_step(ens, 5e-5, pot, phys, u_slip=0.3)
    assert np.all(np.sum(ens.members**2, axis=1) < 1.0)
    assert np.all(ens.members[:, 1] >= 0)


def test_fene_coarse_step_fails_loudly(phys):
    pot = SpringPotential.fene(H=5.0, R=0.5)
    near_edge = PolymerEnsemble(members=np.array([[0.49, 0.0]]), seed=1)
    with pytest.raises(RuntimeError):
        sde_step(near_edge, 1e-2, pot, phys, max_retries=20)


def test_kramers_stress_hand_sum(pot, phys):
    members = np.array([[0.5, 1.0], [-0.3, 0.2], [1.0, 2.0]])
    ens = PolymerEnsemble(members=members, seed=0)
    mom = kramers_stress(ens, pot, phys)
    # grad U = m/2, so sigma_tn = mean(m_t m_n)/2 and sigma_nn = mean(m_n^2)/2
    assert mom.sigma_tn == pytest.approx((0.5 - 0.06 + 2.0) / 6.0, rel=1e-14)
    assert mom.sigma_nn == pytest.approx((1.0 + 0.04 + 4.0) / 6.0, rel=1e-14)
    assert mom.n_members == 3
    assert mom.se_tn > 0


def test_pure_normal_members_have_zero_shear_stress(pot, phys):
    ens = PolymerEnsemble(members=np.column_stack([np.zeros(8), np.full(8, 1.3)]), seed=0)
    assert kramers_stress(ens, pot, phys).sigma_tn == 0.0


def test_equilibrium_normal_stress_anchor(pot, phys):
    ens = equilibrium_ensemble(100_000, pot, seed=17)
    mom = kramers_stress(ens, pot, phys)
    anchor = phys.kB_T * phys.N_P / phys.rho
    assert abs(mom.sigma_nn - anchor) < 3 * mom.se_nn


def test_closure_equilibrium_is_fixed_point(phys):
    eq = closure_equilibrium(phys)
    out = closure_ode_step(eq, 0.0, phys, 0.37)
    assert out.sigma_tn == 0.0
    assert out.sigma_nn == pytest.approx(eq.sigma_nn, rel=1e-15)


def test_closure_relaxation_is_exact_exponential(phys):
    s0 = StressMoments(sigma_tn=0.8, sigma_nn=1.0)
    out = closure_ode_step(s0, 0.0, phys, 0.25)
    # relaxation rate is 4 H kB_T/(R^2 zeta) = 1
    assert out.sigma_tn == pytest.approx(0.8 * math.exp(-0.25), rel=1e-14)
    out2 = s0
    for _ in range(10):
        out2 = closure_ode_step(out2, 0.0, phys, 0.025)
    assert out2.sigma_tn == pytest.approx(0.8 * math.exp(-0.25), rel=1e-13)


def test_closure_steady_state_under_constant_slip(phys):
    mom = closure_equilibrium(phys)
    for _ in range(400):
        mom = closure_ode_step(mom, 0.7, phys, 0.05)
    # steady sigma_tn = (u/R) * sigma_nn_eq * lambda
    assert mom.sigma_tn == pytest.approx(0.7, rel=1e-8)
    assert mom.sigma_nn == pytest.approx(1.0, rel=1e-12)


def test_closure_rejects_nonlinear_springs(phys):
    mom = closure_equilibrium(phys)
    with pytest.raises(ClosureError):
        closure_ode_step(mom, 0.0, phys, 0.1, potential=SpringPotential.fene(H=1.0))
    with pytest.raises(ClosureError):
        closure_ode_step(mom, 0.0, phys, 0.1, potential=SpringPotential.hookean(H=1.0, k=2))


def test_reflected_shear_moment_exceeds_closed_form(pot, phys):
    """Under steady slip the reflected ensemble's tangential moment sits
    about 1.5x above the closed two-moment prediction; the wall flux the
    closed form drops is that large.  Fixed seed keeps this deterministic."""
    n, dt, T = 30_000, 2e-3, 6.0
    ens = equilibrium_ensemble(n, pot, seed=31)
    for _ in range(int(T / dt)):
        ens = sde_step(ens, dt, pot, phys, u_slip=1.0)
    mom = kramers_stress(ens, pot, phys)
    closed = closure_equilibrium(phys)
    for _ in range(int(T / dt)):
        closed = closure_ode_step(closed, 1.0, phys, dt)
    assert closed.sigma_tn == pytest.approx(1.0 - math.exp(-T), rel=1e-10)
    ratio = mom.sigma_tn / closed.sigma_tn
    assert 1.35 < ratio < 1.65
    # the normal moment is immune (its wall flux vanishes identically)
    assert abs(mom.sigma_nn - closed.sigma_nn) < 4 * mom.se_nn


def test_ensemble_csv_round_trip(pot, tmp_path):
    ens = equilibrium_ensemble(50, pot, seed=2)
    path = tmp_path / "ens.csv"
    ensemble_to_csv(ens, path)
    assert path.read_text().splitlines()[0] == "member_id,m_tangential,m_normal"
    back = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.array_equal(back[:, 0], np.arange(50))
    assert np.array_equal(back[:, 1:], ens.members)
