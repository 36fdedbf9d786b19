import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from nspb import experiments, micro
from nspb.config import parse_config
from nspb.flow import whole_steps
from nspb.micro import (
    PolymerEnsemble,
    SpringPotential,
    StressMoments,
    closure_equilibrium,
    closure_ode_step,
    ensemble_to_csv,
    equilibrium_ensemble,
    hookean_exact_walk,
    kramers_stress,
    memory_closure_equilibrium,
    memory_closure_step,
    sde_step,
)
from nspb.params import ParameterError, PhysicalParams
from nspb.wallbc import exp_weights


@pytest.fixture()
def phys():
    return PhysicalParams()


@pytest.fixture()
def pot():
    return SpringPotential.hookean(H=0.25)


def test_potential_validation():
    with pytest.raises(ParameterError):
        SpringPotential.hookean(H=-1.0)
    with pytest.raises(ParameterError):
        SpringPotential.hookean(H=math.nan)
    with pytest.raises(ParameterError):
        SpringPotential.hookean(H=1.0, R=0.0)
    for R in (math.nan, math.inf):
        with pytest.raises(ParameterError, match="R must be positive and finite"):
            SpringPotential(H=0.25, R=R)


def test_hookean_energy_and_grad(pot):
    m = np.array([[3.0, 4.0]])
    assert pot.energy(m)[0] == pytest.approx(0.25 * 25.0)
    assert np.allclose(pot.grad(m), 0.5 * m)


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


def test_free_spring_has_no_equilibrium_ensemble():
    # exp(-U) is not normalizable at H = 0, so there is nothing to sample
    with pytest.raises(ParameterError, match="H = 0"):
        equilibrium_ensemble(10, SpringPotential.hookean(H=0.0), seed=1)


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


def _reference_sde_step(ens, dt, potential, phys, u_slip=0.0, noise=True):
    """The out-of-place Euler-Maruyama step with the Philox key spelled out.

    sde_step must reproduce it bit for bit.
    """
    m = ens.members
    key = [np.uint64(ens.seed), np.uint64(ens.step_count) * np.uint64(65536)]
    if noise:
        z = np.random.Generator(np.random.Philox(key=key)).standard_normal(m.shape)
    else:
        z = np.zeros_like(m)
    D = phys.kB_T / phys.zeta
    scale = math.sqrt(2.0 * D * dt) if noise else 0.0
    drift = -D * potential.grad(m)
    drift[:, 0] += (u_slip / potential.R) * m[:, 1]
    new = m + dt * drift + scale * z
    new[:, 1] = np.abs(new[:, 1])
    return PolymerEnsemble(members=new, seed=ens.seed, step_count=ens.step_count + 1, t=ens.t + dt)


# (potential, members, seed, dt, u_slip, noise)
_ORACLE_CASES = {
    "hookean_slip0": (SpringPotential.hookean(H=0.25), 2000, 5, 1e-3, 0.0, True),
    "hookean_slip0.37": (SpringPotential.hookean(H=0.25), 2000, 5, 1e-3, 0.37, True),
    "hookean_slip-2": (SpringPotential.hookean(H=0.25), 2000, 5, 1e-3, -2.0, True),
    "no_noise": (SpringPotential.hookean(H=0.25), 2000, 5, 1e-3, 0.37, False),
}


@pytest.mark.parametrize("case", list(_ORACLE_CASES))
def test_sde_step_matches_out_of_place_reference_bitwise(case, phys):
    pot, n, seed, dt, u_slip, noise = _ORACLE_CASES[case]
    ens = ref = equilibrium_ensemble(n, pot, seed=seed)
    for _ in range(40):
        ens = sde_step(ens, dt, pot, phys, u_slip=u_slip, noise=noise)
        ref = _reference_sde_step(ref, dt, pot, phys, u_slip=u_slip, noise=noise)
        assert np.array_equal(ens.members, ref.members)
        assert (ens.t, ens.step_count) == (ref.t, ref.step_count)


@pytest.mark.parametrize("case", ["hookean_slip0.37", "no_noise"])
def test_sde_step_leaves_input_untouched(case, phys):
    pot, n, seed, dt, u_slip, noise = _ORACLE_CASES[case]
    ens = equilibrium_ensemble(n, pot, seed=seed)
    for _ in range(40):
        before = ens.members.copy()
        new = sde_step(ens, dt, pot, phys, u_slip=u_slip, noise=noise)
        assert np.array_equal(ens.members, before)
        assert not np.shares_memory(new.members, ens.members)
        ens = new


def test_kramers_stress_hand_sum(pot, phys):
    members = np.array([[0.5, 1.0], [-0.3, 0.2], [1.0, 2.0]])
    ens = PolymerEnsemble(members=members, seed=0)
    mom = kramers_stress(ens, pot, phys)
    # grad U = m/2, so sigma_tn = mean(m_t m_n)/2 and sigma_nn = mean(m_n^2)/2
    assert mom.sigma_tn == pytest.approx((0.5 - 0.06 + 2.0) / 6.0, rel=1e-14)
    assert mom.sigma_nn == pytest.approx((1.0 + 0.04 + 4.0) / 6.0, rel=1e-14)
    assert mom.n_members == 3
    assert mom.se_tn > 0


def _reference_kramers_stress(ens, potential, phys):
    """The moments from the full (n, 2) gradient, as first written."""
    pref = phys.kB_T * phys.N_P / phys.rho
    g = potential.grad(ens.members)
    prod_tn = ens.members[:, 0] * g[:, 1]
    prod_nn = ens.members[:, 1] * g[:, 1]
    n = ens.n_members
    se = lambda a: float(np.std(a, ddof=1) / math.sqrt(n))
    return StressMoments(
        sigma_tn=pref * float(np.mean(prod_tn)),
        sigma_nn=pref * float(np.mean(prod_nn)),
        se_tn=pref * se(prod_tn),
        se_nn=pref * se(prod_nn),
        n_members=n,
    )


def test_moments_and_equilibrium_draw_keep_their_reference_bits(pot, phys):
    # kramers_stress reads one gradient column and equilibrium_ensemble scales
    # its normals in place; both must keep the bits of the formulas they replace
    ens = equilibrium_ensemble(1000, pot, seed=9)
    sd = pot.R / math.sqrt(2.0 * pot.H)
    want = sd * micro._philox_normals(9, micro._EQ_LABEL, (1000, 2))
    want[:, 1] = np.abs(want[:, 1])
    assert np.array_equal(ens.members, want)
    walked = hookean_exact_walk(ens, 5e-3, pot, phys, [1.0] * 20)
    for e in (ens, walked):
        assert kramers_stress(e, pot, phys) == _reference_kramers_stress(e, pot, phys)
    assert kramers_stress(walked, pot, phys).sigma_tn != 0.0


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


def test_reflected_shear_moment_exceeds_closed_form(pot, phys):
    """Under steady slip the reflected ensemble's tangential moment sits
    about 1.5x above the closed two-moment prediction; the wall flux the
    closed form drops is that large.  The exact-in-law walk has no step
    bias in sigma_nn, and a fixed seed keeps this deterministic."""
    n, dt, T = 30_000, 0.1, 6.0
    steps = round(T / dt)
    ens = equilibrium_ensemble(n, pot, seed=31)
    mom = kramers_stress(hookean_exact_walk(ens, dt, pot, phys, [1.0] * steps), pot, phys)
    closed = closure_equilibrium(phys)
    for _ in range(steps):
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


def _point_mass(n, m_t, m_n, seed):
    return PolymerEnsemble(members=np.tile([m_t, m_n], (n, 1)), seed=seed)


def _within_4se(samples, target):
    se = np.std(samples, ddof=1) / math.sqrt(samples.size)
    assert abs(np.mean(samples) - target) <= 4 * se, (np.mean(samples), target, se)


def test_exact_step_normal_is_the_folded_normal(pot, phys):
    # lambda = 1 and D = 1: from m_n = 1, one step of h = 1 is the normal of
    # mean E = exp(-1/2) and variance 2 (1 - E^2), folded at the wall
    n, h = 100_000, 1.0
    ens = hookean_exact_walk(_point_mass(n, 0.0, 1.0, seed=41), h, pot, phys, [0.0])
    mu, s = math.exp(-0.5), math.sqrt(2.0 * (1.0 - math.exp(-1.0)))
    folded_mean = s * math.sqrt(2 / math.pi) * math.exp(-mu**2 / (2 * s**2)) + mu * math.erf(
        mu / (s * math.sqrt(2))
    )
    mn = ens.members[:, 1]
    assert np.all(mn >= 0)
    _within_4se(mn, folded_mean)
    _within_4se(mn**2, mu**2 + s**2)
    assert (ens.t, ens.step_count) == (h, 1)


def test_exact_step_shear_drive_is_the_conditional_mean(pot, phys):
    # far from the wall E[m_n(s)] = m_n exp(-s/2), so the exact mean drive is
    # (u/R) m_n h exp(-h/2); the exponential trapezoid is within 3e-4 of it here
    n, h, u, m_n = 100_000, 0.05, 10.0, 10.0
    ens = hookean_exact_walk(_point_mass(n, 0.0, m_n, seed=43), h, pot, phys, [u])
    _within_4se(ens.members[:, 0], u * m_n * h * math.exp(-h / 2))
    _within_4se(ens.members[:, 1], m_n * math.exp(-h / 2))


def test_exact_step_is_exact_for_any_step_without_slip(pot, phys):
    n = 100_000
    one = hookean_exact_walk(_point_mass(n, 2.0, 1.0, seed=45), 0.5, pot, phys, [0.0])
    many = _point_mass(n, 2.0, 1.0, seed=46)
    for _ in range(100):
        many = hookean_exact_walk(many, 5e-3, pot, phys, [0.0])
    assert many.t == pytest.approx(0.5, rel=1e-12)
    a, b = one.members[:, 0] ** 2, many.members[:, 0] ** 2
    se = math.sqrt(np.var(a, ddof=1) / n + np.var(b, ddof=1) / n)
    assert abs(np.mean(a) - np.mean(b)) <= 4 * se
    # both agree with the OU second moment 4 E^2 + 2 (1 - E^2), E = exp(-1/4)
    E2 = math.exp(-0.5)
    _within_4se(b, 4.0 * E2 + 2.0 * (1.0 - E2))


def test_exact_step_deterministic_and_leaves_input_untouched(pot, phys):
    a = b = equilibrium_ensemble(500, pot, seed=21)
    for _ in range(10):
        before = a.members.copy()
        new = hookean_exact_walk(a, 5e-3, pot, phys, [0.37])
        assert np.array_equal(a.members, before)
        assert not np.shares_memory(new.members, a.members)
        a = new
        b = hookean_exact_walk(b, 5e-3, pot, phys, [0.37])
    assert np.array_equal(a.members, b.members)
    assert (a.t, a.step_count) == (b.t, b.step_count)


def test_exact_step_rejects_other_springs_and_bad_steps(pot, phys):
    ens = equilibrium_ensemble(10, pot, seed=1)
    with pytest.raises(ValueError, match="H = 0"):
        hookean_exact_walk(ens, 5e-3, SpringPotential.hookean(H=0.0), phys, [0.0])
    with pytest.raises(ValueError, match="H = 0"):
        hookean_exact_walk(ens, 5e-3, SpringPotential.hookean(H=0.0), phys, [1.0, 0.5])
    for dt in (0.0, -5e-3):
        with pytest.raises(ValueError, match="dt"):
            hookean_exact_walk(ens, dt, pot, phys, [0.0])
        with pytest.raises(ValueError, match="dt"):
            hookean_exact_walk(ens, dt, pot, phys, [1.0, 0.5])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_walk_rejects_a_non_finite_slip_naming_its_step(pot, phys, bad):
    ens = equilibrium_ensemble(10, pot, seed=1)
    before = ens.members.copy()
    with pytest.raises(ValueError, match=f"step 2 must be finite, got {bad!r}"):
        hookean_exact_walk(ens, 5e-3, pot, phys, [0.0, 1.0, bad, 0.5])
    with pytest.raises(ValueError, match=f"step 0 must be finite, got {bad!r}"):
        hookean_exact_walk(ens, 5e-3, pot, phys, [bad])
    assert np.array_equal(ens.members, before)
    # a walked ensemble counts its steps on from where it stands
    walked = hookean_exact_walk(ens, 5e-3, pot, phys, [0.5] * 7)
    with pytest.raises(ValueError, match=f"step 8 must be finite, got {bad!r}"):
        hookean_exact_walk(walked, 5e-3, pot, phys, [0.0, bad])


def _reference_exact_step(ens, dt, potential, phys, u_slip=0.0):
    """One exact-in-law step, out of place, with the Philox key spelled out.

    A chain of these is what hookean_exact_walk must reproduce bit for bit.
    """
    D = phys.kB_T / phys.zeta
    two_lam = potential.R**2 / (2.0 * potential.H * D)
    E, w0, w1 = exp_weights(dt, two_lam)
    s = math.sqrt(two_lam * D * (1.0 - E * E))
    m = ens.members
    key = [np.uint64(ens.seed), np.uint64(ens.step_count) * np.uint64(65536)]
    z = np.random.Generator(np.random.Philox(key=key)).standard_normal(m.shape)
    new = s * z + E * m
    new[:, 1] = np.abs(new[:, 1])
    shear = (w0 * m[:, 1] + w1 * new[:, 1]) * (u_slip / potential.R)
    new[:, 0] = new[:, 0] + shear
    return PolymerEnsemble(members=new, seed=ens.seed, step_count=ens.step_count + 1, t=ens.t + dt)


_WALK_SLIPS = {
    "zero": [0.0] * 12,
    "negative": [-2.0] * 12,
    "sinusoidal": [math.sin(2.0 * math.pi * k * 5e-3 / 0.03) for k in range(12)],
}


@pytest.mark.parametrize("slips", list(_WALK_SLIPS))
@pytest.mark.parametrize(
    "n",
    [1, 1000, micro._WALK_BLOCK, 2 * micro._WALK_BLOCK + 17],
    ids=["1", "1000", "block", "2block+17"],
)
def test_walk_matches_a_chain_of_reference_steps_bitwise(n, slips, pot, phys):
    ens = equilibrium_ensemble(n, pot, seed=13)
    ens = PolymerEnsemble(members=ens.members, seed=ens.seed, step_count=7, t=0.25)
    before = ens.members.copy()
    walked = hookean_exact_walk(ens, 5e-3, pot, phys, _WALK_SLIPS[slips])
    ref = ens
    for u in _WALK_SLIPS[slips]:
        ref = _reference_exact_step(ref, 5e-3, pot, phys, u_slip=u)
    assert np.array_equal(walked.members, ref.members)
    assert (walked.t, walked.step_count, walked.seed) == (ref.t, ref.step_count, ref.seed)
    assert np.array_equal(ens.members, before)
    assert not np.shares_memory(walked.members, ens.members)


def test_walk_of_no_steps_is_a_copy(pot, phys):
    ens = equilibrium_ensemble(100, pot, seed=13)
    walked = hookean_exact_walk(ens, 5e-3, pot, phys, [])
    assert np.array_equal(walked.members, ens.members)
    assert not np.shares_memory(walked.members, ens.members)
    assert (walked.t, walked.step_count) == (ens.t, ens.step_count)


def test_walk_allocates_no_array_per_step(pot, phys):
    ens = equilibrium_ensemble(50_000, pot, seed=17)
    block = micro._WALK_BLOCK
    buffers = block * 2 * 8 + block * 8  # the normals block and the shear column
    # slack covers the bool mask PolymerEnsemble checks its result with and
    # the per-step generator objects
    slack = ens.n_members + 64 * 1024

    def peak(steps):
        tracemalloc.start()
        try:
            hookean_exact_walk(ens, 5e-3, pot, phys, [0.5] * steps)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    short, long = peak(4), peak(40)
    assert long <= ens.members.nbytes + buffers + slack
    assert long <= short + 16 * 1024


def test_micro_verify_walk_matches_a_per_step_reference_chain(tmp_path, monkeypatch):
    # 53 steps with a comparison every 10: five comparisons and a 3-step tail
    for name, value in {
        "MC_DT": 5e-3,
        "MC_MEMBERS": 1000,
        "MC_T_END": 0.265,
        "MC_COMPARE_SPACING": 0.05,
        "FP_RELAX_MULTIPLE": 0.5,
    }.items():
        monkeypatch.setattr(experiments, name, value)
    plan = parse_config("kind = micro_verify\n").with_output(tmp_path, seed=4)
    summary = experiments.execute(plan)
    assert summary.total_steps == 2 * 53
    phys = experiments._micro_phys(plan)
    pot = SpringPotential.hookean(H=phys.H, R=phys.R)
    dt = experiments.MC_DT
    for idx, scen in enumerate(("constant", "sinusoidal")):
        slip = experiments._mc_slip(scen)
        ens = equilibrium_ensemble(1000, pot, seed=plan.seed + idx)
        ode, mem = closure_equilibrium(phys), memory_closure_equilibrium(phys)
        rows = []
        for k in range(53):
            u = float(slip(k * dt))
            ens = _reference_exact_step(ens, dt, pot, phys, u_slip=u)
            ode = closure_ode_step(ode, u, phys, dt)
            mem = memory_closure_step(mem, u, phys, dt)
            if (k + 1) % 10 == 0:
                mom = kramers_stress(ens, pot, phys)
                # the c-th comparison is written at c * MC_COMPARE_SPACING
                t = (k + 1) // 10 * experiments.MC_COMPARE_SPACING
                rows.append([t, mom.sigma_tn, mom.se_tn, ode.sigma_tn])
                rows[-1] += [mom.sigma_nn, mom.se_nn, ode.sigma_nn]
        lines = (tmp_path / f"micro_moments_{scen}.csv").read_text().splitlines()
        assert [[float(v) for v in line.split(",")] for line in lines[2:]] == rows


def _folded_correlation(s):
    # C(s) = E|X||Y| / E X^2 for the stationary OU coordinate at lag s, lambda = 1:
    # the correlation of the reflected m_n chain
    rho = math.exp(-s / 2)
    return (2 / math.pi) * (math.sqrt(max(1.0 - rho * rho, 0.0)) + rho * math.asin(rho))


def _kernel(s):
    # the exact shear kernel exp(-s/2) C(s) at lambda = 1
    return math.exp(-s / 2) * _folded_correlation(s)


@pytest.mark.parametrize("scenario", ["constant", "sinusoidal"])
def test_memory_closure_matches_quadrature_of_the_kernel(scenario, phys):
    dt, n = 0.05, 100  # t in [0, 5]; the slip is held over each step
    if scenario == "constant":
        slips = np.ones(n)
    else:
        slips = np.sin(2 * math.pi * dt * np.arange(n) / 2.5)
    state = memory_closure_equilibrium(phys)
    got, want = [], []
    for k in range(n):
        state = memory_closure_step(state, float(slips[k]), phys, dt)
        # sigma_tn(t) = sum_j u_j integral over the lags of step j
        t = (k + 1) * dt
        want.append(
            sum(
                slips[j] * quad(_kernel, t - (j + 1) * dt, t - j * dt, epsabs=1e-14)[0]
                for j in range(k + 1)
            )
        )
        got.append(state.sigma_tn)
    got, want = np.array(got), np.array(want)
    assert np.max(np.abs(got - want)) <= 1e-4 * np.max(np.abs(want))
    if scenario == "constant":
        assert np.max(np.abs(got / want - 1.0)) <= 1e-4
    assert state.sigma_nn == closure_equilibrium(phys).sigma_nn


def _walk_mean_bias(h, scenario):
    """Largest |exact mean sigma_tn of the walk - held-slip memory integral| at
    the comparison times up to the shipped MC_T_END, lambda = 1, sigma_eq/R = 1.

    No sampling: the walk's m_n is the exact reflected OU chain, so after k
    steps its mean sigma_tn is sum_j u_j E^i (w0 C((i+1)h) + w1 C(i h)) with
    i = k-1-j and (E, w0, w1) = exp_weights(h, 2 lambda).  The memory closure
    integrates the kernel over each held-slip step.  Both read j through i only.
    """
    n = whole_steps(experiments.MC_T_END, h)
    every = whole_steps(experiments.MC_COMPARE_SPACING, h)
    E, w0, w1 = exp_weights(h, 2.0)
    walk = [E**i * (w0 * _folded_correlation((i + 1) * h) + w1 * _folded_correlation(i * h))
            for i in range(n)]
    exact = [quad(_kernel, i * h, (i + 1) * h, epsabs=1e-14)[0] for i in range(n)]
    gap = np.subtract(walk, exact)
    slip = experiments._mc_slip(scenario)
    u = np.array([float(slip(k * h)) for k in range(n)])
    return max(abs(u[:k] @ gap[k - 1 :: -1]) for k in range(every, n + 1, every))


@pytest.mark.parametrize("scenario", ["constant", "sinusoidal"])
def test_walk_mean_at_the_driver_step_is_within_the_bias_rule(scenario):
    # the exponential trapezoid in the shear drive is the walk's only time-step
    # bias; at the driver's step its exact mean stays within a third of the
    # band's allowance (2.95e-4 / 2.02e-4 at h = 0.1)
    phys = experiments._micro_phys(parse_config("kind = micro_verify\n"))
    assert phys.relaxation_time == 1.0 and phys.R == 1.0
    assert phys.kB_T * phys.N_P / phys.rho == 1.0
    h, _, _ = experiments._micro_schedule()
    assert _walk_mean_bias(h, scenario) <= experiments.MC_BIAS_ALLOWANCE / 3


def test_bias_rule_rejects_a_step_of_a_quarter():
    # the rule bites: at h = 0.25 the constant slip's bias is 1.77e-3
    assert _walk_mean_bias(0.25, "constant") > experiments.MC_BIAS_ALLOWANCE / 3


def test_memory_closure_ratio_to_closed_system(phys):
    from nspb.experiments import TN_DEFECT_BAND

    mem, ode = memory_closure_equilibrium(phys), closure_equilibrium(phys)
    ratio = {}
    for k in range(400):
        mem = memory_closure_step(mem, 1.0, phys, 0.1)
        ode = closure_ode_step(ode, 1.0, phys, 0.1)
        ratio[k + 1] = mem.sigma_tn / ode.sigma_tn
    lo, hi = TN_DEFECT_BAND
    assert lo <= ratio[50] <= hi  # t = 5, the shipped horizon
    assert ratio[400] == pytest.approx(1.5, abs=1e-8)  # steady: (3 pi/8)(2/pi) * 2
    assert ratio[100] < ratio[200] < ratio[400]
