import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nspb.params import (
    ParameterError,
    PhysicalParams,
    SimParams,
    derive_sim_params,
    stokes_einstein_zeta,
)


def test_all_ones_inputs_give_unit_groups():
    p = PhysicalParams(
        nu=1, kB_T=1, R=1, N_P=1, H=0.25, rho=1, a=1, V=1, L=1,
        zeta=1, stokes_einstein_enforced=False,
    )
    assert p.relaxation_time == 1.0
    s = derive_sim_params(p)
    assert s.Re == 1.0
    assert s.Wi == 1.0
    assert s.tau == 1.0
    assert s.alpha == 1.0


def test_group_formulas():
    p = PhysicalParams(
        nu=0.5, kB_T=2.0, R=0.25, N_P=3.0, H=0.5, rho=2.0, V=4.0, L=2.0,
        zeta=1.5, stokes_einstein_enforced=False,
    )
    lam = 1.5 * 0.25**2 / (4 * 0.5 * 2.0)
    assert p.relaxation_time == pytest.approx(lam, rel=1e-15)
    s = derive_sim_params(p)
    assert s.Re == pytest.approx(4.0 * 2.0 / 0.5, rel=1e-15)
    assert s.Wi == pytest.approx(lam * 4.0 / 2.0, rel=1e-15)
    assert s.tau == pytest.approx(2.0 * 16.0 / (2.0 * 3.0), rel=1e-15)
    assert s.alpha == pytest.approx(2.0 / 0.25, rel=1e-15)


def test_stokes_einstein_derives_zeta_when_omitted():
    p = PhysicalParams()
    assert p.zeta == pytest.approx(stokes_einstein_zeta(1.0, 1.0, 1.0), rel=1e-15)


def test_inconsistent_zeta_rejected_under_stokes_einstein():
    with pytest.raises(ParameterError, match="Stokes-Einstein"):
        PhysicalParams(zeta=1.0, stokes_einstein_enforced=True)


def test_halving_nu_doubles_re_and_halves_wi():
    base = PhysicalParams()
    thin = replace(base, nu=base.nu / 2, zeta=None)
    s0 = derive_sim_params(base)
    s1 = derive_sim_params(thin)
    assert s1.Re == pytest.approx(2 * s0.Re, rel=1e-14)
    assert s1.Wi == pytest.approx(s0.Wi / 2, rel=1e-14)
    assert s1.friction_ratio == pytest.approx(s0.friction_ratio, rel=1e-14)


def _ladder_point(mode: str, re: float) -> SimParams:
    """Groups at Re by raising V (fixed fluid) or thinning nu (Stokes-Einstein drag)."""
    base = PhysicalParams()
    if mode == "vary_V":
        return derive_sim_params(replace(base, V=re * base.nu / base.L))
    return derive_sim_params(replace(base, nu=base.V * base.L / re, zeta=None))


@pytest.mark.parametrize("mode", ["vary_V", "vary_nu"])
def test_fixed_geometry_ladders_preserve_alpha_and_friction(mode):
    ladder = [_ladder_point(mode, re) for re in (10.0, 100.0, 1000.0)]
    for s in ladder[1:]:
        assert s.alpha == pytest.approx(ladder[0].alpha, rel=1e-14)
        assert s.friction_ratio == pytest.approx(ladder[0].friction_ratio, rel=1e-14)
    assert [s.Re for s in ladder] == pytest.approx([10.0, 100.0, 1000.0], rel=1e-12)


def test_simparams_validation():
    with pytest.raises(ParameterError):
        SimParams(Re=-1.0)
    with pytest.raises(ParameterError):
        SimParams(Re=1.0, alpha=2.0, kappa=1.0)  # needs alpha > 4*kappa
    with pytest.raises(ParameterError):
        PhysicalParams(nu=0.0)


def test_beta_and_friction_ratio():
    s = SimParams(Re=10.0, Wi=1.0, tau=10.0, alpha=10.0, kappa=0.0)
    assert s.beta == -5.0
    assert s.friction_ratio == pytest.approx(10.0, rel=1e-15)
    s2 = SimParams(Re=10.0, Wi=1.0, tau=10.0, alpha=10.0, kappa=1.0)
    assert s2.beta == -3.0


@settings(max_examples=50, deadline=None)
@given(re=st.floats(min_value=1.0, max_value=1e6), mode=st.sampled_from(["vary_V", "vary_nu"]))
def test_friction_ratio_invariance_property(re, mode):
    base = _ladder_point(mode, 1.0)
    scaled = _ladder_point(mode, re)
    assert scaled.friction_ratio == pytest.approx(base.friction_ratio, rel=1e-12)
    assert scaled.alpha == pytest.approx(base.alpha, rel=1e-12)
    assert math.isclose(scaled.Re, re, rel_tol=1e-12)
