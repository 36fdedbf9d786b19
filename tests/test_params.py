import math
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nspb.experiments import _point_params
from nspb.params import ParameterError, PhysicalParams, SimParams


def test_all_ones_inputs_give_unit_groups():
    p = PhysicalParams(kB_T=1, R=1, N_P=1, H=0.25, rho=1, zeta=1)
    assert p == PhysicalParams()  # unit bead drag is the default
    assert p.relaxation_time == 1.0


def test_group_formulas():
    p = PhysicalParams(kB_T=2.0, R=0.25, N_P=3.0, H=0.5, rho=2.0, zeta=1.5)
    assert p.relaxation_time == pytest.approx(1.5 * 0.25**2 / (4 * 0.5 * 2.0), rel=1e-15)


def test_simparams_validation():
    with pytest.raises(ParameterError):
        SimParams(Re=-1.0)
    with pytest.raises(ParameterError):
        SimParams(Re=1.0, alpha=2.0, kappa=1.0)  # needs alpha > 4*kappa
    names = [f.name for f in fields(PhysicalParams)]
    assert names == ["kB_T", "R", "N_P", "H", "rho", "zeta"]
    for name in names:
        for bad in (0.0, math.nan, math.inf):
            with pytest.raises(ParameterError, match=rf"^{name} must be a positive finite"):
                PhysicalParams(**{name: bad})


def test_beta_and_friction_ratio():
    s = SimParams(Re=10.0, Wi=1.0, tau=10.0, alpha=10.0, kappa=0.0)
    assert s.beta == -5.0
    assert s.friction_ratio == pytest.approx(10.0, rel=1e-15)
    s2 = SimParams(Re=10.0, Wi=1.0, tau=10.0, alpha=10.0, kappa=1.0)
    assert s2.beta == -3.0


@settings(max_examples=50, deadline=None)
@given(re=st.floats(min_value=1.0, max_value=1e6))
def test_friction_ratio_invariance_property(re):
    # a sweep point scales tau with Re, so alpha and alpha*Re*Wi/tau hold
    base = SimParams(Re=250.0, Wi=1.0, tau=100.0, alpha=1.0, kappa=0.2)
    scaled = _point_params(base, re)
    assert scaled.friction_ratio == pytest.approx(base.friction_ratio, rel=1e-12)
    assert (scaled.alpha, scaled.Wi, scaled.kappa) == (base.alpha, base.Wi, base.kappa)
    assert scaled.Re == re
