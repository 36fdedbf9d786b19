"""Dimensional inputs and the dimensionless groups derived from them."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace, fields


class ParameterError(ValueError):
    """Invalid or inconsistent physical / dimensionless parameters."""


def stokes_einstein_zeta(rho: float, nu: float, a: float) -> float:
    """Bead drag from solvent density, kinematic viscosity and bead radius."""
    return 6.0 * math.pi * rho * nu * a


@dataclass(frozen=True)
class PhysicalParams:
    """Dimensional micro/macro inputs.

    ``zeta=None`` derives the drag from ``6*pi*rho*nu*a`` when
    ``stokes_einstein_enforced`` is set; an explicit ``zeta`` is validated
    against that relation instead.  All quantities must be positive.
    """

    nu: float = 1.0
    kB_T: float = 1.0
    R: float = 1.0
    N_P: float = 1.0
    H: float = 0.25
    rho: float = 1.0
    a: float = 1.0
    V: float = 1.0
    L: float = 1.0
    zeta: float | None = None
    stokes_einstein_enforced: bool = True

    def __post_init__(self):
        for f in fields(self):
            if f.name in ("zeta", "stokes_einstein_enforced"):
                continue
            v = getattr(self, f.name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
                raise ParameterError(f"{f.name} must be a positive finite number, got {v!r}")
        se = stokes_einstein_zeta(self.rho, self.nu, self.a)
        if self.zeta is None:
            if self.stokes_einstein_enforced:
                object.__setattr__(self, "zeta", se)
            else:
                object.__setattr__(self, "zeta", 1.0)
        else:
            if not (math.isfinite(self.zeta) and self.zeta > 0):
                raise ParameterError(f"zeta must be positive and finite, got {self.zeta!r}")
            if self.stokes_einstein_enforced and abs(self.zeta - se) > 1e-12 * se:
                raise ParameterError(
                    f"zeta={self.zeta} violates the Stokes-Einstein relation "
                    f"6*pi*rho*nu*a={se} (disable stokes_einstein_enforced to override)"
                )

    @property
    def relaxation_time(self) -> float:
        """Dumbbell relaxation time zeta*R^2 / (4*H*kB_T)."""
        return self.zeta * self.R**2 / (4.0 * self.H * self.kB_T)

    @property
    def polymer_viscosity(self) -> float:
        """kB_T * N_P * lambda / rho, the polymer contribution to viscosity."""
        return self.kB_T * self.N_P * self.relaxation_time / self.rho

    def with_(self, **kw) -> "PhysicalParams":
        return replace(self, **kw)


@dataclass(frozen=True)
class SimParams:
    """Dimensionless groups of the macroscopic wall-law problem."""

    Re: float
    Wi: float = 1.0
    tau: float = 1.0
    alpha: float = 10.0
    kappa: float = 0.0

    def __post_init__(self):
        for name in ("Re", "Wi", "tau", "alpha"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise ParameterError(f"{name} must be positive and finite, got {v!r}")
        if not (math.isfinite(self.kappa) and self.kappa >= 0):
            raise ParameterError(f"kappa must be nonnegative and finite, got {self.kappa!r}")
        # alpha > 4*kappa keeps the wall energy form positive definite
        if not self.alpha > 4.0 * self.kappa:
            raise ParameterError(
                f"need alpha > 4*kappa for a dissipative wall law, "
                f"got alpha={self.alpha}, kappa={self.kappa}"
            )

    @property
    def beta(self) -> float:
        """Slip coefficient in the wall-vorticity identity, 2*kappa - alpha/2."""
        return 2.0 * self.kappa - self.alpha / 2.0

    @property
    def friction_ratio(self) -> float:
        """alpha*Re*Wi/tau, the steady boundary friction strength."""
        return self.alpha * self.Re * self.Wi / self.tau


def derive_sim_params(p: PhysicalParams) -> SimParams:
    """Map dimensional inputs to the dimensionless groups.

    Re = V*L/nu, Wi = lambda*V/L, tau = rho*V^2/(kB_T*N_P), alpha = L/R.
    """
    lam = p.relaxation_time
    Re = p.V * p.L / p.nu
    Wi = lam * p.V / p.L
    tau = p.rho * p.V**2 / (p.kB_T * p.N_P)
    alpha = p.L / p.R
    s = SimParams(Re=Re, Wi=Wi, tau=tau, alpha=alpha, kappa=0.0)
    # consistency: alpha*Re/tau must equal (alpha/Wi)*(mu_p/mu_s)
    lhs = alpha * Re / tau
    rhs = (alpha / Wi) * (p.polymer_viscosity / p.nu)
    if abs(lhs - rhs) > 1e-12 * max(abs(lhs), abs(rhs)):
        raise ParameterError(
            f"internal inconsistency in derived groups: alpha*Re/tau={lhs} "
            f"vs (alpha/Wi)*(mu_p/mu_s)={rhs}"
        )
    return s

