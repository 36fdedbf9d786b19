"""The dimensionless groups of the wall-law problem and the micro inputs."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields


class ParameterError(ValueError):
    """Invalid or inconsistent physical / dimensionless parameters."""


@dataclass(frozen=True)
class PhysicalParams:
    """Micro inputs of the dumbbell model.

    Thermal energy ``kB_T``, spring length ``R``, polymer number density
    ``N_P``, spring constant ``H``, solvent density ``rho`` and bead drag
    ``zeta``.  The defaults have unit bead drag, so the spring relaxes in
    exactly one time unit.  Every value must be positive and finite.
    """

    kB_T: float = 1.0
    R: float = 1.0
    N_P: float = 1.0
    H: float = 0.25
    rho: float = 1.0
    zeta: float = 1.0

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
                raise ParameterError(f"{f.name} must be a positive finite number, got {v!r}")

    @property
    def relaxation_time(self) -> float:
        """Dumbbell relaxation time zeta*R^2 / (4*H*kB_T)."""
        return self.zeta * self.R**2 / (4.0 * self.H * self.kB_T)


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
