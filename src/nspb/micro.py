"""Wall-grafted dumbbell ensemble and its stress moments.

A member is the end-to-end vector m = (m_t, m_n) of one grafted chain,
with m_n >= 0 the offset away from the wall into the fluid.  The free end
obeys an overdamped Langevin equation: shear drift (u_slip/R) m_n along
the tangent, spring force -(kB_T/zeta) grad U, noise of strength
2 kB_T/zeta per component, and mirror reflection at the wall plane.
Potentials are dimensionless (energy in units of kB_T), so the stationary
density is proportional to exp(-U).

Typical use::

    pot = SpringPotential.hookean(H=0.25)
    ens = equilibrium_ensemble(100_000, pot, seed=7)
    for k in range(5000):
        ens = sde_step(ens, 1e-3, pot, phys, u_slip=1.0)
    mom = kramers_stress(ens, pot, phys)

All randomness is counter-based (Philox keyed by seed, step and retry
index), so trajectories are bitwise reproducible for a given seed.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .params import ParameterError, PhysicalParams


class ClosureError(ValueError):
    """The requested closure is only defined for the Hookean k=1 spring."""


@dataclass(frozen=True)
class SpringPotential:
    """Radial spring potential U(|m|) in kB_T units."""

    kind: str
    H: float
    R: float = 1.0
    k_exponent: int = 1

    def __post_init__(self):
        if self.kind not in ("hookean", "fene"):
            raise ParameterError(f"unknown spring kind {self.kind!r}")
        if self.H < 0 or not math.isfinite(self.H):
            raise ParameterError(f"H must be nonnegative, got {self.H!r}")
        if self.R <= 0:
            raise ParameterError(f"R must be positive, got {self.R!r}")
        if self.kind == "hookean" and self.k_exponent < 1:
            raise ParameterError(f"k_exponent must be >= 1, got {self.k_exponent}")

    @classmethod
    def hookean(cls, H: float, R: float = 1.0, k: int = 1) -> "SpringPotential":
        return cls(kind="hookean", H=H, R=R, k_exponent=k)

    @classmethod
    def fene(cls, H: float, R: float = 1.0) -> "SpringPotential":
        return cls(kind="fene", H=H, R=R)

    @property
    def finite_extent(self) -> bool:
        return self.kind == "fene"

    def energy(self, m: np.ndarray) -> np.ndarray:
        r2 = np.sum(np.square(m), axis=-1)
        if self.kind == "hookean":
            return self.H * (r2 / self.R**2) ** self.k_exponent
        x = r2 / self.R**2
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(x < 1.0, -self.H * np.log1p(-np.minimum(x, 1.0)), np.inf)

    def grad(self, m: np.ndarray) -> np.ndarray:
        if self.is_hookean_linear():
            return (2.0 * self.H / self.R**2) * m
        r2 = np.sum(np.square(m), axis=-1, keepdims=True)
        if self.kind == "hookean":
            k = self.k_exponent
            return (2.0 * k * self.H / self.R ** (2 * k)) * r2 ** (k - 1) * m
        return (2.0 * self.H / self.R**2) * m / np.maximum(1.0 - r2 / self.R**2, 1e-300)

    def is_hookean_linear(self) -> bool:
        return self.kind == "hookean" and self.k_exponent == 1


@dataclass(frozen=True)
class PolymerEnsemble:
    """Members (n, 2) with columns (m_tangential, m_normal), m_normal >= 0."""

    members: np.ndarray
    seed: int
    step_count: int = 0
    t: float = 0.0

    def __post_init__(self):
        m = np.asarray(self.members, dtype=float)
        if m.ndim != 2 or m.shape[1] != 2:
            raise ValueError(f"members must have shape (n, 2), got {m.shape}")
        if np.any(m[:, 1] < 0):
            raise ValueError("normal components must be nonnegative (fluid side)")
        object.__setattr__(self, "members", m)

    @property
    def n_members(self) -> int:
        return self.members.shape[0]


_EQ_LABEL = 1 << 40  # keeps equilibrium-draw streams clear of step streams


def _philox_normals(seed: int, label: int, retry: int, shape) -> np.ndarray:
    key = [np.uint64(seed), np.uint64(label) * np.uint64(65536) + np.uint64(retry)]
    return np.random.Generator(np.random.Philox(key=key)).standard_normal(shape)


def _philox_uniform(seed: int, label: int, retry: int, shape) -> np.ndarray:
    key = [np.uint64(seed), np.uint64(label) * np.uint64(65536) + np.uint64(retry)]
    return np.random.Generator(np.random.Philox(key=key)).random(shape)


def equilibrium_ensemble(
    n: int, potential: SpringPotential, seed: int, max_tries: int = 10000
) -> PolymerEnsemble:
    """Sample n members from the Gibbs density exp(-U) on the half plane."""
    if potential.is_hookean_linear() and potential.H > 0:
        sd = potential.R / math.sqrt(2.0 * potential.H)
        z = _philox_normals(seed, _EQ_LABEL, 0, (n, 2))
        m = sd * z
        m[:, 1] = np.abs(m[:, 1])
        return PolymerEnsemble(members=m, seed=seed, step_count=0, t=0.0)
    # generic rejection sampling under exp(-U) <= 1
    if potential.finite_extent:
        L = potential.R
    else:
        L = potential.R * (40.0 / max(potential.H, 1e-12)) ** (1.0 / (2 * potential.k_exponent))
    out = np.empty((n, 2))
    filled = 0
    for attempt in range(max_tries):
        todo = n - filled
        u = _philox_uniform(seed, _EQ_LABEL + 1 + attempt, 0, (todo, 3))
        cand = np.empty((todo, 2))
        cand[:, 0] = (2.0 * u[:, 0] - 1.0) * L
        cand[:, 1] = u[:, 1] * L
        keep = u[:, 2] < np.exp(-potential.energy(cand))
        k = int(keep.sum())
        out[filled : filled + k] = cand[keep]
        filled += k
        if filled == n:
            return PolymerEnsemble(members=out, seed=seed, step_count=0, t=0.0)
    raise RuntimeError("equilibrium rejection sampling failed to converge")


def sde_step(
    ens: PolymerEnsemble,
    dt: float,
    potential: SpringPotential,
    phys: PhysicalParams,
    u_slip: float = 0.0,
    noise: bool = True,
    max_retries: int = 200,
) -> PolymerEnsemble:
    """One Euler-Maruyama step with mirror reflection at the wall plane.

    Members crossing m_n < 0 are reflected by a sign flip of the normal
    coordinate.  For finite-extent springs a proposal with |m| >= R is
    retried with fresh noise (fresh counter stream per retry); the
    ``noise=False`` hook freezes the Brownian term for deterministic
    drift tests.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    D = phys.kB_T / phys.zeta
    scale = math.sqrt(2.0 * D * dt) if noise else 0.0
    m = ens.members

    def propose(points: np.ndarray, z: np.ndarray) -> np.ndarray:
        drift = -D * potential.grad(points)
        drift[:, 0] += (u_slip / potential.R) * points[:, 1]
        new = points + dt * drift + scale * z
        new[:, 1] = np.abs(new[:, 1])  # mirror reflection
        return new

    z = _philox_normals(ens.seed, ens.step_count, 0, m.shape) if noise else np.zeros_like(m)
    new = propose(m, z)

    if potential.finite_extent:
        bad = np.sum(np.square(new), axis=1) >= potential.R**2
        retry = 0
        while np.any(bad):
            retry += 1
            if retry > max_retries:
                raise RuntimeError(
                    f"{int(bad.sum())} members failed the finite-extent retry cap; "
                    "the explicit drift overshoots near full extension, reduce dt"
                )
            if not noise:
                raise RuntimeError("drift-only step left the finite-extent domain")
            zr = _philox_normals(ens.seed, ens.step_count, retry, m.shape)
            idx = np.nonzero(bad)[0]
            new[idx] = propose(m[idx], zr[idx])
            bad[idx] = np.sum(np.square(new[idx]), axis=1) >= potential.R**2

    return PolymerEnsemble(
        members=new, seed=ens.seed, step_count=ens.step_count + 1, t=ens.t + dt
    )


@dataclass(frozen=True)
class StressMoments:
    """Polymer stress components in the wall frame.

    sigma_tn contracts the tangent with the into-fluid direction; sigma_nn
    is the wall-normal normal stress.  Monte Carlo estimates carry
    standard errors; closure trajectories leave them None.
    """

    sigma_tn: float
    sigma_nn: float
    se_tn: float | None = None
    se_nn: float | None = None
    n_members: int | None = None


def kramers_stress(
    ens: PolymerEnsemble, potential: SpringPotential, phys: PhysicalParams
) -> StressMoments:
    """Ensemble Kramers moments (kB_T N_P / rho) <m (x) grad U>."""
    pref = phys.kB_T * phys.N_P / phys.rho
    g = potential.grad(ens.members)
    prod_tn = ens.members[:, 0] * g[:, 1]
    prod_nn = ens.members[:, 1] * g[:, 1]
    n = ens.n_members
    se = lambda a: float(np.std(a, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return StressMoments(
        sigma_tn=pref * float(np.mean(prod_tn)),
        sigma_nn=pref * float(np.mean(prod_nn)),
        se_tn=pref * se(prod_tn),
        se_nn=pref * se(prod_nn),
        n_members=n,
    )


def closure_equilibrium(phys: PhysicalParams) -> StressMoments:
    """Fixed point of the closure: sigma_tn = 0, sigma_nn = kB_T N_P/rho."""
    return StressMoments(sigma_tn=0.0, sigma_nn=phys.kB_T * phys.N_P / phys.rho)


def closure_ode_step(
    moments: StressMoments,
    u_slip: float,
    phys: PhysicalParams,
    dt: float,
    potential: SpringPotential | None = None,
) -> StressMoments:
    """Advance the closed moment system by its exact exponential solution.

    d(sigma_nn)/dt = -(sigma_nn - sigma_nn_eq)/lambda
    d(sigma_tn)/dt = (u_slip/R) sigma_nn - sigma_tn/lambda

    with lambda = R^2 zeta/(4 H kB_T); u_slip is held over the step.  Only
    the Hookean k=1 spring closes this way.
    """
    if potential is not None and not potential.is_hookean_linear():
        raise ClosureError(
            f"moment closure requires the Hookean k=1 spring, got {potential.kind} "
            f"k={getattr(potential, 'k_exponent', None)}"
        )
    if dt < 0:
        raise ValueError("dt must be nonnegative")
    lam = phys.relaxation_time
    R = phys.R
    eq = phys.kB_T * phys.N_P / phys.rho
    E = math.exp(-dt / lam)
    delta = moments.sigma_nn - eq
    nn = eq + delta * E
    # exact integral of exp(-(dt-s)/lam) * (eq + delta exp(-s/lam))
    tn = E * moments.sigma_tn + (u_slip / R) * (eq * lam * (1.0 - E) + delta * dt * E)
    return StressMoments(sigma_tn=tn, sigma_nn=nn)


def ensemble_to_csv(ens: PolymerEnsemble, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["member_id", "m_tangential", "m_normal"])
        for i, (mt, mn) in enumerate(ens.members):
            w.writerow([i, repr(float(mt)), repr(float(mn))])
