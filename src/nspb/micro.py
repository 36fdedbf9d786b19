"""Wall-grafted dumbbell ensemble and its stress moments.

A member is the end-to-end vector m = (m_t, m_n) of one grafted chain,
with m_n >= 0 the offset away from the wall into the fluid.  The free end
obeys an overdamped Langevin equation: shear drift (u_slip/R) m_n along
the tangent, spring force -(kB_T/zeta) grad U, noise of strength
2 kB_T/zeta per component, and mirror reflection at the wall plane.
Potentials are dimensionless (energy in units of kB_T), so the stationary
density is proportional to exp(-U).

Typical use::

    phys = PhysicalParams()  # unit bead drag: relaxation time 1
    pot = SpringPotential.hookean(H=phys.H, R=phys.R)
    ens = equilibrium_ensemble(100_000, pot, seed=7)
    mem = memory_closure_equilibrium(phys)
    for _ in range(10):  # compare every 5 steps
        slips = [1.0] * 5  # slips[j] is held over step j
        ens = hookean_exact_walk(ens, 0.1, pot, phys, slips)
        for u in slips:
            mem = memory_closure_step(mem, u, phys, 0.1)
        mom = kramers_stress(ens, pot, phys)  # mom.sigma_tn tracks mem.sigma_tn

The spring is Hookean, U = H |m|^2 / R^2: it is the one spring whose stress
closes to the relaxation law of the wall-tangential stress.  It has the
exact-in-law walk ``hookean_exact_walk`` (``hookean_exact_step`` is one step
of it) and the exact shear-stress memory ``memory_closure_step``; the
Euler-Maruyama ``sde_step`` is kept as the first-order reference the exact
step is tested against.

All randomness is counter-based (Philox keyed by seed and step), so
trajectories are bitwise reproducible for a given seed.
"""

from __future__ import annotations

import csv
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .params import ParameterError, PhysicalParams
from .wallbc import exp_weights


@dataclass(frozen=True)
class SpringPotential:
    """Hookean spring U(m) = H |m|^2 / R^2 in kB_T units."""

    H: float
    R: float = 1.0

    def __post_init__(self):
        if self.H < 0 or not math.isfinite(self.H):
            raise ParameterError(f"H must be nonnegative, got {self.H!r}")
        if not (math.isfinite(self.R) and self.R > 0):
            raise ParameterError(f"R must be positive and finite, got {self.R!r}")

    @classmethod
    def hookean(cls, H: float, R: float = 1.0) -> "SpringPotential":
        return cls(H=H, R=R)

    def require_restoring(self, what: str) -> None:
        """Reject the free spring (H = 0), which has no equilibrium density."""
        if self.H == 0:
            raise ParameterError(f"{what} needs a restoring spring, got H = 0")

    def energy(self, m: np.ndarray) -> np.ndarray:
        r2 = np.sum(np.square(m), axis=-1)
        return self.H * (r2 / self.R**2)

    def grad(self, m: np.ndarray) -> np.ndarray:
        """grad U at m, as a fresh array the caller may overwrite; a column of
        the members gives that component of grad U."""
        return (2.0 * self.H / self.R**2) * m


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
_STREAMS_PER_LABEL = 65536  # a key is (seed, label * 65536), the layout every stored output used


_WALK_BLOCK = 16384  # rows per block of hookean_exact_walk: the block's buffers stay in cache


def _philox(seed: int, label: int) -> np.random.Generator:
    key = [np.uint64(seed), np.uint64(label) * np.uint64(_STREAMS_PER_LABEL)]
    return np.random.Generator(np.random.Philox(key=key))


def _philox_normals(seed: int, label: int, shape) -> np.ndarray:
    return _philox(seed, label).standard_normal(shape)


def equilibrium_ensemble(n: int, potential: SpringPotential, seed: int) -> PolymerEnsemble:
    """Sample n members from the Gibbs density exp(-U) on the half plane."""
    potential.require_restoring("the equilibrium ensemble")
    sd = potential.R / math.sqrt(2.0 * potential.H)
    m = _philox_normals(seed, _EQ_LABEL, (n, 2))
    m *= sd
    m[:, 1] = np.abs(m[:, 1])
    return PolymerEnsemble(members=m, seed=seed, step_count=0, t=0.0)


def sde_step(
    ens: PolymerEnsemble,
    dt: float,
    potential: SpringPotential,
    phys: PhysicalParams,
    u_slip: float = 0.0,
    noise: bool = True,
) -> PolymerEnsemble:
    """One Euler-Maruyama step with mirror reflection at the wall plane.

    Members crossing m_n < 0 are reflected by a sign flip of the normal
    coordinate.  The ``noise=False`` hook freezes the Brownian term for
    deterministic drift tests.  No driver steps with it: it is the
    first-order reference that ``hookean_exact_step`` is tested against,
    and it draws the same normals.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    D = phys.kB_T / phys.zeta
    scale = math.sqrt(2.0 * D * dt) if noise else 0.0
    m = ens.members
    z = _philox_normals(ens.seed, ens.step_count, m.shape) if noise else np.zeros_like(m)
    # m + dt * drift + scale * z, evaluated in place in the same order (so
    # bitwise equal) in the fresh gradient; z is overwritten
    new = potential.grad(m)
    new *= -D
    new[:, 0] += (u_slip / potential.R) * m[:, 1]
    new *= dt
    new += m
    z *= scale
    new += z
    np.abs(new[:, 1], out=new[:, 1])  # mirror reflection
    return PolymerEnsemble(
        members=new, seed=ens.seed, step_count=ens.step_count + 1, t=ens.t + dt
    )


def hookean_exact_walk(
    ens: PolymerEnsemble,
    dt: float,
    potential: SpringPotential,
    phys: PhysicalParams,
    slips: Sequence[float],
) -> PolymerEnsemble:
    """``len(slips)`` exact-in-law steps of the reflected Hookean dumbbell.

    ``slips[j]`` is held over step j.  m_n is the modulus of an
    Ornstein-Uhlenbeck process that the slip does not reach, so for any dt it
    has the exact transition (Gillespie, Phys. Rev. E 54, 2084, 1996)

        m_n' = |E m_n + s z_n|,  E = exp(-dt/(2 lambda)),  s^2 = 2 lambda D (1 - E^2)

    with D = kB_T/zeta.  Given the path of m_n, m_t is Gaussian:

        m_t' = E m_t + (u_slip/R)(w0 m_n + w1 m_n') + s z_t

    where (E, w0, w1) are the exponential-trapezoid weights of
    ``wallbc.exp_weights``.  The trapezoid is the only time-step bias, and
    only sigma_tn sees it.  Each step's normals come from the same Philox
    stream as ``sde_step`` (seed, step_count), so the Euler-Maruyama step is
    its first-order reference.

    The members are copied once and each step walks them in row blocks of
    ``_WALK_BLOCK``, drawing the block's normals into one buffer as the next
    part of the step's stream, so no step allocates.  The arithmetic is the
    one-step formula's, operation for operation, so the result does not
    depend on the blocking; the input is not modified.  A non-finite slip is
    a ``ValueError`` naming its step as the ensemble counts it
    (``ens.step_count + j``), raised before any step is taken.
    """
    potential.require_restoring("the exact step")
    if not dt > 0:
        raise ValueError("dt must be positive")
    for j, u in enumerate(slips, start=ens.step_count):
        if not math.isfinite(u):
            raise ValueError(f"slip of step {j} must be finite, got {u!r}")
    D = phys.kB_T / phys.zeta
    two_lam = potential.R**2 / (2.0 * potential.H * D)  # 2 lambda, the OU time
    E, w0, w1 = exp_weights(dt, two_lam)
    s = math.sqrt(two_lam * D * (1.0 - E * E))
    m = ens.members.copy()
    n = m.shape[0]
    z = np.empty((min(n, _WALK_BLOCK), 2))
    shear = np.empty(z.shape[0])
    step, t = ens.step_count, ens.t
    for u in slips:
        normals = _philox(ens.seed, step)
        drive = u / potential.R
        for lo in range(0, n, _WALK_BLOCK):
            mb = m[lo : lo + _WALK_BLOCK]
            zb, sb = z[: mb.shape[0]], shear[: mb.shape[0]]
            normals.standard_normal(out=zb)
            np.multiply(mb[:, 1], w0, out=sb)  # w0 m_n, before m_n is overwritten
            zb *= s
            mb *= E
            mb += zb
            np.abs(mb[:, 1], out=mb[:, 1])  # m_n' from the OU transition
            np.multiply(mb[:, 1], w1, out=zb[:, 1])  # the spent normals hold w1 m_n'
            sb += zb[:, 1]
            sb *= drive
            mb[:, 0] += sb
        step += 1
        t += dt
    return PolymerEnsemble(members=m, seed=ens.seed, step_count=step, t=t)


def hookean_exact_step(
    ens: PolymerEnsemble,
    dt: float,
    potential: SpringPotential,
    phys: PhysicalParams,
    u_slip: float = 0.0,
) -> PolymerEnsemble:
    """One exact-in-law step: ``hookean_exact_walk`` with the one slip ``u_slip``."""
    return hookean_exact_walk(ens, dt, potential, phys, (u_slip,))


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
    m = ens.members
    g_n = potential.grad(m[:, 1])  # grad U enters only through its normal column
    prod_tn = m[:, 0] * g_n
    prod_nn = np.multiply(m[:, 1], g_n, out=g_n)  # g_n is spent
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
) -> StressMoments:
    """Advance the closed moment system by its exact exponential solution.

    d(sigma_nn)/dt = -(sigma_nn - sigma_nn_eq)/lambda
    d(sigma_tn)/dt = (u_slip/R) sigma_nn - sigma_tn/lambda

    with lambda = R^2 zeta/(4 H kB_T); u_slip is held over the step.  The
    closed form drops the wall flux of the reflected ensemble, which
    ``memory_closure_step`` keeps.
    """
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


def _memory_modes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Weights c_k and rates 2k+1 (in units of 1/(2 lambda)) of the shear kernel.

    C(rho) = (2/pi)(sqrt(1 - rho^2) + rho arcsin rho) = (2/pi) sum_k c_k rho^2k
    with c_0 = 1 and c_k = q_{k-1}/(2k(2k-1)), q_k = binom(2k, k)/4^k.  Modes
    0..n-1 are kept; one lumped tail mode carries the remaining weight
    pi/2 - sum c_k (so C(1) = 1 holds) at the rate that also keeps the steady
    integral sum c_k/(2k+1) = 3 pi/8 exact.
    """
    k = np.arange(1, n)
    q = np.cumprod(np.concatenate(([1.0], (2 * k - 1) / (2 * k))))  # q_0..q_{n-1}
    c = np.concatenate(([1.0], q[:-1] / (2 * k * (2 * k - 1))))
    rates = 2.0 * np.arange(n) + 1.0
    tail_weight = math.pi / 2 - c.sum()
    tail_integral = 3 * math.pi / 8 - np.sum(c / rates)
    weights = np.append(c, tail_weight) * (2.0 / math.pi)
    return weights, np.append(rates, tail_weight / tail_integral)


_MEMORY_WEIGHTS, _MEMORY_RATES = _memory_modes(32)


@dataclass(frozen=True)
class MemoryClosureState:
    """Slip history of the exact shear kernel, one discounted integral per mode.

    ``history[k]`` is integral_0^t exp(-r_k s) u(t - s) ds for the k-th rate of
    ``_memory_modes``; sigma_nn stays at its equilibrium value.
    """

    history: np.ndarray
    sigma_tn: float
    sigma_nn: float


def memory_closure_equilibrium(phys: PhysicalParams) -> MemoryClosureState:
    """The memory closure at rest: no slip history, equilibrium stresses."""
    eq = closure_equilibrium(phys)
    return MemoryClosureState(
        history=np.zeros_like(_MEMORY_RATES), sigma_tn=eq.sigma_tn, sigma_nn=eq.sigma_nn
    )


def memory_closure_step(
    state: MemoryClosureState, u_slip: float, phys: PhysicalParams, dt: float
) -> MemoryClosureState:
    """Advance the exact shear-stress memory of the reflected Hookean dumbbell.

    Started from equilibrium, m_n is a stationary reflected OU process that
    the slip does not reach and m_t is linear in the slip history, so

        sigma_tn(t) = (sigma_eq/R) integral_0^t exp(-s/(2 lambda)) C(s) u(t - s) ds

    with C = (2/pi)(sqrt(1 - rho^2) + rho arcsin rho), rho = exp(-s/(2 lambda)),
    by the bivariate-normal identity for E|X||Y|.  The kernel is a positive sum
    of Maxwell modes with rates (2k+1)/(2 lambda); each mode takes the exact
    update for a slip held over the step, as ``closure_ode_step`` does.
    """
    if dt < 0:
        raise ValueError("dt must be nonnegative")
    lam = phys.relaxation_time
    eq = phys.kB_T * phys.N_P / phys.rho
    rates = _MEMORY_RATES / (2.0 * lam)
    em = -np.expm1(-rates * dt)  # 1 - E per mode
    history = (1.0 - em) * state.history + u_slip * em / rates
    tn = (eq / phys.R) * float(_MEMORY_WEIGHTS @ history)
    return MemoryClosureState(history=history, sigma_tn=tn, sigma_nn=state.sigma_nn)


def ensemble_to_csv(ens: PolymerEnsemble, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["member_id", "m_tangential", "m_normal"])
        for i, (mt, mn) in enumerate(ens.members):
            w.writerow([i, repr(float(mt)), repr(float(mn))])
