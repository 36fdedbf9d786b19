"""Finite-volume Fokker-Planck solver on the truncated half plane.

The configuration density f(m_t, m_n, t) of the grafted dumbbell obeys

    df/dt = div( D grad f + D f grad U - a f ),    a = (u_slip/R) m_n e_t

with a no-flux wall at m_n = 0 and no-flux truncation where U is large.
Edge fluxes use exponential fitting (Scharfetter-Gummel weights driven by
potential differences plus the shear Peclet number), which is positivity
preserving under the explicit stability bound and makes the discrete
steady state at u_slip = 0 exactly the Gibbs cell density.

A step is one conservative flux kernel on the flat density: the edge flux
a f_lo - b f_hi (a, b: Bernoulli weights times dt D / h^2, built once; a
callable slip rebuilds the x ones) leaves the lower cell for the upper one,
n_n cells on across an x edge and one across a y edge.  At 120x60 cells a
step is ~30 us (2 cores, 1 BLAS thread): four products and two differences
into preallocated buffers, then four in-place adds.  A callable slip's
step, with its x weights rebuilt, is ~75 us.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .micro import SpringPotential
from .params import PhysicalParams


# fraction of the explicit positivity bound 1 / (largest outflow rate) that a
# step may take: the solve accepts any dt up to stable_dt at this safety, and
# takes half of it by default
POSITIVITY_SAFETY = 0.9


class FPError(RuntimeError):
    """Stability violation or invalid Fokker-Planck configuration."""


@dataclass(frozen=True)
class FPGrid:
    """Uniform cells on [-extent_t, extent_t] x [0, extent_n]."""

    extent_t: float
    extent_n: float
    n_t: int
    n_n: int

    def __post_init__(self):
        for name in ("extent_t", "extent_n"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise FPError(f"{name} must be positive and finite, got {v!r}")
        if self.n_t < 4 or self.n_n < 4:
            raise FPError("need at least 4 cells per direction")

    @classmethod
    def for_potential(
        cls, potential: SpringPotential, cutoff: float = 30.0, h: float = 0.12
    ) -> "FPGrid":
        """Box sized so the neglected tail has U >= cutoff."""
        potential.require_restoring("a Fokker-Planck box")
        r = potential.R * (cutoff / potential.H) ** 0.5
        return cls(
            extent_t=r,
            extent_n=r,
            n_t=max(4, int(math.ceil(2.0 * r / h))),
            n_n=max(4, int(math.ceil(r / h))),
        )

    @property
    def h_t(self) -> float:
        return 2.0 * self.extent_t / self.n_t

    @property
    def h_n(self) -> float:
        return self.extent_n / self.n_n

    @property
    def cell_area(self) -> float:
        return self.h_t * self.h_n

    def centers(self) -> tuple[np.ndarray, np.ndarray]:
        xc = -self.extent_t + self.h_t * (np.arange(self.n_t) + 0.5)
        yc = self.h_n * (np.arange(self.n_n) + 0.5)
        return xc, yc

    def center_points(self) -> np.ndarray:
        xc, yc = self.centers()
        X, Y = np.meshgrid(xc, yc, indexing="ij")
        return np.stack([X, Y], axis=-1)


def _bernoulli(x: np.ndarray) -> np.ndarray:
    """B(x) = x / (e^x - 1), with B(0) = 1.

    Past overflow of e^x it reads 0 for large x and |x| for large -x.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        out = x / np.expm1(x)
    out[x == 0.0] = 1.0
    return out


def gibbs_density(fpgrid: FPGrid, potential: SpringPotential, mass: float = 1.0) -> np.ndarray:
    """Cell-center Gibbs density normalized to the given mass."""
    w = np.exp(-potential.energy(fpgrid.center_points()))
    return w * (mass / (w.sum() * fpgrid.cell_area))


def density_mass(fpgrid: FPGrid, density: np.ndarray) -> float:
    return float(density.sum() * fpgrid.cell_area)


@dataclass
class FPResult:
    grid: FPGrid
    density: np.ndarray
    t: float
    mass_initial: float
    mass_final: float
    dt: float
    steps: int


def stable_dt(
    fpgrid: FPGrid,
    potential: SpringPotential,
    phys: PhysicalParams,
    u_max: float = 0.0,
    safety: float = 0.45,
) -> float:
    """Largest positivity-preserving explicit step (with a safety margin)."""
    rate = _outflow_rates(fpgrid, potential, phys, abs(u_max))
    rate = np.maximum(rate, _outflow_rates(fpgrid, potential, phys, -abs(u_max)))
    return safety / float(rate.max())


def _edge_exponents(fpgrid, potential, phys, u_slip):
    U = potential.energy(fpgrid.center_points())
    _, yc = fpgrid.centers()
    D = phys.kB_T / phys.zeta
    s_x = (u_slip / potential.R) * yc[None, :] * fpgrid.h_t / D - (U[1:, :] - U[:-1, :])
    s_y = -(U[:, 1:] - U[:, :-1])
    return s_x, s_y


def _outflow_rates(fpgrid, potential, phys, u_slip):
    s_x, s_y = _edge_exponents(fpgrid, potential, phys, u_slip)
    D = phys.kB_T / phys.zeta
    rx = D / fpgrid.h_t**2
    ry = D / fpgrid.h_n**2
    rate = np.zeros((fpgrid.n_t, fpgrid.n_n))
    rate[:-1, :] += rx * _bernoulli(-s_x)
    rate[1:, :] += rx * _bernoulli(s_x)
    rate[:, :-1] += ry * _bernoulli(-s_y)
    rate[:, 1:] += ry * _bernoulli(s_y)
    return rate


def fokker_planck_solve(
    fpgrid: FPGrid,
    potential: SpringPotential,
    phys: PhysicalParams,
    t_end: float,
    u_slip=0.0,
    dt: float | None = None,
    f0: np.ndarray | None = None,
) -> FPResult:
    """Explicit finite-volume integration to t_end.

    ``dt`` defaults to half the positivity bound, bitwise ``stable_dt`` at
    its default safety; any dt up to ``stable_dt`` at ``POSITIVITY_SAFETY``
    is accepted.  The steps are then evened out to t_end.
    ``u_slip`` may be a constant or a callable of time.  A callable's dt
    comes from 64 samples of it; FPError is raised if the slip at a step
    time makes that dt unstable.  The result holds the density at t_end,
    and a later start is a further solve from ``f0=result.density``.
    """
    if not 0.0 <= t_end < math.inf:
        raise FPError(f"t_end={t_end} must be finite and nonnegative")
    slip = u_slip if callable(u_slip) else (lambda t, _c=float(u_slip): _c)
    u_bound = max(abs(slip(s)) for s in np.linspace(0.0, max(t_end, 1e-12), 64))
    dt_max = stable_dt(fpgrid, potential, phys, u_max=u_bound, safety=POSITIVITY_SAFETY)
    if dt is None:
        dt = 0.5 * dt_max  # bitwise stable_dt at its default safety 0.45
    elif not 0.0 < dt <= dt_max:
        raise FPError(
            f"dt={dt} must be positive and within the drift-diffusion stability bound {dt_max:.3e}"
        )
    n_t, n_n = fpgrid.n_t, fpgrid.n_n
    if f0 is None:
        f = np.full((n_t, n_n), 1.0 / (4.0 * fpgrid.extent_t * fpgrid.extent_n))
    else:
        f = np.array(f0, dtype=float, order="C")
        if f.shape != (n_t, n_n):
            raise FPError(f"f0 shape {f.shape} != {(n_t, n_n)}")
        if not (np.isfinite(f).all() and f.min() >= 0):
            raise FPError(f"f0 must be finite and nonnegative; it spans [{f.min()}, {f.max()}]")
    mass0 = density_mass(fpgrid, f)

    n_steps = max(1, int(math.ceil(t_end / dt - 1e-12))) if t_end > 0 else 0
    if n_steps:
        dt = t_end / n_steps
    # the bound above rests on 64 samples of a callable slip; check the slip
    # every step applies, at the loop's own times
    step_slip, t = [], 0.0
    for _ in range(n_steps if callable(u_slip) else 0):
        step_slip.append((t, slip(t)))
        t += dt
    if step_slip:
        t_peak, u_peak = max(step_slip, key=lambda p: abs(p[1]))
        if dt > stable_dt(fpgrid, potential, phys, u_max=u_peak, safety=POSITIVITY_SAFETY):
            raise FPError(
                f"dt={dt:.3e} violates the drift-diffusion stability bound at "
                f"t={t_peak:.6g}, where the slip is {u_peak:.6g}"
            )

    # the kernel of the module docstring; the "y edge" from the end of one
    # row to the start of the next gets zero weights
    D = phys.kB_T / phys.zeta
    s0_x, s_y = _edge_exponents(fpgrid, potential, phys, 0.0)
    gain = fpgrid.centers()[1] * fpgrid.h_t / (D * potential.R)
    cx, cy = dt * D / fpgrid.h_t**2, dt * D / fpgrid.h_n**2
    ay, by = (np.pad(cy * _bernoulli(sg * s_y), ((0, 0), (0, 1))).ravel()[:-1] for sg in (-1, 1))

    def x_weights(u):
        s_x = u * gain + s0_x
        b = _bernoulli(-s_x)
        return cx * b, cx * (b - s_x)

    ax, bx = x_weights(slip(0.0))
    flat = f.reshape(-1)
    lo_x, hi_x, lo_y, hi_y = f[:-1], f[1:], flat[:-1], flat[1:]
    gx, tx = np.empty((2, n_t - 1, n_n))
    gy, ty = np.empty((2, flat.size - 1))
    t = 0.0
    for i in range(n_steps):
        if step_slip:
            ax, bx = x_weights(step_slip[i][1])
        np.subtract(np.multiply(ax, lo_x, out=gx), np.multiply(bx, hi_x, out=tx), out=gx)
        np.subtract(np.multiply(ay, lo_y, out=gy), np.multiply(by, hi_y, out=ty), out=gy)
        hi_x += gx
        lo_x -= gx
        hi_y += gy
        lo_y -= gy
        t += dt

    return FPResult(grid=fpgrid, density=f, t=t, mass_initial=mass0,
                    mass_final=density_mass(fpgrid, f), dt=dt, steps=n_steps)
