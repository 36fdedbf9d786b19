"""Mixed Fourier/Chebyshev discretization of the periodic channel.

x is periodic on [0, lx) with an rfft half-spectrum; y uses Chebyshev
Gauss-Lobatto points running from +1 down to -1, so row 0 of a physical
array is the top wall and row -1 the bottom wall.  Spectral arrays hold
Chebyshev coefficients along axis 0 and rfft modes along axis 1, with the
rfft normalized by 1/nx (a pure cos(k x) field has coefficient 1/2 at k).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.fft


class GridError(ValueError):
    """Invalid grid size or a field/grid mismatch."""


def _clencurt_weights(n_nodes: int) -> np.ndarray:
    """Clenshaw-Curtis quadrature weights on n_nodes Gauss-Lobatto points."""
    N = n_nodes - 1
    theta = np.pi * np.arange(N + 1) / N
    w = np.zeros(N + 1)
    ii = np.arange(1, N)
    v = np.ones(N - 1)
    if N % 2 == 0:
        w[0] = w[N] = 1.0 / (N * N - 1)
        for k in range(1, N // 2):
            v -= 2.0 * np.cos(2.0 * k * theta[ii]) / (4.0 * k * k - 1)
        v -= np.cos(N * theta[ii]) / (N * N - 1)
    else:
        w[0] = w[N] = 1.0 / (N * N)
        for k in range(1, (N - 1) // 2 + 1):
            v -= 2.0 * np.cos(2.0 * k * theta[ii]) / (4.0 * k * k - 1)
    w[ii] = 2.0 * v / N
    return w


def cheb_forward(values: np.ndarray) -> np.ndarray:
    """Gauss-Lobatto samples (axis 0) to Chebyshev coefficients."""
    N = values.shape[0] - 1
    a = scipy.fft.dct(values, type=1, axis=0) / N
    a[0] *= 0.5
    a[N] *= 0.5
    return a


def cheb_inverse(coeffs: np.ndarray) -> np.ndarray:
    """Chebyshev coefficients (axis 0) back to Gauss-Lobatto samples."""
    b = coeffs.copy()
    b[1:-1] *= 0.5
    return scipy.fft.dct(b, type=1, axis=0)


def cheb_derivative_coeffs(a: np.ndarray) -> np.ndarray:
    """d/dy in Chebyshev coefficient space (axis 0), standard recurrence."""
    N = a.shape[0] - 1
    b = np.zeros_like(a)
    if N == 0:
        return b
    b[N - 1] = 2.0 * N * a[N]
    for k in range(N - 1, 0, -1):
        b[k - 1] = b[k + 1] + 2.0 * k * a[k]
    b[0] *= 0.5
    return b


@lru_cache(maxsize=None)
def cheb_diff_matrices(ny: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (D, D @ D): d/dy and d2/dy2 on ny Chebyshev coefficients.

    Every y-derivative of the package is ``D @ coeffs``; column k of D is
    the ``cheb_derivative_coeffs`` recurrence applied to T_k.
    """
    D = cheb_derivative_coeffs(np.eye(ny))
    D2 = D @ D
    D.flags.writeable = False
    D2.flags.writeable = False
    return D, D2


@dataclass(frozen=True)
class ChannelGrid:
    """Tensor grid for the channel [0, lx) x [-1, 1]."""

    nx: int
    ny: int
    lx: float = 2.0 * math.pi

    def __post_init__(self):
        if self.nx < 8 or self.nx % 2 != 0:
            raise GridError(f"nx must be even and >= 8, got {self.nx}")
        if self.ny < 9:
            raise GridError(f"ny must be >= 9, got {self.ny}")
        if not (math.isfinite(self.lx) and self.lx > 0):
            raise GridError(f"lx must be positive, got {self.lx!r}")
        N = self.ny - 1
        y = np.cos(np.pi * np.arange(N + 1) / N)
        y[0] = 1.0
        y[-1] = -1.0
        object.__setattr__(self, "_y", y)
        object.__setattr__(self, "_x", self.lx * np.arange(self.nx) / self.nx)
        object.__setattr__(
            self, "_kx", 2.0 * math.pi / self.lx * np.arange(self.nx // 2 + 1)
        )
        object.__setattr__(self, "_wy", _clencurt_weights(self.ny))

    @property
    def x(self) -> np.ndarray:
        return self._x

    @property
    def y(self) -> np.ndarray:
        """Wall-to-wall nodes, y[0] = +1 (top) down to y[-1] = -1 (bottom)."""
        return self._y

    @property
    def kx(self) -> np.ndarray:
        return self._kx

    @property
    def nkx(self) -> int:
        return self.nx // 2 + 1

    @property
    def quad_weights_y(self) -> np.ndarray:
        return self._wy

    @property
    def dealias_kx(self) -> int:
        """Highest Fourier index kept by the 2/3 rule."""
        return self.nx // 3

    @property
    def dealias_cheb(self) -> int:
        """Highest Chebyshev degree kept when dealiasing products in y."""
        return (2 * (self.ny - 1)) // 3

    @property
    def dx(self) -> float:
        return self.lx / self.nx

    @property
    def dy_min(self) -> float:
        """Smallest wall-normal spacing (at the walls)."""
        return float(self._y[0] - self._y[1])

    def meshgrid(self) -> tuple[np.ndarray, np.ndarray]:
        return np.meshgrid(self._x, self._y)

    def fourier_dealias_mask(self) -> np.ndarray:
        return np.arange(self.nkx) <= self.dealias_kx

    def phys_to_spec(self, values: np.ndarray) -> np.ndarray:
        f = np.fft.rfft(values, axis=1) / self.nx
        return cheb_forward(f)

    def spec_to_phys(self, coeffs: np.ndarray) -> np.ndarray:
        f = cheb_inverse(coeffs)
        return np.fft.irfft(f * self.nx, n=self.nx, axis=1)

    def integrate(self, values: np.ndarray) -> float:
        """Integral over the channel by Clenshaw-Curtis x trapezoid."""
        return float(self._wy @ values.sum(axis=1)) * self.dx


class Field2D:
    """A scalar field carrying physical values, spectral coefficients, or both.

    Conversions are cached on the instance; treat fields as immutable.
    """

    __slots__ = ("grid", "_values", "_spectral")

    def __init__(self, grid: ChannelGrid, values=None, spectral=None):
        if values is None and spectral is None:
            raise GridError("Field2D needs values or spectral data")
        if values is not None:
            values = np.asarray(values, dtype=float)
            if values.shape != (grid.ny, grid.nx):
                raise GridError(
                    f"physical shape {values.shape} != (ny, nx) = {(grid.ny, grid.nx)}"
                )
        if spectral is not None:
            spectral = np.asarray(spectral, dtype=complex)
            if spectral.shape != (grid.ny, grid.nkx):
                raise GridError(
                    f"spectral shape {spectral.shape} != (ny, nkx) = {(grid.ny, grid.nkx)}"
                )
        self.grid = grid
        self._values = values
        self._spectral = spectral

    @classmethod
    def zeros(cls, grid: ChannelGrid) -> "Field2D":
        return cls(grid, values=np.zeros((grid.ny, grid.nx)))

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            self._values = self.grid.spec_to_phys(self._spectral)
        return self._values

    @property
    def spectral(self) -> np.ndarray:
        if self._spectral is None:
            self._spectral = self.grid.phys_to_spec(self._values)
        return self._spectral

    def ddx(self) -> "Field2D":
        return Field2D(self.grid, spectral=self.spectral * (1j * self.grid.kx))

    def ddy(self) -> "Field2D":
        return Field2D(self.grid, spectral=cheb_diff_matrices(self.grid.ny)[0] @ self.spectral)

    def dealias(self) -> "Field2D":
        """Apply the 2/3 truncation in x."""
        c = self.spectral.copy()
        c[:, ~self.grid.fourier_dealias_mask()] = 0.0
        return Field2D(self.grid, spectral=c)

    def integrate(self) -> float:
        return self.grid.integrate(self.values)

    def inf_norm(self) -> float:
        return float(np.max(np.abs(self.values)))

    def __add__(self, other: "Field2D") -> "Field2D":
        self._check(other)
        return Field2D(self.grid, spectral=self.spectral + other.spectral)

    def __sub__(self, other: "Field2D") -> "Field2D":
        self._check(other)
        return Field2D(self.grid, spectral=self.spectral - other.spectral)

    def __mul__(self, scalar: float) -> "Field2D":
        return Field2D(self.grid, spectral=self.spectral * scalar)

    __rmul__ = __mul__

    def _check(self, other: "Field2D"):
        if other.grid is not self.grid and (
            other.grid.nx != self.grid.nx
            or other.grid.ny != self.grid.ny
            or other.grid.lx != self.grid.lx
        ):
            raise GridError("fields live on different grids")


def resample_field(f: Field2D, new_grid: ChannelGrid) -> Field2D:
    """Spectral interpolation onto another grid (pad or truncate both bases)."""
    if abs(new_grid.lx - f.grid.lx) > 1e-14 * f.grid.lx:
        raise GridError("resampling requires identical channel length")
    src = f.spectral
    out = np.zeros((new_grid.ny, new_grid.nkx), dtype=complex)
    m = min(f.grid.ny, new_grid.ny)
    k = min(f.grid.nkx, new_grid.nkx)
    out[:m, :k] = src[:m, :k]
    return Field2D(new_grid, spectral=out)
