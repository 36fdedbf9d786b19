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


def _dct1(x: np.ndarray) -> np.ndarray:
    """``scipy.fft.dct(x, type=1, axis=0)``, as the rfft of x's even extension."""
    if np.iscomplexobj(x):  # rfft takes no complex input, so do each part
        out = np.empty(x.shape, dtype=np.complex128)
        out.real, out.imag = _dct1(x.real), _dct1(x.imag)
        return out
    return np.fft.rfft(np.concatenate([x, x[-2:0:-1]]), axis=0).real


def cheb_forward(values: np.ndarray) -> np.ndarray:
    """Gauss-Lobatto samples (axis 0) to Chebyshev coefficients."""
    N = values.shape[0] - 1
    a = _dct1(values) / N
    a[0] *= 0.5
    a[N] *= 0.5
    return a


def cheb_inverse(coeffs: np.ndarray) -> np.ndarray:
    """Chebyshev coefficients (axis 0) back to Gauss-Lobatto samples."""
    b = coeffs.copy()
    b[1:-1] *= 0.5
    return _dct1(b)


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


@lru_cache(maxsize=None)
def cheb_synthesis_matrix(ny: int) -> np.ndarray:
    """Read-only (2 ny, ny) [C^-1; C^-1 D] on ny Chebyshev coefficients.

    One matmul takes coefficient columns to their Gauss-Lobatto node values
    (rows :ny) and to the node values of their d/dy (rows ny:); it does not
    depend on the Fourier mode, so any set of columns can share it.
    """
    D, _ = cheb_diff_matrices(ny)
    c_inv = cheb_inverse(np.eye(ny))
    S = np.vstack([c_inv, c_inv @ D])
    S.flags.writeable = False
    return S


@lru_cache(maxsize=None)
def cheb_forward_matrix(ny: int, rows: int) -> np.ndarray:
    """Read-only (rows, ny): node values to their first ``rows`` Chebyshev coefficients.

    The leading rows of ``cheb_forward(np.eye(ny))``, copied out C-contiguous
    so that no view keeps the whole (ny, ny) transform alive.
    """
    F = cheb_forward(np.eye(ny))[:rows].copy()
    F.flags.writeable = False
    return F


@lru_cache(maxsize=None)
def fourier_matrices(nx: int, J: int, lx: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only real (S, Sx, A): the x-transforms of Fourier modes 0..J on nx nodes.

    S and Sx are (2 (J+1), nx) and act on the float64 view of complex
    coefficients c (..., J+1): ``c.view(np.float64) @ S`` equals
    ``irfft(c, n=nx, norm="forward")``, Im c_0 ignored as irfft ignores it,
    and ``@ Sx`` the irfft of ``1j * kx * c`` (kx of ``ChannelGrid(nx, ., lx)``).
    A is (nx, 2 (J+1)): ``(f @ A).view(np.complex128)`` equals
    ``rfft(f, norm="forward")[..., :J+1]`` for real node values f (..., nx).
    J must lie below nx/2 (no Nyquist mode), as ``dealias_kx`` does; up to
    nx = 128 one matmul beats the FFT.
    """
    k = np.arange(J + 1)
    theta = 2.0 * np.pi / nx * ((k[:, None] * np.arange(nx)) % nx)
    cos, sin = np.cos(theta), np.sin(theta)
    w = np.where(k == 0, 1.0, 2.0)[:, None]  # a real field's modes 1..J count twice
    kw = w * (2.0 * math.pi / lx * k)[:, None]
    S = np.stack([w * cos, -w * sin], axis=1).reshape(2 * (J + 1), nx)
    Sx = np.stack([-kw * sin, -kw * cos], axis=1).reshape(2 * (J + 1), nx)
    A = np.stack([cos.T, -sin.T], axis=-1).reshape(nx, 2 * (J + 1)) / nx
    for M in (S, Sx, A):
        M.flags.writeable = False
    return S, Sx, A


def real_matmul(M: np.ndarray, a: np.ndarray) -> np.ndarray:
    """M @ a for a real matrix M and complex a (..., ny, n), as one real matmul.

    The real and imaginary parts of each row of a ride side by side in its
    float64 view, so numpy never casts M to complex.
    """
    a = np.ascontiguousarray(a, dtype=np.complex128)
    return (M @ a.view(np.float64)).view(np.complex128)


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
    def dy_local(self) -> np.ndarray:
        """Each node row's smaller wall-normal neighbour gap (its only one at a wall)."""
        gaps = self._y[:-1] - self._y[1:]
        return np.minimum(np.append(gaps, np.inf), np.insert(gaps, 0, np.inf))

    def phys_to_spec(self, values: np.ndarray) -> np.ndarray:
        f = np.fft.rfft(values, axis=1) / self.nx
        return cheb_forward(f)

    def spec_to_phys(self, coeffs: np.ndarray) -> np.ndarray:
        """(..., ny, nkx) coefficients to (..., ny, nx) values.

        Leading axes stack independent fields, synthesized in one call.
        """
        f = np.moveaxis(cheb_inverse(np.moveaxis(coeffs, -2, 0)), 0, -2)
        return np.fft.irfft(f * self.nx, n=self.nx, axis=-1)

    def integrate(self, values: np.ndarray) -> float:
        """Integral over the channel by Clenshaw-Curtis x trapezoid."""
        return float(self._wy @ values.sum(axis=1)) * self.dx
