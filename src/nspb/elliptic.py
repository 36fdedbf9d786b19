"""Chebyshev tau solvers, batched per-mode operators and the vorticity inversion.

Streamfunction convention: omega = Laplacian(psi), u = -d(psi)/dy,
v = +d(psi)/dx, so each Fourier mode solves (k^2 - d^2/dy^2) psi = -omega
with psi(+-1) = 0 (impermeable walls; the k=0 data fixes the zero-net-flux
gauge).

A linear map that acts mode by mode is stored as a real (n, p, ny) stack,
one matrix per Fourier mode, and applied to n complex coefficient columns
by ``apply_modes`` in a single matmul.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import scipy.linalg

from .grid import ChannelGrid, Field2D, cheb_diff_matrices


class SolverError(RuntimeError):
    """Singular or ill-posed boundary-value solve."""


def _bc_row(ny: int, wall: str, a: float, b: float) -> np.ndarray:
    """Tau row for a*u + b*u' at the wall; wall in {'top', 'bottom'}."""
    m = np.arange(ny)
    if wall == "top":
        return a * np.ones(ny) + b * m.astype(float) ** 2
    sign = np.where(m % 2 == 0, 1.0, -1.0)
    return a * sign + b * (-sign) * m.astype(float) ** 2


def _wall_rows(ny: int) -> np.ndarray:
    """(2, ny) rows evaluating a coefficient column at the (top, bottom) wall."""
    return np.stack([_bc_row(ny, "top", 1.0, 0.0), _bc_row(ny, "bottom", 1.0, 0.0)])


def tau_matrices(ny: int, shifts, rows: np.ndarray) -> np.ndarray:
    """Stacked tau matrices of (s - d^2/dy^2), one per shift s.

    The last two coefficient equations are replaced by the (top, bottom)
    boundary rows.
    """
    _, D2 = cheb_diff_matrices(ny)
    A = np.asarray(shifts, dtype=float)[:, None, None] * np.eye(ny) - D2
    A[:, ny - 2 :, :] = rows
    return A


def apply_modes(ops: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Apply a real (n, p, ny) operator stack to n complex columns (ny, n).

    The real and imaginary parts ride side by side as an (n, ny, 2)
    right-hand side, so the whole stack is one matmul; returns (p, n).
    """
    x = np.ascontiguousarray(cols.T, dtype=complex).view(np.float64)
    y = ops @ x.reshape(len(ops), cols.shape[0], 2)
    return y.view(np.complex128)[..., 0].T


class TauSolver:
    """LU-factorized (lam + k^2 - d^2/dy^2) systems, one per rfft mode.

    The last two coefficient equations are replaced by boundary rows
    a*u + b*u' = c at the top and bottom wall.
    """

    def __init__(
        self,
        grid: ChannelGrid,
        lam: float,
        bc_top: tuple[float, float],
        bc_bottom: tuple[float, float],
    ):
        if bc_top == (0.0, 0.0) or bc_bottom == (0.0, 0.0):
            raise SolverError("boundary rows need (a, b) != (0, 0)")
        self.grid = grid
        self.lam = float(lam)
        self.bc_top = bc_top
        self.bc_bottom = bc_bottom
        ny = grid.ny
        rows = np.stack([_bc_row(ny, "top", *bc_top), _bc_row(ny, "bottom", *bc_bottom)])
        A = tau_matrices(ny, self.lam + grid.kx**2, rows)
        self._lu = []
        for k, A_k in zip(grid.kx, A):
            try:
                self._lu.append(scipy.linalg.lu_factor(A_k))
            except scipy.linalg.LinAlgError as exc:  # pragma: no cover
                raise SolverError(f"singular tau system at k={k}") from exc

    def solve_mode(self, j: int, rhs_coeffs: np.ndarray, c_top=0.0, c_bottom=0.0) -> np.ndarray:
        b = np.array(rhs_coeffs, dtype=complex)
        b[-2] = c_top
        b[-1] = c_bottom
        lu = self._lu[j]
        x = scipy.linalg.lu_solve(lu, b.real) + 1j * scipy.linalg.lu_solve(lu, b.imag)
        return x


@lru_cache(maxsize=8)
def streamfunction_operator(grid: ChannelGrid) -> np.ndarray:
    """Read-only (nkx, ny, ny) stack taking vorticity to psi coefficients.

    Mode j is -A_j^-1 P, with A_j the Dirichlet tau matrix of
    (k_j^2 - d^2/dy^2) and P zeroing its two boundary rows, so
    psi = apply_modes(stack, omega) vanishes on both walls.
    """
    ny = grid.ny
    ops = -np.linalg.inv(tau_matrices(ny, grid.kx**2, _wall_rows(ny)))
    ops[:, :, ny - 2 :] = 0.0
    ops.flags.writeable = False
    return ops


def velocity_spectral(grid: ChannelGrid, omega_spec: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(u, v) coefficient arrays induced by vorticity coefficients, all rfft modes."""
    psi = apply_modes(streamfunction_operator(grid), omega_spec)
    D, _ = cheb_diff_matrices(grid.ny)
    return -(D @ psi), psi * (1j * grid.kx)


def biot_savart(omega: Field2D) -> tuple[Field2D, Field2D]:
    """Velocity (u, v) induced by vorticity under the channel gauge."""
    u, v = velocity_spectral(omega.grid, omega.spectral)
    return Field2D(omega.grid, spectral=u), Field2D(omega.grid, spectral=v)

