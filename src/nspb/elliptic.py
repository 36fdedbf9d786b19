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

from .grid import ChannelGrid, cheb_diff_matrices, real_matmul


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
    """(lam + k^2 - d^2/dy^2) tau systems, one per rfft mode.

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
        self._A = tau_matrices(ny, self.lam + grid.kx**2, rows)

    def solve_mode(self, j: int, rhs_coeffs: np.ndarray, c_top=0.0, c_bottom=0.0) -> np.ndarray:
        b = np.array(rhs_coeffs, dtype=complex)
        b[-2] = c_top
        b[-1] = c_bottom
        try:
            x = np.linalg.solve(self._A[j], np.column_stack([b.real, b.imag]))
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"singular tau system at k={self.grid.kx[j]}") from exc
        return x[:, 0] + 1j * x[:, 1]


def _dirichlet_inverses(grid: ChannelGrid, lam: float) -> np.ndarray:
    """(J, ny, ny) inverses A_j^-1 of the Dirichlet tau matrices of
    (lam + k_j^2 - d^2/dy^2) on modes 1..J (``grid.kx[1:J+1]``)."""
    k = grid.kx[1 : grid.dealias_kx + 1]
    return np.linalg.inv(tau_matrices(grid.ny, lam + k**2, _wall_rows(grid.ny)))


@lru_cache(maxsize=8)
def streamfunction_operator(grid: ChannelGrid) -> np.ndarray:
    """Read-only (J, ny, ny) stack taking vorticity modes 1..J to psi coefficients.

    J = ``grid.dealias_kx``; the modes' wavenumbers are ``grid.kx[1:J+1]``.
    Mode j is -A_j^-1 P, with A_j the Dirichlet tau matrix of
    (k_j^2 - d^2/dy^2) and P zeroing its two boundary rows, so
    psi = apply_modes(stack, omega) vanishes on both walls.
    """
    ops = -_dirichlet_inverses(grid, 0.0)
    ops[:, :, grid.ny - 2 :] = 0.0
    ops.flags.writeable = False
    return ops


@lru_cache(maxsize=2)
def dirichlet_stage_inverses(grid: ChannelGrid, lam: float) -> np.ndarray:
    """Read-only ``_dirichlet_inverses(grid, lam)``, kept for the last two keys.

    The part of an implicit stage of ``flow.ChannelFlowSolver`` that reads
    neither the wall law nor the mean, so solvers at one grid and lam (one
    Re/dt) share it.  Two entries hold one solver's two stages, lam = Re/dt
    and 2 Re/dt; at 64x65 each stack takes 0.7 MB.
    """
    ops = _dirichlet_inverses(grid, lam)
    ops.flags.writeable = False
    return ops


def biot_savart(grid: ChannelGrid, omega: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(u, v) coefficients induced by vorticity modes 1..J, shaped as omega.

    omega is one state's (ny, J) modes or n states' side by side, (ny, n J);
    every state rides in one matmul with the streamfunction stack, the n
    states as n more right-hand side columns of each mode's matrix (for
    n = 1 the layout of ``apply_modes``).  An omega of zeros alone (the
    parallel states of the forced runs) has psi = +0.0, the stack's bits for
    any signs of its zeros, without building the stack.
    """
    ny, J = grid.ny, grid.dealias_kx
    n = omega.shape[1] // J
    if not np.count_nonzero(omega):
        psi = np.zeros((ny, n * J), dtype=complex)
    else:
        rhs = np.ascontiguousarray(omega.reshape(ny, n, J).transpose(2, 0, 1), dtype=complex)
        psi = streamfunction_operator(grid) @ rhs.view(np.float64)  # (J, ny, 2 n)
        psi = psi.view(np.complex128).transpose(1, 2, 0).reshape(ny, n * J)
    D, _ = cheb_diff_matrices(ny)
    return -real_matmul(D, psi), psi * np.tile(1j * grid.kx[1 : J + 1], n)
