import numpy as np
import pytest

from nspb.elliptic import (
    SolverError,
    TauSolver,
    _bc_row,
    apply_modes,
    biot_savart,
    streamfunction_operator,
    tau_matrices,
)
from nspb.grid import ChannelGrid, Field2D, cheb_diff_matrices


@pytest.fixture()
def grid():
    return ChannelGrid(nx=24, ny=33)


def _streamfunction(omega: Field2D) -> Field2D:
    ops = streamfunction_operator(omega.grid)
    return Field2D(omega.grid, spectral=apply_modes(ops, omega.spectral))


def _solve_robin(grid, lam, rhs, robin_top, robin_bottom) -> Field2D:
    """(lam - Laplacian) u = rhs with a*u + b*u' = c(x) on each wall.

    Solved through the stacked tau matrices and boundary rows that the
    solver's stage operators are built from.
    """
    (at, bt, ct), (ab, bb, cb) = robin_top, robin_bottom
    rows = np.stack([_bc_row(grid.ny, "top", at, bt), _bc_row(grid.ny, "bottom", ab, bb)])
    A = tau_matrices(grid.ny, lam + grid.kx**2, rows)
    b = rhs.spectral.copy()
    b[-2] = np.fft.rfft(ct) / grid.nx
    b[-1] = np.fft.rfft(cb) / grid.nx
    return Field2D(grid, spectral=np.linalg.solve(A, b.T[..., None])[..., 0].T)


def test_poisson_manufactured(grid):
    X, Y = grid.meshgrid()
    psi_exact = (1.0 - Y**2) * np.sin(X)
    omega = Field2D(grid, values=-(3.0 - Y**2) * np.sin(X))
    psi = _streamfunction(omega)
    assert np.max(np.abs(psi.values - psi_exact)) < 1e-10
    assert np.max(np.abs(psi.values[0])) < 1e-13
    assert np.max(np.abs(psi.values[-1])) < 1e-13


def test_biot_savart_constant_vorticity(grid):
    _, Y = grid.meshgrid()
    omega = Field2D(grid, values=np.full((grid.ny, grid.nx), -2.0))
    u, v = biot_savart(omega)
    assert np.max(np.abs(u.values - 2.0 * Y)) < 1e-10
    assert np.max(np.abs(v.values)) < 1e-12
    assert np.max(np.abs(v.values[0])) < 1e-13
    assert np.max(np.abs(v.values[-1])) < 1e-13


def test_biot_savart_zero(grid):
    u, v = biot_savart(Field2D.zeros(grid))
    assert np.max(np.abs(u.values)) == 0.0
    assert np.max(np.abs(v.values)) == 0.0


def test_biot_savart_divergence_free(grid):
    rng = np.random.default_rng(3)
    omega = Field2D(grid, values=rng.standard_normal((grid.ny, grid.nx))).dealias()
    u, v = biot_savart(omega)
    assert (u.ddx() + v.ddy()).inf_norm() < 1e-10


def test_helmholtz_robin_manufactured(grid):
    X, Y = grid.meshgrid()
    lam = 3.0
    u_exact = np.cos(X) * (Y**3 + Y)
    rhs = Field2D(grid, values=np.cos(X) * (4.0 * Y**3 - 2.0 * Y))
    x = grid.x
    u = _solve_robin(
        grid,
        lam,
        rhs,
        robin_top=(2.0, 1.0, 8.0 * np.cos(x)),
        robin_bottom=(1.0, 3.0, 10.0 * np.cos(x)),
    )
    assert np.max(np.abs(u.values - u_exact)) < 1e-10
    lap = u.ddx().ddx().spectral + cheb_diff_matrices(grid.ny)[1] @ u.spectral
    # the last two tau rows hold boundary data, not the PDE
    assert np.max(np.abs((lam * u.spectral - lap - rhs.spectral)[:-2])) < 1e-10


def test_helmholtz_rejects_empty_boundary_row(grid):
    with pytest.raises(SolverError):
        TauSolver(grid, 1.0, (0.0, 0.0), (1.0, 0.0))


def _dirichlet_error(ny: int) -> float:
    grid = ChannelGrid(nx=8, ny=ny)
    X, Y = grid.meshgrid()
    lam = 2.0
    # harmonic-in-y factor: Laplacian of sin(x) e^{3y} is (9 - 1) u
    u_exact = np.sin(X) * np.exp(3.0 * Y)
    rhs = Field2D(grid, values=(lam - 8.0) * u_exact)
    u = _solve_robin(
        grid,
        lam,
        rhs,
        robin_top=(1.0, 0.0, np.e**3 * np.sin(grid.x)),
        robin_bottom=(1.0, 0.0, np.e**-3 * np.sin(grid.x)),
    )
    return float(np.max(np.abs(u.values - u_exact)))


def test_spectral_accuracy_doubling():
    e1 = _dirichlet_error(11)
    e2 = _dirichlet_error(21)
    assert e2 <= max(1e-3 * e1, 1e-12)
    e3 = _dirichlet_error(41)
    assert e3 < 1e-12


def test_poisson_spectral_residual_random(grid):
    rng = np.random.default_rng(4)
    omega = Field2D(grid, values=rng.standard_normal((grid.ny, grid.nx))).dealias()
    psi = _streamfunction(omega)
    lap = psi.ddx().ddx() + psi.ddy().ddy()
    res = lap.spectral - omega.spectral
    assert np.max(np.abs(res[:-2, :])) < 1e-10
