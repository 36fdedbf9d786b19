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
from nspb.grid import ChannelGrid, cheb_diff_matrices, real_matmul


@pytest.fixture()
def grid():
    return ChannelGrid(nx=24, ny=33)


def _modes(grid, values):
    """Coefficients of Fourier modes 1..J, (ny, J), of (ny, nx) node values."""
    return grid.phys_to_spec(values)[:, 1 : grid.dealias_kx + 1]


def _nodes(grid, modes):
    """(ny, nx) node values of the coefficients of Fourier modes 1..J."""
    return grid.spec_to_phys(np.pad(modes, ((0, 0), (1, 0))))


def _dealiased_noise(grid, seed):
    """Modes 1..J of white noise at the nodes: no x-mean, cut by the 2/3 rule."""
    rng = np.random.default_rng(seed)
    return _modes(grid, rng.standard_normal((grid.ny, grid.nx)))


def _streamfunction(grid, omega):
    return apply_modes(streamfunction_operator(grid), omega)


def _laplacian(spec, k):
    """Laplacian of coefficient columns whose Fourier wavenumbers are k."""
    _, D2 = cheb_diff_matrices(spec.shape[0])
    return real_matmul(D2, spec) - k**2 * spec


def _solve_robin(grid, lam, rhs, robin_top, robin_bottom):
    """(lam - Laplacian) u = rhs with a*u + b*u' = c(x) on each wall.

    Solved through the stacked tau matrices and boundary rows that the
    solver's stage operators are built from.
    """
    (at, bt, ct), (ab, bb, cb) = robin_top, robin_bottom
    rows = np.stack([_bc_row(grid.ny, "top", at, bt), _bc_row(grid.ny, "bottom", ab, bb)])
    A = tau_matrices(grid.ny, lam + grid.kx**2, rows)
    b = grid.phys_to_spec(rhs)
    b[-2] = np.fft.rfft(ct) / grid.nx
    b[-1] = np.fft.rfft(cb) / grid.nx
    return np.linalg.solve(A, b.T[..., None])[..., 0].T


def test_poisson_manufactured(grid):
    X, Y = np.meshgrid(grid.x, grid.y)
    psi_exact = (1.0 - Y**2) * np.sin(X)
    omega = _modes(grid, -(3.0 - Y**2) * np.sin(X))
    psi = _nodes(grid, _streamfunction(grid, omega))
    assert np.max(np.abs(psi - psi_exact)) < 1e-10
    assert np.max(np.abs(psi[0])) < 1e-13
    assert np.max(np.abs(psi[-1])) < 1e-13


def test_biot_savart_constant_vorticity(grid):
    # vorticity constant in y on one mode, -2 sin(x): psi'' - psi = -2 with
    # psi(+-1) = 0 gives psi = 2 (1 - cosh(y)/cosh(1)) sin(x)
    X, Y = np.meshgrid(grid.x, grid.y)
    omega = _modes(grid, -2.0 * np.sin(X))
    u, v = (_nodes(grid, f) for f in biot_savart(grid, omega))
    assert np.max(np.abs(u - 2.0 * np.sinh(Y) / np.cosh(1.0) * np.sin(X))) < 1e-10
    assert np.max(np.abs(v - 2.0 * (1.0 - np.cosh(Y) / np.cosh(1.0)) * np.cos(X))) < 1e-12
    assert np.max(np.abs(v[0])) < 1e-13
    assert np.max(np.abs(v[-1])) < 1e-13


def test_biot_savart_zero(grid):
    u, v = biot_savart(grid, np.zeros((grid.ny, grid.dealias_kx), dtype=complex))
    assert u.shape == v.shape == (grid.ny, grid.dealias_kx)
    assert np.max(np.abs(u)) == 0.0
    assert np.max(np.abs(v)) == 0.0


def test_biot_savart_divergence_free(grid):
    u, v = biot_savart(grid, _dealiased_noise(grid, 3))
    D, _ = cheb_diff_matrices(grid.ny)
    div = _nodes(grid, u * (1j * grid.kx[1 : grid.dealias_kx + 1]) + real_matmul(D, v))
    assert np.max(np.abs(div)) < 1e-10


def test_helmholtz_robin_manufactured(grid):
    X, Y = np.meshgrid(grid.x, grid.y)
    lam = 3.0
    u_exact = np.cos(X) * (Y**3 + Y)
    rhs = np.cos(X) * (4.0 * Y**3 - 2.0 * Y)
    x = grid.x
    u = _solve_robin(
        grid,
        lam,
        rhs,
        robin_top=(2.0, 1.0, 8.0 * np.cos(x)),
        robin_bottom=(1.0, 3.0, 10.0 * np.cos(x)),
    )
    assert np.max(np.abs(grid.spec_to_phys(u) - u_exact)) < 1e-10
    # the last two tau rows hold boundary data, not the PDE
    res = lam * u - _laplacian(u, grid.kx) - grid.phys_to_spec(rhs)
    assert np.max(np.abs(res[:-2])) < 1e-10


def test_helmholtz_rejects_empty_boundary_row(grid):
    with pytest.raises(SolverError):
        TauSolver(grid, 1.0, (0.0, 0.0), (1.0, 0.0))


def test_singular_tau_system_is_a_solver_error(grid):
    # Neumann rows at lam = k = 0 leave the constants in the null space
    solver = TauSolver(grid, 0.0, (0.0, 1.0), (0.0, 1.0))
    with pytest.raises(SolverError, match="singular tau system at k=0"):
        solver.solve_mode(0, np.zeros(grid.ny))


def _dirichlet_error(ny: int) -> float:
    grid = ChannelGrid(nx=8, ny=ny)
    X, Y = np.meshgrid(grid.x, grid.y)
    lam = 2.0
    # harmonic-in-y factor: Laplacian of sin(x) e^{3y} is (9 - 1) u
    u_exact = np.sin(X) * np.exp(3.0 * Y)
    rhs = (lam - 8.0) * u_exact
    u = _solve_robin(
        grid,
        lam,
        rhs,
        robin_top=(1.0, 0.0, np.e**3 * np.sin(grid.x)),
        robin_bottom=(1.0, 0.0, np.e**-3 * np.sin(grid.x)),
    )
    return float(np.max(np.abs(grid.spec_to_phys(u) - u_exact)))


def test_spectral_accuracy_doubling():
    e1 = _dirichlet_error(11)
    e2 = _dirichlet_error(21)
    assert e2 <= max(1e-3 * e1, 1e-12)
    e3 = _dirichlet_error(41)
    assert e3 < 1e-12


def test_poisson_spectral_residual_random(grid):
    omega = _dealiased_noise(grid, 4)
    k = grid.kx[1 : grid.dealias_kx + 1]
    res = _laplacian(_streamfunction(grid, omega), k) - omega
    assert np.max(np.abs(res[:-2, :])) < 1e-10
