import math

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

from nspb.flow import ChannelFlowSolver, SolverConfig, initial_state
from nspb.grid import (
    ChannelGrid,
    GridError,
    cheb_diff_matrices,
    cheb_forward,
    cheb_inverse,
    cheb_synthesis_matrix,
    fourier_matrices,
    real_matmul,
)
from nspb.params import SimParams


@pytest.fixture()
def grid():
    return ChannelGrid(nx=24, ny=17)


def test_grid_validation():
    with pytest.raises(GridError):
        ChannelGrid(nx=7, ny=17)
    with pytest.raises(GridError):
        ChannelGrid(nx=10, ny=8)
    with pytest.raises(GridError):
        ChannelGrid(nx=6, ny=17)
    with pytest.raises(GridError):
        ChannelGrid(nx=16, ny=17, lx=-1.0)


def test_wall_nodes_are_exact(grid):
    assert grid.y[0] == 1.0
    assert grid.y[-1] == -1.0
    assert np.all(np.diff(grid.y) < 0)


def test_dealias_boundaries():
    g = ChannelGrid(nx=12, ny=9)
    assert g.dealias_kx == 4
    assert g.dealias_cheb == 5


def test_quadrature_weights_integrate_polynomials(grid):
    w = grid.quad_weights_y
    assert np.sum(w) == pytest.approx(2.0, abs=1e-14)
    assert w @ grid.y**4 == pytest.approx(2.0 / 5.0, abs=1e-13)
    assert w @ grid.y**9 == pytest.approx(0.0, abs=1e-13)


def test_integrate_separable(grid):
    X, Y = np.meshgrid(grid.x, grid.y)
    f = np.sin(X) ** 2 * np.ones_like(Y)
    assert grid.integrate(f) == pytest.approx(2.0 * math.pi, rel=1e-12)
    g = 1.0 - Y**2
    assert grid.integrate(g) == pytest.approx(2.0 * math.pi * 4.0 / 3.0, rel=1e-12)


def test_pure_mode_transform(grid):
    X, Y = np.meshgrid(grid.x, grid.y)
    c = grid.phys_to_spec(np.cos(X) * (2.0 * Y**2 - 1.0))
    nz = np.argwhere(np.abs(c) > 1e-12)
    assert nz.tolist() == [[2, 1]]
    assert abs(c[2, 1]) == pytest.approx(0.5, abs=1e-13)
    # two-sided Fourier spectrum counts the mirror mode as well
    two_sided = 2 * np.count_nonzero(
        np.abs(c[:, 1 : grid.nx // 2]) > 1e-12
    ) + np.count_nonzero(np.abs(c[:, [0, grid.nx // 2]]) > 1e-12)
    assert two_sided == 2


def test_round_trip(grid):
    rng = np.random.default_rng(0)
    spec = grid.phys_to_spec(rng.standard_normal((grid.ny, grid.nx)))
    spec[:, grid.dealias_kx + 1 :] = 0.0
    vals = grid.spec_to_phys(spec)
    back = grid.spec_to_phys(grid.phys_to_spec(vals))
    assert np.max(np.abs(back - vals)) < 1e-12


@pytest.mark.parametrize("ny", [9, 17, 32, 33, 65, 129])
def test_cheb_transforms_equal_the_scipy_dct_bitwise(ny):
    # the DCT-I is numpy's rfft of the even extension; it must give scipy's
    # type-1 DCT to the last bit, or every stored byte would move at roundoff
    def dct(x):
        return scipy.fft.dct(x, type=1, axis=0)

    rng = np.random.default_rng(ny)
    real = rng.standard_normal((ny, 7))
    stack = rng.standard_normal((3, ny, 5)) + 1j * rng.standard_normal((3, ny, 5))
    for x in (real, real + 1j * rng.standard_normal((ny, 7)), np.eye(ny), real[:, 0],
              np.moveaxis(stack, 1, 0)):
        N = ny - 1
        forward = dct(x) / N
        forward[[0, N]] *= 0.5
        halved = x.copy()
        halved[1:-1] *= 0.5
        for got, want in ((cheb_forward(x), forward), (cheb_inverse(x), dct(halved))):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("nx, ny", [(16, 9), (24, 17), (64, 65)])
def test_stacked_spec_to_phys_matches_per_field(nx, ny):
    grid = ChannelGrid(nx=nx, ny=ny)
    rng = np.random.default_rng(nx)
    shape = (3, 2, grid.ny, grid.nkx)
    stack = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    out = grid.spec_to_phys(stack)
    assert out.shape == (3, 2, grid.ny, grid.nx)
    for idx in np.ndindex(3, 2):
        single = grid.spec_to_phys(stack[idx].copy())
        assert np.max(np.abs(out[idx] - single)) <= 1e-15 * np.max(np.abs(single))


def test_real_matmul_matches_complex_matmul():
    D, _ = cheb_diff_matrices(17)
    rng = np.random.default_rng(3)
    a = rng.standard_normal((2, 17, 9)) + 1j * rng.standard_normal((2, 17, 9))
    want = D @ a
    for got, ref in ((real_matmul(D, a), want), (real_matmul(D, a[1, :, 2:7]), want[1, :, 2:7])):
        assert got.dtype == np.complex128 and got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_synthesis_matrix_gives_node_values_and_their_derivative():
    ny = 17
    S = cheb_synthesis_matrix(ny)
    D, _ = cheb_diff_matrices(ny)
    a = np.random.default_rng(5).standard_normal((ny, 4))
    assert S.shape == (2 * ny, ny) and not S.flags.writeable
    assert np.max(np.abs(S[:ny] @ a - cheb_inverse(a))) <= 1e-13
    assert np.max(np.abs(S[ny:] @ a - cheb_inverse(D @ a))) <= 1e-12
    # one shared matrix per ny: the solver's nonlinear terms use this object
    config = SolverConfig(dt=1e-3, t_end=1.0)
    sol = ChannelFlowSolver(ChannelGrid(nx=16, ny=ny), SimParams(Re=10.0), config)
    assert sol._synth is S


@pytest.mark.parametrize("nx", [8, 32, 64])
@pytest.mark.parametrize("lx", [2.0 * math.pi, 3.7])
def test_fourier_matrices_match_the_fft(nx, lx):
    grid = ChannelGrid(nx=nx, ny=9, lx=lx)
    J = grid.dealias_kx
    S, Sx, A = fourier_matrices(nx, J, lx)
    rng = np.random.default_rng(nx)
    c = rng.standard_normal((3, J + 1)) + 1j * rng.standard_normal((3, J + 1))
    assert np.all(c[:, 0].imag != 0.0)  # irfft ignores Im c_0, and so must S
    f = rng.standard_normal((3, nx))
    pairs = [
        (c.view(np.float64) @ S, np.fft.irfft(c, n=nx, norm="forward")),
        (c.view(np.float64) @ Sx, np.fft.irfft(1j * grid.kx[: J + 1] * c, n=nx, norm="forward")),
        ((f @ A).view(np.complex128), np.fft.rfft(f, norm="forward")[:, : J + 1]),
    ]
    for got, ref in pairs:
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
    for M in (S, Sx, A):
        assert M.dtype == np.float64 and not M.flags.writeable
    # cached: the solver's transforms use these very objects
    sol = ChannelFlowSolver(grid, SimParams(Re=10.0), SolverConfig(dt=1e-3, t_end=1.0))
    assert all(a is b for a, b in zip(sol._fourier, (S, Sx, A)))


def test_ddy_cubic(grid):
    _, Y = np.meshgrid(grid.x, grid.y)
    D, _ = cheb_diff_matrices(grid.ny)
    dy = grid.spec_to_phys(real_matmul(D, grid.phys_to_spec(Y**3)))
    assert np.max(np.abs(dy - 3.0 * Y**2)) < 1e-12


def test_ddx_cosine(grid):
    X, _ = np.meshgrid(grid.x, grid.y)
    dx = grid.spec_to_phys(grid.phys_to_spec(np.cos(X)) * (1j * grid.kx))
    assert np.max(np.abs(dx + np.sin(X))) < 1e-12


def test_wall_values_orientation(grid):
    _, Y = np.meshgrid(grid.x, grid.y)
    # row 0 of a physical array is the top wall, also after the transforms
    f = grid.spec_to_phys(grid.phys_to_spec(Y.copy()))
    assert np.allclose(f[0], 1.0)
    assert np.allclose(f[-1], -1.0)


def test_dealias_masks_high_modes(grid):
    # initial_state applies the 2/3 cut in x: the vorticity of white-noise
    # velocity keeps modes 1..J of (ik v - D u) and nothing above them
    rng = np.random.default_rng(1)
    u, v = rng.standard_normal((2, grid.ny, grid.nx))
    omega = initial_state(grid, SimParams(Re=10.0), u=u, v=v).omega
    kept = grid.dealias_kx + 1
    assert omega.shape == (grid.ny, kept - 1)
    D, _ = cheb_diff_matrices(grid.ny)
    full = grid.phys_to_spec(v) * (1j * grid.kx) - real_matmul(D, grid.phys_to_spec(u))
    assert np.max(np.abs(omega - full[:, 1:kept])) <= 1e-12 * np.max(np.abs(full))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_transform_round_trip_property(seed):
    grid = ChannelGrid(nx=16, ny=9)
    rng = np.random.default_rng(seed)
    spec = np.zeros((grid.ny, grid.nkx), dtype=complex)
    ks = rng.integers(0, grid.dealias_kx + 1, size=5)
    ms = rng.integers(0, grid.ny, size=5)
    spec[ms, ks] = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    spec[:, 0] = spec[:, 0].real  # mean mode must be real for a real field
    back = grid.phys_to_spec(grid.spec_to_phys(spec))
    assert np.max(np.abs(back - spec)) < 1e-12
