import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nspb.flow import ChannelFlowSolver, SolverConfig
from nspb.grid import (
    ChannelGrid,
    Field2D,
    GridError,
    cheb_diff_matrices,
    cheb_inverse,
    cheb_synthesis_matrix,
    real_matmul,
    resample_field,
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
    X, Y = grid.meshgrid()
    f = Field2D(grid, values=np.sin(X) ** 2 * np.ones_like(Y))
    assert f.integrate() == pytest.approx(2.0 * math.pi, rel=1e-12)
    g = Field2D(grid, values=(1.0 - Y**2))
    assert g.integrate() == pytest.approx(2.0 * math.pi * 4.0 / 3.0, rel=1e-12)


def test_pure_mode_transform(grid):
    X, Y = grid.meshgrid()
    f = Field2D(grid, values=np.cos(X) * (2.0 * Y**2 - 1.0))
    c = f.spectral
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
    vals = rng.standard_normal((grid.ny, grid.nx))
    f = Field2D(grid, values=vals).dealias()
    back = Field2D(grid, spectral=f.spectral.copy()).values
    assert np.max(np.abs(back - f.values)) < 1e-12


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


def test_ddy_cubic(grid):
    _, Y = grid.meshgrid()
    f = Field2D(grid, values=Y**3)
    err = np.max(np.abs(f.ddy().values - 3.0 * Y**2))
    assert err < 1e-12


def test_ddx_cosine(grid):
    X, _ = grid.meshgrid()
    f = Field2D(grid, values=np.cos(X))
    err = np.max(np.abs(f.ddx().values + np.sin(X)))
    assert err < 1e-12


def test_wall_values_orientation(grid):
    _, Y = grid.meshgrid()
    # row 0 of a physical array is the top wall, also after the transforms
    f = Field2D(grid, spectral=Field2D(grid, values=Y.copy()).spectral)
    assert np.allclose(f.values[0], 1.0)
    assert np.allclose(f.values[-1], -1.0)


def test_dealias_masks_high_modes(grid):
    rng = np.random.default_rng(1)
    f = Field2D(grid, values=rng.standard_normal((grid.ny, grid.nx)))
    c = f.dealias().spectral
    kept = grid.dealias_kx + 1
    assert np.all(np.abs(c[:, kept:]) == 0)
    np.testing.assert_array_equal(c[:, :kept], f.spectral[:, :kept])


def test_field_shape_validation(grid):
    with pytest.raises(GridError):
        Field2D(grid, values=np.zeros((3, 3)))
    with pytest.raises(GridError):
        Field2D(grid)


def test_resample_round_trip():
    coarse = ChannelGrid(nx=16, ny=13)
    fine = ChannelGrid(nx=32, ny=25)
    rng = np.random.default_rng(2)
    f = Field2D(coarse, values=rng.standard_normal((13, 16))).dealias()
    up = resample_field(f, fine)
    down = resample_field(up, coarse)
    assert np.max(np.abs(down.values - f.values)) < 1e-12


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
    f = Field2D(grid, spectral=spec)
    back = Field2D(grid, values=f.values.copy()).spectral
    assert np.max(np.abs(back - spec)) < 1e-12
