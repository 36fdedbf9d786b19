"""Binary checkpoint format for restartable runs.

Layout (little endian).  Header: magic b"NSPB", version u32 (2), nx u32,
ny u32, t f64, dt f64, then the physics the run was made with: lx, Re, Wi,
tau, alpha, kappa (f64 each), mode and forcing (32-byte ASCII, NUL
padded), forcing_amplitude f64, and last a CRC32 u32 of every other byte
of the file.  Payload, row-major f64 arrays: fluctuation vorticity at the
grid nodes (ny*nx; its x-mean lives in the mean profile, and only its
Fourier modes 1..J below the 2/3 cut are read back), mean profile (ny),
wall stress g (2*nx, top wall then bottom; modes 0..J are read back).  Any
other version, or a mode or forcing that is not ASCII, is a ``CheckpointError``.

The header is the record of the run: every value it stores besides t is
one entry of ``run_record``, which ``write_checkpoint`` packs and
``read_checkpoint`` returns, so a restart can be checked against all of it.

A ``FlowState`` holds coefficients, and the file holds node values: the
conversion happens here and nowhere else.  ``write_checkpoint`` sets the
vorticity's modes 1..J in an all-mode spectrum and synthesizes it with
``grid.spec_to_phys``, the mean profile with ``cheb_inverse`` and g with S
of ``grid.fourier_matrices``; ``read_checkpoint`` takes them back with
``grid.phys_to_spec`` (keeping modes 1..J), ``cheb_forward`` and A.  A
header whose grid, t or dt no solver state can have, or whose t is not a
whole number of dt steps, is a ``CheckpointError``.
"""

from __future__ import annotations

import math
import os
import struct
import zlib
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .flow import FlowState, SolverConfig, forcing_name, whole_steps
from .grid import ChannelGrid, GridError, cheb_forward, cheb_inverse, fourier_matrices
from .params import SimParams

MAGIC = b"NSPB"
VERSION = 2
_PREFIX = struct.Struct("<4sI")
_HEADER = struct.Struct("<4sIIIdd6d32s32sd")  # without its closing CRC32
_CRC = struct.Struct("<I")
# what a header stores besides t, in header order (run_record maps a run to
# it): config keys plus the run's mode and the forcing_name of its amplitude
RUN_KEYS = (
    "nx", "ny", "dt", "lx", "re", "wi", "tau", "alpha", "kappa",
    "mode", "forcing", "forcing_amplitude",
)


class CheckpointError(RuntimeError):
    """Malformed or incompatible checkpoint file."""


class Checkpoint(NamedTuple):
    """What read_checkpoint returns."""

    state: FlowState
    run: dict  # RUN_KEYS -> stored value


def write_atomic(path, data: bytes) -> None:
    """Replace path by data so that readers see the old file or the whole new one."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def run_record(grid: ChannelGrid, params: SimParams, config: SolverConfig) -> dict:
    """RUN_KEYS -> the value of a run on grid under params and config."""
    values = (
        grid.nx, grid.ny, config.dt, grid.lx,
        params.Re, params.Wi, params.tau, params.alpha, params.kappa,
        config.mode, forcing_name(config.forcing_amplitude), config.forcing_amplitude,
    )
    return dict(zip(RUN_KEYS, values))


def write_checkpoint(path, state: FlowState, params: SimParams, config: SolverConfig) -> None:
    """Serialize a state with the run it was advanced under."""
    grid = state.grid
    omega = np.zeros((grid.ny, grid.nkx), dtype=complex)
    omega[:, 1 : grid.dealias_kx + 1] = state.omega
    S = fourier_matrices(grid.nx, grid.dealias_kx, grid.lx)[0]
    g = np.ascontiguousarray(state.g).view(np.float64) @ S
    nx, ny, dt, *physics = run_record(grid, params, config).values()
    header = _HEADER.pack(
        MAGIC, VERSION, nx, ny, state.t, dt,
        *(v.encode("ascii") if isinstance(v, str) else v for v in physics),
    )
    payload = b"".join(
        np.ascontiguousarray(arr, dtype="<f8").tobytes()
        for arr in (grid.spec_to_phys(omega), cheb_inverse(state.mean), g)
    )
    crc = _CRC.pack(zlib.crc32(payload, zlib.crc32(header)))
    write_atomic(path, header + crc + payload)


def read_checkpoint(path) -> Checkpoint:
    """Load a checkpoint: its state, and the run_record it was written with."""
    raw = Path(path).read_bytes()
    if len(raw) < _PREFIX.size:
        raise CheckpointError(f"{path}: truncated header")
    magic, version = _PREFIX.unpack_from(raw, 0)
    if magic != MAGIC:
        raise CheckpointError(f"{path}: bad magic {magic!r}")
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported version {version}")
    body = _HEADER.size + _CRC.size
    if len(raw) < body:
        raise CheckpointError(f"{path}: truncated header")
    _, _, nx, ny, t, dt, *physics = _HEADER.unpack_from(raw, 0)
    need = body + 8 * (ny * nx + ny + 2 * nx)
    if len(raw) != need:
        raise CheckpointError(f"{path}: expected {need} bytes, found {len(raw)}")
    (crc,) = _CRC.unpack_from(raw, _HEADER.size)
    if crc != zlib.crc32(raw[body:], zlib.crc32(raw[: _HEADER.size])):
        raise CheckpointError(f"{path}: CRC32 mismatch, the file is corrupt")
    if not all(s.isascii() for s in physics[6:8]):
        raise CheckpointError(f"{path}: mode or forcing is not ASCII text")
    physics[6:8] = [s.rstrip(b"\0").decode("ascii") for s in physics[6:8]]
    run = dict(zip(RUN_KEYS, (nx, ny, dt, *physics)))
    try:
        grid = ChannelGrid(nx=nx, ny=ny, lx=run["lx"])
    except GridError as exc:
        raise CheckpointError(f"{path}: {exc}") from None
    if not (math.isfinite(dt) and dt > 0):
        raise CheckpointError(f"{path}: dt must be positive and finite, got {dt!r}")
    if not (math.isfinite(t) and t >= 0):
        raise CheckpointError(f"{path}: t must be nonnegative and finite, got {t!r}")
    steps = whole_steps(t, dt)  # ChannelFlowSolver.run's rule
    if steps is None:
        raise CheckpointError(f"{path}: t = {t!r} is not a whole number of steps of dt = {dt!r}")
    arr = np.frombuffer(raw, dtype="<f8", offset=body)
    omega_vals, mean_vals, g = np.split(arr, np.cumsum([ny * nx, ny]))
    omega = grid.phys_to_spec(omega_vals.reshape(ny, nx))[:, 1 : grid.dealias_kx + 1]
    state = FlowState(
        grid=grid,
        omega=omega.copy(),
        mean=cheb_forward(mean_vals),
        g=(g.reshape(2, nx) @ fourier_matrices(nx, grid.dealias_kx, grid.lx)[2]).view(complex),
        t=t,
        step_index=steps,
    )
    return Checkpoint(state, run)
