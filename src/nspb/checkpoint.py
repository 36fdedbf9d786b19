"""Binary checkpoint format for restartable runs.

Layout of version 2 (little endian).  Header: magic b"NSPB", version u32,
nx u32, ny u32, t f64, dt f64, then the physics the run was made with:
lx, Re, Wi, tau, alpha, kappa (f64 each), mode and forcing (32-byte ASCII,
NUL padded), forcing_amplitude f64, and last a CRC32 u32 of every other
byte of the file.  Payload, row-major f64 arrays: fluctuation vorticity at
the grid nodes (ny*nx; its x-mean lives in the mean profile, and only its
Fourier modes 1..J below the 2/3 cut are read back), mean profile (ny),
wall stress g (2*nx, top wall then bottom).

Version 1 files still load.  Their header ends after dt and holds no
physics; their payload has two slip accumulators (nx each, top then
bottom) after g, which are skipped.

A ``FlowState`` holds coefficients, and the file holds node values: the
conversion happens here and nowhere else.  ``write_checkpoint`` sets the
vorticity's modes 1..J in an all-mode spectrum and synthesizes it with
``grid.spec_to_phys``, and the mean profile with ``cheb_inverse``;
``read_checkpoint`` takes them back with ``grid.phys_to_spec``, keeping
modes 1..J, and ``cheb_forward``.  A header whose grid, t or dt no solver
state can have, or whose t is not a whole number of dt steps, is a
``CheckpointError``.
"""

from __future__ import annotations

import math
import os
import struct
import zlib
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .flow import FlowState, SolverConfig, whole_steps
from .grid import ChannelGrid, GridError, cheb_forward, cheb_inverse
from .params import SimParams

MAGIC = b"NSPB"
VERSION = 2
_PREFIX = struct.Struct("<4sI")
_HEADER_V1 = struct.Struct("<4sIIIdd")
_HEADER = struct.Struct("<4sIIIdd6d32s32sd")  # v2, without its closing CRC32
_CRC = struct.Struct("<I")
# the physics a v2 header stores, in header order (run_physics maps a run to
# it): config keys plus the run's SolverConfig mode and forcing
PHYSICS_KEYS = ("lx", "re", "wi", "tau", "alpha", "kappa", "mode", "forcing", "forcing_amplitude")


class CheckpointError(RuntimeError):
    """Malformed or incompatible checkpoint file."""


class Checkpoint(NamedTuple):
    """What read_checkpoint returns."""

    grid: ChannelGrid
    state: FlowState
    dt: float
    physics: dict | None  # PHYSICS_KEYS -> stored value; None for a v1 file


def write_atomic(path, data: bytes) -> None:
    """Replace path by data so that readers see the old file or the whole new one."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def run_physics(params: SimParams, config: SolverConfig, lx: float) -> dict:
    """PHYSICS_KEYS -> the value of a run under params and config on a channel of length lx."""
    values = (
        lx, params.Re, params.Wi, params.tau, params.alpha, params.kappa,
        config.mode, config.forcing, config.forcing_amplitude,
    )
    return dict(zip(PHYSICS_KEYS, values))


def write_checkpoint(path, state: FlowState, params: SimParams, config: SolverConfig) -> None:
    """Serialize a state with the physics and time step it was advanced under."""
    grid = state.grid
    omega = np.zeros((grid.ny, grid.nkx), dtype=complex)
    omega[:, 1 : grid.dealias_kx + 1] = state.omega
    physics = run_physics(params, config, grid.lx).values()
    header = _HEADER.pack(
        MAGIC, VERSION, grid.nx, grid.ny, state.t, config.dt,
        *(v.encode("ascii") if isinstance(v, str) else v for v in physics),
    )
    payload = b"".join(
        np.ascontiguousarray(arr, dtype="<f8").tobytes()
        for arr in (grid.spec_to_phys(omega), cheb_inverse(state.mean), state.g)
    )
    crc = _CRC.pack(zlib.crc32(payload, zlib.crc32(header)))
    write_atomic(path, header + crc + payload)


def read_checkpoint(path, lx: float = 2.0 * np.pi) -> Checkpoint:
    """Load a checkpoint; ``lx`` is used only for v1 files, which do not store it."""
    raw = Path(path).read_bytes()
    if len(raw) < _PREFIX.size:
        raise CheckpointError(f"{path}: truncated header")
    magic, version = _PREFIX.unpack_from(raw, 0)
    if magic != MAGIC:
        raise CheckpointError(f"{path}: bad magic {magic!r}")
    if version not in (1, VERSION):
        raise CheckpointError(f"{path}: unsupported version {version}")
    header = _HEADER if version == VERSION else _HEADER_V1
    body = header.size + (_CRC.size if version == VERSION else 0)
    if len(raw) < body:
        raise CheckpointError(f"{path}: truncated header")
    fields = header.unpack_from(raw, 0)
    nx, ny, t, dt = fields[2:6]
    walls = 2 * nx if version == VERSION else 4 * nx  # v1 adds two slip accumulators
    need = body + 8 * (ny * nx + ny + walls)
    if len(raw) != need:
        raise CheckpointError(f"{path}: expected {need} bytes, found {len(raw)}")
    physics = None
    if version == VERSION:
        (crc,) = _CRC.unpack_from(raw, header.size)
        if crc != zlib.crc32(raw[body:], zlib.crc32(raw[: header.size])):
            raise CheckpointError(f"{path}: CRC32 mismatch, the file is corrupt")
        stored = list(fields[6:])
        stored[6:8] = [s.rstrip(b"\0").decode("ascii") for s in stored[6:8]]
        physics = dict(zip(PHYSICS_KEYS, stored))
        lx = physics["lx"]
    try:
        grid = ChannelGrid(nx=nx, ny=ny, lx=lx)
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
    omega_vals, mean_vals, g, _ = np.split(arr, np.cumsum([ny * nx, ny, 2 * nx]))
    omega = grid.phys_to_spec(omega_vals.reshape(ny, nx))[:, 1 : grid.dealias_kx + 1]
    state = FlowState(
        grid=grid,
        omega=omega.copy(),
        mean=cheb_forward(mean_vals),
        g=g.reshape(2, nx).copy(),
        t=t,
        step_index=steps,
    )
    return Checkpoint(grid, state, dt, physics)
