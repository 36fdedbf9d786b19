"""Binary checkpoint format for restartable runs.

Layout (little endian).  Header: magic b"NSPB", version u32 (3), nx u32,
ny u32, t f64, dt f64, then the physics the run was made with: lx, Re, Wi,
tau, alpha, kappa (f64 each), mode (32-byte ASCII, NUL padded),
forcing_amplitude f64, and last a CRC32 u32 of every other byte of the
file.  Payload, row-major, the arrays of a ``FlowState`` as the step holds
them, with J = nx // 3 (``grid.dealias_kx``): omega (ny, J) as <c16, the
mean profile's coefficients (ny,) as <f8 and g (2, J+1) as <c16.  Any
other version, or a mode that is not ASCII, is a ``CheckpointError``.

The header is the record of the run: every value it stores besides t is
one entry of ``run_record``, which ``write_checkpoint`` packs and
``read_checkpoint`` returns, so a restart can be checked against all of it.

Nothing is converted on the way in or out, so a state read back equals the
state written bit for bit, and a restart steps the same bytes as the
uninterrupted run.  A header whose grid, t or dt no solver state can have,
or whose t is not a whole number of dt steps, is a ``CheckpointError``.
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
from .grid import ChannelGrid, GridError
from .params import SimParams

MAGIC = b"NSPB"
VERSION = 3
_PREFIX = struct.Struct("<4sI")
_HEADER = struct.Struct("<4sIIIdd6d32sd")  # without its closing CRC32
_CRC = struct.Struct("<I")
_DTYPES = ("<c16", "<f8", "<c16")  # the payload: omega, mean, g
# what a header stores besides t, in header order (run_record maps a run to
# it): config keys plus the run's mode
RUN_KEYS = (
    "nx", "ny", "dt", "lx", "re", "wi", "tau", "alpha", "kappa",
    "mode", "forcing_amplitude",
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
        config.mode, config.forcing_amplitude,
    )
    return dict(zip(RUN_KEYS, values))


def write_checkpoint(path, state: FlowState, params: SimParams, config: SolverConfig) -> None:
    """Serialize a state with the run it was advanced under."""
    nx, ny, dt, *physics = run_record(state.grid, params, config).values()
    physics[6] = physics[6].encode("ascii")  # mode
    header = _HEADER.pack(MAGIC, VERSION, nx, ny, state.t, dt, *physics)
    payload = b"".join(
        np.ascontiguousarray(arr, dtype=dtype).tobytes()
        for arr, dtype in zip((state.omega, state.mean, state.g), _DTYPES)
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
    J = nx // 3  # grid.dealias_kx, known before a grid is built
    shapes = ((ny, J), (ny,), (2, J + 1))
    need = body + sum(np.dtype(d).itemsize * math.prod(s) for d, s in zip(_DTYPES, shapes))
    if len(raw) != need:
        raise CheckpointError(f"{path}: expected {need} bytes, found {len(raw)}")
    (crc,) = _CRC.unpack_from(raw, _HEADER.size)
    if crc != zlib.crc32(raw[body:], zlib.crc32(raw[: _HEADER.size])):
        raise CheckpointError(f"{path}: CRC32 mismatch, the file is corrupt")
    if not physics[6].isascii():
        raise CheckpointError(f"{path}: mode is not ASCII text")
    physics[6] = physics[6].rstrip(b"\0").decode("ascii")
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
    arrays, offset = [], body
    for dtype, shape in zip(_DTYPES, shapes):
        arr = np.frombuffer(raw, dtype, math.prod(shape), offset)
        arrays.append(arr.reshape(shape).copy())  # owned, not a view of the file bytes
        offset += arr.nbytes
    omega, mean, g = arrays
    return Checkpoint(FlowState(grid, omega, mean, g, t=t, step_index=steps), run)
