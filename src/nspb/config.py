"""Flat key=value experiment configuration.

A config file is UTF-8 text, one ``key = value`` pair per line, ``#``
starting a comment.  Unknown or duplicate keys are rejected with their
line number.  Every key has a default, so the empty file is a valid
single-run plan; a few keys get kind-specific defaults (sweep value
lists, the resolved short run of the budget-order experiment) when the
user does not set them explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

from .flow import SolverConfig
from .grid import ChannelGrid, GridError
from .params import ParameterError, SimParams


class ConfigError(ValueError):
    """Malformed, unknown, or inconsistent configuration input."""


KINDS = (
    "single_run",
    "sweep_re",
    "sweep_alpha",
    "micro_verify",
    "energy_audit",
    "inviscid_limit",
)

_SWEEP_KINDS = ("sweep_re", "sweep_alpha", "inviscid_limit")

# key -> (parser, default)
_BOOL_WORDS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _parse_bool(s: str) -> bool:
    try:
        return _BOOL_WORDS[s.strip().lower()]
    except KeyError:
        raise ValueError(f"expected a boolean (true/false), got {s!r}")


def _parse_values(s: str):
    parts = [p.strip() for p in s.split(",")]
    if any(not p for p in parts):
        raise ValueError(f"expected comma-separated numbers, got {s!r}")
    return tuple(float(p) for p in parts)


_SCHEMA = {
    # dimensionless groups
    "re": (float, 250.0),
    "wi": (float, 1.0),
    "tau": (float, 1.0),
    "alpha": (float, 10.0),
    "kappa": (float, 0.0),
    "stokes_einstein": (_parse_bool, True),
    # discretization
    "nx": (int, 64),
    "ny": (int, 65),
    "lx": (float, 6.283185307179586),
    # time integration
    "dt": (float, 1e-3),
    "t_end": (float, 1.0),
    "mode": (str, "navier_stokes"),
    "forcing": (str, "zero"),
    "forcing_amplitude": (float, 0.0),
    "cfl_max": (float, 0.5),
    "checkpoint_every": (int, 1000),
    "record_every": (int, 1),
    # experiment selection
    "kind": (str, "single_run"),
    "sweep_values": (_parse_values, ()),
}

# applied only when the user left the key at its default; acceptance
# configurations for the canned experiments
_KIND_DEFAULTS = {
    "sweep_re": {"sweep_values": (250.0, 500.0, 1000.0, 2000.0, 4000.0), "t_end": 2.0, "dt": 5e-4},
    "sweep_alpha": {"sweep_values": (10.0, 100.0, 1000.0), "t_end": 0.5, "dt": 5e-4},
    "inviscid_limit": {"sweep_values": (250.0, 1000.0, 4000.0), "dt": 5e-4, "t_end": 0.5},
    "energy_audit": {"re": 20.0, "nx": 32, "ny": 33, "dt": 2e-3, "t_end": 0.2},
}


@dataclass(frozen=True)
class ExperimentPlan:
    """A fully validated experiment: model, discretization, and driver."""

    kind: str
    sim: SimParams
    stokes_einstein: bool
    nx: int
    ny: int
    lx: float
    solver: SolverConfig
    sweep_values: tuple
    output_dir: Path = Path("runs")
    seed: int = 0
    raw: dict = field(default_factory=dict)

    def echo(self) -> dict:
        """Every key with its resolved value, defaults included."""
        out = dict(self.raw)
        out["output_dir"] = str(self.output_dir)
        out["seed"] = self.seed
        return out

    def with_output(self, output_dir, seed=None) -> "ExperimentPlan":
        from dataclasses import replace

        kw = {"output_dir": Path(output_dir)}
        if seed is not None:
            kw["seed"] = seed
        return replace(self, **kw)

    def grid(self) -> ChannelGrid:
        return ChannelGrid(nx=self.nx, ny=self.ny, lx=self.lx)


def parse_config(text: str, force_kind: str | None = None) -> ExperimentPlan:
    """Parse and validate a key=value config into an ExperimentPlan.

    ``force_kind`` is how a named subcommand imposes its experiment kind: a
    config without a ``kind`` line inherits it (including the kind's
    defaults), while a conflicting explicit ``kind`` is rejected.
    """
    values = {}
    seen_lines = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key=value, got {stripped!r}")
        key, _, raw_value = stripped.partition("=")
        key = key.strip()
        raw_value = raw_value.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(
                f"line {lineno}: duplicate key {key!r} (first set on line {seen_lines[key]})"
            )
        parser, _ = _SCHEMA[key]
        try:
            values[key] = parser(raw_value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from None
        seen_lines[key] = lineno

    if force_kind is not None and force_kind not in KINDS:
        raise ConfigError(f"kind must be one of {KINDS}, got {force_kind!r}")
    if force_kind is not None and "kind" in values and values["kind"] != force_kind:
        raise ConfigError(
            f"config sets kind={values['kind']!r} but the subcommand implies {force_kind!r}"
        )
    kind = values.get("kind", force_kind or _SCHEMA["kind"][1])
    if kind not in KINDS:
        raise ConfigError(f"kind must be one of {KINDS}, got {kind!r}")

    resolved = {k: default for k, (_, default) in _SCHEMA.items()}
    resolved.update(_KIND_DEFAULTS.get(kind, {}))
    resolved.update(values)
    resolved["kind"] = kind

    if kind in _SWEEP_KINDS and not resolved["sweep_values"]:
        raise ConfigError(f"kind={kind} needs a nonempty sweep_values list")
    sweep = resolved["sweep_values"]
    if not all(math.isfinite(v) and v > 0 for v in sweep):
        raise ConfigError(f"sweep_values must be positive and finite, got {sweep}")

    try:
        sim = SimParams(
            Re=resolved["re"],
            Wi=resolved["wi"],
            tau=resolved["tau"],
            alpha=resolved["alpha"],
            kappa=resolved["kappa"],
        )
        solver = SolverConfig(
            dt=resolved["dt"],
            t_end=resolved["t_end"],
            mode=resolved["mode"],
            forcing=resolved["forcing"],
            forcing_amplitude=resolved["forcing_amplitude"],
            cfl_max=resolved["cfl_max"],
            checkpoint_every=resolved["checkpoint_every"],
            record_every=resolved["record_every"],
        )
        ChannelGrid(nx=resolved["nx"], ny=resolved["ny"], lx=resolved["lx"])
    except (ParameterError, GridError, ValueError) as exc:
        raise ConfigError(str(exc)) from None

    return ExperimentPlan(
        kind=kind,
        sim=sim,
        stokes_einstein=resolved["stokes_einstein"],
        nx=resolved["nx"],
        ny=resolved["ny"],
        lx=resolved["lx"],
        solver=solver,
        sweep_values=tuple(resolved["sweep_values"]),
        raw=dict(resolved),
    )


def load_config(path, force_kind: str | None = None) -> ExperimentPlan:
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {p}: {exc}") from None
    return parse_config(text, force_kind=force_kind)
