"""Flat key=value experiment configuration.

A config file is UTF-8 text, one ``key = value`` pair per line, ``#``
starting a comment.  Each experiment kind accepts only the keys its
driver reads (``KIND_KEYS``); an unknown key, a duplicate, or a key the
kind does not read is rejected with its line number.  Every key has a
default, so the empty file is a valid single-run plan; a few keys get
kind-specific defaults (sweep value lists, the resolved short run of the
budget-order experiment) when the user does not set them explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

from .flow import SolverConfig, whole_steps
from .grid import ChannelGrid, GridError
from .params import ParameterError, SimParams


class ConfigError(ValueError):
    """Malformed, unknown, or inconsistent configuration input."""


# the model, grid and time-step keys every flow driver reads
_FLOW = ("re", "wi", "tau", "alpha", "kappa", "nx", "ny", "lx", "dt", "t_end", "cfl_max")

# kind -> the keys its driver reads besides kind; micro_verify runs on the
# fixed constants of its driver and reads none
KIND_KEYS = {
    "single_run": _FLOW + ("forcing_amplitude", "checkpoint_every", "record_every"),
    "sweep_re": _FLOW + ("forcing_amplitude", "record_every", "sweep_values"),
    # alpha is the swept value
    "sweep_alpha": tuple(k for k in _FLOW if k != "alpha")
    + ("forcing_amplitude", "record_every", "sweep_values"),
    "micro_verify": (),
    "energy_audit": _FLOW,
    "inviscid_limit": _FLOW + ("sweep_values",),
}

KINDS = tuple(KIND_KEYS)

_SWEEP_KINDS = tuple(kind for kind, keys in KIND_KEYS.items() if "sweep_values" in keys)

# sweep_re's forced phase runs over this span whatever t_end is
FORCED_PHASE_SPAN = 0.5
# inviscid_limit compares its runs at multiples of this spacing
INVISCID_SAMPLE_SPACING = 0.05

def _parse_values(s: str) -> list:
    parts = [p.strip() for p in s.split(",")]
    if any(not p for p in parts):
        raise ValueError(f"expected comma-separated numbers, got {s!r}")
    return [float(p) for p in parts]


# key -> (parser, default)
_SCHEMA = {
    # dimensionless groups
    "re": (float, 250.0),
    "wi": (float, 1.0),
    "tau": (float, 1.0),
    "alpha": (float, 10.0),
    "kappa": (float, 0.0),
    # discretization
    "nx": (int, 64),
    "ny": (int, 65),
    "lx": (float, 6.283185307179586),
    # time integration
    "dt": (float, 1e-3),
    "t_end": (float, 1.0),
    # a nonzero amplitude drives the flow by a steady pressure gradient
    "forcing_amplitude": (float, 0.0),
    "cfl_max": (float, 0.5),
    "checkpoint_every": (int, 1000),
    "record_every": (int, 1),
    # experiment selection
    "kind": (str, "single_run"),
    "sweep_values": (_parse_values, []),
}

# applied only when the user left the key at its default; acceptance
# configurations for the canned experiments.  Each sweep dt divides its
# horizons and sample spacing, keeps the peak directional CFL number of the
# shipped 64x65 configs within half the measured blow-up boundary, and moves
# no verdict by more than 1% of its margin when halved (tests/test_acceptance.py).
_KIND_DEFAULTS = {
    "sweep_re": {"sweep_values": [250.0, 500.0, 1000.0, 2000.0, 4000.0], "t_end": 2.0, "dt": 2e-2},
    "sweep_alpha": {"sweep_values": [10.0, 100.0, 1000.0], "t_end": 0.5, "dt": 5e-3},
    "inviscid_limit": {"sweep_values": [250.0, 1000.0, 4000.0], "dt": 1.25e-2, "t_end": 0.5},
    "energy_audit": {"re": 20.0, "nx": 32, "ny": 33, "dt": 2e-3, "t_end": 0.2},
}


@dataclass(frozen=True)
class ExperimentPlan:
    """A fully validated experiment: model, discretization, and driver."""

    kind: str
    sim: SimParams
    nx: int
    ny: int
    lx: float
    solver: SolverConfig
    sweep_values: tuple
    output_dir: Path = Path("runs")
    seed: int = 0

    def echo(self) -> dict:
        """kind and the kind's keys with the values the plan holds, then output_dir and seed."""
        sim, solver = self.sim, self.solver
        held = {
            "re": sim.Re, "wi": sim.Wi, "tau": sim.tau, "alpha": sim.alpha, "kappa": sim.kappa,
            "nx": self.nx, "ny": self.ny, "lx": self.lx,
            "dt": solver.dt, "t_end": solver.t_end, "cfl_max": solver.cfl_max,
            "forcing_amplitude": solver.forcing_amplitude,
            "checkpoint_every": solver.checkpoint_every, "record_every": solver.record_every,
            "sweep_values": list(self.sweep_values),
        }
        out = {"kind": self.kind, **{key: held[key] for key in KIND_KEYS[self.kind]}}
        return {**out, "output_dir": str(self.output_dir), "seed": self.seed}

    def with_output(self, output_dir, seed=None) -> "ExperimentPlan":
        kw = {"output_dir": Path(output_dir)}
        if seed is not None:
            kw["seed"] = seed
        return replace(self, **kw)

    def grid(self) -> ChannelGrid:
        return ChannelGrid(nx=self.nx, ny=self.ny, lx=self.lx)


def _check_whole_steps(what: str, span: float, dt: float) -> None:
    """The flow solver steps by dt (ChannelFlowSolver.run, same rule)."""
    if whole_steps(span, dt) is None:
        raise ConfigError(f"{what} = {span} is not a whole number of steps of dt = {dt}")


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

    for key, lineno in seen_lines.items():
        if key != "kind" and key not in KIND_KEYS[kind]:
            raise ConfigError(f"line {lineno}: key {key!r} is not read by kind={kind}")

    resolved = {k: default for k, (_, default) in _SCHEMA.items()}
    resolved.update(_KIND_DEFAULTS.get(kind, {}))
    resolved.update(values)
    resolved["kind"] = kind

    if kind in _SWEEP_KINDS and not resolved["sweep_values"]:
        raise ConfigError(f"kind={kind} needs a nonempty sweep_values list")
    sweep = resolved["sweep_values"]
    if not all(math.isfinite(v) and v > 0 for v in sweep):
        raise ConfigError(f"sweep_values must be positive and finite, got {sweep}")
    if kind in ("sweep_re", "sweep_alpha") and resolved["forcing_amplitude"] < 0:
        raise ConfigError(
            f"kind={kind} drives Re*F = forcing_amplitude*re, so forcing_amplitude must "
            f"be >= 0 (0 selects Re*F = 1), got {resolved['forcing_amplitude']}"
        )
    if kind == "energy_audit" and resolved["t_end"] <= 0:
        raise ConfigError(
            f"kind=energy_audit needs at least one step to audit: t_end must be "
            f"positive, got {resolved['t_end']}"
        )

    if kind == "sweep_alpha":
        # the driver runs the model at each swept alpha and reads no alpha
        # key; the plan carries the first, and every one is checked below
        resolved["alpha"] = sweep[0]

    try:
        sim = SimParams(
            Re=resolved["re"],
            Wi=resolved["wi"],
            tau=resolved["tau"],
            alpha=resolved["alpha"],
            kappa=resolved["kappa"],
        )
        if kind == "sweep_alpha":
            for alpha in sweep[1:]:
                replace(sim, alpha=alpha)
        solver = SolverConfig(
            dt=resolved["dt"],
            t_end=resolved["t_end"],
            forcing_amplitude=resolved["forcing_amplitude"],
            cfl_max=resolved["cfl_max"],
            checkpoint_every=resolved["checkpoint_every"],
            record_every=resolved["record_every"],
        )
        ChannelGrid(nx=resolved["nx"], ny=resolved["ny"], lx=resolved["lx"])
    except (ParameterError, GridError, ValueError) as exc:
        raise ConfigError(str(exc)) from None
    _check_whole_steps("t_end", solver.t_end, solver.dt)
    if kind == "sweep_re":
        _check_whole_steps("the forced phase span", FORCED_PHASE_SPAN, solver.dt)
    if kind == "inviscid_limit":
        _check_whole_steps("the inviscid sample spacing", INVISCID_SAMPLE_SPACING, solver.dt)

    return ExperimentPlan(
        kind=kind,
        sim=sim,
        nx=resolved["nx"],
        ny=resolved["ny"],
        lx=resolved["lx"],
        solver=solver,
        sweep_values=tuple(sweep),
    )


def load_config(path, force_kind: str | None = None) -> ExperimentPlan:
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {p}: {exc}") from None
    return parse_config(text, force_kind=force_kind)
