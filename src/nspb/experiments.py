"""Canned experiment drivers behind the command line.

Each driver turns an ExperimentPlan into files under the plan's output
directory (records CSVs, a JSON summary, checkpoints) plus a RunSummary
whose named checks carry the pass/fail verdicts.  Sweep drivers hold the
friction ratio alpha*Re*Wi/tau fixed by scaling tau proportionally to Re;
every sweep summary states this.  All CSV output is byte-deterministic
for a fixed plan and seed; wall-clock data lives only in the summary.
"""

from __future__ import annotations

import json
import math
import time
from concurrent import futures
from dataclasses import asdict, dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .checkpoint import PHYSICS_KEYS, read_checkpoint, run_physics, write_atomic, write_checkpoint
from .config import FORCED_PHASE_SPAN, INVISCID_SAMPLE_SPACING, ConfigError, ExperimentPlan
from .diagnostics import (
    compute_record,
    energy_audit,
    euler_error,
    fit_scaling,
    time_average,
    total_energy,
    write_records,
)
from .flow import (
    ChannelFlowSolver,
    FlowState,
    SolverConfig,
    initial_state,
    steady_channel_state,
    whole_steps,
)
from .fplanck import FPGrid, fokker_planck_solve, gibbs_density
from .grid import ChannelGrid
from .micro import (
    SpringPotential,
    closure_equilibrium,
    closure_ode_step,
    ensemble_to_csv,
    equilibrium_ensemble,
    hookean_exact_walk,
    kramers_stress,
    memory_closure_equilibrium,
    memory_closure_step,
)
from .params import PhysicalParams, SimParams

# acceptance thresholds enforced by the drivers
DISSIPATION_SLOPE_WINDOW = (-1.2, -0.8)
INVISCID_SLOPE_WINDOW = (-0.7, -0.35)
DISSIPATION_R2_MIN = 0.98
FRICTION_FORM_TOL = 1e-8
VORTICITY_SUP_RATIO_MAX = 2.0
SLIP_TREND_TOL = 0.10
BUDGET_ORDER_MIN = 1.8
ENERGY_RISE_TOL = 1e-10
FP_L1_TOL = 1e-3

# canned experiment shapes
PERTURBATION_AMPLITUDE = 0.05
FORCED_BULK_REF = 1.0  # Re*F held at this value across forced sweeps

# micro verification scale (ensemble size pinned by the advertised tolerance:
# 3 standard errors plus an absolute bias allowance).  The exact-in-law step's
# mean sigma_tn is within 1e-6 of the exact memory closure at MC_DT, far below
# a third of the allowance; MC_DT must divide the horizon and the spacing.
MC_MEMBERS = 100_000
MC_DT = 5e-3
MC_T_END = 5.0
MC_COMPARE_SPACING = 0.5
MC_BIAS_ALLOWANCE = 5e-3
MC_SLIP_AMPLITUDE = 1.0
MC_SIN_PERIOD = 2.5
TN_DEFECT_BAND = (1.35, 1.65)
# the slowest density mode of the Hookean half-space process decays at
# 1/(2*lambda), so the horizon is counted in units of 2*lambda
FP_RELAX_MULTIPLE = 18.0


@dataclass(frozen=True)
class Check:
    """One pass/fail verdict with the number it was judged on."""

    name: str
    passed: bool
    value: float | None
    requirement: str
    detail: str = ""


@dataclass
class RunSummary:
    kind: str
    config: dict
    notes: list = field(default_factory=list)
    points: list = field(default_factory=list)
    fits: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    outputs: list = field(default_factory=list)
    runtime_failures: int = 0
    total_steps: int = 0
    wall_clock_seconds: float = 0.0
    started_at: str = ""
    finished_at: str = ""

    @property
    def passed(self) -> bool:
        return self.runtime_failures == 0 and all(c.passed for c in self.checks)

    @property
    def exit_code(self) -> int:
        if self.runtime_failures:
            return 3
        return 0 if self.passed else 1

    def add_check(self, name, passed, value, requirement, detail="") -> None:
        self.checks.append(Check(name, bool(passed), value, requirement, detail))

    def to_json_dict(self) -> dict:
        return {**asdict(self), "passed": self.passed, "exit_code": self.exit_code}


def _now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _label(x: float) -> str:
    return f"{float(x):g}".replace(".", "p").replace("-", "m")


def perturbation_velocity(grid: ChannelGrid, amplitude: float = PERTURBATION_AMPLITUDE):
    """Solenoidal cellular perturbation, velocity flat at both walls.

    Streamfunction a*(1-y^2)^3*(cos x + 0.5 sin 2x); the sextic envelope
    keeps both velocity components and their first derivatives zero on the
    walls, so perturbed data stays compatible with any wall law.
    """
    X, Y = np.meshgrid(grid.x, grid.y)
    env2 = (1.0 - Y**2) ** 2
    u = 6.0 * amplitude * Y * env2 * (np.cos(X) + 0.5 * np.sin(2 * X))
    v = amplitude * env2 * (1.0 - Y**2) * (-np.sin(X) + np.cos(2 * X))
    return u, v


def shear_decay_state(grid: ChannelGrid, params: SimParams) -> FlowState:
    """Smooth shear data for decay sweeps: half-sine profile plus cells."""
    up, vp = perturbation_velocity(grid)
    Y = grid.y[:, None]
    return initial_state(grid, params, u=np.sin(np.pi * Y / 2.0) + up, v=vp)


def couette_perturbed_state(grid: ChannelGrid, params: SimParams) -> FlowState:
    """Linear shear (an exact steady Euler flow) plus a small cell field."""
    up, vp = perturbation_velocity(grid)
    Y = grid.y[:, None]
    return initial_state(grid, params, u=Y + up, v=vp)


def _point_params(base: SimParams, Re: float) -> SimParams:
    """Sweep point at a new Re with tau scaled to hold friction_ratio."""
    return replace(base, Re=Re, tau=base.tau * Re / base.Re)


def _bulk_drive(plan: ExperimentPlan) -> float:
    """Re*F of the forced sweep runs: the config's amplitude at its own Re,
    or FORCED_BULK_REF when the amplitude is left at zero."""
    F0 = plan.solver.forcing_amplitude
    return F0 * plan.sim.Re if F0 > 0 else FORCED_BULK_REF


def _forced_config(base: SolverConfig, F: float, t_end: float) -> SolverConfig:
    return replace(
        base,
        t_end=t_end,
        forcing="steady_pressure_gradient",
        forcing_amplitude=F,
    )


def _trajectory(solver, state, every, take, on_step=None):
    """Run solver from state to its t_end; return the final state and samples.

    ``take`` maps to a sample the start state, every state whose step_index is
    a multiple of ``every`` and the final state if no sample landed on it.
    ``on_step``, if given, sees every stepped state.
    """
    samples = [take(state)]

    def cb(s):
        if s.step_index % every == 0:
            samples.append(take(s))
        if on_step is not None:
            on_step(s)

    final = solver.run(state, callback=cb)
    if final is not state and final.step_index % every != 0:
        samples.append(take(final))
    return final, samples


def _cfl_peak(solver, run: str) -> dict:
    """The largest directional CFL number the solver's guard saw, its t and run."""
    value, t = solver.cfl_peak
    return {"value": value, "t": t, "run": run}


def _higher_cfl(*peaks: dict) -> dict:
    return max(peaks, key=lambda p: p["value"])


def _recorder(solver):
    """Sample a state as its diagnostics record under the solver's physics."""
    return lambda s: compute_record(s, solver.params, solver.config.mean_force)


def _sweep_points(summary: RunSummary, key: str, values, run_point) -> list:
    """Fill in point = {key: value} by run_point(value, point) for each value.

    A point that raises keeps its error and counts as a runtime failure.
    Every point lands in summary.points; the successful ones are returned.
    """
    done = []
    for value in values:
        point = {key: value}
        try:
            run_point(value, point)
        except Exception as exc:  # per-point aborts keep the sweep going
            point["error"] = f"{type(exc).__name__}: {exc}"
            summary.runtime_failures += 1
        else:
            done.append(point)
        summary.points.append(point)
    return done


def _slope_check(summary: RunSummary, name: str, fit, window, what: str) -> None:
    lo, hi = window
    summary.add_check(
        name, lo <= fit.slope <= hi, fit.slope, f"log-log slope of {what} in [{lo}, {hi}]"
    )


def _write_table(outdir: Path, name: str, version: str, header: str, rows, summary) -> None:
    """Versioned CSV of float rows, each value written with repr."""
    with open(outdir / name, "w", newline="") as fh:
        fh.write(f"# {version}\n{header}\n")
        for r in rows:
            fh.write(",".join(repr(float(v)) for v in r) + "\n")
    summary.outputs.append(name)


def execute(plan: ExperimentPlan, checkpoint: str | Path | None = None) -> RunSummary:
    """Run the plan's driver, writing all outputs under plan.output_dir."""
    outdir = Path(plan.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    summary = RunSummary(
        kind="restart" if checkpoint is not None else plan.kind, config=plan.echo()
    )
    summary.started_at = _now()
    tic = time.monotonic()
    if checkpoint is not None:
        _drive_restart(plan, Path(checkpoint), outdir, summary)
    else:
        driver = {
            "single_run": _drive_single_run,
            "sweep_re": _drive_sweep_re,
            "sweep_alpha": _drive_sweep_alpha,
            "micro_verify": _drive_micro_verify,
            "energy_audit": _drive_energy_audit,
            "inviscid_limit": _drive_inviscid_limit,
        }[plan.kind]
        driver(plan, outdir, summary)
    summary.wall_clock_seconds = time.monotonic() - tic
    summary.finished_at = _now()
    _write_summary(outdir, summary)
    return summary


def _write_summary(outdir: Path, summary: RunSummary) -> None:
    if "summary.json" not in summary.outputs:
        summary.outputs.append("summary.json")
    text = json.dumps(summary.to_json_dict(), indent=2) + "\n"
    write_atomic(outdir / "summary.json", text.encode("ascii"))


# ---- single run and restart ----


def _drive_single_run(plan: ExperimentPlan, outdir: Path, summary: RunSummary) -> None:
    grid = plan.grid()
    solver = ChannelFlowSolver(grid, plan.sim, plan.solver)
    _advance_with_outputs(solver, initial_state(grid, plan.sim), outdir, summary)


def _drive_restart(
    plan: ExperimentPlan, ckpt: Path, outdir: Path, summary: RunSummary
) -> None:
    grid, state, dt, physics = read_checkpoint(ckpt, lx=plan.lx)
    if physics is None:
        summary.notes.append(
            f"{ckpt} is a version 1 checkpoint, which stores no physics: "
            f"{', '.join(PHYSICS_KEYS)} taken from this run unverified"
        )
    else:
        run = run_physics(plan.sim, plan.solver, plan.lx)
        for key, value in physics.items():
            if run[key] != value:
                raise ConfigError(
                    f"checkpoint {ckpt} was written with {key}={value!r}, "
                    f"but this run has {key}={run[key]!r}"
                )
    if (grid.nx, grid.ny) != (plan.nx, plan.ny):
        summary.notes.append(
            f"grid {grid.nx}x{grid.ny} taken from the checkpoint (config said "
            f"{plan.nx}x{plan.ny})"
        )
    cfg = plan.solver
    if abs(dt - cfg.dt) > 1e-15 * max(dt, cfg.dt):
        summary.notes.append(f"dt={dt!r} taken from the checkpoint (config said {cfg.dt!r})")
        cfg = replace(cfg, dt=dt)
    summary.notes.append(f"restarted from {ckpt} at t={state.t!r}")
    _advance_with_outputs(ChannelFlowSolver(grid, plan.sim, cfg), state, outdir, summary)


def _advance_with_outputs(solver, state, outdir: Path, summary: RunSummary) -> None:
    """Shared trajectory driver: records, periodic checkpoints, final state."""
    ckdir = outdir / "checkpoints"
    ckdir.mkdir(exist_ok=True)
    cfg = solver.config
    params = solver.params

    def checkpoint(s):
        if s.step_index % cfg.checkpoint_every == 0:
            write_checkpoint(ckdir / f"step{s.step_index:08d}.ckpt", s, params, cfg)

    final, records = _trajectory(solver, state, cfg.record_every, _recorder(solver), checkpoint)
    write_checkpoint(ckdir / "final.ckpt", final, params, cfg)
    summary.outputs.append("checkpoints/final.ckpt")
    write_records(outdir / "records.csv", records)
    summary.outputs.append("records.csv")
    summary.total_steps += final.step_index - state.step_index
    last = records[-1]
    summary.points.append(
        {
            "t_final": final.t,
            "steps": final.step_index,
            "kinetic_energy": last.kinetic_energy,
            "omega_inf_norm": last.omega_inf_norm,
            "momentum_x": last.momentum_x,
            "cfl_peak": _cfl_peak(solver, cfg.mode),
        }
    )


# ---- Reynolds sweep: dissipation decay, forced friction, vorticity bound ----


def _drive_sweep_re(plan: ExperimentPlan, outdir: Path, summary: RunSummary) -> None:
    grid = plan.grid()
    base = plan.sim
    summary.notes.append(
        f"friction_ratio held fixed at {base.friction_ratio:g} across the sweep "
        f"by scaling tau proportionally to Re"
    )
    bulk = _bulk_drive(plan)
    summary.notes.append(f"forced phase drives Re*F = {bulk:g} at every point")
    every = plan.solver.record_every

    def run_point(Re, point):
        params = _point_params(base, Re)
        point["tau"] = params.tau
        # phase A: unforced decay from smooth shear data
        solver = ChannelFlowSolver(grid, params, replace(plan.solver, forcing="zero"))
        state = shear_decay_state(grid, params)
        final, recs = _trajectory(solver, state, every, _recorder(solver))
        name = f"records_re{_label(Re)}_decay.csv"
        write_records(outdir / name, recs)
        summary.outputs.append(name)
        summary.total_steps += final.step_index
        point["dissipation_average"] = time_average(recs, "dissipation_rate")
        point["omega_sup"] = max(r.omega_inf_norm for r in recs)

        # phase B: steady pressure gradient from the analytic steady state
        F = bulk / Re
        fcfg = _forced_config(plan.solver, F, FORCED_PHASE_SPAN)
        fsolver = ChannelFlowSolver(grid, params, fcfg)
        fstate = steady_channel_state(grid, params, F)
        ffinal, frecs = _trajectory(fsolver, fstate, every, _recorder(fsolver))
        name = f"records_re{_label(Re)}_forced.csv"
        write_records(outdir / name, frecs)
        summary.outputs.append(name)
        summary.total_steps += ffinal.step_index
        point["friction_trace_mean"] = time_average(frecs, "friction_trace")
        point["friction_form_gap"] = max(
            abs(r.friction_trace - r.friction_tangential) for r in frecs
        )
        point["forcing_amplitude"] = F
        point["cfl_peak"] = _higher_cfl(_cfl_peak(solver, "decay"), _cfl_peak(fsolver, "forced"))

    done = _sweep_points(summary, "re", plan.sweep_values, run_point)
    if len(done) >= 3:
        re_done = [p["re"] for p in done]
        fit_eps = fit_scaling(re_done, [p["dissipation_average"] for p in done])
        fit_f = fit_scaling(re_done, [p["friction_trace_mean"] for p in done])
        summary.fits["dissipation_vs_re"] = fit_eps.to_json_dict()
        summary.fits["friction_vs_re"] = fit_f.to_json_dict()
        _slope_check(
            summary, "dissipation_re_slope", fit_eps, DISSIPATION_SLOPE_WINDOW,
            "mean dissipation vs Re",
        )
        summary.add_check(
            "dissipation_re_fit_r2",
            fit_eps.r_squared >= DISSIPATION_R2_MIN,
            fit_eps.r_squared,
            f"dissipation fit r^2 >= {DISSIPATION_R2_MIN}",
        )
        _slope_check(
            summary, "friction_re_slope", fit_f, DISSIPATION_SLOPE_WINDOW,
            "mean wall friction vs Re",
        )
        gap_sup = max(p["friction_form_gap"] for p in done)
        summary.add_check(
            "friction_forms_pointwise_agree",
            gap_sup <= FRICTION_FORM_TOL,
            gap_sup,
            f"trace vs tangential friction forms within {FRICTION_FORM_TOL:g} on every record",
        )
        om_sup = [p["omega_sup"] for p in done]
        ratio = max(om_sup) / min(om_sup)
        summary.add_check(
            "vorticity_sup_re_uniform",
            ratio <= VORTICITY_SUP_RATIO_MAX,
            ratio,
            f"max-in-time vorticity sup-norm spread across Re <= {VORTICITY_SUP_RATIO_MAX}x",
        )


# ---- alpha sweep: no-slip recovery ----


def _drive_sweep_alpha(plan: ExperimentPlan, outdir: Path, summary: RunSummary) -> None:
    grid = plan.grid()
    base = plan.sim
    bulk = _bulk_drive(plan)
    F = bulk / base.Re
    summary.notes.append(
        f"alpha sweep at Re={base.Re:g}, steady pressure gradient with Re*F = {bulk:g}"
    )
    cfg = _forced_config(plan.solver, F, plan.solver.t_end)

    def run_point(alpha, point):
        params = replace(base, alpha=alpha)
        solver = ChannelFlowSolver(grid, params, cfg)
        state = steady_channel_state(grid, params, F)
        final, recs = _trajectory(solver, state, cfg.record_every, _recorder(solver))
        name = f"records_alpha{_label(alpha)}.csv"
        write_records(outdir / name, recs)
        summary.outputs.append(name)
        summary.total_steps += final.step_index
        point["slip_sup"] = float(np.abs(solver.slip_traces(final)).max())
        point["slip_mean_top"] = recs[-1].wall_u_top_mean
        point["cfl_peak"] = _cfl_peak(solver, "forced")

    done = _sweep_points(summary, "alpha", plan.sweep_values, run_point)
    slips = [p["slip_sup"] for p in done]
    alphas = [p["alpha"] for p in done]
    if len(alphas) >= 2:
        decreasing = all(b < a for a, b in zip(slips, slips[1:]))
        summary.add_check(
            "slip_strictly_decreasing_in_alpha",
            decreasing,
            min(a / b for a, b in zip(slips, slips[1:])),
            "steady wall slip strictly decreasing as alpha grows",
            detail=f"slips={slips!r}",
        )
        scaled = [s * a for s, a in zip(slips, alphas)]
        spread = max(scaled) / min(scaled) - 1.0
        summary.add_check(
            "slip_inverse_alpha_trend",
            spread <= SLIP_TREND_TOL,
            spread,
            f"alpha * slip constant to within {SLIP_TREND_TOL:.0%}",
        )


# ---- micro-macro verification ----


def _micro_phys(plan: ExperimentPlan) -> PhysicalParams:
    """The micro physics, which no config key sets: unit bead drag, so the
    default spring relaxes in exactly one time unit."""
    return PhysicalParams()


def _mc_slip(name: str):
    if name == "constant":
        return lambda t: MC_SLIP_AMPLITUDE
    return lambda t: MC_SLIP_AMPLITUDE * np.sin(2.0 * np.pi * t / MC_SIN_PERIOD)


def _micro_schedule() -> tuple[int, int]:
    """Steps to MC_T_END and steps between comparisons, whole numbers with
    1 <= every <= n_steps, so at least one comparison falls in the horizon."""
    n_steps = whole_steps(MC_T_END, MC_DT)
    every = whole_steps(MC_COMPARE_SPACING, MC_DT)
    # off the step grid (None), zero steps, or no comparison within the horizon
    if not n_steps or not every or every > n_steps:
        raise ValueError(
            f"micro horizon MC_T_END = {MC_T_END} and comparison spacing "
            f"MC_COMPARE_SPACING = {MC_COMPARE_SPACING} must both be whole, nonzero "
            f"multiples of the step MC_DT = {MC_DT}, the spacing no longer than "
            f"the horizon"
        )
    return n_steps, every


def _worse(worst: float, ratio: float) -> float:
    """The larger of two ratios to a tolerance; NaN once either is not finite,
    so a check judged on it fails."""
    if not (math.isfinite(worst) and math.isfinite(ratio)):
        return math.nan
    return max(worst, ratio)


class _MicroScenario:
    """One slip history: its ensemble, both closures, and the comparisons so far."""

    # a plain class: building a dataclass adds about half a millisecond to
    # every import of nspb, which each benchmark workload's set-up pays

    def __init__(self, name: str, slip, ens, phys: PhysicalParams):
        self.name, self.slip, self.ens = name, slip, ens
        self.ode = closure_equilibrium(phys)
        self.mem = memory_closure_equilibrium(phys)
        self.rows = []
        self.worst_nn = self.worst_tn = self.worst_mem = 0.0
        self.final_ratio = None

    def compare(self, mom) -> None:
        """Fold the ensemble moments against both closures into the worst ratios."""
        ode = self.ode
        tol_nn = 3.0 * mom.se_nn + MC_BIAS_ALLOWANCE
        tol_tn = 3.0 * mom.se_tn + MC_BIAS_ALLOWANCE
        self.worst_nn = _worse(self.worst_nn, abs(mom.sigma_nn - ode.sigma_nn) / tol_nn)
        self.worst_tn = _worse(self.worst_tn, abs(mom.sigma_tn - ode.sigma_tn) / tol_tn)
        self.worst_mem = _worse(self.worst_mem, abs(mom.sigma_tn - self.mem.sigma_tn) / tol_tn)
        if abs(ode.sigma_tn) > 1e-12:
            self.final_ratio = mom.sigma_tn / ode.sigma_tn
        self.rows.append(
            (self.ens.t, mom.sigma_tn, mom.se_tn, ode.sigma_tn, mom.sigma_nn, mom.se_nn, ode.sigma_nn)
        )


def _drive_micro_verify(plan: ExperimentPlan, outdir: Path, summary: RunSummary) -> None:
    phys = _micro_phys(plan)
    pot = SpringPotential.hookean(H=phys.H, R=phys.R)
    lam = phys.relaxation_time
    n_steps, every = _micro_schedule()
    summary.notes.append(
        f"ensemble of {MC_MEMBERS} dumbbells, exact-in-law step dt={MC_DT:g}, horizon "
        f"{MC_T_END:g} ({MC_T_END / lam:.2f} relaxation times)"
    )
    eq_sigma = phys.kB_T * phys.N_P / phys.rho

    scenarios = [
        _MicroScenario(
            name, _mc_slip(name), equilibrium_ensemble(MC_MEMBERS, pot, seed=plan.seed + idx), phys
        )
        for idx, name in enumerate(("constant", "sinusoidal"))
    ]
    here, other = scenarios
    # The scenarios draw from disjoint Philox streams (seed, step), so their
    # walks over each comparison interval run at the same time: the second on
    # a worker thread, the first here (numpy drops the GIL in the draws and
    # the ufunc loops).  All else stays on this thread.  Leaving the block
    # waits for the worker, so a raise here leaves no walk running.  The
    # pool's module loads on first use, so importing nspb does not load it.
    with futures.ThreadPoolExecutor(max_workers=1) as pool:
        # one walk per comparison interval; a horizon that is not a whole
        # number of intervals ends in a shorter tail
        for start in range(0, n_steps, every):
            steps = range(start, min(start + every, n_steps))
            # each slip is held over its step for every system
            slips = [[float(sc.slip(k * MC_DT)) for k in steps] for sc in scenarios]
            walked = pool.submit(hookean_exact_walk, other.ens, MC_DT, pot, phys, slips[1])
            here.ens = hookean_exact_walk(here.ens, MC_DT, pot, phys, slips[0])
            other.ens = walked.result()
            for sc, held in zip(scenarios, slips):
                for u in held:
                    sc.ode = closure_ode_step(sc.ode, u, phys, MC_DT)
                    sc.mem = memory_closure_step(sc.mem, u, phys, MC_DT)
            if len(steps) < every:  # the tail: no comparison falls in it
                break
            for sc in scenarios:
                sc.compare(kramers_stress(sc.ens, pot, phys))

    header = "t,sigma_tn_mc,se_tn,sigma_tn_ode,sigma_nn_mc,se_nn,sigma_nn_ode"
    for sc in scenarios:
        scen = sc.name
        name = f"micro_moments_{scen}.csv"
        _write_table(outdir, name, "nspb-micro-moments-v1", header, sc.rows, summary)
        summary.total_steps += n_steps
        summary.points.append(
            {
                "scenario": scen,
                "worst_nn_over_tol": sc.worst_nn,
                "worst_tn_over_tol": sc.worst_tn,
                "worst_memory_tn_over_tol": sc.worst_mem,
                "final_tn_ratio": sc.final_ratio,
            }
        )
        summary.add_check(
            f"closure_tracks_sigma_nn_{scen}",
            sc.worst_nn <= 1.0,
            sc.worst_nn,
            "normal stress within 3 SE + bias of the closed moment system",
        )
        summary.add_check(
            f"closure_tracks_sigma_tn_{scen}",
            sc.worst_tn <= 1.0,
            sc.worst_tn,
            "shear stress within 3 SE + bias of the closed moment system",
            detail=(
                "the reflected half-space dynamics carries a wall flux the closed "
                "system drops; see the tn_defect_band check"
            ),
        )
        summary.add_check(
            f"memory_closure_tracks_sigma_tn_{scen}",
            sc.worst_mem <= 1.0,
            sc.worst_mem,
            "shear stress within 3 SE + bias of the exact memory closure",
            detail="the memory closure keeps the wall flux the closed system drops",
        )
        if scen == "constant":
            lo, hi = TN_DEFECT_BAND
            summary.add_check(
                "tn_defect_band_constant",
                sc.final_ratio is not None and lo <= sc.final_ratio <= hi,
                sc.final_ratio,
                f"developed shear-stress ratio ensemble/closure in [{lo}, {hi}]",
                detail="quantifies the omitted wall-flux term at steady slip",
            )

    # equilibrium anchors: ensemble normal stress and Fokker-Planck vs Gibbs
    ens = equilibrium_ensemble(MC_MEMBERS, pot, seed=plan.seed + 2)
    mom = kramers_stress(ens, pot, phys)
    dev = abs(mom.sigma_nn - eq_sigma) / (3.0 * mom.se_nn)
    summary.add_check(
        "equilibrium_normal_stress_anchor",
        dev <= 1.0,
        dev,
        "sampled sigma_nn within 3 SE of kB_T*N_P/rho",
    )
    fpg = FPGrid.for_potential(pot, cutoff=20.0, h=0.15)
    gibbs = gibbs_density(fpg, pot, mass=phys.N_P)
    f0 = np.full((fpg.n_t, fpg.n_n), phys.N_P / (fpg.n_t * fpg.n_n * fpg.cell_area))
    res = fokker_planck_solve(fpg, pot, phys, t_end=FP_RELAX_MULTIPLE * lam, f0=f0)
    l1 = float(np.sum(np.abs(res.density - gibbs)) * fpg.cell_area)
    summary.points.append(
        {"fp_l1_error": l1, "fp_mass_drift": abs(res.mass_final - res.mass_initial)}
    )
    summary.add_check(
        "fp_steady_matches_gibbs",
        l1 <= FP_L1_TOL,
        l1,
        f"relaxed density within L1 {FP_L1_TOL:g} of the Gibbs density",
    )

    # fixed seed reproduces the ensemble bitwise, including its CSV bytes
    ens_a = equilibrium_ensemble(1000, pot, seed=plan.seed)
    ens_b = equilibrium_ensemble(1000, pot, seed=plan.seed)
    ens_a = hookean_exact_walk(ens_a, MC_DT, pot, phys, [1.0] * 50)
    ens_b = hookean_exact_walk(ens_b, MC_DT, pot, phys, [1.0] * 50)
    pa, pb = outdir / "ensemble_a.csv", outdir / "ensemble_b.csv"
    ensemble_to_csv(ens_a, pa)
    ensemble_to_csv(ens_b, pb)
    bitwise = pa.read_bytes() == pb.read_bytes()
    pb.unlink()
    summary.outputs.append("ensemble_a.csv")
    summary.add_check(
        "micro_seed_bitwise",
        bitwise and bool(np.array_equal(ens_a.members, ens_b.members)),
        None,
        "same seed reproduces the walked ensemble bitwise",
    )


# ---- energy audit: budget residual order and monotone decay ----


def _drive_energy_audit(plan: ExperimentPlan, outdir: Path, summary: RunSummary) -> None:
    grid = plan.grid()
    params = plan.sim
    dts = [plan.solver.dt, plan.solver.dt / 2.0, plan.solver.dt / 4.0]
    residuals = []
    for dt in dts:
        solver = ChannelFlowSolver(grid, params, replace(plan.solver, dt=dt))
        final, recs = _trajectory(solver, shear_decay_state(grid, params), 1, _recorder(solver))
        records = recs[:1] + [energy_audit(a, b) for a, b in zip(recs, recs[1:])]
        residuals.append(records[-1].budget_residual)
        summary.total_steps += final.step_index
        name = f"records_dt{_label(dt)}.csv"
        write_records(outdir / name, records)
        summary.outputs.append(name)
        summary.points.append(
            {"dt": dt, "final_step_residual": residuals[-1], "cfl_peak": _cfl_peak(solver, "decay")}
        )

    # monotone decay is judged on the finest run
    energies = [total_energy(r) for r in records]
    max_rise = max(b - a for a, b in zip(energies, energies[1:]))
    if params.kappa == 0.0:
        summary.add_check(
            "energy_monotone_decay",
            max_rise <= ENERGY_RISE_TOL * energies[0],
            max_rise,
            "total energy non-increasing on the unforced run",
        )

    orders = [
        float(np.log2(residuals[i] / residuals[i + 1])) for i in range(len(residuals) - 1)
    ]
    summary.points.append({"refinement_orders": orders})
    summary.add_check(
        "budget_residual_order",
        min(orders) >= BUDGET_ORDER_MIN,
        min(orders),
        f"budget residual refines at order >= {BUDGET_ORDER_MIN} under dt halving",
        detail=f"residuals={residuals!r}",
    )


# ---- inviscid limit ----


def _drive_inviscid_limit(plan: ExperimentPlan, outdir: Path, summary: RunSummary) -> None:
    grid = plan.grid()
    base = plan.sim
    summary.notes.append(
        f"friction_ratio held fixed at {base.friction_ratio:g} across the sweep "
        f"by scaling tau proportionally to Re"
    )
    every = round(INVISCID_SAMPLE_SPACING / plan.solver.dt)  # whole and >= 1: parse_config checks

    def states_of(params, mode):
        solver = ChannelFlowSolver(grid, params, replace(plan.solver, mode=mode))
        state = couette_perturbed_state(grid, params)
        final, states = _trajectory(solver, state, every, lambda s: s)
        summary.total_steps += final.step_index
        return states, _cfl_peak(solver, mode)

    reference, reference_cfl = states_of(base, "euler")
    rows = []

    def run_point(Re, point):
        params = _point_params(base, Re)
        point["tau"] = params.tau
        ns, cfl = states_of(params, "navier_stokes")
        errs = euler_error(ns, reference)
        rows.extend((Re, st.t, float(e)) for st, e in zip(ns, errs))
        point["sup_l2_error"] = float(np.max(errs))
        point["cfl_peak"] = _higher_cfl(cfl, reference_cfl)

    done = _sweep_points(summary, "re", plan.sweep_values, run_point)
    _write_table(
        outdir, "inviscid_errors.csv", "nspb-inviscid-errors-v1", "re,t,l2_error", rows, summary
    )

    if len(done) >= 3:
        fit = fit_scaling([p["re"] for p in done], [p["sup_l2_error"] for p in done])
        summary.fits["euler_gap_vs_re"] = fit.to_json_dict()
        _slope_check(
            summary, "inviscid_error_slope", fit, INVISCID_SLOPE_WINDOW,
            "sup-in-time L2 distance to the ideal-fluid run",
        )
