"""What each benchmark workload runs and how its set-up is built.

Every workload runs a shipped config unchanged through
``nspb.experiments.execute``.  micro_verify's horizon, 5 relaxation times,
is a module constant of ``nspb.experiments`` that its driver reads when it
is called, and runs 70-100 s; the benchmark sets it to 1 relaxation time
(``MICRO_FULL``) and then adds one sheared Fokker-Planck run with a callable
slip, a path the shipped driver does not take.

Importing this module imports nspb, so set-up timing starts before it.
"""

from __future__ import annotations

import dataclasses
import math
from pathlib import Path

import numpy as np

from nspb import experiments
from nspb.config import load_config
from nspb.experiments import FORCED_BULK_REF, execute, shear_decay_state
from nspb.flow import ChannelFlowSolver, SolverConfig, steady_channel_state
from nspb.fplanck import FPGrid, fokker_planck_solve, gibbs_density
from nspb.micro import SpringPotential, equilibrium_ensemble
from nspb.params import PhysicalParams

from catalog import CONFIGS

SMOKE_GRID = {"nx": 16, "ny": 17}
SMOKE_T_END = {"sweep_alpha": 0.005, "energy_audit": 0.008}

# nspb.experiments constants the micro_verify driver reads when called.
# 1 relaxation time gives two stress comparisons per scenario at the
# shipped 0.5 spacing; at the second the shear-closure defect exceeds its
# tolerance in both scenarios.
MICRO_FULL = {"MC_T_END": 1.0}
MICRO_SMOKE = {
    "MC_MEMBERS": 1000,
    "MC_T_END": 0.01,
    "MC_COMPARE_SPACING": 0.005,
    "FP_RELAX_MULTIPLE": 0.5,
}
FP_H = 0.15  # the Fokker-Planck cell size micro_verify uses (120x60 cells)
FP_MASS_TOL = 1e-12


def flow_plan(root: Path, workload: str, smoke: bool):
    plan = load_config(root / CONFIGS[workload])
    if smoke:
        solver = dataclasses.replace(plan.solver, t_end=SMOKE_T_END[workload])
        plan = dataclasses.replace(plan, solver=solver, **SMOKE_GRID)
    return plan


def micro_physics(plan) -> tuple[PhysicalParams, SpringPotential]:
    """The physics and spring the micro_verify driver builds from its plan."""
    phys = experiments._micro_phys(plan)
    return phys, SpringPotential.hookean(H=phys.H, R=phys.R)


def setup(root: Path, workload: str, smoke: bool):
    """Build the first solver state the workload needs; returns it."""
    if workload == "micro":
        scale_micro(smoke)
        phys, pot = micro_physics(load_config(root / CONFIGS["micro"]))
        ens = equilibrium_ensemble(experiments.MC_MEMBERS, pot, seed=0)
        fpg = FPGrid.for_potential(pot, cutoff=20.0, h=FP_H)
        return ens, fpg, gibbs_density(fpg, pot, mass=phys.N_P)
    plan = flow_plan(root, workload, smoke)
    grid = plan.grid()
    if workload == "sweep_alpha":
        params = dataclasses.replace(plan.sim, alpha=plan.sweep_values[0])
        F = FORCED_BULK_REF / params.Re
        cfg = dataclasses.replace(
            plan.solver, forcing="steady_pressure_gradient", forcing_amplitude=F
        )
        return ChannelFlowSolver(grid, params, cfg), steady_channel_state(grid, params, F)
    cfg = SolverConfig(dt=plan.solver.dt, t_end=plan.solver.t_end, cfl_max=plan.solver.cfl_max)
    return ChannelFlowSolver(grid, plan.sim, cfg), shear_decay_state(grid, plan.sim)


def scale_micro(smoke: bool) -> None:
    for name, value in (MICRO_SMOKE if smoke else MICRO_FULL).items():
        setattr(experiments, name, value)


def run(root: Path, workload: str, outdir: Path, seed: int, smoke: bool) -> dict:
    """Run the workload to its verdicts.

    Returns the verdicts, the solver steps counted by ``steps_per_s`` and the
    runtime failures the drivers survived.
    """
    outdir.mkdir(parents=True, exist_ok=True)
    if workload == "micro":
        scale_micro(smoke)
        plan = load_config(root / CONFIGS["micro"]).with_output(outdir, seed=seed)
    else:
        # the flow drivers take no random input; the seed only reaches the plan echo
        plan = flow_plan(root, workload, smoke).with_output(outdir, seed=seed)
    summary = execute(plan)
    checks = {c.name: [c.passed, c.value] for c in summary.checks}
    if workload == "micro":
        checks["fp_sheared_mass_conserved"] = sheared_fokker_planck(plan)
    return {
        "checks": checks,
        "steps": summary.total_steps,
        "runtime_failures": summary.runtime_failures,
    }


def sheared_fokker_planck(plan) -> list:
    """One Fokker-Planck run from Gibbs under micro_verify's sinusoidal slip.

    A callable slip takes the solver's per-step Bernoulli path, which the
    static relaxation in micro_verify never reaches.  Mass must hold to
    roundoff and the density must stay nonnegative.
    """
    phys, pot = micro_physics(plan)
    fpg = FPGrid.for_potential(pot, cutoff=20.0, h=FP_H)
    amplitude, period = experiments.MC_SLIP_AMPLITUDE, experiments.MC_SIN_PERIOD
    res = fokker_planck_solve(
        fpg, pot, phys, t_end=experiments.MC_T_END,
        u_slip=lambda t: amplitude * math.sin(2.0 * math.pi * t / period),
        f0=gibbs_density(fpg, pot, mass=phys.N_P),
    )
    drift = abs(res.mass_final - res.mass_initial) / res.mass_initial
    return [drift <= FP_MASS_TOL and bool(np.all(res.density >= 0.0)), drift]
