"""The names the benchmark in ``perfbench/`` binds to must keep resolving.

``perfbench/tracing.py`` patches its targets by name and
``perfbench/workloads.py`` imports the drivers it runs, so a change that
renames or deletes one of them breaks the benchmark.  These tests read
``perfbench/`` and fail at tier 1 instead of only under ``--trace 1``.
"""

import ast
import importlib
import inspect
import math
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(BENCH_DIR))

import tracing  # noqa: E402


@pytest.mark.parametrize(
    "module, cls, attr",
    [(module, cls, attr) for _, module, cls, attr, _ in tracing.TARGETS],
    ids=[f"{module}.{cls + '.' if cls else ''}{attr}" for _, module, cls, attr, _ in tracing.TARGETS],
)
def test_traced_target_resolves(module, cls, attr):
    mod = importlib.import_module(module)
    if cls is not None:
        # methods are patched through the class __dict__, not inherited lookups
        assert callable(getattr(mod, cls).__dict__.get(attr))
    else:
        assert callable(getattr(mod, attr, None))


def test_next_traced_layer_resolves():
    # the next benchmark change traces the nonlinear terms as their own layer
    from nspb.flow import ChannelFlowSolver

    assert callable(ChannelFlowSolver.__dict__.get("_nonlinear"))


def test_next_traced_records_layer_resolves():
    # the drivers take their records in blocks through compute_records, so
    # the traced diagnostics.compute_record layer sees only single-state
    # calls; the next benchmark change traces compute_records in its place,
    # patched through the drivers' module-level binding of it
    diagnostics = importlib.import_module("nspb.diagnostics")
    experiments = importlib.import_module("nspb.experiments")
    assert callable(getattr(diagnostics, "compute_records", None))
    assert experiments.compute_records is diagnostics.compute_records


def test_next_traced_micro_step_resolves():
    # micro_verify walks its Hookean ensembles with the exact-in-law walk, so
    # the next benchmark change traces it in place of sde_step and counts
    # n_members * len(slips) member-steps per call
    from nspb import micro

    assert callable(getattr(micro, "hookean_exact_walk", None))


def test_micro_workload_horizons_are_whole_steps(monkeypatch):
    # the driver rejects a horizon off the step it fits under MC_DT to the
    # comparison spacing, so both benchmark scalings must schedule at the
    # shipped MC_DT
    import workloads

    experiments = importlib.import_module("nspb.experiments")
    for scaled in (workloads.MICRO_FULL, workloads.MICRO_SMOKE):
        with monkeypatch.context() as m:
            for name, value in scaled.items():
                m.setattr(experiments, name, value)
            h, n_steps, every = experiments._micro_schedule()
            assert 1 <= every <= n_steps
            assert 0 < h <= experiments.MC_DT


def test_fp_solve_keeps_the_parameters_the_tracer_binds():
    # tracing._fp_cell_updates binds the call to the solver's signature and
    # reads these arguments by name, so a rename fails only under --trace 1
    from nspb.fplanck import fokker_planck_solve

    tree = ast.parse(inspect.getsource(tracing._fp_cell_updates))
    read = {
        node.slice.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Subscript)
        and isinstance(node.value, ast.Name)
        and node.value.id == "a"
    }
    assert read == {"fpgrid", "potential", "phys", "t_end", "u_slip", "dt"}
    params = inspect.signature(fokker_planck_solve).parameters
    assert read <= set(params)
    # the tracer recomputes the solver's default step only when dt is None
    assert params["dt"].default is None


def test_micro_relaxation_passes_dt_by_keyword():
    # the tracer counts a solve's cell updates from its dt argument, so
    # _drive_micro_verify's step must reach the solve as dt, not through the
    # default rule
    experiments = importlib.import_module("nspb.experiments")
    tree = ast.parse(inspect.getsource(experiments._drive_micro_verify))
    [call] = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "fokker_planck_solve"
    ]
    assert "dt" in {kw.arg for kw in call.keywords}


def test_tracer_counts_the_micro_relaxation_at_the_positivity_bound(tmp_path, monkeypatch):
    # run micro_verify at the benchmark's smoke scale and count its
    # relaxation call as tracing._fp_cell_updates does
    import workloads
    from nspb.config import parse_config
    from nspb.fplanck import POSITIVITY_SAFETY, fokker_planck_solve, stable_dt

    experiments = importlib.import_module("nspb.experiments")
    for name, value in workloads.MICRO_SMOKE.items():
        monkeypatch.setattr(experiments, name, value)
    calls = []

    def solve(*args, **kwargs):
        result = fokker_planck_solve(*args, **kwargs)
        calls.append((args, kwargs, result))
        return result

    monkeypatch.setattr(experiments, "fokker_planck_solve", solve)
    experiments.execute(parse_config("kind = micro_verify\n").with_output(tmp_path))
    [(args, kwargs, result)] = calls
    grid, pot, phys = args[:3]
    t_end = kwargs["t_end"]
    dt_bound = stable_dt(grid, pot, phys, safety=POSITIVITY_SAFETY)
    counted = tracing._fp_cell_updates(fokker_planck_solve)(args, kwargs, result)
    assert counted == grid.n_t * grid.n_n * math.ceil(t_end / dt_bound)
    assert counted == grid.n_t * grid.n_n * result.steps


def test_workloads_import():
    importlib.import_module("workloads")


@pytest.mark.parametrize("workload", ["sweep_alpha", "energy_audit"])
def test_flow_workload_setup_builds_a_state_the_solver_steps(workload):
    # workloads.setup is the code the benchmark's setup_s times; a state
    # layout it no longer matches would otherwise fail only in a benchmark run
    import workloads

    solver, state = workloads.setup(BENCH_DIR.parent, workload, smoke=True)
    stepped = solver.step(state)
    assert stepped.step_index == state.step_index + 1
    assert stepped.t == pytest.approx(state.t + solver.config.dt)
    grid = solver.grid
    assert state.omega.shape == stepped.omega.shape == (grid.ny, grid.dealias_kx)


def test_micro_workload_setup_builds_the_ensemble_grid_and_gibbs_density(monkeypatch):
    # workloads.setup setattr()s the MICRO_SMOKE keys on nspb.experiments;
    # pinning each one first makes monkeypatch restore it at teardown
    import workloads
    from nspb.config import load_config
    from nspb.fplanck import density_mass

    experiments = importlib.import_module("nspb.experiments")
    for name in workloads.MICRO_SMOKE:
        monkeypatch.setattr(experiments, name, getattr(experiments, name))
    ens, fpgrid, f0 = workloads.setup(BENCH_DIR.parent, "micro", smoke=True)
    assert ens.n_members == workloads.MICRO_SMOKE["MC_MEMBERS"]
    assert (fpgrid.n_t, fpgrid.n_n) == (120, 60)
    plan = load_config(BENCH_DIR.parent / workloads.CONFIGS["micro"])
    phys, _ = workloads.micro_physics(plan)
    assert density_mass(fpgrid, f0) == pytest.approx(phys.N_P, rel=1e-12)
    assert f0.min() > 0.0


def test_workload_experiments_names_exist():
    # workloads.scale_micro setattr()s the MICRO_* keys on nspb.experiments,
    # so a renamed constant would silently become a dead attribute there
    import workloads

    names = set(workloads.MICRO_FULL) | set(workloads.MICRO_SMOKE)
    for node in ast.walk(ast.parse((BENCH_DIR / "workloads.py").read_text())):
        if isinstance(node, ast.ImportFrom) and node.module == "nspb.experiments":
            names.update(alias.name for alias in node.names)
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "experiments"
        ):
            names.add(node.attr)
    assert names >= {
        "MC_T_END",
        "MC_MEMBERS",
        "_micro_phys",
        "MC_SLIP_AMPLITUDE",
        "MC_SIN_PERIOD",
        "FORCED_BULK_REF",
        "shear_decay_state",
    }
    experiments = importlib.import_module("nspb.experiments")
    assert sorted(n for n in names if not hasattr(experiments, n)) == []


def test_wall_law_control_layer_is_one_call_per_ns_step(monkeypatch):
    # the benchmark reads its "wallbc.step_boundary_ode" layer as a control:
    # the solver closes each Navier-Stokes step through it exactly once and
    # an Euler step never.  Wrap every nspb binding of it, as tracing._patch does.
    import numpy as np

    from nspb.flow import ChannelFlowSolver, SolverConfig, initial_state
    from nspb.grid import ChannelGrid
    from nspb.params import SimParams

    [(_, modname, _, attr, _)] = [t for t in tracing.TARGETS if t[0] == "wallbc.step_boundary_ode"]
    orig = getattr(importlib.import_module(modname), attr)
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return orig(*args, **kwargs)

    bound = [
        (mod, key)
        for name, mod in list(sys.modules.items())
        if name == "nspb" or name.startswith("nspb.")
        for key, value in list(vars(mod).items())
        if value is orig
    ]
    assert len(bound) >= 2  # the module's own name and the solver's from-import
    for mod, key in bound:
        monkeypatch.setattr(mod, key, counted)

    grid = ChannelGrid(nx=8, ny=9, lx=2.0 * np.pi)
    params = SimParams(Re=50.0, Wi=0.5, tau=1.0, alpha=1.0, kappa=0.0)
    u = np.repeat(np.sin(0.5 * np.pi * grid.y)[:, None], grid.nx, axis=1)
    for mode, per_step in (("navier_stokes", 1), ("euler", 0)):
        solver = ChannelFlowSolver(grid, params, SolverConfig(dt=1e-3, t_end=5e-3, mode=mode))
        state = initial_state(grid, params, u=u)
        calls.clear()
        assert solver.run(state).step_index == 5
        assert len(calls) == 5 * per_step, mode
