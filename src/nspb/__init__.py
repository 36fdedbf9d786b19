"""Channel flow with an end-grafted polymer wall law, macro and micro sides.

The macro side is a Fourier x Chebyshev solver for 2D incompressible flow in
a periodic channel whose wall vorticity obeys a relaxation law driven by the
slip velocity.  The micro side is a reflected-dumbbell ensemble (SDE and
Fokker-Planck) whose Kramers stress moments connect to the same wall law.
"""

from .params import (
    PhysicalParams,
    SimParams,
    ScalingScenario,
    ParameterError,
    derive_sim_params,
    classify_scaling,
    stokes_einstein_zeta,
)
from .grid import ChannelGrid, Field2D, GridError
from .wallbc import (
    step_boundary_ode,
    duhamel_boundary,
    wall_vorticity,
    steady_slip_velocity,
)
from .flow import ChannelFlowSolver, FlowState, SolverConfig, CFLError
from .micro import (
    SpringPotential,
    PolymerEnsemble,
    StressMoments,
    equilibrium_ensemble,
    sde_step,
    kramers_stress,
    closure_ode_step,
    free_energy_ensemble,
)
from .fplanck import (
    FPGrid,
    fokker_planck_solve,
    fp_moments,
    gibbs_density,
    free_energy,
)
from .config import ConfigError, ExperimentPlan, load_config, parse_config
from .experiments import RunSummary, execute

__version__ = "0.1.0"

__all__ = [
    "PhysicalParams",
    "SimParams",
    "ScalingScenario",
    "ParameterError",
    "derive_sim_params",
    "classify_scaling",
    "stokes_einstein_zeta",
    "ChannelGrid",
    "Field2D",
    "GridError",
    "step_boundary_ode",
    "duhamel_boundary",
    "wall_vorticity",
    "steady_slip_velocity",
    "ChannelFlowSolver",
    "FlowState",
    "SolverConfig",
    "CFLError",
    "SpringPotential",
    "PolymerEnsemble",
    "StressMoments",
    "equilibrium_ensemble",
    "sde_step",
    "kramers_stress",
    "closure_ode_step",
    "free_energy_ensemble",
    "FPGrid",
    "fokker_planck_solve",
    "fp_moments",
    "gibbs_density",
    "free_energy",
    "ConfigError",
    "ExperimentPlan",
    "load_config",
    "parse_config",
    "RunSummary",
    "execute",
    "__version__",
]
