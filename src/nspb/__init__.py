"""Channel flow with an end-grafted polymer wall law, macro and micro sides.

The macro side is a Fourier x Chebyshev solver for 2D incompressible flow in
a periodic channel whose wall vorticity obeys a relaxation law driven by the
slip velocity.  The micro side is a reflected-dumbbell ensemble (SDE and
Fokker-Planck) whose Kramers stress moments connect to the same wall law.

The package root exports only the config-to-execute entry points; import
everything else from its submodule (``nspb.grid``, ``nspb.flow``,
``nspb.diagnostics``, ``nspb.micro``, ...).
"""

from .config import ConfigError, ExperimentPlan, load_config, parse_config
from .experiments import RunSummary, execute

__version__ = "0.1.0"

__all__ = [
    "load_config",
    "parse_config",
    "ExperimentPlan",
    "ConfigError",
    "execute",
    "RunSummary",
    "__version__",
]
