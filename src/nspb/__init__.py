"""Channel flow with an end-grafted polymer wall law, macro and micro sides.

The macro side is a Fourier x Chebyshev solver for 2D incompressible flow in
a periodic channel whose wall vorticity obeys a relaxation law driven by the
slip velocity.  The micro side is a reflected-dumbbell ensemble (SDE and
Fokker-Planck) whose Kramers stress moments connect to the same wall law.

The package root imports nothing, so ``import nspb.cli`` loads only the
standard library and ``--threads`` can cap the BLAS pools before numpy
loads.  Import each name from the submodule that defines it
(``nspb.config``, ``nspb.experiments``, ``nspb.flow``, ``nspb.micro``, ...).
"""
