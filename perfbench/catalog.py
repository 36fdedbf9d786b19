"""The workloads: the shipped config each one reads and the verdicts it must reach.

Standard library only, so run.py can check and gate a checkout without importing nspb.
"""

CONFIGS = {
    "sweep_alpha": "configs/sweep_alpha.cfg",
    "energy_audit": "configs/energy_audit.cfg",
    "micro": "configs/micro_verify.cfg",
}

# Verdicts each workload must reach.  False marks the known closure defect:
# the reflected half-space ensemble carries a wall flux that the closed
# moment system drops, so the shear-stress comparison is an expected FAIL.
# It stays in the gate so that a change hiding it counts as a failure.
EXPECTED = {
    "sweep_alpha": {
        "slip_strictly_decreasing_in_alpha": True,
        "slip_inverse_alpha_trend": True,
    },
    "energy_audit": {
        "budget_residual_order": True,
        "energy_monotone_decay": True,
    },
    "micro": {
        "closure_tracks_sigma_nn_constant": True,
        "closure_tracks_sigma_nn_sinusoidal": True,
        "closure_tracks_sigma_tn_constant": False,
        "closure_tracks_sigma_tn_sinusoidal": False,
        # at 1 relaxation time the ensemble/closure shear-stress ratio is still
        # near 1.1, short of the band [1.35, 1.65] it develops into by 5
        "tn_defect_band_constant": False,
        "equilibrium_normal_stress_anchor": True,
        "fp_steady_matches_gibbs": True,
        "fp_sheared_mass_conserved": True,
        "micro_seed_bitwise": True,
    },
}
# At smoke size the physics verdicts mean nothing; only exact properties are judged.
SMOKE_EXPECTED = {
    "sweep_alpha": {},
    "energy_audit": {},
    "micro": {"fp_sheared_mass_conserved": True, "micro_seed_bitwise": True},
}


def expected(workload: str, smoke: bool) -> dict:
    return (SMOKE_EXPECTED if smoke else EXPECTED)[workload]
