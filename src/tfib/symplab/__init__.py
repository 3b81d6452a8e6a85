"""Numerical symplectic laboratory: explicit fibration models and checks.

The model ids are a literal here, and ``list_report`` is defined here, so
listing them imports nothing.  Every other name below is exported lazily
(PEP 562): reading one imports its submodule, and every read looks the
name up on the submodule again, so a replaced submodule attribute (a
monkeypatch, a tracing wrapper) is what the package returns.
"""

import importlib

MODEL_IDS = ("amoeba", "control", "generic", "hl", "leg_d", "leg_h", "leg_v",
             "positive", "sm_ff", "stitched_ff", "thin_legs")

_EXPORTS = {
    "FibrationModel": "models",
    "gamma": "models",
    "make_model": "models",
    "sample_domain": "models",
    "gamma_t": "reduction",
    "gamma_t_inverse": "reduction",
    "omega_t_matrix": "reduction",
    "reduction_check": "reduction",
    "reduction_report": "reduction",
    "rho_zero": "reduction",
    "AmoebaRaster": "amoeba",
    "amoeba_membership": "amoeba",
    "amoeba_raster": "amoeba",
    "amoeba_report": "amoeba",
    "poisson_check": "poisson",
    "poisson_report": "poisson",
    "hamiltonian_twist": "twist",
    "h0_quarter_turn": "twist",
    "cutoff_hamiltonian": "twist",
    "symplecticity_defect": "twist",
    "tangent_map_defect": "twist",
    "twist_report": "twist",
    "discriminant_sample": "discriminant",
    "discriminant_report": "discriminant",
    "rho_one_smooth": "smoothing",
    "smoothing_one": "smoothing",
    "smoothing_report": "smoothing",
}


def list_report():
    """The model ids (``tfib fib list``); it imports no submodule."""
    return {"models": list(MODEL_IDS)}


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
