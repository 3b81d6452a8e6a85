"""Numeric period integrals over model fibre cycles.

For a cycle c(s) in the fibre over b and a base direction v, the period
covector value is  lambda(v) = -oint iota_w omega  for any lift w of v
along the cycle; Lagrangian fibres make the integral independent of the
lift, so the Moore-Penrose lift through the finite-difference Jacobian of
the model map is used.  Cycle parametrizations (and the normalization
matching the quoted closed forms) ship with each model; results are
reported in the model's period chart.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from .. import numerics
from ..symplab.models import FibrationModel
from ..symplab.poisson import batch_gradients

#: trapezoid nodes per cycle
CYCLE_POINTS = 512
#: largest allowed distance of a cycle from its fibre
FIBRE_TOL = 1e-7
#: largest allowed doubling estimate of a period integral
QUAD_TOL = 1e-3


@dataclass
class PeriodResult:
    covectors: Dict[str, np.ndarray]   # chart-coordinate covectors
    errors: Dict[str, float]           # quadrature doubling estimates
    fibre_defect: float                # max |f(cycle) - b| over all cycles


def _cycle_integrand(model, cyc, b_raw, s):
    z = np.asarray(cyc(s), dtype=complex)
    defect = float(np.max(np.abs(model.f(z) - b_raw[None, :])))
    dz = numerics.r2c(numerics.jacobian(
        lambda t: numerics.c2r(cyc(t[..., 0])), s[:, None])[..., 0])
    grads = batch_gradients(model, z)          # (m, comps, 2n)
    # Moore-Penrose lifts: rows of (jac jac^T)^{-1} jac, one per direction
    lifts = numerics.r2c(np.linalg.solve(grads @ np.swapaxes(grads, 1, 2), grads))
    # omega(w, dz), one value per base direction
    return -numerics.omega_pair(lifts, dz[:, None, :]), defect


def numeric_periods(model: FibrationModel, b) -> PeriodResult:
    """Period covectors of every shipped cycle of the model at base point
    b (chart coords).

    Each cycle is sampled at ``CYCLE_POINTS`` nodes.  Raises when a cycle
    parametrization leaves the fibre by more than ``FIBRE_TOL`` or the
    doubling error estimate exceeds ``QUAD_TOL``.
    """
    if model.fibre_point is None or not model.cycles:
        raise ValueError(f"model {model.id} ships no cycle parametrizations")
    b_raw = np.asarray(b, dtype=float)
    z0 = model.fibre_point(b_raw)
    if model.chart is None:
        chart_jac_inv = np.eye(model.components)
    else:
        chart_jac_inv = np.linalg.inv(
            numerics.jacobian(lambda x: np.asarray(model.chart(x)), b_raw)
        )
    covectors = {}
    errors = {}
    worst_defect = 0.0
    for name in sorted(model.cycles):
        cyc, norm = model.cycles[name](z0)
        vals, defect = _cycle_integrand(
            model, cyc, b_raw, np.arange(CYCLE_POINTS) / CYCLE_POINTS)
        raw, err = numerics.periodic_quadrature(vals * norm)
        worst_defect = max(worst_defect, defect)
        if defect > FIBRE_TOL:
            raise ValueError(
                f"cycle {name} leaves the fibre by {defect:.2e} (> {FIBRE_TOL})"
            )
        if err > QUAD_TOL:
            raise ValueError(
                f"cycle {name}: quadrature did not converge "
                f"(doubling estimate {err:.2e} > {QUAD_TOL})"
            )
        covectors[name] = raw @ chart_jac_inv
        errors[name] = err
    return PeriodResult(covectors, errors, worst_defect)
