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
from ..symplab.models import FibrationModel, make_model

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
    """The period integrand at the nodes ``s`` and the fibre defect.

    The cycle and the model map act pointwise, so each derivative stencil
    is evaluated in large calls: the whole stencil of the nodes in one call
    of ``cyc``, and the model gradients in one call of ``model.f`` per real
    coordinate, on its four displaced copies of the cycle points (one
    coordinate at a time: all of them at once raised the peak memory).
    """
    z = np.asarray(cyc(s), dtype=complex)
    defect = float(np.max(np.abs(model.f(z) - b_raw[None, :])))
    hs = numerics.fd_step(s)
    ss = numerics.displaced(s[:, None], 0, hs)[..., 0]
    dz = numerics.r2c(numerics.richardson([numerics.c2r(cyc(ss))], hs[None])[..., 0])
    x = numerics.c2r(z)
    h = numerics.fd_step(x)
    grads = numerics.richardson(                    # (m, comps, 2n)
        [model.f(numerics.r2c(numerics.displaced(x, k, h[:, k])))
         for k in range(x.shape[-1])], h.T)
    # Moore-Penrose lifts: rows of (jac jac^T)^{-1} jac, one per direction
    lifts = numerics.r2c(np.linalg.solve(grads @ np.swapaxes(grads, 1, 2), grads))
    # omega(w, dz), one value per base direction
    return -numerics.omega_pair(lifts, dz[:, None, :]), defect


def _base_point(model: FibrationModel, b_raw):
    """The fibre point over b_raw and the inverse chart Jacobian there, or
    ``ValueError`` naming b unless b_raw is a regular value: finite, with
    finite both of them and the fibre point at positive margin."""
    b = b_raw.tolist()
    if b_raw.shape != (model.components,) or not np.all(np.isfinite(b_raw)):
        raise ValueError(f"base point b must be {model.components} finite "
                         f"numbers for model {model.id}, got {b}")
    try:
        with np.errstate(all="ignore"):
            z0 = np.asarray(model.fibre_point(b_raw), dtype=complex)
            if model.chart is None:
                chart_jac_inv = np.eye(model.components)
            else:
                chart_jac_inv = np.linalg.inv(numerics.jacobian(
                    lambda x: np.asarray(model.chart(x)), b_raw))
            regular = bool(np.all(np.isfinite(z0)) and model.margin(z0) > 0
                           and np.all(np.isfinite(chart_jac_inv)))
    except (ArithmeticError, ValueError):  # e.g. 1/0, or a singular Jacobian
        regular = False
    if not regular:
        raise ValueError(f"base point b = {b} is not a regular value of model "
                         f"{model.id}: its fibre point is not finite at positive "
                         "margin, or its chart Jacobian is not invertible")
    return z0, chart_jac_inv


def numeric_periods(model: FibrationModel, b) -> PeriodResult:
    """Period covectors of every shipped cycle of the model at base point
    b (chart coords).

    Each cycle is sampled at ``CYCLE_POINTS`` nodes.  Raises when b is not
    a regular value (see ``_base_point``), a cycle parametrization leaves
    the fibre by more than ``FIBRE_TOL`` or the doubling error estimate
    exceeds ``QUAD_TOL``.
    """
    if model.fibre_point is None or not model.cycles:
        raise ValueError(f"model {model.id} ships no cycle parametrizations")
    b_raw = np.asarray(b, dtype=float)
    z0, chart_jac_inv = _base_point(model, b_raw)
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


def numeric_report(model, b):
    """The period covectors of the model with id ``model`` at base point
    ``b``, with their quadrature errors and fibre defect.  Returns
    ``(body, {".csv": one covector row per cycle, by cycle name})``."""
    res = numeric_periods(make_model(model), b)
    rows = [list(v) for _, v in sorted(res.covectors.items())]
    return {
        "model": model,
        "b": b,
        "covectors": {k: v.tolist() for k, v in res.covectors.items()},
        "quadrature_errors": res.errors,
        "fibre_defect": res.fibre_defect,
    }, {".csv": rows}
