"""Poisson-commutation verification by finite differences.

{f, g} = sum_k (df/dx_k dg/dy_k - df/dy_k dg/dx_k); components of a
Lagrangian fibration must pairwise commute.  Gradients come from the
package's derivative engine ``numerics.jacobian``, in batch over all
samples at once.  :func:`poisson_report` is the seeded check that
``tfib fib poisson`` runs.
"""

from __future__ import annotations

import numpy as np

from .. import numerics
from .models import FibrationModel, make_model, sample_domain

#: a bracket at or above this fails the check
POISSON_TOL = 1e-6
#: the report's samples keep this margin from each model's singular locus
REPORT_MARGIN = 0.1


def poisson_brackets(model: FibrationModel, z, step=numerics.DEFAULT_STEP):
    """All pairwise brackets {f_i, f_j}, i < j, shape (m, pairs)."""
    # d f_i / d (x_k, y_k) of every component at every sample: (m, comps, 2n)
    grads = numerics.jacobian(lambda x: model.f(numerics.r2c(x)),
                              numerics.c2r(np.atleast_2d(z)), step=step)
    gx = grads[:, :, 0::2]
    gy = grads[:, :, 1::2]
    out = []
    for i in range(model.components):
        for j in range(i + 1, model.components):
            out.append(np.sum(gx[:, i] * gy[:, j] - gy[:, i] * gx[:, j], axis=-1))
    return np.stack(out, axis=-1)


def poisson_check(model: FibrationModel, samples, step=numerics.DEFAULT_STEP,
                  margin=None):
    """max |{f_i, f_j}| over samples and component pairs.

    Raises if a sample sits closer to the model's declared pole or
    non-smooth locus than the differencing can tolerate.
    """
    if not 0.0 < step < np.inf:
        raise ValueError(f"difference step must be finite and positive, got {step}")
    samples = np.atleast_2d(np.asarray(samples, dtype=complex))
    required = margin if margin is not None else 10.0 * step
    bad = model.margin(samples) <= required
    if np.any(bad):
        raise ValueError(
            f"{int(bad.sum())} samples within margin {required} of the "
            f"singular/non-smooth locus of {model.id}"
        )
    return float(np.max(np.abs(poisson_brackets(model, samples, step=step))))


def poisson_report(model, samples, seed=0):
    """The Poisson check of the model with id ``model`` on ``samples``
    domain points, drawn from a generator seeded with ``seed`` at margin
    ``REPORT_MARGIN``, at base step ``numerics.DEFAULT_STEP``: the report
    body, with ``passed`` true when the largest bracket is below
    ``POISSON_TOL``."""
    fibration = make_model(model)
    z = sample_domain(fibration, samples, np.random.default_rng(seed),
                      margin=REPORT_MARGIN)
    worst = poisson_check(fibration, z, margin=REPORT_MARGIN)
    return {
        "model": model,
        "max_bracket": worst,
        "step": numerics.DEFAULT_STEP,
        "margin": REPORT_MARGIN,
        "tol": POISSON_TOL,
        "passed": worst < POISSON_TOL,
    }
