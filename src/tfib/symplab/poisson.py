"""Poisson-commutation verification by finite differences.

{f, g} = sum_k (df/dx_k dg/dy_k - df/dy_k dg/dx_k); components of a
Lagrangian fibration must pairwise commute.  Gradients come from the
package's derivative engine ``numerics.jacobian``, in batch over all
samples at once.
"""

from __future__ import annotations

import numpy as np

from .. import numerics
from .models import FibrationModel


def batch_gradients(model: FibrationModel, z, step=numerics.DEFAULT_STEP):
    """Gradients of every map component at every sample.

    Returns an array (m, components, 2n) of d f_i / d (x_k, y_k).
    """
    x = numerics.c2r(np.atleast_2d(z))
    return numerics.jacobian(lambda xx: model.f(numerics.r2c(xx)), x, step=step)


def poisson_brackets(model: FibrationModel, z, step=numerics.DEFAULT_STEP):
    """All pairwise brackets {f_i, f_j}, i < j, shape (m, pairs)."""
    grads = batch_gradients(model, z, step=step)
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
    samples = np.atleast_2d(np.asarray(samples, dtype=complex))
    required = margin if margin is not None else 10.0 * step
    bad = model.margin(samples) <= required
    if np.any(bad):
        raise ValueError(
            f"{int(bad.sum())} samples within margin {required} of the "
            f"singular/non-smooth locus of {model.id}"
        )
    chunks = np.array_split(samples, max(1, numerics.thread_count()))
    parts = numerics.parallel_map(
        lambda c: poisson_brackets(model, c, step=step), [c for c in chunks if len(c)]
    )
    return float(np.max(np.abs(np.concatenate(parts, axis=0))))
