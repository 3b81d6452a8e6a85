"""Discriminant clouds of the lifted piecewise-smooth fibrations.

The critical surface of every Phi-twisted model is Sigma = {u1 = 0} in the
zero reduced level, and the discriminant is {0} x (Log o Phi o Gamma_0)(Sigma);
sampling Sigma over a grid of u2 and pushing forward gives the cloud.
:func:`discriminant_report` checks on which side of the plain amoeba a
model's cloud lies (``tfib fib discriminant``).
"""

from __future__ import annotations

import numpy as np

from .models import FibrationModel, make_model, thin_legs_branch

#: the polar grid of u2: GRID_N log-spaced radii in [1e-3, GRID_RADIUS]
#: times GRID_N angles
GRID_RADIUS = 3.0
GRID_N = 120
#: slack of the amoeba inequalities in the inside test of a cloud
INSIDE_SLACK = 1e-9
#: the models whose discriminant lies in the plain amoeba; the leg models'
#: leave it
INSIDE_AMOEBA = ("amoeba", "thin_legs")


def discriminant_sample(model: FibrationModel, return_branches=False):
    """Point cloud {0} x Log(Phi(0, u2)) over a polar grid of u2 in C*.

    Returns an array (k, 3); raises when the model has no declared Phi or
    the grid misses the critical surface entirely.  With
    ``return_branches=True`` (thin-legs model) also returns the Phi branch
    label of each sample.
    """
    if model.phi is None:
        raise ValueError(f"model {model.id} carries no reduced twist Phi")
    radii = np.exp(np.linspace(np.log(1e-3), np.log(GRID_RADIUS), GRID_N))
    angles = np.linspace(0.0, 2.0 * np.pi, GRID_N, endpoint=False)
    rr, aa = np.meshgrid(radii, angles, indexing="ij")
    u2 = (rr * np.exp(1j * aa)).reshape(-1)
    u1 = np.zeros_like(u2)
    v1, v2 = model.phi(u1, u2)
    keep = (np.abs(v1) > 0) & (np.abs(v2) > 0)
    if not np.any(keep):
        raise ValueError("grid misses the critical surface image")
    cloud = np.stack([
        np.zeros(int(keep.sum())),
        np.log(np.abs(v1[keep])),
        np.log(np.abs(v2[keep])),
    ], axis=-1)
    if not return_branches:
        return cloud
    if model.id != "thin_legs":
        raise ValueError(f"model {model.id} has no branch structure")
    labels = thin_legs_branch(0.0, u2[keep])
    return cloud, labels.tolist()


def discriminant_report(model):
    """The discriminant cloud of the model with id ``model`` and whether it
    lies in the amoeba of v1 + v2 + 1 = 0, to ``INSIDE_SLACK``.

    Returns ``(body, {".csv": cloud rows})``; ``passed`` is true when the
    cloud is inside exactly for the models of ``INSIDE_AMOEBA``.
    """
    cloud = discriminant_sample(make_model(model))
    a = np.exp(cloud[:, 1])
    b = np.exp(cloud[:, 2])
    inside = bool(np.all(np.abs(a - b) <= 1.0 + INSIDE_SLACK)
                  and np.all(a + b >= 1.0 - INSIDE_SLACK))
    body = {
        "model": model,
        "points": int(len(cloud)),
        "inside_oracle_amoeba": inside,
        "passed": inside == (model in INSIDE_AMOEBA),
    }
    return body, {".csv": cloud.tolist()}
