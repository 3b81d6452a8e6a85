"""Discriminant clouds of the lifted piecewise-smooth fibrations.

The critical surface of every Phi-twisted model is Sigma = {u1 = 0} in the
zero reduced level, and the discriminant is {0} x (Log o Phi o Gamma_0)(Sigma);
sampling Sigma over a grid of u2 and pushing forward gives the cloud.
"""

from __future__ import annotations

import numpy as np

from .models import FibrationModel, thin_legs_branch


def discriminant_sample(model: FibrationModel, grid_radius=3.0, grid_n=120,
                        return_branches=False):
    """Point cloud {0} x Log(Phi(0, u2)) over a polar grid of u2 in C*.

    Returns an array (k, 3); raises when the model has no declared Phi or
    the grid misses the critical surface entirely.  With
    ``return_branches=True`` (thin-legs model) also returns the Phi branch
    label of each sample.
    """
    if model.phi is None:
        raise ValueError(f"model {model.id} carries no reduced twist Phi")
    radii = np.exp(np.linspace(np.log(1e-3), np.log(grid_radius), grid_n))
    angles = np.linspace(0.0, 2.0 * np.pi, grid_n, endpoint=False)
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
    if "eps" not in model.params:
        raise ValueError(f"model {model.id} has no branch structure")
    labels = thin_legs_branch(0.0, u2[keep], model.params["eps"], model.params["M"])
    return cloud, labels.tolist()
