"""The amoeba of v1 + v2 + 1 = 0 under coordinatewise log of modulus.

Membership is decided by the triangle inequality on the side lengths
(e^{x1}, e^{x2}, 1): a point is in the amoeba iff a triangle with those
sides exists, i.e. |e^{x1} - e^{x2}| <= 1 <= e^{x1} + e^{x2}; equality is
the boundary (degenerate triangle).  :func:`amoeba_report` rasterizes the
amoeba and spot-checks the raster against the same inequalities in log
space (``tfib fib amoeba``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: the largest |bound| of a report's square: e^x is a finite float up to it
MAX_BOUND = 709.0


def amoeba_membership(x1, x2):
    """Vectorized membership test for the closed amoeba."""
    a = np.exp(np.asarray(x1, dtype=float))
    b = np.exp(np.asarray(x2, dtype=float))
    return (np.abs(a - b) <= 1.0) & (1.0 <= a + b)


@dataclass
class AmoebaRaster:
    bounds: tuple            # (x1_min, x1_max, x2_min, x2_max)
    resolution: tuple        # (n1, n2)
    mask: np.ndarray         # boolean, mask[i, j] at (x1_i, x2_j)
    boundary: np.ndarray     # (k, 2) float cloud of boundary-cell centers

    def grid(self):
        x1 = np.linspace(self.bounds[0], self.bounds[1], self.resolution[0])
        x2 = np.linspace(self.bounds[2], self.bounds[3], self.resolution[1])
        return x1, x2


def amoeba_raster(bounds=(-3.0, 3.0, -3.0, 3.0), resolution=(200, 200)) -> AmoebaRaster:
    n1, n2 = resolution
    x1 = np.linspace(bounds[0], bounds[1], n1)
    x2 = np.linspace(bounds[2], bounds[3], n2)
    g1, g2 = np.meshgrid(x1, x2, indexing="ij")
    mask = amoeba_membership(g1, g2)
    edge = np.zeros_like(mask)
    edge[:-1, :] |= mask[:-1, :] != mask[1:, :]
    edge[:, :-1] |= mask[:, :-1] != mask[:, 1:]
    boundary = np.stack([g1[edge], g2[edge]], axis=-1)
    return AmoebaRaster(tuple(bounds), (n1, n2), mask, boundary)


def amoeba_report(res=200, lo=-3.0, hi=3.0):
    """Rasterize the square [lo, hi]^2 at res x res and check every
    (res // 37)-th row and column against a log-space oracle.

    Returns ``(body, raster, cloud)``: the report body (``passed`` true
    when the sub-grid matches the oracle), the raster, and every
    (res // 50)-th inside cell center in raster order, as (x1, x2) pairs.
    res must be at least 2, and -MAX_BOUND <= lo < hi <= MAX_BOUND.
    """
    if res < 2:
        raise ValueError(f"res must be at least 2, got {res}")
    if not -MAX_BOUND <= lo < hi <= MAX_BOUND:
        raise ValueError(f"bounds must satisfy -{MAX_BOUND:g} <= lo < hi <= "
                         f"{MAX_BOUND:g}, got {lo} {hi}")
    raster = amoeba_raster((lo, hi, lo, hi), (res, res))
    x1, x2 = raster.grid()
    # |e^x1 - e^x2| <= 1 <= e^x1 + e^x2 in log space: no exponential formed
    k = max(1, res // 37)
    a, b = x1[::k, None], x2[None, ::k]
    oracle = (np.maximum(a, b) <= np.logaddexp(0.0, np.minimum(a, b))) \
        & (np.logaddexp(a, b) >= 0.0)
    body = {
        "resolution": [res, res],
        "bounds": [lo, hi, lo, hi],
        "inside_cells": int(raster.mask.sum()),
        "boundary_cells": int(len(raster.boundary)),
        "passed": bool(np.array_equal(raster.mask[::k, ::k], oracle)),
    }
    cloud = [(x1[i], x2[j]) for i, j in np.argwhere(raster.mask)[:: max(1, res // 50)]]
    return body, raster, cloud
