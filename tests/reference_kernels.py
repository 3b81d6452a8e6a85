"""Reference formulas for the numeric kernels, kept for tests only.

These are the straightforward versions of the maps in ``symplab.models``
(each component computed on its own and joined by ``np.stack``, the
thin-legs twist by ``np.select`` over all four branches), of
``germs.stitched_ff_action``, of ``numerics.displaced``, and of the
monodromy winding number in ``Fraction``s of the float inputs.  The
library versions share moduli, evaluate each branch only where it applies
and wind on integers; the tests check that they return the same bits.
"""

import math
from fractions import Fraction

import numpy as np

from tfib.symplab import models
from tfib.symplab.models import SQRT2, phi_leg_d, phi_leg_h, phi_leg_v, psi_amoeba


def mu12(z):
    return (np.abs(z[..., 0]) ** 2 - np.abs(z[..., 1]) ** 2) / 2.0


def gamma(z1, z2):
    z1 = np.asarray(z1, dtype=complex)
    z2 = np.asarray(z2, dtype=complex)
    denom = np.maximum(np.abs(z1), np.abs(z2))
    return z1 * z2 / np.where(denom > 0, denom, 1.0)


def log_abs(w):
    with np.errstate(divide="ignore"):
        return np.log(np.abs(w))


def _thin_legs_spheres(u1, u2):
    # the pinching constants are read at each call, so a test may move them
    eps, m = models.THIN_LEGS_EPS, models.THIN_LEGS_M
    r1 = np.abs(u1)
    return [(np.hypot(r1, np.abs(u2)), math.sqrt(eps), True),
            (np.hypot(r1, np.abs(u2 - SQRT2)), math.sqrt(eps), True),
            (np.abs(u2), math.sqrt(m), False)]


def thin_legs_masks(u1, u2):
    return [dist <= radius if inside else dist >= radius
            for dist, radius, inside in _thin_legs_spheres(u1, u2)]


def _thin_legs_switch_gap(u1, u2):
    return np.minimum.reduce([np.abs(dist - radius) for dist, radius, _
                              in _thin_legs_spheres(u1, u2)])


def phi_thin_legs(u1, u2):
    u1 = np.asarray(u1, dtype=complex)
    u2 = np.asarray(u2, dtype=complex)
    masks = thin_legs_masks(u1, u2)
    legs = [phi(u1, u2) for phi in (phi_leg_h, phi_leg_v, phi_leg_d)]
    v1, v2 = psi_amoeba(u1, u2)
    return (np.select(masks, [leg[0] for leg in legs], v1),
            np.select(masks, [leg[1] for leg in legs], v2))


def _min_pair_norm(z, pairs):
    vals = [np.hypot(np.abs(z[..., i]), np.abs(z[..., j])) for i, j in pairs]
    return np.minimum.reduce(vals)


def _phi_maps(phi, switch_gap=None):
    def f(z):
        v1, v2 = phi(gamma(z[..., 0], z[..., 1]), z[..., 2])
        return np.stack([mu12(z), log_abs(v1), log_abs(v2)], axis=-1)

    def margin(z):
        g = gamma(z[..., 0], z[..., 1])
        v1, v2 = phi(g, z[..., 2])
        switch = np.inf if switch_gap is None else switch_gap(g, z[..., 2])
        return np.minimum.reduce([
            np.abs(v1), np.abs(v2),
            _min_pair_norm(z, [(0, 1)]),
            np.abs(mu12(z)),
            np.broadcast_to(switch, np.shape(v1)),
        ])

    return f, margin


def _prod3(z):
    return z[..., 0] * z[..., 1] * z[..., 2]


#: model id -> (f, margin), the reference formulas of each model's map
MAPS = {
    "sm_ff": (
        lambda z: np.stack([mu12(z), log_abs(z[..., 0] * z[..., 1] + 1.0)], axis=-1),
        lambda z: np.minimum(np.abs(z[..., 0] * z[..., 1] + 1.0),
                             _min_pair_norm(z, [(0, 1)]))),
    "hl": (
        lambda z: np.stack([_prod3(z).imag,
                            np.abs(z[..., 0]) ** 2 - np.abs(z[..., 1]) ** 2,
                            np.abs(z[..., 0]) ** 2 - np.abs(z[..., 2]) ** 2], axis=-1),
        lambda z: _min_pair_norm(z, [(0, 1), (0, 2), (1, 2)])),
    "positive": (
        lambda z: np.stack([log_abs(1.0 + _prod3(z)),
                            np.abs(z[..., 0]) ** 2 - np.abs(z[..., 1]) ** 2,
                            np.abs(z[..., 0]) ** 2 - np.abs(z[..., 2]) ** 2], axis=-1),
        lambda z: np.minimum(np.abs(1.0 + _prod3(z)),
                             _min_pair_norm(z, [(0, 1), (0, 2), (1, 2)]))),
    "generic": (
        lambda z: np.stack([mu12(z), log_abs(z[..., 2]),
                            log_abs(z[..., 0] * z[..., 1] - 1.0)], axis=-1),
        lambda z: np.minimum.reduce([np.abs(z[..., 0] * z[..., 1] - 1.0),
                                     np.abs(z[..., 2]),
                                     _min_pair_norm(z, [(0, 1)])])),
    "stitched_ff": (
        lambda z: np.stack([mu12(z), log_abs(gamma(z[..., 0], z[..., 1]) + 1.0)],
                           axis=-1),
        lambda z: np.minimum.reduce([np.abs(gamma(z[..., 0], z[..., 1]) + 1.0),
                                     _min_pair_norm(z, [(0, 1)]),
                                     np.abs(mu12(z))])),
    "amoeba": _phi_maps(psi_amoeba),
    "leg_h": _phi_maps(phi_leg_h),
    "leg_v": _phi_maps(phi_leg_v),
    "leg_d": _phi_maps(phi_leg_d),
    "thin_legs": _phi_maps(phi_thin_legs, _thin_legs_switch_gap),
    "control": (
        lambda z: np.stack([np.abs(z[..., 0]) ** 2, z[..., 0].real, z[..., 1].imag],
                           axis=-1),
        lambda z: np.abs(z[..., 0].imag)),
}
assert sorted(MAPS) == sorted(models._BUILDERS)


def stitched_ff_action(side, z):
    z = np.atleast_2d(np.asarray(z, dtype=complex))
    if side == "plus":
        g = z[..., 0] * z[..., 1] / np.abs(z[..., 0])
        return math.pi * np.abs(g + 1.0) ** 2 + 2.0 * math.pi * mu12(z)
    g = z[..., 0] * z[..., 1] / np.abs(z[..., 1])
    return math.pi * np.abs(g + 1.0) ** 2


def displaced(x, k, hk):
    xs = np.empty((4,) + x.shape)
    xs[...] = x
    xs[..., k] += np.stack([hk, -hk, hk / 2.0, -(hk / 2.0)])
    return xs


def _exact(vec):
    return [Fraction(float(x)) for x in vec]


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def winding(ax, ay, c, u, v):
    """Winding number of (ax . b, ay . b) about 0 along the circle (c, u, v),
    every step in Fractions of the float inputs; ``ValueError`` when the
    loop meets the kernel's singular line."""
    ax, ay, c, u, v = (_exact(vec) for vec in (ax, ay, c, u, v))
    p0, p1 = _dot(ax, c), _dot(ay, c)
    a00, a01, a10, a11 = _dot(ax, u), _dot(ax, v), _dot(ay, u), _dot(ay, v)
    det = a00 * a11 - a01 * a10
    m00, m01, m11 = a00 * a00 + a01 * a01, a00 * a10 + a01 * a11, a10 * a10 + a11 * a11
    if det:
        q = m11 * p0 * p0 - 2 * m01 * p0 * p1 + m00 * p1 * p1
        if q != det * det:
            return (1 if det > 0 else -1) if q < det * det else 0
    else:
        tr = m00 + m11
        if (m00 * p0 + m01 * p1 != tr * p0 or m01 * p0 + m11 * p1 != tr * p1
                or p0 * p0 + p1 * p1 > tr):
            return 0
    raise ValueError("loop meets the singular line of a kernel (the discriminant)")
