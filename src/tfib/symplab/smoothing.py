"""Smoothing I: interpolation of the leg profile rho between rho0 and a
smooth dominating rho1.

The horizontal-leg reduced fibration is (u1, u2) -> (log|u2|, g) with

    g = log| u1 / rho(|u1|^2, t, s) - 1 |,      s = |u2|^2,
    rho(r, t, s) = (1 - sigma(r, s)) rho0(r, t) + sigma(r, s) rho1(r, t),

rho0(r, t) = sqrt(|t| + sqrt(t^2 + r)).  rho0 carries the |t| kink that
makes the unsmoothed model fail to be smooth across the seam t = 0;
wherever sigma = 1 and rho1 is smooth, g is smooth in t.
:func:`smoothing_report` checks that on seeded seam points
(``tfib fib smooth1``).
"""

from __future__ import annotations

import numpy as np

from .. import numerics
from .reduction import rho_zero

#: a seam derivative jump at or above this fails sigma = 1
SEAM_JUMP_TOL = 1e-4
#: the leg width eps: the leg region is [0, eps^2] x [-eps, eps] in (r, t)
LEG_EPS = 0.1


def rho_one_smooth(r, t):
    """Smooth branch of rho0, plus one: sqrt(t + sqrt(t^2 + r)) + 1.

    Smooth in t for r > 0 and strictly above rho0 wherever
    2 sqrt(t + sqrt(t^2+r)) + 1 > 2|t|, in particular on any leg region
    with |t| < 1/2.
    """
    r = np.asarray(r, dtype=float)
    t = np.asarray(t, dtype=float)
    return np.sqrt(t + np.sqrt(t * t + r)) + 1.0


def sigma_bump():
    """Cut-off equal to 1 on the inner rectangle S1 and 0 outside S0.

    S0 = [-9 eps^2/64, 9 eps^2/64] x [-3 eps/8, 3 eps/8] in the (r, s)
    plane (eps = LEG_EPS), S1 the centered copy scaled by 1/2.
    """
    r0 = 9.0 * LEG_EPS * LEG_EPS / 64.0
    s0 = 3.0 * LEG_EPS / 8.0

    def sigma(r, s):
        pr = numerics.plateau(r, -0.5 * r0, 0.5 * r0, -r0, r0)
        ps = numerics.plateau(s, -0.5 * s0, 0.5 * s0, -s0, s0)
        return pr * ps

    return sigma


class SmoothedLeg:
    """The leg model with the interpolated profile substituted."""

    def __init__(self, rho1, sigma):
        self.rho1 = rho1
        if sigma == "zero":
            self.sigma = lambda r, s: np.zeros_like(np.asarray(r, dtype=float))
        elif sigma == "one":
            self.sigma = lambda r, s: np.ones_like(np.asarray(r, dtype=float))
        elif sigma == "bump":
            self.sigma = sigma_bump()
        else:
            raise ValueError(f"sigma must be 'zero', 'one' or 'bump', got {sigma!r}")

    def rho(self, r, t, s):
        sig = self.sigma(r, s)
        return (1.0 - sig) * rho_zero(r, t) + sig * self.rho1(r, t)

    def g(self, u1, t, s):
        """log |u1 / rho - 1| with the interpolated profile."""
        u1 = np.asarray(u1, dtype=complex)
        r = np.abs(u1) ** 2
        rho = self.rho(r, np.asarray(t, dtype=float), np.asarray(s, dtype=float))
        return np.log(np.abs(u1 / rho - 1.0))


def smoothing_one(rho1=None, sigma="bump") -> SmoothedLeg:
    """Build the Smoothing-I leg model, verifying rho1 > rho0 by sampling.

    ``rho1`` defaults to the smooth dominating profile rho_one_smooth.
    The domination check samples 256 points (r, t) of the leg region
    [0, eps^2] x [-eps, eps] (eps = LEG_EPS), drawn from a generator
    seeded with 0.
    """
    rho1 = rho1 if rho1 is not None else rho_one_smooth
    rng = np.random.default_rng(0)
    r = rng.uniform(0.0, LEG_EPS * LEG_EPS, size=256)
    t = rng.uniform(-LEG_EPS, LEG_EPS, size=256)
    gap = rho1(r, t) - rho_zero(r, t)
    if np.any(gap <= 0):
        worst = int(np.argmin(gap))
        raise ValueError(
            "rho1 <= rho0 at sampled (r, t) = "
            f"({r[worst]:.4g}, {t[worst]:.4g})"
        )
    return SmoothedLeg(rho1, sigma)


def seam_derivative_jump(leg: SmoothedLeg, u1, s):
    """Two-sided t-derivatives of g across t = 0 and their mismatch.

    Second-order one-sided differences (step 1e-5) from either side of the
    seam; returns max |d+ - d-| over the supplied points.
    """
    h = 1e-5
    u1 = np.asarray(u1, dtype=complex)
    s = np.asarray(s, dtype=float)

    def one_sided(sign):
        g1 = leg.g(u1, sign * h, s)
        g2 = leg.g(u1, sign * 2.0 * h, s)
        g0 = leg.g(u1, 0.0, s)
        # second-order one-sided difference
        return sign * (-3.0 * g0 + 4.0 * g1 - g2) / (2.0 * h)

    return float(np.max(np.abs(one_sided(+1.0) - one_sided(-1.0))))


def smoothing_report(sigma="bump", seed=0):
    """The seam derivative jump of the Smoothing-I leg at 100 seam points
    (u1 in [-0.3, 0.3]^2, s in [0, eps/2], eps = LEG_EPS) drawn from a
    generator seeded with ``seed``: the report body.

    ``passed`` is true for sigma = 0 when the leg's g equals the
    unsmoothed log|u1 / rho0 - 1| bit for bit (at t = 0.02), for sigma = 1
    when the jump is below ``SEAM_JUMP_TOL``, and None (no check) for the
    bump.
    """
    rng = np.random.default_rng(seed)
    leg = smoothing_one(sigma=sigma)
    u1 = rng.uniform(-0.3, 0.3, 100) + 1j * rng.uniform(-0.3, 0.3, 100)
    s = rng.uniform(0.0, LEG_EPS / 2.0, 100)
    jump = seam_derivative_jump(leg, u1, s)
    if sigma == "zero":
        raw = np.log(np.abs(u1 / rho_zero(np.abs(u1) ** 2, 0.02) - 1.0))
        passed = bool(np.array_equal(leg.g(u1, 0.02, s), raw))
    else:
        passed = jump < SEAM_JUMP_TOL if sigma == "one" else None
    return {
        "sigma": sigma,
        "eps": LEG_EPS,
        "seam_derivative_jump": jump,
        "passed": passed,
    }
