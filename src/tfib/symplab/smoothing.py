"""Smoothing I: interpolation of the leg profile rho between rho0 and a
smooth dominating rho1.

The horizontal-leg reduced fibration is (u1, u2) -> (log|u2|, g) with

    g = log| u1 / rho(|u1|^2, t, s) - 1 |,      s = |u2|^2,
    rho(r, t, s) = (1 - sigma(r, s)) rho0(r, t) + sigma(r, s) rho1(r, t),

rho0(r, t) = sqrt(|t| + sqrt(t^2 + r)).  rho0 carries the |t| kink that
makes the unsmoothed model fail to be smooth across the seam t = 0;
wherever sigma = 1 and rho1 is smooth, g is smooth in t.
"""

from __future__ import annotations

import numpy as np

from .. import numerics


def rho_zero(r, t):
    """sqrt(|t| + sqrt(t^2 + r)): the Gamma_t denominator; kinked at t=0."""
    r = np.asarray(r, dtype=float)
    t = np.asarray(t, dtype=float)
    return np.sqrt(np.abs(t) + np.sqrt(t * t + r))


def rho_one_smooth(r, t):
    """Smooth branch of rho0, plus one: sqrt(t + sqrt(t^2 + r)) + 1.

    Smooth in t for r > 0 and strictly above rho0 wherever
    2 sqrt(t + sqrt(t^2+r)) + 1 > 2|t|, in particular on any leg region
    with |t| < 1/2.
    """
    r = np.asarray(r, dtype=float)
    t = np.asarray(t, dtype=float)
    return np.sqrt(t + np.sqrt(t * t + r)) + 1.0


def sigma_bump(eps=0.1, s1_scale=0.5):
    """Cut-off equal to 1 on the inner rectangle S1 and 0 outside S0.

    S0 = [-9 eps^2/64, 9 eps^2/64] x [-3 eps/8, 3 eps/8] in the (r, s)
    plane, S1 the centered copy scaled by ``s1_scale``.
    """
    r0 = 9.0 * eps * eps / 64.0
    s0 = 3.0 * eps / 8.0

    def sigma(r, s):
        pr = numerics.plateau(r, -s1_scale * r0, s1_scale * r0, -r0, r0)
        ps = numerics.plateau(s, -s1_scale * s0, s1_scale * s0, -s0, s0)
        return pr * ps

    return sigma


class SmoothedLeg:
    """The leg model with the interpolated profile substituted."""

    def __init__(self, rho1, sigma, eps=0.1):
        self.rho1 = rho1
        self.eps = eps
        if sigma == "zero":
            self.sigma = lambda r, s: np.zeros_like(np.asarray(r, dtype=float))
        elif sigma == "one":
            self.sigma = lambda r, s: np.ones_like(np.asarray(r, dtype=float))
        elif sigma == "bump":
            self.sigma = sigma_bump(eps)
        elif callable(sigma):
            self.sigma = sigma
        else:
            raise ValueError("sigma must be 'zero', 'one', 'bump', or callable")

    def rho(self, r, t, s):
        sig = self.sigma(r, s)
        return (1.0 - sig) * rho_zero(r, t) + sig * self.rho1(r, t)

    def g(self, u1, t, s):
        """log |u1 / rho - 1| with the interpolated profile."""
        u1 = np.asarray(u1, dtype=complex)
        r = np.abs(u1) ** 2
        rho = self.rho(r, np.asarray(t, dtype=float), np.asarray(s, dtype=float))
        return np.log(np.abs(u1 / rho - 1.0))

    def reduced_map(self, u1, u2, t):
        """The full reduced leg fibration (log|u2|, g)."""
        u2 = np.asarray(u2, dtype=complex)
        return np.stack(
            [np.log(np.abs(u2)), self.g(u1, t, np.abs(u2) ** 2)], axis=-1
        )


def smoothing_one(rho1=None, sigma="bump", eps=0.1, region_samples=None,
                  rng=None) -> SmoothedLeg:
    """Build the Smoothing-I leg model, verifying rho1 > rho0 by sampling.

    ``rho1`` defaults to the smooth dominating profile rho_one_smooth.
    ``region_samples`` optionally overrides the (r, t) sample set used for
    the domination check (defaults to a seeded grid over the leg region).
    """
    if not eps > 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    rho1 = rho1 if rho1 is not None else rho_one_smooth
    if region_samples is None:
        rng = rng or np.random.default_rng(0)
        r = rng.uniform(0.0, eps * eps, size=256)
        t = rng.uniform(-eps, eps, size=256)
        region_samples = np.stack([r, t], axis=-1)
    r, t = region_samples[:, 0], region_samples[:, 1]
    gap = rho1(r, t) - rho_zero(r, t)
    if np.any(gap <= 0):
        worst = int(np.argmin(gap))
        raise ValueError(
            "rho1 <= rho0 at sampled (r, t) = "
            f"({r[worst]:.4g}, {t[worst]:.4g})"
        )
    return SmoothedLeg(rho1, sigma, eps=eps)


def seam_derivative_jump(leg: SmoothedLeg, u1, s, h=1e-5):
    """Two-sided t-derivatives of g across t = 0 and their mismatch.

    Central one-sided differences from either side of the seam; returns
    max |d+ - d-| over the supplied points.
    """
    u1 = np.asarray(u1, dtype=complex)
    s = np.asarray(s, dtype=float)

    def one_sided(sign):
        g1 = leg.g(u1, sign * h, s)
        g2 = leg.g(u1, sign * 2.0 * h, s)
        g0 = leg.g(u1, 0.0, s)
        # second-order one-sided difference
        return sign * (-3.0 * g0 + 4.0 * g1 - g2) / (2.0 * h)

    return float(np.max(np.abs(one_sided(+1.0) - one_sided(-1.0))))
