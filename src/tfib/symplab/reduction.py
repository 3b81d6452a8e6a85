"""Symplectic reduction by the (z1, z2) circle action and its smoothings.

The reduced form at level t is

    omega_t = (i/2) [ du1 ^ dconj(u1) / (2 sqrt(t^2 + |u1|^2)) + sum_{j>=2} duj ^ dconj(uj) ],

and Gamma_t(u) = (u1 / sqrt(|t| + sqrt(t^2 + |u1|^2)), u2, ...) pulls the
standard form back to omega_t.  ``reduction_check`` verifies this with
finite-difference Jacobians, and :func:`reduction_report` runs it on
seeded samples (``tfib fib reduce-check``).
"""

from __future__ import annotations

import numpy as np

from .. import numerics

#: a pull-back defect at or above this fails the check
REDUCTION_TOL = 1e-6
#: at t = 0 only samples with |u1| above this are checked
T0_MIN_U1 = 0.05


def rho_zero(r, t):
    """sqrt(|t| + sqrt(t^2 + r)): the Gamma_t denominator; kinked at t=0."""
    r = np.asarray(r, dtype=float)
    t = np.asarray(t, dtype=float)
    return np.sqrt(np.abs(t) + np.sqrt(t * t + r))


def gamma_t(u, t):
    """Gamma_t on arrays (..., k) of reduced coordinates.

    Continuous everywhere; smooth away from u1 = 0 when t = 0.
    """
    u = np.asarray(u, dtype=complex)
    u1 = u[..., 0]
    denom = rho_zero(np.abs(u1) ** 2, t)
    out = u.copy()
    with np.errstate(invalid="ignore", divide="ignore"):
        out[..., 0] = np.where(denom > 0, u1 / np.where(denom > 0, denom, 1.0), 0.0)
    return out


def gamma_t_inverse(w, t):
    """Closed-form inverse: u1 = w1 sqrt(2|t| + |w1|^2)."""
    w = np.asarray(w, dtype=complex)
    out = w.copy()
    out[..., 0] = w[..., 0] * np.sqrt(2.0 * abs(t) + np.abs(w[..., 0]) ** 2)
    return out


def omega_t_matrix(u1, t, k=2):
    """Matrix of omega_t at u1 (or a stack of them over an array u1),
    interleaved real coordinates."""
    c = 1.0 / (2.0 * np.sqrt(t * t + np.abs(u1) ** 2))
    omega = np.broadcast_to(numerics.omega_matrix(k), np.shape(c) + (2 * k, 2 * k)).copy()
    omega[..., 0, 1] = c
    omega[..., 1, 0] = -c
    return omega


def reduction_check(t, samples):
    """max |Gamma_t^* omega_std - omega_t| over the samples, componentwise.

    ``samples`` is an array (m, k) of complex reduced points; at t = 0
    they must avoid u1 = 0, where Gamma_0 is not smooth.  The Jacobian of
    Gamma_t takes base step 1e-6.
    """
    if not np.isfinite(t):
        raise ValueError(f"level t must be finite, got {t}")
    samples = np.atleast_2d(np.asarray(samples, dtype=complex))
    k = samples.shape[1]
    if t == 0.0 and np.any(np.abs(samples[:, 0]) < 1e-9):
        raise ValueError("sample at the t = 0 singular locus u1 = 0")
    jac = numerics.jacobian(lambda x: numerics.c2r(gamma_t(numerics.r2c(x), t)),
                            numerics.c2r(samples), step=1e-6)
    pullback = np.swapaxes(jac, -1, -2) @ numerics.omega_matrix(k) @ jac
    return float(np.max(np.abs(pullback - omega_t_matrix(samples[:, 0], t, k))))


def reduction_report(t, samples, seed=0):
    """The reduction check at level t on ``samples`` points (u1, u2) drawn
    uniformly from [-1.5, 1.5]^4 by a generator seeded with ``seed``: the
    report body, with ``passed`` true when the defect is below
    ``REDUCTION_TOL``.  At t = 0 the draws with |u1| <= ``T0_MIN_U1`` are
    dropped, and none left raises ValueError."""
    pts = np.random.default_rng(seed).uniform(-1.5, 1.5, size=(samples, 4))
    z = numerics.r2c(pts)
    if t == 0.0:
        z = z[np.abs(z[:, 0]) > T0_MIN_U1]
        if not len(z):
            raise ValueError(f"at t = 0 only samples with |u1| > {T0_MIN_U1} "
                             "are checked, and none was drawn")
    worst = reduction_check(t, z)
    return {
        "t": t,
        "max_defect": worst,
        "samples": len(z),
        "tol": REDUCTION_TOL,
        "passed": worst < REDUCTION_TOL,
    }
