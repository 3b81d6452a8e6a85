"""Shared numerical helpers: finite differences, Hamiltonian fields, bumps,
the doubling quadrature.

Every derivative in the package comes from one engine, :func:`jacobian`:
central differences with one Richardson extrapolation step (fourth order),
batched over any leading axes.  Its one step policy is :func:`fd_step`:
each coordinate's step is the base step scaled by that coordinate's
magnitude (never below the base step).  Complex-valued callers go through
the real interleaved coordinates of :func:`c2r` / :func:`r2c`.  Piecewise
maps are differentiated one-sidedly by the callers where a seam is known;
nothing here tries to be clever across branch cuts.

Sign conventions, fixed once for the whole package:

* symplectic form on C^n = R^{2n}:  omega = sum dx_k ^ dy_k, as a bilinear
  form omega(a, b) = sum Im(conj(a_k) b_k) on complex tuples;
* Hamiltonian vector field of F:  xdot_k = -dF/dy_k, ydot_k = +dF/dx_k,
  equivalently udot_k = 2i dF/du_k.  With this choice the moment map
  (|z1|^2 - |z2|^2)/2 generates (z1, z2) -> (e^{i t} z1, e^{-i t} z2).
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

DEFAULT_STEP = 1e-4


def fd_step(x, step=DEFAULT_STEP):
    """Step scaled by coordinate magnitude (never below ``step``)."""
    return step * np.maximum(1.0, np.abs(x))


def jacobian(f, x, step=DEFAULT_STEP):
    """Richardson-extrapolated central derivative of f along the last axis of x.

    The package's one finite-difference engine.  ``x`` has shape (..., d)
    and ``f`` maps such an array to values of shape (...) (scalar f) or
    (..., k) (vector f), acting pointwise on the leading axes.  Returns
    (..., d) for scalar f and (..., k, d) for vector f.  Coordinate j of
    every point is displaced by h = ``fd_step(x[..., j], step)`` and by h/2,
    and the two central quotients D(h), D(h/2) combine to the fourth-order
    (4 D(h/2) - D(h)) / 3.
    """
    x = np.asarray(x, dtype=float)
    d = x.shape[-1]
    out = None
    for k in range(d):
        h = fd_step(x[..., k], step)

        def central(hh):
            xp = x.copy()
            xm = x.copy()
            xp[..., k] += hh
            xm[..., k] -= hh
            diff = np.asarray(f(xp)) - np.asarray(f(xm))
            if diff.ndim > np.ndim(hh):   # vector f: a trailing component axis
                return diff / (2.0 * hh)[..., None]
            return diff / (2.0 * hh)

        d1 = central(h)
        d2 = central(h / 2.0)
        if out is None:
            out = np.empty(d1.shape + (d,))
        out[..., k] = (4.0 * d2 - d1) / 3.0
    return out


def gradient(f, x, step=DEFAULT_STEP):
    """Gradient of scalar f at x (or at a batch x of shape (..., d)): the
    scalar case of :func:`jacobian`, with the same shape as ``x``."""
    return jacobian(f, x, step=step)


# ----------------------------------------------------------------------
# real <-> complex packing and the standard symplectic structure
# ----------------------------------------------------------------------

def c2r(z):
    """Complex array (..., n) -> interleaved real array (..., 2n)."""
    z = np.asarray(z, dtype=complex)
    out = np.empty(z.shape[:-1] + (2 * z.shape[-1],), dtype=float)
    out[..., 0::2] = z.real
    out[..., 1::2] = z.imag
    return out


def r2c(x):
    """Interleaved real array (..., 2n) -> complex array (..., n)."""
    x = np.asarray(x, dtype=float)
    return x[..., 0::2] + 1j * x[..., 1::2]


def omega_matrix(n):
    """Matrix of sum dx_k ^ dy_k on R^{2n}, interleaved coordinates."""
    omega = np.zeros((2 * n, 2 * n))
    for k in range(n):
        omega[2 * k, 2 * k + 1] = 1.0
        omega[2 * k + 1, 2 * k] = -1.0
    return omega


def omega_pair(a, b):
    """omega(a, b) for complex tuples a, b (vectorized over leading axes)."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    return np.sum((np.conj(a) * b).imag, axis=-1)


def hamiltonian_field(F, z, step=DEFAULT_STEP):
    """Hamiltonian vector field of a real function F of a complex tuple.

    udot_k = -dF/dy_k + i dF/dx_k, the convention stated in the module
    docstring.  ``F`` maps complex points (..., n) to real values (...);
    ``z`` is one point (n,) or a batch (..., n), and the field has its shape.
    """
    g = gradient(lambda x: F(r2c(x)), c2r(z), step=step)
    return -g[..., 1::2] + 1j * g[..., 0::2]


# ----------------------------------------------------------------------
# bump functions (the fixed smoothstep-of-degree-7 family)
# ----------------------------------------------------------------------

def smoothstep7(x):
    """C^3 monotone step: 0 for x<=0, 1 for x>=1, degree-7 polynomial between."""
    x = np.clip(x, 0.0, 1.0)
    return x**4 * (35.0 - 84.0 * x + 70.0 * x**2 - 20.0 * x**3)


def cutoff(t, lo, hi):
    """1 for t <= lo, 0 for t >= hi, smoothstep7 transition in between."""
    return 1.0 - smoothstep7((np.asarray(t, dtype=float) - lo) / (hi - lo))


def plateau(t, inner_lo, inner_hi, outer_lo, outer_hi):
    """1 on [inner_lo, inner_hi], 0 outside (outer_lo, outer_hi)."""
    up = smoothstep7((np.asarray(t, dtype=float) - outer_lo) / (inner_lo - outer_lo))
    down = 1.0 - smoothstep7((np.asarray(t, dtype=float) - inner_hi) / (outer_hi - inner_hi))
    return up * down


# ----------------------------------------------------------------------
# quadrature
# ----------------------------------------------------------------------

def periodic_quadrature(values):
    """Trapezoid mean of a 1-periodic function and its doubling estimate.

    ``values`` holds the samples at the n nodes j/n, j = 0..n-1 (n even),
    along the first axis; for smooth periodic integrands the rule converges
    spectrally.  The n/2-node rule's nodes j/(n/2) = 2j/n are exactly the
    even-index nodes, so its mean is taken over ``values[::2]`` instead of
    sampling again.  Returns (mean, max |mean - coarse mean|).
    """
    values = np.asarray(values, dtype=float)
    mean = values.mean(axis=0)
    return mean, float(np.max(np.abs(mean - values[::2].mean(axis=0))))


# ----------------------------------------------------------------------
# parallel sampling
# ----------------------------------------------------------------------

# Unused in tfib; kept only because perfbench/spans.py PLAIN wraps both by name.

def thread_count():
    """Parallelism cap from TFIB_THREADS (default 1)."""
    try:
        return max(1, int(os.environ.get("TFIB_THREADS", "1")))
    except ValueError:
        return 1


def parallel_map(fn, chunks):
    """Map fn over chunks, threaded when TFIB_THREADS > 1."""
    workers = thread_count()
    if workers == 1 or len(chunks) <= 1:
        return [fn(c) for c in chunks]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, chunks))
