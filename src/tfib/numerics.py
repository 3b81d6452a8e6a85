"""Shared numerical helpers: finite differences, Hamiltonian fields, bumps
and the two doubling quadratures.

Every derivative in the package comes from one engine, :func:`jacobian`:
central differences with one Richardson extrapolation step (fourth order),
batched over any leading axes.  Its one step policy is :func:`fd_step`:
each coordinate's step is the base step scaled by that coordinate's
magnitude (never below the base step).  Its one stencil builder is
:func:`displaced`, the four copies of a point displaced along one
coordinate, and :func:`richardson` combines f on them, for callers that
evaluate a whole stencil at once.  Complex-valued callers go through
the real interleaved coordinates of :func:`c2r` (a copy) and :func:`r2c`
(a zero-copy complex view of its input, which must not be written
through while the view is in use).  Piecewise
maps are differentiated one-sidedly by the callers where a seam is known;
nothing here tries to be clever across branch cuts.  There is no ODE
integrator: the package's only flows, the twists of ``symplab.twist``,
are known in closed form, and both of their checks (symplecticity, and
the integral-curve identity d/ds phi_s = X_H) take their derivatives
from :func:`jacobian`.

Sign conventions, fixed once for the whole package:

* symplectic form on C^n = R^{2n}:  omega = sum dx_k ^ dy_k, as a bilinear
  form omega(a, b) = sum Im(conj(a_k) b_k) on complex tuples;
* Hamiltonian vector field of F:  xdot_k = -dF/dy_k, ydot_k = +dF/dx_k,
  equivalently udot_k = 2i dF/du_k.  With this choice the moment map
  (|z1|^2 - |z2|^2)/2 generates (z1, z2) -> (e^{i t} z1, e^{-i t} z2).
  Its one home is :func:`field_of_gradient`, which every field applies.
"""

from __future__ import annotations

import math
import os

import numpy as np

DEFAULT_STEP = 1e-4


def fd_step(x, step=DEFAULT_STEP):
    """Step scaled by coordinate magnitude (never below ``step``)."""
    return step * np.maximum(1.0, np.abs(x))


def displaced(x, k, hk):
    """The four copies of ``x`` (shape (..., d)) with coordinate k displaced
    by +hk, -hk, +hk/2 and -hk/2, stacked: shape (4, ..., d); ``hk`` has
    shape (...).  Each displaced column is written in place."""
    xs = np.empty((4,) + x.shape)
    xs[...] = x
    xk = x[..., k]
    half = hk / 2.0
    np.add(xk, hk, out=xs[0, ..., k])
    np.subtract(xk, hk, out=xs[1, ..., k])
    np.add(xk, half, out=xs[2, ..., k])
    np.subtract(xk, half, out=xs[3, ..., k])
    return xs


def _combine(fp, fm, fp2, fm2, h):
    """(4 D(h/2) - D(h)) / 3 from f at +h, -h, +h/2, -h/2 along one axis;
    ``h`` broadcasts against the values' leading axes."""
    if np.ndim(fp) > np.ndim(h):     # vector f: a trailing component axis
        h = h[..., None]
    d1 = (fp - fm) / (2.0 * h)
    d2 = (fp2 - fm2) / (2.0 * (h / 2.0))
    return (4.0 * d2 - d1) / 3.0


def richardson(values, h):
    """The derivative from f at the stencils with steps ``h`` (d, ...).

    ``values[k, i]`` is f at ``displaced(x, k, h[k])[i]``, shape (d, 4) +
    f's shape (...) or (..., k).  The central quotients D(h), D(h/2) along
    each coordinate combine to the fourth-order (4 D(h/2) - D(h)) / 3; the
    result has shape (..., d) for scalar f and (..., k, d) for vector f.
    """
    values = np.asarray(values, dtype=float)
    return np.moveaxis(_combine(*values.swapaxes(0, 1), h), 0, -1)


def jacobian(f, x, step=DEFAULT_STEP):
    """Richardson-extrapolated central derivative of f along the last axis of x.

    The package's one finite-difference engine.  ``x`` has shape (..., d)
    and ``f`` maps such an array to values of shape (...) (scalar f) or
    (..., k) (vector f), acting pointwise on the leading axes.  Returns
    (..., d) for scalar f and (..., k, d) for vector f: :func:`richardson`
    of f on the :func:`displaced` copies of each coordinate, one call of f
    per copy.  The engine keeps one copy per call on purpose: with four
    copies per call, the gradients of the ten 2000-point Poisson batches of
    the ``numeric`` benchmark took 22 ms instead of 15 ms (best of 15,
    2-core Xeon, numpy 2.4), because the larger temporaries cost more than
    the saved calls.  A caller whose map acts pointwise on one more leading
    axis, and whose batches are small, can evaluate the stencil in a few
    calls instead (``periods.numeric`` does).
    """
    x = np.asarray(x, dtype=float)
    d = x.shape[-1]
    out = None
    for k in range(d):
        hk = fd_step(x[..., k], step)
        col = _combine(*[np.asarray(f(xi)) for xi in displaced(x, k, hk)], hk)
        if out is None:
            out = np.empty(col.shape + (d,))
        out[..., k] = col
    return out


def max_curl(fields, x):
    """Closedness defect of the 1-forms ``fields`` at the points x (..., d):
    max |J - J^T|, J the :func:`jacobian` of each at base step 1e-5."""
    worst = 0.0
    for f in fields:
        jac = jacobian(f, x, step=1e-5)
        worst = max(worst, float(np.max(np.abs(jac - np.swapaxes(jac, -1, -2)))))
    return worst


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
    """Interleaved real array (..., 2n) -> complex array (..., n), as a view.

    Interleaved real coordinates have the memory layout of complex128, so
    the result is ``x`` (or its contiguous float copy) viewed as complex:
    no arithmetic, and the exact inverse of :func:`c2r` bit for bit (signed
    zeros, infinities and nans included).  It shares memory with ``x``:
    do not write into it, nor into ``x`` while it is in use.  An odd last
    axis raises ``ValueError``.
    """
    x = np.ascontiguousarray(x, dtype=float)
    if x.shape[-1] % 2:
        raise ValueError(f"interleaved coordinates need an even last axis, "
                         f"got shape {x.shape}")
    return x.view(complex)


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


def field_of_gradient(g):
    """X_F from the gradient ``g`` of F, both interleaved real (..., 2n):
    each pair (x_k, y_k) of dF becomes (-y_k, x_k)."""
    out = np.empty(g.shape)
    out[..., 0::2] = -g[..., 1::2]
    out[..., 1::2] = g[..., 0::2]
    return out


def hamiltonian_field(F, z, step=DEFAULT_STEP):
    """Hamiltonian vector field of a real function F of a complex tuple.

    udot_k = -dF/dy_k + i dF/dx_k, from the engine's gradient.  ``F`` maps
    complex points (..., n) to real values (...); ``z`` is one point (n,)
    or a batch (..., n), and the field has its shape.
    """
    return r2c(field_of_gradient(gradient(lambda x: F(r2c(x)), c2r(z), step=step)))


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


def half_line_quadrature(f, scale, tol):
    """int_0^inf f(t) dt by the exp-sinh trapezoid rule, halving its step.

    The substitution t = ``scale`` exp(pi/2 sinh x) maps the half-line to
    x in R.  The rule samples x in [-6, 5] (beyond 5, t^4 overflows even at
    scale 1), first at step 1/4; each round halves the step and adds only
    the new midpoints to the old sum.  For an integrand analytic near (0, inf)
    with an algebraic tail the transformed integrand decays doubly
    exponentially, so the error of each rule is roughly the square of the
    previous one.  ``f`` maps an array of t to an array of values; ``scale``
    is where its features sit.  Returns (value, |value - previous value|)
    once that difference is at most ``tol`` max(1, |value|); raises
    ``ValueError`` if the step reaches 2^-10 first.
    """
    def sample(x):
        t = scale * np.exp(0.5 * math.pi * np.sinh(x))
        return f(t) * t * (0.5 * math.pi) * np.cosh(x)

    step = 0.25
    first = sample(np.arange(-6.0, 5.0 + 0.5 * step, step))
    total = first.sum() - 0.5 * (first[0] + first[-1])
    value = step * total
    while step > 2.0 ** -10:
        step *= 0.5
        total += sample(np.arange(-6.0 + step, 5.0, 2.0 * step)).sum()
        value, previous = step * total, value
        err = abs(value - previous)
        if err <= tol * max(1.0, abs(value)):
            return value, err
    raise ValueError(f"half-line quadrature did not converge "
                     f"(doubling estimate {err:.2e} > {tol})")


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
    # imported here: concurrent.futures costs a cold command milliseconds
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, chunks))
