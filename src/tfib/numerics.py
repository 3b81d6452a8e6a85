"""Shared numerical helpers: finite differences, Hamiltonian fields, bumps,
the time-1 ODE stepper and the two doubling quadratures.

Every derivative in the package comes from one engine, :func:`jacobian`:
central differences with one Richardson extrapolation step (fourth order),
batched over any leading axes.  Its one step policy is :func:`fd_step`:
each coordinate's step is the base step scaled by that coordinate's
magnitude (never below the base step); :func:`stencil` and
:func:`richardson` are its two halves, for callers that evaluate the
whole stencil at once.  Complex-valued callers go through
the real interleaved coordinates of :func:`c2r` (a copy) and :func:`r2c`
(a zero-copy complex view of its input, which must not be written
through while the view is in use).  Piecewise
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

import math
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

DEFAULT_STEP = 1e-4


def fd_step(x, step=DEFAULT_STEP):
    """Step scaled by coordinate magnitude (never below ``step``)."""
    return step * np.maximum(1.0, np.abs(x))


def _displaced(x, k, hk):
    """Copies of ``x`` with coordinate k displaced by +hk, -hk, +hk/2 and
    -hk/2, made one at a time."""
    for shift in (hk, hk / 2.0):
        xi = x.copy()
        xi[..., k] += shift
        yield xi
        xi = x.copy()
        xi[..., k] -= shift
        yield xi


def displaced(x, k, hk):
    """The four copies of ``x`` (shape (..., d)) with coordinate k displaced
    by +hk, -hk, +hk/2 and -hk/2, stacked: shape (4, ..., d).  Each equals
    the copy :func:`jacobian` makes, bit for bit (x - h is x + (-h))."""
    xs = np.empty((4,) + x.shape)
    xs[...] = x
    xs[..., k] += np.stack([hk, -hk, hk / 2.0, -(hk / 2.0)])
    return xs


def stencil(x, step=DEFAULT_STEP):
    """The displaced copies of ``x`` (shape (..., d)) that :func:`jacobian`
    evaluates f at, and their steps.

    Returns ``(xs, h)``: ``xs[k, i]`` is ``x`` with coordinate k displaced by
    (+h, -h, +h/2, -h/2)[i], shape (d, 4, ..., d), and ``h[k]`` =
    ``fd_step(x[..., k], step)``, shape (d, ...).  A caller that evaluates
    f once per coordinate can take ``displaced(x, k, h[k])`` one k at a
    time instead, holding one coordinate's copies at once.
    """
    x = np.asarray(x, dtype=float)
    h = np.moveaxis(fd_step(x, step), -1, 0)
    return np.array([displaced(x, k, hk) for k, hk in enumerate(h)]), h


def _combine(fp, fm, fp2, fm2, h):
    """(4 D(h/2) - D(h)) / 3 from f at +h, -h, +h/2, -h/2 along one axis;
    ``h`` broadcasts against the values' leading axes."""
    if np.ndim(fp) > np.ndim(h):     # vector f: a trailing component axis
        h = h[..., None]
    d1 = (fp - fm) / (2.0 * h)
    d2 = (fp2 - fm2) / (2.0 * (h / 2.0))
    return (4.0 * d2 - d1) / 3.0


def richardson(values, h):
    """The derivative from f at the :func:`stencil` with steps ``h``.

    ``values[k, i]`` is f at ``xs[k, i]``, shape (d, 4) + f's shape (...) or
    (..., k).  The central quotients D(h), D(h/2) along each coordinate
    combine to the fourth-order (4 D(h/2) - D(h)) / 3; the result has shape
    (..., d) for scalar f and (..., k, d) for vector f.
    """
    values = np.asarray(values, dtype=float)
    return np.moveaxis(_combine(*values.swapaxes(0, 1), h), 0, -1)


def jacobian(f, x, step=DEFAULT_STEP):
    """Richardson-extrapolated central derivative of f along the last axis of x.

    The package's one finite-difference engine.  ``x`` has shape (..., d)
    and ``f`` maps such an array to values of shape (...) (scalar f) or
    (..., k) (vector f), acting pointwise on the leading axes.  Returns
    (..., d) for scalar f and (..., k, d) for vector f: :func:`richardson`
    of f at the :func:`stencil`, one call of f per displaced copy, made one
    at a time.  The engine keeps one copy per call on purpose: with four
    copies per call, the gradients of the ten 2000-point Poisson batches of
    the ``numeric`` benchmark took 37 ms instead of 19 ms (best of 7,
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
        col = _combine(*[np.asarray(f(xi)) for xi in _displaced(x, k, hk)], hk)
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
# the time-1 flow of an autonomous ODE (DOP853)
# ----------------------------------------------------------------------

# The 12 stepping stages of the Prince-Dormand 8(5,3) pair of DOP853
# (Hairer, Norsett, Wanner, Solving ODE I, II.5 and the authors' Fortran):
# nodes C, the nonzero entries of each row of A, weights B (the 13th row
# of the full table) and the 5th- and 3rd-order error weights E5, E3.
_DOP_C = np.array([
    0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
    0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
    0.6512820512820513, 0.6, 0.8571428571428571, 1.0])


def _lower_triangle(rows):
    a = np.zeros((12, 12))
    for i, entries in rows.items():
        for j, value in entries.items():
            a[i, j] = value
    return a


_DOP_A = _lower_triangle({
    1: {0: 0.05260015195876773},
    2: {0: 0.0197250569845379, 1: 0.0591751709536137},
    3: {0: 0.02958758547680685, 2: 0.08876275643042054},
    4: {0: 0.2413651341592667, 2: -0.8845494793282861, 3: 0.924834003261792},
    5: {0: 0.037037037037037035, 3: 0.17082860872947386, 4: 0.12546768756682242},
    6: {0: 0.037109375, 3: 0.17025221101954405, 4: 0.06021653898045596,
        5: -0.017578125},
    7: {0: 0.03709200011850479, 3: 0.17038392571223998, 4: 0.10726203044637328,
        5: -0.015319437748624402, 6: 0.008273789163814023},
    8: {0: 0.6241109587160757, 3: -3.3608926294469414, 4: -0.868219346841726,
        5: 27.59209969944671, 6: 20.154067550477894, 7: -43.48988418106996},
    9: {0: 0.47766253643826434, 3: -2.4881146199716677, 4: -0.590290826836843,
        5: 21.230051448181193, 6: 15.279233632882423, 7: -33.28821096898486,
        8: -0.020331201708508627},
    10: {0: -0.9371424300859873, 3: 5.186372428844064, 4: 1.0914373489967295,
         5: -8.149787010746927, 6: -18.52006565999696, 7: 22.739487099350505,
         8: 2.4936055526796523, 9: -3.0467644718982196},
    11: {0: 2.273310147516538, 3: -10.53449546673725, 4: -2.0008720582248625,
         5: -17.9589318631188, 6: 27.94888452941996, 7: -2.8589982771350235,
         8: -8.87285693353063, 9: 12.360567175794303, 10: 0.6433927460157636},
})
_DOP_B = np.zeros(12)
_DOP_B[[0, 5, 6, 7, 8, 9, 10, 11]] = [
    0.054293734116568765, 4.450312892752409, 1.8915178993145003,
    -5.801203960010585, 0.3111643669578199, -0.1521609496625161,
    0.20136540080403034, 0.04471061572777259]
_DOP_E5 = np.zeros(12)
_DOP_E5[[0, 5, 6, 7, 8, 9, 10, 11]] = [
    0.01312004499419488, -1.2251564463762044, -0.4957589496572502,
    1.6643771824549864, -0.35032884874997366, 0.3341791187130175,
    0.08192320648511571, -0.022355307863886294]
_DOP_E3 = _DOP_B.copy()
_DOP_E3[[0, 8, 11]] -= [0.2440944881889764, 0.7338466882816118, 0.022058823529411766]
# step control as in scipy's solve_ivp: a step shrinks by at most
# _MIN_FACTOR and grows by at most _MAX_FACTOR; the error exponent is -1/8
# for the 7th-order error estimate
_SAFETY, _MIN_FACTOR, _MAX_FACTOR, _ERROR_EXPONENT = 0.9, 0.2, 10.0, -1.0 / 8.0


def _rms(v):
    return float(np.linalg.norm(v) / v.size ** 0.5)


def _first_step(fun, y, f, rtol, atol):
    """Initial step of Hairer-Norsett-Wanner II.4, on the interval [0, 1]."""
    scale = atol + np.abs(y) * rtol
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else min(0.01 * d0 / d1, 1.0)
    d2 = _rms((fun(y + h0 * f) - f) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (-_ERROR_EXPONENT)
    return min(100.0 * h0, h1, 1.0)


def _error_norm(k, h, scale):
    """DOP853's blend of its 5th- and 3rd-order error estimates."""
    err5 = np.linalg.norm((k.T @ _DOP_E5) / scale) ** 2
    err3 = np.linalg.norm((k.T @ _DOP_E3) / scale) ** 2
    if err5 == 0.0 and err3 == 0.0:
        return 0.0
    return abs(h) * err5 / math.sqrt((err5 + 0.01 * err3) * scale.size)


def dop853(fun, y0, rtol, atol):
    """y(1) for y' = fun(y), y(0) = ``y0``: adaptive DOP853 on [0, 1].

    ``fun`` maps a state (a flat float array) to its derivative.  The error
    norm, initial step and step control are those of scipy's
    ``solve_ivp(method="DOP853")``, so both take the same steps and the
    same number of ``fun`` calls: 2 + 12 per attempted step.  Raises
    ``RuntimeError`` at once if an error estimate is not finite or the
    step falls below 10 spacing(t).
    """
    y = np.array(y0, dtype=float)
    f = np.asarray(fun(y), dtype=float)
    h_abs = _first_step(fun, y, f, rtol, atol)
    k = np.empty((12, y.size))
    t = 0.0
    while t < 1.0:
        min_step = 10.0 * (np.nextafter(t, np.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise RuntimeError(f"DOP853 step fell below {min_step:.1e} at t = {t}")
            t_new = min(t + h_abs, 1.0)
            h = t_new - t
            k[0] = f
            for s in range(1, 12):
                k[s] = fun(y + (k[:s].T @ _DOP_A[s, :s]) * h)
            y_new = y + h * (k.T @ _DOP_B)
            f_new = np.asarray(fun(y_new), dtype=float)
            norm = _error_norm(k, h, atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol)
            if not math.isfinite(norm):
                raise RuntimeError(f"DOP853 error estimate is {norm} at t = {t}")
            if norm < 1.0:
                factor = _MAX_FACTOR if norm == 0.0 else \
                    min(_MAX_FACTOR, _SAFETY * norm ** _ERROR_EXPONENT)
                h_abs = h * (min(1.0, factor) if rejected else factor)
                break
            h_abs = h * max(_MIN_FACTOR, _SAFETY * norm ** _ERROR_EXPONENT)
            rejected = True
        t, y, f = t_new, y_new, f_new
    return y


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
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, chunks))
