"""Monodromy of a period frame by exact winding numbers.

A loop is a circle (c, u, v), the base points b(t) = c + cos t u + sin t v.
Every kernel of a form has coordinates (x, y) = (ax . b, ay . b) linear in
b, so along the loop (x, y) runs once round the ellipse p + A (cos t, sin t)
with p = (ax . c, ay . c) and A = [[ax . u, ax . v], [ay . u, ay . v]].
Its winding number about 0 is sign(det A) when p^T (A A^T)^{-1} p < 1 and 0
when it is > 1.  Equality, or a degenerate ellipse (det A = 0, a segment)
that contains 0, means the loop meets the kernel's singular line.

A winding w_k adds 2 pi w_k to the kernel's angle, so form i comes back as
itself plus 2 pi sum_k coeff_k w_k ay_k, which is written in the frame's
constant forms 2 pi db_j.  All of this runs in Fractions of the float
inputs, so the matrix is exact.  It acts on cycle-coordinate columns,
i.e. it is the transpose of the row relation between transported and
original covector rows -- the convention that sends the focus-focus
frame's anticlockwise unit loop to [[1, 0], [1, 1]].
"""

from __future__ import annotations

import math
from fractions import Fraction

from .. import zlat
from . import frames
from .frames import PeriodFrame

#: the closed-form frame of each model that has one
_FRAME_FOR_MODEL = {"sm_ff": "focus_focus", "generic": "generic",
                   "positive": "positive", "thin_legs": "thin_leg_slice"}


def _exact(vec):
    return [Fraction(float(x)) for x in vec]


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _winding(ax, ay, c, u, v):
    """Winding number of (ax . b, ay . b) about 0 along the circle (c, u, v)."""
    p0, p1 = _dot(ax, c), _dot(ay, c)
    a00, a01, a10, a11 = _dot(ax, u), _dot(ax, v), _dot(ay, u), _dot(ay, v)
    det = a00 * a11 - a01 * a10
    # m = A A^T
    m00, m01, m11 = a00 * a00 + a01 * a01, a00 * a10 + a01 * a11, a10 * a10 + a11 * a11
    if det:
        # p^T m^{-1} p = q / det^2, with m^{-1} = adj(m) / det^2
        q = m11 * p0 * p0 - 2 * m01 * p0 * p1 + m00 * p1 * p1
        if q != det * det:
            return (1 if det > 0 else -1) if q < det * det else 0
    else:
        # the image is the segment p + [-1, 1] sqrt(tr m) e, with e the unit
        # vector of m's range: it holds 0 iff m p = tr(m) p and |p|^2 <= tr(m)
        tr = m00 + m11
        if (m00 * p0 + m01 * p1 != tr * p0 or m01 * p0 + m11 * p1 != tr * p1
                or p0 * p0 + p1 * p1 > tr):
            return 0
    raise ValueError("loop meets the singular line of a kernel (the discriminant)")


def monodromy_from_frame(frame: PeriodFrame, loop):
    """Integer monodromy matrix of the frame transported along the circle
    ``loop`` = (c, u, v); see the module docstring.

    Raises ``ValueError`` when the loop meets a kernel's singular line, or
    when a shift is not an integer combination of the frame's 2 pi db_j
    forms.
    """
    c, u, v = (_exact(vec) for vec in loop)
    if not len(c) == len(u) == len(v) == frame.dim:
        raise ValueError(f"loop vectors must have length {frame.dim}")
    period_form = {form.const[1]: j for j, form in enumerate(frame.forms)
                   if form.const is not None and form.const[0] == 1}
    # entry (j, i) is the coefficient of form j in the transported form i
    out = [list(row) for row in zlat.identity(len(frame.forms))]
    for i, form in enumerate(frame.forms):
        shift = [Fraction(0)] * frame.dim  # the shift of form i over 2 pi
        for coeff, ax, ay in zip(form.coeff, form.ax, form.ay):
            ay = _exact(ay)
            w = Fraction(float(coeff)) * _winding(_exact(ax), ay, c, u, v)
            shift = [s + w * y for s, y in zip(shift, ay)]
        for axis, s in enumerate(shift):
            if not s:
                continue
            if axis not in period_form or s.denominator != 1:
                raise ValueError(f"shift of form {i} is not an integer combination "
                                 "of the frame's 2 pi db_j forms")
            out[period_form[axis]][i] += int(s)
    return zlat.mat(out)


def monodromy_report(model, frame, loop) -> dict:
    """The monodromy of the closed-form frame of ``model`` (a model id) or
    of the frame kind ``frame``, one of them None, around ``loop``:
    ``circle:R`` for the frame's one loop, or ``NAME:R`` for a named loop,
    R a finite positive radius (default 0.5)."""
    kind = frame if model is None else _FRAME_FOR_MODEL.get(model)
    if kind is None:
        raise ValueError(f"model {model!r} has no closed-form frame "
                         f"(models: {', '.join(_FRAME_FOR_MODEL)})")
    period_frame = frames.closed_form_frame(kind)
    name, _, radius = loop.partition(":")
    radius = float(radius or 0.5)
    if not (math.isfinite(radius) and radius > 0):
        raise ValueError(f"--loop radius must be finite and positive, got {radius}")
    key = "loop" if name == "circle" else name
    if key not in period_frame.loops:
        names = ["circle" if k == "loop" else k for k in period_frame.loops]
        raise ValueError(f"frame {kind} has no loop {name!r} "
                         f"(loops: {', '.join(names) or 'none'})")
    mat = monodromy_from_frame(period_frame, period_frame.loops[key](radius))
    return {"frame": kind, "loop": loop, "monodromy": mat}
