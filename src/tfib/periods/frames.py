"""Closed-form period frames.

A frame is a list of 1-forms on the base.  Every form has one type,
:class:`FrameForm`: a sum of singular kernels

    kappa(x, y) = -log|x + i y| dx + theta(x, y) dy

in pairs of linear coordinates (x, y) of the base, plus one single-valued
covector field that holds the rest (constant covectors such as 2 pi db2,
the thin-leg terms -e^{2 b} db, and dq or dH for a supplied smooth
correction).  The kernel's angle is the whole monodromy signal: along
a loop theta gains 2 pi per winding of (x, y) about 0, so the frame
returns shifted by (2 pi dy) per unit of winding.  A constant form
carries its covector as exact data, ``const = (k, j)`` for
(2 pi)^k db_j, in which :mod:`.monodromy` writes those shifts.

Loops are data: ``frame.loops[name](radius, **kw)`` returns a circle
(c, u, v), the base points c + cos t u + sin t v for t in [0, 2 pi].

Forms and frames evaluate on batches: a base point array of shape
(..., d) gives covectors of shape (..., d) and frame matrices of shape
(..., forms, d), and a single point of shape (d,) gives (d,) and
(forms, d).  A correction q or H is called on such batches too, so it
must index coordinates as ``b[..., k]`` and return shape (...).

The shipped frames (with q(0) = 0, H(0) = 0; without q or H there is no
dq or dH term):

    focus_focus(q):  l1 = kappa(b1, b2) + dq,   l2 = 2 pi db2
    generic(H):      l1 = kappa(b1, b2) + dH,   l2 = 2 pi db2,  l3 = db3
    positive(H):     l1 = -kappa(b1, b2) + kappa(b1, b3) + kappa(b1, b2 - b3) + dH,
                     l2 = 2 pi db2,  l3 = 2 pi db3
    thin_leg_slice:  l1 = 2 pi db1,  l2 = -e^{2 b2} db2,  l3 = -e^{2 b3} db3

The positive kernel combination is chosen so that anticlockwise loops
around the three legs of the Harvey-Lawson discriminant transport the
frame by exactly the positive-vertex monodromy triple; each kernel's
singular line contains the corresponding leg.

:func:`frame_report` evaluates a shipped frame and checks that its forms
are closed (``tfib periods frame``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .. import numerics

#: a curl at or above this fails the closedness check
CLOSEDNESS_TOL = 1e-6


@dataclass
class FrameForm:
    """sum_i coeff_i kappa(ax_i . b, ay_i . b) + smooth(b)."""

    coeff: np.ndarray  # (k,) kernel coefficients
    ax: np.ndarray  # (k, d): x_i(b) = ax_i . b ; dx_i covector = ax_i
    ay: np.ndarray  # (k, d): y_i(b) = ay_i . b ; dy_i covector = ay_i
    smooth: Callable[[np.ndarray], np.ndarray]  # (..., d) -> (..., d)
    const: Optional[Tuple[int, int]] = None  # (k, j): the form is (2 pi)^k db_j

    def angles(self, b):
        """Principal kernel angles at b, shape (..., k)."""
        b = np.asarray(b, dtype=float)
        return np.arctan2(b @ self.ay.T, b @ self.ax.T)

    def covector(self, b):
        """Covector at b, shape (..., d), on the principal kernel angles."""
        b = np.asarray(b, dtype=float)
        r = np.hypot(b @ self.ax.T, b @ self.ay.T)
        if np.any(r == 0.0):
            raise ValueError("kernel evaluated on its singular line")
        theta = self.angles(b)
        terms = self.coeff[:, None] * (-np.log(r)[..., None] * self.ax
                                       + theta[..., None] * self.ay)
        # summed from +0.0 kernel by kernel: a component that is -0.0 in
        # every term reads 0.0
        out = np.zeros_like(b)
        for i in range(len(self.coeff)):
            out = out + terms[..., i, :]
        return out + self.smooth(b)


@dataclass
class PeriodFrame:
    kind: str
    dim: int
    forms: List[FrameForm]
    loops: Dict[str, Callable] = field(default_factory=dict)

    def matrix_at(self, b):
        """Frame covectors at b as rows, shape (..., forms, d)."""
        return np.stack([form.covector(b) for form in self.forms], axis=-2)


def _kernel_form(terms, correction, name, d):
    """Form of (coeff, ax, ay) kernel terms plus d(correction), if given."""
    if correction is None:
        smooth = np.zeros_like
    elif abs(float(correction(np.zeros(d)))) > 0:
        raise ValueError(f"{name}(0) != 0")
    else:
        smooth = lambda b: numerics.gradient(correction, b)
    coeff, ax, ay = (np.array(col, dtype=float) for col in zip(*terms))
    return FrameForm(coeff, ax, ay, smooth)


def _smooth_form(fn, d):
    return FrameForm(np.zeros(0), np.zeros((0, d)), np.zeros((0, d)), fn)


def _const_form(k, j, d):
    """The constant form (2 pi)^k db_j on a d-dimensional base."""
    vec = np.zeros(d)
    vec[j] = (2.0 * math.pi) ** k
    form = _smooth_form(lambda b: np.broadcast_to(vec, np.shape(b)), d)
    form.const = (k, j)
    return form


def _circle(c, u, v):
    """Loop factory: radius -> the circle (c, radius u, radius v)."""
    c, u, v = (np.asarray(x, dtype=float) for x in (c, u, v))
    return lambda radius=0.5: (c, radius * u, radius * v)


def closed_form_frame(kind: str, q=None, h=None) -> PeriodFrame:
    """The quoted period frames; see the module docstring for the list."""
    if kind == "focus_focus":
        l1 = _kernel_form([(1.0, [1.0, 0.0], [0.0, 1.0])], q, "q", 2)
        frame = PeriodFrame("focus_focus", 2, [l1, _const_form(1, 1, 2)])
        frame.loops = {"loop": _circle([0.0, 0.0], [1.0, 0.0], [0.0, 1.0])}
        return frame

    e1 = np.array([1.0, 0.0, 0.0])
    e2 = np.array([0.0, 1.0, 0.0])
    e3 = np.array([0.0, 0.0, 1.0])

    if kind == "generic":
        l1 = _kernel_form([(1.0, e1, e2)], h, "H", 3)
        frame = PeriodFrame("generic", 3, [l1, _const_form(1, 1, 3),
                                           _const_form(0, 2, 3)])
        frame.loops = {
            "loop": lambda radius=0.5, b3=0.0: (
                np.array([0.0, 0.0, b3]), radius * e1, radius * e2),
        }
        return frame

    if kind == "positive":
        l1 = _kernel_form([(-1.0, e1, e2), (1.0, e1, e3), (1.0, e1, e2 - e3)],
                          h, "H", 3)
        frame = PeriodFrame("positive", 3, [l1, _const_form(1, 1, 3),
                                            _const_form(1, 2, 3)])
        frame.loops = {
            # anticlockwise in (b1, y_j) around a point at distance 2 on leg j;
            # for g3 the winding coordinate is y = b2 - b3
            "g1": _circle([0.0, 0.0, -2.0], e1, e2),
            "g2": _circle([0.0, -2.0, 0.0], e1, e3),
            "g3": _circle([0.0, 2.0, 2.0], e1, (e2 - e3) / math.sqrt(2.0)),
        }
        return frame

    if kind == "thin_leg_slice":
        return PeriodFrame("thin_leg_slice", 3, [
            _const_form(1, 0, 3),
            _smooth_form(lambda b: -np.exp(2.0 * b[..., 1:2]) * e2, 3),
            _smooth_form(lambda b: -np.exp(2.0 * b[..., 2:3]) * e3, 3),
        ])

    raise ValueError(f"unknown frame kind {kind!r}")


def closedness_defect(frame: PeriodFrame, samples) -> float:
    """max finite-difference curl over the frame forms at the samples.

    One batched Jacobian per form.  Samples must sit in branch interiors
    (away from the kernels' angle cuts and singular lines); the caller
    chooses them accordingly.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    worst = 0.0
    for form in frame.forms:
        jac = numerics.jacobian(form.covector, samples, step=1e-5)
        curl = jac - np.swapaxes(jac, -1, -2)
        worst = max(worst, float(np.max(np.abs(curl))))
    return worst


def frame_report(kind: str, seed=0) -> dict:
    """The frame of ``kind`` at the point (0.4, ..., 0.4) and its
    closedness defect at 10 points of [0.3, 0.7]^d, a box clear of every
    kernel's cut and singular line, drawn from a generator seeded with
    ``seed``: the report body, with ``passed`` true when the defect is
    below ``CLOSEDNESS_TOL``."""
    frame = closed_form_frame(kind)
    probe = np.full(frame.dim, 0.4)
    samples = 0.3 + 0.4 * np.random.default_rng(seed).uniform(size=(10, frame.dim))
    defect = closedness_defect(frame, samples)
    return {
        "kind": kind,
        "at": probe.tolist(),
        "forms": frame.matrix_at(probe).tolist(),
        "closedness_defect": defect,
        "tol": CLOSEDNESS_TOL,
        "passed": defect < CLOSEDNESS_TOL,
    }
