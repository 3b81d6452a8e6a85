"""Closed-form period frames.

A frame is a list of 1-forms on the base, each a sum of three kinds of
terms: exact constant-covector terms (2 pi db2, db3, ...), dH terms for a
supplied smooth function, and singular kernels

    kappa(x, y) = -log|x + i y| dx + theta(x, y) dy

in a pair of linear coordinates (x, y) of the base.  The kernel's angle
is the whole monodromy signal: transporting a frame along a loop unwraps
theta continuously, and the frame returns shifted by (2 pi dy) per unit
of winding.

The shipped frames (with q(0) = 0, H(0) = 0):

    focus_focus(q):  l1 = kappa(b1, b2) + dq,   l2 = 2 pi db2
    generic(H):      l1 = kappa(b1, b2) + dH,   l2 = 2 pi db2,  l3 = db3
    positive(H):     l1 = -kappa(b1, b2) + kappa(b1, b3) + kappa(b1, b2 - b3) + dH,
                     l2 = 2 pi db2,  l3 = 2 pi db3
    thin_leg_slice:  l1 = 2 pi db1,  l2 = -e^{2 b2} db2,  l3 = -e^{2 b3} db3

The positive kernel combination is chosen so that anticlockwise loops
around the three legs of the Harvey-Lawson discriminant transport the
frame by exactly the positive-vertex monodromy triple; each kernel's
singular line contains the corresponding leg.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from .. import numerics


@dataclass
class KernelTerm:
    """c * (-log|w| dx + theta dy), w = x(b) + i y(b), x and y linear."""

    coeff: float
    ax: np.ndarray  # x(b) = ax . b ; dx covector = ax
    ay: np.ndarray  # y(b) = ay . b ; dy covector = ay

    def w(self, b):
        b = np.asarray(b, dtype=float)
        return float(self.ax @ b) + 1j * float(self.ay @ b)

    def principal_angle(self, b):
        w = self.w(b)
        return math.atan2(w.imag, w.real)

    def covector(self, b, theta):
        w = self.w(b)
        r = abs(w)
        if r == 0.0:
            raise ValueError("kernel evaluated on its singular line")
        return self.coeff * (-math.log(r) * self.ax + theta * self.ay)


@dataclass
class ExactTerm:
    """Single-valued covector term."""

    covector_fn: Callable[[np.ndarray], np.ndarray]

    def covector(self, b):
        return np.asarray(self.covector_fn(np.asarray(b, dtype=float)), dtype=float)


@dataclass
class DHTerm:
    """dH for a supplied smooth function of the base point."""

    h: Callable[[np.ndarray], float]

    def covector(self, b):
        return numerics.gradient(self.h, np.asarray(b, dtype=float))


@dataclass
class FrameForm:
    kernels: List[KernelTerm] = field(default_factory=list)
    exact: List[ExactTerm] = field(default_factory=list)
    dh: List[DHTerm] = field(default_factory=list)

    def covector(self, b, angles: Optional[Sequence[float]] = None):
        """Covector at b; ``angles`` overrides the principal kernel angles."""
        b = np.asarray(b, dtype=float)
        out = np.zeros_like(b)
        for i, k in enumerate(self.kernels):
            theta = k.principal_angle(b) if angles is None else angles[i]
            out = out + k.covector(b, theta)
        for t in self.exact:
            out = out + t.covector(b)
        for t in self.dh:
            out = out + t.covector(b)
        return out


@dataclass
class PeriodFrame:
    kind: str
    dim: int
    forms: List[FrameForm]
    loops: Dict[str, Callable] = field(default_factory=dict)

    def matrix_at(self, b, angle_table=None):
        """Rows = frame covectors at b (with optional per-form kernel angles)."""
        rows = []
        for i, form in enumerate(self.forms):
            angles = None if angle_table is None else angle_table[i]
            rows.append(form.covector(b, angles))
        return np.stack(rows, axis=0)


def _const_cov(vec):
    vec = np.asarray(vec, dtype=float)
    return ExactTerm(lambda b, v=vec: v)


def closed_form_frame(kind: str, q=None, h=None) -> PeriodFrame:
    """The quoted period frames; see the module docstring for the list."""
    if kind == "focus_focus":
        corr = q if q is not None else (lambda b: 0.0)
        if abs(float(corr(np.zeros(2)))) > 0:
            raise ValueError("q(0) != 0")
        l1 = FrameForm(
            kernels=[KernelTerm(1.0, np.array([1.0, 0.0]), np.array([0.0, 1.0]))],
            dh=[DHTerm(corr)],
        )
        l2 = FrameForm(exact=[_const_cov([0.0, 2.0 * math.pi])])
        frame = PeriodFrame("focus_focus", 2, [l1, l2])
        frame.loops = {
            "loop": lambda radius=0.5: (
                lambda t: radius * np.stack(
                    [np.cos(2 * np.pi * np.asarray(t)),
                     np.sin(2 * np.pi * np.asarray(t))], axis=-1)
            ),
        }
        return frame

    if kind == "generic":
        corr = h if h is not None else (lambda b: 0.0)
        if abs(float(corr(np.zeros(3)))) > 0:
            raise ValueError("H(0) != 0")
        l1 = FrameForm(
            kernels=[KernelTerm(
                1.0, np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]))],
            dh=[DHTerm(corr)],
        )
        l2 = FrameForm(exact=[_const_cov([0.0, 2.0 * math.pi, 0.0])])
        l3 = FrameForm(exact=[_const_cov([0.0, 0.0, 1.0])])
        frame = PeriodFrame("generic", 3, [l1, l2, l3])
        frame.loops = {
            "loop": lambda radius=0.5, b3=0.0: (
                lambda t: np.stack(
                    [radius * np.cos(2 * np.pi * np.asarray(t)),
                     radius * np.sin(2 * np.pi * np.asarray(t)),
                     np.full(np.shape(t), b3)], axis=-1)
            ),
        }
        return frame

    if kind == "positive":
        corr = h if h is not None else (lambda b: 0.0)
        if abs(float(corr(np.zeros(3)))) > 0:
            raise ValueError("H(0) != 0")
        e1 = np.array([1.0, 0.0, 0.0])
        e2 = np.array([0.0, 1.0, 0.0])
        e3 = np.array([0.0, 0.0, 1.0])
        l1 = FrameForm(
            kernels=[
                KernelTerm(-1.0, e1, e2),
                KernelTerm(+1.0, e1, e3),
                KernelTerm(+1.0, e1, e2 - e3),
            ],
            dh=[DHTerm(corr)],
        )
        l2 = FrameForm(exact=[_const_cov(2.0 * math.pi * e2)])
        l3 = FrameForm(exact=[_const_cov(2.0 * math.pi * e3)])
        frame = PeriodFrame("positive", 3, [l1, l2, l3])

        def leg_loop(center, normal):
            center = np.asarray(center, dtype=float)
            normal = np.asarray(normal, dtype=float)

            def make(radius=0.5):
                def loop(t):
                    t = np.asarray(t, dtype=float)
                    return (center[None, :]
                            + radius * np.cos(2 * np.pi * t)[:, None] * e1[None, :]
                            + radius * np.sin(2 * np.pi * t)[:, None] * normal[None, :])
                return loop

            return make

        frame.loops = {
            # anticlockwise in (b1, y_j) around a point at distance 2 on leg j;
            # for g3 the winding coordinate is y = b2 - b3
            "g1": leg_loop([0.0, 0.0, -2.0], e2),
            "g2": leg_loop([0.0, -2.0, 0.0], e3),
            "g3": leg_loop([0.0, 2.0, 2.0], (e2 - e3) / math.sqrt(2.0)),
        }
        return frame

    if kind == "thin_leg_slice":
        l1 = FrameForm(exact=[_const_cov([2.0 * math.pi, 0.0, 0.0])])
        l2 = FrameForm(exact=[ExactTerm(
            lambda b: np.array([0.0, -math.exp(2.0 * b[1]), 0.0]))])
        l3 = FrameForm(exact=[ExactTerm(
            lambda b: np.array([0.0, 0.0, -math.exp(2.0 * b[2])]))])
        return PeriodFrame("thin_leg_slice", 3, [l1, l2, l3])

    raise ValueError(f"unknown frame kind {kind!r}")


def closedness_defect(frame: PeriodFrame, samples) -> float:
    """max finite-difference curl over the frame forms at the samples.

    Samples must sit in branch interiors (away from the kernels' angle
    cuts and singular lines); the caller chooses them accordingly.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    worst = 0.0
    for form in frame.forms:
        for b in samples:
            jac = numerics.jacobian(lambda x: form.covector(x), b, step=1e-5)
            curl = jac - jac.T
            worst = max(worst, float(np.max(np.abs(curl))))
    return worst
