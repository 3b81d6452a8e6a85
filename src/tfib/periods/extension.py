"""Action charts and their continuous extension toward the discriminant.

The focus-focus and generic charts are the quoted primitives

    psi_j(b) = -b1 log|b| + b1 + q(b) + b2 arg_j(b)        (j = 1, 2),

single-valued on their branch domains, with the -b1 log b1 -> 0 behavior
at the discriminant; the generic chart adds the smooth correction H and
its limit along the discriminant recovers tau = H|_Delta.

The positive model's correction a0 is computed from the Harvey-Lawson
geometry: a0(b) is the Liouville-primitive integral along the canonical
fibre path over the line {Im u = b1} in the u = z1 z2 z3 coordinate,

    a0(b) = 1/2 int [rho(s; b) - rho0] b1 / (s^2 + b1^2) ds,

with rho(s; b) the fibre modulus solving P(rho) = s^2 + b1^2, where
P(rho) = rho (rho - b2)(rho - b3), and rho0 = rho(0; b).  The subtraction
fixes the branch that extends continuously by 0 on the plane {b1 = 0};
the map F(-z1, z2, z3) = (-b1, b2, b3) makes a0 odd in b1, so a0 vanishes
on the discriminant and the chart limit is H|_Delta there.

The integral is evaluated without solving for rho along the path.  The
substitution s = |b1| tan(theta) gives

    a0 = sign(b1) int_0^{pi/2} (rho(theta) - rho0) dtheta,

and integrating by parts against theta - pi/2 (the boundary terms vanish:
rho = rho0 at theta = 0, and rho = O((pi/2 - theta)^{-2/3}) as theta ->
pi/2), with cos(theta) = |b1| / sqrt(P(rho)), gives

    a0 = sign(b1) int_{rho0}^inf arcsin(|b1| / sqrt(P(rho))) drho.

With rho = rho0 + t^2 the square-root endpoint singularity disappears, and
since P(rho0) = b1^2 the Taylor expansion of P at rho0 factors exactly,

    P(rho) - b1^2 = t^2 Q(t),
    Q(t) = P'(rho0) + (P''(rho0)/2) t^2 + t^4
         = d2 d3 + rho0 (d2 + d3) + (rho0 + d2 + d3) t^2 + t^4,

with d2 = rho0 - b2 >= 0 and d3 = rho0 - b3 >= 0, so every term of Q is
non-negative and nothing cancels.  Then arcsin(|b1| / sqrt(P)) =
atan2(|b1|, t sqrt(Q)), and

    a0 = sign(b1) int_0^inf 2 t atan2(|b1|, t sqrt(Q(t))) dt:

one modulus root (rho0) and one quadrature per evaluation, the exp-sinh
doubling rule t = sqrt(rho0) exp(pi/2 sinh x) of
``numerics.half_line_quadrature``.  The integrand depends on b1 only
through |b1|, so a0 is odd in b1 exactly.

:func:`extension_report` follows a shipped chart along a fixed path onto
the discriminant and compares the limit with its known value
(``tfib periods extend``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .. import numerics
from ..symplab.models import hl_modulus

#: absolute and relative tolerance of the a0 quadrature
A0_QUAD_TOL = 1e-10
#: a limit at or farther than this from its known value fails ``periods extend``
EXTEND_TOL = 1e-4


def arg_branch_1(b1, b2):
    """Branch of arg on (0, 2 pi); cut along {b2 = 0, b1 > 0}."""
    a = math.atan2(b2, b1)
    return a if a >= 0.0 else a + 2.0 * math.pi


def arg_branch_2(b1, b2):
    """Branch of arg on (-pi, pi]; cut along {b2 = 0, b1 < 0}."""
    return math.atan2(b2, b1)


def psi_focus_focus(b, q=None, branch=1):
    """The focus-focus action chart (psi_j(b), 2 pi b2)."""
    b1, b2 = float(b[0]), float(b[1])
    r = math.hypot(b1, b2)
    corr = float(q(np.asarray(b, dtype=float))) if q is not None else 0.0
    arg = (arg_branch_1 if branch == 1 else arg_branch_2)(b1, b2)
    lead = -b1 * math.log(r) + b1 if r > 0.0 else 0.0
    return np.array([lead + corr + b2 * arg, 2.0 * math.pi * b2])


def positive_a0(b):
    """The odd Harvey-Lawson correction a0(b); 0 on the plane {b1 = 0}.

    One exp-sinh doubling quadrature (``numerics.half_line_quadrature``,
    at scale sqrt(rho0)) to ``A0_QUAD_TOL`` (absolute and relative)."""
    b1, b2, b3 = (float(v) for v in b)
    if b1 == 0.0:
        return 0.0
    c = abs(b1)
    rho0 = hl_modulus(c * c, b2, b3)
    d2, d3 = rho0 - b2, rho0 - b3
    q0 = d2 * d3 + rho0 * (d2 + d3)
    q1 = rho0 + d2 + d3

    def integrand(t):
        # far out, or for huge |b|, t sqrt(Q) overflows to inf, where the
        # arctan is 0 anyway
        with np.errstate(over="ignore"):
            tt = t * t
            return 2.0 * t * np.arctan2(c, t * np.sqrt(q0 + tt * (q1 + tt)))

    val, _ = numerics.half_line_quadrature(integrand, math.sqrt(rho0), A0_QUAD_TOL)
    return math.copysign(val, b1)


@dataclass
class ActionChart:
    """Evaluable action chart on a branch domain."""

    kind: str
    branch: int = 1
    q: Optional[Callable] = None
    h: Optional[Callable] = None

    def __call__(self, b):
        b = np.asarray(b, dtype=float)
        if self.kind == "focus_focus":
            return psi_focus_focus(b, q=self.q, branch=self.branch)
        if self.kind == "generic":
            psi = psi_focus_focus(b[:2], branch=self.branch)
            corr = float(self.h(b)) if self.h is not None else 0.0
            return np.array([psi[0] + corr, 2.0 * math.pi * b[1], b[2]])
        if self.kind == "positive":
            corr = float(self.h(b)) if self.h is not None else 0.0
            return np.array([
                positive_a0(b) + corr,
                2.0 * math.pi * b[1],
                2.0 * math.pi * b[2],
            ])
        raise ValueError(f"no action chart for kind {self.kind!r}")


def action_chart(kind: str, q=None, h=None, branch=1) -> ActionChart:
    return ActionChart(kind, branch=branch, q=q, h=h)


@dataclass
class ExtensionReport:
    values: np.ndarray       # chart first components along the path
    limit: float
    cauchy: np.ndarray       # successive |value differences|

    def to_json(self):
        return {
            "limit": self.limit,
            "values": [float(v) for v in self.values],
            "cauchy": [float(v) for v in self.cauchy],
        }


def action_extension_check(chart: ActionChart, path) -> ExtensionReport:
    """Limit of the chart's first component along a path onto the discriminant.

    ``path(s)`` is parametrized on [0, 1] with the endpoint at s = 1 on
    the discriminant; the chart is evaluated at s_k = 1 - 2^{-k},
    k = 2, ..., 21, and the successive differences must decay (Cauchy
    modulus), else the check reports divergence.
    """
    s = 1.0 - 0.5 ** np.arange(2, 22)
    values = np.array([float(chart(np.asarray(path(sk), dtype=float))[0])
                       for sk in s])
    cauchy = np.abs(np.diff(values))
    tail = cauchy[-4:]
    if not np.all(tail[1:] <= 1e-12 + 0.9 * tail[:-1]):
        raise ValueError("action chart diverges along the path (non-simple input)")
    return ExtensionReport(values, float(values[-1]), cauchy)


def extension_report(chart: str, t0: float):
    """The limit of a shipped chart's first component along a straight
    path onto the discriminant, against its known value:

    * focus_focus: from (0.5, 0) to the node, limit 0;
    * generic, with H = b3: from (0.3, 0.2, t0 + 0.1) to (0, 0, t0),
      limit t0;
    * positive, with H = b3 / 2: from (0.3, 0.1, -|t0| - 0.1) to
      (0, 0, -|t0|), limit -|t0| / 2.

    Returns ``(body, {".csv": rows})``: the report body, with ``passed``
    true when the limit is within ``EXTEND_TOL`` of the known value, which
    it states as ``tol``, and the (s_k, value) pairs of
    :func:`action_extension_check`.  t0 must be finite.
    """
    if not math.isfinite(t0):
        raise ValueError(f"t0 must be finite, got {t0}")
    if chart == "focus_focus":
        path = lambda s: [(1.0 - s) * 0.5, 0.0]
        h, expected = None, 0.0
    elif chart == "generic":
        path = lambda s: [(1 - s) * 0.3, (1 - s) * 0.2, t0 + (1 - s) * 0.1]
        h, expected = (lambda b: b[2]), t0
    elif chart == "positive":
        t0 = -abs(t0)
        path = lambda s: [(1 - s) * 0.3, (1 - s) * 0.1, t0 - (1 - s) * 0.1]
        h, expected = (lambda b: 0.5 * b[2]), 0.5 * t0
    else:
        raise ValueError(f"no extension path for chart {chart!r}")
    result = action_extension_check(action_chart(chart, h=h), path)
    body = result.to_json()
    body.update({"chart": chart, "expected": expected, "tol": EXTEND_TOL,
                 "passed": abs(result.limit - expected) < EXTEND_TOL})
    svals = 1.0 - 0.5 ** np.arange(2, 2 + len(result.values))
    return body, {".csv": list(zip(svals, result.values))}
