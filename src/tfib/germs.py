"""Invariant calculus for germs and stitched fibrations.

Two kinds of data:

* ``GermH``: truncated power-series germs along a discriminant edge, with
  coefficient functions h_ij(r) and the leg-gluing blend whose zero-order
  term is pinned to tau;
* ``EllSequence``: sequences of fibrewise-closed 1-forms on a reduced
  seam, stored through coefficient functions a_j^{(k)}(y, base) against
  the angle coordinates y_2, ..., y_n (period 1) of the reduced torus
  fibres.  The first term's fibre cohomology integrals carry the
  monodromy bookkeeping of a stitched fibration.

``ell1_from_frames`` solves the seam discrepancy equation
(eta_j^+ - eta_j^-)|_Z = a_j eta_1 pointwise, over a whole batch of seam
points at once; the shipped seam frames for the stitched focus-focus model
are the Hamiltonian frames of its action coordinates continued across the
lower wall half (so the l_1 fibre integral over the lower seam realizes
the monodromy integer m = 1).  The frames are Hamiltonian fields from the
package's one derivative engine (``numerics.hamiltonian_field``, with the
``numerics.fd_step`` step policy), and the fibre-cycle integrals use the
shared doubling trapezoid rule ``numerics.periodic_quadrature``.

The ``*_report`` functions at the end run these on fixed fixtures and
return report bodies (``tfib germs ...``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import numerics
from .symplab.models import mu12

TRAPEZOID_POINTS = 1024
CYCLE_QUAD_TOL = 1e-6
#: an ell_1 coefficient or seam integral this far from its integer fails
ELL1_TOL = 1e-6
#: a class-integral error or closedness defect at or above this fails a
#: deformation
DEFORM_TOL = 1e-6
#: the constant cut-off of ``deform_report``'s interpolation
DEFORM_RHO = 0.5


# ----------------------------------------------------------------------
# ell sequences
# ----------------------------------------------------------------------

@dataclass
class EllSequence:
    """Truncated sequence of fibrewise 1-forms on a reduced seam.

    ``terms[k]`` (k = 1, 2, ...) lists the coefficient callables
    a_j(y, base) of l_k = sum_j a_j dy_{j+2}; each callable is vectorized
    over arrays y of shape (m, fibre_dim).  Orders without an entry are
    zero.
    """

    seam_id: str
    fibre_dim: int
    terms: Dict[int, List[Callable]] = field(default_factory=dict)

    def ell1(self) -> List[Callable]:
        return self.terms.get(1, self.zero_term())

    def zero_term(self) -> List[Callable]:
        return [lambda y, base=None: np.zeros(np.shape(y)[:-1])
                for _ in range(self.fibre_dim)]

    @staticmethod
    def constant(seam_id: str, coefficients: Sequence[float]) -> "EllSequence":
        """Sequence with constant l_1 = sum m_j dy_j and zero higher terms."""
        coeffs = [float(c) for c in coefficients]
        term = [
            (lambda y, base=None, c=c: np.full(np.shape(y)[:-1], c))
            for c in coeffs
        ]
        return EllSequence(seam_id, len(coeffs), {1: term})


def _torus_grid(fibre_dim, n=24):
    axes = [np.arange(n) / n for _ in range(fibre_dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=-1)


def fibrewise_closedness_defect(seq: EllSequence) -> float:
    """max |da_j/dy_i - da_i/dy_j| over terms and a torus grid.

    The coefficients are evaluated at base point None and differentiated
    by ``numerics.max_curl`` (base step 1e-5).
    """
    if seq.fibre_dim == 1:
        return 0.0
    fields = [lambda y, term=term: np.stack([a(y, None) for a in term], axis=-1)
              for term in seq.terms.values()]
    return numerics.max_curl(fields, _torus_grid(seq.fibre_dim))


def cycle_integrals(seq: EllSequence, base=None) -> np.ndarray:
    """Fibre cohomology integrals of l_1 over the coordinate cycles [db_j].

    Smooth periodic integrands converge spectrally under the composite
    trapezoid on ``TRAPEZOID_POINTS`` nodes; a doubling estimate above
    ``CYCLE_QUAD_TOL`` raises.
    """
    n = TRAPEZOID_POINTS
    out = np.empty(seq.fibre_dim)
    ell1 = seq.ell1()
    for j in range(seq.fibre_dim):
        y = np.zeros((n, seq.fibre_dim))
        y[:, j] = np.arange(n) / n
        # transverse basepoint fixed at 0; closedness makes this immaterial
        out[j], err = numerics.periodic_quadrature(ell1[j](y, base))
        if err > CYCLE_QUAD_TOL:
            raise RuntimeError(
                f"cycle integral {j} did not converge (doubling estimate {err:.2e})"
            )
    return out


@dataclass
class IntegralReport:
    computed: np.ndarray
    expected: np.ndarray
    tolerance: float

    @property
    def passed(self) -> bool:
        return bool(np.all(np.abs(self.computed - self.expected) <= self.tolerance))

    def to_json(self):
        return {
            "computed": [float(v) for v in self.computed],
            "expected": [int(v) for v in self.expected],
            "tolerance": self.tolerance,
            "passed": self.passed,
        }


def integral_condition(seq: EllSequence, expected, base=None, tol=1e-6
                       ) -> IntegralReport:
    """Compare the l_1 fibre-cycle integrals with expected integers."""
    expected = np.asarray(expected, dtype=float)
    if expected.shape != (seq.fibre_dim,):
        raise ValueError("expected-vector length mismatch")
    computed = cycle_integrals(seq, base=base)
    return IntegralReport(computed, expected, tol)


def negative_table_condition(seqs: Dict[str, EllSequence], m1: int, m2: int
                             ) -> Dict[str, IntegralReport]:
    """The three-seam table: c -> (0, 0), d -> (m1, 0), e -> (0, m2), each
    checked by `integral_condition` at its default tolerance."""
    table = {"c": (0, 0), "d": (m1, 0), "e": (0, m2)}
    missing = set(table) - set(seqs)
    if missing:
        raise ValueError(f"missing seam components: {sorted(missing)}")
    return {
        name: integral_condition(seqs[name], table[name])
        for name in ("c", "d", "e")
    }


def is_fibrewise_constant(seq: EllSequence) -> bool:
    """True iff every coefficient function, at base point None, varies by
    at most 1e-8 along the fibres."""
    grid = _torus_grid(max(seq.fibre_dim, 1))
    for term in seq.terms.values():
        for a in term:
            vals = np.asarray(a(grid, None), dtype=float)
            if float(vals.max() - vals.min()) > 1e-8:
                return False
    return True


def deform_by_cutoff(seq: EllSequence, rho, other: Optional[EllSequence] = None
                     ) -> EllSequence:
    """Termwise interpolation (1-rho) l'_k + rho l_k; without ``other``,
    l' is the zero sequence, so this is the scaling rho * l_k.

    ``rho`` is a function of the base point of the reduced fibration
    alone, ``rho(base)``, so the fibre cohomology class of l_1 becomes
    (1-rho(b)) [l'_1] + rho(b) [l_1], and it is unchanged whenever both
    inputs share the class.  ``rho`` is evaluated lazily, with the blended
    terms, at the base point they are evaluated at.
    """
    if other is None:
        other = EllSequence(seq.seam_id, seq.fibre_dim)   # the zero sequence
    if other.fibre_dim != seq.fibre_dim:
        raise ValueError("interpolation partners have different fibre dims")

    def blend(a, b):
        def blended(y, base=None):
            r = float(rho(base))
            return (r * np.asarray(a(y, base), dtype=float)
                    + (1.0 - r) * np.asarray(b(y, base), dtype=float))
        return blended

    terms = {k: [blend(a, b) for a, b in zip(seq.terms.get(k, seq.zero_term()),
                                              other.terms.get(k, other.zero_term()))]
             for k in sorted(set(seq.terms) | set(other.terms))}
    return EllSequence(seq.seam_id, seq.fibre_dim, terms)


# ----------------------------------------------------------------------
# the seam discrepancy equation
# ----------------------------------------------------------------------

def ell1_from_frames(eta_plus: Sequence[Callable], eta_minus: Sequence[Callable],
                     eta1: Callable, tol=1e-6) -> List[Callable]:
    """Solve (eta_j^+ - eta_j^-)|_Z = a_j eta_1 by pointwise projection.

    Frames are callables mapping a seam point, or a batch of them, to a
    (complex or real) vector along a trailing axis.  The residual
    transverse to eta_1 is checked at every point evaluated; exceeding
    ``tol`` (relative to |eta_1|) at any of them means the input is not a
    stitched seam.  Returns the coefficient callables a_j, one value per
    point.
    """
    if len(eta_plus) != len(eta_minus):
        raise ValueError("frame length mismatch")

    def coefficient(j):
        def a_j(p):
            diff = np.asarray(eta_plus[j](p)) - np.asarray(eta_minus[j](p))
            e1 = np.asarray(eta1(p))
            e1sq = np.sum(np.abs(e1) ** 2, axis=-1)
            if np.any(e1sq == 0.0):
                raise ValueError("eta_1 vanishes on the seam")
            coeff = np.sum((np.conj(e1) * diff).real, axis=-1) / e1sq
            residual = np.linalg.norm(diff - coeff[..., None] * e1, axis=-1)
            if np.any(residual > tol * np.maximum(1.0, np.sqrt(e1sq))):
                raise ValueError(
                    "frame discrepancy is not parallel to eta_1 "
                    f"(residual {np.max(residual):.2e}); "
                    "input is not a stitched seam"
                )
            return coeff

        return a_j

    return [coefficient(j) for j in range(len(eta_plus))]


# ----------------------------------------------------------------------
# the stitched focus-focus seam
# ----------------------------------------------------------------------

def stitched_ff_action(side: str, z):
    """One-sided action coordinate A_2 of the stitched focus-focus model.

    The reduced fibre over (b1, b2) is the circle |gamma + 1| = e^{b2};
    its Liouville action is pi e^{2 b2}, plus on the mu >= 0 half the
    winding correction 2 pi mu of the cycle basis continued across the
    upper wall half.  Each side uses its branch formula of gamma as a
    smooth extension (z1 z2 / |z1| on 'plus', z1 z2 / |z2| on 'minus').
    """
    z = np.atleast_2d(np.asarray(z, dtype=complex))
    if side == "plus":
        g = z[..., 0] * z[..., 1] / np.abs(z[..., 0])
        return math.pi * np.abs(g + 1.0) ** 2 + 2.0 * math.pi * mu12(z)
    if side == "minus":
        g = z[..., 0] * z[..., 1] / np.abs(z[..., 1])
        return math.pi * np.abs(g + 1.0) ** 2
    raise ValueError("side must be 'plus' or 'minus'")


def stitched_ff_frames():
    """(eta_plus, eta_minus, eta_1) for the stitched focus-focus seam.

    Each frame maps seam points (..., 2) to their Hamiltonian fields.
    """

    def frame(F):
        return lambda p: numerics.hamiltonian_field(F, p, step=1e-5)

    eta1 = frame(lambda z: 2.0 * math.pi * mu12(z))
    eta2_plus = frame(lambda z: stitched_ff_action("plus", z))
    eta2_minus = frame(lambda z: stitched_ff_action("minus", z))
    return [eta2_plus], [eta2_minus], eta1


def stitched_ff_seam_cycle(b2: float):
    """Action-angle parametrization of the reduced fibre over (0, b2).

    The reduced coordinate on the seam is the gamma value g; the fibre is
    the circle g = -1 + e^{b2} e^{2 pi i y}, lifted to the seam as
    z = (g, |g|).  b2 < 0 picks the lower seam component (the circle
    misses the node at g = 0), b2 > 0 the upper one.
    """
    s = math.exp(b2)
    if s == 1.0:
        raise ValueError("the fibre over b2 = 0 is the singular one")

    def cyc(y):
        y = np.asarray(y, dtype=float)
        g = -1.0 + s * np.exp(2j * np.pi * y)
        return np.stack([g, np.abs(g).astype(complex)], axis=-1)

    return cyc


def stitched_ff_ell1_sequence() -> EllSequence:
    """l_1 of the stitched focus-focus model as an EllSequence on a seam.

    The coefficient is evaluated through the seam frames at the lifted
    action-angle cycle of the base point (0, b2), all points of ``y`` at
    once; ``base`` is b2.
    """
    eta_plus, eta_minus, eta1 = stitched_ff_frames()
    coeffs = ell1_from_frames(eta_plus, eta_minus, eta1, tol=1e-5)

    def a2(y, base=None):
        b2 = -0.5 if base is None else float(base)
        cyc = stitched_ff_seam_cycle(b2)
        return coeffs[0](cyc(np.asarray(y, dtype=float)[..., 0]))

    return EllSequence("ff_lower", 1, {1: [a2]})


# ----------------------------------------------------------------------
# germs along edges and leg gluing
# ----------------------------------------------------------------------

@dataclass
class GermH:
    """Truncated germ of a period correction along a discriminant edge.

    ``coeffs[(i, j)]`` (i + j <= order) are the evaluable coefficient
    functions h_ij(r) on the interval; h_00 is the zero-order term, which
    pins the shape of the discriminant (tau).
    """

    interval: Tuple[float, float]
    order: int
    coeffs: Dict[Tuple[int, int], Callable]

    def coefficient(self, i: int, j: int) -> Callable:
        return self.coeffs.get((i, j), lambda r: np.zeros_like(np.asarray(r, dtype=float)))


def glue_leg_germs(g_left: GermH, g_right: GermH, tau: Callable,
                   delta: float = 0.25) -> GermH:
    """Blend two leg germs over (-delta, delta) with zero-order term tau.

    Preconditions: both inputs carry the same truncation order, their
    zero-order coefficients equal tau on their intervals (to 1e-9, checked
    at 33 points of each), and both are evaluable across the blend region.
    The output restricts to the inputs coefficientwise outside
    (-delta, delta).
    """
    if g_left.order != g_right.order:
        raise ValueError("germ truncation orders differ")
    a = g_left.interval[0]
    b = g_right.interval[1]
    if not (g_left.interval[1] >= delta and g_right.interval[0] <= -delta):
        raise ValueError("input germs must overlap the blend region")
    for germ, lo, hi in ((g_left, a, delta), (g_right, -delta, b)):
        r = np.linspace(lo, hi, 33)
        mismatch = np.max(np.abs(np.asarray(germ.coefficient(0, 0)(r), dtype=float)
                                 - np.asarray(tau(r), dtype=float)))
        if mismatch > 1e-9:
            raise ValueError(
                f"zero-order term differs from tau by {mismatch:.2e} (> 1e-09)"
            )

    def blend(i, j):
        left = g_left.coefficient(i, j)
        right = g_right.coefficient(i, j)

        def h(r):
            r = np.asarray(r, dtype=float)
            w = numerics.smoothstep7((r + delta) / (2.0 * delta))
            return (1.0 - w) * np.asarray(left(r), dtype=float) \
                + w * np.asarray(right(r), dtype=float)

        return h

    coeffs = {(i, j): blend(i, j) for i in range(g_left.order + 1)
              for j in range(g_left.order + 1 - i)}
    coeffs[(0, 0)] = lambda r: np.asarray(tau(r), dtype=float)
    return GermH((a, b), g_left.order, coeffs)


# ----------------------------------------------------------------------
# checks on fixed fixtures
# ----------------------------------------------------------------------

def ell1_report(case="ff", m=(1, 0)) -> dict:
    """The seam equation on a fixture, against its integers.

    ``ff``: the lower seam integral of the stitched focus-focus l_1, which
    must be 1.  ``equal`` / ``fake``: constant frames eta^- = (i/2, 1) and
    eta^+ = eta^- (equal) or eta^- + m_j e1 (fake), e1 = (1, -1), one pair
    per entry m_j of ``m``; the coefficients a_j must be 0 (equal) or m_j
    (fake).  ``passed`` is true when each is within ``ELL1_TOL``; an
    empty ``m`` raises ValueError.
    """
    if case == "ff":
        rep = integral_condition(stitched_ff_ell1_sequence(), [1], base=-0.5,
                                 tol=ELL1_TOL)
        return {
            "case": "ff",
            "lower_seam_integral": rep.computed.tolist(),
            "expected": [1],
            "tol": ELL1_TOL,
            "passed": rep.passed,
        }
    ms = list(m)
    if not ms:
        raise ValueError(f"case {case} needs at least one m")
    e1 = np.array([1.0 + 0j, -1.0 + 0j])
    minus = [lambda p: np.array([0.5j, 1.0 + 0j]) for _ in ms]
    if case == "equal":
        plus = minus
    else:
        plus = [(lambda p, m=m: np.array([0.5j, 1.0 + 0j]) + m * e1) for m in ms]
    values = [c(np.zeros(2)) for c in ell1_from_frames(plus, minus, lambda p: e1)]
    expected = ms if case == "fake" else [0] * len(ms)
    return {
        "case": case,
        "a": values,
        "m": ms,
        "expected": expected,
        "tol": ELL1_TOL,
        "passed": all(abs(a - e) < ELL1_TOL for a, e in zip(values, expected)),
    }


def integral_report(case="negative") -> dict:
    """The integral conditions of a fixture: the lower (1) and upper (0)
    seams of the stitched focus-focus model (``ff``), or the negative-vertex
    table with m1 = -1, m2 = 1 on the constant seams c, d, e of
    coefficients (0, 0), (-1, 0), (0, 1) (``negative``).  ``passed`` is
    true when every seam passes."""
    if case == "ff":
        seq = stitched_ff_ell1_sequence()
        reports = {
            "lower": integral_condition(seq, [1], base=-0.5).to_json(),
            "upper": integral_condition(seq, [0], base=0.5).to_json(),
        }
    else:
        seqs = {
            "c": EllSequence.constant("c", [0.0, 0.0]),
            "d": EllSequence.constant("d", [-1.0, 0.0]),
            "e": EllSequence.constant("e", [0.0, 1.0]),
        }
        reports = {k: v.to_json() for k, v in
                   negative_table_condition(seqs, -1, 1).items()}
    return {"case": case, "reports": reports,
            "passed": all(v["passed"] for v in reports.values())}


def constant_report(case="fake") -> dict:
    """Fake-stitched detection on a two-dimensional fibre: l_1 with the
    constant coefficients (1, 0) (``fake``), which is fibrewise constant,
    and with (1 + cos 2 pi y, 0), y the second angle (``wavy``), which is
    not.  ``passed`` is true when :func:`is_fibrewise_constant` gives the
    expected answer."""
    if case == "fake":
        seq = EllSequence.constant("fake", [1.0, 0.0])
    else:
        seq = EllSequence("wavy", 2, {1: [
            lambda y, base=None: 1.0 + np.cos(2 * np.pi * y[..., 1]),
            lambda y, base=None: np.zeros(np.shape(y)[:-1]),
        ]})
    constant = is_fibrewise_constant(seq)
    expected = case == "fake"
    return {
        "case": case,
        "fibrewise_constant": constant,
        "expected": expected,
        "passed": constant == expected,
    }


def deform_report() -> dict:
    """The interpolation (1 - rho) l' + rho l, with the constant cut-off
    rho = ``DEFORM_RHO``, of the one-dimensional l_1 coefficients
    1 + sin 2 pi y (l) and 1 (l'), both of class 1.  ``passed`` is true
    when the class integral stays 1 and the result stays closed, both to
    ``DEFORM_TOL``."""
    wavy = EllSequence("w", 1, {1: [
        lambda y, base=None: 1.0 + np.sin(2 * np.pi * y[..., 0]),
    ]})
    flat = EllSequence.constant("f", [1.0])
    mixed = deform_by_cutoff(wavy, lambda b: DEFORM_RHO, other=flat)
    integral = cycle_integrals(mixed)[0]
    closed = fibrewise_closedness_defect(mixed)
    return {
        "rho": DEFORM_RHO,
        "class_integral": integral,
        "closedness_defect": closed,
        "passed": abs(integral - 1.0) < DEFORM_TOL and closed < DEFORM_TOL,
    }


def glue_report() -> dict:
    """Glue the leg germs h_10 = 1 on [-1, 0.5] and h_10 = 0 on [-0.5, 1]
    (both with h_00 = tau = 0) and sample the blended h_10 on 9 points of
    [-1, 1] and at the blend ends -0.5 and 0.5 (no check)."""
    zero = lambda r: np.zeros_like(np.asarray(r, dtype=float))
    one = lambda r: np.ones_like(np.asarray(r, dtype=float))
    left = GermH((-1.0, 0.5), 2, {(0, 0): zero, (1, 0): one})
    right = GermH((-0.5, 1.0), 2, {(0, 0): zero, (1, 0): zero})
    h10 = glue_leg_germs(left, right, zero).coefficient(1, 0)
    r = np.linspace(-1.0, 1.0, 9)
    return {
        "h10": h10(r).tolist(),
        "r": r.tolist(),
        "endpoints": [float(h10(np.array([-0.5]))[0]),
                      float(h10(np.array([0.5]))[0])],
    }
