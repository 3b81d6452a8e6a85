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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import numerics
from .symplab.models import mu12

TRAPEZOID_POINTS = 1024


# ----------------------------------------------------------------------
# ell sequences
# ----------------------------------------------------------------------

@dataclass
class EllSequence:
    """Truncated sequence of fibrewise 1-forms on a reduced seam.

    ``terms[k]`` (k = 1..order) lists the coefficient callables
    a_j(y, base) of l_k = sum_j a_j dy_{j+2}; each callable is vectorized
    over arrays y of shape (m, fibre_dim).
    """

    seam_id: str
    fibre_dim: int
    terms: Dict[int, List[Callable]] = field(default_factory=dict)
    order: int = 4

    def ell1(self) -> List[Callable]:
        return self.terms.get(1, self.zero_term())

    def zero_term(self) -> List[Callable]:
        return [lambda y, base=None: np.zeros(np.shape(y)[:-1])
                for _ in range(self.fibre_dim)]

    @staticmethod
    def constant(seam_id: str, coefficients: Sequence[float], order: int = 4
                 ) -> "EllSequence":
        """Sequence with constant l_1 = sum m_j dy_j and zero higher terms."""
        coeffs = [float(c) for c in coefficients]
        term = [
            (lambda y, base=None, c=c: np.full(np.shape(y)[:-1], c))
            for c in coeffs
        ]
        return EllSequence(seam_id, len(coeffs), {1: term}, order=order)


def _torus_grid(fibre_dim, n=24):
    axes = [np.arange(n) / n for _ in range(fibre_dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=-1)


def fibrewise_closedness_defect(seq: EllSequence, base=None, step=1e-5) -> float:
    """max |da_j/dy_i - da_i/dy_j| over terms and a torus grid."""
    if seq.fibre_dim == 1:
        return 0.0
    grid = _torus_grid(seq.fibre_dim)
    worst = 0.0
    for term in seq.terms.values():
        def stacked(y, term=term):
            return np.stack([a(y, base) for a in term], axis=-1)

        jac = numerics.jacobian(stacked, grid, step=step)   # [.., j, i] = da_j/dy_i
        curl = jac - np.swapaxes(jac, -1, -2)
        worst = max(worst, float(np.max(np.abs(curl))))
    return worst


def cycle_integrals(seq: EllSequence, base=None, n=TRAPEZOID_POINTS,
                    quad_tol=1e-6) -> np.ndarray:
    """Fibre cohomology integrals of l_1 over the coordinate cycles [db_j].

    Smooth periodic integrands converge spectrally under the composite
    trapezoid; a doubling estimate above ``quad_tol`` raises.
    """
    out = np.empty(seq.fibre_dim)
    ell1 = seq.ell1()
    for j in range(seq.fibre_dim):
        y = np.zeros((n, seq.fibre_dim))
        y[:, j] = np.arange(n) / n
        # transverse basepoint fixed at 0; closedness makes this immaterial
        out[j], err = numerics.periodic_quadrature(ell1[j](y, base))
        if err > quad_tol:
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


def negative_table_condition(seqs: Dict[str, EllSequence], m1: int, m2: int,
                             tol=1e-6) -> Dict[str, IntegralReport]:
    """The three-seam table: c -> (0, 0), d -> (m1, 0), e -> (0, m2)."""
    table = {"c": (0, 0), "d": (m1, 0), "e": (0, m2)}
    missing = set(table) - set(seqs)
    if missing:
        raise ValueError(f"missing seam components: {sorted(missing)}")
    return {
        name: integral_condition(seqs[name], table[name], tol=tol)
        for name in ("c", "d", "e")
    }


def is_fibrewise_constant(seq: EllSequence, base=None, tol=1e-8) -> bool:
    """True iff every coefficient function is constant along the fibres."""
    grid = _torus_grid(max(seq.fibre_dim, 1))
    for term in seq.terms.values():
        for a in term:
            vals = np.asarray(a(grid, base), dtype=float)
            if float(vals.max() - vals.min()) > tol:
                return False
    return True


def _as_base_cutoff(rho):
    """Wrap rho as a function of the base point, rejecting fibre dependence."""
    probe_y = _torus_grid(2, n=5)

    def at(base):
        try:
            return float(rho(base))
        except TypeError:
            vals = np.asarray(rho(probe_y, base), dtype=float)
            if float(vals.max() - vals.min()) > 1e-9:
                raise ValueError("cut-off varies along the fibres")
            return float(vals.reshape(-1)[0])

    return at


def deform_by_cutoff(seq: EllSequence, rho, other: Optional[EllSequence] = None
                     ) -> EllSequence:
    """Termwise scaling rho * l_k, or interpolation (1-rho) l'_k + rho l_k.

    ``rho`` depends only on the base point of the reduced fibration; the
    fibre cohomology class of l_1 becomes (1-rho(b)) [l'_1] + rho(b) [l_1],
    so it is unchanged whenever both inputs share the class.  ``rho`` is
    evaluated lazily, with the blended terms: a cut-off that varies along
    the fibres raises ValueError there.
    """
    rho_at = _as_base_cutoff(rho)
    if other is not None and other.fibre_dim != seq.fibre_dim:
        raise ValueError("interpolation partners have different fibre dims")
    orders = set(seq.terms) | (set(other.terms) if other is not None else set())
    new_terms: Dict[int, List[Callable]] = {}
    for k in sorted(orders):
        term = seq.terms.get(k, seq.zero_term())
        term_other = (other.terms.get(k, other.zero_term())
                      if other is not None else None)
        new_term = []
        for j in range(seq.fibre_dim):
            a = term[j]
            if term_other is None:
                def blended(y, base=None, a=a):
                    return rho_at(base) * np.asarray(a(y, base), dtype=float)
            else:
                b = term_other[j]

                def blended(y, base=None, a=a, b=b):
                    r = rho_at(base)
                    return (r * np.asarray(a(y, base), dtype=float)
                            + (1.0 - r) * np.asarray(b(y, base), dtype=float))
            new_term.append(blended)
        new_terms[k] = new_term
    return EllSequence(seq.seam_id, seq.fibre_dim, new_terms, order=seq.order)


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

    return EllSequence("ff_lower", 1, {1: [a2]}, order=1)


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

    def indices(self):
        return [(i, j) for i in range(self.order + 1)
                for j in range(self.order + 1 - i)]


def glue_leg_germs(g_left: GermH, g_right: GermH, tau: Callable,
                   delta: float = 0.25, samples: int = 33, tol: float = 1e-9
                   ) -> GermH:
    """Blend two leg germs over (-delta, delta) with zero-order term tau.

    Preconditions: both inputs carry the same truncation order, their
    zero-order coefficients equal tau on their intervals (checked on
    samples), and both are evaluable across the blend region.  The output
    restricts to the inputs coefficientwise outside (-delta, delta).
    """
    if g_left.order != g_right.order:
        raise ValueError("germ truncation orders differ")
    a = g_left.interval[0]
    b = g_right.interval[1]
    if not (g_left.interval[1] >= delta and g_right.interval[0] <= -delta):
        raise ValueError("input germs must overlap the blend region")
    for germ, lo, hi in ((g_left, a, delta), (g_right, -delta, b)):
        r = np.linspace(lo, hi, samples)
        mismatch = np.max(np.abs(np.asarray(germ.coefficient(0, 0)(r), dtype=float)
                                 - np.asarray(tau(r), dtype=float)))
        if mismatch > tol:
            raise ValueError(
                f"zero-order term differs from tau by {mismatch:.2e} (> {tol})"
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
# JSON interchange (coefficient grids)
# ----------------------------------------------------------------------

def sequence_to_json(seq: EllSequence, base=None, grid_n: int = 16) -> dict:
    """Sample the coefficient functions on a torus grid."""
    grid = _torus_grid(seq.fibre_dim, n=grid_n)
    return {
        "seam_id": seq.seam_id,
        "fibre_dim": seq.fibre_dim,
        "order": seq.order,
        "grid_n": grid_n,
        "terms": {
            str(k): [np.asarray(a(grid, base), dtype=float).tolist()
                     for a in term]
            for k, term in seq.terms.items()
        },
    }


def _grid_interp(values, grid_n, fibre_dim):
    values = np.asarray(values, dtype=float).reshape((grid_n,) * fibre_dim)

    def a(y, base=None):
        y = np.asarray(y, dtype=float)
        idx = np.mod(np.rint(y * grid_n).astype(int), grid_n)
        return values[tuple(idx[..., d] for d in range(fibre_dim))]

    return a


def sequence_from_json(data: dict) -> EllSequence:
    """Rebuild a sequence with grid-backed coefficient functions.

    Evaluation snaps to the stored torus grid (nearest node), which is
    exact at the grid resolution the sequence was saved with.
    """
    fibre_dim = int(data["fibre_dim"])
    grid_n = int(data["grid_n"])
    terms = {
        int(k): [_grid_interp(vals, grid_n, fibre_dim) for vals in term]
        for k, term in data["terms"].items()
    }
    return EllSequence(data["seam_id"], fibre_dim, terms,
                       order=int(data["order"]))


def germ_to_json(germ: GermH, samples: int = 33) -> dict:
    """Germ ledger: interval metadata plus sampled coefficient grids."""
    r = np.linspace(germ.interval[0], germ.interval[1], samples)
    return {
        "interval": [float(germ.interval[0]), float(germ.interval[1])],
        "order": germ.order,
        "r": r.tolist(),
        "coeffs": {
            f"{i},{j}": np.asarray(germ.coefficient(i, j)(r),
                                   dtype=float).tolist()
            for (i, j) in germ.indices()
        },
    }


def germ_from_json(data: dict) -> GermH:
    r = np.asarray(data["r"], dtype=float)

    def interp(vals):
        vals = np.asarray(vals, dtype=float)
        return lambda rr: np.interp(np.asarray(rr, dtype=float), r, vals)

    coeffs = {
        tuple(int(v) for v in key.split(",")): interp(vals)
        for key, vals in data["coeffs"].items()
    }
    return GermH(tuple(data["interval"]), int(data["order"]), coeffs)
