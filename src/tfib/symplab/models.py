"""The explicit fibration models, as vectorized maps C^n -> R^m.

Every model evaluates on arrays of shape (..., n) of complex points.  The
piecewise map ``gamma`` takes the mu >= 0 branch on the seam, where both
branches agree.  Models carry, besides the map itself: a distance-like
margin to their poles/critical/non-smooth loci, whose positivity is the
domain test (``margin(z) > 0`` implies that ``f(z)`` is finite and smooth
near z; the sampling helpers draw above a positive margin), the
reduced-space symplectomorphism Phi of the lifted construction (when there
is one), a base chart in which the period lattice takes its quoted closed
form, and named fibre-cycle parametrizations used by the period
quadratures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

import numpy as np

from .. import numerics
from . import MODEL_IDS
from .reduction import gamma_t_inverse

SQRT2 = math.sqrt(2.0)
#: half-width of the cube in C^n = R^{2n} that ``sample_domain`` draws from
SAMPLE_BOX = 1.5
#: the thin-legs pinching: the two leg balls have squared radius
#: THIN_LEGS_EPS, the diagonal leg starts at |u2|^2 = THIN_LEGS_M
THIN_LEGS_EPS = 0.1
THIN_LEGS_M = 4.0


def mu12(z):
    """Moment map (|z1|^2 - |z2|^2)/2 of the circle action on (z1, z2)."""
    return (np.abs(z[..., 0]) ** 2 - np.abs(z[..., 1]) ** 2) / 2.0


def gamma(z1, z2):
    """Piecewise map z1 z2 / |z1| (mu >= 0) or z1 z2 / |z2| (mu < 0).

    Both branches agree where |z1| = |z2|; the seam itself evaluates the
    mu >= 0 branch.
    """
    z1 = np.asarray(z1, dtype=complex)
    z2 = np.asarray(z2, dtype=complex)
    r1 = np.abs(z1)
    r2 = np.abs(z2)
    denom = np.where(r1 >= r2, r1, r2)
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.where(denom > 0, z1 * z2 / np.where(denom > 0, denom, 1.0), 0.0)
    return out


def log_abs(w):
    with np.errstate(divide="ignore"):
        return np.log(np.abs(w))


# ----------------------------------------------------------------------
# reduced-space symplectomorphisms (the twists Phi)
# ----------------------------------------------------------------------

def psi_amoeba(u1, u2):
    """(u1, u2) -> ((u1 - u2)/sqrt2, (u1 + u2 - sqrt2)/sqrt2)."""
    return (u1 - u2) / SQRT2, (u1 + u2 - SQRT2) / SQRT2


def phi_leg_h(u1, u2):
    return -u2, u1 - 1.0


def phi_leg_v(u1, u2):
    return u1 - 1.0, u2 - SQRT2


def phi_leg_d(u1, u2):
    return (u1 - u2) / SQRT2, (u1 + u2) / SQRT2


# the leg branches of phi_thin_legs in precedence order; "amoeba" elsewhere
_THIN_LEGS = (("horizontal_ball", phi_leg_h), ("vertical_ball", phi_leg_v),
              ("diagonal_far", phi_leg_d))


def _thin_legs_spheres(u1, u2):
    """(distance of (u1, u2) from the centre, radius, branch is inside) of
    each sphere where phi_thin_legs switches branch, in the order of
    _THIN_LEGS: |u1|^2 + |u2|^2 = eps, |u1|^2 + |u2 - sqrt2|^2 = eps, |u2|^2 = M
    (eps = THIN_LEGS_EPS, M = THIN_LEGS_M)."""
    r1 = np.abs(u1)
    return [(np.hypot(r1, np.abs(u2)), math.sqrt(THIN_LEGS_EPS), True),
            (np.hypot(r1, np.abs(u2 - SQRT2)), math.sqrt(THIN_LEGS_EPS), True),
            (np.abs(u2), math.sqrt(THIN_LEGS_M), False)]


def _thin_legs_masks(u1, u2):
    """Where (u1, u2) lies in each leg branch of _THIN_LEGS (overlaps
    resolve to the first)."""
    return [dist <= radius if inside else dist >= radius
            for dist, radius, inside in _thin_legs_spheres(u1, u2)]


def thin_legs_branch(u1, u2):
    """Branch labels of phi_thin_legs at the points (u1, u2)."""
    return np.select(_thin_legs_masks(u1, u2),
                     [name for name, _ in _THIN_LEGS], "amoeba")


def phi_thin_legs(u1, u2):
    """The piecewise symplectomorphism pinching all three legs."""
    u1 = np.asarray(u1, dtype=complex)
    u2 = np.asarray(u2, dtype=complex)
    masks = _thin_legs_masks(u1, u2)
    legs = [phi(u1, u2) for _, phi in _THIN_LEGS]
    v1, v2 = psi_amoeba(u1, u2)
    return (np.select(masks, [leg[0] for leg in legs], v1),
            np.select(masks, [leg[1] for leg in legs], v2))


# ----------------------------------------------------------------------
# model container
# ----------------------------------------------------------------------

@dataclass
class FibrationModel:
    id: str
    n: int                       # complex ambient dimension
    components: int              # number of real map components
    f: Callable[[np.ndarray], np.ndarray]
    margin: Callable[[np.ndarray], np.ndarray]
    phi: Optional[Callable] = None
    chart: Optional[Callable[[np.ndarray], np.ndarray]] = None
    cycles: Dict[str, Callable] = field(default_factory=dict)
    fibre_point: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __call__(self, z):
        return self.f(np.asarray(z, dtype=complex))


def _min_pair_norm(z, pairs):
    vals = [np.hypot(np.abs(z[..., i]), np.abs(z[..., j])) for i, j in pairs]
    return np.minimum.reduce(vals)


def _circle_cycle(*weights):
    """Cycle builder for the circle action z_k -> e^{-2 pi i s w_k} z_k.

    ``weights`` (each -1, 0 or 1) give one weight per coordinate; the
    builder maps a fibre point z0 to (cycle, normalization 1).
    """
    def builder(z0):
        z0 = np.asarray(z0, dtype=complex)

        def cyc(s):
            ph = np.exp(-2j * np.pi * np.asarray(s))
            out = np.broadcast_to(z0, np.shape(s) + z0.shape).copy()
            for k, w in enumerate(weights):
                if w == 1:
                    out[..., k] = ph * z0[k]
                elif w == -1:
                    out[..., k] = z0[k] / ph
            return out

        return cyc, 1.0

    return builder


def _circle_lift(u, t, phase=1.0):
    """(z1, z2) with z1 z2 = u and mu12 = t, and z1 = |z1| * phase."""
    r1 = np.sqrt(t + np.sqrt(t * t + np.abs(u) ** 2))
    return r1 * phase, u / r1 / phase


def _model_sm_ff() -> FibrationModel:
    """Smooth; the only singular fibre is over (0, 0)."""

    def f(z):
        return np.stack([mu12(z), log_abs(z[..., 0] * z[..., 1] + 1.0)], axis=-1)

    def margin(z):
        return np.minimum(np.abs(z[..., 0] * z[..., 1] + 1.0),
                          _min_pair_norm(z, [(0, 1)]))

    def chart(b):
        return np.array([b[1], b[0]])

    def fibre_point(b):
        # b = (mu, log|z1 z2 + 1|); pick u = z1 z2 real, off the pole
        t, c = float(b[0]), float(b[1])
        return np.array(_circle_lift(-1.0 + math.exp(c), t), dtype=complex)

    return FibrationModel(
        id="sm_ff", n=2, components=2, f=f, margin=margin, chart=chart,
        cycles={"s1_orbit": _circle_cycle(1, -1)}, fibre_point=fibre_point,
    )


def _model_hl() -> FibrationModel:
    """Smooth; critical on the union of {z_i = z_j = 0}."""

    def f(z):
        prod = z[..., 0] * z[..., 1] * z[..., 2]
        return np.stack([
            prod.imag,
            np.abs(z[..., 0]) ** 2 - np.abs(z[..., 1]) ** 2,
            np.abs(z[..., 0]) ** 2 - np.abs(z[..., 2]) ** 2,
        ], axis=-1)

    def margin(z):
        return _min_pair_norm(z, [(0, 1), (0, 2), (1, 2)])

    return FibrationModel(id="hl", n=3, components=3, f=f, margin=margin)


def _model_positive() -> FibrationModel:
    """Smooth; modeled on the Harvey-Lawson cone near its critical set."""

    def f(z):
        prod = z[..., 0] * z[..., 1] * z[..., 2]
        return np.stack([
            log_abs(1.0 + prod),
            np.abs(z[..., 0]) ** 2 - np.abs(z[..., 1]) ** 2,
            np.abs(z[..., 0]) ** 2 - np.abs(z[..., 2]) ** 2,
        ], axis=-1)

    def margin(z):
        prod = z[..., 0] * z[..., 1] * z[..., 2]
        return np.minimum(np.abs(1.0 + prod),
                          _min_pair_norm(z, [(0, 1), (0, 2), (1, 2)]))

    def chart(b):
        return np.array([b[0], b[1] / 2.0, b[2] / 2.0])

    def fibre_point(b):
        c, b2, b3 = (float(v) for v in b)
        w = -1.0 + math.exp(c)
        rho = hl_modulus(abs(w) ** 2, b2, b3)
        z1 = math.sqrt(rho)
        z2 = math.sqrt(rho - b2)
        z3 = w / (z1 * z2)
        return np.array([z1, z2, z3], dtype=complex)

    return FibrationModel(
        id="positive", n=3, components=3, f=f, margin=margin, chart=chart,
        cycles={"c2": _circle_cycle(1, -1, 0), "c3": _circle_cycle(1, 0, -1)},
        fibre_point=fibre_point,
    )


def _model_generic() -> FibrationModel:
    """Smooth; the singular fibres are over {(0, r, 0)}."""

    def f(z):
        return np.stack([
            mu12(z),
            log_abs(z[..., 2]),
            log_abs(z[..., 0] * z[..., 1] - 1.0),
        ], axis=-1)

    def margin(z):
        return np.minimum.reduce([
            np.abs(z[..., 0] * z[..., 1] - 1.0),
            np.abs(z[..., 2]),
            _min_pair_norm(z, [(0, 1)]),
        ])

    def chart(b):
        return np.array([b[2], b[0], math.pi * math.exp(2.0 * b[1])])

    def fibre_point(b):
        t, c2, c3 = (float(v) for v in b)
        z1, z2 = _circle_lift(1.0 + math.exp(c3), t)
        return np.array([z1, z2, math.exp(c2)], dtype=complex)

    return FibrationModel(
        id="generic", n=3, components=3, f=f, margin=margin, chart=chart,
        cycles={"s1_orbit": _circle_cycle(1, -1, 0), "e3": _circle_cycle(0, 0, 1)},
        fibre_point=fibre_point,
    )


def _model_stitched_ff() -> FibrationModel:
    """Non-smooth on mu^{-1}(0)."""

    def f(z):
        return np.stack([
            mu12(z),
            log_abs(gamma(z[..., 0], z[..., 1]) + 1.0),
        ], axis=-1)

    def margin(z):
        return np.minimum.reduce([
            np.abs(gamma(z[..., 0], z[..., 1]) + 1.0),
            _min_pair_norm(z, [(0, 1)]),
            np.abs(mu12(z)),
        ])

    return FibrationModel(id="stitched_ff", n=2, components=2, f=f, margin=margin)


def _thin_legs_switch_gap(u1, u2):
    """Distance from (u1, u2) to the spheres where phi_thin_legs switches
    branch (``_thin_legs_spheres``)."""
    return np.minimum.reduce([np.abs(dist - radius) for dist, radius, _
                              in _thin_legs_spheres(u1, u2)])


def _phi_model(model_id, phi, switch_gap=None):
    """The Phi-twisted model; ``switch_gap(u1, u2)`` is the distance to the
    spheres where a piecewise Phi switches branch (None: a single branch)."""

    def twisted(z):
        """(v1, v2) = Phi(gamma(z1, z2), z3), and the distance to the
        spheres where Phi switches branch (inf for a single-branch Phi)."""
        g = gamma(z[..., 0], z[..., 1])
        v1, v2 = phi(g, z[..., 2])
        return v1, v2, np.inf if switch_gap is None else switch_gap(g, z[..., 2])

    def f(z):
        # Phi alone: the map does not read twisted's switch distance
        v1, v2 = phi(gamma(z[..., 0], z[..., 1]), z[..., 2])
        return np.stack([mu12(z), log_abs(v1), log_abs(v2)], axis=-1)

    def margin(z):
        v1, v2, switch = twisted(z)
        return np.minimum.reduce([
            np.abs(v1), np.abs(v2),
            _min_pair_norm(z, [(0, 1)]),
            np.abs(mu12(z)),
            np.broadcast_to(switch, np.shape(v1)),
        ])

    return FibrationModel(
        id=model_id, n=3, components=3, f=f, margin=margin, phi=phi,
    )


def thin_legs_lift(v, t):
    """Points z over mu = t with phi_thin_legs(gamma(z1, z2), z3) = v, for v
    of shape (..., 2) in the plain-amoeba branch; ``ValueError`` if any v
    lies in a leg branch."""
    # invert Psi, then Gamma_t, then split u1 = z1 z2 with mu = t
    w = np.stack([v[..., 0] + v[..., 1] + 1.0,
                  -v[..., 0] + v[..., 1] + 1.0], axis=-1) / SQRT2
    # a point lies in a leg branch exactly when one of its masks is set
    if np.any(np.logical_or.reduce(_thin_legs_masks(w[..., 0], w[..., 1]))):
        raise ValueError(
            "fibre leaves the plain-amoeba branch of Phi; move the base "
            "point inward or enlarge M"
        )
    u = gamma_t_inverse(w, t)
    z1, z2 = _circle_lift(u[..., 0], t, np.exp(1j * np.angle(u[..., 0])))
    return np.stack([z1, z2, u[..., 1]], axis=-1)


def _model_thin_legs() -> FibrationModel:
    """Non-smooth on mu^{-1}(0); the discriminant is an amoeba with three
    thin legs, pinched at THIN_LEGS_EPS and THIN_LEGS_M."""

    def fibre_point(b):
        """A fibre point in the plain-amoeba branch."""
        t, x1, x2 = (float(v) for v in b)
        return thin_legs_lift(np.array([np.exp(x1) * np.exp(0.35j),
                                        np.exp(x2) * np.exp(-0.2j)]), t)

    def reduced_cycle(which):
        """Circle in the v_which coordinate of the reduced fibre, lifted.

        Normalized by 1/(2 pi) to match the period convention of the quoted
        thin-leg slice frame (beta db1 - e^{2b} db).
        """
        # v_which -> e^{2 pi i s} v_which
        circle = _circle_cycle(*(-1 if k == which else 0 for k in range(2)))

        def builder(z0):
            z0 = np.asarray(z0, dtype=complex)
            t = float(mu12(z0))
            v_circle, _ = circle(psi_amoeba(gamma(z0[0], z0[1]), z0[2]))

            def cyc(s):
                return thin_legs_lift(v_circle(s), t)

            cyc(np.linspace(0.0, 1.0, 64))   # raises if the torus leaves the branch
            return cyc, 1.0 / (2.0 * math.pi)

        return builder

    model = _phi_model("thin_legs", phi_thin_legs, switch_gap=_thin_legs_switch_gap)
    model.cycles = {"red_v1": reduced_cycle(0), "red_v2": reduced_cycle(1)}
    model.fibre_point = fibre_point
    model.chart = lambda b: np.asarray(b, dtype=float)
    return model


def _model_control() -> FibrationModel:
    """Deliberately non-commuting components: (|z1|^2, Re z1, Im z2).

    Smooth everywhere; the fibres are deliberately not Lagrangian."""

    def f(z):
        return np.stack([
            np.abs(z[..., 0]) ** 2,
            z[..., 0].real,
            z[..., 1].imag,
        ], axis=-1)

    def margin(z):
        return np.abs(z[..., 0].imag)

    return FibrationModel(id="control", n=2, components=3, f=f, margin=margin)


def hl_modulus(usq, b2, b3):
    """Positive root of rho (rho - b2)(rho - b3) = usq, rho >= max(0,b2,b3).

    Bisection until the bracket is narrower than 1e-15 times its upper end,
    or its midpoint is no longer strictly inside it (no float left between
    the ends, or a non-finite input)."""
    lo = max(0.0, b2, b3)
    if usq == 0.0:
        return lo
    hi = lo + max(1.0, usq) ** (1.0 / 3.0) + abs(b2) + abs(b3) + 1.0
    while hi * (hi - b2) * (hi - b3) < usq:
        hi *= 2.0
    while True:
        mid = 0.5 * (lo + hi)
        if hi - lo < 1e-15 * hi or not lo < mid < hi:
            return mid
        if mid * (mid - b2) * (mid - b3) < usq:
            lo = mid
        else:
            hi = mid


_BUILDERS = {
    "sm_ff": _model_sm_ff,
    "hl": _model_hl,
    "positive": _model_positive,
    "generic": _model_generic,
    # the Phi models are non-smooth on mu^{-1}(0); their discriminants are
    # {0} x Log(v1+v2+1=0) (amoeba), {0} x R x {0} (leg_h),
    # {0} x {0} x R (leg_v) and the diagonal (leg_d)
    "amoeba": lambda: _phi_model("amoeba", psi_amoeba),
    "leg_h": lambda: _phi_model("leg_h", phi_leg_h),
    "leg_v": lambda: _phi_model("leg_v", phi_leg_v),
    "leg_d": lambda: _phi_model("leg_d", phi_leg_d),
    "stitched_ff": _model_stitched_ff,
    "thin_legs": _model_thin_legs,
    "control": _model_control,
}


def make_model(model_id: str) -> FibrationModel:
    """Construct a fibration model by id."""
    if model_id not in _BUILDERS:
        raise ValueError(f"unknown model id {model_id!r}; known: {MODEL_IDS}")
    return _BUILDERS[model_id]()


def sample_domain(model: FibrationModel, count: int, rng, margin: float = 0.1
                  ) -> np.ndarray:
    """Seeded rejection sampling of domain points with the given margin.

    Draws uniformly from the cube [-SAMPLE_BOX, SAMPLE_BOX]^{2n} of real
    coordinates.  A point is in the domain when ``model.margin`` exceeds
    ``margin``, so ``margin`` must be finite and non-negative; a margin
    that too few draws exceed raises ValueError.
    """
    if not 0.0 <= margin < math.inf:
        raise ValueError(f"sampling margin must be finite and >= 0, got {margin}")
    out = []
    need = count
    for _ in range(200):
        raw = rng.uniform(-SAMPLE_BOX, SAMPLE_BOX, size=(4 * need, 2 * model.n))
        z = numerics.r2c(raw)
        keep = model.margin(z) > margin
        z = z[keep]
        out.append(z[:need])
        need -= len(z[:need])
        if need <= 0:
            return np.concatenate(out, axis=0)[:count]
    raise ValueError(
        f"could not draw {count} samples at margin {margin} for {model.id}"
    )
