"""Hamiltonian twists: time-s flows of cut-off Hamiltonians on C^2, in
closed form.

The twist Hamiltonians are H = k(t) H0, with t = |u1|^2 + |u2|^2 and
H0 = (pi/4) Im(u1 conj(u2)) (k = 1 for the quarter-turn H0 itself).
Fields follow the package convention  udot_k = -dH/dy_k + i dH/dx_k.  H0
generates the real rotation R(theta) of the pair (u1, u2), which keeps t,
and t generates the diagonal phase u -> e^{2is} u, which keeps H0.  So
{t, H0} = 0, both are constants of the motion of H, and
X_H = k(t) X_H0 + H0 k'(t) X_t is a sum of two commuting fields whose
coefficients are constant along each orbit.  The time-s map is therefore

    phi_s(u) = R(pi s k(t) / 4) e^{2 i s H0(u) k'(t)} u

(commuting flows: Arnold, Mathematical Methods of Classical Mechanics, on
Poisson brackets).  Each shipped Hamiltonian carries it as ``flow(u, s)``,
beside its analytic gradient ``grad`` (shape (m, 2n)); the cut-off's k and
k' come from one helper, with the values of the separate
``numerics.cutoff`` and smoothstep formulas bit for bit.  There is no
integrator: a Hamiltonian without ``flow`` has no twist.

Two checks tie the closed form to H, both from the derivative engine
``numerics.jacobian`` and both read in units of each point's norm (as is
the report's flow error), so that they read the same at every eps of the
scale-invariant cut-off flow,
phi_eps(u) = sqrt(eps) phi_1(u / sqrt(eps)):

* :func:`symplecticity_defect`, max |J^t Omega J - Omega| with J the
  engine's derivative of the time-1 map;
* :func:`integral_curve_defect`, max |d/ds phi_s(u) - X_H(phi_s(u))| at a
  few times s in (0, 1], with X_H from ``grad``: it fails a wrong phase or
  rotation angle, and a ``grad`` that is not the flow's.

:func:`twist_report` runs both, with a flow-error check against the
identity and the quarter turn, on seeded points (``tfib fib twist``).
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .. import numerics

#: the checks sample C^2 inside this radius
MAX_RADIUS = 50.0
#: a flow error, symplecticity defect or integral-curve defect at or above
#: this fails the twist check
TWIST_TOL = 1e-6
#: the times s at which the integral-curve defect compares d/ds phi_s with X_H
CURVE_TIMES = (0.25, 0.5, 1.0)


def _rotate(u, theta):
    """R(theta) (u1, u2) = (cos theta u1 - sin theta u2, sin theta u1 +
    cos theta u2), theta a scalar or one angle per point."""
    c, s = np.cos(theta), np.sin(theta)
    return np.stack([c * u[:, 0] - s * u[:, 1], s * u[:, 0] + c * u[:, 1]], axis=-1)


def h0_quarter_turn(u):
    """H0 = (pi/4) Im(u1 conj(u2)); its time-1 flow is the quarter turn
    (u1, u2) -> ((u1 - u2)/sqrt2, (u1 + u2)/sqrt2)."""
    u = np.asarray(u, dtype=complex)
    return (math.pi / 4.0) * (u[..., 0] * np.conj(u[..., 1])).imag


_H0_HESS = np.zeros((4, 4))
_H0_HESS[0, 3] = _H0_HESS[3, 0] = -math.pi / 4.0
_H0_HESS[1, 2] = _H0_HESS[2, 1] = math.pi / 4.0


def _h0_grad(u):
    # H0 is quadratic, so its gradient is its constant Hessian applied to x
    return numerics.c2r(np.atleast_2d(u)) @ _H0_HESS


def _h0_flow(u, s):
    return _rotate(np.atleast_2d(np.asarray(u, dtype=complex)), (math.pi / 4.0) * s)


h0_quarter_turn.grad = _h0_grad
h0_quarter_turn.flow = _h0_flow


def _cutoff_terms(u, eps):
    """The points u (m, 2), H0 there, and the cut-off k(t) = 1 - S((t - eps)
    / eps) with k' at t = |u1|^2 + |u2|^2, S the smoothstep of
    ``numerics.smoothstep7``: k is ``numerics.cutoff(t, eps, 2 eps)``.
    """
    u = np.atleast_2d(np.asarray(u, dtype=complex))
    a = np.abs(u) ** 2
    t = a[:, 0] + a[:, 1]
    s = np.minimum(np.maximum((t - eps) / eps, 0.0), 1.0)
    # -(y / e) is y / -e exactly
    kp = 140.0 * s**3 * (1.0 - s) ** 3 / -eps
    return u, h0_quarter_turn(u), numerics.cutoff(t, eps, 2.0 * eps), kp


def cutoff_hamiltonian(eps=0.1):
    """H = k(|u1|^2 + |u2|^2) H0 with k = 1 below eps and 0 above 2 eps.

    eps must be finite, with eps^2 a normal float (eps >= 1.5e-154): the
    range of cut-off scales the laboratory accepts."""
    if not (math.isfinite(eps) and eps > 0.0 and eps * eps >= sys.float_info.min):
        raise ValueError(f"eps must be finite and positive with eps^2 >= "
                         f"{sys.float_info.min:.3g}, got {eps}")

    def h(u):
        u = np.asarray(u, dtype=complex)
        t = np.abs(u[..., 0]) ** 2 + np.abs(u[..., 1]) ** 2
        return numerics.cutoff(t, eps, 2.0 * eps) * h0_quarter_turn(u)

    def grad(u):
        u, h0, k, kp = _cutoff_terms(u, eps)
        x = numerics.c2r(u)
        return k[:, None] * (x @ _H0_HESS) + (kp * h0)[:, None] * 2.0 * x

    def flow(u, s):
        u, h0, k, kp = _cutoff_terms(u, eps)
        return _rotate(np.exp(2j * s * h0 * kp)[:, None] * u, (math.pi / 4.0) * s * k)

    h.grad = grad
    h.flow = flow
    return h


def hamiltonian_twist(h):
    """The time-1 flow of ``h`` as a batched symplectomorphism: its closed
    form ``h.flow(u, 1)``.

    Returns a callable mapping an array (m, 2) of complex points to the
    flowed points; it carries ``h`` as its ``hamiltonian`` attribute.
    Raises ``ValueError`` if ``h`` carries no ``flow``.
    """
    closed = getattr(h, "flow", None)
    if closed is None:
        raise ValueError("the Hamiltonian carries no closed-form flow")

    def flow(u0):
        return closed(u0, 1.0)

    flow.hamiltonian = h
    return flow


def _norms(u):
    """|u| of each point (m, n), with 1 for a point at 0."""
    r = np.linalg.norm(numerics.c2r(u), axis=-1)
    return np.where(r > 0.0, r, 1.0)


def symplecticity_defect(flow, points):
    """max |J^t Omega J - Omega| over the points, J from
    ``numerics.jacobian`` of the closed-form time-1 map of the twist
    ``flow``'s Hamiltonian.

    Each point x is differenced at the scale of its norm r: the engine
    differentiates y -> phi(r y) at x / r (base step 1e-5), and the
    derivative is divided by r.  So the check reads the same at every scale
    of a scale-invariant flow; a point at 0 is differenced as it is.
    """
    h = getattr(flow, "hamiltonian", None)
    if h is None:
        raise ValueError("flow does not expose its Hamiltonian")
    points = np.atleast_2d(np.asarray(points, dtype=complex))
    r = _norms(points)[:, None]
    jacs = numerics.jacobian(lambda y: numerics.c2r(h.flow(numerics.r2c(r * y), 1.0)),
                             numerics.c2r(points) / r, step=1e-5) / r[..., None]
    omega = numerics.omega_matrix(points.shape[1])
    return float(np.max(np.abs(np.swapaxes(jacs, 1, 2) @ omega @ jacs - omega)))


def integral_curve_defect(h, points):
    """max |d/ds phi_s(u) - X_H(phi_s(u))| / |u| over the points u and the
    times ``CURVE_TIMES``: phi_s is ``h.flow``, d/ds comes from
    ``numerics.jacobian`` and X_H is ``numerics.field_of_gradient`` of
    ``h.grad``.

    phi_s is the flow of H exactly when its curves are integral curves of
    X_H, so this ties the closed form to H without an integrator.  The
    flow keeps |u|, so the defect is in units of the orbit's radius.
    """
    points = np.atleast_2d(np.asarray(points, dtype=complex))
    u = np.tile(points, (len(CURVE_TIMES), 1))
    s = np.repeat(CURVE_TIMES, len(points))
    ds = numerics.jacobian(lambda sv: numerics.c2r(h.flow(u, sv[:, 0])), s[:, None])
    drift = ds[..., 0] - numerics.field_of_gradient(h.grad(h.flow(u, s)))
    return float(np.max(np.abs(drift) / _norms(u)[:, None]))


def _quarter_turn_error(flow, v):
    """max |flow(v) - quarter turn of v| / |v| over the points v (m, 2)."""
    c = 1.0 / math.sqrt(2.0)
    expected = np.stack([c * (v[:, 0] - v[:, 1]), c * (v[:, 0] + v[:, 1])], axis=-1)
    return float(np.max(np.abs(flow(v) - expected) / _norms(v)[:, None]))


def twist_report(which="h0", eps=None, samples=100, seed=0):
    """The twist checks of ``h0_quarter_turn`` (``which="h0"``) or of
    ``cutoff_hamiltonian(eps)`` (``"cutoff"``, eps 0.1 when None): the
    report body, with ``passed`` true when all three are below
    ``TWIST_TOL``.  The h0 check takes no eps (it raises ValueError).

    ``samples`` Gaussian points u of C^2 come from a generator seeded with
    ``seed``.  The flow error is the distance from the quarter turn at u
    (h0), or for the cut-off the larger of the distances from the identity
    at radius 2 sqrt(eps), where H = 0, and from the quarter turn at radius
    0.7 sqrt(eps), where k = 1, each distance divided by its point's radius.
    The integral-curve defect is taken at three points of the cut-off shell
    eps < |u|^2 < 2 eps, where k' is live, and the symplecticity defect at
    those three and at 0.3 u for the first 20 points.  eps must lie in [0, MAX_RADIUS^2 / 4], so that the
    far points lie in the sampled region; the h0 check takes its shell at
    eps = 0.1.
    """
    if which == "h0" and eps is not None:
        raise ValueError(f"eps sets the cut-off Hamiltonian only; the h0 check "
                         f"takes none, got {eps}")
    eps = 0.1 if eps is None else eps
    if not 0.0 <= 4.0 * eps <= MAX_RADIUS ** 2:
        raise ValueError(f"eps must lie in [0, {MAX_RADIUS ** 2 / 4.0:g}], got {eps}")
    rng = np.random.default_rng(seed)
    u = rng.normal(size=(samples, 2)) + 1j * rng.normal(size=(samples, 2))
    unit = u / np.sqrt(np.sum(np.abs(u) ** 2, axis=1))[:, None]
    if which == "h0":
        h = h0_quarter_turn
        flow = hamiltonian_twist(h)
        err = _quarter_turn_error(flow, u)
    else:
        h = cutoff_hamiltonian(eps)
        flow = hamiltonian_twist(h)
        far = unit * math.sqrt(4.0 * eps)
        err = max(float(np.max(np.abs(flow(far) - far) / _norms(far)[:, None])),
                  _quarter_turn_error(flow, unit * math.sqrt(0.49 * eps)))
    shell = unit[:3] * np.sqrt(eps * np.array([1.2, 1.5, 1.8]))[:len(unit), None]
    defect = symplecticity_defect(flow, np.concatenate([0.3 * u[:20], shell]))
    curve = integral_curve_defect(h, shell)
    return {
        "which": which,
        "flow_error": err,
        "symplectic_defect": defect,
        "integral_curve_defect": curve,
        "tol": TWIST_TOL,
        "passed": err < TWIST_TOL and defect < TWIST_TOL and curve < TWIST_TOL,
    }
