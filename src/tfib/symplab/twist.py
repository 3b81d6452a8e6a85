"""Hamiltonian twists: time-1 flows of cut-off Hamiltonians on C^2.

Flows integrate  udot_k = -dH/dy_k + i dH/dx_k  (the package convention)
with the package's numpy DOP853 stepper (``numerics.dop853`` at
``ODE_RTOL`` and ``ODE_ATOL``), batched over all requested start points.
A Hamiltonian is a callable that carries its analytic gradient ``grad``
(shape (m, 2n)), from which the field is read.  Symplecticity of the flow is checked by
integrating the variational equations d/dt J = D X_H J, which avoids
differencing the integrated map itself.  The field Jacobian D X_H is the
same row map applied to an analytic Hessian ``hess`` (shape
(m, 2n, 2n)), which both shipped Hamiltonians carry; only a Hamiltonian
without one falls back to the engine (``numerics.jacobian`` of the
field).  :func:`tangent_map_defect` checks J itself against the engine's
derivative of the time-1 map at a few points, flowing the whole
difference stencil in one solve.  :func:`twist_report` runs all three
checks on seeded points (``tfib fib twist``).
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .. import numerics

#: tolerances of the time-1 flow
ODE_RTOL = 1e-9
ODE_ATOL = 1e-12
#: tolerances of the variational equations
VARIATIONAL_RTOL = 1e-11
VARIATIONAL_ATOL = 1e-13
#: a flowed point farther out than this fails the flow
MAX_RADIUS = 50.0
#: a flow error, symplecticity defect or tangent-map defect at or above
#: this fails the twist check
TWIST_TOL = 1e-6


def h0_quarter_turn(u):
    """H0 = (pi/4) Im(u1 conj(u2)); its time-1 flow is the quarter turn
    (u1, u2) -> ((u1 - u2)/sqrt2, (u1 + u2)/sqrt2)."""
    u = np.asarray(u, dtype=complex)
    return (math.pi / 4.0) * (u[..., 0] * np.conj(u[..., 1])).imag


def _h0_grad(u):
    u = np.atleast_2d(np.asarray(u, dtype=complex))
    x1, y1 = u[:, 0].real, u[:, 0].imag
    x2, y2 = u[:, 1].real, u[:, 1].imag
    c = math.pi / 4.0
    return np.stack([-c * y2, c * x2, c * y1, -c * x1], axis=-1)


_H0_HESS = np.zeros((4, 4))
_H0_HESS[0, 3] = _H0_HESS[3, 0] = -math.pi / 4.0
_H0_HESS[1, 2] = _H0_HESS[2, 1] = math.pi / 4.0


def _h0_hess(u):
    m = np.atleast_2d(u).shape[0]
    return np.broadcast_to(_H0_HESS, (m, 4, 4))


h0_quarter_turn.grad = _h0_grad
h0_quarter_turn.hess = _h0_hess


def _smoothstep7_prime(x):
    x = np.clip(x, 0.0, 1.0)
    return 140.0 * x**3 * (1.0 - x) ** 3


def _smoothstep7_second(x):
    x = np.clip(x, 0.0, 1.0)
    return 420.0 * x**2 * (1.0 - x) ** 2 * (1.0 - 2.0 * x)


def cutoff_hamiltonian(eps=0.1):
    """H = k(|u1|^2 + |u2|^2) H0 with k = 1 below eps and 0 above 2 eps.

    eps must be finite, with eps^2 a normal float: the Hessian divides by
    eps^2."""
    if not (math.isfinite(eps) and eps > 0.0 and eps * eps >= sys.float_info.min):
        raise ValueError(f"eps must be finite and positive with eps^2 >= "
                         f"{sys.float_info.min:.3g}, got {eps}")

    def h(u):
        u = np.asarray(u, dtype=complex)
        t = np.abs(u[..., 0]) ** 2 + np.abs(u[..., 1]) ** 2
        return numerics.cutoff(t, eps, 2.0 * eps) * h0_quarter_turn(u)

    def grad(u):
        u = np.atleast_2d(np.asarray(u, dtype=complex))
        t = np.abs(u[:, 0]) ** 2 + np.abs(u[:, 1]) ** 2
        k = numerics.cutoff(t, eps, 2.0 * eps)
        kp = -_smoothstep7_prime((t - eps) / eps) / eps
        coords = numerics.c2r(u)
        h0 = h0_quarter_turn(u)
        return (k[:, None] * _h0_grad(u)
                + (kp * h0)[:, None] * 2.0 * coords)

    def hess(u):
        # product rule on k(t) H0 with t = |x|^2, grad t = 2x, Hess t = 2I
        u = np.atleast_2d(np.asarray(u, dtype=complex))
        t = np.abs(u[:, 0]) ** 2 + np.abs(u[:, 1]) ** 2
        s = (t - eps) / eps
        k = numerics.cutoff(t, eps, 2.0 * eps)
        kp = -_smoothstep7_prime(s) / eps
        kpp = -_smoothstep7_second(s) / eps**2
        x = numerics.c2r(u)
        h0 = h0_quarter_turn(u)
        g0 = _h0_grad(u)
        xg = x[:, :, None] * g0[:, None, :]
        return (k[:, None, None] * _H0_HESS
                + (2.0 * kp)[:, None, None] * (xg + np.swapaxes(xg, 1, 2))
                + (4.0 * kpp * h0)[:, None, None] * (x[:, :, None] * x[:, None, :])
                + (2.0 * kp * h0)[:, None, None] * np.eye(4))

    h.grad = grad
    h.hess = hess
    return h


def _symplectic_rows(a):
    """Rows (x_k, y_k) of ``a`` (axis 1) -> (-y_k, x_k): dH -> X_H, and
    Hess H -> D X_H."""
    out = np.empty(a.shape)
    out[:, 0::2] = -a[:, 1::2]
    out[:, 1::2] = a[:, 0::2]
    return out


def _field(h, u):
    """X_H on a batch, from the Hamiltonian's analytic gradient."""
    return _symplectic_rows(h.grad(u))


def _atol_scale(u0):
    """min(1, largest |u| over the start points u0), or 1 when all are 0: the
    factor on both absolute tolerances, so a small flow is as accurate, for
    its size, as one at radius 1."""
    r = float(np.max(np.linalg.norm(u0, axis=-1)))
    return min(1.0, r) if r > 0.0 else 1.0


def _time_one(h, u0):
    """The time-1 flow of ``h`` from the complex points ``u0`` (m, n)."""
    u0 = np.atleast_2d(np.asarray(u0, dtype=complex))
    m, n = u0.shape

    def rhs(y):
        return _field(h, numerics.r2c(y.reshape(m, 2 * n))).reshape(-1)

    y1 = numerics.dop853(rhs, numerics.c2r(u0).reshape(-1), ODE_RTOL,
                         ODE_ATOL * _atol_scale(u0))
    out = numerics.r2c(y1.reshape(m, 2 * n))
    if np.any(np.abs(out) > MAX_RADIUS):
        raise RuntimeError("Hamiltonian flow left the sampled region")
    return out


def hamiltonian_twist(h):
    """Time-1 Hamiltonian flow of ``h`` (which carries ``grad``) as a
    batched symplectomorphism.

    Returns a callable mapping an array (m, 2) of complex points to the
    flowed points; it carries ``h`` as its ``hamiltonian`` attribute.
    Raises if the integrator fails or a flowed point lies beyond
    ``MAX_RADIUS``.
    """

    def flow(u0):
        return _time_one(h, u0)

    flow.hamiltonian = h
    return flow


def flow_jacobians(h, points):
    """Tangent maps of the time-1 flow via the variational equations."""
    points = np.atleast_2d(np.asarray(points, dtype=complex))
    m, n = points.shape
    d = 2 * n
    y0 = np.concatenate([
        numerics.c2r(points).reshape(-1),
        np.broadcast_to(np.eye(d).reshape(-1), (m, d * d)).reshape(-1),
    ])

    def field(x):
        return _field(h, numerics.r2c(x))

    hess = getattr(h, "hess", None)

    def rhs(y):
        x = y[: m * d].reshape(m, d)
        jacs = y[m * d:].reshape(m, d, d)
        a = _symplectic_rows(hess(numerics.r2c(x))) if hess is not None \
            else numerics.jacobian(field, x)      # D X_H at each point
        return np.concatenate([field(x).reshape(-1), (a @ jacs).reshape(-1)])

    y1 = numerics.dop853(rhs, y0, VARIATIONAL_RTOL,
                         VARIATIONAL_ATOL * _atol_scale(points))
    return y1[m * d:].reshape(m, d, d)


def symplecticity_defect(flow, points):
    """max |J^t Omega J - Omega| over the points, J from variational flow."""
    h = getattr(flow, "hamiltonian", None)
    if h is None:
        raise ValueError("flow does not expose its Hamiltonian")
    points = np.atleast_2d(np.asarray(points, dtype=complex))
    omega = numerics.omega_matrix(points.shape[1])
    jacs = flow_jacobians(h, points)
    return float(np.max(np.abs(np.swapaxes(jacs, 1, 2) @ omega @ jacs - omega)))


def tangent_map_defect(h, points):
    """max |J - D phi| over the points: the tangent maps J of
    :func:`flow_jacobians` against ``numerics.jacobian`` of the time-1 map
    phi of ``h``.

    Any symmetric Hessian makes the variational flow symplectic, so a wrong
    one passes :func:`symplecticity_defect`; it fails this comparison.

    Each point x is differenced at the scale of its norm r: the stencil is
    taken about x / r (base step 1e-5) and flowed at r times its points,
    and the difference quotient is divided by r.  So the check reads the
    same at every scale of a scale-invariant flow such as the cut-off
    twist, phi_eps(u) = sqrt(eps) phi_1(u / sqrt(eps)); a point at 0 is
    differenced as it is.
    """
    points = np.atleast_2d(np.asarray(points, dtype=complex))
    x = numerics.c2r(points)
    r = np.linalg.norm(x, axis=-1, keepdims=True)
    r = np.where(r > 0.0, r, 1.0)
    ys, steps = numerics.stencil(x / r, step=1e-5)
    # the flow acts pointwise, so the whole stencil flows in one solve
    flowed = numerics.c2r(_time_one(h, numerics.r2c((r * ys).reshape(-1, x.shape[-1]))))
    differenced = numerics.richardson(flowed.reshape(ys.shape), steps) / r[..., None]
    return float(np.max(np.abs(flow_jacobians(h, points) - differenced)))


def _quarter_turn_error(flow, v):
    """max |flow(v) - quarter turn of v| over the points v (m, 2)."""
    c = 1.0 / math.sqrt(2.0)
    expected = np.stack([c * (v[:, 0] - v[:, 1]), c * (v[:, 0] + v[:, 1])], axis=-1)
    return float(np.max(np.abs(flow(v) - expected)))


def twist_report(which="h0", eps=None, samples=100, seed=0):
    """The twist checks of ``h0_quarter_turn`` (``which="h0"``) or of
    ``cutoff_hamiltonian(eps)`` (``"cutoff"``, eps 0.1 when None): the
    report body, with ``passed`` true when all three are below
    ``TWIST_TOL``.  The h0 check takes no eps (it raises ValueError).

    ``samples`` Gaussian points u of C^2 come from a generator seeded with
    ``seed``.  The flow error is the distance from the quarter turn at u
    (h0), or for the cut-off the larger of the distances from the identity
    at radius 2 sqrt(eps), where H = 0, and from the quarter turn at radius
    0.7 sqrt(eps), where k = 1.  The symplecticity defect is taken at
    0.3 u for the first 20 points, and the tangent-map defect at three
    points of the cut-off shell eps < |u|^2 < 2 eps, where every term of
    the Hessian is live.  eps must lie in [0, MAX_RADIUS^2 / 4], so that
    the far points stay inside the flow's region; the h0 check takes its
    shell at eps = 0.1.
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
        err = max(float(np.max(np.abs(flow(far) - far))),
                  _quarter_turn_error(flow, unit * math.sqrt(0.49 * eps)))
    defect = symplecticity_defect(flow, 0.3 * u[:20])
    shell = unit[:3] * np.sqrt(eps * np.array([1.2, 1.5, 1.8]))[:len(unit), None]
    tangent = tangent_map_defect(h, shell)
    return {
        "which": which,
        "flow_error": err,
        "symplectic_defect": defect,
        "tangent_map_defect": tangent,
        "ode_rtol": ODE_RTOL,
        "tol": TWIST_TOL,
        "passed": err < TWIST_TOL and defect < TWIST_TOL and tangent < TWIST_TOL,
    }
