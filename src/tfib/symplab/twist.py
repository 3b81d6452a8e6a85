"""Hamiltonian twists: time-1 flows of cut-off Hamiltonians on C^2.

Flows integrate  udot_k = -dH/dy_k + i dH/dx_k  (the package convention)
with an adaptive embedded Runge-Kutta scheme (DOP853 at ``ODE_RTOL`` and
``ODE_ATOL``), batched over all requested start points.  A Hamiltonian
is a callable that carries its analytic gradient ``grad`` (shape (m, 2n)),
from which the field is read.  Symplecticity of the flow is checked by
integrating the variational equations d/dt J = D X_H J, which avoids
differencing the integrated map itself.  The field Jacobian D X_H is the
same row map applied to an analytic Hessian ``hess`` (shape
(m, 2n, 2n)), which both shipped Hamiltonians carry; only a Hamiltonian
without one falls back to the engine (``numerics.jacobian`` of the
field).  :func:`tangent_map_defect` checks J itself against the engine's
derivative of the time-1 map at a few points.
"""

from __future__ import annotations

import math

import numpy as np

from .. import numerics

#: DOP853 tolerances of the time-1 flow
ODE_RTOL = 1e-9
ODE_ATOL = 1e-12
#: DOP853 tolerances of the variational equations
VARIATIONAL_RTOL = 1e-11
VARIATIONAL_ATOL = 1e-13
#: a flowed point farther out than this fails the flow
MAX_RADIUS = 50.0


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
    """H = k(|u1|^2 + |u2|^2) H0 with k = 1 below eps and 0 above 2 eps."""
    if not eps > 0.0:
        raise ValueError(f"eps must be positive, got {eps}")

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
    h.eps = eps
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


def _time_one(h, u0):
    """The time-1 flow of ``h`` from the complex points ``u0`` (m, n)."""
    from scipy.integrate import solve_ivp

    u0 = np.atleast_2d(np.asarray(u0, dtype=complex))
    m, n = u0.shape
    y0 = numerics.c2r(u0).reshape(-1)

    def rhs(_t, y):
        u = numerics.r2c(y.reshape(m, 2 * n))
        return _field(h, u).reshape(-1)

    sol = solve_ivp(rhs, (0.0, 1.0), y0, method="DOP853",
                    rtol=ODE_RTOL, atol=ODE_ATOL)
    if not sol.success:
        raise RuntimeError(f"Hamiltonian flow integration failed: {sol.message}")
    out = numerics.r2c(sol.y[:, -1].reshape(m, 2 * n))
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
    from scipy.integrate import solve_ivp

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

    def rhs(_t, y):
        x = y[: m * d].reshape(m, d)
        jacs = y[m * d:].reshape(m, d, d)
        a = _symplectic_rows(hess(numerics.r2c(x))) if hess is not None \
            else numerics.jacobian(field, x)      # D X_H at each point
        return np.concatenate([field(x).reshape(-1), (a @ jacs).reshape(-1)])

    sol = solve_ivp(rhs, (0.0, 1.0), y0, method="DOP853",
                    rtol=VARIATIONAL_RTOL, atol=VARIATIONAL_ATOL)
    if not sol.success:
        raise RuntimeError(f"variational flow failed: {sol.message}")
    return sol.y[m * d:, -1].reshape(m, d, d)


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
    """
    points = np.atleast_2d(np.asarray(points, dtype=complex))
    differenced = numerics.jacobian(lambda x: numerics.c2r(_time_one(h, numerics.r2c(x))),
                                    numerics.c2r(points), step=1e-5)
    return float(np.max(np.abs(flow_jacobians(h, points) - differenced)))
