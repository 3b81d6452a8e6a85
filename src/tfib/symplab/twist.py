"""Hamiltonian twists: time-1 flows of cut-off Hamiltonians on C^2.

Flows integrate  udot_k = -dH/dy_k + i dH/dx_k  (the package convention)
with an adaptive embedded Runge-Kutta scheme (DOP853, rtol 1e-9), batched
over all requested start points.  The gradient of a supplied Hamiltonian
comes from the package's derivative engine ``numerics.gradient`` unless
the Hamiltonian object provides an analytic ``grad``; symplecticity of the
flow is checked by integrating the variational equations, whose field
Jacobian D X_H also comes from the engine (``numerics.jacobian``), which
avoids differencing the integrated map itself.
"""

from __future__ import annotations

import math

import numpy as np

from .. import numerics


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


h0_quarter_turn.grad = _h0_grad


def _smoothstep7_prime(x):
    x = np.clip(x, 0.0, 1.0)
    return 140.0 * x**3 * (1.0 - x) ** 3


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

    h.grad = grad
    h.eps = eps
    return h


def _field(h, u):
    """X_H on a batch, from the analytic gradient when available."""
    grad = getattr(h, "grad", None)
    g = grad(u) if grad is not None else numerics.gradient(
        lambda x: h(numerics.r2c(x)), numerics.c2r(u), step=1e-5)
    gx = g[:, 0::2]
    gy = g[:, 1::2]
    out = np.empty_like(g)
    out[:, 0::2] = -gy
    out[:, 1::2] = gx
    return out


def hamiltonian_twist(h, time=1.0, rtol=1e-9, atol=1e-12, max_radius=50.0):
    """Time-``time`` Hamiltonian flow of ``h`` as a batched symplectomorphism.

    Returns a callable mapping an array (m, 2) of complex points to the
    flowed points.  Raises if the integrator fails or a trajectory escapes
    ``max_radius``.
    """

    def flow(u0):
        from scipy.integrate import solve_ivp

        u0 = np.atleast_2d(np.asarray(u0, dtype=complex))
        m, n = u0.shape
        y0 = numerics.c2r(u0).reshape(-1)

        def rhs(_t, y):
            u = numerics.r2c(y.reshape(m, 2 * n))
            return _field(h, u).reshape(-1)

        sol = solve_ivp(rhs, (0.0, time), y0, method="DOP853",
                        rtol=rtol, atol=atol)
        if not sol.success:
            raise RuntimeError(f"Hamiltonian flow integration failed: {sol.message}")
        out = numerics.r2c(sol.y[:, -1].reshape(m, 2 * n))
        if np.any(np.abs(out) > max_radius):
            raise RuntimeError("Hamiltonian flow left the sampled region")
        return out

    flow.hamiltonian = h
    flow.time = time
    return flow


def flow_jacobians(h, points, time=1.0, rtol=1e-11, atol=1e-13):
    """Tangent maps of the time-``time`` flow via the variational equations."""
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

    def rhs(_t, y):
        x = y[: m * d].reshape(m, d)
        jacs = y[m * d:].reshape(m, d, d)
        a = numerics.jacobian(field, x)      # D X_H at each point
        dj = np.einsum("mij,mjk->mik", a, jacs).reshape(-1)
        return np.concatenate([field(x).reshape(-1), dj])

    sol = solve_ivp(rhs, (0.0, time), y0, method="DOP853", rtol=rtol, atol=atol)
    if not sol.success:
        raise RuntimeError(f"variational flow failed: {sol.message}")
    return sol.y[m * d:, -1].reshape(m, d, d)


def symplecticity_defect(flow, points):
    """max |J^t Omega J - Omega| over the points, J from variational flow."""
    h = getattr(flow, "hamiltonian", None)
    if h is None:
        raise ValueError("flow does not expose its Hamiltonian")
    points = np.atleast_2d(np.asarray(points, dtype=complex))
    n = points.shape[1]
    omega = numerics.omega_matrix(n)
    jacs = flow_jacobians(h, points, time=getattr(flow, "time", 1.0))
    worst = 0.0
    for jac in jacs:
        worst = max(worst, float(np.max(np.abs(jac.T @ omega @ jac - omega))))
    return worst
