"""The finite-difference engine and the doubling quadrature."""

import pathlib

import numpy as np
import pytest

from tfib import numerics


def _scalar(x):
    # +, -, * and / only: a batch and a single point round identically
    return x[..., 0] * x[..., 1] * x[..., 2] - x[..., 1] / (1.0 + x[..., 2] * x[..., 2])


def _vector(x):
    return np.stack([x[..., 0] * x[..., 1], x[..., 2] - x[..., 0] * x[..., 0] * x[..., 0]],
                    axis=-1)


def test_batched_jacobian_equals_stacked_points_bitwise():
    x = np.random.default_rng(1).uniform(-3.0, 3.0, size=(40, 3))
    for f in (_scalar, _vector):
        batched = numerics.jacobian(f, x)
        stacked = np.stack([numerics.jacobian(f, p) for p in x])
        assert np.array_equal(batched, stacked)
    assert np.array_equal(numerics.gradient(_scalar, x), numerics.jacobian(_scalar, x))


def test_jacobian_matches_analytic_derivatives():
    def f(x):
        return np.sin(x[..., 0]) * np.exp(x[..., 1]) + x[..., 0] * x[..., 2] ** 3

    def df(x):
        return np.stack([np.cos(x[..., 0]) * np.exp(x[..., 1]) + x[..., 2] ** 3,
                         np.sin(x[..., 0]) * np.exp(x[..., 1]),
                         3.0 * x[..., 0] * x[..., 2] ** 2], axis=-1)

    def g(x):
        return np.stack([x[..., 0] * x[..., 1], np.cos(x[..., 2]), x[..., 1] ** 2], axis=-1)

    def dg(x):
        zero = np.zeros_like(x[..., 0])
        return np.stack([
            np.stack([x[..., 1], x[..., 0], zero], axis=-1),
            np.stack([zero, zero, -np.sin(x[..., 2])], axis=-1),
            np.stack([zero, 2.0 * x[..., 1], zero], axis=-1),
        ], axis=-2)

    x = np.random.default_rng(2).uniform(-2.0, 2.0, size=(5, 4, 3))
    for point in (x[0, 0], x):
        grad = numerics.jacobian(f, point)
        jac = numerics.jacobian(g, point)
        assert grad.shape == point.shape
        assert jac.shape == point.shape[:-1] + (3, 3)
        assert np.max(np.abs(grad - df(point))) < 1e-8
        assert np.max(np.abs(jac - dg(point))) < 1e-8


def test_hamiltonian_field_of_the_moment_map_rotates():
    # (|z1|^2 - |z2|^2)/2 generates (e^{it} z1, e^{-it} z2): X = (i z1, -i z2)
    rng = np.random.default_rng(3)
    z = rng.normal(size=(6, 2)) + 1j * rng.normal(size=(6, 2))

    def mu(w):
        return (np.abs(w[..., 0]) ** 2 - np.abs(w[..., 1]) ** 2) / 2.0

    field = numerics.hamiltonian_field(mu, z)
    assert field.shape == z.shape
    assert np.max(np.abs(field - np.stack([1j * z[:, 0], -1j * z[:, 1]], axis=-1))) < 1e-8
    assert np.array_equal(numerics.hamiltonian_field(mu, z[2]), field[2])


def test_periodic_quadrature_reuses_the_even_nodes():
    s = np.arange(64) / 64
    mean, err = numerics.periodic_quadrature(np.stack([np.cos(2 * np.pi * s) ** 2,
                                                       np.ones_like(s)], axis=-1))
    assert np.allclose(mean, [0.5, 1.0]) and err < 1e-14
    # cos(2 pi 32 s) aliases to 1 on the 32 even nodes and -1 on the odd ones
    mean, err = numerics.periodic_quadrature(np.cos(2 * np.pi * 32 * s))
    assert abs(mean) < 1e-12 and abs(err - 1.0) < 1e-12


def test_richardson_combination_lives_only_in_numerics():
    src = pathlib.Path(numerics.__file__).parent
    holders = sorted(str(p.relative_to(src)) for p in src.rglob("*.py")
                     if "4.0 * d2 - d1" in p.read_text())
    assert holders == ["numerics.py"]


def test_whole_stencil_in_one_call_equals_jacobian_bitwise():
    x = np.random.default_rng(4).uniform(-3.0, 3.0, size=(7, 3))
    xs, h = numerics.stencil(x)
    assert xs.shape == (3, 4, 7, 3) and h.shape == (3, 7)
    for f in (_scalar, _vector):
        assert np.array_equal(numerics.richardson(f(xs), h), numerics.jacobian(f, x))


def test_dop853_table_satisfies_the_order_conditions():
    a, b, c = numerics._DOP_A, numerics._DOP_B, numerics._DOP_C
    assert np.max(np.abs(a.sum(axis=1) - c)) < 1e-14
    assert not np.any(np.triu(a))
    for k in range(8):
        assert abs(b @ c**k - 1.0 / (k + 1)) < 1e-14, k
    # the embedded 5th- and 3rd-order rules: their differences from B
    # integrate polynomials of degree 4 and 2 exactly
    for k in range(5):
        assert abs(numerics._DOP_E5 @ c**k) < 1e-14, k
    for k in range(3):
        assert abs(numerics._DOP_E3 @ c**k) < 1e-14, k


def test_dop853_integrates_a_rotation():
    # y' = (-y1, y0): the time-1 flow is the rotation by 1 radian
    y = numerics.dop853(lambda y: np.array([-y[1], y[0]]), [1.0, 0.5], 1e-12, 1e-14)
    want = [np.cos(1.0) - 0.5 * np.sin(1.0), np.sin(1.0) + 0.5 * np.cos(1.0)]
    assert np.max(np.abs(y - want)) < 1e-11


def test_dop853_stops_at_once_on_a_non_finite_error_or_a_blow_up():
    calls = []

    def nan_field(y):
        calls.append(1)
        return y * np.nan if len(calls) > 2 else y

    with pytest.raises(RuntimeError, match="error estimate"):
        numerics.dop853(nan_field, [1.0], 1e-9, 1e-12)
    assert len(calls) == 2 + 12
    # y' = y^2 from y(0) = 2 blows up at t = 1/2
    with pytest.raises(RuntimeError):
        numerics.dop853(lambda y: y * y, [2.0], 1e-9, 1e-12)


def test_half_line_quadrature_known_integrals():
    cases = [
        (lambda t: 1.0 / (1.0 + t * t), 1.0, np.pi / 2.0),
        (lambda t: np.exp(-t), 1.0, 1.0),
        (lambda t: 1.0 / (np.sqrt(t) * (1.0 + t)), 1.0, np.pi),
        (lambda t: 1.0 / (1e-6 + t) ** 2, 1e-3, 1e6),
    ]
    for f, scale, want in cases:
        value, err = numerics.half_line_quadrature(f, scale, 1e-10)
        assert abs(value - want) <= 1e-12 * want and err <= 1e-10 * want


def test_half_line_quadrature_refuses_a_jump():
    with pytest.raises(ValueError, match="did not converge"):
        numerics.half_line_quadrature(lambda t: (t < 1.0) * 1.0, 1.0, 1e-10)
