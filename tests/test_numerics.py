"""The finite-difference engine and the doubling quadrature."""

import pathlib

import numpy as np
import pytest

from tfib import numerics

import reference_kernels as ref


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


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64).tolist()


# signed zeros, infinities, a nan, subnormals and the extremes of the range
_SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2e-308,
            1.7976931348623157e308, -1.0, 0.1, -3.5]


def test_r2c_is_the_exact_inverse_of_c2r():
    vals = np.array(_SPECIAL)
    x = np.stack(np.meshgrid(vals, vals), axis=-1).reshape(-1, 4)   # (72, 4)
    with np.errstate(all="raise"):
        z = numerics.r2c(x)
        assert z.shape == (72, 2)
        assert _bits(numerics.c2r(z)) == _bits(x)
        assert _bits(numerics.r2c(numerics.c2r(z))) == _bits(z)
        # a non-contiguous input: every other row, and a transposed copy
        assert _bits(numerics.c2r(numerics.r2c(x[::2]))) == _bits(x[::2])
        xt = np.asfortranarray(x)
        assert _bits(numerics.c2r(numerics.r2c(xt))) == _bits(x)


def test_r2c_keeps_an_infinite_part_and_a_negative_zero():
    with np.errstate(all="raise"):       # no invalid-value warning either
        z = numerics.r2c([0.0, np.inf])
    assert z[0].real == 0.0 and z[0].imag == np.inf
    z = numerics.r2c([1.0, -0.0])
    assert np.signbit(z[0].imag) and z[0].real == 1.0


@pytest.mark.parametrize("shape", [(3,), (2, 5), (4, 0, 1)])
def test_r2c_rejects_an_odd_last_axis(shape):
    with pytest.raises(ValueError):
        numerics.r2c(np.ones(shape))


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
    h = numerics.fd_step(x).T
    xs = np.array([numerics.displaced(x, k, h[k]) for k in range(3)])
    assert xs.shape == (3, 4, 7, 3) and h.shape == (3, 7)
    for f in (_scalar, _vector):
        assert np.array_equal(numerics.richardson(f(xs), h), numerics.jacobian(f, x))


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


def test_displaced_equals_its_stacked_reference_bit_for_bit():
    rng = np.random.default_rng(8)
    x = rng.uniform(-3.0, 3.0, size=(5, 4))
    x[0] = [0.0, -0.0, 5e-324, 1e300]
    for pts in (x, x[1], x.reshape(5, 2, 2)[:, 0], x[:0]):
        h = numerics.fd_step(pts)
        for k in range(pts.shape[-1]):
            got = numerics.displaced(pts, k, h[..., k])
            want = ref.displaced(pts, k, h[..., k])
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
