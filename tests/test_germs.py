"""Stitched invariants: discrepancy frames, integral conditions, deformations."""

import numpy as np
import pytest

from tfib import germs
from tfib.germs import (
    EllSequence,
    GermH,
    cycle_integrals,
    deform_by_cutoff,
    ell1_from_frames,
    fibrewise_closedness_defect,
    glue_leg_germs,
    integral_condition,
    is_fibrewise_constant,
    negative_table_condition,
    stitched_ff_ell1_sequence,
)


def _const_frames(ms):
    """Synthetic frames differing by sum m_j eta_1 at every point."""
    e1 = np.array([1.0 + 0j, -1.0 + 0j])

    def eta1(p):
        return e1

    def plus(j):
        return lambda p: np.array([0.5j, 1.0 + 0j]) + ms[j] * e1

    def minus(j):
        return lambda p: np.array([0.5j, 1.0 + 0j])

    return ([plus(j) for j in range(len(ms))],
            [minus(j) for j in range(len(ms))], eta1)


def test_ell1_equal_frames_vanish():
    plus, minus, eta1 = _const_frames([0, 0])
    coeffs = ell1_from_frames(plus, plus, eta1)
    pts = [np.array([0.3 + 0.1j, 0.3 - 0.1j])]
    for a in coeffs:
        assert abs(a(pts[0])) < 1e-10


def test_ell1_fake_stitched_constants():
    plus, minus, eta1 = _const_frames([2, -3])
    coeffs = ell1_from_frames(plus, minus, eta1)
    p = np.array([0.3 + 0.1j, 0.3 - 0.1j])
    assert abs(coeffs[0](p) - 2.0) < 1e-8
    assert abs(coeffs[1](p) + 3.0) < 1e-8


def test_ell1_rejects_transverse_discrepancy():
    e1 = np.array([1.0 + 0j, -1.0 + 0j])
    plus = [lambda p: np.array([1.0 + 0j, 1.0 + 0j])]
    minus = [lambda p: np.array([0j, 0j])]
    coeffs = ell1_from_frames(plus, minus, lambda p: e1)
    with pytest.raises(ValueError):
        coeffs[0](np.zeros(2))


def test_ell1_rejects_one_transverse_point_in_a_batch():
    e1 = np.array([1.0 + 0j, -1.0 + 0j])
    base_vec = np.array([0.5j, 1.0 + 0j])
    pts = np.zeros((8, 2), dtype=complex)
    pts[5, 0] = 1.0                         # the one point off the seam

    def plus(p):
        # parallel to eta_1 except where Re p_1 = 1, where it is transverse
        return base_vec + 2.0 * e1 + p[..., :1].real * np.array([1.0, 1.0])

    coeffs = ell1_from_frames([plus], [lambda p: base_vec], lambda p: e1)
    assert np.allclose(coeffs[0](np.delete(pts, 5, axis=0)), 2.0)
    with pytest.raises(ValueError):
        coeffs[0](pts)


def test_ell1_linear_in_discrepancy():
    plus1, minus, eta1 = _const_frames([1, 2])
    plus2, _, _ = _const_frames([2, 4])
    c1 = ell1_from_frames(plus1, minus, eta1)
    c2 = ell1_from_frames(plus2, minus, eta1)
    p = np.array([0.1 + 0.2j, -0.4 + 0j])
    for a1, a2 in zip(c1, c2):
        assert abs(a2(p) - 2.0 * a1(p)) < 1e-8


def test_stitched_ff_lower_seam_integral_is_one():
    seq = stitched_ff_ell1_sequence()
    report = integral_condition(seq, [1], base=-0.5, tol=1e-6)
    assert report.passed
    report = integral_condition(seq, [0], base=0.5, tol=1e-6)
    assert report.passed  # upper seam carries the zero class


def test_integral_condition_unit_class():
    seq = EllSequence.constant("test", [1.0, 0.0])
    assert integral_condition(seq, [1, 0]).passed
    assert not integral_condition(seq, [0, 0]).passed


def test_integral_condition_oscillating_coefficient():
    term = [
        lambda y, base=None: np.sin(2 * np.pi * y[..., 0]),
        lambda y, base=None: np.zeros(np.shape(y)[:-1]),
    ]
    seq = EllSequence("osc", 2, {1: term})
    assert integral_condition(seq, [0, 0]).passed


def test_negative_three_seam_table():
    seqs = {
        "c": EllSequence.constant("c", [0.0, 0.0]),
        "d": EllSequence.constant("d", [-1.0, 0.0]),
        "e": EllSequence.constant("e", [0.0, 1.0]),
    }
    reports = negative_table_condition(seqs, m1=-1, m2=1)
    assert all(r.passed for r in reports.values())
    with pytest.raises(ValueError):
        negative_table_condition({"c": seqs["c"]}, -1, 1)


def test_is_fibrewise_constant():
    assert is_fibrewise_constant(EllSequence.constant("k", [1.0]))
    assert is_fibrewise_constant(EllSequence("zero", 2, {}))
    wavy = EllSequence("w", 2, {1: [
        lambda y, base=None: 1.0 + np.cos(2 * np.pi * y[..., 1]),
        lambda y, base=None: np.zeros(np.shape(y)[:-1]),
    ]})
    assert not is_fibrewise_constant(wavy)


def test_fibrewise_closedness():
    closed = EllSequence("c", 2, {1: [
        lambda y, base=None: np.sin(2 * np.pi * y[..., 0]),
        lambda y, base=None: np.cos(2 * np.pi * y[..., 1]),
    ]})
    assert fibrewise_closedness_defect(closed) < 1e-8
    not_closed = EllSequence("n", 2, {1: [
        lambda y, base=None: np.sin(2 * np.pi * y[..., 1]),
        lambda y, base=None: np.zeros(np.shape(y)[:-1]),
    ]})
    assert fibrewise_closedness_defect(not_closed) > 1.0


def test_deform_scaling_identity_and_zero():
    seq = EllSequence.constant("k", [1.0, 2.0])
    same = deform_by_cutoff(seq, lambda b: 1.0)
    assert np.allclose(cycle_integrals(same), [1.0, 2.0])
    zero = deform_by_cutoff(seq, lambda b: 0.0, other=EllSequence("z", 2, {}))
    assert np.allclose(cycle_integrals(zero), [0.0, 0.0])


def test_deform_interpolation_preserves_class():
    wavy = EllSequence("w", 1, {1: [
        lambda y, base=None: 1.0 + np.sin(2 * np.pi * y[..., 0]),
    ]})
    flat = EllSequence.constant("f", [1.0])
    for rho_val in (0.0, 0.3, 0.8, 1.0):
        mixed = deform_by_cutoff(wavy, lambda b, v=rho_val: v, other=flat)
        assert abs(cycle_integrals(mixed)[0] - 1.0) < 1e-9
        assert fibrewise_closedness_defect(mixed) < 1e-8


def test_deform_scaling_support():
    seq = EllSequence.constant("k", [1.0])
    scaled = deform_by_cutoff(seq, lambda b: 0.0 if b is None else float(b))
    assert cycle_integrals(scaled, base=0.0)[0] == 0.0
    assert abs(cycle_integrals(scaled, base=0.7)[0] - 0.7) < 1e-12


def test_deform_evaluates_the_cutoff_only_with_the_terms():
    calls = []

    def rho(base):
        calls.append(base)
        if base is None:
            raise KeyError("no base point")
        return 0.5

    deformed = deform_by_cutoff(EllSequence.constant("k", [1.0]), rho)
    assert calls == []
    assert abs(cycle_integrals(deformed, base=0.2)[0] - 0.5) < 1e-12
    with pytest.raises(KeyError):
        cycle_integrals(deformed)


def test_negative_table_invariant_under_interpolation():
    """Interpolating toward the fake-stitched representative keeps the table."""
    # class (-1, 0) plus the exact wiggle d[sin(2 pi y1) sin(2 pi y2)]/(2 pi)
    wavy_d = EllSequence("d", 2, {1: [
        lambda y, base=None: -1.0 + np.cos(2 * np.pi * y[..., 0])
        * np.sin(2 * np.pi * y[..., 1]),
        lambda y, base=None: np.sin(2 * np.pi * y[..., 0])
        * np.cos(2 * np.pi * y[..., 1]),
    ]})
    fake_d = EllSequence.constant("d", [-1.0, 0.0])
    for rho_val in (0.0, 0.5, 1.0):
        mixed = deform_by_cutoff(wavy_d, lambda b, v=rho_val: v, other=fake_d)
        assert integral_condition(mixed, [-1, 0]).passed
        assert fibrewise_closedness_defect(mixed) < 1e-7


def _zero(r):
    return np.zeros_like(np.asarray(r, dtype=float))


def _one(r):
    return np.ones_like(np.asarray(r, dtype=float))


def test_glue_identical_inputs():
    tau = lambda r: 0.1 * np.asarray(r, dtype=float) ** 2 * 0.0
    g = GermH((-1.0, 0.5), 2, {(0, 0): _zero, (1, 1): _one})
    g2 = GermH((-0.5, 1.0), 2, {(0, 0): _zero, (1, 1): _one})
    out = glue_leg_germs(g, g2, _zero)
    r = np.linspace(-0.9, 0.9, 21)
    assert np.allclose(out.coefficient(1, 1)(r), 1.0)
    assert np.allclose(out.coefficient(0, 0)(r), 0.0)


def test_glue_blends_h10():
    gl = GermH((-1.0, 0.5), 2, {(0, 0): _zero, (1, 0): _one})
    gr = GermH((-0.5, 1.0), 2, {(0, 0): _zero, (1, 0): _zero})
    out = glue_leg_germs(gl, gr, _zero, delta=0.25)
    h10 = out.coefficient(1, 0)
    assert h10(np.array([-0.5]))[0] == 1.0
    assert h10(np.array([0.5]))[0] == 0.0
    mid = h10(np.array([0.0]))[0]
    assert 0.0 < mid < 1.0
    # restriction to the shrunk end intervals equals the inputs
    left = np.linspace(-0.9, -0.3, 13)
    assert np.array_equal(h10(left), gl.coefficient(1, 0)(left))


def test_glue_zero_order_mismatch_rejected():
    gl = GermH((-1.0, 0.5), 2, {(0, 0): _one})
    gr = GermH((-0.5, 1.0), 2, {(0, 0): _zero})
    with pytest.raises(ValueError):
        glue_leg_germs(gl, gr, _zero)


def test_glue_disjoint_inputs_rejected():
    gl = GermH((-1.0, -0.5), 2, {(0, 0): _zero})
    gr = GermH((0.5, 1.0), 2, {(0, 0): _zero})
    with pytest.raises(ValueError):
        glue_leg_germs(gl, gr, _zero)

