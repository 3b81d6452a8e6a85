"""Fibration models, Poisson commutation, reduction, amoeba, twists, smoothing."""

import hashlib
import math

import numpy as np
import pytest

from tfib import numerics
from tfib import symplab as sl
from tfib.report import canonical_json
from tfib.symplab import models, smoothing, twist


def test_make_model_ids():
    for mid in sl.MODEL_IDS:
        assert sl.make_model(mid).id == mid
    with pytest.raises(ValueError):
        sl.make_model("nope")


def test_sm_ff_value():
    m = sl.make_model("sm_ff")
    out = m(np.array([[1.0 + 0j, 1.0 + 0j]]))[0]
    assert np.allclose(out, [0.0, math.log(2.0)])


def test_positive_value_at_origin():
    m = sl.make_model("positive")
    assert np.allclose(m(np.array([[0j, 0j, 0j]]))[0], [0.0, 0.0, 0.0])


def test_gamma_branches_agree_on_seam():
    rng = np.random.default_rng(3)
    r = rng.uniform(0.3, 2.0, 200)
    a, b = rng.uniform(0, 2 * np.pi, (2, 200))
    z1, z2 = r * np.exp(1j * a), r * np.exp(1j * b)
    assert np.max(np.abs(z1 * z2 / np.abs(z1) - z1 * z2 / np.abs(z2))) < 1e-12


def test_amoeba_model_matches_leg_models_at_phi():
    m = sl.make_model("amoeba")
    z = np.array([[0.7 + 0.2j, 0.5 - 0.1j, 1.3 + 0.4j]])
    g = models.gamma(z[..., 0], z[..., 1])
    expected = np.stack([
        models.mu12(z),
        np.log(np.abs(g - z[..., 2]) / math.sqrt(2.0)),
        np.log(np.abs(g + z[..., 2] - math.sqrt(2.0)) / math.sqrt(2.0)),
    ], axis=-1)
    assert np.allclose(m(z), expected)


def test_poisson_smooth_models_commute():
    rng = np.random.default_rng(11)
    for mid in ("sm_ff", "positive", "generic"):
        m = sl.make_model(mid)
        z = sl.sample_domain(m, 300, rng, margin=0.1)
        assert sl.poisson_check(m, z) < 1e-6


@pytest.mark.parametrize("seed", [29, 34, 42])
def test_thin_legs_margin_covers_branch_switches(seed):
    """Seeds whose samples once straddled a sphere where phi_thin_legs
    switches branch (brackets 134, 51 and 331 before the margin knew them)."""
    m = sl.make_model("thin_legs")
    z = sl.sample_domain(m, 2000, np.random.default_rng(seed), margin=0.1)
    assert sl.poisson_check(m, z) < 1e-6


def _digest(value):
    return hashlib.sha256(canonical_json(value).encode()).hexdigest()


# SHA-256 of the canonical JSON of each result: the difference engine and
# the complex views it differentiates through must return these bit for bit
POISSON_DIGESTS = {
    "sm_ff": "9350c04f54b08977b89c1ccbb1b97d5b95dcdb4fcce8b771afc9861bf90d0156",
    "generic": "1b489ab986bceb0c84609f1b4d4777fa487e378c3dfa5bb0c3077072de509b72",
    "thin_legs": "4d62b490d7964a3011e9d058398f87cd9c13ace7cae36cfbcb1b2a3e1e83e4eb",
}


def test_poisson_check_keeps_its_pinned_digests():
    rng = np.random.default_rng(3)
    for mid in ("sm_ff", "generic", "thin_legs"):
        m = sl.make_model(mid)
        z = sl.sample_domain(m, 200, rng, margin=0.1)
        assert _digest(sl.poisson_check(m, z)) == POISSON_DIGESTS[mid]


def test_reduction_check_keeps_its_pinned_digest():
    pts = np.random.default_rng(5).uniform(-1.5, 1.5, (100, 4))
    s = pts[:, 0::2] + 1j * pts[:, 1::2]
    defects = [sl.reduction_check(0.0, s[np.abs(s[:, 0]) > 0.05])]
    defects += [sl.reduction_check(t, s) for t in (0.5, 1.0)]
    assert _digest(defects) == \
        "1efc4e6e2c9cfa544911f0a22a9c2995641154b869864f25184f8d070a9809f5"


def test_hamiltonian_field_keeps_its_pinned_digest():
    z = (np.random.default_rng(6).normal(size=(40, 2))
         + 1j * np.random.default_rng(7).normal(size=(40, 2)))
    field = numerics.hamiltonian_field(
        lambda u: np.abs(u[..., 0]) ** 2 * np.cos(u[..., 1].real)
        + (u[..., 0] * u[..., 1]).imag, z)
    assert _digest([field.real, field.imag]) == \
        "c6b8ca194303a2a6cf7606e5b7660fad44deb5431444834282977348d8279f0f"


def test_poisson_check_calls_the_map_once_per_displaced_copy():
    # 6 real coordinates x 4 displaced copies, one call each
    m = sl.make_model("generic")
    z = sl.sample_domain(m, 10, np.random.default_rng(2), margin=0.1)
    shapes, real_f = [], m.f
    m.f = lambda w: shapes.append(np.shape(w)) or real_f(w)
    sl.poisson_check(m, z)
    assert shapes == [(10, 3)] * 24


def test_poisson_control_model_fails():
    rng = np.random.default_rng(11)
    m = sl.make_model("control")
    z = sl.sample_domain(m, 300, rng, margin=0.1)
    assert sl.poisson_check(m, z) >= 1e-2


def test_poisson_rejects_samples_near_singularity():
    m = sl.make_model("sm_ff")
    bad = np.array([[1e-6 + 0j, 1e-6 + 0j]])
    with pytest.raises(ValueError):
        sl.poisson_check(m, bad)


def test_poisson_step_convergence():
    """Bracket estimates shrink as the step does (observed order >= 1)."""
    rng = np.random.default_rng(4)
    m = sl.make_model("generic")
    z = sl.sample_domain(m, 50, rng, margin=0.2)
    coarse = sl.poisson_check(m, z, step=1e-2)
    fine = sl.poisson_check(m, z, step=1e-3)
    assert fine < coarse / 2.0


def test_reduction_check_all_levels():
    rng = np.random.default_rng(5)
    pts = rng.uniform(-1.5, 1.5, (100, 4))
    samples = pts[:, 0::2] + 1j * pts[:, 1::2]
    safe = samples[np.abs(samples[:, 0]) > 0.05]
    assert sl.reduction_check(0.0, safe) < 1e-6
    for t in (0.5, 1.0):
        assert sl.reduction_check(t, samples) < 1e-6


def test_reduction_t0_rejects_singular_sample():
    with pytest.raises(ValueError):
        sl.reduction_check(0.0, np.array([[0j, 1.0 + 0j]]))


def test_gamma_t_at_zero_u1():
    out = sl.gamma_t(np.array([0j, 1 + 2j]), 1.0)
    assert np.allclose(out, [0j, 1 + 2j])


def test_gamma_t_inverse_roundtrip():
    rng = np.random.default_rng(8)
    u = rng.normal(size=(50, 2)) + 1j * rng.normal(size=(50, 2))
    for t in (0.0, 0.7):
        w = sl.gamma_t(u, t)
        back = sl.gamma_t_inverse(w, t)
        assert np.max(np.abs(back - u)) < 1e-12


def test_amoeba_membership_oracle():
    assert bool(sl.amoeba_membership(0.0, 0.0))
    assert not bool(sl.amoeba_membership(3.0, 0.0))
    # degenerate triangle: boundary points satisfy the closed test
    x = math.log(0.5)
    assert bool(sl.amoeba_membership(x, math.log(1.0 - 0.5)))


def test_amoeba_raster_matches_scalar_oracle():
    raster = sl.amoeba_raster(resolution=(60, 60))
    x1, x2 = raster.grid()
    for i in range(0, 60, 7):
        for j in range(0, 60, 7):
            assert raster.mask[i, j] == bool(sl.amoeba_membership(x1[i], x2[j]))
    assert len(raster.boundary) > 0


def test_amoeba_raster_boundary_near_analytic_curves():
    raster = sl.amoeba_raster(resolution=(200, 200))
    cell = 6.0 / 199.0
    for x1, x2 in raster.boundary[::17]:
        a, b = math.exp(x1), math.exp(x2)
        dist = min(abs(abs(a - b) - 1.0), abs(a + b - 1.0))
        # |d(edge fn)| <= ~ e^3 per unit step; one grid cell suffices
        assert dist < cell * (a + b + 1.0)


def test_discriminant_cloud_amoeba_inside_oracle():
    cloud = sl.discriminant_sample(sl.make_model("amoeba"))
    a = np.exp(cloud[:, 1])
    b = np.exp(cloud[:, 2])
    assert np.all(np.abs(a - b) <= 1.0 + 1e-9)
    assert np.all(a + b >= 1.0 - 1e-9)
    assert np.allclose(cloud[:, 0], 0.0)


def test_discriminant_cloud_leg_h_on_axis():
    cloud = sl.discriminant_sample(sl.make_model("leg_h"))
    assert np.max(np.abs(cloud[:, 2])) < 1e-12


def test_discriminant_thin_legs_pinched():
    model = sl.make_model("thin_legs")
    cloud, labels = sl.discriminant_sample(model, return_branches=True)
    horizontal = cloud[[i for i, l in enumerate(labels) if l == "horizontal_ball"]]
    assert len(horizontal) > 0
    assert np.max(np.abs(horizontal[:, 2])) < 1e-3
    diagonal = cloud[[i for i, l in enumerate(labels) if l == "diagonal_far"]]
    assert np.max(np.abs(diagonal[:, 1] - diagonal[:, 2])) < 1e-12
    # cloud sits inside the closed oracle amoeba
    a, b = np.exp(cloud[:, 1]), np.exp(cloud[:, 2])
    assert np.all(np.abs(a - b) <= 1.0 + 1e-9) and np.all(a + b >= 1.0 - 1e-9)


def _thin_legs_pointwise(u1, u2):
    """Reference: the branch label and Phi of the thin-legs model at one
    point, pinched at eps = 0.1 and M = 4."""
    n1, n2 = abs(u1) ** 2, abs(u2) ** 2
    if n1 + n2 <= 0.1:
        return "horizontal_ball", models.phi_leg_h(u1, u2)
    if n1 + abs(u2 - math.sqrt(2.0)) ** 2 <= 0.1:
        return "vertical_ball", models.phi_leg_v(u1, u2)
    if n2 >= 4.0:
        return "diagonal_far", models.phi_leg_d(u1, u2)
    return "amoeba", models.psi_amoeba(u1, u2)


def test_thin_legs_branch_and_phi_match_pointwise_reference():
    rng = np.random.default_rng(17)
    u = rng.normal(size=(3000, 2)) + 1j * rng.normal(size=(3000, 2))
    u[:1000, 1] += math.sqrt(2.0)
    u[1000:2000] *= 0.3
    labels = models.thin_legs_branch(u[:, 0], u[:, 1])
    v1, v2 = models.phi_thin_legs(u[:, 0], u[:, 1])
    ref = [_thin_legs_pointwise(a, b) for a, b in u]
    assert labels.tolist() == [label for label, _ in ref]
    assert set(labels.tolist()) == {"horizontal_ball", "vertical_ball",
                                    "diagonal_far", "amoeba"}
    assert np.array_equal(np.stack([v1, v2], axis=-1),
                          np.array([v for _, v in ref]))


def test_discriminant_requires_phi():
    with pytest.raises(ValueError):
        sl.discriminant_sample(sl.make_model("sm_ff"))


def test_twist_quarter_turn_closed_form():
    rng = np.random.default_rng(5)
    u = rng.normal(size=(100, 2)) + 1j * rng.normal(size=(100, 2))
    flow = sl.hamiltonian_twist(sl.h0_quarter_turn)
    c = 1.0 / math.sqrt(2.0)
    expected = np.stack([c * (u[:, 0] - u[:, 1]), c * (u[:, 0] + u[:, 1])], axis=-1)
    assert np.max(np.abs(flow(u) - expected)) < 1e-6


def test_twist_cutoff_identity_outside():
    eps = 0.1
    rng = np.random.default_rng(6)
    u = rng.normal(size=(50, 2)) + 1j * rng.normal(size=(50, 2))
    norms = np.sqrt(np.sum(np.abs(u) ** 2, axis=1))
    far = u / norms[:, None] * math.sqrt(4 * eps)  # |u|^2 = 4 eps >= 2 eps
    flow = sl.hamiltonian_twist(sl.cutoff_hamiltonian(eps))
    assert np.max(np.abs(flow(far) - far)) < 1e-6


def test_twist_cutoff_rotation_inside():
    eps = 0.1
    rng = np.random.default_rng(7)
    u = rng.normal(size=(50, 2)) + 1j * rng.normal(size=(50, 2))
    norms = np.sqrt(np.sum(np.abs(u) ** 2, axis=1))
    inner = u / norms[:, None] * math.sqrt(eps) * 0.7
    flow = sl.hamiltonian_twist(sl.cutoff_hamiltonian(eps))
    c = 1.0 / math.sqrt(2.0)
    expected = np.stack(
        [c * (inner[:, 0] - inner[:, 1]), c * (inner[:, 0] + inner[:, 1])], axis=-1
    )
    assert np.max(np.abs(flow(inner) - expected)) < 1e-6


def test_twist_jacobians_symplectic():
    rng = np.random.default_rng(8)
    u = rng.normal(size=(25, 2)) + 1j * rng.normal(size=(25, 2))
    flow = sl.hamiltonian_twist(sl.h0_quarter_turn)
    assert sl.symplecticity_defect(flow, u) < 1e-6
    cf = sl.hamiltonian_twist(sl.cutoff_hamiltonian(0.1))
    assert sl.symplecticity_defect(cf, 0.3 * u) < 1e-6


def test_cutoff_analytic_gradient_matches_fd():
    h = sl.cutoff_hamiltonian(0.1)
    rng = np.random.default_rng(9)
    u = 0.3 * (rng.normal(size=(30, 2)) + 1j * rng.normal(size=(30, 2)))
    fd = numerics.gradient(lambda x: h(numerics.r2c(x)), numerics.c2r(u), step=1e-5)
    assert np.max(np.abs(h.grad(u) - fd)) < 1e-8


@pytest.mark.parametrize("eps", [None, 0.05, 0.1, 0.3])
def test_flow_is_an_integral_curve_of_the_field(eps):
    """The quarter-turn H0 (eps None) and the cut-off Hamiltonians: the
    closed-form curves s -> phi_s(u) have velocity X_H from ``grad``."""
    h = sl.h0_quarter_turn if eps is None else sl.cutoff_hamiltonian(eps)
    eps = eps or 0.1
    rng = np.random.default_rng(10)
    u = rng.normal(size=(30, 2)) + 1j * rng.normal(size=(30, 2))
    unit = u / np.sqrt(np.sum(np.abs(u) ** 2, axis=1))[:, None]
    # |u|^2 inside (< eps), in the cut-off shell (eps..2 eps) and outside
    t = eps * np.concatenate([rng.uniform(0.05, 0.95, 10), rng.uniform(1.05, 1.95, 10),
                              rng.uniform(2.05, 3.0, 10)])
    u = unit * np.sqrt(t)[:, None]
    assert sl.integral_curve_defect(h, u) < 1e-10


def _jacobian_points():
    """The start points of ``test_twist_jacobians_symplectic``'s cut-off check."""
    rng = np.random.default_rng(8)
    return 0.3 * (rng.normal(size=(25, 2)) + 1j * rng.normal(size=(25, 2)))


def _shell_points(eps=0.1):
    """Three points in the cut-off shell eps < |u|^2 < 2 eps, where k' is
    live (a flow keeps |u|^2, so elsewhere a wrong phase changes nothing)."""
    u = _jacobian_points()[:3]
    unit = u / np.sqrt(np.sum(np.abs(u) ** 2, axis=1))[:, None]
    return unit * np.sqrt(eps * np.array([1.2, 1.5, 1.8]))[:, None]


# Reference cut-off derivatives, each term through numerics.cutoff,
# h0_quarter_turn and its own clip: the shipped grad, which shares one
# helper with the flow, must equal them bit for bit

def _reference_smoothstep7_prime(x):
    x = np.clip(x, 0.0, 1.0)
    return 140.0 * x**3 * (1.0 - x) ** 3


def _reference_h0_grad(u):
    u = np.atleast_2d(np.asarray(u, dtype=complex))
    x1, y1 = u[:, 0].real, u[:, 0].imag
    x2, y2 = u[:, 1].real, u[:, 1].imag
    c = math.pi / 4.0
    return np.stack([-c * y2, c * x2, c * y1, -c * x1], axis=-1)


def _reference_cutoff_grad(u, eps):
    u = np.atleast_2d(np.asarray(u, dtype=complex))
    t = np.abs(u[:, 0]) ** 2 + np.abs(u[:, 1]) ** 2
    k = numerics.cutoff(t, eps, 2.0 * eps)
    kp = -_reference_smoothstep7_prime((t - eps) / eps) / eps
    coords = numerics.c2r(u)
    h0 = sl.h0_quarter_turn(u)
    return (k[:, None] * _reference_h0_grad(u)
            + (kp * h0)[:, None] * 2.0 * coords)


@pytest.mark.parametrize("eps", [1e-10, 0.1, 2.5])
def test_cutoff_derivatives_equal_the_reference_formulas_bitwise(eps):
    """Over radii 0..2 sqrt(eps), the shell eps < |u|^2 < 2 eps densest;
    array_equal also takes -0.0 for 0.0."""
    rng = np.random.default_rng(12)
    u = rng.normal(size=(400, 2)) + 1j * rng.normal(size=(400, 2))
    unit = u / np.sqrt(np.sum(np.abs(u) ** 2, axis=1))[:, None]
    t = eps * np.concatenate([rng.uniform(0.0, 4.0, 200), rng.uniform(1.0, 2.0, 200),
                              [0.0, 1.0, 2.0, 4.0]])
    u = np.concatenate([unit, unit[:4]]) * np.sqrt(t)[:, None]
    h = sl.cutoff_hamiltonian(eps)
    assert np.array_equal(h.grad(u), _reference_cutoff_grad(u, eps))
    assert np.array_equal(sl.h0_quarter_turn.grad(u), _reference_h0_grad(u))


# Known-bad twists.  Each is a cut-off Hamiltonian H (eps 0.1 by default)
# whose flow or grad is wrong in one way:
#   radial_rotation  the flow drops its phase factor: u -> R(pi s k / 4) u
#   flipped_phase    the flow turns the phase the other way
#   half_angle_grad  grad is that of H / 2, the flow is still H's
# (``test_twist_strict_rejects_a_half_angle_cutoff`` in test_cli halves
# the flow too, which only the flow-error check can see).

def _reference_flow(u, s, eps, phase):
    """R(pi s k(t) / 4) e^{2i phase s H0 k'(t)} u, each term from the
    reference formulas; ``phase`` 1 is the cut-off flow."""
    u = np.atleast_2d(np.asarray(u, dtype=complex))
    t = np.abs(u[:, 0]) ** 2 + np.abs(u[:, 1]) ** 2
    k = numerics.cutoff(t, eps, 2.0 * eps)
    kp = -_reference_smoothstep7_prime((t - eps) / eps) / eps
    v = np.exp(2j * phase * s * sl.h0_quarter_turn(u) * kp)[:, None] * u
    c, sn = np.cos(math.pi / 4.0 * s * k), np.sin(math.pi / 4.0 * s * k)
    return np.stack([c * v[:, 0] - sn * v[:, 1], sn * v[:, 0] + c * v[:, 1]], axis=-1)


def _with_phase(phase, eps=0.1):
    h = sl.cutoff_hamiltonian(eps)
    h.flow = lambda u, s: _reference_flow(u, s, eps, phase)
    return h


def _half_angle(eps=0.1, flow_too=False):
    """H / 2 with grad halved; its flow is H's at half the time only when
    ``flow_too``."""
    real = sl.cutoff_hamiltonian(eps)
    h = lambda u: 0.5 * real(u)                           # noqa: E731
    h.grad = lambda u: 0.5 * real.grad(u)
    h.flow = (lambda u, s: real.flow(u, 0.5 * s)) if flow_too else real.flow
    return h


KNOWN_BAD = {
    "radial_rotation": lambda eps=0.1: _with_phase(0.0, eps),
    "flipped_phase": lambda eps=0.1: _with_phase(-1.0, eps),
    "half_angle_grad": _half_angle,
}


@pytest.mark.parametrize("phase", [1.0, 0.0, -1.0],
                         ids=["shipped", "radial_rotation", "flipped_phase"])
def test_integral_curve_defect_sees_a_wrong_phase(phase):
    assert (sl.integral_curve_defect(_with_phase(phase), _shell_points()) > 1e-6) \
        == (phase != 1.0)


@pytest.mark.parametrize("mutant", ["radial_rotation", "flipped_phase"])
def test_symplecticity_defect_sees_a_wrong_phase(mutant):
    bad = KNOWN_BAD[mutant]()
    assert sl.symplecticity_defect(sl.hamiltonian_twist(bad), _shell_points()) > 1e-6


def test_only_the_integral_curve_defect_sees_a_wrong_grad():
    # the flow is H's, so it is symplectic and fixes the far and inside
    # points; only the comparison with X_H from grad sees the halved field
    bad = _half_angle()
    u = np.concatenate([_jacobian_points(), _shell_points()])
    assert sl.symplecticity_defect(sl.hamiltonian_twist(bad), u) < 1e-6
    assert sl.integral_curve_defect(bad, _shell_points()) > 1e-6


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_twist_report_passes_the_cutoff_at_a_tiny_eps(seed):
    # both checks difference at the scale of each point, so the shell at
    # radius ~1e-5 reads as it does at radius 1
    rep = sl.twist_report("cutoff", 1e-10, 20, seed)
    assert rep["passed"] is True and rep["integral_curve_defect"] < 1e-10


def test_twist_checks_read_the_same_at_every_scale():
    ref = [sl.symplecticity_defect(sl.hamiltonian_twist(sl.cutoff_hamiltonian(0.1)),
                                   _shell_points()),
           sl.integral_curve_defect(sl.cutoff_hamiltonian(0.1), _shell_points())]
    for eps in (1e-6, 1e-12, 2.5):
        h, u = sl.cutoff_hamiltonian(eps), _shell_points(eps)
        assert sl.symplecticity_defect(sl.hamiltonian_twist(h), u) < 10.0 * ref[0]
        assert sl.integral_curve_defect(h, u) < 10.0 * ref[1]
        for mutant in KNOWN_BAD.values():
            assert sl.integral_curve_defect(mutant(eps), u) > 0.1


def test_symplecticity_defect_differences_the_closed_form(monkeypatch):
    # one engine Jacobian of the time-1 map; H and grad are not evaluated
    calls = []
    real = numerics.jacobian
    monkeypatch.setattr(numerics, "jacobian",
                        lambda *a, **kw: calls.append(1) or real(*a, **kw))
    for h in (sl.h0_quarter_turn, sl.cutoff_hamiltonian(0.1)):
        counted = lambda u: pytest.fail("H evaluated")          # noqa: E731
        counted.grad = lambda u: pytest.fail("grad evaluated")
        counted.flow = h.flow
        assert sl.symplecticity_defect(sl.hamiltonian_twist(counted),
                                       _jacobian_points()) < 1e-6
    assert len(calls) == 2


def _scipy_flow(h, u):
    """phi_1(u) of scipy's DOP853 on the field of ``h.grad``, one point at
    a time, at rtol 1e-12 and atol 1e-14 |u|."""
    from scipy.integrate import solve_ivp

    def rhs(_t, y):
        return numerics.field_of_gradient(h.grad(numerics.r2c(y[None, :])))[0]

    out = []
    for x in numerics.c2r(u):
        sol = solve_ivp(rhs, (0.0, 1.0), x, method="DOP853", rtol=1e-12,
                        atol=1e-14 * np.linalg.norm(x))
        assert sol.success
        out.append(sol.y[:, -1])
    return numerics.r2c(np.array(out))


def test_closed_form_twist_matches_solve_ivp():
    for eps in (0.1, 1e-6, 2.5):
        u = np.concatenate([_shell_points(eps), 0.7 * _shell_points(eps)])
        h = sl.cutoff_hamiltonian(eps)
        assert np.max(np.abs(sl.hamiltonian_twist(h)(u) - _scipy_flow(h, u))) \
            <= 1e-8 * math.sqrt(eps)
    u = _jacobian_points()[:3]
    assert np.max(np.abs(sl.hamiltonian_twist(sl.h0_quarter_turn)(u)
                         - _scipy_flow(sl.h0_quarter_turn, u))) <= 1e-10


def test_quarter_turn_flow_is_the_rotation_at_every_time():
    # X_H0 is linear, x' = A x, so phi_s = expm(s A) exactly
    from scipy.linalg import expm

    a = np.empty((4, 4))
    a[0::2], a[1::2] = -twist._H0_HESS[1::2], twist._H0_HESS[0::2]
    u = _jacobian_points()
    for s in (0.25, 1.0, 3.0, -2.0):
        want = numerics.r2c(numerics.c2r(u) @ expm(s * a).T)
        assert np.max(np.abs(sl.h0_quarter_turn.flow(u, s) - want)) <= 1e-14


def test_twist_without_a_closed_form_raises():
    h = sl.cutoff_hamiltonian(0.1)
    del h.flow
    with pytest.raises(ValueError, match="closed-form flow"):
        sl.hamiltonian_twist(h)


@pytest.mark.parametrize("eps", [0.0, -1.0, math.inf, math.nan, 1e-160])
def test_cutoff_hamiltonian_rejects_an_eps_without_a_normal_square(eps):
    with pytest.raises(ValueError):
        sl.cutoff_hamiltonian(eps)


def test_smoothing_sigma_zero_bitwise_unchanged():
    rng = np.random.default_rng(9)
    leg = sl.smoothing_one(sigma="zero")
    u1 = rng.uniform(-0.3, 0.3, 64) + 1j * rng.uniform(-0.3, 0.3, 64)
    t = rng.uniform(-0.05, 0.05, 64)
    s = rng.uniform(0, 0.05, 64)
    raw = np.log(np.abs(u1 / sl.rho_zero(np.abs(u1) ** 2, t) - 1.0))
    assert np.array_equal(leg.g(u1, t, s), raw)


def test_smoothing_sigma_one_smooth_across_seam():
    rng = np.random.default_rng(10)
    leg = sl.smoothing_one(sigma="one")
    u1 = rng.uniform(-0.3, 0.3, 100) + 1j * rng.uniform(-0.3, 0.3, 100)
    s = rng.uniform(0, 0.05, 100)
    assert smoothing.seam_derivative_jump(leg, u1, s) < 1e-4


def test_smoothing_kinked_profile_detected_by_jump():
    rng = np.random.default_rng(10)
    kinked = smoothing.SmoothedLeg(lambda r, t: sl.rho_zero(r, t) + 1.0, "one")
    u1 = rng.uniform(-0.3, 0.3, 100) + 1j * rng.uniform(-0.3, 0.3, 100)
    s = rng.uniform(0, 0.05, 100)
    assert smoothing.seam_derivative_jump(kinked, u1, s) > 1e-2


def test_smoothing_g_zero_at_origin():
    leg = sl.smoothing_one(sigma="bump")
    assert leg.g(np.array([0j]), 0.2, 0.01)[0] == 0.0


def test_smoothing_rejects_dominated_rho1():
    with pytest.raises(ValueError):
        sl.smoothing_one(rho1=lambda r, t: 0.5 * sl.rho_zero(r, t), sigma="one")


def test_smoothing_bump_matches_ends():
    """Blend equals rho0 outside S0 and rho1 inside S1."""
    leg = sl.smoothing_one(sigma="bump")
    r_out, s_out = 0.9, 0.9
    assert leg.rho(r_out, 0.02, s_out) == sl.rho_zero(r_out, 0.02)
    r_in, s_in = 1e-5, 1e-4
    assert leg.rho(r_in, 0.02, s_in) == smoothing.rho_one_smooth(r_in, 0.02)


def test_model_ids_literal_matches_the_builders():
    assert sl.MODEL_IDS == tuple(sorted(models._BUILDERS))


def test_sample_domain_reproducible():
    m = sl.make_model("generic")
    a = sl.sample_domain(m, 100, np.random.default_rng(42))
    b = sl.sample_domain(m, 100, np.random.default_rng(42))
    assert np.array_equal(a, b)


@pytest.mark.parametrize("mid", sl.MODEL_IDS)
def test_positive_margin_implies_finite_map(mid):
    """margin(z) > 0 is the domain test: f is finite wherever it holds.

    Uniform samples are mixed with points placed exactly on the poles of
    the models: a zero coordinate, z1 z2 = -1 or 1, z1 z2 z3 = -1, and, with
    z1 = 2 so that gamma(z1, z2) = z2, z3 in {z2, -z2, sqrt2 - z2, sqrt2}
    or z2 = +-1.
    """
    m = sl.make_model(mid)
    rng = np.random.default_rng(2024)
    raw = rng.uniform(-models.SAMPLE_BOX, models.SAMPLE_BOX, size=(10, 2000, 2 * m.n))
    z = raw[..., 0::2] + 1j * raw[..., 1::2]
    p = 2.0 ** rng.integers(-1, 2, size=2000)      # exact reciprocals
    z[0, :, 0] = 0.0
    z[1, :, -1] = 0.0
    z[2, :, 0], z[2, :, 1] = p, -1.0 / p
    z[3, :, 0], z[3, :, 1] = p, 1.0 / p
    z[4, :, :-1] = p[:, None]
    z[4, :, -1] = -1.0 / p ** (m.n - 1)
    z[5:, :, 0] = 2.0
    for row, w in enumerate((z[5, :, 1], -z[6, :, 1], math.sqrt(2.0) - z[7, :, 1],
                             math.sqrt(2.0)), 5):
        z[row, :, -1] = w
    z[9, :, 1] = rng.choice([-1.0, 1.0], size=2000)
    z = z.reshape(-1, m.n)
    inside = m.margin(z) > 0
    assert inside.sum() > 1000
    with np.errstate(divide="ignore", invalid="ignore"):
        assert np.all(np.isfinite(m.f(z[inside])))


def test_sample_domain_rejects_a_negative_margin():
    with pytest.raises(ValueError):
        sl.sample_domain(sl.make_model("sm_ff"), 10, np.random.default_rng(0),
                         margin=-0.1)


def test_reduction_identity_in_u2_at_zero():
    # at u1 = 0, t = 1 the map is the identity in u2 (denominator sqrt(2t))
    assert np.allclose(sl.gamma_t(np.array([0j, 0.7 - 0.2j]), 1.0),
                       [0j, 0.7 - 0.2j])
    assert sl.reduction_check(1.0, np.array([[0j, 0.7 - 0.2j]])) < 1e-6


def test_reduction_example_points():
    assert sl.reduction_check(0.0, np.array([[1.0 + 0j, 0.3 + 0.2j]])) < 1e-6
    assert sl.reduction_check(0.5, np.array([[0.5 + 0.1j, -0.4 + 0j]])) < 1e-6


def test_twist_quarter_turn_unit_point():
    flow = sl.hamiltonian_twist(sl.h0_quarter_turn)
    out = flow(np.array([[1.0 + 0j, 0j]]))[0]
    r = 1.0 / math.sqrt(2.0)
    assert np.max(np.abs(out - np.array([r, r]))) < 1e-6
