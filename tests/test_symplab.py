"""Fibration models, Poisson commutation, reduction, amoeba, twists, smoothing."""

import math

import numpy as np
import pytest

from tfib import numerics
from tfib import symplab as sl
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
def test_analytic_hessian_matches_fd(eps):
    """The quarter-turn H0 (eps None) and the cut-off Hamiltonians."""
    h = sl.h0_quarter_turn if eps is None else sl.cutoff_hamiltonian(eps)
    eps = eps or 0.1
    rng = np.random.default_rng(10)
    u = rng.normal(size=(30, 2)) + 1j * rng.normal(size=(30, 2))
    unit = u / np.sqrt(np.sum(np.abs(u) ** 2, axis=1))[:, None]
    # |u|^2 inside (< eps), in the cut-off shell (eps..2 eps) and outside
    t = eps * np.concatenate([rng.uniform(0.05, 0.95, 10), rng.uniform(1.05, 1.95, 10),
                              rng.uniform(2.05, 3.0, 10)])
    u = unit * np.sqrt(t)[:, None]
    hess = h.hess(u)
    fd = numerics.jacobian(lambda x: h.grad(numerics.r2c(x)), numerics.c2r(u))
    assert hess.shape == (30, 4, 4)
    assert np.array_equal(hess, np.swapaxes(hess, 1, 2))
    assert np.max(np.abs(hess - fd)) < 1e-8 * np.max(np.abs(hess))


def _jacobian_points():
    """The start points of ``test_twist_jacobians_symplectic``'s cut-off check."""
    rng = np.random.default_rng(8)
    return 0.3 * (rng.normal(size=(25, 2)) + 1j * rng.normal(size=(25, 2)))


def _cutoff_with_hess(hess):
    h = sl.cutoff_hamiltonian(0.1)
    good = h.hess
    h.hess = lambda u: hess(good, u)
    return h


def _kp_kpp(u, eps=0.1):
    t = np.sum(np.abs(np.atleast_2d(u)) ** 2, axis=1)
    s = (t - eps) / eps
    return (-twist._smoothstep7_prime(s) / eps, -twist._smoothstep7_second(s) / eps**2)


def _x_g0(u):
    u = np.atleast_2d(u)
    return numerics.c2r(u)[:, :, None] * twist._h0_grad(u)[:, None, :]


def test_symplecticity_defect_sees_an_asymmetric_hessian():
    # only one half of the symmetric k' outer product 2k'(x g0^T + g0 x^T):
    # D X_H is no longer Hamiltonian, so the tangent maps stop being symplectic
    bad = _cutoff_with_hess(lambda good, u: good(u)
                            - (2.0 * _kp_kpp(u)[0])[:, None, None] * _x_g0(u))
    assert sl.symplecticity_defect(sl.hamiltonian_twist(bad), _jacobian_points()) > 1e-6


def _drop_kpp(good, u):
    kpp = _kp_kpp(u)[1]
    x = numerics.c2r(np.atleast_2d(u))
    return good(u) - (4.0 * kpp * sl.h0_quarter_turn(u))[:, None, None] \
        * x[:, :, None] * x[:, None, :]


def _flip_kp(good, u):
    kp = _kp_kpp(u)[0]
    xg = _x_g0(u)
    return good(u) - (4.0 * kp)[:, None, None] * (xg + np.swapaxes(xg, 1, 2)) \
        - (4.0 * kp * sl.h0_quarter_turn(u))[:, None, None] * np.eye(4)


@pytest.mark.parametrize("mutant", [_drop_kpp, _flip_kp])
def test_tangent_maps_see_a_wrong_symmetric_hessian(mutant):
    # any symmetric Hessian makes D X_H Hamiltonian, so the variational flow
    # stays symplectic; the engine fallback is what exposes the wrong term
    u = _jacobian_points()
    bad = _cutoff_with_hess(mutant)
    assert sl.symplecticity_defect(sl.hamiltonian_twist(bad), u) < 1e-6
    engine = sl.cutoff_hamiltonian(0.1)
    del engine.hess
    assert np.max(np.abs(twist.flow_jacobians(bad, u)
                         - twist.flow_jacobians(engine, u))) > 1e-6


def _shell_points():
    """Three points in the cut-off shell 0.1 < |u|^2 < 0.2, where k' and k''
    are live (a flow keeps |u|^2, so elsewhere a wrong k' or k'' changes
    nothing)."""
    u = _jacobian_points()[:3]
    unit = u / np.sqrt(np.sum(np.abs(u) ** 2, axis=1))[:, None]
    return unit * np.sqrt(0.1 * np.array([1.2, 1.5, 1.8]))[:, None]


@pytest.mark.parametrize("mutant", [None, _drop_kpp, _flip_kp])
def test_tangent_map_defect_sees_a_wrong_symmetric_hessian(mutant):
    h = sl.cutoff_hamiltonian(0.1) if mutant is None else _cutoff_with_hess(mutant)
    assert (sl.tangent_map_defect(h, _shell_points()) > 1e-6) == (mutant is not None)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_twist_report_passes_the_cutoff_at_a_tiny_eps(seed):
    # the flows' absolute tolerances shrink with the radius of their start
    # points, so the shell at radius ~1e-5 is flowed as accurately as at 1
    rep = sl.twist_report("cutoff", 1e-10, 20, seed)
    assert rep["passed"] is True and rep["tangent_map_defect"] < 2e-7


def test_twist_tolerances_scale_with_the_start_points(monkeypatch):
    _, solves = _recorded_solves(monkeypatch)
    flow = sl.hamiltonian_twist(sl.h0_quarter_turn)
    flow(np.array([[0.5j, 0.0]]))
    flow(np.array([[3.0, 4.0]]))
    flow(np.zeros((2, 2)))
    assert [args[3] for args in solves] == [0.5 * twist.ODE_ATOL] + [twist.ODE_ATOL] * 2


def test_analytic_tangent_maps_match_the_engine_fallback():
    u = _jacobian_points()
    engine = sl.cutoff_hamiltonian(0.1)
    del engine.hess
    assert np.max(np.abs(twist.flow_jacobians(sl.cutoff_hamiltonian(0.1), u)
                         - twist.flow_jacobians(engine, u))) <= 1e-8


def test_symplecticity_defect_takes_no_engine_jacobian(monkeypatch):
    calls = []
    real = numerics.jacobian

    def counted(*a, **kw):
        calls.append(1)
        return real(*a, **kw)

    monkeypatch.setattr(numerics, "jacobian", counted)
    u = _jacobian_points()
    for h in (sl.h0_quarter_turn, sl.cutoff_hamiltonian(0.1)):
        sl.symplecticity_defect(sl.hamiltonian_twist(h), u)
    assert calls == []


def _recorded_solves(monkeypatch):
    """The real ``numerics.dop853`` and a list that gets the arguments of
    every call the twist layer makes to it."""
    real, solves = numerics.dop853, []
    monkeypatch.setattr(numerics, "dop853", lambda *args: solves.append(args) or real(*args))
    return real, solves


def test_twist_solves_take_the_steps_of_solve_ivp(monkeypatch):
    from scipy.integrate import solve_ivp

    real, solves = _recorded_solves(monkeypatch)
    for h in (sl.h0_quarter_turn, sl.cutoff_hamiltonian(0.1)):
        sl.hamiltonian_twist(h)(_shell_points())
        twist.flow_jacobians(h, _jacobian_points())
    assert len(solves) == 4
    for fun, y0, rtol, atol in solves:
        calls = []
        ours = real(lambda y: calls.append(1) or fun(y), y0, rtol, atol)
        ref = solve_ivp(lambda _t, y: fun(y), (0.0, 1.0), y0, method="DOP853",
                        rtol=rtol, atol=atol)
        assert len(calls) == ref.nfev
        assert np.max(np.abs(ours - ref.y[:, -1])) <= 1e-13


def test_tangent_map_defect_flows_its_stencil_in_one_solve(monkeypatch):
    _, solves = _recorded_solves(monkeypatch)
    sl.tangent_map_defect(sl.cutoff_hamiltonian(0.1), _shell_points())
    # 3 points x 4 coordinates x 4 displacements, 4 real coordinates each;
    # then the variational flow of the 3 points
    assert [args[1].size for args in solves] == [3 * 4 * 4 * 4, 3 * (4 + 16)]


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
