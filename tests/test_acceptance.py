"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
verdict lines.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np

from tfib import affine, cli, germs, symplab, topo, zlat
from tfib.periods import (
    action_chart,
    action_extension_check,
    closed_form_frame,
    monodromy_from_frame,
    numeric_periods,
    positive_a0,
)
from tfib.symplab import smoothing


@contextmanager
def criterion(number, description, budget=None):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number:2d} ({description}): FAIL")
        raise
    elapsed = time.time() - start
    note = f" [{elapsed:.2f}s]"
    print(f"[acceptance] criterion {number:2d} ({description}): PASS{note}")
    if budget is not None:
        assert elapsed < budget, f"criterion {number} exceeded {budget}s budget"


def _cli_json(tmp_path, *argv, name="report.json"):
    out = tmp_path / name
    code = cli.main([*argv, "--out", str(out)])
    return code, json.loads(out.read_text())


def test_criterion_1_k3_base(tmp_path):
    with criterion(1, "K3 base: 24 nodes and Euler number 24", budget=1.0):
        code, data = _cli_json(tmp_path, "graph", "k3", name="k3.json")
        assert code == 0
        assert data["vertices"] == 24
        code, euler = _cli_json(tmp_path, "topo", "euler",
                                "--input", str(tmp_path / "k3.json"))
        assert code == 0
        assert euler["euler"] == 24


def test_criterion_2_quintic_base(tmp_path):
    with criterion(2, "quintic base counts, connectivity, Euler, dual",
                   budget=5.0):
        code, data = _cli_json(tmp_path, "graph", "quintic")
        assert code == 0
        assert data["positive"] == 50
        assert data["negative"] == 250
        assert data["edges"] == 450
        assert data["components"] == 1
        assert data["euler"] == -200
        assert all(v["valence"] == 3 for v in data["graph"]["vertices"])
        code, dual = _cli_json(tmp_path, "graph", "quintic", "--dual")
        assert code == 0 and dual["euler"] == 200


def test_criterion_3_monodromy_algebra():
    with criterion(3, "triple products exact, signs from fixed subspaces"):
        t1, t2, t3 = zlat.NEGATIVE_TRIPLE
        assert zlat.mat_mul(zlat.mat_mul(t1, t2), t3) == zlat.identity(3)
        p1, p2, p3 = zlat.POSITIVE_TRIPLE
        assert zlat.mat_mul(zlat.mat_mul(p1, p2), p3) == zlat.identity(3)
        assert topo.sign_from_triple(zlat.NEGATIVE_TRIPLE) == "negative"
        assert topo.sign_from_triple(zlat.POSITIVE_TRIPLE) == "positive"
        assert zlat.fixed_space_dimension(list(zlat.NEGATIVE_TRIPLE)) == 1
        assert zlat.fixed_space_dimension(list(zlat.POSITIVE_TRIPLE)) == 2


def test_criterion_4_simplicity():
    with criterion(4, "check_simple accepts the local models, rejects T^2"):
        for kind, tau in (("node", None), ("edge", None),
                          ("edge", affine.Polynomial([0, 0, 1])),
                          ("positive", None), ("negative", None)):
            rep = affine.check_simple(affine.build_local_model(kind, tau))
            assert rep.simple
            assert rep.verdicts[0].matched_model == kind
            assert rep.verdicts[0].conjugator is not None
        from test_affine import doctored_node_model
        rep = affine.check_simple(doctored_node_model())
        assert not rep.simple


def test_criterion_5_poisson():
    with criterion(5, "Poisson commutation < 1e-6; control >= 1e-2",
                   budget=10.0):
        rng = np.random.default_rng(2024)
        for mid in ("sm_ff", "positive", "generic"):
            model = symplab.make_model(mid)
            z = symplab.sample_domain(model, 1000, rng, margin=0.1)
            assert symplab.poisson_check(model, z, step=1e-4) < 1e-6, mid
        control = symplab.make_model("control")
        z = symplab.sample_domain(control, 1000, rng, margin=0.1)
        assert symplab.poisson_check(control, z, step=1e-4) >= 1e-2


def test_criterion_6_reduction():
    with criterion(6, "Gamma_t pullback defect < 1e-6 at t in {0, 0.5, 1}",
                   budget=5.0):
        rng = np.random.default_rng(7)
        pts = rng.uniform(-1.5, 1.5, size=(100, 4))
        samples = pts[:, 0::2] + 1j * pts[:, 1::2]
        for t in (0.0, 0.5, 1.0):
            use = samples[np.abs(samples[:, 0]) > 0.05] if t == 0.0 else samples
            assert symplab.reduction_check(t, use) < 1e-6, t


def test_criterion_7_amoeba():
    with criterion(7, "raster/oracle agreement; thin-legs cloud in amoeba",
                   budget=10.0):
        raster = symplab.amoeba_raster((-3.0, 3.0, -3.0, 3.0), (200, 200))
        x1, x2 = raster.grid()
        g1, g2 = np.meshgrid(x1, x2, indexing="ij")
        oracle = symplab.amoeba_membership(g1, g2)
        assert np.array_equal(raster.mask, oracle)
        model = symplab.make_model("thin_legs")
        cloud, labels = symplab.discriminant_sample(model, return_branches=True)
        a, b = np.exp(cloud[:, 1]), np.exp(cloud[:, 2])
        assert np.all(np.abs(a - b) <= 1.0 + 1e-9)
        assert np.all(a + b >= 1.0 - 1e-9)
        horizontal = cloud[[i for i, l in enumerate(labels)
                            if l == "horizontal_ball"]]
        assert len(horizontal) > 0
        assert np.max(np.abs(horizontal[:, 2])) < 1e-3


def test_criterion_8_twists():
    with criterion(8, "quarter-turn flow, cut-off identity, symplectic J, integral curves"):
        rng = np.random.default_rng(99)
        u = rng.normal(size=(100, 2)) + 1j * rng.normal(size=(100, 2))
        flow = symplab.hamiltonian_twist(symplab.h0_quarter_turn)
        c = 1.0 / math.sqrt(2.0)
        expected = np.stack(
            [c * (u[:, 0] - u[:, 1]), c * (u[:, 0] + u[:, 1])], axis=-1)
        assert np.max(np.abs(flow(u) - expected)) < 1e-6
        eps = 0.1
        cut = symplab.hamiltonian_twist(symplab.cutoff_hamiltonian(eps))
        norms = np.sqrt(np.sum(np.abs(u) ** 2, axis=1))
        far = u / norms[:, None] * math.sqrt(2.0 * eps)
        assert np.max(np.abs(cut(far) - far)) < 1e-6
        assert symplab.symplecticity_defect(flow, u[:25]) < 1e-6
        assert symplab.symplecticity_defect(cut, 0.3 * u[:25]) < 1e-6
        # the closed form's curves are integral curves of X_H in the shell
        shell = u[:5] / norms[:5, None] * math.sqrt(1.5 * eps)
        assert symplab.integral_curve_defect(cut.hamiltonian, shell) < 1e-6


def test_criterion_9_periods_monodromy():
    with criterion(9, "frame monodromies and numeric periods", budget=30.0):
        ff = closed_form_frame("focus_focus")
        gen = closed_form_frame("generic")
        pos = closed_form_frame("positive")
        for radius in (0.1, 1.0):
            assert monodromy_from_frame(ff, ff.loops["loop"](radius)) \
                == zlat.T_NODE
            assert monodromy_from_frame(
                gen, gen.loops["loop"](radius, b3=0.3)) == zlat.T_GENERIC
            triple = tuple(
                monodromy_from_frame(pos, pos.loops[g](radius))
                for g in ("g1", "g2", "g3")
            )
            assert triple == zlat.POSITIVE_TRIPLE
        res = numeric_periods(symplab.make_model("sm_ff"), [0.2, 0.4])
        assert np.allclose(res.covectors["s1_orbit"], [0.0, 2 * math.pi],
                           atol=1e-4)
        res = numeric_periods(symplab.make_model("generic"), [0.15, 0.3, -0.2])
        assert np.allclose(res.covectors["e3"], [0, 0, 1], atol=1e-4)
        assert np.allclose(res.covectors["s1_orbit"], [0, 2 * math.pi, 0],
                           atol=1e-4)
        b = [0.3, -0.2, -0.15]
        res = numeric_periods(symplab.make_model("thin_legs"), b)
        for name, idx, want in (("red_v1", 1, -math.exp(2 * b[1])),
                                ("red_v2", 2, -math.exp(2 * b[2]))):
            assert abs(res.covectors[name][idx] - want) < 0.01 * abs(want)


def test_criterion_10_action_extension():
    with criterion(10, "chart limits and the odd correction a0"):
        ff = action_chart("focus_focus")
        rep = action_extension_check(ff, lambda s: [(1 - s) * 0.5, 0.0])
        assert abs(rep.limit) < 1e-4
        rng = np.random.default_rng(5)
        pts = rng.uniform(-1.0, 1.0, size=(100, 3))
        worst = max(
            abs(positive_a0(b) + positive_a0([-b[0], b[1], b[2]]))
            for b in pts
        )
        assert worst < 1e-6
        gen = action_chart("generic", h=lambda b: b[2])
        for t0 in (0.4, 0.8):
            rep = action_extension_check(
                gen, lambda s, t0=t0: [(1 - s) * 0.3, (1 - s) * 0.2,
                                       t0 + (1 - s) * 0.1])
            assert abs(rep.limit - t0) < 1e-4


def test_criterion_11_stitched_invariants():
    with criterion(11, "ell_1 frames, integral table, cut-off deformation"):
        e1 = np.array([1.0 + 0j, -1.0 + 0j])
        base_vec = np.array([0.5j, 1.0 + 0j])
        minus = [lambda p: base_vec, lambda p: base_vec]
        equal = germs.ell1_from_frames(minus, minus, lambda p: e1)
        p0 = np.zeros(2)
        assert all(abs(a(p0)) < 1e-10 for a in equal)
        plus = [lambda p, m=m: base_vec + m * e1 for m in (2, -3)]
        fake = germs.ell1_from_frames(plus, minus, lambda p: e1)
        assert abs(fake[0](p0) - 2.0) < 1e-8
        assert abs(fake[1](p0) + 3.0) < 1e-8
        seq = germs.stitched_ff_ell1_sequence()
        assert germs.integral_condition(seq, [1], base=-0.5, tol=1e-6).passed
        table = germs.negative_table_condition({
            "c": germs.EllSequence.constant("c", [0.0, 0.0]),
            "d": germs.EllSequence.constant("d", [-1.0, 0.0]),
            "e": germs.EllSequence.constant("e", [0.0, 1.0]),
        }, m1=-1, m2=1)
        assert all(r.passed for r in table.values())
        wavy = germs.EllSequence("w", 2, {1: [
            lambda y, base=None: -1.0 + np.cos(2 * np.pi * y[..., 0])
            * np.sin(2 * np.pi * y[..., 1]),
            lambda y, base=None: np.sin(2 * np.pi * y[..., 0])
            * np.cos(2 * np.pi * y[..., 1]),
        ]})
        fake_seq = germs.EllSequence.constant("d", [-1.0, 0.0])
        for rho in (0.0, 0.5, 1.0):
            mixed = germs.deform_by_cutoff(wavy, lambda b, v=rho: v,
                                           other=fake_seq)
            assert germs.integral_condition(mixed, [-1, 0], tol=1e-6).passed
            assert germs.fibrewise_closedness_defect(mixed) < 1e-6


def test_criterion_12_smoothing_one():
    with criterion(12, "Smoothing I: seam derivatives agree; sigma=0 bitwise"):
        rng = np.random.default_rng(31)
        u1 = rng.uniform(-0.3, 0.3, 100) + 1j * rng.uniform(-0.3, 0.3, 100)
        s = rng.uniform(0.0, 0.05, 100)
        # rho1 = rho0 + 1 along the smooth branch sqrt(t + sqrt(t^2 + r)) + 1
        leg = symplab.smoothing_one(rho1=smoothing.rho_one_smooth, sigma="one")
        assert smoothing.seam_derivative_jump(leg, u1, s) < 1e-4
        unchanged = symplab.smoothing_one(sigma="zero")
        t = rng.uniform(-0.05, 0.05, 100)
        raw = np.log(np.abs(u1 / symplab.rho_zero(np.abs(u1) ** 2, t) - 1.0))
        assert np.array_equal(unchanged.g(u1, t, s), raw)


def test_criterion_13_reproducibility(tmp_path):
    with criterion(13, "seeded runs produce byte-identical JSON"):
        for argv in (
            ["graph", "quintic"],
            ["fib", "poisson", "--model", "generic", "--samples", "200",
             "--seed", "5"],
            ["fib", "twist", "--which", "h0", "--seed", "8"],
        ):
            a = tmp_path / "a.json"
            b = tmp_path / "b.json"
            assert cli.main([*argv, "--out", str(a)]) == 0
            assert cli.main([*argv, "--out", str(b)]) == 0
            assert a.read_bytes() == b.read_bytes()
