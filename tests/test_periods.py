"""Period frames, numeric periods, exact monodromy, action extension."""

import hashlib
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from tfib import symplab as sl
from tfib import zlat
from tfib.periods import (
    action_chart,
    action_extension_check,
    closed_form_frame,
    closedness_defect,
    monodromy_from_frame,
    numeric_periods,
    positive_a0,
)
from tfib.periods.extension import A0_QUAD_TOL, psi_focus_focus
from tfib.periods.frames import FrameForm, PeriodFrame
from tfib.report import canonical_json
from tfib.periods.numeric import CYCLE_POINTS
from tfib.symplab import models
from tfib.symplab.models import hl_modulus, thin_legs_lift
from tfib import numerics

import reference_kernels as ref


FRAME_KINDS = ["focus_focus", "generic", "positive", "thin_leg_slice"]


def test_focus_focus_frame_forms():
    frame = closed_form_frame("focus_focus")
    lam2 = frame.forms[1].covector(np.array([0.3, 0.4]))
    assert np.allclose(lam2, [0.0, 2.0 * math.pi])


def test_generic_frame_l3_is_db3():
    frame = closed_form_frame("generic")
    lam3 = frame.forms[2].covector(np.array([0.3, 0.4, -0.7]))
    assert np.allclose(lam3, [0.0, 0.0, 1.0])


def test_thin_leg_slice_frame_coefficient():
    frame = closed_form_frame("thin_leg_slice")
    lam2 = frame.forms[1].covector(np.array([0.0, 0.0, 0.3]))
    assert np.isclose(lam2[1], -1.0)  # coefficient of db2 at b2 = 0
    lam3 = frame.forms[2].covector(np.array([0.0, 0.0, 0.3]))
    assert np.isclose(lam3[2], -math.exp(0.6))


def test_frames_closed():
    rng = np.random.default_rng(1)
    ff = closed_form_frame("focus_focus")
    pts2 = np.stack([rng.uniform(0.3, 1.0, 20), rng.uniform(0.2, 0.8, 20)], axis=-1)
    assert closedness_defect(ff, pts2) < 1e-6
    pos = closed_form_frame("positive")
    pts3 = np.stack([
        rng.uniform(0.5, 1.0, 15),
        rng.uniform(0.4, 0.9, 15),
        rng.uniform(-0.9, -0.4, 15),
    ], axis=-1)
    assert closedness_defect(pos, pts3) < 1e-6


def test_monodromy_focus_focus_radii_two_orders():
    frame = closed_form_frame("focus_focus")
    for r in (0.01, 0.1, 1.0):
        assert monodromy_from_frame(frame, frame.loops["loop"](r)) == zlat.T_NODE


def test_monodromy_generic():
    frame = closed_form_frame("generic")
    for r in (0.1, 1.0):
        loop = frame.loops["loop"](r, b3=0.4)
        assert monodromy_from_frame(frame, loop) == zlat.T_GENERIC


def test_monodromy_positive_triple():
    frame = closed_form_frame("positive")
    for r in (0.1, 1.0):
        got = tuple(
            monodromy_from_frame(frame, frame.loops[g](r))
            for g in ("g1", "g2", "g3")
        )
        assert got == zlat.POSITIVE_TRIPLE


@pytest.mark.xfail(strict=True, reason="ROADMAP item 13")
@pytest.mark.parametrize("centre, u, v", [
    ((0, 0, 2), (1, 0, 0), (0, 1, 0)),
    ((0, 2, 0), (1, 0, 0), (0, 0, 1)),
    ((0, -2, -2), (1, 0, 0), (0, math.sqrt(0.5), -math.sqrt(0.5))),
])
def test_monodromy_positive_non_leg_loops_are_trivial(centre, u, v):
    # radius-1/2 circles whose discs miss the three legs: each loop is
    # trivial in the legs' complement, but the frame's kernels are singular
    # on whole lines, so today they return the leg matrices g1, g2 and g3
    loop = (centre, [0.5 * x for x in u], [0.5 * x for x in v])
    assert monodromy_from_frame(closed_form_frame("positive"), loop) == zlat.identity(3)


def test_monodromy_trivial_loop():
    frame = closed_form_frame("focus_focus")
    point = ([0.5, 0.2], [0.0, 0.0], [0.0, 0.0])  # a radius-0 circle
    assert monodromy_from_frame(frame, point) == zlat.identity(2)


def test_monodromy_rejects_loop_through_discriminant():
    frame = closed_form_frame("focus_focus")
    for centre in (-0.5, 0.5):  # circles through the node
        with pytest.raises(ValueError, match="singular line"):
            monodromy_from_frame(frame, off_centre_loop(centre))


def off_centre_loop(centre):
    """Anticlockwise radius-0.5 circle about (centre, 0); it passes the
    focus-focus node at distance 0.5 - |centre|."""
    return ([centre, 0.0], [0.5, 0.0], [0.0, 0.5])


def test_monodromy_of_a_loop_that_grazes_the_node():
    frame = closed_form_frame("focus_focus")
    assert monodromy_from_frame(frame, off_centre_loop(0.4999)) == zlat.T_NODE


def test_monodromy_at_distance_1e_9_from_the_node():
    """The winding test is exact, so the node may be as close as the
    floats allow, inside the loop or outside it."""
    frame = closed_form_frame("focus_focus")
    for centre, want in ((0.5 - 1e-9, zlat.T_NODE), (0.5 + 1e-9, zlat.identity(2))):
        gap = abs(Fraction(centre) - Fraction(1, 2))
        assert Fraction(9, 10**10) < gap < Fraction(11, 10**10)
        assert monodromy_from_frame(frame, off_centre_loop(centre)) == want


def test_monodromy_of_degenerate_segments():
    """u and v parallel: the loop sweeps a segment, which winds round
    nothing and must not contain the node."""
    frame = closed_form_frame("focus_focus")
    along = ([0.5, 0.0], [0.25, 0.0])
    assert monodromy_from_frame(frame, ([0.0, 0.3], *along)) == zlat.identity(2)
    assert monodromy_from_frame(frame, ([0.6, 0.0], *along)) == zlat.identity(2)
    with pytest.raises(ValueError, match="singular line"):
        monodromy_from_frame(frame, ([0.1, 0.0], *along))
    with pytest.raises(ValueError, match="singular line"):
        monodromy_from_frame(frame, ([0.0, 0.0], [0.0, 0.0], [0.0, 0.0]))


def _sampled_winding(ax, ay, c, u, v, n=1 << 16):
    """Winding of (ax . b, ay . b) about 0 along the circle, by adding up
    the principal angle increments of n samples; also the least |(x, y)|."""
    t = np.linspace(0.0, 2.0 * math.pi, n + 1)
    b = c + np.cos(t)[:, None] * u + np.sin(t)[:, None] * v
    x, y = b @ ax, b @ ay
    step = np.diff(np.arctan2(y, x))
    step -= 2.0 * math.pi * np.round(step / (2.0 * math.pi))
    return round(float(np.sum(step)) / (2.0 * math.pi)), float(np.min(np.hypot(x, y)))


@pytest.mark.parametrize("kind", ["focus_focus", "generic", "positive"])
def test_monodromy_of_random_circles_matches_sampled_windings(kind):
    """Off-centre circles with coordinates in (1/64) Z, at least 1e-3 from
    every kernel's singular line, against the windings counted on samples."""
    frame = closed_form_frame(kind)
    period_form = {form.const[1]: j for j, form in enumerate(frame.forms)
                   if form.const is not None and form.const[0] == 1}
    rng = np.random.default_rng(16)
    seen = []
    while len(seen) < 12:
        c, u, v = (rng.integers(-64, 65, size=frame.dim) / 64.0 for _ in range(3))
        want = [list(row) for row in zlat.identity(frame.dim)]
        near = False
        for i, form in enumerate(frame.forms):
            for coeff, ax, ay in zip(form.coeff, form.ax, form.ay):
                w, gap = _sampled_winding(ax, ay, c, u, v)
                near = near or gap < 1e-3
                for axis in np.flatnonzero(ay):
                    want[period_form[axis]][i] += int(coeff * w * ay[axis])
        if near:
            continue
        assert monodromy_from_frame(frame, (c, u, v)) == zlat.mat(want)
        seen.append(zlat.mat(want))
    assert len(set(seen)) > 1  # some circles wind round a singular line


def _integer_winding(ax, ay, loop):
    from tfib.periods import monodromy

    (ix,), (iy,) = monodromy._integers([ax]), monodromy._integers([ay])
    return monodromy._winding(ix, iy, *monodromy._integers(loop))


def _winding_or_error(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


def _kernels(frame):
    return [(ax, ay) for form in frame.forms for ax, ay in zip(form.ax, form.ay)]


@pytest.mark.parametrize("kind", ["focus_focus", "generic", "positive", "thin_leg_slice"])
def test_integer_winding_equals_the_fraction_winding(kind):
    """Every kernel of every frame, round each of its loops at seeded radii
    (and seeded heights b3 on the generic loop), round circles through a
    singular line, and round loops with subnormal and huge entries."""
    frame = closed_form_frame(kind)
    rng = np.random.default_rng(41)
    loops = []
    for make in frame.loops.values():
        for radius in rng.uniform(0.01, 3.0, 6):
            kw = {"b3": float(rng.uniform(-1.0, 1.0))} if kind == "generic" else {}
            loops.append(make(float(radius), **kw))
    d = frame.dim
    e = np.eye(d)
    loops += [
        (0.5 * e[0], 0.5 * e[0], 0.5 * e[1]),             # through 0 of (b1, b2)
        (0.3 * e[1], e[0] - e[1], 2.0 * (e[0] - e[1])),   # a degenerate segment
        (np.full(d, 5e-324), 5e-324 * e[0], 5e-324 * e[1]),
        (np.full(d, 1e300), 1e300 * e[0], 3e299 * e[1]),
        (np.zeros(d), 1e-310 * e[0], 1e300 * e[1]),
    ]
    loops += [tuple(rng.integers(-4, 5, size=(3, d)) / 4.0) for _ in range(40)]
    checked = errors = 0
    for loop in loops:
        for ax, ay in _kernels(frame) + [(e[0], e[1]), (e[0], e[0])]:
            want = _winding_or_error(ref.winding, ax, ay, *loop)
            assert _winding_or_error(_integer_winding, ax, ay, loop) == want
            checked += 1
            errors += isinstance(want, tuple)
    assert checked >= 90 and errors > 0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_non_finite_loop_entry_raises_as_the_fraction_winding_did(bad):
    with pytest.raises((ValueError, OverflowError)) as fraction_error:
        Fraction(bad)
    frame = closed_form_frame("focus_focus")
    c, u, v = frame.loops["loop"](0.5)
    for loop in ((np.array([bad, 0.0]), u, v), (c, u, np.array([0.0, bad]))):
        with pytest.raises(fraction_error.type):
            monodromy_from_frame(frame, loop)


def curled_frame(d):
    """A one-form frame whose form is b1 db2: its curl is 1 everywhere."""
    e2 = np.eye(d)[1]
    form = FrameForm(np.zeros(0), np.zeros((0, d)), np.zeros((0, d)),
                     lambda b: b[..., :1] * e2)
    return PeriodFrame("curled", d, [form])


def test_closedness_defect_sees_a_curl():
    pts = np.random.default_rng(2).uniform(0.3, 0.7, size=(10, 3))
    assert closedness_defect(curled_frame(3), pts) > 0.5


def branch_interior_points(kind, n=50, seed=4):
    """n seeded base points away from every kernel's angle cut and singular
    line: b1 >= 0.2 keeps each kernel's x = b1 positive."""
    d = 2 if kind == "focus_focus" else 3
    pts = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(n, d))
    pts[:, 0] = 0.2 + np.abs(pts[:, 0])
    return pts


@pytest.mark.parametrize("kind", FRAME_KINDS)
def test_batched_covector_matches_single_points(kind):
    frame = closed_form_frame(kind)
    pts = branch_interior_points(kind)
    for form in frame.forms:
        batched = form.covector(pts)
        assert batched.shape == pts.shape
        single = np.stack([form.covector(p) for p in pts])
        assert np.array_equal(batched, single)


@pytest.mark.parametrize("kind", FRAME_KINDS)
def test_batched_matrix_matches_single_points(kind):
    frame = closed_form_frame(kind)
    pts = branch_interior_points(kind)
    batched = frame.matrix_at(pts)
    assert batched.shape == (len(pts), len(frame.forms), frame.dim)
    single = np.stack([frame.matrix_at(p) for p in pts])
    assert np.array_equal(batched, single)


def test_numeric_periods_sm_ff_orbit():
    model = sl.make_model("sm_ff")
    res = numeric_periods(model, [0.2, 0.4])
    assert np.allclose(res.covectors["s1_orbit"], [0.0, 2.0 * math.pi], atol=1e-4)
    assert res.fibre_defect < 1e-7


def test_numeric_periods_generic():
    model = sl.make_model("generic")
    for b in ([0.15, 0.3, -0.2], [-0.1, 0.1, 0.25]):
        res = numeric_periods(model, b)
        assert np.allclose(res.covectors["e3"], [0.0, 0.0, 1.0], atol=1e-4)
        assert np.allclose(
            res.covectors["s1_orbit"], [0.0, 2.0 * math.pi, 0.0], atol=1e-4
        )


def test_numeric_periods_thin_leg_slice():
    model = sl.make_model("thin_legs")
    b = [0.3, -0.2, -0.15]
    res = numeric_periods(model, b)
    want2 = -math.exp(2 * b[1])
    want3 = -math.exp(2 * b[2])
    assert abs(res.covectors["red_v1"][1] - want2) < 0.01 * abs(want2)
    assert abs(res.covectors["red_v2"][2] - want3) < 0.01 * abs(want3)
    # cross coefficients vanish
    assert abs(res.covectors["red_v1"][2]) < 1e-6
    assert abs(res.covectors["red_v2"][1]) < 1e-6


# SHA-256 of the canonical JSON of each result: however the quadrature
# batches its stencil evaluations, it must return these results bit for bit
PERIOD_DIGESTS = {
    ("sm_ff", (0.2, 0.4)):
        "5c53013abc0167b506691554ed16be2e905cb86d933e1e7b771b604c9887fa0a",
    ("sm_ff", (0.23, 0.36)):
        "f1340707445746c66f2943aaa3a2d47d67396ac81a951a92f557628b46dacf81",
    ("generic", (0.15, 0.3, -0.2)):
        "958338196a41dcd50eb6370a84afc91199963fbce0ce0f4e09a79a805f690b1f",
    ("generic", (-0.1, 0.1, 0.25)):
        "c4e8772a0a0b5cafe21c7239c4a908e3c13b327a07d30899961fa8327e8dd870",
    ("positive", (0.3, 0.2, -0.4)):
        "95dfa44a4f5d5f6fb5bcf97f49ce0123aaecd730e26a034eec6d86dd4ad034fa",
    ("positive", (0.27, 0.23, -0.36)):
        "5685a3a23ecf84a227a2532bfec32fe38f9da4441edad2b1b033dd76c2f9a628",
    ("thin_legs", (0.3, -0.2, -0.15)):
        "92498b155e68d8a7acad49f3edb279b9b1c61a1532bc2c253ce6d43e45075b7c",
    ("thin_legs", (0.33, -0.17, -0.12)):
        "e79c1c4cba57e9fbccd0aa31e6bc2629a4f901450b3224f938f55941cadb0e8e",
}


@pytest.mark.parametrize("mid, b", sorted(PERIOD_DIGESTS))
def test_numeric_periods_keep_their_pinned_digests(mid, b):
    res = numeric_periods(sl.make_model(mid), list(b))
    text = canonical_json({"covectors": res.covectors, "errors": res.errors,
                           "fibre_defect": res.fibre_defect})
    assert hashlib.sha256(text.encode()).hexdigest() == PERIOD_DIGESTS[mid, b]


def test_numeric_periods_evaluate_each_stencil_in_one_call():
    """Per cycle of thin_legs: model.f once at the nodes and once per real
    coordinate on its four displaced copies (1 + 2n = 7 calls), and the
    cycle once at the nodes and once on its whole stencil."""
    model = sl.make_model("thin_legs")
    f_shapes, cyc_shapes = [], []
    real_f = model.f
    model.f = lambda z: f_shapes.append(np.shape(z)) or real_f(z)

    def counted(builder):
        def build(z0):
            cyc, norm = builder(z0)
            return (lambda s: cyc_shapes.append(np.shape(s)) or cyc(s)), norm
        return build

    model.cycles = {name: counted(b) for name, b in model.cycles.items()}
    numeric_periods(model, [0.3, -0.2, -0.15])
    m, cycles = CYCLE_POINTS, len(model.cycles)
    assert f_shapes == ([(m, 3)] + [(4, m, 3)] * 6) * cycles
    assert cyc_shapes == [(m,), (4, m)] * cycles


@pytest.mark.parametrize("w, leg", [
    ((0.1, 0.1), "horizontal_ball"),
    ((0.1, math.sqrt(2.0) + 0.1), "vertical_ball"),
    ((0.5, 2.5), "diagonal_far"),
    ((1.0, 0.5), None),
])
def test_thin_legs_lift_accepts_only_the_plain_amoeba_branch(w, leg):
    """The lift raises for a point of each leg branch of Phi and lifts a
    plain-amoeba point onto its fibre."""
    assert models.thin_legs_branch(*w) == (leg or "amoeba")
    v = np.array(models.psi_amoeba(*w), dtype=complex)      # Phi at w, amoeba branch
    if leg is not None:
        with pytest.raises(ValueError, match="plain-amoeba branch"):
            thin_legs_lift(v, 0.3)
        with pytest.raises(ValueError, match="plain-amoeba branch"):
            thin_legs_lift(np.stack([np.array(models.psi_amoeba(1.0, 0.5)), v]), 0.3)
        return
    z = thin_legs_lift(v, 0.3)
    model = sl.make_model("thin_legs")
    assert np.allclose(model.f(z), [0.3, np.log(abs(v[0])), np.log(abs(v[1]))])


def test_numeric_periods_rejects_bad_cycle():
    model = sl.make_model("thin_legs")
    with pytest.raises(ValueError):
        # base point whose torus leaves the plain-amoeba branch
        numeric_periods(model, [0.3, 0.05, 0.1])


def test_ff_chart_derivative_matches_frame():
    """d psi equals the assigned period form l1 above the cut, and l1 + l2
    below it, where arg on (0, 2 pi) exceeds the kernel's principal angle
    by 2 pi."""
    frame = closed_form_frame("focus_focus")
    chart = action_chart("focus_focus")
    for b, shift in (([0.4, 0.1], 0), ([-0.3, 0.2], 0), ([0.1, -0.5], 1)):
        grad = numerics.jacobian(psi_focus_focus, np.array(b))
        lam1 = frame.forms[0].covector(np.array(b))
        lam2 = frame.forms[1].covector(np.array(b))
        assert np.allclose(grad[0], lam1 + shift * lam2, atol=1e-6)
        assert np.allclose(grad[1], lam2, atol=1e-9)
    assert chart(np.array([0.4, 0.1]))[1] == pytest.approx(2 * math.pi * 0.1)


def test_every_action_chart_adds_its_correction():
    b = np.array([0.4, 0.1, -0.2])
    ff = action_chart("focus_focus", h=lambda b: 1.0)(b[:2])
    assert ff[0] == psi_focus_focus(b[:2])[0] + 1.0 and ff[1] == 2 * math.pi * 0.1
    generic = action_chart("generic", h=lambda b: b[2])(b)
    assert list(generic) == [psi_focus_focus(b)[0] - 0.2, 2 * math.pi * 0.1, -0.2]
    positive = action_chart("positive")(b)
    assert list(positive) == [positive_a0(b), 2 * math.pi * 0.1, 2 * math.pi * -0.2]
    with pytest.raises(ValueError, match="no action chart"):
        action_chart("node")


def test_extension_focus_focus_limit_zero():
    chart = action_chart("focus_focus")
    report = action_extension_check(chart, lambda s: [(1.0 - s) * 0.5, 0.0])
    assert abs(report.limit) < 1e-4


def test_extension_generic_recovers_tau():
    chart = action_chart("generic", h=lambda b: b[2])
    for t0 in (0.3, 0.7):
        report = action_extension_check(
            chart,
            lambda s, t0=t0: [(1 - s) * 0.3, (1 - s) * 0.2, t0 + (1 - s) * 0.1],
        )
        assert abs(report.limit - t0) < 1e-4


def test_extension_positive_recovers_h_on_edge():
    chart = action_chart("positive", h=lambda b: 0.5 * b[2])
    report = action_extension_check(
        chart, lambda s: [(1 - s) * 0.3, (1 - s) * 0.1, -0.8 - (1 - s) * 0.1]
    )
    assert abs(report.limit - (-0.4)) < 1e-4


def test_extension_detects_divergence():
    bad = action_chart(
        "generic",
        h=lambda b: math.log(max(math.hypot(b[0], b[1]), 1e-300)),
    )
    with pytest.raises(ValueError):
        action_extension_check(bad, lambda s: [(1 - s) * 0.5, 0.0, 0.0])


def test_positive_a0_odd_symmetry():
    rng = np.random.default_rng(12)
    pts = rng.uniform(-1.0, 1.0, size=(25, 3))
    for b in pts:
        flipped = np.array([-b[0], b[1], b[2]])
        assert abs(positive_a0(b) + positive_a0(flipped)) < 1e-6
    assert positive_a0([0.0, 0.5, 0.3]) == 0.0


# a0 at b2 = b3 = 0 is sign(b1) |b1|^(2/3) I with
# I = int_0^inf ((u^2 + 1)^(1/3) - 1) / (u^2 + 1) du
#   = sqrt(pi) Gamma(1/6) / (2 Gamma(2/3)) - pi/2   (a Beta integral)
TRIPLE_POINT_I = (math.sqrt(math.pi) * math.gamma(1.0 / 6.0)
                  / (2.0 * math.gamma(2.0 / 3.0)) - math.pi / 2.0)


@pytest.mark.parametrize("b1", [1e-7, -1e-7, 1e-3, -1e-3, 0.2])
def test_positive_a0_triple_point_closed_form(b1):
    want = math.copysign(abs(b1) ** (2.0 / 3.0) * TRIPLE_POINT_I, b1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = positive_a0([b1, 0.0, 0.0])
    assert abs(got - want) <= 1e-9 * abs(want)


@pytest.mark.parametrize("b1", [1e-7, 1e-3, 0.2])
def test_hl_modulus_is_relatively_accurate_near_zero(b1):
    """At b2 = b3 = 0 the root of rho^3 = b1^2 is |b1|^{2/3}; the bisection
    stops on a width relative to the root, not an absolute one."""
    want = abs(b1) ** (2.0 / 3.0)
    assert abs(hl_modulus(b1 * b1, 0.0, 0.0) - want) <= 1e-14 * want


def test_hl_modulus_converges_beside_a_huge_coefficient():
    """With b3 = -1e100 the bracket starts near 1e100, and reaching the root
    next to b2 = 0.025 takes about 390 halvings."""
    assert abs(hl_modulus(0.075 ** 2, 0.025, -1e100) - 0.025) <= 1e-15 * 0.025


def _a0_s_integral(b):
    """The defining s-integral of a0, one modulus root per quadrature node."""
    b1, b2, b3 = (float(v) for v in b)
    rho0 = hl_modulus(b1 * b1, b2, b3)

    def integrand(s):
        rho = hl_modulus(s * s + b1 * b1, b2, b3)
        return (rho - rho0) * b1 / (s * s + b1 * b1)

    neg, _ = quad(integrand, -np.inf, 0.0, epsabs=1e-10, epsrel=1e-10, limit=400)
    pos, _ = quad(integrand, 0.0, np.inf, epsabs=1e-10, epsrel=1e-10, limit=400)
    return 0.5 * (neg + pos)


def test_positive_a0_matches_the_s_integral():
    rng = np.random.default_rng(31)
    pts = rng.uniform(-1.0, 1.0, size=(12, 3))
    pts[:, 0] = np.copysign(np.maximum(np.abs(pts[:, 0]), 0.05), pts[:, 0])
    for b in pts:
        assert abs(positive_a0(b) - _a0_s_integral(b)) < 1e-10


def _a0_by_quad(b):
    """positive_a0's integrand under scipy's adaptive quad."""
    b1, b2, b3 = (float(v) for v in b)
    c = abs(b1)
    rho0 = hl_modulus(c * c, b2, b3)
    d2, d3 = rho0 - b2, rho0 - b3
    q0, q1 = d2 * d3 + rho0 * (d2 + d3), rho0 + d2 + d3
    val, _ = quad(lambda t: 2.0 * t * math.atan2(c, t * math.sqrt(q0 + t * t * (q1 + t * t))),
                  0.0, math.inf, epsabs=A0_QUAD_TOL, epsrel=A0_QUAD_TOL, limit=400)
    return math.copysign(val, b1)


def test_positive_a0_matches_quad():
    rng = np.random.default_rng(47)
    pts = rng.uniform(-1.0, 1.0, size=(50, 3))
    pts[:, 0] = np.copysign(np.maximum(np.abs(pts[:, 0]), 0.05), pts[:, 0])
    for b in pts:
        assert abs(positive_a0(b) - _a0_by_quad(b)) < A0_QUAD_TOL


def _positive_path(k, t0=-0.7):
    e = 0.5 ** k
    return (0.3 * e, 0.1 * e, t0 - 0.1 * e)


# Reference values from mpmath at 40 digits: the by-parts form
# sign(b1) int_{rho0}^inf asin(|b1| / sqrt(P(rho))) drho (tanh-sinh, split
# near rho0) and the defining form sign(b1) int_0^{pi/2} (rho(theta) - rho0)
# dtheta with pi/2 - theta = w^3 (so cos(theta) = sin(w^3)), every root from
# mpmath.polyroots, agree to 1e-22 relative at each point.  Three points lie
# on the positive-chart extension path (t0 = -0.7) at s = 1 - 2^-k,
# k = 18, 19, 21.  At the last point scipy's adaptive quad of the same
# integrand to 1e-10 returns 8.2596564e-05 without a warning, 1.8e-9 off.
A0_REFERENCE = [
    ((0.2, 0.3, 0.3), 0.6989798536264263620759),
    ((1e-6, 0.3, 0.3), 2.468074604744444048223e-05),
    ((-0.05, 0.9, 0.9), -0.231484416003073397861),
    ((0.5, -0.4, 0.7), 1.223056522342581589252),
    ((-0.8, 0.2, -0.6), -1.76125958364771276392),
    ((0.3, 0.0, 0.0), 0.9286275696985603125797),
    (_positive_path(18), 2.00370008298945129579e-05),
    (_positive_path(19), 1.049255538215001424305e-05),
    (_positive_path(21), 2.86016603838434459699e-06),
    ((2.0598674626670643e-05, 0.5889230781943025, -0.0506137935170472),
     8.259479474013825962678e-05),
]


@pytest.mark.parametrize("b, want", A0_REFERENCE)
def test_positive_a0_matches_mpmath(b, want):
    assert abs(positive_a0(b) - want) < 1e-12


def test_monodromy_of_the_reversed_loop():
    frame = closed_form_frame("focus_focus")
    c, u, v = frame.loops["loop"](0.5)
    assert monodromy_from_frame(frame, (c, u, -v)) == zlat.inverse(zlat.T_NODE)
