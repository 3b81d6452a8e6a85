"""Command-line front end: reproducible experiments over the library.

Subcommands:

    base    build | check-simple | holonomy
    graph   k3 | quintic   [--dual] [--thicken R]
    topo    euler | validate | sign
    fib     list | poisson | reduce-check | amoeba | discriminant | twist | smooth1
    periods frame | numeric | monodromy | extend
    germs   ell1 | integral | constant | deform | glue

Each leaf command is one handler, attached to its subparser by
``set_defaults(run=...)``.  A handler takes ``args`` alone and imports the
layers it calls (numpy too, if it uses it) inside its body; this module
imports only the stdlib and ``report``.  So a cold process loads only
what its command runs: ``import tfib.cli`` and the exact commands
(``base``, ``graph``, ``topo``) never load numpy.  Layer functions are
looked up at call time, never bound at module level, so a replaced module
attribute (a monkeypatch, a tracing wrapper) is what runs.

Every run writes a canonical JSON report (stdout, or --out PATH plus side
artifacts next to it); identical configurations produce byte-identical
JSON.  The report's "passed" is the run's one verdict: true or false for
a leaf with a check, null for a leaf without one.  Every leaf takes --out
and --strict; --seed, --samples and --tol exist only on the leaves that
read them, with that leaf's default, and the report's "config" echoes
the ones the leaf has.  Exit codes: 0, or 1 under --strict exactly when
"passed" is false, 2 on usage errors and on a non-finite report value
(then nothing is written).
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from fractions import Fraction
from pathlib import Path

from . import report

USAGE_ERROR = 2
CHECK_FAILURE = 1


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """An argparse parser that takes ``-0.1,0.1,0.25``, ``-2.5e-1`` and
    ``-inf`` as option values, not as unknown options: a token of ``-``
    then a digit, a point or ``inf``/``nan`` is a value.  Subparsers
    inherit the class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-(\d|\.\d|inf|nan)", re.I)


def _parser():
    common = _Parser(add_help=False)
    common.add_argument("--out", type=str, default=None)
    common.add_argument("--strict", action="store_true",
                        help='exit 1 when the report says "passed": false')
    p = _Parser(prog="tfib", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="group", required=True)

    def leaf(group, name, run, seed=None, samples=None, tol=None):
        """A leaf parser; --seed, --samples and --tol exist only where
        given a default, which is the leaf's."""
        parser = group.add_parser(name, parents=[common])
        parser.set_defaults(run=run)
        for flag, kind, default in (("--seed", int, seed),
                                    ("--samples", int, samples),
                                    ("--tol", float, tol)):
            if default is not None:
                parser.add_argument(flag, type=kind, default=default)
        return parser

    base = sub.add_parser("base").add_subparsers(dest="command", required=True)
    b = leaf(base, "build", _base_build)
    b.add_argument("--kind", required=True,
                   choices=["node", "edge", "positive", "negative"])
    b.add_argument("--tau", default="0",
                   help="comma-separated rational polynomial coefficients")
    b = leaf(base, "check-simple", _base_check_simple)
    b.add_argument("--kind", choices=["node", "edge", "positive", "negative"])
    b.add_argument("--tau", default="0")
    b.add_argument("--input", help="atlas JSON file")
    b.add_argument("--bound", type=int, default=3)
    b = leaf(base, "holonomy", _base_holonomy)
    b.add_argument("--kind", choices=["node", "edge", "positive", "negative"])
    b.add_argument("--input")
    b.add_argument("--loop", help="named loop word of the atlas")
    b.add_argument("--word", help="JSON array of [piece, from, to] crossings")

    graph = sub.add_parser("graph").add_subparsers(dest="command", required=True)
    for name in ("k3", "quintic"):
        g = leaf(graph, name, _graph)
        g.add_argument("--dual", action="store_true")
        g.add_argument("--thicken", type=str, default=None,
                       help="amoeba radius (exact rational)")

    topo_p = sub.add_parser("topo").add_subparsers(dest="command", required=True)
    t = leaf(topo_p, "euler", _topo_euler)
    t.add_argument("--input", required=True)
    t.add_argument("--dimension", type=int, choices=[2, 3])
    t = leaf(topo_p, "validate", _topo_validate)
    t.add_argument("--input", required=True)
    t.add_argument("--bound", type=int, default=3)
    t = leaf(topo_p, "sign", _topo_sign)
    t.add_argument("--triple", required=True,
                   help="JSON list of three integer matrices")

    fib = sub.add_parser("fib").add_subparsers(dest="command", required=True)
    leaf(fib, "list", _fib_list)
    f = leaf(fib, "poisson", _fib_poisson, seed=0, samples=1000, tol=1e-6)
    f.add_argument("--model", required=True)
    f.add_argument("--step", type=float, default=None,
                   help="finite-difference base step "
                        "(default: numerics.DEFAULT_STEP)")
    f.add_argument("--margin", type=float, default=0.1)
    f = leaf(fib, "reduce-check", _fib_reduce_check,
             seed=0, samples=1000, tol=1e-6)
    f.add_argument("--t", type=float, required=True)
    f = leaf(fib, "amoeba", _fib_amoeba)
    f.add_argument("--res", type=int, default=200)
    f.add_argument("--bounds", type=float, nargs=2, default=[-3.0, 3.0])
    f.add_argument("--px-per-unit", type=float, default=100.0)
    f = leaf(fib, "discriminant", _fib_discriminant)
    f.add_argument("--model", required=True)
    f.add_argument("--eps", type=float, default=0.1)
    f.add_argument("--M", dest="big_m", type=float, default=4.0)
    f = leaf(fib, "twist", _fib_twist, seed=0, samples=100, tol=1e-6)
    f.add_argument("--which", choices=["h0", "cutoff"], default="h0")
    f.add_argument("--eps", type=float, default=0.1)
    f = leaf(fib, "smooth1", _fib_smooth1, seed=0)
    f.add_argument("--sigma", choices=["zero", "one", "bump"], default="bump")
    f.add_argument("--eps", type=float, default=0.1)

    per = sub.add_parser("periods").add_subparsers(dest="command", required=True)
    q = leaf(per, "frame", _periods_frame, seed=0, tol=1e-6)
    q.add_argument("--kind", required=True,
                   choices=["focus_focus", "generic", "positive", "thin_leg_slice"])
    q = leaf(per, "numeric", _periods_numeric)
    q.add_argument("--model", required=True)
    q.add_argument("--b", required=True, help="comma-separated base point")
    q.add_argument("--cycles", help="comma-separated cycle names")
    q = leaf(per, "monodromy", _periods_monodromy)
    q.add_argument("--model", help="model id (sm_ff, generic, positive)")
    q.add_argument("--frame", help="frame kind, if no model given")
    q.add_argument("--loop", default="circle:0.5",
                   help="circle:R (focus-focus/generic) or g1:R,g2:R,g3:R")
    q = leaf(per, "extend", _periods_extend, tol=1e-4)
    q.add_argument("--chart", required=True,
                   choices=["focus_focus", "generic", "positive"])
    q.add_argument("--t0", type=float, default=0.7)

    ger = sub.add_parser("germs").add_subparsers(dest="command", required=True)
    g = leaf(ger, "ell1", _germs_ell1, tol=1e-6)
    g.add_argument("--case", choices=["equal", "fake", "ff"], default="ff")
    g.add_argument("--m", type=int, nargs="*", default=[1, 0])
    g = leaf(ger, "integral", _germs_integral)
    g.add_argument("--case", choices=["negative", "ff"], default="negative")
    g = leaf(ger, "constant", _germs_constant)
    g.add_argument("--case", choices=["fake", "wavy"], default="fake")
    g = leaf(ger, "deform", _germs_deform)
    g.add_argument("--rho", type=float, default=0.5)
    leaf(ger, "glue", _germs_glue)
    return p


# ----------------------------------------------------------------------
# handlers: args -> (report dict, side artifacts dict).  A report's
# "passed" is its verdict; a handler without a check leaves it out.  Each
# imports the layers it calls; a handler that draws random numbers builds
# one fresh generator from --seed.
# ----------------------------------------------------------------------

def _rational(text, flag):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise CliError(f"{flag} must be an exact rational, got {text!r}") from None


def _load_base(args):
    from . import affine

    if getattr(args, "input", None):
        with open(args.input) as fh:
            return affine.base_from_json(json.load(fh))
    if getattr(args, "kind", None):
        tau = [_rational(c, "--tau") for c in getattr(args, "tau", "0").split(",")]
        return affine.build_local_model(args.kind, affine.Polynomial(tau))
    raise CliError("need --kind or --input")


def _base_build(args):
    from . import affine

    return affine.base_to_json(_load_base(args)), {}


def _base_check_simple(args):
    from . import affine

    return affine.check_simple(_load_base(args), bound=args.bound).to_json(), {}


def _base_holonomy(args):
    from . import affine, zlat

    base = _load_base(args)
    if args.loop:
        if args.loop not in base.loops:
            raise CliError(f"atlas has no loop {args.loop!r}")
        word = base.loops[args.loop]
    elif args.word:
        word = affine.loop_word_from_json(json.loads(args.word))
    else:
        raise CliError("need --loop or --word")
    mat = affine.holonomy(base, word)
    return {"holonomy": zlat.matrix_to_json(mat)}, {}


def _graph(args):
    from . import polybase, topo

    if args.command == "k3":
        boundary = polybase.LatticeSimplexBoundary(3)
        graph = polybase.build_k3_graph(boundary)
        dimension = 2
    else:
        boundary = polybase.LatticeSimplexBoundary(4)
        graph = polybase.classify_signs(
            polybase.build_quintic_graph(boundary), boundary)
        dimension = 3
    if args.dual:
        graph = polybase.legendre_dual(graph)
    if args.thicken is not None:
        graph = polybase.localized_thickening(
            graph, _rational(args.thicken, "--thicken"))
    rep = {
        "graph": polybase.graph_to_json(graph),
        "vertices": len(graph.vertices),
        "edges": len(graph.edges),
        "positive": graph.count_sign("positive"),
        "negative": graph.count_sign("negative"),
        "components": graph.connected_components(),
        "euler": topo.euler_characteristic(graph, dimension),
        "dimension": dimension,
        "thickened": len(graph.thickening),
    }
    return rep, {".dot": polybase.graph_to_dot(graph)}


def _load_graph(path):
    from . import polybase

    with open(path) as fh:
        data = json.load(fh)
    return polybase.graph_from_json(data.get("graph", data))


def _topo_euler(args):
    from . import topo

    graph = _load_graph(args.input)
    dimension = args.dimension
    if dimension is None:
        dimension = 3 if any(v.valence == 3 for v in graph.vertices) else 2
    return {
        "euler": topo.euler_characteristic(graph, dimension),
        "dimension": dimension,
    }, {}


def _topo_validate(args):
    from . import topo

    graph = _load_graph(args.input)
    rep = topo.validate_semistable(
        graph, topo.canonical_assignment(graph), bound=args.bound)
    return rep.to_json(), {}


def _topo_sign(args):
    from . import topo, zlat

    triple = [zlat.mat(m) for m in json.loads(args.triple)]
    return {"sign": topo.sign_from_triple(triple)}, {}


def _fib_list(args):
    from . import symplab

    return {"models": list(symplab.MODEL_IDS)}, {}


def _fib_poisson(args):
    import numpy as np

    from . import numerics, symplab

    step = numerics.DEFAULT_STEP if args.step is None else args.step
    rng = np.random.default_rng(args.seed)
    model = symplab.make_model(args.model)
    samples = symplab.sample_domain(model, args.samples, rng, margin=args.margin)
    worst = symplab.poisson_check(model, samples, step=step, margin=args.margin)
    return {
        "model": args.model,
        "max_bracket": worst,
        "step": step,
        "margin": args.margin,
        "passed": worst < args.tol,
    }, {}


def _fib_reduce_check(args):
    import numpy as np

    from . import symplab

    rng = np.random.default_rng(args.seed)
    pts = rng.uniform(-1.5, 1.5, size=(args.samples, 4))
    samples = pts[:, 0::2] + 1j * pts[:, 1::2]
    if args.t == 0.0:
        samples = samples[np.abs(samples[:, 0]) > 0.05]
        if not len(samples):
            raise CliError("at --t 0 only samples with |z1| > 0.05 are checked, "
                           "and none was drawn")
    worst = symplab.reduction_check(args.t, samples)
    return {
        "t": args.t,
        "max_defect": worst,
        "samples": len(samples),
        "passed": worst < args.tol,
    }, {}


def _fib_amoeba(args):
    import numpy as np

    from . import symplab

    if args.res < 2:
        raise CliError(f"--res must be at least 2, got {args.res}")
    lo, hi = args.bounds
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise CliError(f"--bounds must be finite, got {lo} {hi}")
    raster = symplab.amoeba_raster((lo, hi, lo, hi), (args.res, args.res))
    x1, x2 = raster.grid()
    # sub-grid spot check: |e^x1 - e^x2| <= 1 <= e^x1 + e^x2 in log space
    k = max(1, args.res // 37)
    a, b = x1[::k, None], x2[None, ::k]
    oracle = (np.maximum(a, b) <= np.logaddexp(0.0, np.minimum(a, b))) \
        & (np.logaddexp(a, b) >= 0.0)
    rep = {
        "resolution": [args.res, args.res],
        "bounds": [lo, hi, lo, hi],
        "inside_cells": int(raster.mask.sum()),
        "boundary_cells": int(len(raster.boundary)),
        "passed": bool(np.array_equal(raster.mask[::k, ::k], oracle)),
    }
    artifacts = {
        ".svg": report.raster_svg(raster, args.px_per_unit),
        ".csv": [(x1[i], x2[j]) for i, j in
                 np.argwhere(raster.mask)[:: max(1, args.res // 50)]],
    }
    return rep, artifacts


def _fib_discriminant(args):
    import numpy as np

    from . import symplab

    params = {"eps": args.eps, "M": args.big_m} \
        if args.model == "thin_legs" else {}
    model = symplab.make_model(args.model, **params)
    cloud = symplab.discriminant_sample(model)
    a = np.exp(cloud[:, 1])
    b = np.exp(cloud[:, 2])
    inside = bool(np.all(np.abs(a - b) <= 1.0 + 1e-9)
                  and np.all(a + b >= 1.0 - 1e-9))
    # the plain amoeba holds these discriminants; the leg models' leave it
    expected = args.model in ("amoeba", "thin_legs")
    return {
        "model": args.model,
        "points": int(len(cloud)),
        "inside_oracle_amoeba": inside,
        "passed": inside == expected,
    }, {".csv": cloud.tolist()}


def _fib_twist(args):
    import numpy as np

    from . import symplab
    from .symplab import twist

    def quarter_turn_error(flow, v):
        c = 1.0 / math.sqrt(2.0)
        expected = np.stack(
            [c * (v[:, 0] - v[:, 1]), c * (v[:, 0] + v[:, 1])], axis=-1)
        return float(np.max(np.abs(flow(v) - expected)))

    rng = np.random.default_rng(args.seed)
    u = rng.normal(size=(args.samples, 2)) + 1j * rng.normal(size=(args.samples, 2))
    unit = u / np.sqrt(np.sum(np.abs(u) ** 2, axis=1))[:, None]
    if args.which == "h0":
        h = symplab.h0_quarter_turn
        flow = symplab.hamiltonian_twist(h)
        err = quarter_turn_error(flow, u)
    else:
        # the identity where H = 0 (|u|^2 = 4 eps) and the quarter turn
        # where k = 1 (|u|^2 = 0.49 eps)
        h = symplab.cutoff_hamiltonian(args.eps)
        flow = symplab.hamiltonian_twist(h)
        far = unit * math.sqrt(4.0 * args.eps)
        err = max(float(np.max(np.abs(flow(far) - far))),
                  quarter_turn_error(flow, unit * math.sqrt(0.49 * args.eps)))
    defect = symplab.symplecticity_defect(flow, 0.3 * u[:20])
    # tangent maps at three points of the cut-off shell eps < |u|^2 < 2 eps,
    # where every term of the Hessian is live
    shell = unit[:3] * np.sqrt(args.eps * np.array([1.2, 1.5, 1.8]))[:len(unit), None]
    tangent = symplab.tangent_map_defect(h, shell)
    return {
        "which": args.which,
        "flow_error": err,
        "symplectic_defect": defect,
        "tangent_map_defect": tangent,
        "ode_rtol": twist.ODE_RTOL,
        "passed": err < args.tol and defect < args.tol and tangent < args.tol,
    }, {}


def _fib_smooth1(args):
    import numpy as np

    from . import symplab

    rng = np.random.default_rng(args.seed)
    leg = symplab.smoothing_one(sigma=args.sigma, eps=args.eps)
    u1 = rng.uniform(-0.3, 0.3, 100) + 1j * rng.uniform(-0.3, 0.3, 100)
    s = rng.uniform(0.0, args.eps / 2.0, 100)
    jump = symplab.smoothing.seam_derivative_jump(leg, u1, s)
    if args.sigma == "zero":
        # sigma = 0 must leave the unsmoothed leg bit for bit
        raw = np.log(np.abs(u1 / symplab.rho_zero(np.abs(u1) ** 2, 0.02) - 1.0))
        passed = bool(np.array_equal(leg.g(u1, 0.02, s), raw))
    else:
        passed = jump < 1e-4 if args.sigma == "one" else None
    return {
        "sigma": args.sigma,
        "eps": args.eps,
        "seam_derivative_jump": jump,
        "passed": passed,
    }, {}


_FRAME_FOR_MODEL = {"sm_ff": "focus_focus", "generic": "generic",
                    "positive": "positive", "thin_legs": "thin_leg_slice"}


def _periods_frame(args):
    import numpy as np

    from .periods import closed_form_frame, closedness_defect

    rng = np.random.default_rng(args.seed)
    frame = closed_form_frame(args.kind)
    probe = np.full(frame.dim, 0.4)
    rows = frame.matrix_at(probe)
    samples = 0.3 + 0.4 * rng.uniform(size=(10, frame.dim))
    defect = closedness_defect(frame, samples)
    return {
        "kind": args.kind,
        "at": probe.tolist(),
        "forms": rows.tolist(),
        "closedness_defect": defect,
        "passed": defect < args.tol,
    }, {}


def _periods_numeric(args):
    from . import symplab
    from .periods import numeric_periods

    model = symplab.make_model(args.model)
    b = [float(v) for v in args.b.split(",")]
    cycles = args.cycles.split(",") if args.cycles else None
    res = numeric_periods(model, b, cycles=cycles)
    rows = [list(v) for _, v in sorted(res.covectors.items())]
    return {
        "model": args.model,
        "b": b,
        "covectors": {k: v.tolist() for k, v in res.covectors.items()},
        "quadrature_errors": res.errors,
        "fibre_defect": res.fibre_defect,
    }, {".csv": rows}


def _periods_monodromy(args):
    from . import zlat
    from .periods import closed_form_frame, monodromy_from_frame

    kind = _FRAME_FOR_MODEL.get(args.model) if args.model else args.frame
    if kind is None:
        raise CliError("need --model or --frame")
    frame = closed_form_frame(kind)
    name, _, radius = args.loop.partition(":")
    radius = float(radius or 0.5)
    if not (math.isfinite(radius) and radius > 0):
        raise CliError(f"--loop radius must be finite and positive, got {radius}")
    key = "loop" if name == "circle" else name
    if key not in frame.loops:
        names = ["circle" if k == "loop" else k for k in frame.loops]
        raise CliError(f"frame {kind} has no loop {name!r} "
                       f"(loops: {', '.join(names) or 'none'})")
    loop = frame.loops[key](radius)
    mat = monodromy_from_frame(frame, loop)
    return {
        "frame": kind,
        "loop": args.loop,
        "monodromy": zlat.matrix_to_json(mat),
    }, {}


def _periods_extend(args):
    import numpy as np

    from .periods import action_chart, action_extension_check

    if not math.isfinite(args.t0):
        raise CliError(f"--t0 must be finite, got {args.t0}")
    if args.chart == "focus_focus":
        chart = action_chart("focus_focus")
        path = lambda s: [(1.0 - s) * 0.5, 0.0]
        expected = 0.0
    elif args.chart == "generic":
        chart = action_chart("generic", h=lambda b: b[2])
        t0 = args.t0
        path = lambda s: [(1 - s) * 0.3, (1 - s) * 0.2, t0 + (1 - s) * 0.1]
        expected = args.t0
    else:
        chart = action_chart("positive", h=lambda b: 0.5 * b[2])
        t0 = -abs(args.t0)
        path = lambda s: [(1 - s) * 0.3, (1 - s) * 0.1, t0 - (1 - s) * 0.1]
        expected = 0.5 * t0
    rep_obj = action_extension_check(chart, path)
    rep = rep_obj.to_json()
    rep.update({"chart": args.chart, "expected": expected,
                "passed": abs(rep_obj.limit - expected) < args.tol})
    svals = 1.0 - 0.5 ** np.arange(2, 2 + len(rep_obj.values))
    return rep, {".csv": list(zip(svals, rep_obj.values))}


def _germs_ell1(args):
    import numpy as np

    from . import germs

    if args.case == "ff":
        seq = germs.stitched_ff_ell1_sequence()
        rep = germs.integral_condition(seq, [1], base=-0.5, tol=args.tol)
        return {
            "case": "ff",
            "lower_seam_integral": rep.computed.tolist(),
            "expected": [1],
            "passed": rep.passed,
        }, {}
    ms = args.m
    e1 = np.array([1.0 + 0j, -1.0 + 0j])
    minus = [lambda p: np.array([0.5j, 1.0 + 0j]) for _ in ms]
    if args.case == "equal":
        plus = minus
    else:
        plus = [
            (lambda p, m=m: np.array([0.5j, 1.0 + 0j]) + m * e1) for m in ms
        ]
    coeffs = germs.ell1_from_frames(plus, minus, lambda p: e1)
    values = [c(np.zeros(2)) for c in coeffs]
    expected = ms if args.case == "fake" else [0] * len(ms)
    return {
        "case": args.case,
        "a": values,
        "m": ms,
        "expected": expected,
        "passed": all(abs(a - e) < args.tol for a, e in zip(values, expected)),
    }, {}


def _germs_integral(args):
    from . import germs

    if args.case == "ff":
        seq = germs.stitched_ff_ell1_sequence()
        reports = {
            "lower": germs.integral_condition(seq, [1], base=-0.5).to_json(),
            "upper": germs.integral_condition(seq, [0], base=0.5).to_json(),
        }
    else:
        seqs = {
            "c": germs.EllSequence.constant("c", [0.0, 0.0]),
            "d": germs.EllSequence.constant("d", [-1.0, 0.0]),
            "e": germs.EllSequence.constant("e", [0.0, 1.0]),
        }
        reports = {k: v.to_json() for k, v in
                   germs.negative_table_condition(seqs, -1, 1).items()}
    return {"case": args.case, "reports": reports,
            "passed": all(v["passed"] for v in reports.values())}, {}


def _germs_constant(args):
    import numpy as np

    from . import germs

    if args.case == "fake":
        seq = germs.EllSequence.constant("fake", [1.0, 0.0])
    else:
        seq = germs.EllSequence("wavy", 2, {1: [
            lambda y, base=None: 1.0 + np.cos(2 * np.pi * y[..., 1]),
            lambda y, base=None: np.zeros(np.shape(y)[:-1]),
        ]})
    return {
        "case": args.case,
        "fibrewise_constant": germs.is_fibrewise_constant(seq),
    }, {}


def _germs_deform(args):
    import numpy as np

    from . import germs

    wavy = germs.EllSequence("w", 1, {1: [
        lambda y, base=None: 1.0 + np.sin(2 * np.pi * y[..., 0]),
    ]})
    flat = germs.EllSequence.constant("f", [1.0])
    mixed = germs.deform_by_cutoff(wavy, lambda b: args.rho, other=flat)
    integral = germs.cycle_integrals(mixed)[0]
    closed = germs.fibrewise_closedness_defect(mixed)
    return {
        "rho": args.rho,
        "class_integral": integral,
        "closedness_defect": closed,
        "passed": abs(integral - 1.0) < 1e-6 and closed < 1e-6,
    }, {}


def _germs_glue(args):
    import numpy as np

    from . import germs

    zero = lambda r: np.zeros_like(np.asarray(r, dtype=float))
    one = lambda r: np.ones_like(np.asarray(r, dtype=float))
    left = germs.GermH((-1.0, 0.5), 2, {(0, 0): zero, (1, 0): one})
    right = germs.GermH((-0.5, 1.0), 2, {(0, 0): zero, (1, 0): zero})
    out = germs.glue_leg_germs(left, right, zero)
    r = np.linspace(-1.0, 1.0, 9)
    return {
        "h10": out.coefficient(1, 0)(r).tolist(),
        "r": r.tolist(),
        "endpoints": [float(out.coefficient(1, 0)(np.array([-0.5]))[0]),
                      float(out.coefficient(1, 0)(np.array([0.5]))[0])],
    }, {}


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    if "samples" in args and args.samples < 1:
        sys.stderr.write(f"error: --samples must be at least 1, got {args.samples}\n")
        return USAGE_ERROR
    try:
        rep, artifacts = args.run(args)
        if rep.setdefault("passed", None) is not None:
            rep["passed"] = bool(rep["passed"])  # a numpy bool too
        rep["config"] = {key: getattr(args, key)
                         for key in ("seed", "samples", "tol", "strict")
                         if key in args}
        text = report.canonical_json(rep)
        if args.out:
            out = Path(args.out)
            out.write_text(text)
            for suffix, payload in artifacts.items():
                side = out.with_suffix(suffix)
                if suffix == ".csv":
                    report.write_csv(side, payload)
                else:
                    side.write_text(payload)
        else:
            sys.stdout.write(text)
    except (CliError, ValueError, FileNotFoundError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_ERROR
    if args.strict and rep["passed"] is False:
        return CHECK_FAILURE
    return 0


if __name__ == "__main__":
    sys.exit(main())
