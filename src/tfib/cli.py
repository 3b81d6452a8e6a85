"""Command-line front end: reproducible experiments over the library.

Subcommands:

    base    build | check-simple | holonomy
    graph   k3 | quintic   [--dual] [--thicken R]
    topo    euler | validate | sign
    fib     list | poisson | reduce-check | amoeba | discriminant | twist | smooth1
    periods frame | numeric | monodromy | extend
    germs   ell1 | integral | constant | deform | glue

Each leaf command is one handler, attached to its subparser by
``set_defaults(run=...)``.  A handler does parsing, dispatch and I/O only:
it validates its options, makes one layer call and returns the report
body and the side artifacts.  Every check, reference value, fixture,
random draw and tolerance lives in the layer it exercises (for example
``symplab.twist_report`` and ``twist.TWIST_TOL``), so a check can be
called in-process without argparse.  A handler imports its layers inside
its body; this module imports only the stdlib and ``report``.  So a cold
process loads only what its command runs: ``import tfib.cli`` and the
exact commands (``base``, ``graph``, ``topo``) load no numeric layer.
Layer functions are looked up at call time, never bound at module level,
so a replaced module attribute (a monkeypatch, a tracing wrapper) is what
runs.

Every run writes a canonical JSON report (stdout, or --out PATH plus side
artifacts next to it); identical configurations produce byte-identical
JSON.  The report's "passed" is the run's one verdict: true or false for
a leaf with a check, null for a leaf without one; a report whose check
has a fixed tolerance states it as "tol".  Every leaf takes --out and
--strict; --seed and --samples exist only on the leaves that read them,
with that leaf's default, --tol only on ``periods extend``, and the
report's "config" echoes the ones the leaf has.  Exit codes: 0, or 1
under --strict exactly when "passed" is false, 2 on usage errors and on
a non-finite report value (then nothing is written).
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
    t = leaf(topo_p, "validate", _topo_validate)
    t.add_argument("--input", required=True)
    t = leaf(topo_p, "sign", _topo_sign)
    t.add_argument("--triple", required=True,
                   help="JSON list of three integer matrices")

    fib = sub.add_parser("fib").add_subparsers(dest="command", required=True)
    leaf(fib, "list", _fib_list)
    f = leaf(fib, "poisson", _fib_poisson, seed=0, samples=1000)
    f.add_argument("--model", required=True)
    f = leaf(fib, "reduce-check", _fib_reduce_check, seed=0, samples=1000)
    f.add_argument("--t", type=float, required=True)
    f = leaf(fib, "amoeba", _fib_amoeba)
    f.add_argument("--res", type=int, default=200)
    f.add_argument("--bounds", type=float, nargs=2, default=[-3.0, 3.0])
    f = leaf(fib, "discriminant", _fib_discriminant)
    f.add_argument("--model", required=True)
    f = leaf(fib, "twist", _fib_twist, seed=0, samples=100)
    f.add_argument("--which", choices=["h0", "cutoff"], default="h0")
    f.add_argument("--eps", type=float, default=None,
                   help="cut-off scale of --which cutoff (default 0.1)")
    f = leaf(fib, "smooth1", _fib_smooth1, seed=0)
    f.add_argument("--sigma", choices=["zero", "one", "bump"], default="bump")

    per = sub.add_parser("periods").add_subparsers(dest="command", required=True)
    q = leaf(per, "frame", _periods_frame, seed=0)
    q.add_argument("--kind", required=True,
                   choices=["focus_focus", "generic", "positive", "thin_leg_slice"])
    q = leaf(per, "numeric", _periods_numeric)
    q.add_argument("--model", required=True)
    q.add_argument("--b", required=True, help="comma-separated base point")
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
    g = leaf(ger, "ell1", _germs_ell1)
    g.add_argument("--case", choices=["equal", "fake", "ff"], default="ff")
    g.add_argument("--m", type=int, nargs="*", default=[1, 0])
    g = leaf(ger, "integral", _germs_integral)
    g.add_argument("--case", choices=["negative", "ff"], default="negative")
    g = leaf(ger, "constant", _germs_constant)
    g.add_argument("--case", choices=["fake", "wavy"], default="fake")
    leaf(ger, "deform", _germs_deform)
    leaf(ger, "glue", _germs_glue)
    return p


# ----------------------------------------------------------------------
# handlers: args -> (report dict, side artifacts dict).  A report's
# "passed" is its verdict; a handler without a check leaves it out.  Each
# imports the layers it calls; a layer that draws random numbers takes
# --seed and builds one fresh generator from it.
# ----------------------------------------------------------------------

def _rational(text, flag):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{flag} must be an exact rational, got {text!r}") from None


def _load_base(args):
    from . import affine

    if getattr(args, "input", None):
        with open(args.input) as fh:
            return affine.base_from_json(json.load(fh))
    if getattr(args, "kind", None):
        tau = [_rational(c, "--tau") for c in getattr(args, "tau", "0").split(",")]
        return affine.build_local_model(args.kind, affine.Polynomial(tau))
    raise ValueError("need --kind or --input")


def _base_build(args):
    from . import affine

    return affine.base_to_json(_load_base(args)), {}


def _base_check_simple(args):
    from . import affine

    return affine.check_simple(_load_base(args)).to_json(), {}


def _base_holonomy(args):
    from . import affine, zlat

    base = _load_base(args)
    if args.loop:
        if args.loop not in base.loops:
            raise ValueError(f"atlas has no loop {args.loop!r}")
        word = base.loops[args.loop]
    elif args.word:
        word = affine.loop_word_from_json(json.loads(args.word))
    else:
        raise ValueError("need --loop or --word")
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
    dimension = 3 if any(v.valence == 3 for v in graph.vertices) else 2
    return {
        "euler": topo.euler_characteristic(graph, dimension),
        "dimension": dimension,
    }, {}


def _topo_validate(args):
    from . import topo

    graph = _load_graph(args.input)
    rep = topo.validate_semistable(graph, topo.canonical_assignment(graph))
    return rep.to_json(), {}


def _topo_sign(args):
    from . import topo, zlat

    triple = [zlat.mat(m) for m in json.loads(args.triple)]
    return {"sign": topo.sign_from_triple(triple)}, {}


def _fib_list(args):
    from . import symplab

    return {"models": list(symplab.MODEL_IDS)}, {}


def _fib_poisson(args):
    from . import symplab

    return symplab.poisson_report(args.model, args.samples, args.seed), {}


def _fib_reduce_check(args):
    from . import symplab

    return symplab.reduction_report(args.t, args.samples, args.seed), {}


def _fib_amoeba(args):
    from . import symplab

    rep, raster, cloud = symplab.amoeba_report(args.res, *args.bounds)
    return rep, {".svg": report.raster_svg(raster), ".csv": cloud}


def _fib_discriminant(args):
    from . import symplab

    rep, cloud = symplab.discriminant_report(args.model)
    return rep, {".csv": cloud}


def _fib_twist(args):
    from . import symplab

    return symplab.twist_report(args.which, args.eps, args.samples, args.seed), {}


def _fib_smooth1(args):
    from . import symplab

    return symplab.smoothing_report(args.sigma, args.seed), {}


_FRAME_FOR_MODEL = {"sm_ff": "focus_focus", "generic": "generic",
                    "positive": "positive", "thin_legs": "thin_leg_slice"}


def _periods_frame(args):
    from . import periods

    return periods.frame_report(args.kind, args.seed), {}


def _periods_numeric(args):
    from . import symplab
    from .periods import numeric_periods

    model = symplab.make_model(args.model)
    b = [float(v) for v in args.b.split(",")]
    res = numeric_periods(model, b)
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
        raise ValueError("need --model or --frame")
    frame = closed_form_frame(kind)
    name, _, radius = args.loop.partition(":")
    radius = float(radius or 0.5)
    if not (math.isfinite(radius) and radius > 0):
        raise ValueError(f"--loop radius must be finite and positive, got {radius}")
    key = "loop" if name == "circle" else name
    if key not in frame.loops:
        names = ["circle" if k == "loop" else k for k in frame.loops]
        raise ValueError(f"frame {kind} has no loop {name!r} "
                         f"(loops: {', '.join(names) or 'none'})")
    loop = frame.loops[key](radius)
    mat = monodromy_from_frame(frame, loop)
    return {
        "frame": kind,
        "loop": args.loop,
        "monodromy": zlat.matrix_to_json(mat),
    }, {}


def _periods_extend(args):
    from . import periods

    rep, rows = periods.extension_report(args.chart, args.t0, args.tol)
    return rep, {".csv": rows}


def _germs_ell1(args):
    from . import germs

    return germs.ell1_report(args.case, args.m), {}


def _germs_integral(args):
    from . import germs

    return germs.integral_report(args.case), {}


def _germs_constant(args):
    from . import germs

    return germs.constant_report(args.case), {}


def _germs_deform(args):
    from . import germs

    return germs.deform_report(), {}


def _germs_glue(args):
    from . import germs

    return germs.glue_report(), {}


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
            rep["passed"] = bool(rep["passed"])  # an array-scalar bool too
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
    except (ValueError, FileNotFoundError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_ERROR
    if args.strict and rep["passed"] is False:
        return CHECK_FAILURE
    return 0


if __name__ == "__main__":
    sys.exit(main())
