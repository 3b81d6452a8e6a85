"""Command-line front end: reproducible experiments over the library.

Subcommands:

    base    build | check-simple | holonomy
    graph   k3 [--dual] | quintic [--dual] [--thicken R]
    topo    euler | validate | sign
    fib     list | poisson | reduce-check | amoeba | discriminant | twist | smooth1
    periods frame | numeric | monodromy | extend
    germs   ell1 | integral | constant | deform | glue

There are no handlers.  Each leaf names one layer function under
``tfib`` by ``set_defaults(run="module:function")``, and its options are
exactly that function's parameters: argparse ``type=`` converters turn
option text into values (exact rationals, float lists, JSON) and mutually
exclusive groups pick between alternatives.  ``main`` imports the module
when the leaf runs and calls the function with every parsed option but
--out and --strict; it returns the report body, or the body and a
``{suffix: payload}`` dict of side artifacts.  This module imports only
the stdlib and ``report``, so ``import tfib.cli`` and the exact commands
(``base``, ``graph``, ``topo``) load no numeric layer; and as the function
is looked up when the leaf runs, a replaced module attribute (a
monkeypatch, a tracing wrapper) is what runs.

Every run writes a canonical JSON report (stdout, or --out PATH plus side
artifacts next to it); identical configurations produce byte-identical
JSON.  The report's "passed" is the run's one verdict: true or false for
a leaf with a check, null for a leaf without one; a report whose check
has a tolerance states it as "tol", a constant of the layer that checks,
as no leaf takes a tolerance option.  Every leaf takes --out and
--strict; --seed and --samples exist only on the leaves that read them,
with that leaf's default, and the report's "config" echoes the ones the
leaf has.  Exit codes: 0, or 1 under --strict exactly when "passed" is
false, 2 on usage errors and on a non-finite report value (then nothing
is written, and stderr holds one ``error:`` line).
"""

from __future__ import annotations

import argparse
import importlib
import json
import re
import sys
from fractions import Fraction
from pathlib import Path

from . import report

USAGE_ERROR = 2
CHECK_FAILURE = 1

#: parsed values that are not arguments of the leaf's layer function
_NOT_OPTIONS = ("group", "command", "run", "out", "strict")


class _Parser(argparse.ArgumentParser):
    """An argparse parser that takes ``-0.1,0.1,0.25``, ``-2.5e-1`` and
    ``-inf`` as option values, not as unknown options (a token of ``-``
    then a digit, a point or ``inf``/``nan`` is a value), and reports a
    usage error as one ``error:`` line.  Subparsers inherit the class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-(\d|\.\d|inf|nan)", re.I)

    def error(self, message):
        self.exit(USAGE_ERROR, f"error: {message}\n")


# ----------------------------------------------------------------------
# option converters: text -> the value a layer function takes
# ----------------------------------------------------------------------

def _rational(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not an exact rational: {text!r}") from None


def _rationals(text):
    """Comma-separated exact rationals, each named when it is rejected."""
    return [_rational(c) for c in text.split(",")]


def _floats(text):
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not comma-separated numbers: {text!r}") from None


def _json(text):
    try:
        return json.loads(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not JSON ({exc})") from None


def _json_file(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise argparse.ArgumentTypeError(
            f"cannot read {path!r}: {exc.strerror or exc}") from None
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{path!r} is not JSON ({exc})") from None


def _parser():
    common = _Parser(add_help=False)
    common.add_argument("--out", type=str, default=None)
    common.add_argument("--strict", action="store_true",
                        help='exit 1 when the report says "passed": false')
    p = _Parser(prog="tfib", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="group", required=True)

    def leaf(group, name, run, seed=None, samples=None, **extras):
        """A leaf parser that runs ``run`` ("module:function" under tfib)
        with its options and ``extras``; --seed and --samples exist only
        where given a default, which is the leaf's."""
        parser = group.add_parser(name, parents=[common])
        parser.set_defaults(run=run, **extras)
        for flag, default in (("--seed", seed), ("--samples", samples)):
            if default is not None:
                parser.add_argument(flag, type=int, default=default)
        return parser

    def one_of(parser, *options):
        """A required group of mutually exclusive options (flag, kwargs)."""
        group = parser.add_mutually_exclusive_group(required=True)
        for flag, kwargs in options:
            group.add_argument(flag, **kwargs)

    kinds = ["node", "edge", "positive", "negative"]
    atlas = ("--input", {"dest": "atlas", "type": _json_file,
                         "help": "atlas JSON file"})
    base = sub.add_parser("base").add_subparsers(dest="command", required=True)
    b = leaf(base, "build", "affine:build_report")
    b.add_argument("--kind", required=True, choices=kinds)
    b.add_argument("--tau", type=_rationals, default="0",
                   help="comma-separated rational polynomial coefficients")
    b = leaf(base, "check-simple", "affine:check_simple_report")
    one_of(b, ("--kind", {"choices": kinds}), atlas)
    b.add_argument("--tau", type=_rationals, default=None,
                   help="as for build; only with --kind")
    b = leaf(base, "holonomy", "affine:holonomy_report")
    one_of(b, ("--kind", {"choices": kinds}), atlas)
    one_of(b, ("--loop", {"help": "named loop word of the atlas"}),
           ("--word", {"type": _json,
                       "help": "JSON array of [piece, from, to] crossings"}))

    graph = sub.add_parser("graph").add_subparsers(dest="command", required=True)
    for name in ("k3", "quintic"):
        g = leaf(graph, name, "topo:graph_report", which=name, thicken=None)
        g.add_argument("--dual", action="store_true")
    # only the quintic graph has negative vertices to thicken
    g.add_argument("--thicken", type=_rational, default=None,
                   help="amoeba radius (exact rational)")

    topo = sub.add_parser("topo").add_subparsers(dest="command", required=True)
    for name in ("euler", "validate"):
        t = leaf(topo, name, f"topo:{name}_report")
        t.add_argument("--input", dest="graph", type=_json_file, required=True,
                       help="graph JSON file, or a `graph` report")
    t = leaf(topo, "sign", "topo:sign_report")
    t.add_argument("--triple", type=_json, required=True,
                   help="JSON list of three integer matrices")

    fib = sub.add_parser("fib").add_subparsers(dest="command", required=True)
    leaf(fib, "list", "symplab:list_report")
    f = leaf(fib, "poisson", "symplab:poisson_report", seed=0, samples=1000)
    f.add_argument("--model", required=True)
    f = leaf(fib, "reduce-check", "symplab:reduction_report", seed=0, samples=1000)
    f.add_argument("--t", type=float, required=True)
    f = leaf(fib, "amoeba", "symplab:amoeba_report")
    f.add_argument("--res", type=int, default=200)
    f.add_argument("--bounds", type=float, nargs=2, default=[-3.0, 3.0])
    f = leaf(fib, "discriminant", "symplab:discriminant_report")
    f.add_argument("--model", required=True)
    f = leaf(fib, "twist", "symplab:twist_report", seed=0, samples=100)
    f.add_argument("--which", choices=["h0", "cutoff"], default="h0")
    f.add_argument("--eps", type=float, default=None,
                   help="cut-off scale of --which cutoff (default 0.1)")
    f = leaf(fib, "smooth1", "symplab:smoothing_report", seed=0)
    f.add_argument("--sigma", choices=["zero", "one", "bump"], default="bump")

    per = sub.add_parser("periods").add_subparsers(dest="command", required=True)
    q = leaf(per, "frame", "periods:frame_report", seed=0)
    q.add_argument("--kind", required=True,
                   choices=["focus_focus", "generic", "positive", "thin_leg_slice"])
    q = leaf(per, "numeric", "periods:numeric_report")
    q.add_argument("--model", required=True)
    q.add_argument("--b", type=_floats, required=True,
                   help="comma-separated base point")
    q = leaf(per, "monodromy", "periods:monodromy_report")
    one_of(q, ("--model", {"help": "model id (sm_ff, generic, positive)"}),
           ("--frame", {"help": "frame kind"}))
    q.add_argument("--loop", default="circle:0.5",
                   help="circle:R (focus-focus/generic) or g1:R,g2:R,g3:R")
    q = leaf(per, "extend", "periods:extension_report")
    q.add_argument("--chart", required=True,
                   choices=["focus_focus", "generic", "positive"])
    q.add_argument("--t0", type=float, default=0.7)

    ger = sub.add_parser("germs").add_subparsers(dest="command", required=True)
    g = leaf(ger, "ell1", "germs:ell1_report")
    g.add_argument("--case", choices=["equal", "fake", "ff"], default="ff")
    g.add_argument("--m", type=int, nargs="*", default=[1, 0])
    g = leaf(ger, "integral", "germs:integral_report")
    g.add_argument("--case", choices=["negative", "ff"], default="negative")
    g = leaf(ger, "constant", "germs:constant_report")
    g.add_argument("--case", choices=["fake", "wavy"], default="fake")
    leaf(ger, "deform", "germs:deform_report")
    leaf(ger, "glue", "germs:glue_report")
    return p


def _call(args):
    """The leaf's layer function on its options: (body, side artifacts)."""
    module, name = args.run.split(":")
    options = {k: v for k, v in vars(args).items() if k not in _NOT_OPTIONS}
    result = getattr(importlib.import_module(f"tfib.{module}"), name)(**options)
    return result if isinstance(result, tuple) else (result, {})


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    if "samples" in args and args.samples < 1:
        sys.stderr.write(f"error: --samples must be at least 1, got {args.samples}\n")
        return USAGE_ERROR
    try:
        rep, artifacts = _call(args)
        if rep.setdefault("passed", None) is not None:
            rep["passed"] = bool(rep["passed"])  # an array-scalar bool too
        rep["config"] = {key: getattr(args, key)
                         for key in ("seed", "samples", "strict")
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
