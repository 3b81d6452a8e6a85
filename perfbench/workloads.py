"""The four workloads: seeded inputs, the operations of one pass, and the
independent check of every answer.

Each workload turns the benchmark seed into inputs (``random.Random`` for
the exact workloads, ``numpy.random.default_rng`` for the numeric one)
before any timing starts; tfib only ever receives the generated inputs.
Operations call tfib through module attributes (``zlat.simultaneous_
conjugator``, ``periods.numeric_periods``, ...), so the tracing wrappers
of ``spans.install`` see every call.

Why these four (the same text is in BENCHMARK.json):

* ``cli_readme``    -- what a user runs; import dominates every command.
* ``exact_quintic`` -- repeat-heavy conjugacy traffic through the cache
  (3300 queries over 32 problems a pass), graph building, validation and
  report I/O, no floating point.
* ``exact_atlas``   -- hundreds of distinct conjugacy problems that all miss
  the cache, so the exhaustive search dominates.
* ``numeric``       -- finite differences, integrators and quadratures, no
  exact algebra.
"""

from __future__ import annotations

import importlib
import json
import math
import random
import shlex
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import oracle

# The README's CLI examples, in order.  "{seed}" and "{b}" are filled from
# the benchmark seed; every other argument is the README's own.
README_COMMANDS = [
    "graph k3 --out k3.json",
    "topo euler --input k3.json",
    "graph quintic --dual",
    "base build --kind negative --out atlas.json",
    "base holonomy --input atlas.json --loop g1",
    "base check-simple --kind edge --tau 0,0,1",
    "topo sign --triple '[[[1,1,0],[0,1,0],[0,0,1]],[[1,0,-1],[0,1,0],"
    "[0,0,1]],[[1,-1,1],[0,1,0],[0,0,1]]]'",
    "fib list",
    "fib poisson --model positive --samples 1000 --seed {seed} --strict",
    "fib reduce-check --t 0.5 --samples 100 --seed {seed}",
    "fib amoeba --res 200 --out amoeba.json",
    "fib discriminant --model thin_legs --out cloud.json",
    "fib twist --which cutoff --eps 0.1 --seed {seed}",
    "fib smooth1 --sigma one --seed {seed}",
    "periods frame --kind positive --seed {seed}",
    "periods numeric --model generic --b {b}",
    "periods monodromy --model sm_ff --loop circle:0.5",
    "periods monodromy --frame positive --loop g2:1.0",
    "periods extend --chart generic --t0 0.7",
    "germs integral --case negative",
    "germs ell1 --case ff",
]

SETUP_COMMAND = ["fib", "list"]


@dataclass
class Op:
    """One operation: ``run`` computes, ``check`` lists one reason (or None)
    per verified fact, ``summary`` is the op's entry in the pass report."""

    label: str
    run: Callable
    check: Callable
    summary: Callable = lambda out: None


def _mods(*names):
    return [importlib.import_module(n) for n in names]


# ----------------------------------------------------------------------
# cli_readme
# ----------------------------------------------------------------------

def cli_commands(seed):
    """The README commands with seeded --seed and --b values, as argv lists."""
    rnd = random.Random(seed)
    out = []
    for line in README_COMMANDS:
        b = (f"{rnd.uniform(0.10, 0.20):.6f},{rnd.uniform(0.25, 0.35):.6f},"
             f"{rnd.uniform(-0.25, -0.15):.6f}")
        out.append(shlex.split(line.format(seed=rnd.randrange(1, 10**6), b=b)))
    return out


def _rows(path):
    return [[float(v) for v in line.split(",")]
            for line in Path(path).read_text().splitlines() if line]


def _amoeba_cells(res, lo, hi):
    xs = [lo + (hi - lo) * i / (res - 1) for i in range(res)]
    return sum(oracle.in_amoeba(a, b) for a in xs for b in xs)


def check_cli(argv, rep, workdir):
    """Reasons (None when right) for one README command's report."""
    cmd = tuple(argv[:2])
    opt = {argv[i]: argv[i + 1] for i in range(2, len(argv) - 1)
           if argv[i].startswith("--")}
    if cmd == ("graph", "k3"):
        nodes = sum(v["valence"] == 0 for v in rep["graph"]["vertices"])
        return [oracle.check_equal(nodes, oracle.K3_NODES, "k3 nodes"),
                oracle.check_equal(rep["euler"], nodes, "k3 Euler number"),
                None if (workdir / "k3.dot").stat().st_size else "empty k3.dot"]
    if cmd == ("topo", "euler"):
        return [oracle.check_equal(rep["euler"], oracle.K3_NODES, "Euler number")]
    if cmd == ("graph", "quintic"):
        signs = [v["sign"] for v in rep["graph"]["vertices"]]
        pos, neg = signs.count("positive"), signs.count("negative")
        return [oracle.check_equal((len(signs), len(rep["graph"]["edges"]), pos, neg),
                                   oracle.QUINTIC_DUAL, "dual quintic counts"),
                oracle.check_equal(rep["euler"], pos - neg, "dual Euler number"),
                oracle.check_equal(rep["euler"], 200, "dual Euler number")]
    if cmd == ("base", "build"):
        atlas = json.loads((workdir / "atlas.json").read_text())
        return [oracle.check_equal(sorted(atlas["loops"]), ["g1", "g2", "g3"],
                                   "atlas loops")]
    if cmd == ("base", "holonomy"):
        return [oracle.check_equal(oracle.as_matrix(rep["holonomy"]),
                                   oracle.NEGATIVE_TRIPLE[0], "holonomy of g1")]
    if cmd == ("base", "check-simple"):
        point = rep["points"][0]
        return [oracle.check_equal(point["matched_model"], "edge", "matched model"),
                oracle.check_conjugator([oracle.T_GENERIC], [oracle.T_GENERIC],
                                        point["conjugator"])]
    if cmd == ("topo", "sign"):
        return [oracle.check_equal(rep["sign"], "negative", "sign")]
    if cmd == ("fib", "list"):
        return [oracle.check_equal(tuple(rep["models"]), oracle.MODEL_IDS, "models")]
    if cmd == ("fib", "poisson"):
        return [oracle.check_below(rep["max_bracket"], 1e-6, "max Poisson bracket")]
    if cmd == ("fib", "reduce-check"):
        return [oracle.check_below(rep["max_defect"], 1e-6, "reduction defect")]
    if cmd == ("fib", "amoeba"):
        inside = _amoeba_cells(200, -3.0, 3.0)
        cloud = _rows(workdir / "amoeba.csv")
        return [oracle.check_equal(rep["inside_cells"], inside, "amoeba cells"),
                oracle.check_equal(all(oracle.in_amoeba(*r, slack=1e-9) for r in cloud),
                                   True, "amoeba csv inside the amoeba"),
                None if (workdir / "amoeba.svg").stat().st_size else "empty svg"]
    if cmd == ("fib", "discriminant"):
        cloud = _rows(workdir / "cloud.csv")
        return [None if cloud else "empty discriminant cloud",
                oracle.check_equal(all(oracle.in_amoeba(r[1], r[2], slack=1e-9)
                                       for r in cloud), True,
                                   "thin-legs cloud inside the amoeba")]
    if cmd == ("fib", "twist"):
        return [oracle.check_below(rep["flow_error"], 1e-6, "cut-off flow error"),
                oracle.check_below(rep["symplectic_defect"], 1e-6, "symplectic defect")]
    if cmd == ("fib", "smooth1"):
        return [oracle.check_below(rep["seam_derivative_jump"], 1e-4, "seam jump")]
    if cmd == ("periods", "frame"):
        return [oracle.check_below(rep["closedness_defect"], 1e-6, "closedness defect")]
    if cmd == ("periods", "numeric"):
        cov = rep["covectors"]
        return [oracle.check_close(cov["e3"], [0.0, 0.0, 1.0], 1e-4, "e3 period"),
                oracle.check_close(cov["s1_orbit"], [0.0, 2 * math.pi, 0.0], 1e-4,
                                   "S1-orbit period"),
                oracle.check_below(max(rep["quadrature_errors"].values()), 1e-3,
                                   "quadrature error")]
    if cmd == ("periods", "monodromy"):
        want = {"sm_ff": oracle.T_NODE}.get(opt.get("--model"))
        if want is None:
            want = oracle.LOCAL_MODEL_LOOPS["positive"][opt["--loop"].split(":")[0]]
        return [oracle.check_equal(oracle.as_matrix(rep["monodromy"]), want, "monodromy")]
    if cmd == ("periods", "extend"):
        return [oracle.check_close(rep["limit"], float(opt["--t0"]), 1e-4,
                                   "generic chart limit")]
    if cmd == ("germs", "integral"):
        want = {"c": [0, 0], "d": [-1, 0], "e": [0, 1]}
        return [oracle.check_close(rep["reports"][k]["computed"], w, 1e-6,
                                   f"seam {k} integrals") for k, w in want.items()]
    if cmd == ("germs", "ell1"):
        return [oracle.check_close(rep["lower_seam_integral"], [1.0], 1e-6,
                                   "lower seam integral")]
    return [f"no check for {' '.join(argv)}"]


def cli_margins(reports):
    """Accuracy margins read from one pass's README reports."""
    out = {}
    for argv, rep in reports:
        if rep is None:
            continue
        if argv[:2] == ["fib", "poisson"]:
            out["symplab.poisson.max_bracket"] = rep["max_bracket"]
        if argv[:2] == ["periods", "numeric"]:
            out["periods.numeric.max_quad_err"] = max(rep["quadrature_errors"].values())
        if argv[:2] == ["germs", "ell1"]:
            out["germs.seam.max_err"] = abs(rep["lower_seam_integral"][0] - 1.0)
    return out


# ----------------------------------------------------------------------
# in-process workloads
# ----------------------------------------------------------------------

class InProcess:
    """A workload whose pass runs ``ops`` in this process."""

    name = ""
    min_passes = 3

    def setup(self, seed):
        """Imports and inputs: everything before the first operation can run
        (the pass report goes through tfib.report)."""
        self._zlat, _ = _mods("tfib.zlat", "tfib.report")
        self.ops = self.build_ops(seed)
        return self

    def before_pass(self):
        # every CLI process starts with an empty conjugacy cache
        self._zlat._conjugator_cached.cache_clear()

    def margins(self, outputs):
        return {}


def rand_unimodular(rnd, bound=3):
    """A random element of GL(3,Z) with sup-norm <= bound, as a product of
    elementary row moves and a signed permutation."""
    while True:
        m = [list(r) for r in oracle.identity(3)]
        for _ in range(rnd.randint(2, 6)):
            i, j = rnd.sample(range(3), 2)
            c = rnd.choice((-1, 1))
            m[i] = [a + c * b for a, b in zip(m[i], m[j])]
        perm = rnd.sample(range(3), 3)
        signs = [rnd.choice((-1, 1)) for _ in range(3)]
        w = tuple(tuple(s * v for v in m[p]) for s, p in zip(signs, perm))
        if oracle.sup_norm(w) <= bound:
            return w


def conjugacy_problems(rnd, counts=(("generic", 120), ("negative", 60),
                                    ("positive", 60), ("control", 20))):
    """Distinct conjugacy problems (kind, sources, targets, witness).

    A witness W of sup-norm <= 3 gives the sources W B W^{-1} of the targets
    B, so the bounded search is promised to succeed; a control conjugates
    the opposite-sign triple, which no GL(3,Z) matrix takes to B.  Problems
    whose sources equal their targets are skipped, so each is a search.
    """
    targets = {"generic": (oracle.T_GENERIC,), "negative": oracle.NEGATIVE_TRIPLE,
               "positive": oracle.POSITIVE_TRIPLE}
    seen = set()
    out = []
    for kind, count in counts:
        made = 0
        while made < count:
            w = rand_unimodular(rnd)
            if kind == "control":
                sign = rnd.choice(("negative", "positive"))
                other = "positive" if sign == "negative" else "negative"
                src = tuple(oracle.conjugate(w, t) for t in targets[other])
                tgt, witness = targets[sign], None
            else:
                tgt = targets[kind]
                src = tuple(oracle.conjugate(w, t) for t in tgt)
                witness = w
            if src == tgt or (src, tgt) in seen:
                continue
            seen.add((src, tgt))
            out.append((kind, src, tgt, witness))
            made += 1
    return out


def rand_tau(rnd):
    """Rational tau polynomial with tau(0) = 0."""
    return [Fraction(0)] + [Fraction(rnd.randint(-9, 9), rnd.randint(1, 9))
                            for _ in range(rnd.randint(1, 3))]


def loop_words(rnd, kind, count=25):
    names = sorted(oracle.LOCAL_MODEL_LOOPS[kind])
    return [[rnd.choice(names) for _ in range(rnd.randint(1, 6))] for _ in range(count)]


class ExactQuintic(InProcess):
    name = "exact_quintic"
    # quintic neighbours sit at distance sqrt(1/18) > 23/100
    max_radius = 23

    def inputs(self, seed):
        return {"radius": Fraction(random.Random(seed).randint(1, self.max_radius), 100)}

    def build_ops(self, seed):
        polybase, topo, report = _mods("tfib.polybase", "tfib.topo", "tfib.report")
        radius = self.inputs(seed)["radius"]
        state = {}

        def k3():
            g = polybase.build_k3_graph(polybase.LatticeSimplexBoundary(3))
            return g, topo.euler_characteristic(g, 2)

        def quintic():
            b = polybase.LatticeSimplexBoundary(4)
            g = polybase.classify_signs(polybase.build_quintic_graph(b), b)
            state["quintic"] = g
            return g, topo.euler_characteristic(g, 3)

        def dual():
            g = polybase.legendre_dual(state["quintic"])
            state["dual"] = g
            return g, topo.euler_characteristic(g, 3)

        def thicken():
            g = polybase.localized_thickening(state["quintic"], radius)
            state["thick"] = g
            return g

        def round_trip():
            text = report.canonical_json({"graph": polybase.graph_to_json(state["thick"])})
            return text, polybase.graph_from_json(json.loads(text)["graph"])

        def validate(which):
            def run():
                g = state[which]
                assignment = topo.canonical_assignment(g)
                return g, assignment, topo.validate_semistable(g, assignment)
            return run

        return [
            Op("k3", k3, check_k3, lambda o: {"euler": o[1], "vertices": len(o[0].vertices)}),
            Op("quintic", quintic, lambda o: check_graph(o, oracle.QUINTIC),
               lambda o: {"euler": o[1], "edges": len(o[0].edges)}),
            Op("dual", dual, lambda o: check_graph(o, oracle.QUINTIC_DUAL),
               lambda o: {"euler": o[1], "edges": len(o[0].edges)}),
            Op("thicken", thicken, lambda g: check_thickening(g, radius),
               lambda g: {"thickened": len(g.thickening), "radius": radius}),
            Op("json", round_trip, lambda o: [oracle.check_equal(
                o[1] == state["thick"], True, "graph JSON round trip")],
               lambda o: {"bytes": len(o[0])}),
            Op("validate_quintic", validate("quintic"), check_validation,
               lambda o: o[2].to_json()),
            Op("validate_dual", validate("dual"), check_validation,
               lambda o: o[2].to_json()),
        ]


def check_k3(out):
    g, euler = out
    nodes = sum(v.valence == 0 for v in g.vertices)
    return [oracle.check_equal((len(g.vertices), nodes), (oracle.K3_NODES,) * 2, "K3 nodes"),
            oracle.check_equal(euler, nodes, "K3 Euler number")]


def _components(n, edges):
    adj = [[] for _ in range(n)]
    for e in edges:
        adj[e.a].append(e.b)
        adj[e.b].append(e.a)
    seen, parts = set(), 0
    for s in range(n):
        if s in seen:
            continue
        parts += 1
        stack = [s]
        seen.add(s)
        while stack:
            for t in adj[stack.pop()]:
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
    return parts


def check_graph(out, counts):
    g, euler = out
    signs = [v.sign for v in g.vertices]
    pos, neg = signs.count("positive"), signs.count("negative")
    degree = [0] * len(g.vertices)
    for e in g.edges:
        degree[e.a] += 1
        degree[e.b] += 1
    return [oracle.check_equal((len(g.vertices), len(g.edges), pos, neg), counts, "counts"),
            oracle.check_equal(set(degree), {3}, "valences"),
            oracle.check_equal(_components(len(g.vertices), g.edges), 1, "components"),
            oracle.check_equal(euler, pos - neg, "Euler number")]


def check_thickening(g, radius):
    negative = [i for i, v in enumerate(g.vertices) if v.sign == "negative"]
    return [oracle.check_equal(sorted(t.vertex for t in g.thickening), negative,
                               "thickened vertices"),
            oracle.check_equal({t.radius for t in g.thickening}, {radius}, "radius")]


def check_validation(out):
    """Every validation item's conjugator verified against the assignment."""
    g, assignment, rep = out
    signed = [i for i, v in enumerate(g.vertices) if v.sign in ("positive", "negative")]
    reasons = [oracle.check_equal(len(rep.items), len(g.edges) + 4 * len(signed),
                                  "validation items")]
    edges = assignment.edge_matrices
    for i in signed:
        want = (oracle.NEGATIVE_TRIPLE if g.vertices[i].sign == "negative"
                else oracle.POSITIVE_TRIPLE)
        reasons.append(oracle.check_equal(
            tuple(oracle.as_matrix(m) for m in assignment.vertex_triples[i][1]),
            want, f"vertex {i} triple"))
    for item in rep.items:
        words = item.element.split()
        if len(words) == 2 and words[0] == "edge":
            src, tgt = [edges[int(words[1])]], [oracle.T_GENERIC]
        elif len(words) == 2:
            src = list(assignment.vertex_triples[int(words[1])][1])
            tgt = (oracle.NEGATIVE_TRIPLE if g.vertices[int(words[1])].sign == "negative"
                   else oracle.POSITIVE_TRIPLE)
        else:
            edge_ids, mats = assignment.vertex_triples[int(words[1])]
            j = int(words[4])
            src, tgt = [edges[j]], [mats[edge_ids.index(j)]]
        reasons.append(oracle.check_conjugator(src, tgt, item.conjugator)
                       if item.valid else f"{item.element} reported invalid")
    return reasons


class ExactAtlas(InProcess):
    name = "exact_atlas"

    def inputs(self, seed):
        rnd = random.Random(seed)
        problems = conjugacy_problems(rnd)
        models = [(kind, rand_tau(rnd), loop_words(rnd, kind))
                  for kind in ("node", "edge", "positive", "negative")]
        return {"problems": problems, "models": models}

    def build_ops(self, seed):
        zlat, affine = _mods("tfib.zlat", "tfib.affine")
        inp = self.inputs(seed)
        ops = []
        for n, (kind, src, tgt, witness) in enumerate(inp["problems"]):
            def run(src=src, tgt=tgt):
                return zlat.simultaneous_conjugator(list(src), list(tgt), bound=3)
            if witness is None:
                check = lambda p: [oracle.check_none(p)]
            else:
                check = lambda p, src=src, tgt=tgt: [oracle.check_conjugator(src, tgt, p)]
            ops.append(Op(f"conj.{n}.{kind}", run, check,
                          lambda p: None if p is None else [list(r) for r in p]))
        for kind, tau, words in inp["models"]:
            ops.append(Op(f"simple.{kind}", self._simple(affine, kind, tau),
                          lambda rep, kind=kind: check_simple(kind, rep),
                          lambda rep: rep.to_json()))
            base = affine.build_local_model(kind, affine.Polynomial(tau))
            for w, word in enumerate(words):
                ops.append(Op(f"holonomy.{kind}.{w}", self._holonomy(affine, base, word),
                              lambda h, kind=kind, word=word: [check_holonomy(kind, word, h)],
                              lambda h: [list(r) for r in h]))
        return ops

    @staticmethod
    def _simple(affine, kind, tau):
        def run():
            base = affine.build_local_model(kind, affine.Polynomial(tau))
            base = affine.base_from_json(json.loads(json.dumps(affine.base_to_json(base))))
            return affine.check_simple(base)
        return run

    @staticmethod
    def _holonomy(affine, base, word):
        def run():
            loop = base.loops[word[0]]
            for name in word[1:]:
                loop = loop * base.loops[name]
            return affine.holonomy(base, loop)
        return run


def check_holonomy(kind, word, h):
    gens = oracle.LOCAL_MODEL_LOOPS[kind]
    n = len(next(iter(gens.values())))
    return oracle.check_equal(oracle.as_matrix(h), oracle.product([gens[g] for g in word], n),
                              f"holonomy of {'.'.join(word)}")


def check_simple(kind, rep):
    """The single singular point is matched to its own model by a verified
    conjugator, in the given or the orientation-reversed order."""
    (verdict,) = rep.verdicts
    gens = oracle.LOCAL_MODEL_LOOPS[kind]
    mats = [gens[name] for name in sorted(gens)]
    target = {"node": [oracle.T_NODE], "edge": [oracle.T_GENERIC],
              "negative": oracle.NEGATIVE_TRIPLE,
              "positive": oracle.POSITIVE_TRIPLE}[kind]
    reversed_mats = [oracle.inverse(m) for m in reversed(mats)]
    direct = oracle.check_conjugator(mats, target, verdict.conjugator)
    flipped = oracle.check_conjugator(reversed_mats, target, verdict.conjugator)
    return [oracle.check_equal((verdict.simple, verdict.matched_model), (True, kind),
                               "simplicity verdict"),
            direct if flipped is not None else None]


class Numeric(InProcess):
    name = "numeric"
    # thin_legs is left out: its map switches branch on spheres that its
    # margin does not declare, so poisson_check accepts samples whose
    # stencils straddle a switch (brackets of 10..2000 on some seeds)
    lagrangian = ("amoeba", "generic", "hl", "leg_d", "leg_h", "leg_v", "positive",
                  "sm_ff", "stitched_ff")
    # base points (centre, half-width) inside each model's period domain
    period_points = {"sm_ff": ([0.2, 0.4], 0.05),
                     "generic": ([0.15, 0.3, -0.2], 0.05),
                     "thin_legs": ([0.3, -0.2, -0.15], 0.05),
                     "positive": ([0.3, 0.2, -0.4], 0.05)}
    frame_loops = (("focus_focus", "loop"), ("generic", "loop"), ("positive", "g1"),
                   ("positive", "g2"), ("positive", "g3"))

    def inputs(self, seed):
        """Every seeded input of the numeric pass, drawn in a fixed order."""
        np, symplab = _mods("numpy", "tfib.symplab")
        rng = np.random.default_rng(seed)
        poisson = {mid: symplab.sample_domain(symplab.make_model(mid), 2000, rng, margin=0.1)
                   for mid in self.lagrangian + ("control",)}
        pts = rng.uniform(-1.5, 1.5, size=(200, 4))
        u = rng.normal(size=(100, 2)) + 1j * rng.normal(size=(100, 2))
        bases = [(mid, k, [c + rng.uniform(-half, half) for c in centre])
                 for mid, (centre, half) in self.period_points.items() for k in range(2)]
        a0 = rng.uniform(-1.0, 1.0, size=(8, 3))
        a0[:, 0] = np.copysign(np.maximum(np.abs(a0[:, 0]), 0.05), a0[:, 0])
        loops = [(kind, loop, k, float(rng.uniform(0.1, 1.0)),
                  {"b3": float(rng.uniform(-0.5, 0.5))} if kind == "generic" else {})
                 for kind, loop in self.frame_loops for k in range(2)]
        return {
            "poisson": poisson,
            "reduction": pts[:, 0::2] + 1j * pts[:, 1::2],
            "twist": u,
            "periods": bases,
            "a0": a0,
            "loops": loops,
            "t_generic": float(rng.uniform(0.3, 0.9)),
            "t_positive": -float(rng.uniform(0.4, 0.9)),
            "seams": [(-float(rng.uniform(0.2, 0.9)), 1.0), (float(rng.uniform(0.2, 0.9)), 0.0)],
        }

    def build_ops(self, seed):
        np, symplab, periods, germs = _mods("numpy", "tfib.symplab", "tfib.periods",
                                            "tfib.germs")
        inp = self.inputs(seed)
        ops = []
        for mid, z in inp["poisson"].items():
            ops.append(Op(f"poisson.{mid}", self._poisson(symplab, mid, z),
                          (lambda v: [oracle.check_above(v, 1e-2, "control bracket")])
                          if mid == "control" else
                          (lambda v, mid=mid: [oracle.check_below(v, 1e-6, f"{mid} bracket")]),
                          lambda v: v))
        samples = inp["reduction"]
        for t in (0.0, 0.5, 1.0):
            use = samples[np.abs(samples[:, 0]) > 0.05] if t == 0.0 else samples
            ops.append(Op(f"reduction.{t}", lambda t=t, use=use: symplab.reduction_check(t, use),
                          lambda v: [oracle.check_below(v, 1e-6, "reduction defect")],
                          lambda v: v))
        for which in ("h0", "cutoff"):
            ops.append(Op(f"twist.{which}", self._twist(np, symplab, which, inp["twist"]),
                          lambda v: [oracle.check_below(v[0], 1e-6, "flow error"),
                                     oracle.check_below(v[1], 1e-6, "symplectic defect")],
                          lambda v: list(v)))
        for mid, k, b in inp["periods"]:
            ops.append(Op(f"periods.{mid}.{k}", self._periods(symplab, periods, mid, b),
                          lambda r, mid=mid, b=b: check_periods(mid, b, r),
                          lambda r: {"covectors": r.covectors, "errors": r.errors}))
        for k, b in enumerate(inp["a0"]):
            flip = [-b[0], b[1], b[2]]
            ops.append(Op(f"a0.{k}", lambda b=b, flip=flip: (periods.positive_a0(b),
                                                            periods.positive_a0(flip)),
                          lambda v: [oracle.check_below(abs(v[0] + v[1]), 1e-6, "a0 oddness")],
                          lambda v: list(v)))
        for kind, loop, k, radius, kw in inp["loops"]:
            ops.append(Op(f"monodromy.{kind}.{loop}.{k}",
                          self._monodromy(periods, kind, loop, radius, kw),
                          lambda m, kind=kind, loop=loop: [check_monodromy(kind, loop, m)],
                          lambda m: [list(r) for r in m]))
        t_gen, t_pos = inp["t_generic"], inp["t_positive"]
        extensions = [
            ("focus_focus", {}, lambda s: [(1.0 - s) * 0.5, 0.0], 0.0),
            ("generic", {"h": lambda b: b[2]},
             lambda s: [(1 - s) * 0.3, (1 - s) * 0.2, t_gen + (1 - s) * 0.1], t_gen),
            ("positive", {"h": lambda b: 0.5 * b[2]},
             lambda s: [(1 - s) * 0.3, (1 - s) * 0.1, t_pos - (1 - s) * 0.1], 0.5 * t_pos),
        ]
        for kind, kw, path, want in extensions:
            ops.append(Op(f"extend.{kind}",
                          lambda kind=kind, kw=kw, path=path: periods.action_extension_check(
                              periods.action_chart(kind, **kw), path),
                          lambda r, want=want: [oracle.check_close(r.limit, want, 1e-4,
                                                                   "chart limit")],
                          lambda r: r.to_json()))
        for b2, want in inp["seams"]:
            ops.append(Op(f"seam.{'lower' if want else 'upper'}", self._seam(germs, b2, want),
                          lambda r, want=want: [oracle.check_close(float(r.computed[0]), want,
                                                                   1e-6, "seam integral")],
                          lambda r: r.to_json()))
        return ops

    @staticmethod
    def _poisson(symplab, mid, z):
        return lambda: symplab.poisson_check(symplab.make_model(mid), z, step=1e-4)

    @staticmethod
    def _twist(np, symplab, which, u):
        def run():
            if which == "h0":
                ham = symplab.h0_quarter_turn
                c = 1.0 / math.sqrt(2.0)
                start = u
                want = np.stack([c * (u[:, 0] - u[:, 1]), c * (u[:, 0] + u[:, 1])], axis=-1)
            else:
                ham = symplab.cutoff_hamiltonian(0.1)
                norms = np.sqrt(np.sum(np.abs(u) ** 2, axis=1))
                start = want = u / norms[:, None] * math.sqrt(0.4)
            flow = symplab.hamiltonian_twist(ham)
            err = float(np.max(np.abs(flow(start) - want)))
            return err, symplab.symplecticity_defect(flow, 0.3 * u[:20])
        return run

    @staticmethod
    def _periods(symplab, periods, mid, b):
        return lambda: periods.numeric_periods(symplab.make_model(mid), b)

    @staticmethod
    def _monodromy(periods, kind, loop, radius, kw):
        def run():
            frame = periods.closed_form_frame(kind)
            return periods.monodromy_from_frame(frame, frame.loops[loop](radius, **kw))
        return run

    @staticmethod
    def _seam(germs, b2, want):
        def run():
            seq = germs.stitched_ff_ell1_sequence()
            return germs.integral_condition(seq, [want], base=b2)
        return run

    def margins(self, outputs):
        out = {"symplab.poisson.max_bracket": 0.0, "periods.numeric.max_quad_err": 0.0,
               "germs.seam.max_err": 0.0, "periods.a0.odd_defect": 0.0}
        for op, (value, err) in zip(self.ops, outputs):
            if err is not None:
                continue
            kind = op.label.split(".")[0]
            if kind == "poisson" and not op.label.endswith("control"):
                key, v = "symplab.poisson.max_bracket", value
            elif kind == "periods":
                key, v = "periods.numeric.max_quad_err", max(value.errors.values())
            elif kind == "seam":
                key, v = "germs.seam.max_err", float(abs(value.computed[0] - value.expected[0]))
            elif kind == "a0":
                key, v = "periods.a0.odd_defect", abs(value[0] + value[1])
            else:
                continue
            out[key] = max(out[key], float(v))
        return out


def check_periods(mid, b, res):
    cov = {k: [float(x) for x in v] for k, v in res.covectors.items()}
    two_pi = 2 * math.pi
    if mid == "sm_ff":
        want = {"s1_orbit": ([0.0, two_pi], 1e-4)}
    elif mid == "generic":
        want = {"e3": ([0.0, 0.0, 1.0], 1e-4), "s1_orbit": ([0.0, two_pi, 0.0], 1e-4)}
    elif mid == "positive":
        want = {"c2": ([0.0, two_pi, 0.0], 1e-4), "c3": ([0.0, 0.0, two_pi], 1e-4)}
    else:
        # thin legs: the reduced cycles pair to -e^{2 b_j} with db_j (1%)
        v1, v2 = -math.exp(2 * b[1]), -math.exp(2 * b[2])
        return [oracle.check_close(cov["red_v1"][1], v1, 0.01 * abs(v1), "red_v1 period"),
                oracle.check_close(cov["red_v2"][2], v2, 0.01 * abs(v2), "red_v2 period")]
    return [oracle.check_close(cov[k], v, tol, f"{k} period") for k, (v, tol) in want.items()]


def check_monodromy(kind, loop, m):
    want = {"focus_focus": oracle.T_NODE, "generic": oracle.T_GENERIC}.get(kind)
    if want is None:
        want = oracle.LOCAL_MODEL_LOOPS["positive"][loop]
    return oracle.check_equal(oracle.as_matrix(m), want, f"{kind} {loop} monodromy")


IN_PROCESS = {w.name: w for w in (ExactQuintic, ExactAtlas, Numeric)}
WORKLOADS = ("cli_readme",) + tuple(IN_PROCESS)
