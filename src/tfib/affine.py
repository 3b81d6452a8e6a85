"""Charted integral affine manifolds with singularities.

A base is a list of charts plus overlap pieces carrying affine-integral
transitions; holonomy along loop words is a purely combinatorial product
of transition linear parts, so no floating point enters this module.

Conventions (fixed once):

* an overlap piece stores the transition from its ``chart_a`` coordinates
  to its ``chart_b`` coordinates; crossing b -> a uses the inverse;
* holonomy is the parallel transport of the *cotangent* frame back to the
  base chart: a crossing with linear part L contributes C = (L^t)^{-1},
  and a word with contributions C_1, ..., C_k (in crossing order) maps to
  C_k ... C_1, each new contribution multiplied on the left.  So a
  concatenation w1 w2 goes to hol(w2) hol(w1), and re-charting the base
  chart by A_0 turns a holonomy H into A_0^{-t} H A_0^t while re-charting
  any other chart leaves it unchanged;
* loops in the local models are oriented so that the node model's
  anticlockwise generator maps to T = [[1,0],[1,1]].
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import zlat
from .zlat import AffineMapZ, IntMatrix


@dataclass(frozen=True)
class Chart:
    id: str
    dim: int
    region: str = ""


@dataclass(frozen=True)
class OverlapPiece:
    """One connected piece of a chart overlap, with its transition a -> b."""

    id: str
    chart_a: str
    chart_b: str
    region: str
    transition: AffineMapZ


@dataclass(frozen=True)
class Crossing:
    """A directed traversal of an overlap piece."""

    piece: str
    frm: str
    to: str


@dataclass(frozen=True)
class LoopWord:
    base_chart: str
    crossings: Tuple[Crossing, ...]

    def __mul__(self, other: "LoopWord") -> "LoopWord":
        if other.base_chart != self.base_chart:
            raise ValueError("loop words based at different charts")
        return LoopWord(self.base_chart, self.crossings + other.crossings)


class Polynomial:
    """Univariate polynomial with exact rational coefficients (tau handles),
    constant term first, each read by `zlat.rational`."""

    def __init__(self, coeffs: Sequence):
        self.coeffs = (tuple(zlat.rational(c, "tau coefficients") for c in coeffs)
                       or (Fraction(0),))

    def __call__(self, s):
        """The exact value at ``s`` (an int or a Fraction), by Horner."""
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * s + c
        return acc

    def to_json(self) -> list:
        return [str(c) for c in self.coeffs]

    @staticmethod
    def from_json(data) -> "Polynomial":
        """From a JSON array of exact rational strings (or integers)."""
        return Polynomial(zlat.json_array(data, "tau"))

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs


ZERO_TAU = Polynomial([0])


@dataclass
class ChartedBase:
    """Atlas of an integral affine manifold with singularities."""

    dim: int
    charts: List[Chart]
    pieces: List[OverlapPiece]
    discriminant: dict = field(default_factory=dict)
    tau: Polynomial = field(default_factory=lambda: ZERO_TAU)
    loops: Dict[str, LoopWord] = field(default_factory=dict)
    singular_points: List[dict] = field(default_factory=list)

    def __post_init__(self):
        self._pieces_by_id = {p.id: p for p in self.pieces}
        self._chart_ids = {c.id for c in self.charts}
        for p in self.pieces:
            if p.chart_a not in self._chart_ids or p.chart_b not in self._chart_ids:
                raise ValueError(f"overlap piece {p.id} references unknown chart")
        # the cotangent contribution of each crossing, keyed (piece, from,
        # to): (L^t)^{-1} for a -> b and L^t for b -> a; a piece from a chart
        # to itself is crossed a -> b, as in `crossing_transition`
        self._cotangent = {}
        for p in self._pieces_by_id.values():
            lin = p.transition.linear
            self._cotangent[p.id, p.chart_b, p.chart_a] = zlat.transpose(lin)
            self._cotangent[p.id, p.chart_a, p.chart_b] = zlat.inverse_transpose(lin)

    def piece(self, piece_id: str) -> OverlapPiece:
        if piece_id not in self._pieces_by_id:
            raise ValueError(f"unknown overlap piece {piece_id!r}")
        return self._pieces_by_id[piece_id]

    def crossing_transition(self, crossing: Crossing) -> AffineMapZ:
        p = self.piece(crossing.piece)
        if (crossing.frm, crossing.to) == (p.chart_a, p.chart_b):
            return p.transition
        if (crossing.frm, crossing.to) == (p.chart_b, p.chart_a):
            return zlat.invert(p.transition)
        raise ValueError(
            f"crossing {crossing} does not match piece {p.id} "
            f"({p.chart_a} <-> {p.chart_b})"
        )

    def cotangent(self, crossing: Crossing) -> IntMatrix:
        """The holonomy contribution (L^t)^{-1} of a crossing whose
        transition has linear part L, from the table `__post_init__` built;
        a crossing that does not match its piece raises ValueError."""
        key = (crossing.piece, crossing.frm, crossing.to)
        if key not in self._cotangent:
            self.crossing_transition(crossing)  # raises: unknown piece or charts
        return self._cotangent[key]


def holonomy(base: ChartedBase, loop: LoopWord) -> IntMatrix:
    """Cotangent holonomy of a loop word (exact integer matrix).

    Each crossing with transition linear part L contributes C = (L^t)^{-1},
    and each contribution multiplies the product so far on the left
    (transport back to the base chart), so hol(w1 w2) = hol(w2) hol(w1).
    The contributions are read from `ChartedBase.cotangent`, which holds
    both directions of every piece, so no transition is inverted per call.
    """
    if loop.base_chart not in base._chart_ids:
        raise ValueError(f"unknown base chart {loop.base_chart}")
    current = loop.base_chart
    acc = zlat.identity(base.dim)
    for crossing in loop.crossings:
        if crossing.frm != current:
            raise ValueError(
                f"crossing sequence broken: at {current}, next crossing "
                f"leaves from {crossing.frm}"
            )
        acc = zlat.mat_mul(base.cotangent(crossing), acc)
        current = crossing.to
    if current != loop.base_chart:
        raise ValueError("loop word does not return to its base chart")
    return acc


def check_cocycle(base: ChartedBase) -> Optional[str]:
    """The first failure of the exact cocycle condition, or None.

    Two pieces on one region between the same two charts must agree: two
    a -> b pieces are equal, and a b -> a piece is the inverse.  On a
    region shared by three distinct charts a, b, c, the transition a -> c
    must be a -> b followed by b -> c.  One order of each triple is
    composed, as the others follow from it by inverses; a piece composed
    with its own inverse holds by construction.
    """
    by_region: Dict[str, Dict[Tuple[str, str], OverlapPiece]] = {}
    for p in base.pieces:
        if p.chart_a == p.chart_b:
            continue
        stored = by_region.setdefault(p.region, {})
        if (p.chart_a, p.chart_b) in stored:
            first, same = stored[p.chart_a, p.chart_b], p.transition
        elif (p.chart_b, p.chart_a) in stored:
            first, same = stored[p.chart_b, p.chart_a], zlat.invert(p.transition)
        else:
            stored[p.chart_a, p.chart_b] = p
            continue
        if first.transition != same:
            return (f"atlas is not a cocycle on region {p.region!r}: pieces "
                    f"{first.id} and {p.id} glue the same charts differently")
    for region, stored in by_region.items():
        def transition(a, b):
            if (a, b) in stored:
                return stored[a, b].transition
            return zlat.invert(stored[b, a].transition) if (b, a) in stored else None

        charts = sorted({c for pair in stored for c in pair})
        for i, a in enumerate(charts):
            for j, b in enumerate(charts[i + 1:], i + 1):
                for c in charts[j + 1:]:
                    ab, bc, ac = transition(a, b), transition(b, c), transition(a, c)
                    if None not in (ab, bc, ac) and zlat.compose(bc, ab) != ac:
                        return (f"atlas is not a cocycle on region {region!r}: "
                                f"{a} -> {b} -> {c} is not {a} -> {c}")
    return None


# ----------------------------------------------------------------------
# the local models
# ----------------------------------------------------------------------

_T1, _T2, _ = zlat.NEGATIVE_TRIPLE
_I3 = zlat.identity(3)
_G = {"g": [("Hminus", "U1", "U2"), ("Hplus", "U2", "U1")]}

#: chart id -> region of each local model
_REGIONS = {
    "node": {"U1": "R^2 minus the ray {x2=0, x1>=0}",
             "U2": "R^2 minus the ray {x2=0, x1<=0}"},
    "edge": {"U1": "(R^2 x I) minus {(x1,0,s): x1 >= tau(s)}",
             "U2": "(R^2 x I) minus {(x1,0,s): x1 <= tau(s)}"},
    "positive": {"U1": "R^3 minus R+ = {x1 >= tau} x Delta",
                 "U2": "R^3 minus R- = {x1 <= tau} x Delta"},
    "negative": {"U1": "R^3 minus (closure C2 u closure C3)",
                 "U2": "R^3 minus (closure C1 u closure C3)",
                 "U3": "R^3 minus (closure C1 u closure C2)"},
}

#: overlap pieces (id, chart_a, chart_b, region, linear part of the a -> b
#: transition) and loop words {name: [(piece, from, to), ...]} based at U1
_MODELS = {
    "node": ([("Hplus", "U1", "U2", "Hplus", zlat.identity(2)),
              ("Hminus", "U1", "U2", "Hminus", zlat.inverse_transpose(zlat.T_NODE))], _G),
    "edge": ([("Hplus", "U1", "U2", "Hplus", _I3),
              ("Hminus", "U1", "U2", "Hminus", zlat.inverse_transpose(zlat.T_GENERIC))], _G),
    "positive": ([("V1", "U1", "U2", "V1", _I3),
                  ("V2", "U1", "U2", "V2", zlat.inverse(_T1)),
                  ("V3", "U1", "U2", "V3", _T2)],
                 {"g1": [("V1", "U1", "U2"), ("V2", "U2", "U1")],
                  "g2": [("V3", "U1", "U2"), ("V1", "U2", "U1")],
                  "g3": [("V2", "U1", "U2"), ("V3", "U2", "U1")]}),
    "negative": ([("12+", "U1", "U2", "Vplus", zlat.inverse_transpose(_T1)),
                  ("12-", "U1", "U2", "Vminus", _I3),
                  ("13+", "U1", "U3", "Vplus", _I3),
                  ("13-", "U1", "U3", "Vminus", zlat.inverse_transpose(_T2)),
                  ("23+", "U2", "U3", "Vplus", zlat.transpose(_T1)),
                  ("23-", "U2", "U3", "Vminus", zlat.inverse_transpose(_T2))],
                 {"g1": [("12+", "U1", "U2"), ("12-", "U2", "U1")],
                  "g2": [("13-", "U1", "U3"), ("13+", "U3", "U1")],
                  "g3": [("12-", "U1", "U2"), ("23+", "U2", "U3"), ("13-", "U3", "U1")]}),
}


def _discriminant(kind: str, tau: Polynomial) -> dict:
    """The node point, the edge curve or the trivalent vertex of ``kind``."""
    if kind == "node":
        return {"kind": "node", "points": [["0", "0"]]}
    if kind == "edge":
        return {"kind": "edge_curve", "curve": "(tau(s), 0, s)", "plane": "{x2=0}",
                "tau": tau.to_json()}
    return {
        "kind": "trivalent_vertex",
        "sign": kind,
        "legs": ["{x2=0, x3<=0}", "{x3=0, x2<=0}", "{x2=x3>=0}"],
        "plane": "{x1=0}" if kind == "negative" else "graph of tau over R = R x Delta",
        "tau": tau.to_json(),
    }


def build_local_model(kind: str, tau: Optional[Polynomial] = None) -> ChartedBase:
    """The node/edge/positive/negative singular affine local models.

    ``tau`` perturbs the discriminant inside its holonomy-invariant plane
    (edge: the curve (tau(s), 0, s); positive/negative: graph of tau over
    the legs).  For the vertex kinds tau must vanish at the vertex; the
    node model has no handle.
    """
    if kind not in _REGIONS:
        raise ValueError(f"unsupported local model kind: {kind}")
    tau = ZERO_TAU if tau is None or kind == "node" else tau
    if tau(Fraction(0)) != 0:
        raise ValueError("tau must vanish at the vertex: tau(0) != 0")
    dim = 2 if kind == "node" else 3
    pieces, loops = _MODELS[kind]
    return ChartedBase(
        dim=dim,
        charts=[Chart(c, dim, region) for c, region in _REGIONS[kind].items()],
        pieces=[OverlapPiece(i, a, b, region, AffineMapZ.from_linear(linear))
                for i, a, b, region, linear in pieces],
        discriminant=_discriminant(kind, tau),
        tau=tau,
        loops={name: LoopWord("U1", tuple(Crossing(*c) for c in word))
               for name, word in loops.items()},
        singular_points=[{"id": kind + "0" if kind in ("node", "edge") else "vertex0",
                          "type": kind, "loops": sorted(loops)}],
    )


# ----------------------------------------------------------------------
# simplicity
# ----------------------------------------------------------------------

@dataclass
class PointVerdict:
    point_id: str
    simple: bool
    matched_model: Optional[str]
    conjugator: Optional[IntMatrix]
    detail: str = ""


@dataclass
class SimplicityReport:
    verdicts: List[PointVerdict]

    @property
    def simple(self) -> bool:
        return all(v.simple for v in self.verdicts)

    def to_json(self) -> dict:
        return {
            "passed": self.simple,
            "points": [
                {
                    "id": v.point_id,
                    "simple": v.simple,
                    "matched_model": v.matched_model,
                    "conjugator": v.conjugator,
                    "detail": v.detail,
                }
                for v in self.verdicts
            ],
        }


def _reversed_triple(triple):
    return tuple(zlat.inverse(m) for m in reversed(triple))


def check_simple(base: ChartedBase) -> SimplicityReport:
    """Per-singular-point conjugacy verdicts against the local models.

    n = 2: the punctured-neighborhood holonomy must be GL(2,Z)-conjugate
    to the node generator.  n = 3: an edge generator must be conjugate to
    the generic 3x3 generator; a vertex loop triple must be simultaneously
    conjugate to the standard triple of its sign (`zlat.vertex_sign`: the
    negative triple or its inverse transposes), in the given or the
    orientation-reversed order.  Conjugacy is decided exactly by
    ``zlat.simultaneous_conjugator``, so a point that is not simple has
    holonomy conjugate to no local model in any chart, or its record
    declares a ``type`` other than the model its holonomy matches.
    """
    if not base.singular_points:
        raise ValueError("base carries no discriminant point records")
    verdicts = []
    for record in base.singular_points:
        mats = [holonomy(base, base.loops[name]) for name in record["loops"]]
        verdict = _classify_point(record["id"], base.dim, mats)
        declared = record.get("type", verdict.matched_model)
        if verdict.simple and declared != verdict.matched_model:
            verdict = replace(verdict, simple=False,
                              detail=f"declared type {declared!r}, but the holonomy "
                                     f"matched {verdict.matched_model}")
        verdicts.append(verdict)
    return SimplicityReport(verdicts)


def _classify_point(point_id: str, dim: int, mats) -> PointVerdict:
    # the one model the holonomy can match: one 2x2 matrix is a node, one
    # 3x3 matrix an edge, and a 3x3 triple the vertex of its sign
    shape = (dim, len(mats))
    if shape == (3, 3):
        model = zlat.vertex_sign(mats)
    else:
        model = {(2, 1): "node", (3, 1): "edge"}.get(shape)
    if model is None:
        return PointVerdict(
            point_id, False, None, None,
            detail=f"no local model has {len(mats)} loop(s) in dimension {dim} with "
                   f"a common fixed space of dimension {zlat.fixed_space_dimension(mats)}")
    for candidate, tag in (
        (mats, ""),
        (list(_reversed_triple(mats)), " (orientation reversed)"),
    ):
        conj = zlat.simultaneous_conjugator(candidate, zlat.STANDARD[model])
        if conj is not None:
            return PointVerdict(point_id, True, model, conj,
                                detail=f"matched {model}{tag}")
    return PointVerdict(
        point_id, False, None, None,
        detail=f"holonomy not GL({dim},Z)-conjugate to the {model} generators "
               "in either loop order; Smith forms of holonomy - I "
               f"{[zlat.smith_invariants(zlat.mat_sub(m, zlat.identity(dim))) for m in mats]}",
    )


# ----------------------------------------------------------------------
# JSON atlas format
# ----------------------------------------------------------------------

def base_to_json(base: ChartedBase) -> dict:
    return {
        "dim": base.dim,
        "charts": [{"id": c.id, "dim": c.dim, "region": c.region}
                   for c in base.charts],
        "pieces": [
            {
                "id": p.id,
                "chart_a": p.chart_a,
                "chart_b": p.chart_b,
                "region": p.region,
                "transition": zlat.affine_to_json(p.transition),
            }
            for p in base.pieces
        ],
        "discriminant": base.discriminant,
        "tau": base.tau.to_json(),
        "loops": {
            name: {
                "base_chart": w.base_chart,
                "crossings": [[c.piece, c.frm, c.to] for c in w.crossings],
            }
            for name, w in base.loops.items()
        },
        "singular_points": base.singular_points,
    }


def _strings(values, what: str) -> None:
    bad = [v for v in values if not isinstance(v, str)]
    if bad:
        raise ValueError(f"{what} must be strings, got {bad[0]!r}")


def base_from_json(data: dict) -> ChartedBase:
    """Inverse of ``base_to_json``.  A document of another shape raises
    ValueError, and so does one that contradicts itself: a chart or a
    transition of another dimension than the atlas, a loop that is not a
    closed walk through the pieces from its base chart (`holonomy` raises
    on it), an atlas that is not a cocycle (`check_cocycle`), or a
    ``discriminant`` record other than `_discriminant` of ``tau`` and the
    local-model kind that every singular point declares as its ``type``
    (checked when the record is present and the points agree on a kind)."""
    zlat.json_object(data, ("dim", "charts", "pieces"), "an atlas document")
    charts = zlat.json_array(data["charts"], "atlas charts", ("id", "dim"))
    pieces = zlat.json_array(data["pieces"], "atlas pieces",
                             ("id", "chart_a", "chart_b", "region", "transition"))
    points = zlat.json_array(data.get("singular_points", []), "atlas singular points",
                             ("id", "loops"))
    loops = zlat.json_object(data.get("loops", {}), (), "atlas loops")
    for name, w in loops.items():
        zlat.json_object(w, ("base_chart", "crossings"), f"loop {name!r}")
    if any(type(d) is not int for d in (data["dim"], *(c["dim"] for c in charts))):
        raise ValueError("atlas dimensions must be integers")
    _strings([c["id"] for c in charts] + [c.get("region", "") for c in charts]
             + [p[k] for p in pieces for k in ("id", "chart_a", "chart_b", "region")]
             + [w["base_chart"] for w in loops.values()] + [r["id"] for r in points],
             "atlas ids and regions")
    for r in points:
        _strings(zlat.json_array(r["loops"], f"the loops of point {r['id']}"),
                 f"the loops of point {r['id']}")
        if not set(r["loops"]) <= set(loops):
            raise ValueError(f"point {r['id']} names a loop the atlas does not have: "
                             f"{sorted(set(r['loops']) - set(loops))}")
    dim = data["dim"]
    for c in charts:
        if c["dim"] != dim:
            raise ValueError(f"chart {c['id']} has dimension {c['dim']}, "
                             f"not the atlas dimension {dim}")
    transitions = [zlat.affine_from_json(p["transition"]) for p in pieces]
    for p, t in zip(pieces, transitions):
        if t.dim != dim:
            raise ValueError(f"piece {p['id']} has a {t.dim} x {t.dim} transition "
                             f"in an atlas of dimension {dim}")
    discriminant = zlat.json_object(data.get("discriminant", {}), (),
                                    "an atlas discriminant")
    tau = Polynomial.from_json(data.get("tau", ["0"]))
    # the one local-model kind every point declares, if they agree on one
    # (a JSON type may be unhashable, so compare it by equality only)
    kinds = [r.get("type") for r in points]
    kind = kinds[0] if kinds and kinds.count(kinds[0]) == len(kinds) else None
    if "discriminant" in data and kind in tuple(_REGIONS):
        want, got = _discriminant(kind, tau), dict(discriminant)
        if "tau" in got:  # compare rationals, not spellings: 1 and "2/2" read as "1"
            got["tau"] = Polynomial.from_json(got["tau"]).to_json()
        for key in (*want, *got):
            if got.get(key) != want.get(key):
                raise ValueError(
                    f"atlas discriminant.{key} is {got.get(key)!r}, but the "
                    f"{kind} model with tau {tau.to_json()} has {want.get(key)!r}")
    base = ChartedBase(
        dim=dim,
        charts=[Chart(c["id"], c["dim"], c.get("region", "")) for c in charts],
        pieces=[OverlapPiece(p["id"], p["chart_a"], p["chart_b"], p["region"], t)
                for p, t in zip(pieces, transitions)],
        discriminant=discriminant,
        tau=tau,
        loops={name: LoopWord(w["base_chart"], _crossings(w["crossings"]))
               for name, w in loops.items()},
        singular_points=points,
    )
    for name, w in base.loops.items():
        try:
            holonomy(base, w)
        except ValueError as exc:
            raise ValueError(f"loop {name!r}: {exc}") from None
    failure = check_cocycle(base)
    if failure is not None:
        raise ValueError(failure)
    return base


def _crossings(data) -> Tuple[Crossing, ...]:
    """Crossings from a JSON array of [piece, from, to] string triples."""
    if not isinstance(data, list) or not all(
            isinstance(c, list) and len(c) == 3 and all(isinstance(x, str) for x in c)
            for c in data):
        raise ValueError("a loop word is a JSON array of [piece, from, to] "
                         f"string triples, got {data!r}")
    return tuple(Crossing(piece, frm, to) for piece, frm, to in data)


def loop_word_from_json(data) -> LoopWord:
    """Loop word from a JSON array of [piece, from, to] crossings, based at
    the chart the first crossing leaves."""
    crossings = _crossings(data)
    if not crossings:
        raise ValueError("empty loop word has no base chart")
    return LoopWord(crossings[0].frm, crossings)


# ----------------------------------------------------------------------
# reports (``tfib base ...``)
# ----------------------------------------------------------------------

def _base(kind, atlas, tau=None) -> ChartedBase:
    """The atlas document if given, else the local model ``kind``; the node
    model has no handle, so a ``tau`` that is not identically zero is
    rejected there rather than dropped."""
    if atlas is not None:
        return base_from_json(atlas)
    if kind == "node" and tau is not None and any(tau):
        raise ValueError("the node model has no handle: tau must be 0")
    return build_local_model(kind, None if tau is None else Polynomial(tau))


def build_report(kind, tau) -> dict:
    """The JSON atlas of the local model ``kind`` whose discriminant handle
    has the rational coefficients ``tau`` (constant term first); it passes
    when the atlas is a cocycle."""
    base = _base(kind, None, tau)
    return dict(base_to_json(base), passed=check_cocycle(base) is None)


def check_simple_report(kind, tau, atlas) -> dict:
    """The simplicity verdicts of an atlas document, or of the local model
    ``kind`` with handle ``tau``; a handle belongs to a local model only."""
    if atlas is not None and tau is not None:
        raise ValueError("tau applies to a local model (kind), not to an atlas")
    return check_simple(_base(kind, atlas, tau)).to_json()


def holonomy_report(kind, atlas, loop, word) -> dict:
    """The holonomy of the named ``loop`` of an atlas document or of the
    local model ``kind``, or of a JSON loop ``word`` on it."""
    base = _base(kind, atlas)
    if loop is not None:
        if loop not in base.loops:
            raise ValueError(f"atlas has no loop {loop!r}")
        word = base.loops[loop]
    else:
        word = loop_word_from_json(word)
    return {"holonomy": holonomy(base, word)}
