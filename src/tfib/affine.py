"""Charted integral affine manifolds with singularities.

A base is a list of charts plus overlap pieces carrying affine-integral
transitions; holonomy along loop words is a purely combinatorial product
of transition linear parts, so no floating point enters this module.

Conventions (fixed once):

* an overlap piece stores the transition from its ``chart_a`` coordinates
  to its ``chart_b`` coordinates; crossing b -> a uses the inverse;
* holonomy is the parallel transport of the *cotangent* frame: a crossing
  with linear part L contributes (L^t)^{-1}, and a word maps to the
  product of contributions in crossing order, so concatenation of words
  goes to the product of holonomies;
* loops in the local models are oriented so that the node model's
  anticlockwise generator maps to T = [[1,0],[1,1]].
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    """Univariate polynomial with exact rational coefficients (tau handles)."""

    def __init__(self, coeffs: Sequence):
        self.coeffs = tuple(Fraction(c) for c in coeffs) or (Fraction(0),)

    def __call__(self, s):
        acc = Fraction(0) if isinstance(s, Fraction) else 0.0
        for c in reversed(self.coeffs):
            acc = acc * s + (c if isinstance(s, Fraction) else float(c))
        return acc

    def to_json(self) -> list:
        return [str(c) for c in self.coeffs]

    @staticmethod
    def from_json(data) -> "Polynomial":
        """From an array of exact rational strings (or integers)."""
        try:
            if all(isinstance(c, (str, int)) for c in data):
                return Polynomial([Fraction(c) for c in data])
        except ZeroDivisionError:
            pass
        raise ValueError(f"tau coefficients must be exact rationals, got {data!r}")

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


def holonomy(base: ChartedBase, loop: LoopWord) -> IntMatrix:
    """Cotangent holonomy of a loop word (exact integer matrix).

    Each crossing with transition linear part L contributes (L^t)^{-1};
    contributions multiply in crossing order, which makes concatenation of
    loop words go to the product of their holonomies.
    """
    if loop.base_chart not in {c.id for c in base.charts}:
        raise ValueError(f"unknown base chart {loop.base_chart}")
    current = loop.base_chart
    acc = zlat.identity(base.dim)
    for crossing in loop.crossings:
        if crossing.frm != current:
            raise ValueError(
                f"crossing sequence broken: at {current}, next crossing "
                f"leaves from {crossing.frm}"
            )
        lin = base.crossing_transition(crossing).linear
        acc = zlat.mat_mul(acc, zlat.inverse_transpose(lin))
        current = crossing.to
    if current != loop.base_chart:
        raise ValueError("loop word does not return to its base chart")
    return acc


def check_cocycle(base: ChartedBase) -> bool:
    """Exact cocycle condition on every region shared by a chart triple."""
    by_region: Dict[str, List[OverlapPiece]] = {}
    for p in base.pieces:
        by_region.setdefault(p.region, []).append(p)
    for region, pieces in by_region.items():
        trans = {}
        for p in pieces:
            trans[(p.chart_a, p.chart_b)] = p.transition
            trans[(p.chart_b, p.chart_a)] = zlat.invert(p.transition)
        for (a, b), t_ab in trans.items():
            for (c, d), t_cd in trans.items():
                if c != b:
                    continue
                composed = zlat.compose(t_cd, t_ab)
                direct = trans.get((a, d))
                if a == d:
                    if not composed.is_identity():
                        return False
                elif direct is not None and composed != direct:
                    return False
    return True


# ----------------------------------------------------------------------
# the local models
# ----------------------------------------------------------------------

def _shift3(m2: IntMatrix) -> IntMatrix:
    """Embed a 2x2 block into the upper-left of a 3x3 identity."""
    return zlat.mat(
        [[m2[0][0], m2[0][1], 0], [m2[1][0], m2[1][1], 0], [0, 0, 1]]
    )


def build_local_model(kind: str, tau: Optional[Polynomial] = None) -> ChartedBase:
    """The node/edge/positive/negative singular affine local models.

    ``tau`` perturbs the discriminant inside its holonomy-invariant plane
    (edge: the curve (tau(s), 0, s); positive/negative: graph of tau over
    the legs).  For the vertex kinds tau must vanish at the vertex.
    """
    tau = tau if tau is not None else ZERO_TAU
    if kind in ("positive", "negative", "edge") and tau(Fraction(0)) != 0:
        raise ValueError("tau must vanish at the vertex: tau(0) != 0")
    if kind == "node":
        return _node_model()
    if kind == "edge":
        return _edge_model(tau)
    if kind == "positive":
        return _positive_model(tau)
    if kind == "negative":
        return _negative_model(tau)
    raise ValueError(f"unsupported local model kind: {kind}")


def _node_model() -> ChartedBase:
    t_inv_t = zlat.inverse_transpose(zlat.T_NODE)
    pieces = [
        OverlapPiece("Hplus", "U1", "U2", "Hplus", AffineMapZ.identity(2)),
        OverlapPiece("Hminus", "U1", "U2", "Hminus", AffineMapZ.from_linear(t_inv_t)),
    ]
    loops = {
        "g": LoopWord("U1", (Crossing("Hminus", "U1", "U2"),
                             Crossing("Hplus", "U2", "U1"))),
    }
    return ChartedBase(
        dim=2,
        charts=[
            Chart("U1", 2, "R^2 minus the ray {x2=0, x1>=0}"),
            Chart("U2", 2, "R^2 minus the ray {x2=0, x1<=0}"),
        ],
        pieces=pieces,
        discriminant={"kind": "node", "points": [["0", "0"]]},
        loops=loops,
        singular_points=[{"id": "node0", "type": "node", "loops": ["g"]}],
    )


def _edge_model(tau: Polynomial) -> ChartedBase:
    t = _shift3(zlat.T_NODE)
    pieces = [
        OverlapPiece("Hplus", "U1", "U2", "Hplus", AffineMapZ.identity(3)),
        OverlapPiece(
            "Hminus", "U1", "U2", "Hminus",
            AffineMapZ.from_linear(zlat.inverse_transpose(t)),
        ),
    ]
    loops = {
        "g": LoopWord("U1", (Crossing("Hminus", "U1", "U2"),
                             Crossing("Hplus", "U2", "U1"))),
    }
    return ChartedBase(
        dim=3,
        charts=[
            Chart("U1", 3, "(R^2 x I) minus {(x1,0,s): x1 >= tau(s)}"),
            Chart("U2", 3, "(R^2 x I) minus {(x1,0,s): x1 <= tau(s)}"),
        ],
        pieces=pieces,
        discriminant={
            "kind": "edge_curve",
            "curve": "(tau(s), 0, s)",
            "plane": "{x2=0}",
            "tau": tau.to_json(),
        },
        tau=tau,
        loops=loops,
        singular_points=[{"id": "edge0", "type": "edge", "loops": ["g"]}],
    )


def _positive_model(tau: Polynomial) -> ChartedBase:
    t1, t2, _ = zlat.NEGATIVE_TRIPLE
    pieces = [
        OverlapPiece("V1", "U1", "U2", "V1", AffineMapZ.identity(3)),
        OverlapPiece("V2", "U1", "U2", "V2",
                     AffineMapZ.from_linear(zlat.inverse(t1))),
        OverlapPiece("V3", "U1", "U2", "V3", AffineMapZ.from_linear(t2)),
    ]
    loops = {
        "g1": LoopWord("U1", (Crossing("V1", "U1", "U2"),
                              Crossing("V2", "U2", "U1"))),
        "g2": LoopWord("U1", (Crossing("V3", "U1", "U2"),
                              Crossing("V1", "U2", "U1"))),
        "g3": LoopWord("U1", (Crossing("V2", "U1", "U2"),
                              Crossing("V3", "U2", "U1"))),
    }
    return ChartedBase(
        dim=3,
        charts=[
            Chart("U1", 3, "R^3 minus R+ = {x1 >= tau} x Delta"),
            Chart("U2", 3, "R^3 minus R- = {x1 <= tau} x Delta"),
        ],
        pieces=pieces,
        discriminant=_vertex_discriminant("positive", tau),
        tau=tau,
        loops=loops,
        singular_points=[
            {"id": "vertex0", "type": "positive", "loops": ["g1", "g2", "g3"]},
        ],
    )


def _negative_model(tau: Polynomial) -> ChartedBase:
    t1, t2, _ = zlat.NEGATIVE_TRIPLE
    t1it = zlat.inverse_transpose(t1)
    t2it = zlat.inverse_transpose(t2)
    pieces = [
        OverlapPiece("12+", "U1", "U2", "Vplus", AffineMapZ.from_linear(t1it)),
        OverlapPiece("12-", "U1", "U2", "Vminus", AffineMapZ.identity(3)),
        OverlapPiece("13+", "U1", "U3", "Vplus", AffineMapZ.identity(3)),
        OverlapPiece("13-", "U1", "U3", "Vminus", AffineMapZ.from_linear(t2it)),
        OverlapPiece("23+", "U2", "U3", "Vplus",
                      AffineMapZ.from_linear(zlat.transpose(t1))),
        OverlapPiece("23-", "U2", "U3", "Vminus", AffineMapZ.from_linear(t2it)),
    ]
    loops = {
        "g1": LoopWord("U1", (Crossing("12+", "U1", "U2"),
                              Crossing("12-", "U2", "U1"))),
        "g2": LoopWord("U1", (Crossing("13-", "U1", "U3"),
                              Crossing("13+", "U3", "U1"))),
        "g3": LoopWord("U1", (Crossing("12-", "U1", "U2"),
                              Crossing("23+", "U2", "U3"),
                              Crossing("13-", "U3", "U1"))),
    }
    return ChartedBase(
        dim=3,
        charts=[
            Chart("U1", 3, "R^3 minus (closure C2 u closure C3)"),
            Chart("U2", 3, "R^3 minus (closure C1 u closure C3)"),
            Chart("U3", 3, "R^3 minus (closure C1 u closure C2)"),
        ],
        pieces=pieces,
        discriminant=_vertex_discriminant("negative", tau),
        tau=tau,
        loops=loops,
        singular_points=[
            {"id": "vertex0", "type": "negative", "loops": ["g1", "g2", "g3"]},
        ],
    )


def _vertex_discriminant(sign: str, tau: Polynomial) -> dict:
    legs = [
        "{x2=0, x3<=0}",
        "{x3=0, x2<=0}",
        "{x2=x3>=0}",
    ]
    plane = "{x1=0}" if sign == "negative" else "graph of tau over R = R x Delta"
    return {
        "kind": "trivalent_vertex",
        "sign": sign,
        "legs": legs,
        "plane": plane,
        "tau": tau.to_json(),
    }


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
                    "conjugator": zlat.matrix_to_json(v.conjugator)
                    if v.conjugator is not None else None,
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
    conjugate to the negative triple or to its inverse transposes, in the
    given or the orientation-reversed order.  Conjugators are searched
    within ``zlat.SEARCH_BOUND``.
    """
    if not base.singular_points:
        raise ValueError("base carries no discriminant point records")
    verdicts = []
    for record in base.singular_points:
        mats = [holonomy(base, base.loops[name]) for name in record["loops"]]
        verdicts.append(_classify_point(record["id"], base.dim, mats))
    return SimplicityReport(verdicts)


def _classify_point(point_id: str, dim: int, mats) -> PointVerdict:
    if dim == 2:
        targets = {"node": [zlat.T_NODE]}
    elif len(mats) == 1:
        targets = {"edge": [zlat.T_GENERIC]}
    else:
        targets = {
            "negative": list(zlat.NEGATIVE_TRIPLE),
            "positive": list(zlat.POSITIVE_TRIPLE),
        }
    for model, model_mats in targets.items():
        for candidate, tag in (
            (mats, ""),
            (list(_reversed_triple(mats)), " (orientation reversed)"),
        ):
            if len(candidate) != len(model_mats):
                continue
            conj = zlat.simultaneous_conjugator(candidate, model_mats)
            if conj is not None:
                return PointVerdict(point_id, True, model, conj,
                                    detail=f"matched {model}{tag}")
    return PointVerdict(
        point_id, False, None, None,
        detail="no local model matched within conjugator bound "
               f"{zlat.SEARCH_BOUND}; holonomy Smith/charpoly data "
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
    """Inverse of ``base_to_json``; a document of another shape raises
    ValueError."""
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
    return ChartedBase(
        dim=data["dim"],
        charts=[Chart(c["id"], c["dim"], c.get("region", "")) for c in charts],
        pieces=[
            OverlapPiece(
                p["id"], p["chart_a"], p["chart_b"], p["region"],
                zlat.affine_from_json(p["transition"]),
            )
            for p in pieces
        ],
        discriminant=zlat.json_object(data.get("discriminant", {}), (),
                                      "an atlas discriminant"),
        tau=Polynomial.from_json(zlat.json_array(data.get("tau", ["0"]), "tau")),
        loops={name: LoopWord(w["base_chart"], _crossings(w["crossings"]))
               for name, w in loops.items()},
        singular_points=points,
    )


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
    """The atlas document if given, else the local model ``kind``."""
    if atlas is not None:
        return base_from_json(atlas)
    return build_local_model(kind, None if tau is None else Polynomial(tau))


def build_report(kind, tau) -> dict:
    """The JSON atlas of the local model ``kind`` whose discriminant handle
    has the rational coefficients ``tau`` (constant term first)."""
    return base_to_json(build_local_model(kind, Polynomial(tau)))


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
    return {"holonomy": zlat.matrix_to_json(holonomy(base, word))}
