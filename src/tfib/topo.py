"""Topological bookkeeping of semi-stable compactifications.

Singular-fibre catalog with Euler contributions, Euler characteristics of
compactified total spaces from signed discriminant graphs, validation of
monodromy assignments against the standard generators, and the sign of a
vertex from the dimension of its triple's common fixed subspace.

Euler counting follows fibrewise additivity: torus fibres contribute 0,
nodal fibres +1 (n = 2), positive/negative vertices +1/-1 (n = 3).
A localized thickening replaces a negative fibre by alternative-negative
codimension-1 fibres without changing the total space, so each thickened
vertex is still counted as -1 in aggregate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from . import polybase, zlat
from .polybase import DiscriminantGraph
from .zlat import IntMatrix


#: Euler contribution of each singular-fibre type
FIBRE_TYPES: Dict[str, int] = {
    "regular": 0,
    "nodal_I1": 1,
    "generic_I1xS1": 0,
    "positive": 1,
    "negative": -1,
    "alt_negative_codim1": -1,
}


def _require_signed(graph: DiscriminantGraph) -> None:
    """Raise ValueError unless every trivalent vertex carries a sign and
    every signed vertex is trivalent: of valence 3, on no loop.  The
    verdict is the graph's ``signed_defect``, worked out once per graph."""
    defect = graph.signed_defect
    if defect is not None:
        raise ValueError(defect)


def euler_characteristic(graph: DiscriminantGraph, dimension: int) -> int:
    """Euler characteristic of the compactified total space: the sum of the
    ``FIBRE_TYPES`` contributions of the graph's vertices.  A node is
    ``nodal_I1`` (n = 2), a signed vertex is of its sign (n = 3; a thickened
    negative vertex stays ``negative``), any other vertex is ``regular``.
    For n = 3, a graph that `_require_signed` rejects raises ValueError."""
    if dimension == 2:
        types = ["nodal_I1" if v.valence == 0 else "regular" for v in graph.vertices]
    elif dimension == 3:
        _require_signed(graph)
        types = [v.sign if v.sign in ("positive", "negative") else "regular"
                 for v in graph.vertices]
    else:
        raise ValueError("dimension must be 2 or 3")
    return sum(FIBRE_TYPES[t] for t in types)


def sign_from_triple(triple: Sequence[IntMatrix]) -> str:
    """"negative" or "positive", the sign of a vertex triple.

    The triple must multiply to the identity, and each member must be a
    rank-one unipotent (`zlat.rank_one_unipotent`); the common fixed space
    then has dimension 1 (negative vertex) or 2 (positive vertex), read by
    `zlat.vertex_sign`.  Anything else raises ValueError.
    """
    if len(triple) != 3:
        raise ValueError("expected a triple of matrices")
    prod = zlat.mat_mul(zlat.mat_mul(triple[0], triple[1]), triple[2])
    if prod != zlat.identity(len(triple[0])):
        raise ValueError("triple product is not the identity")
    if any(zlat.rank_one_unipotent(m) is None for m in triple):
        raise ValueError("triple member is not a rank-one unipotent")
    sign = zlat.vertex_sign(triple)
    if sign is None:
        raise ValueError("unexpected common fixed-space dimension "
                         f"{zlat.fixed_space_dimension(triple)}")
    return sign


# ----------------------------------------------------------------------
# monodromy assignments and their validation
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class MonodromyAssignment:
    """Per-edge generator plus per-vertex ordered triples.

    ``vertex_triples[v]`` is (edge ids in loop order, matrix triple); the
    loop convention is g1 g2 g3 = 1, so each triple multiplies to the
    identity.  The matrix attached to an edge is expressed in the fibre
    basis near its vertices, so consistency with a vertex triple entry is
    conjugacy, not literal equality.
    """

    edge_matrices: Tuple[IntMatrix, ...]
    vertex_triples: Dict[int, Tuple[Tuple[int, int, int],
                                    Tuple[IntMatrix, IntMatrix, IntMatrix]]]


def canonical_assignment(graph: DiscriminantGraph) -> MonodromyAssignment:
    """The standard generators: (eq-neg triple) at negative vertices, its
    inverse transposes at positive ones, and per edge the entry of its
    lowest-index signed vertex.  A graph that `_require_signed` rejects
    raises ValueError."""
    _require_signed(graph)
    edge_mats: List[Optional[IntMatrix]] = [None] * len(graph.edges)
    triples = {}
    for i, v in enumerate(graph.vertices):
        if v.sign not in ("positive", "negative"):
            continue
        incident = graph.incidence[i]
        mats = zlat.STANDARD[v.sign]
        triples[i] = (incident, mats)
        for slot, j in enumerate(incident):
            if edge_mats[j] is None:
                edge_mats[j] = mats[slot]
    for j, m in enumerate(edge_mats):
        if m is None:
            edge_mats[j] = zlat.T_GENERIC
    return MonodromyAssignment(tuple(edge_mats), triples)


@dataclass
class ValidationItem:
    element: str
    valid: bool
    detail: str
    conjugator: Optional[IntMatrix] = None


@dataclass
class ValidationReport:
    items: List[ValidationItem]

    @property
    def valid(self) -> bool:
        return all(item.valid for item in self.items)

    def to_json(self) -> dict:
        """The report body: each distinct (valid, detail, conjugator)
        answer once under "questions", in order of first appearance, and
        each item as [element, index of its answer] under "items".

        ``validate_semistable`` hands every item that asks one question
        the same conjugator object, so answers are looked up by that
        object's identity first, and only a new object's answer is hashed
        by value (equal answers held by different objects still share
        one entry)."""
        index: Dict[tuple, int] = {}
        by_object: Dict[tuple, int] = {}
        items = []
        for it in self.items:
            key = it.valid, it.detail, id(it.conjugator)
            question = by_object.get(key)
            if question is None:
                question = by_object[key] = index.setdefault(
                    (it.valid, it.detail, it.conjugator), len(index))
            items.append([it.element, question])
        return {
            "passed": self.valid,
            "questions": [{"valid": valid, "detail": detail, "conjugator": conj}
                          for valid, detail, conj in index],
            "items": items,
        }


def validate_semistable(
    graph: DiscriminantGraph,
    assignment: MonodromyAssignment,
) -> ValidationReport:
    """Check an assignment against the semi-stable hypotheses.

    Every edge matrix must be GL(3,Z)-conjugate to the generic generator;
    every vertex triple must multiply to the identity and be simultaneously
    conjugate to the triple matching its sign; each edge must be conjugate
    to the corresponding entry of its incident vertex triples.  Each
    answer is ``zlat.simultaneous_conjugator``'s: a conjugator checked by
    exact products, or None, which proves that no GL(3,Z) matrix
    conjugates.  An edge matrix and a triple member that differ and are
    neither of them rank-one unipotents have no normal forms to compare:
    that question raises zlat's ValueError (the canonical assignment never
    asks it).  A graph that ``euler_characteristic`` rejects (an
    unsigned trivalent vertex, a signed one that is not trivalent) raises
    ValueError, and so does a graph without edges, whose report would have
    no item to fail.

    The items ask few distinct questions (the quintic's 1650 ask 23), so
    each distinct conjugacy problem goes to ``zlat.simultaneous_conjugator``
    once per call, and each distinct triple has its product taken once;
    every item that asks a question gets that one answer object.  The
    answers are keyed by value and live for the call only.
    """
    _require_signed(graph)
    if not graph.edges:
        raise ValueError("graph has no edges; nothing to validate")
    if len(assignment.edge_matrices) != len(graph.edges):
        raise ValueError("assignment does not cover all edges")
    answers: Dict[tuple, Optional[IntMatrix]] = {}

    def conjugate(sources, targets):
        key = sources, targets
        try:
            return answers[key]
        except KeyError:
            conj = answers[key] = zlat.simultaneous_conjugator(sources, targets)
            return conj

    closed: Dict[tuple, bool] = {}
    items: List[ValidationItem] = []
    generic = (zlat.T_GENERIC,)
    for j, m in enumerate(assignment.edge_matrices):
        conj = conjugate((m,), generic)
        items.append(ValidationItem(
            f"edge {j}", conj is not None,
            "conjugate to generic generator" if conj is not None
            else "not conjugate to the generic generator",
            conj,
        ))
    for i, v in enumerate(graph.vertices):
        if v.sign not in ("positive", "negative"):
            continue
        if i not in assignment.vertex_triples:
            raise ValueError(f"assignment missing vertex {i}")
        edge_ids, mats = assignment.vertex_triples[i]
        mats = tuple(mats)
        if mats not in closed:
            prod = zlat.mat_mul(zlat.mat_mul(mats[0], mats[1]), mats[2])
            closed[mats] = prod == zlat.identity(len(mats[0]))
        if not closed[mats]:
            items.append(ValidationItem(
                f"vertex {i}", False, "triple product is not the identity"))
            continue
        conj = conjugate(mats, zlat.STANDARD[v.sign])
        items.append(ValidationItem(
            f"vertex {i}", conj is not None,
            f"simultaneously conjugate to the {v.sign} triple" if conj is not None
            else f"not simultaneously conjugate to the {v.sign} triple",
            conj,
        ))
        for slot, j in enumerate(edge_ids):
            edge_conj = conjugate((assignment.edge_matrices[j],), (mats[slot],))
            items.append(ValidationItem(
                f"vertex {i} / edge {j}", edge_conj is not None,
                "edge generator matches the vertex loop generator"
                if edge_conj is not None
                else "edge generator inconsistent with the vertex triple",
                edge_conj,
            ))
    return ValidationReport(items)


# ----------------------------------------------------------------------
# reports (``tfib graph ...``, ``tfib topo ...``)
# ----------------------------------------------------------------------

_K3 = {"vertices": 24, "edges": 0, "positive": 0, "negative": 0, "euler": 24}

#: the paper's counts for the standard graphs, by (which, dual): 24 nodes
#: and Euler number 24 on the K3 base (its own mirror); 300 trivalent
#: vertices, 450 edges, 50 positive and 250 negative vertices and Euler
#: number -200 on the quintic base, the signs swapped and +200 on its dual
STANDARD_GRAPHS = {
    ("k3", False): _K3,
    ("k3", True): _K3,
    ("quintic", False): {"vertices": 300, "edges": 450, "positive": 50,
                         "negative": 250, "euler": -200},
    ("quintic", True): {"vertices": 300, "edges": 450, "positive": 250,
                        "negative": 50, "euler": 200},
}


def graph_report(which, dual, thicken):
    """The discriminant graph of the standard simplex boundary, ``k3``
    (n = 2) or ``quintic`` (n = 3, signed), its Legendre dual if ``dual``,
    thickened at the exact radius ``thicken`` if given, with its counts
    and Euler number; it passes when they are the paper's
    (``STANDARD_GRAPHS``).  Returns ``(body, {".dot": Graphviz text})``."""
    if which == "k3":
        boundary = polybase.LatticeSimplexBoundary(3)
        graph = polybase.build_k3_graph(boundary)
        dimension = 2
    else:
        boundary = polybase.LatticeSimplexBoundary(4)
        graph = polybase.classify_signs(
            polybase.build_quintic_graph(boundary), boundary)
        dimension = 3
    if dual:
        graph = polybase.legendre_dual(graph)
    if thicken is not None:
        graph = polybase.localized_thickening(graph, thicken)
    body = {
        "graph": polybase.graph_to_json(graph),
        "vertices": len(graph.vertices),
        "edges": len(graph.edges),
        "positive": graph.count_sign("positive"),
        "negative": graph.count_sign("negative"),
        "components": graph.connected_components(),
        "euler": euler_characteristic(graph, dimension),
        "dimension": dimension,
        "thickened": len(graph.thickening),
    }
    body["passed"] = all(body[k] == n for k, n in STANDARD_GRAPHS[which, dual].items())
    return body, {".dot": polybase.graph_to_dot(graph)}


def _graph_from_document(doc) -> DiscriminantGraph:
    """A graph JSON document, or a report that holds one under "graph"."""
    if isinstance(doc, dict):
        doc = doc.get("graph", doc)
    return polybase.graph_from_json(doc)


def euler_report(graph) -> dict:
    """The Euler number of a graph document; a trivalent vertex makes it
    a 3-dimensional graph, otherwise it is 2-dimensional."""
    g = _graph_from_document(graph)
    dimension = 3 if any(v.valence == 3 for v in g.vertices) else 2
    return {"euler": euler_characteristic(g, dimension), "dimension": dimension}


def validate_report(graph) -> dict:
    """The semi-stable validation of a graph document's canonical assignment."""
    g = _graph_from_document(graph)
    return validate_semistable(g, canonical_assignment(g)).to_json()


def sign_report(triple) -> dict:
    """The sign of a vertex from its triple of integer matrices.  It passes
    when the triple is simultaneously conjugate in GL(3,Z) to the standard
    triple of its sign; the report names the conjugator P (P^-1 T_i P is
    the standard T_i), or null, which proves that there is none."""
    if not isinstance(triple, list):
        raise ValueError(f"a triple is a JSON array of three matrices, got {triple!r}")
    mats = [zlat.mat(m) for m in triple]
    sign = sign_from_triple(mats)
    p = zlat.simultaneous_conjugator(mats, zlat.STANDARD[sign])
    return {"sign": sign, "conjugator": p, "passed": p is not None}
