"""Discriminant graphs on boundaries of scaled simplices.

Builds the two compact examples: 24 nodes on the boundary of the scaled
3-simplex (K3 base) and the 300-vertex trivalent graph on the boundary of
the scaled 4-simplex (quintic base), plus sign classification, the
combinatorial Legendre sign swap, and localized thickening of negative
vertices.  All positions are exact rationals; no floating point here.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from fractions import Fraction
from itertools import combinations
from typing import Dict, FrozenSet, List, Tuple

from .zlat import json_array, json_object, rational

Point = Tuple[Fraction, ...]


def _frac_point(coords) -> Point:
    return tuple(Fraction(c) for c in coords)


# ----------------------------------------------------------------------
# scaled simplex boundaries
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class LatticeSimplexBoundary:
    """Boundary complex of the standard scaled simplex.

    ``dimension`` is the simplex dimension (3 for the K3 base, 4 for the
    quintic base); vertices are (-1,...,-1) and (-1,..,dim+scale-1,..,-1)
    with scale = dimension + 1, so every edge has lattice length
    ``scale`` and every face is unimodular.
    """

    dimension: int

    def __post_init__(self):
        if self.dimension not in (3, 4):
            raise ValueError("only the 3- and 4-simplex boundaries are built")

    @property
    def scale(self) -> int:
        return self.dimension + 1

    @property
    def vertices(self) -> Tuple[Point, ...]:
        d, s = self.dimension, self.scale
        verts = [_frac_point([-1] * d)]
        for i in range(d):
            v = [-1] * d
            v[i] += s
            verts.append(_frac_point(v))
        return tuple(verts)

    def faces(self, k: int) -> List[FrozenSet[int]]:
        """k-faces of the boundary as vertex-index sets (all proper faces)."""
        if not 0 <= k < self.dimension:
            raise ValueError(f"boundary has no {k}-faces")
        return [frozenset(c) for c in combinations(range(self.dimension + 1), k + 1)]

    def minimal_face(self, p: Point) -> FrozenSet[int]:
        """Smallest face containing p (indices with positive barycentric).

        For this family the barycentrics are t_{j+1} = (p_j + 1) / scale
        and t_0 = 1 - sum, so their signs are those of p_j + 1 and of
        scale - sum(p_j + 1).
        """
        signs = [c + 1 for c in p]
        signs.insert(0, self.scale - sum(signs))
        if any(b < 0 for b in signs):
            raise ValueError(f"point {p} lies outside the simplex")
        return frozenset(i for i, b in enumerate(signs) if b > 0)


def _compositions(total: int, parts: int):
    """All tuples of `parts` nonnegative integers summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head, *tail)


def integral_points(boundary: LatticeSimplexBoundary, face: FrozenSet[int]) -> List[Point]:
    """Exact lattice points of a closed boundary face (integer
    barycentrics); a face id that is not a proper face (the full simplex
    is not a boundary face) raises ValueError."""
    d, ids = boundary.dimension, set(face)
    if not 0 < len(ids) <= d or not ids <= set(range(d + 1)):
        raise ValueError(f"invalid boundary face id {face}")
    idx, verts, s = sorted(ids), boundary.vertices, boundary.scale
    return [tuple(sum(Fraction(a) * verts[i][j] for a, i in zip(comp, idx)) / s
                  for j in range(d))
            for comp in _compositions(s, len(idx))]


# ----------------------------------------------------------------------
# discriminant graphs
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class GraphVertex:
    position: Point
    sign: str  # "positive" | "negative" | "none"
    valence: int
    face: FrozenSet[int] = frozenset()


@dataclass(frozen=True)
class GraphEdge:
    a: int
    b: int
    face: FrozenSet[int] = frozenset()


@dataclass(frozen=True)
class Thickening:
    vertex: int
    center: Point
    leg_directions: Tuple[Point, ...]
    radius: Fraction
    disc_radius: Fraction
    plane_face: FrozenSet[int]


@dataclass(frozen=True)
class DiscriminantGraph:
    vertices: Tuple[GraphVertex, ...]
    edges: Tuple[GraphEdge, ...]
    thickening: Tuple[Thickening, ...] = ()

    def count_sign(self, sign: str) -> int:
        return sum(1 for v in self.vertices if v.sign == sign)

    @cached_property
    def incidence(self) -> Tuple[Tuple[int, ...], ...]:
        """Per vertex, the ascending indices of its edges (a loop once),
        built in one pass over the edges and kept with the graph."""
        out: List[List[int]] = [[] for _ in self.vertices]
        for j, e in enumerate(self.edges):
            out[e.a].append(j)
            if e.b != e.a:
                out[e.b].append(j)
        return tuple(map(tuple, out))

    def connected_components(self) -> int:
        parent = list(range(len(self.vertices)))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for e in self.edges:
            ra, rb = find(e.a), find(e.b)
            if ra != rb:
                parent[ra] = rb
        return len({find(i) for i in range(len(self.vertices))})


def build_k3_graph(boundary: LatticeSimplexBoundary) -> DiscriminantGraph:
    """24 isolated nodes: the four segment barycenters on each of 6 edges."""
    if boundary.dimension != 3:
        raise ValueError("K3 graph lives on the 3-simplex boundary")
    vertices = []
    for edge in boundary.faces(1):
        pts = sorted(integral_points(boundary, edge))
        for a, b in zip(pts, pts[1:]):
            mid = tuple((x + y) / 2 for x, y in zip(a, b))
            vertices.append(GraphVertex(mid, "none", 0, edge))
    return DiscriminantGraph(tuple(vertices), ())


def build_quintic_graph(boundary: LatticeSimplexBoundary) -> DiscriminantGraph:
    """Trivalent graph from the unit triangulations of the ten 2-faces.

    Per 2-face: 25 unit triangles on its 21 lattice points; graph edges
    join each triangle barycenter to the barycenters of its sides.  Side
    barycenters interior to a 2-face have two incident triangles and are
    absorbed into a single graph edge; side barycenters on a 1-face are
    shared by the three adjacent 2-faces and become trivalent vertices.

    Points are computed as integer tuples scaled by D = 6 * scale (lattice
    points have denominator scale, barycenters 3 * scale, side midpoints
    2 * scale), and a vertex's Fraction position is made once, when it is
    interned.  Scaling by D > 0 keeps the order of points, so the edges
    come out in the order of the exact positions.
    """
    if boundary.dimension != 4:
        raise ValueError("quintic graph lives on the 4-simplex boundary")
    s = boundary.scale
    D = 6 * s
    verts = [tuple(int(c * D) for c in v) for v in boundary.vertices]
    vertex_index: Dict[Tuple[int, ...], int] = {}
    points: List[Tuple[Point, FrozenSet[int]]] = []
    edges: List[GraphEdge] = []

    def intern(key: Tuple[int, ...], face) -> int:
        """Index of the vertex at ``key`` / D; ``face`` None means its
        minimal face."""
        i = vertex_index.get(key)
        if i is None:
            i = vertex_index[key] = len(points)
            pos = tuple(Fraction(c, D) for c in key)
            points.append((pos, boundary.minimal_face(pos) if face is None else face))
        return i

    for face in boundary.faces(2):
        i0, i1, i2 = sorted(face)
        p0 = verts[i0]
        e1 = tuple((a - b) // s for a, b in zip(verts[i1], p0))
        e2 = tuple((a - b) // s for a, b in zip(verts[i2], p0))

        def at(u, v):
            return tuple(p + u * a + v * b for p, a, b in zip(p0, e1, e2))

        triangles = []
        for u in range(s):
            for v in range(s - u):
                triangles.append((at(u, v), at(u + 1, v), at(u, v + 1)))
                if u + v < s - 1:
                    triangles.append((at(u + 1, v), at(u, v + 1), at(u + 1, v + 1)))

        side_hits: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], List[int]] = {}
        for tri in triangles:
            ti = intern(tuple(sum(c) // 3 for c in zip(*tri)), face)
            for a, b in ((0, 1), (0, 2), (1, 2)):
                side = (tri[a], tri[b]) if tri[a] < tri[b] else (tri[b], tri[a])
                side_hits.setdefault(side, []).append(ti)
        for (pa, pb), hits in sorted(side_hits.items()):
            if len(hits) == 2:
                edges.append(GraphEdge(hits[0], hits[1], face))
            else:
                mi = intern(tuple((x + y) // 2 for x, y in zip(pa, pb)), None)
                edges.append(GraphEdge(hits[0], mi, face))

    degrees = [0] * len(points)
    for e in edges:
        degrees[e.a] += 1
        degrees[e.b] += 1
    final = tuple(GraphVertex(pos, "unsigned", degrees[i], face)
                  for i, (pos, face) in enumerate(points))
    return DiscriminantGraph(final, tuple(edges))


def classify_signs(
    graph: DiscriminantGraph, boundary: LatticeSimplexBoundary
) -> DiscriminantGraph:
    """Negative inside a 2-face, positive on a 1-face; nodes keep no sign."""
    out = []
    for v in graph.vertices:
        if v.valence == 0:
            out.append(replace(v, sign="none"))
            continue
        k = len(boundary.minimal_face(v.position)) - 1
        if k == 2:
            out.append(replace(v, sign="negative"))
        elif k == 1:
            out.append(replace(v, sign="positive"))
        elif k == 0:
            raise ValueError(f"graph vertex on a 0-face at {v.position}")
        else:
            raise ValueError(
                f"trivalent vertex in a {k}-face interior at {v.position}"
            )
    return DiscriminantGraph(tuple(out), graph.edges, graph.thickening)


def legendre_dual(graph: DiscriminantGraph) -> DiscriminantGraph:
    """Same graph with positive and negative vertex signs exchanged."""
    swap = {"positive": "negative", "negative": "positive", "none": "none"}
    if any(v.sign == "unsigned" for v in graph.vertices):
        raise ValueError("legendre_dual requires a signed graph")
    out = tuple(replace(v, sign=swap[v.sign]) for v in graph.vertices)
    return DiscriminantGraph(out, graph.edges, graph.thickening)


def localized_thickening(
    graph: DiscriminantGraph, amoeba_radius
) -> DiscriminantGraph:
    """Replace each negative vertex by a three-legged thin-leg amoeba record.

    The amoeba region and the disc containing its codimension-1 part live
    in the vertex's 2-face (the plane {x1=0} of the negative local model).
    Legs stay attached to the incident graph edges.  A radius reaching
    another vertex is reported as an error, not clipped.
    """
    radius = Fraction(amoeba_radius)
    if radius <= 0:
        raise ValueError("amoeba radius must be positive")
    if any(v.sign == "unsigned" for v in graph.vertices):
        raise ValueError("localized_thickening requires a signed graph")
    reach = radius**2
    records = []
    for i, v in enumerate(graph.vertices):
        if v.sign != "negative":
            continue
        legs = []
        for e in (graph.edges[k] for k in graph.incidence[i]):
            j = e.b if e.a == i else e.a
            leg = tuple(q - p for p, q in zip(v.position, graph.vertices[j].position))
            if sum(x * x for x in leg) <= reach:
                raise ValueError(
                    f"amoeba radius {radius} reaches vertex {j} from vertex {i}"
                )
            legs.append((j, leg))
        legs.sort(key=lambda jl: jl[0])
        records.append(
            Thickening(
                vertex=i,
                center=v.position,
                leg_directions=tuple(leg for _, leg in legs),
                radius=radius,
                disc_radius=radius,
                plane_face=v.face,
            )
        )
    return DiscriminantGraph(graph.vertices, graph.edges, tuple(records))


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------

def _point_json(p: Point) -> list:
    return [str(c) for c in p]


def graph_to_json(graph: DiscriminantGraph) -> dict:
    return {
        "vertices": [
            {
                "position": _point_json(v.position),
                "sign": v.sign,
                "valence": v.valence,
                "face": sorted(v.face),
            }
            for v in graph.vertices
        ],
        "edges": [{"a": e.a, "b": e.b, "face": sorted(e.face)} for e in graph.edges],
        "thickening": [
            {
                "vertex": t.vertex,
                "center": _point_json(t.center),
                "legs": [_point_json(d) for d in t.leg_directions],
                "radius": str(t.radius),
                "disc_radius": str(t.disc_radius),
                "plane_face": sorted(t.plane_face),
            }
            for t in graph.thickening
        ],
    }


#: the vertex signs a graph document may carry
_SIGNS = ("positive", "negative", "none", "unsigned")


def _index(x, n: int, what: str) -> int:
    if type(x) is not int or not 0 <= x < n:
        raise ValueError(f"{what} must be a vertex index below {n}, got {x!r}")
    return x


def _face(x) -> FrozenSet[int]:
    if not isinstance(x, list) or not all(type(i) is int for i in x):
        raise ValueError(f"a face must be an array of vertex ids, got {x!r}")
    return frozenset(x)


def graph_from_json(data) -> DiscriminantGraph:
    """Inverse of ``graph_to_json``; a document of another shape raises
    ValueError.  Each distinct coordinate string is read once, by
    `zlat.rational`."""
    json_object(data, ("vertices", "edges"), "a graph document")
    parsed: Dict[str, Fraction] = {}

    def coordinate(c) -> Fraction:
        if type(c) is not str:  # 1, 1.0 and True are one dict key
            return rational(c, "coordinates")
        if c not in parsed:
            parsed[c] = rational(c, "coordinates")
        return parsed[c]

    def point(p) -> Point:
        return tuple(map(coordinate, json_array(p, "a point")))

    vertices = []
    for v in json_array(data["vertices"], "graph vertices",
                        ("position", "sign", "valence")):
        if v["sign"] not in _SIGNS or type(v["valence"]) is not int:
            raise ValueError(f"a vertex needs a sign in {_SIGNS} and an integer "
                             f"valence, got {v['sign']!r} and {v['valence']!r}")
        vertices.append(GraphVertex(point(v["position"]), v["sign"], v["valence"],
                                    _face(v.get("face", []))))
    n = len(vertices)
    edges = tuple(
        GraphEdge(_index(e["a"], n, "an edge end"), _index(e["b"], n, "an edge end"),
                  _face(e.get("face", [])))
        for e in json_array(data["edges"], "graph edges", ("a", "b"))
    )
    thick = tuple(
        Thickening(
            _index(t["vertex"], n, "a thickened vertex"),
            point(t["center"]),
            tuple(map(point, json_array(t["legs"], "thickening legs"))),
            coordinate(t["radius"]),
            coordinate(t["disc_radius"]),
            _face(t.get("plane_face", [])),
        )
        for t in json_array(data.get("thickening", []), "graph thickening",
                            ("vertex", "center", "legs", "radius", "disc_radius"))
    )
    return DiscriminantGraph(tuple(vertices), edges, thick)


def graph_to_dot(graph: DiscriminantGraph) -> str:
    """Graphviz DOT export for inspection."""
    color = {"positive": "blue", "negative": "red", "none": "black",
             "unsigned": "gray"}
    lines = ["graph discriminant {"]
    for i, v in enumerate(graph.vertices):
        pos = ",".join(str(float(c)) for c in v.position)
        lines.append(
            f'  v{i} [label="{v.sign[:3]}", color={color[v.sign]}, pos="{pos}"];'
        )
    for e in graph.edges:
        lines.append(f"  v{e.a} -- v{e.b};")
    lines.append("}")
    return "\n".join(lines)


def single_vertex_graph(sign: str) -> DiscriminantGraph:
    """Local-model graph: one signed trivalent vertex with three leg stubs.

    Legs follow the local model's cone over three points in the plane
    containing the discriminant; stub endpoints carry no sign.
    """
    if sign not in ("positive", "negative"):
        raise ValueError("vertex sign must be positive or negative")
    origin = _frac_point([0, 0, 0])
    stubs = [
        _frac_point([0, 0, -1]),
        _frac_point([0, -1, 0]),
        _frac_point([0, 1, 1]),
    ]
    vertices = (GraphVertex(origin, sign, 3),) + tuple(
        GraphVertex(p, "none", 1) for p in stubs
    )
    edges = tuple(GraphEdge(0, i + 1) for i in range(3))
    return DiscriminantGraph(vertices, edges)
