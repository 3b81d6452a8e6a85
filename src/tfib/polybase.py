"""Discriminant graphs on boundaries of scaled simplices.

Builds the two compact examples: 24 nodes on the boundary of the scaled
3-simplex (K3 base) and the 300-vertex trivalent graph on the boundary of
the scaled 4-simplex (quintic base), plus sign classification, the
combinatorial Legendre sign swap, and localized thickening of negative
vertices.  A graph holds each fact once: a vertex is its position, sign
and valence, an edge its two ends, and a thickening record a vertex and
its amoeba radius.  Faces (`minimal_face` of a position) and the centre,
legs and plane of an amoeba are read off the graph.  All positions are
exact rationals; no floating point here.
Positions are tuples of Fractions (`Point`) at the API and in JSON; inside,
the geometry runs on integer lattice coordinates over one common
denominator (a point p is the pair (key, den) with p = key / den), and
Fractions are made only for what is returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import combinations
from math import lcm
from operator import mul, sub
from typing import Dict, FrozenSet, List, Optional, Tuple

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
        """Smallest face containing p: the indices with positive barycentric.

        For this family the barycentrics are t_{j+1} = (p_j + 1) / scale
        and t_0 = 1 - sum, so their signs are those of the integers
        den * (p_j + 1) and scale * den - sum(den * (p_j + 1)), ``den`` the
        lcm of p's denominators.  A point outside raises ValueError.
        """
        den = lcm(*[c.denominator for c in p])
        signs = self._barycentric_signs(p, den)
        return frozenset([i for i, b in enumerate(signs) if b > 0])

    def _barycentric_signs(self, p: Point, den: int) -> List[int]:
        """Integers with the signs of p's barycentrics t_0, ..., t_dim, for
        ``den`` a positive multiple of p's denominators; a point outside
        (a negative one) raises ValueError."""
        signs = [c.numerator * (den // c.denominator) + den for c in p]
        signs.insert(0, self.scale * den - sum(signs))
        if min(signs) < 0:
            raise ValueError(f"point {tuple(map(Fraction, p))} lies outside the simplex")
        return signs


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
    sign: str  # "positive" | "negative" | "none" | "unsigned"
    valence: int


@dataclass(frozen=True)
class GraphEdge:
    a: int
    b: int


@dataclass(frozen=True)
class Thickening:
    vertex: int
    radius: Fraction


@dataclass(frozen=True)
class DiscriminantGraph:
    """Vertices, edges and thickening records.  Two facts derived from
    them are worked out on first use and kept with the graph object, so
    they cost one pass however often they are asked for: ``incidence``,
    each vertex's edges, and ``signed_defect``, the verdict on whether it
    is a signed trivalent graph that ``topo`` checks before it counts or
    validates.  Any operation that changes a graph returns a new one."""

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

    @cached_property
    def signed_defect(self) -> Optional[str]:
        """Why the graph is not a signed trivalent graph, or None when it
        is: every trivalent vertex carries a sign, and every signed vertex
        is trivalent (of valence 3, on no loop).  Worked out on first use
        and kept with the graph, as ``incidence`` is."""
        if any(v.sign == "unsigned" for v in self.vertices if v.valence == 3):
            return "unsigned trivalent vertices present; classify signs first"
        for i, v in enumerate(self.vertices):
            if v.sign in ("positive", "negative") and (v.valence != 3 or any(
                    self.edges[j].a == self.edges[j].b for j in self.incidence[i])):
                return f"signed vertex {i} is not trivalent"
        return None

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
            vertices.append(GraphVertex(mid, "none", 0))
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
    2 * scale).  A vertex's position is made when it is interned, from
    one Fraction per distinct coordinate (the quintic's 1200 coordinates
    take 15 values), made the first time that coordinate is seen.
    Scaling by D > 0 keeps the order of points, so the edges come out in
    the order of the exact positions.
    """
    if boundary.dimension != 4:
        raise ValueError("quintic graph lives on the 4-simplex boundary")
    s = boundary.scale
    D = 6 * s
    verts = [tuple(int(c * D) for c in v) for v in boundary.vertices]
    vertex_index: Dict[Tuple[int, ...], int] = {}
    points: List[Point] = []
    edges: List[GraphEdge] = []
    fractions: Dict[int, Fraction] = {}

    def coordinate(c: int) -> Fraction:
        f = fractions.get(c)
        if f is None:
            f = fractions[c] = Fraction(c, D)
        return f

    def intern(key: Tuple[int, ...]) -> int:
        """Index of the vertex at ``key`` / D."""
        i = vertex_index.get(key)
        if i is None:
            i = vertex_index[key] = len(points)
            points.append(tuple(map(coordinate, key)))
        return i

    for face in boundary.faces(2):
        i0, i1, i2 = sorted(face)
        p0 = verts[i0]
        e1 = tuple((a - b) // s for a, b in zip(verts[i1], p0))
        e2 = tuple((a - b) // s for a, b in zip(verts[i2], p0))

        # grid[u][v] = p0 + u e1 + v e2, the face's lattice points
        grid = [[tuple(p + u * a + v * b for p, a, b in zip(p0, e1, e2))
                 for v in range(s + 1 - u)] for u in range(s + 1)]
        triangles = []
        for u in range(s):
            for v in range(s - u):
                triangles.append((grid[u][v], grid[u + 1][v], grid[u][v + 1]))
                if u + v < s - 1:
                    triangles.append((grid[u + 1][v], grid[u][v + 1], grid[u + 1][v + 1]))

        side_hits: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], List[int]] = {}
        for tri in triangles:
            ti = intern(tuple(sum(c) // 3 for c in zip(*tri)))
            for a, b in ((0, 1), (0, 2), (1, 2)):
                side = (tri[a], tri[b]) if tri[a] < tri[b] else (tri[b], tri[a])
                side_hits.setdefault(side, []).append(ti)
        for (pa, pb), hits in sorted(side_hits.items()):
            if len(hits) == 2:
                edges.append(GraphEdge(hits[0], hits[1]))
            else:
                mi = intern(tuple((x + y) // 2 for x, y in zip(pa, pb)))
                edges.append(GraphEdge(hits[0], mi))

    final = tuple(GraphVertex(pos, "unsigned", d)
                  for pos, d in zip(points, _edge_ends(len(points), edges)))
    return DiscriminantGraph(final, tuple(edges))


def _edge_ends(n: int, edges) -> List[int]:
    """Per vertex of n, its valence: its number of edge ends (a loop has two)."""
    ends = [0] * n
    for e in edges:
        ends[e.a] += 1
        ends[e.b] += 1
    return ends


def classify_signs(
    graph: DiscriminantGraph, boundary: LatticeSimplexBoundary
) -> DiscriminantGraph:
    """Negative inside a 2-face, positive on a 1-face; nodes keep no sign.

    A vertex's face is read from its barycentric signs over one common
    denominator of the graph's positions (``minimal_face``'s rule without
    an lcm per vertex)."""
    den = lcm(*{c.denominator for v in graph.vertices for c in v.position})
    out = []
    for v in graph.vertices:
        if v.valence == 0:
            out.append(GraphVertex(v.position, "none", 0))
            continue
        signs = boundary._barycentric_signs(v.position, den)
        k = len(signs) - signs.count(0) - 1
        if k == 2:
            out.append(GraphVertex(v.position, "negative", v.valence))
        elif k == 1:
            out.append(GraphVertex(v.position, "positive", v.valence))
        elif k == 0:
            raise ValueError(f"graph vertex on a 0-face at {v.position}")
        else:
            raise ValueError(
                f"trivalent vertex in a {k}-face interior at {v.position}"
            )
    return DiscriminantGraph(tuple(out), graph.edges, graph.thickening)


def legendre_dual(graph: DiscriminantGraph) -> DiscriminantGraph:
    """Same graph with positive and negative vertex signs exchanged; a
    thickened graph raises ValueError (dualize first, then thicken)."""
    swap = {"positive": "negative", "negative": "positive", "none": "none"}
    if any(v.sign == "unsigned" for v in graph.vertices):
        raise ValueError("legendre_dual requires a signed graph")
    if graph.thickening:
        raise ValueError("legendre_dual of a thickened graph; dualize before thickening")
    out = tuple([GraphVertex(v.position, swap[v.sign], v.valence)
                 for v in graph.vertices])
    return DiscriminantGraph(out, graph.edges)


def localized_thickening(
    graph: DiscriminantGraph, amoeba_radius
) -> DiscriminantGraph:
    """Record a three-legged thin-leg amoeba of the exact radius
    ``amoeba_radius`` at each negative vertex.

    The amoeba region and the disc containing its codimension-1 part live
    in the vertex's 2-face (the plane {x1=0} of the negative local model),
    centred at the vertex, with legs along its incident graph edges; so a
    record holds only the vertex and the radius.  A radius reaching a
    neighbouring vertex is reported as an error, not clipped.

    The reach test runs on the positions scaled by the lcm ``den`` of all
    their denominators, where a leg is an integer tuple x and it reaches
    when |x|^2 rd^2 <= (rn den)^2 for radius = rn / rd.
    """
    radius = Fraction(amoeba_radius)
    if radius <= 0:
        raise ValueError("amoeba radius must be positive")
    if any(v.sign == "unsigned" for v in graph.vertices):
        raise ValueError("localized_thickening requires a signed graph")
    den = lcm(*{c.denominator for v in graph.vertices for c in v.position})
    keys = [tuple(c.numerator * (den // c.denominator) for c in v.position)
            for v in graph.vertices]
    reach = (radius.numerator * den) ** 2
    scale = radius.denominator ** 2
    records = []
    for i, v in enumerate(graph.vertices):
        if v.sign != "negative":
            continue
        for e in (graph.edges[k] for k in graph.incidence[i]):
            j = e.b if e.a == i else e.a
            leg = tuple(map(sub, keys[j], keys[i]))
            if sum(map(mul, leg, leg)) * scale <= reach:
                raise ValueError(
                    f"amoeba radius {radius} reaches vertex {j} from vertex {i}"
                )
        records.append(Thickening(i, radius))
    return DiscriminantGraph(graph.vertices, graph.edges, tuple(records))


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------

def graph_to_json(graph: DiscriminantGraph) -> dict:
    return {
        "vertices": [
            {
                "position": [str(c) for c in v.position],
                "sign": v.sign,
                "valence": v.valence,
            }
            for v in graph.vertices
        ],
        "edges": [{"a": e.a, "b": e.b} for e in graph.edges],
        "thickening": [{"vertex": t.vertex, "radius": str(t.radius)}
                       for t in graph.thickening],
    }


#: the vertex signs a graph document may carry
_SIGNS = ("positive", "negative", "none", "unsigned")


def _index(x, n: int, what: str) -> int:
    if type(x) is not int or not 0 <= x < n:
        raise ValueError(f"{what} must be a vertex index below {n}, got {x!r}")
    return x


def graph_from_json(data) -> DiscriminantGraph:
    """Inverse of ``graph_to_json``; a document of another shape raises
    ValueError.  Each distinct coordinate string is read once, by
    `zlat.rational`.  Keys the graph does not need, such as the copies of
    graph data older documents wrote (faces, and a thickening record's
    centre, legs, disc radius and plane), are ignored.  A valence that is
    not the vertex's number of edge ends, or thickening records that are
    not what `localized_thickening` writes at their radius, raise
    ValueError."""
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
        vertices.append(GraphVertex(point(v["position"]), v["sign"], v["valence"]))
    n = len(vertices)
    edges = tuple(
        GraphEdge(_index(e["a"], n, "an edge end"), _index(e["b"], n, "an edge end"))
        for e in json_array(data["edges"], "graph edges", ("a", "b"))
    )
    thick = tuple(
        Thickening(_index(t["vertex"], n, "a thickened vertex"), coordinate(t["radius"]))
        for t in json_array(data.get("thickening", []), "graph thickening",
                            ("vertex", "radius"))
    )
    for i, (v, k) in enumerate(zip(vertices, _edge_ends(n, edges))):
        if v.valence != k:
            raise ValueError(f"vertex {i} has valence {v.valence} but {k} edge ends")
    graph = DiscriminantGraph(tuple(vertices), edges, thick)
    if thick and localized_thickening(graph, thick[0].radius).thickening != thick:
        raise ValueError("the thickening records are not those localized_thickening "
                         f"writes at radius {thick[0].radius}")
    return graph


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
