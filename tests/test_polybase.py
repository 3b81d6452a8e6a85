"""Polytope discriminant graphs: exact counts, signs, dual, thickening."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tfib import polybase as pb


K3 = pb.LatticeSimplexBoundary(3)
QUINTIC = pb.LatticeSimplexBoundary(4)


def frac_pt(*coords):
    return tuple(Fraction(c) for c in coords)


def test_k3_vertices():
    assert K3.vertices[0] == frac_pt(-1, -1, -1)
    assert K3.vertices[1] == frac_pt(3, -1, -1)


def test_k3_edge_has_five_integral_points():
    pts = pb.integral_points(K3, frozenset({0, 1}))
    assert sorted(pts) == [
        frac_pt(-1, -1, -1), frac_pt(0, -1, -1), frac_pt(1, -1, -1),
        frac_pt(2, -1, -1), frac_pt(3, -1, -1),
    ]
    for p in pts:
        assert all(c.denominator == 1 for c in p)


def test_quintic_2face_has_21_integral_points():
    for face in QUINTIC.faces(2):
        assert len(pb.integral_points(QUINTIC, face)) == 21


def test_unit_segment_endpoints_only():
    # scale-1 analogue: a lattice-length-4 K3 edge split in 4, so each
    # unit segment contributes exactly its 2 endpoints to the point set
    pts = pb.integral_points(K3, frozenset({0, 1}))
    assert len(pts) == 5 and len(set(pts)) == 5


def test_invalid_face_id():
    with pytest.raises(ValueError):
        pb.integral_points(K3, frozenset({0, 9}))
    with pytest.raises(ValueError):
        pb.integral_points(K3, frozenset({0, 1, 2, 3}))


def test_negative_face_ids_are_not_read_from_the_end():
    with pytest.raises(ValueError, match="invalid boundary face id"):
        pb.integral_points(K3, frozenset({-1, 0}))


def test_k3_graph_is_24_isolated_nodes():
    g = pb.build_k3_graph(K3)
    assert len(g.vertices) == 24
    assert len(g.edges) == 0
    assert all(v.sign == "none" and v.valence == 0 for v in g.vertices)


def test_k3_node_positions_on_first_edge():
    g = pb.build_k3_graph(K3)
    expected = {
        frac_pt(Fraction(-1, 2), -1, -1), frac_pt(Fraction(1, 2), -1, -1),
        frac_pt(Fraction(3, 2), -1, -1), frac_pt(Fraction(5, 2), -1, -1),
    }
    got = {v.position for v in g.vertices if K3.minimal_face(v.position) == frozenset({0, 1})}
    assert got == expected


def test_k3_nodes_lie_on_1_faces():
    g = pb.build_k3_graph(K3)
    for v in g.vertices:
        assert len(K3.minimal_face(v.position)) == 2


def test_k3_graph_rejects_wrong_dimension():
    with pytest.raises(ValueError):
        pb.build_k3_graph(QUINTIC)
    with pytest.raises(ValueError):
        pb.build_quintic_graph(K3)


def quintic_graph():
    return pb.classify_signs(pb.build_quintic_graph(QUINTIC), QUINTIC)


def test_quintic_counts():
    g = quintic_graph()
    assert len(g.vertices) == 300
    assert len(g.edges) == 450
    assert g.count_sign("negative") == 250
    assert g.count_sign("positive") == 50


def test_quintic_trivalent_and_connected():
    g = quintic_graph()
    assert all(v.valence == 3 for v in g.vertices)
    assert all(len(edges) == 3 for edges in g.incidence)
    assert g.connected_components() == 1


def test_incidence_lists_each_vertex_edges_in_order():
    g = quintic_graph()
    for i, edges in enumerate(g.incidence):
        assert edges == tuple(j for j, e in enumerate(g.edges) if i in (e.a, e.b))
    # a loop is incident once; an isolated vertex has no edges
    loop = pb.DiscriminantGraph(
        tuple(pb.GraphVertex((Fraction(k),), "none", 0) for k in range(3)),
        (pb.GraphEdge(0, 1), pb.GraphEdge(1, 1), pb.GraphEdge(1, 0)))
    assert loop.incidence == ((0, 2), (0, 1, 2), ())


def test_quintic_sign_placement():
    g = quintic_graph()
    for v in g.vertices:
        k = len(QUINTIC.minimal_face(v.position)) - 1
        assert (v.sign == "negative") == (k == 2)
        assert (v.sign == "positive") == (k == 1)


def test_corner_triangle_barycenter_is_negative():
    g = quintic_graph()
    # a barycenter with thirds in its coordinates sits inside a 2-face
    v = next(v for v in g.vertices if any(c.denominator == 3 for c in v.position))
    assert v.sign == "negative"


def test_sign_classification_symmetry():
    """Coordinate permutations of the simplex map signs to signs."""
    g = quintic_graph()
    signed = {v.position: v.sign for v in g.vertices}
    for perm in ((1, 0, 2, 3), (0, 2, 1, 3), (3, 1, 2, 0)):
        for pos, sign in signed.items():
            image = tuple(pos[i] for i in perm)
            assert signed[image] == sign


def test_legendre_dual_swaps_counts():
    g = quintic_graph()
    d = pb.legendre_dual(g)
    assert d.count_sign("negative") == 50
    assert d.count_sign("positive") == 250
    assert pb.legendre_dual(d) == g
    assert d.edges == g.edges


def test_legendre_dual_single_vertex():
    g = pb.single_vertex_graph("positive")
    d = pb.legendre_dual(g)
    assert d.vertices[0].sign == "negative"


def test_legendre_dual_requires_signs():
    raw = pb.build_quintic_graph(QUINTIC)
    with pytest.raises(ValueError):
        pb.legendre_dual(raw)


def test_legendre_dual_rejects_a_thickened_graph():
    """Its records would sit on positive vertices, which no thickening
    writes and the reader rejects: the dual comes before the thickening."""
    t = pb.localized_thickening(quintic_graph(), Fraction(1, 10))
    with pytest.raises(ValueError, match="thickened"):
        pb.legendre_dual(t)
    assert pb.legendre_dual(pb.DiscriminantGraph(t.vertices, t.edges)).thickening == ()


def test_thickening_counts_and_invariance():
    g = quintic_graph()
    t = pb.localized_thickening(g, Fraction(1, 10))
    assert len(t.thickening) == 250
    assert t.vertices == g.vertices and t.edges == g.edges
    # each amoeba has three legs and lies in a 2-face
    for rec in t.thickening:
        assert len(g.incidence[rec.vertex]) == 3
        assert len(QUINTIC.minimal_face(g.vertices[rec.vertex].position)) == 3
        assert rec.radius == Fraction(1, 10)


def test_thickening_no_negative_vertices_is_unchanged():
    g = pb.build_k3_graph(K3)
    t = pb.localized_thickening(g, Fraction(1, 10))
    assert t.thickening == ()


def test_thickening_radius_overlap_reported():
    g = pb.single_vertex_graph("negative")
    with pytest.raises(ValueError):
        pb.localized_thickening(g, Fraction(2))


def test_all_positions_exact():
    g = quintic_graph()
    for v in g.vertices:
        assert all(isinstance(c, Fraction) for c in v.position)


def test_graph_json_roundtrip():
    g = pb.localized_thickening(quintic_graph(), Fraction(1, 10))
    back = pb.graph_from_json(pb.graph_to_json(g))
    assert back == g


def test_the_reader_counts_a_loop_as_two_edge_ends():
    def document(valences, edges):
        return {"vertices": [{"position": [str(k)], "sign": "none", "valence": n}
                             for k, n in enumerate(valences)],
                "edges": [{"a": a, "b": b} for a, b in edges]}

    g = pb.graph_from_json(document([3, 1], [(0, 0), (0, 1)]))
    assert [v.valence for v in g.vertices] == [3, 1] and g.incidence == ((0, 1), (1,))
    for valences in ([2, 1], [3, 0], [1, 1]):
        with pytest.raises(ValueError, match=r"^vertex \d has valence \d but \d edge ends$"):
            pb.graph_from_json(document(valences, [(0, 0), (0, 1)]))


def _positive_record(recs, g):
    recs.insert(0, {"vertex": next(i for i, v in enumerate(g.vertices)
                                   if v.sign == "positive"), "radius": "1/10"})


@pytest.mark.parametrize("edit", [
    lambda recs, g: recs.pop(),
    lambda recs, g: recs.append(dict(recs[0])),
    lambda recs, g: recs.reverse(),
    lambda recs, g: recs[3].update(radius="1/9"),
    _positive_record,
])
def test_the_reader_rejects_records_no_thickening_writes(edit):
    """Records missing, repeated, out of order, at two radii or on a
    positive vertex; the document as written reads back."""
    g = quintic_graph()
    t = pb.localized_thickening(g, Fraction(1, 10))
    doc = pb.graph_to_json(t)
    assert pb.graph_from_json(doc) == t
    edit(doc["thickening"], g)
    with pytest.raises(ValueError, match="^the thickening records are not those "
                                         "localized_thickening writes at radius 1/10$"):
        pb.graph_from_json(doc)


def test_graph_dot_export():
    dot = pb.graph_to_dot(pb.single_vertex_graph("negative"))
    assert dot.startswith("graph discriminant {")
    assert "v0 -- v1;" in dot


@given(st.sampled_from([f for f in QUINTIC.faces(1)]))
@settings(max_examples=10, deadline=None)
def test_every_quintic_edge_carries_6_points(face):
    assert len(pb.integral_points(QUINTIC, face)) == 6


def test_compositions_unit_segment():
    # the scale-1 degenerate case of the enumerator: endpoints only
    assert sorted(pb._compositions(1, 2)) == [(0, 1), (1, 0)]


def test_thickening_single_negative_vertex():
    g = pb.single_vertex_graph("negative")
    t = pb.localized_thickening(g, Fraction(1, 4))
    assert t.thickening == (pb.Thickening(0, Fraction(1, 4)),)


def test_graph_coordinates_read_no_bool_or_float_through_the_memo():
    """1, 1.0 and True are one dict key: a coordinate memo keyed on them
    would read True and 1.0 as an earlier 1."""
    vertex = {"sign": "none", "valence": 0}
    for bad in (True, 1.0):
        doc = {"vertices": [dict(vertex, position=[1, 1]),
                            dict(vertex, position=[1, bad])], "edges": []}
        with pytest.raises(ValueError, match="exact rationals"):
            pb.graph_from_json(doc)
    doc = {"vertices": [dict(vertex, position=["1/2", 1, "-3"])], "edges": []}
    assert pb.graph_from_json(doc).vertices[0].position == frac_pt("1/2", 1, -3)


def _fraction_minimal_face(boundary, p):
    """The Fraction barycentric rule that `minimal_face` ran before it
    moved to integer lattice coordinates, kept as the oracle."""
    signs = [c + 1 for c in p]
    signs.insert(0, boundary.scale - sum(signs))
    if any(b < 0 for b in signs):
        raise ValueError(f"point {p} lies outside the simplex")
    return frozenset(i for i, b in enumerate(signs) if b > 0)


def _simplex_points(boundary):
    """Points with mixed denominators: free ones, inside or outside the
    simplex, and ones on a boundary face (integer barycentric weights with
    some zeros)."""
    d, verts = boundary.dimension, boundary.vertices
    free = st.lists(st.fractions(min_value=-2, max_value=d + 1, max_denominator=12),
                    min_size=d, max_size=d).map(tuple)

    def combination(weights):
        return tuple(sum(w * v[j] for w, v in zip(weights, verts)) / sum(weights)
                     for j in range(d))

    on_face = st.lists(st.integers(0, 7), min_size=d + 1, max_size=d + 1).filter(any)
    return st.one_of(free, on_face.map(combination))


@given(st.sampled_from([K3, QUINTIC]).flatmap(
    lambda b: st.tuples(st.just(b), _simplex_points(b))))
@settings(max_examples=200, deadline=None)
def test_integer_face_rule_matches_the_fraction_rule(case):
    boundary, p = case
    try:
        want = _fraction_minimal_face(boundary, p)
    except ValueError as err:
        with pytest.raises(ValueError) as got:
            boundary.minimal_face(p)
        assert str(got.value) == str(err)
        return
    assert boundary.minimal_face(p) == want


def _trivalent(*points):
    return pb.DiscriminantGraph(tuple(pb.GraphVertex(p, "unsigned", 3) for p in points), ())


def _sign_by_minimal_face(p):
    """(sign, None) or (None, error message) for a trivalent vertex at p,
    from its own `minimal_face`."""
    try:
        k = len(QUINTIC.minimal_face(p)) - 1
    except ValueError as err:
        return None, str(err)
    if k in (1, 2):
        return ("positive" if k == 1 else "negative"), None
    if k == 0:
        return None, f"graph vertex on a 0-face at {p}"
    return None, f"trivalent vertex in a {k}-face interior at {p}"


@given(st.lists(_simplex_points(QUINTIC), min_size=1, max_size=6))
@settings(max_examples=200, deadline=None)
def test_classify_signs_over_a_common_denominator_matches_minimal_face(points):
    """Mixed denominators in one graph: each vertex gets the sign of its
    own `minimal_face`, and the first that has none names its error."""
    want = [_sign_by_minimal_face(p) for p in points]
    errors = [message for _, message in want if message is not None]
    if errors:
        with pytest.raises(ValueError) as got:
            pb.classify_signs(_trivalent(*points), QUINTIC)
        assert str(got.value) == errors[0]
    else:
        got = pb.classify_signs(_trivalent(*points), QUINTIC)
        assert [v.sign for v in got.vertices] == [sign for sign, _ in want]


@pytest.mark.parametrize("position, message", [
    (frac_pt(-2, 0, 0, 0),
     "point (Fraction(-2, 1), Fraction(0, 1), Fraction(0, 1), Fraction(0, 1)) "
     "lies outside the simplex"),
    (frac_pt(4, -1, -1, -1),
     "graph vertex on a 0-face at (Fraction(4, 1), Fraction(-1, 1), "
     "Fraction(-1, 1), Fraction(-1, 1))"),
    (frac_pt("1/4", "1/4", "1/4", "1/4"),
     "trivalent vertex in a 3-face interior at (Fraction(1, 4), Fraction(1, 4), "
     "Fraction(1, 4), Fraction(1, 4))"),
])
def test_classify_signs_names_a_vertex_it_cannot_sign(position, message):
    # a vertex with denominator 6 beside it: the common denominator is not the point's
    graph = _trivalent(frac_pt("1/2", "1/3", -1, -1), position)
    with pytest.raises(ValueError) as err:
        pb.classify_signs(graph, QUINTIC)
    assert str(err.value) == message


def _fraction_thickening(graph, amoeba_radius):
    """The Fraction legs and reach test that `localized_thickening` ran
    before it moved to integer lattice coordinates, kept as the oracle."""
    radius = Fraction(amoeba_radius)
    reach = radius**2
    records = []
    for i, v in enumerate(graph.vertices):
        if v.sign != "negative":
            continue
        for e in (graph.edges[k] for k in graph.incidence[i]):
            j = e.b if e.a == i else e.a
            leg = tuple(q - p for p, q in zip(v.position, graph.vertices[j].position))
            if sum(x * x for x in leg) <= reach:
                raise ValueError(f"amoeba radius {radius} reaches vertex {j} from vertex {i}")
        records.append(pb.Thickening(i, radius))
    return pb.DiscriminantGraph(graph.vertices, graph.edges, tuple(records))


@st.composite
def _mixed_denominator_graphs(draw):
    """A signed graph with positions of mixed denominators, and a length a
    such that vertex 0 (negative) has a leg of length exactly a."""
    def fractions(low, high):
        return st.builds(Fraction, st.integers(low, high), st.sampled_from([1, 2, 3, 5, 6, 9]))

    n = draw(st.integers(1, 5))
    pos = [tuple(draw(st.lists(fractions(-20, 20), min_size=3, max_size=3)))
           for _ in range(n)]
    a = draw(fractions(1, 12))
    pos.append((pos[0][0] + a, pos[0][1], pos[0][2]))
    signs = ["negative"] + draw(st.lists(st.sampled_from(["negative", "positive", "none"]),
                                         min_size=n, max_size=n))
    pairs = draw(st.lists(st.tuples(st.integers(0, n), st.integers(0, n)), max_size=8))
    edges = (pb.GraphEdge(0, n),) + tuple(pb.GraphEdge(i, j) for i, j in pairs)
    vertices = tuple(pb.GraphVertex(p, s, 0) for p, s in zip(pos, signs))
    return pb.DiscriminantGraph(vertices, edges), a


@given(_mixed_denominator_graphs(),
       st.one_of(st.builds(Fraction, st.integers(1, 30), st.integers(1, 40)), st.none()))
@settings(max_examples=150, deadline=None)
def test_integer_thickening_matches_the_fraction_reference(case, radius):
    """None draws the radius equal to vertex 0's leg of exact length a,
    which reaches (the test is <=) and must raise."""
    graph, a = case
    exact = radius is None
    radius = a if exact else radius
    try:
        want = _fraction_thickening(graph, radius)
    except ValueError as err:
        with pytest.raises(ValueError) as got:
            pb.localized_thickening(graph, radius)
        assert str(got.value) == str(err)
        return
    assert not exact
    got = pb.localized_thickening(graph, radius)
    assert got == want and pb.graph_to_json(got) == pb.graph_to_json(want)
