"""Euler counts, semi-stable validation, vertex sign from triples."""

import dataclasses
import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tfib import polybase as pb
from tfib import report, topo, zlat
from test_zlat import _wide_gl


K3 = pb.LatticeSimplexBoundary(3)
QUINTIC = pb.LatticeSimplexBoundary(4)


def quintic_graph():
    return pb.classify_signs(pb.build_quintic_graph(QUINTIC), QUINTIC)


def test_fibre_catalog_euler_numbers():
    assert topo.FIBRE_TYPES == {"regular": 0, "nodal_I1": 1, "generic_I1xS1": 0,
                                "positive": 1, "negative": -1,
                                "alt_negative_codim1": -1}


def test_k3_euler_is_24():
    assert topo.euler_characteristic(pb.build_k3_graph(K3), 2) == 24


def test_quintic_euler_is_minus_200():
    g = quintic_graph()
    assert topo.euler_characteristic(g, 3) == -200
    assert topo.euler_characteristic(pb.legendre_dual(g), 3) == 200


def test_euler_reads_the_fibre_catalogue(monkeypatch):
    g = quintic_graph()
    swapped = dict(topo.FIBRE_TYPES, positive=-1, negative=1)
    monkeypatch.setattr(topo, "FIBRE_TYPES", swapped)
    assert topo.euler_characteristic(g, 3) == 200
    assert topo.euler_characteristic(pb.legendre_dual(g), 3) == -200
    monkeypatch.setattr(topo, "FIBRE_TYPES", dict(swapped, nodal_I1=2))
    assert topo.euler_characteristic(pb.build_k3_graph(K3), 2) == 48


def test_euler_negates_under_dual():
    g = quintic_graph()
    assert topo.euler_characteristic(pb.legendre_dual(g), 3) == \
        -topo.euler_characteristic(g, 3)


def test_euler_invariant_under_thickening():
    g = quintic_graph()
    t = pb.localized_thickening(g, Fraction(1, 10))
    assert topo.euler_characteristic(t, 3) == topo.euler_characteristic(g, 3)


def test_euler_rejects_unsigned():
    raw = pb.build_quintic_graph(QUINTIC)
    with pytest.raises(ValueError):
        topo.euler_characteristic(raw, 3)


def _local(edges, sign="negative"):
    """The negative local-model graph with its centre's sign and its edges
    replaced; each vertex's valence is its number of edge ends."""
    model = pb.single_vertex_graph("negative")
    edges = tuple(pb.GraphEdge(a, b) for a, b in edges)
    ends = [sum((e.a == i) + (e.b == i) for e in edges) for i in range(4)]
    signs = [sign] + ["none"] * 3
    return pb.DiscriminantGraph(
        tuple(pb.GraphVertex(v.position, s, k)
              for v, s, k in zip(model.vertices, signs, ends)), edges)


#: graphs the signed check rejects, with the one-line message it gives
UNSIGNED_OR_NOT_TRIVALENT = {
    "unsigned trivalent": (
        _local([(0, 1), (0, 2), (0, 3)], sign="unsigned"),
        "unsigned trivalent vertices present; classify signs first"),
    "valence 2": (_local([(0, 1), (0, 2)]), "signed vertex 0 is not trivalent"),
    "on a loop": (_local([(0, 0), (0, 1), (2, 3)]), "signed vertex 0 is not trivalent"),
}


@pytest.mark.parametrize("case", list(UNSIGNED_OR_NOT_TRIVALENT))
def test_each_layer_rejects_a_graph_that_is_not_signed_trivalent(case):
    g, message = UNSIGNED_OR_NOT_TRIVALENT[case]
    assignment = topo.canonical_assignment(pb.single_vertex_graph("negative"))
    for check in (lambda: topo.euler_characteristic(g, 3),
                  lambda: topo.canonical_assignment(g),
                  lambda: topo.validate_semistable(g, assignment)):
        with pytest.raises(ValueError) as err:
            check()
        assert str(err.value) == message


def test_the_signed_check_scans_each_graph_once(monkeypatch):
    checked = []
    verdict = vars(pb.DiscriminantGraph)["signed_defect"]
    scan = verdict.func
    monkeypatch.setattr(verdict, "func", lambda g: checked.append(g) or scan(g))
    g = quintic_graph()
    topo.euler_characteristic(g, 3)
    topo.validate_semistable(g, topo.canonical_assignment(g))
    assert len(checked) == 1 and checked[0] is g
    dual = pb.legendre_dual(g)
    assert topo.euler_characteristic(dual, 3) == 200
    assert len(checked) == 2 and checked[1] is dual


def test_sign_from_triple():
    assert topo.sign_from_triple(zlat.NEGATIVE_TRIPLE) == "negative"
    assert topo.sign_from_triple(zlat.POSITIVE_TRIPLE) == "positive"


def test_sign_from_triple_flips_under_inverse_transpose():
    flipped = tuple(zlat.inverse_transpose(m) for m in zlat.NEGATIVE_TRIPLE)
    assert topo.sign_from_triple(flipped) == "positive"


def test_sign_from_triple_rejects_degenerate():
    ident = zlat.identity(3)
    with pytest.raises(ValueError):
        topo.sign_from_triple((ident, ident, ident))
    with pytest.raises(ValueError):
        topo.sign_from_triple((zlat.T_GENERIC, ident, ident))


def _closed(t1, t2):
    """The triple (t1, t2, (t1 t2)^-1), whose product is the identity."""
    return (t1, t2, zlat.inverse(zlat.mat_mul(t1, t2)))


@pytest.mark.parametrize("triple", [
    # T_3 - I is nilpotent of rank 2; the common fixed space is a line, as
    # for the negative triple, so the member rule is what rejects it
    _closed(zlat.mat([[1, 1, 0], [0, 1, 0], [0, 0, 1]]),
            zlat.mat([[1, 0, 0], [0, 1, 1], [0, 0, 1]])),
    # T_2 = diag(-1, 1, 1) has T_2 - I of rank one, but it is not unipotent
    _closed(zlat.NEGATIVE_TRIPLE[0], zlat.mat([[-1, 0, 0], [0, 1, 0], [0, 0, 1]])),
], ids=["unipotent of rank 2", "rank one, not unipotent"])
def test_sign_from_triple_rejects_a_member_that_is_not_a_rank_one_unipotent(triple):
    assert zlat.vertex_sign(triple) is not None
    with pytest.raises(ValueError, match="^triple member is not a rank-one unipotent$"):
        topo.sign_from_triple(triple)


def test_validate_canonical_on_negative_local_model():
    g = pb.single_vertex_graph("negative")
    report = topo.validate_semistable(g, topo.canonical_assignment(g))
    assert report.valid


def test_validate_canonical_on_positive_local_model():
    g = pb.single_vertex_graph("positive")
    report = topo.validate_semistable(g, topo.canonical_assignment(g))
    assert report.valid


def test_validate_rejects_squared_edge_matrix():
    g = pb.single_vertex_graph("negative")
    a = topo.canonical_assignment(g)
    doctored = list(a.edge_matrices)
    doctored[0] = zlat.mat_mul(doctored[0], doctored[0])
    report = topo.validate_semistable(
        g, topo.MonodromyAssignment(tuple(doctored), a.vertex_triples)
    )
    assert not report.valid
    bad = [it for it in report.items if not it.valid]
    assert any("edge 0" in it.element for it in bad)


def test_validate_rejects_identity_matrices():
    g = pb.single_vertex_graph("negative")
    ident = zlat.identity(3)
    assignment = topo.MonodromyAssignment(
        (ident, ident, ident), {0: ((0, 1, 2), (ident, ident, ident))}
    )
    report = topo.validate_semistable(g, assignment)
    assert not report.valid


def test_validate_canonical_on_quintic_sample():
    """Canonical assignment validates on a small signed subgraph."""
    g = quintic_graph()
    # restrict to one negative vertex with stub endpoints to keep it fast
    i = next(k for k, v in enumerate(g.vertices) if v.sign == "negative")
    assert len(QUINTIC.minimal_face(g.vertices[i].position)) == 3
    nbrs = [g.edges[j].b if g.edges[j].a == i else g.edges[j].a
            for j in g.incidence[i]]
    keep = [i] + nbrs
    remap = {old: new for new, old in enumerate(keep)}
    vertices = []
    for old in keep:
        v = g.vertices[old]
        if old == i:
            vertices.append(v)
        else:
            vertices.append(pb.GraphVertex(v.position, "none", 1))
    edges = tuple(
        pb.GraphEdge(remap[e.a], remap[e.b])
        for e in g.edges if e.a in remap and e.b in remap
        and i in (e.a, e.b)
    )
    sub = pb.DiscriminantGraph(tuple(vertices), edges)
    report = topo.validate_semistable(sub, topo.canonical_assignment(sub))
    assert report.valid


def test_assignment_must_cover_edges():
    g = pb.single_vertex_graph("negative")
    a = topo.canonical_assignment(g)
    with pytest.raises(ValueError):
        topo.validate_semistable(
            g, topo.MonodromyAssignment(a.edge_matrices[:2], a.vertex_triples)
        )


def test_validate_canonical_on_full_quintic():
    g = quintic_graph()
    report = topo.validate_semistable(g, topo.canonical_assignment(g))
    assert report.valid
    assert len(report.items) == 450 + 300 * 4


def conjugated(assignment, p):
    """The assignment with every matrix M replaced by P^-1 M P."""
    p_inv = zlat.inverse(p)

    def conj(m):
        return zlat.mat_mul(zlat.mat_mul(p_inv, m), p)

    return topo.MonodromyAssignment(
        tuple(conj(m) for m in assignment.edge_matrices),
        {i: (edges, tuple(conj(m) for m in mats))
         for i, (edges, mats) in assignment.vertex_triples.items()})


def shear(k):
    return zlat.mat([[1, k, 0], [0, 1, 0], [0, 0, 1]])


@pytest.mark.parametrize("p", [
    zlat.mat([[0, -1, 0], [0, 0, 1], [1, 0, 0]]), shear(1), shear(2), shear(3),
    zlat.mat([[1, 5, 0], [0, 1, 5], [0, 0, 1]]),
])
def test_validation_is_invariant_under_simultaneous_conjugation(p):
    """Conjugating every matrix of the quintic's canonical assignment by one
    unimodular P keeps the verdict: the hypotheses are conjugacy classes.
    Each item's conjugator takes its sources to its targets."""
    g = quintic_graph()
    assignment = conjugated(topo.canonical_assignment(g), p)
    report = topo.validate_semistable(g, assignment)
    assert report.valid
    edges = assignment.edge_matrices
    for item in report.items:
        words = item.element.split()
        if words[0] == "edge":
            sources, targets = [edges[int(words[1])]], [zlat.T_GENERIC]
        elif len(words) == 2:
            i = int(words[1])
            sources, targets = assignment.vertex_triples[i][1], zlat.STANDARD[g.vertices[i].sign]
        else:
            edge_ids, mats = assignment.vertex_triples[int(words[1])]
            j = int(words[4])
            sources, targets = [edges[j]], [mats[edge_ids.index(j)]]
        q = item.conjugator
        assert abs(zlat.det(q)) == 1
        assert all(zlat.mat_mul(a, q) == zlat.mat_mul(q, b) for a, b in zip(sources, targets))


@given(_wide_gl(3), st.sampled_from(["negative", "positive"]))
@settings(max_examples=100, deadline=None)
def test_topo_sign_is_invariant_under_simultaneous_conjugation(p, sign):
    """`topo sign` of the standard triple of a sign conjugated by a
    unimodular P of sup-norm up to 50: that sign, passed, and a conjugator
    that takes the conjugated triple back to the standard one."""
    p_inv = zlat.inverse(p)
    triple = [zlat.mat_mul(zlat.mat_mul(p_inv, t), p) for t in zlat.STANDARD[sign]]
    body = topo.sign_report([zlat.matrix_to_json(m) for m in triple])
    assert (body["sign"], body["passed"]) == (sign, True)
    q = body["conjugator"]
    assert abs(zlat.det(q)) == 1
    assert [zlat.mat_mul(zlat.mat_mul(zlat.inverse(q), m), q) for m in triple] \
        == list(zlat.STANDARD[sign])


def validate_per_item(graph, assignment):
    """The per-item loop that ``validate_semistable`` replaced: every item
    asks ``zlat`` its question itself.  Kept as the oracle of that one."""
    items = []
    for j, m in enumerate(assignment.edge_matrices):
        conj = zlat.conjugator(m, zlat.T_GENERIC)
        items.append(topo.ValidationItem(
            f"edge {j}", conj is not None,
            "conjugate to generic generator" if conj is not None
            else "not conjugate to the generic generator",
            conj,
        ))
    for i, v in enumerate(graph.vertices):
        if v.sign not in ("positive", "negative"):
            continue
        edge_ids, mats = assignment.vertex_triples[i]
        prod = zlat.mat_mul(zlat.mat_mul(mats[0], mats[1]), mats[2])
        if prod != zlat.identity(len(mats[0])):
            items.append(topo.ValidationItem(
                f"vertex {i}", False, "triple product is not the identity"))
            continue
        conj = zlat.simultaneous_conjugator(list(mats), zlat.STANDARD[v.sign])
        items.append(topo.ValidationItem(
            f"vertex {i}", conj is not None,
            f"simultaneously conjugate to the {v.sign} triple" if conj is not None
            else f"not simultaneously conjugate to the {v.sign} triple",
            conj,
        ))
        for slot, j in enumerate(edge_ids):
            edge_conj = zlat.conjugator(assignment.edge_matrices[j], mats[slot])
            items.append(topo.ValidationItem(
                f"vertex {i} / edge {j}", edge_conj is not None,
                "edge generator matches the vertex loop generator"
                if edge_conj is not None
                else "edge generator inconsistent with the vertex triple",
                edge_conj,
            ))
    return topo.ValidationReport(items)


def with_broken_triple(assignment):
    """The assignment with the triple of its first vertex made (T1, T2, T1),
    whose product is not the identity."""
    i = min(assignment.vertex_triples)
    edges, mats = assignment.vertex_triples[i]
    triples = dict(assignment.vertex_triples)
    triples[i] = (edges, (mats[0], mats[1], mats[0]))
    return topo.MonodromyAssignment(assignment.edge_matrices, triples)


def with_squared_edge(assignment, j=7):
    """The assignment with edge ``j``'s matrix squared: not conjugate to
    the generic generator nor to any member of a triple."""
    edges = list(assignment.edge_matrices)
    edges[j] = zlat.mat_mul(edges[j], edges[j])
    return topo.MonodromyAssignment(tuple(edges), assignment.vertex_triples)


@pytest.mark.parametrize("case", ["quintic", "dual", "conjugated",
                                  "broken triple", "squared edge"])
def test_validation_agrees_item_by_item_with_the_per_item_loop(case):
    g = quintic_graph()
    if case == "dual":
        g = pb.legendre_dual(g)
    a = topo.canonical_assignment(g)
    if case == "conjugated":
        a = conjugated(a, shear(2))
    elif case == "broken triple":
        a = with_broken_triple(a)
    elif case == "squared edge":
        a = with_squared_edge(a)
    got, want = topo.validate_semistable(g, a), validate_per_item(g, a)
    assert len(got.items) == len(want.items)
    for mine, theirs in zip(got.items, want.items):
        for field in dataclasses.fields(topo.ValidationItem):
            assert getattr(mine, field.name) == getattr(theirs, field.name), (
                mine.element, field.name)
    assert got.valid is want.valid is (case in ("quintic", "dual", "conjugated"))


def test_validation_asks_each_distinct_question_once(monkeypatch):
    asked = []
    real = zlat.simultaneous_conjugator

    def counted(sources, targets, bound=None):
        asked.append((tuple(sources), tuple(targets)))
        return real(sources, targets)

    monkeypatch.setattr(zlat, "simultaneous_conjugator", counted)
    g = quintic_graph()
    report = topo.validate_semistable(g, topo.canonical_assignment(g))
    assert len(report.items) == 1650
    assert len(asked) == len(set(asked)) == 23


def test_validation_needs_a_graph_with_edges():
    g = pb.build_k3_graph(K3)
    with pytest.raises(ValueError, match="no edges"):
        topo.validate_semistable(g, topo.canonical_assignment(g))


# SHA-256 of the canonical JSON of each report body (without its verdict,
# which the bodies did not carry when these were taken) and of its DOT text,
# so the exact graph pipeline and the report writer keep every byte
PINNED = {
    ("k3", False, None): (
        "b2a8dbe0c9eeae73055d98aa4ac1528185e9f8e0c828d8762d330ef2ac8f3f53",
        "e6bf5c0754fb7702579b69d1b1acc1a9e06ce987001bb2d0021aeb557cd355c0"),
    ("quintic", False, None): (
        "b43739b709f097a422b9959fc4c7027ce1ad1594b41632880c1664f33e6603d4",
        "e84fb6257dede0c45493bafb3e57fecdfad2d70e2a1957cbafd46037fb66395a"),
    ("quintic", True, None): (
        "a1ecd528eb3d4cc01e5c828a1a3e8f52b1967a4a5a1adeb26c2650314d3b21c0",
        "687f1397c85ac4df24b581406ca9294f3e9c093c7f2c5aab2cabb84913e708a4"),
    ("quintic", False, Fraction(2, 25)): (
        "9ae4a2b2ffefcceddbaf571d30933626bef148097cbe88bc9d456b360777ffa1",
        "e84fb6257dede0c45493bafb3e57fecdfad2d70e2a1957cbafd46037fb66395a"),
}
# SHA-256 of each body of PINNED with its graph expanded by `with_faces`
# (the format before faces were read off positions): the hashes pinned in
# that format
PINNED_WITH_FACES = {
    ("k3", False, None):
        "d278cae5988d5c2916a7b678471802bba8c964790dc15eb2d7d9718f58ec885b",
    ("quintic", False, None):
        "b6ee71eaf2b4a641693e8cf2d481d5f6d2008284d67c87abecd123664913a7c4",
    ("quintic", True, None):
        "53fc8c006f18752a3aa9d7a17f604340078a28965a7b4084566f459d380f18f8",
    ("quintic", False, Fraction(2, 25)):
        "08950e7bbdf0f11dc7cd023064d08ea138198ea0c39b6fcc5b08dccd11b57c80",
}
# SHA-256 of the body of the quintic thickened at radius 2/25 with its
# graph expanded by `with_graph_copies` (the format before a record held
# only its vertex and radius, and before faces went): the hash pinned in
# that format
PINNED_WITH_COPIES = "2ba4ed27ca5c2b1a8a358a3eaafd02f036a7bcce28ce18e83d4186ec9eb11239"
# dual -> SHA-256 of the quintic's validation body, and of that body
# expanded to one {element, valid, detail, conjugator} dict per item (the
# per-item format the body had before it named each distinct answer once),
# with the conjugators the normal forms give
PINNED_VALIDATION = {
    False: ("110b995d12a434d2027e20bd71fee99a750874a346adab0414cba44fd6494618",
            "afa0992e806192db69e6bb2d673dead8aabb1a38a64edbb405d09bf8dbc7e1e9"),
    True: ("8810c5eea16cb34afd542ed24e2dffa840382f7afb7817888e566d342880580c",
           "50056413e93e166dd5f606b4340cfd142875ba5a190b36c236efd4dcd8aaa6d7"),
}


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def with_faces(document):
    """A graph document with the ``face`` each vertex and edge carried
    before faces were read off positions: a vertex's face is the
    `minimal_face` of its position on the simplex boundary of that
    dimension, an edge's the union of its ends' faces, each a sorted list."""
    faces = [pb.LatticeSimplexBoundary(len(v["position"])).minimal_face(
        tuple(Fraction(c) for c in v["position"])) for v in document["vertices"]]
    return dict(document,
                vertices=[dict(v, face=sorted(f))
                          for v, f in zip(document["vertices"], faces)],
                edges=[dict(e, face=sorted(faces[e["a"]] | faces[e["b"]]))
                       for e in document["edges"]])


def with_graph_copies(document):
    """A graph document expanded by `with_faces`, with each thickening
    record in the six-field shape it had before it held only its vertex and
    radius: ``center`` is the vertex's position, ``legs`` its neighbours'
    positions minus that one, in ascending neighbour order, ``disc_radius``
    the radius again and ``plane_face`` the vertex's face."""
    document = with_faces(document)
    vertices = document["vertices"]

    def position(i):
        return [Fraction(c) for c in vertices[i]["position"]]

    records = []
    for rec in document["thickening"]:
        i = rec["vertex"]
        ends = sorted(e["b"] if e["a"] == i else e["a"]
                      for e in document["edges"] if i in (e["a"], e["b"]))
        records.append(dict(rec, center=vertices[i]["position"],
                            legs=[[str(q - p) for p, q in zip(position(i), position(j))]
                                  for j in ends],
                            disc_radius=rec["radius"], plane_face=vertices[i]["face"]))
    return dict(document, thickening=records)


def expanded(body):
    """A validation body with each item written out in full."""
    return {"passed": body["passed"],
            "items": [dict(body["questions"][q], element=element)
                      for element, q in body["items"]]}


def test_graph_and_validation_reports_keep_their_pinned_bytes():
    bodies = {}
    for key, (body_sha, dot_sha) in PINNED.items():
        body, side = topo.graph_report(*key)
        assert body.pop("passed") is True
        text = report.canonical_json(body)
        assert (sha256(text), sha256(side[".dot"])) == (body_sha, dot_sha), key
        faced = dict(body, graph=with_faces(body["graph"]))
        assert sha256(report.canonical_json(faced)) == PINNED_WITH_FACES[key], key
        assert len(text) < (90_000 if key[2] else 75_000), key
        bodies[key] = body
    for dual, want in PINNED_VALIDATION.items():
        body = topo.validate_report(bodies["quintic", dual, None])
        text = report.canonical_json(body)
        assert (sha256(text), sha256(report.canonical_json(expanded(body)))) == want, dual
        assert len(text) < 100_000 and len(body["items"]) == 1650
        keys = [(q["valid"], q["detail"], q["conjugator"]) for q in body["questions"]]
        assert len(set(keys)) == len(keys) == 18


def test_the_thickened_quintic_holds_each_record_as_vertex_and_radius():
    """Written out with the faces and the copies of graph data each record
    once carried, the thickened quintic is the document it was (the hash
    pinned before the copies went), and that document reads to the same
    graph."""
    body, _ = topo.graph_report("quintic", False, Fraction(2, 25))
    body.pop("passed")
    text = report.canonical_json(body)
    assert len(text) < 90_000 and body["thickened"] == 250
    assert all(rec.keys() == {"vertex", "radius"} for rec in body["graph"]["thickening"])
    older = dict(body, graph=with_graph_copies(body["graph"]))
    assert sha256(report.canonical_json(older)) == PINNED_WITH_COPIES
    assert pb.graph_from_json(older["graph"]) == pb.graph_from_json(body["graph"])


@pytest.mark.parametrize("key", list(PINNED))
def test_a_document_with_faces_reads_to_the_same_graph(key):
    """Vertices and edges hold no face; the reader ignores the ``face``
    keys older documents carry."""
    document = topo.graph_report(*key)[0]["graph"]
    assert all(v.keys() == {"position", "sign", "valence"} for v in document["vertices"])
    assert all(e.keys() == {"a", "b"} for e in document["edges"])
    faced = with_faces(document)
    assert faced["vertices"][0]["face"] and faced != document
    assert pb.graph_from_json(faced) == pb.graph_from_json(document)


def test_a_failing_edge_stays_visible_in_the_grouped_report():
    """The quintic's canonical assignment with one edge matrix set to the
    identity: exactly the items that name that edge point to an answer
    that fails, and every item reads back as the item it came from."""
    g = quintic_graph()
    a = topo.canonical_assignment(g)
    j = 7
    edges = list(a.edge_matrices)
    edges[j] = zlat.identity(3)
    rep = topo.validate_semistable(g, topo.MonodromyAssignment(tuple(edges),
                                                                a.vertex_triples))
    body = rep.to_json()
    assert body["passed"] is False
    failing = [element for element, q in body["items"]
               if not body["questions"][q]["valid"]]
    names_j = [it.element for it in rep.items
               if it.element.split()[-2:] == ["edge", str(j)]]
    assert failing == names_j and len(names_j) == 3
    assert expanded(body)["items"] == [dataclasses.asdict(it) for it in rep.items]


def test_a_quintic_graph_missing_an_edge_fails(monkeypatch):
    build = pb.build_quintic_graph

    def drop_one_edge(boundary):
        g = build(boundary)
        return pb.DiscriminantGraph(g.vertices, g.edges[:-1])

    monkeypatch.setattr(pb, "build_quintic_graph", drop_one_edge)
    for dual in (False, True):
        body, _ = topo.graph_report("quintic", dual, None)
        assert body["edges"] == 449 and body["passed"] is False


def test_a_wrong_euler_number_fails(monkeypatch):
    monkeypatch.setitem(topo.FIBRE_TYPES, "nodal_I1", 2)
    body, _ = topo.graph_report("k3", False, None)
    assert body["euler"] == 48 and body["passed"] is False


def test_equal_answers_held_by_different_objects_share_one_question():
    def conj():   # a new, equal object each call
        return tuple(tuple(int(i == j) for j in range(3)) for i in range(3))

    shared = conj()
    items = [topo.ValidationItem("edge 0", True, "ok", shared),
             topo.ValidationItem("edge 1", True, "ok", conj()),
             topo.ValidationItem("edge 2", True, "ok", shared),
             topo.ValidationItem("edge 3", False, "no", None),
             topo.ValidationItem("edge 4", True, "ok", conj()),
             topo.ValidationItem("edge 5", False, "no", None),
             topo.ValidationItem("edge 6", True, "other", shared)]
    assert len({id(it.conjugator) for it in items}) == 4
    body = topo.ValidationReport(items).to_json()
    assert body["questions"] == [
        {"valid": True, "detail": "ok", "conjugator": shared},
        {"valid": False, "detail": "no", "conjugator": None},
        {"valid": True, "detail": "other", "conjugator": shared},
    ]
    assert [q for _, q in body["items"]] == [0, 0, 0, 1, 0, 1, 2]
