"""Euler counts, semi-stable validation, vertex sign from triples."""

import dataclasses
import hashlib
from fractions import Fraction

import pytest

from tfib import polybase as pb
from tfib import report, topo, zlat


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
            vertices.append(pb.GraphVertex(v.position, "none", 1, v.face))
    edges = tuple(
        pb.GraphEdge(remap[e.a], remap[e.b], e.face)
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
    # 795 items need a conjugator outside the SEARCH_BOUND box
    pytest.param(zlat.mat([[1, 5, 0], [0, 1, 5], [0, 0, 1]]),
                 marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 4(a)")),
])
def test_validation_is_invariant_under_simultaneous_conjugation(p):
    """Conjugating every matrix of the quintic's canonical assignment by one
    unimodular P keeps the verdict: the hypotheses are conjugacy classes."""
    g = quintic_graph()
    assert topo.validate_semistable(g, conjugated(topo.canonical_assignment(g), p)).valid


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
    search = zlat.simultaneous_conjugator

    def counted(sources, targets, bound=zlat.SEARCH_BOUND):
        asked.append((tuple(sources), tuple(targets)))
        return search(sources, targets, bound)

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
        "d278cae5988d5c2916a7b678471802bba8c964790dc15eb2d7d9718f58ec885b",
        "e6bf5c0754fb7702579b69d1b1acc1a9e06ce987001bb2d0021aeb557cd355c0"),
    ("quintic", False, None): (
        "b6ee71eaf2b4a641693e8cf2d481d5f6d2008284d67c87abecd123664913a7c4",
        "e84fb6257dede0c45493bafb3e57fecdfad2d70e2a1957cbafd46037fb66395a"),
    ("quintic", True, None): (
        "53fc8c006f18752a3aa9d7a17f604340078a28965a7b4084566f459d380f18f8",
        "687f1397c85ac4df24b581406ca9294f3e9c093c7f2c5aab2cabb84913e708a4"),
    ("quintic", False, Fraction(2, 25)): (
        "2ba4ed27ca5c2b1a8a358a3eaafd02f036a7bcce28ce18e83d4186ec9eb11239",
        "e84fb6257dede0c45493bafb3e57fecdfad2d70e2a1957cbafd46037fb66395a"),
}
PINNED_VALIDATION = {
    False: "5a6f1154c385868aaee95536c6a8dbbd859b3358d5f1cc7b7b066dbbd46c2ba6",
    True: "40229d3ea9dfd8069aa6d6d50cfd7d113d7eb675ff2f22469ebb78138a5f7c0b",
}


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_graph_and_validation_reports_keep_their_pinned_bytes():
    bodies = {}
    for (which, dual, thicken), (body_sha, dot_sha) in PINNED.items():
        body, side = topo.graph_report(which, dual, thicken)
        assert body.pop("passed") is True
        assert (sha256(report.canonical_json(body)), sha256(side[".dot"])) == (
            body_sha, dot_sha), (which, dual, thicken)
        bodies[which, dual, thicken] = body
    for dual, want in PINNED_VALIDATION.items():
        got = report.canonical_json(topo.validate_report(bodies["quintic", dual, None]))
        assert sha256(got) == want, dual


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
