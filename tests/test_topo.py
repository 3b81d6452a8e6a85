"""Euler counts, semi-stable validation, vertex sign from triples."""

from fractions import Fraction

import pytest

from tfib import polybase as pb
from tfib import topo, zlat


K3 = pb.LatticeSimplexBoundary(3)
QUINTIC = pb.LatticeSimplexBoundary(4)


def quintic_graph():
    return pb.classify_signs(pb.build_quintic_graph(QUINTIC), QUINTIC)


def test_fibre_catalog_euler_numbers():
    t = topo.FIBRE_TYPES
    assert t["regular"].euler == 0
    assert t["nodal_I1"].euler == 1
    assert t["generic_I1xS1"].euler == 0
    assert t["positive"].euler == 1
    assert t["negative"].euler == -1


def test_k3_euler_is_24():
    assert topo.euler_characteristic(pb.build_k3_graph(K3), 2) == 24


def test_quintic_euler_is_minus_200():
    g = quintic_graph()
    assert topo.euler_characteristic(g, 3) == -200
    assert topo.euler_characteristic(pb.legendre_dual(g), 3) == 200


def test_euler_reads_the_fibre_catalogue(monkeypatch):
    g = quintic_graph()
    swapped = dict(topo.FIBRE_TYPES,
                   positive=topo.FibreType(-1), negative=topo.FibreType(1))
    monkeypatch.setattr(topo, "FIBRE_TYPES", swapped)
    assert topo.euler_characteristic(g, 3) == 200
    assert topo.euler_characteristic(pb.legendre_dual(g), 3) == -200
    monkeypatch.setattr(topo, "FIBRE_TYPES",
                        dict(swapped, nodal_I1=topo.FibreType(2)))
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
    nbrs = g.neighbors(i)
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
