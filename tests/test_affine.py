"""Local models, holonomy conventions, cocycle and simplicity checks."""

import hashlib
import random
from fractions import Fraction

import pytest

from tfib import affine, report, zlat
from tfib.affine import (
    AffineMapZ,
    ChartedBase,
    Crossing,
    LoopWord,
    OverlapPiece,
    Polynomial,
    build_local_model,
    check_cocycle,
    check_simple,
    holonomy,
)


def test_node_anticlockwise_generator_is_T():
    base = build_local_model("node")
    assert holonomy(base, base.loops["g"]) == zlat.T_NODE


def test_node_atlas_shape():
    base = build_local_model("node")
    assert [c.id for c in base.charts] == ["U1", "U2"]
    by_region = {p.region: p.transition for p in base.pieces}
    assert by_region["Hplus"] == AffineMapZ.identity(2)
    assert by_region["Hminus"].linear == zlat.inverse_transpose(zlat.T_NODE)


def test_negative_model_three_charts_and_triple():
    base = build_local_model("negative")
    assert len(base.charts) == 3
    triple = tuple(holonomy(base, base.loops[g]) for g in ("g1", "g2", "g3"))
    assert triple == zlat.NEGATIVE_TRIPLE
    prod = zlat.mat_mul(zlat.mat_mul(triple[0], triple[1]), triple[2])
    assert prod == zlat.identity(3)


def test_positive_model_inverse_transpose_rep():
    base = build_local_model("positive")
    triple = tuple(holonomy(base, base.loops[g]) for g in ("g1", "g2", "g3"))
    assert triple == zlat.POSITIVE_TRIPLE


def test_edge_variation_discriminant_curve():
    tau = Polynomial([0, 0, 1])  # tau(s) = s^2
    base = build_local_model("edge", tau)
    assert base.discriminant["plane"] == "{x2=0}"
    assert base.tau(2) == 4
    assert base.discriminant["tau"] == ["0", "0", "1"]


@pytest.mark.parametrize("kind, tau", [("node", None), ("edge", ["0", "1/2", "3"]),
                                       ("negative", ["0", "1"]), ("positive", None)])
def test_an_atlas_discriminant_is_checked_against_its_one_declared_kind(kind, tau):
    """Every built atlas reads back with its derived discriminant record,
    and so does its record with tau spelled otherwise, but an edited record
    raises; without the record, or with points that declare no common
    local-model kind, nothing is compared."""
    data = affine.build_report(kind, tau)
    assert affine.base_from_json(data).discriminant == data["discriminant"]
    wrong = dict(data, discriminant={**data["discriminant"], "plane": "{x3=0}"})
    with pytest.raises(ValueError, match=r"^atlas discriminant\.plane is '\{x3=0\}'"):
        affine.base_from_json(wrong)
    affine.base_from_json({k: v for k, v in wrong.items() if k != "discriminant"})
    if "tau" in data["discriminant"]:
        spelled = [f"{2 * Fraction(c).numerator}/{2 * Fraction(c).denominator}"
                   for c in data["tau"]]
        affine.base_from_json(dict(data, discriminant={**data["discriminant"], "tau": spelled}))
    for types in (["x"], [None], [["unhashable"]], [kind, "x"]):
        points = [dict(data["singular_points"][0], id=str(i), type=t)
                  for i, t in enumerate(types)]
        affine.base_from_json(dict(wrong, singular_points=points))


def test_vertex_tau_must_vanish():
    with pytest.raises(ValueError):
        build_local_model("negative", Polynomial([1]))
    with pytest.raises(ValueError):
        build_local_model("unknown-kind")


def test_trivial_loop_is_identity():
    base = build_local_model("node")
    assert holonomy(base, LoopWord("U1", ())) == zlat.identity(2)


def test_invalid_crossing_sequence():
    base = build_local_model("node")
    bad = LoopWord("U1", (Crossing("Hplus", "U2", "U1"),))
    with pytest.raises(ValueError):
        holonomy(base, bad)
    unclosed = LoopWord("U1", (Crossing("Hplus", "U1", "U2"),))
    with pytest.raises(ValueError):
        holonomy(base, unclosed)


def test_cocycle_on_all_models():
    for kind in ("node", "edge", "positive", "negative"):
        assert check_cocycle(build_local_model(kind)) is None


def test_cocycle_reads_a_piece_in_either_direction():
    """The negative model with piece 13+ stored U3 -> U1 is the same
    atlas; storing it so without inverting its transition is not one."""
    base = build_local_model("negative")
    shear = AffineMapZ(zlat.mat([[1, 1, 0], [0, 1, 0], [0, 0, 1]]), (0, 0, 0))
    base = recharted(base, {"U3": shear})
    for t, failure in [(lambda p: zlat.invert(p.transition), None),
                       (lambda p: p.transition,
                        "atlas is not a cocycle on region 'Vplus': "
                        "U1 -> U2 -> U3 is not U1 -> U3")]:
        flipped = ChartedBase(
            dim=3, charts=base.charts,
            pieces=[OverlapPiece(p.id, p.chart_b, p.chart_a, p.region, t(p))
                    if p.id == "13+" else p for p in base.pieces])
        assert check_cocycle(flipped) == failure


def test_cocycle_compares_two_pieces_between_the_same_charts():
    """A second piece on region Vplus between U1 and U2 must be 12+ again
    (stored U1 -> U2) or its inverse (stored U2 -> U1), wherever it sits
    in the piece list; it is crossed by no loop and, placed first, no
    chart triple reads it."""
    base = build_local_model("negative")
    twelve = base.piece("12+")
    inverse = zlat.invert(twelve.transition)
    failure = ("atlas is not a cocycle on region 'Vplus': pieces {} and {} "
               "glue the same charts differently")
    for a, b, t, ok in [("U1", "U2", twelve.transition, True), ("U2", "U1", inverse, True),
                        ("U1", "U2", inverse, False), ("U2", "U1", twelve.transition, False),
                        ("U1", "U2", AffineMapZ.identity(3), False)]:
        extra = OverlapPiece("12+b", a, b, "Vplus", t)
        for k in (0, len(base.pieces)):
            pieces = list(base.pieces)
            pieces.insert(k, extra)
            first, second = ("12+b", "12+") if k == 0 else ("12+", "12+b")
            got = check_cocycle(ChartedBase(dim=3, charts=base.charts, pieces=pieces))
            assert got == (None if ok else failure.format(first, second)), (a, b, k)


def test_contractible_triple_word_is_identity():
    base = build_local_model("negative")
    word = LoopWord("U1", (
        Crossing("12+", "U1", "U2"),
        Crossing("23+", "U2", "U3"),
        Crossing("13+", "U3", "U1"),
    ))
    assert holonomy(base, word) == zlat.identity(3)


def _random_word(base, rng, length):
    """Random closed walk on the chart graph starting at U1."""
    adjacency = {}
    for p in base.pieces:
        adjacency.setdefault(p.chart_a, []).append((p.id, p.chart_b))
        adjacency.setdefault(p.chart_b, []).append((p.id, p.chart_a))
    crossings = []
    current = "U1"
    for _ in range(length):
        piece, nxt = rng.choice(adjacency[current])
        crossings.append(Crossing(piece, current, nxt))
        current = nxt
    # walk home along pieces to U1 (charts here are mutually adjacent)
    while current != "U1":
        piece, nxt = next(
            (pid, other) for pid, other in adjacency[current] if other == "U1"
        )
        crossings.append(Crossing(piece, current, nxt))
        current = nxt
    return LoopWord("U1", tuple(crossings))


def recharted(base: ChartedBase, changes) -> ChartedBase:
    """The same affine manifold with the coordinates x of each chart c in
    ``changes`` replaced by changes[c](x), an `AffineMapZ`."""
    inverses = {c: zlat.invert(m) for c, m in changes.items()}

    def moved(p):
        t = p.transition
        if p.chart_a in changes:
            t = zlat.compose(t, inverses[p.chart_a])
        if p.chart_b in changes:
            t = zlat.compose(changes[p.chart_b], t)
        return OverlapPiece(p.id, p.chart_a, p.chart_b, p.region, t)

    return ChartedBase(dim=base.dim, charts=base.charts,
                       pieces=[moved(p) for p in base.pieces],
                       discriminant=base.discriminant, tau=base.tau, loops=base.loops,
                       singular_points=base.singular_points)


def random_gl(rng, n):
    """A seeded element of GL(n, Z): a product of elementary shears, a
    coordinate permutation and sign flips, entries kept small."""
    m = [list(row) for row in zlat.identity(n)]
    for _ in range(rng.randint(1, 4)):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        for k in range(n):
            m[i][k] += c * m[j][k]
    signs = [rng.choice((-1, 1)) for _ in range(n)]
    return zlat.mat([[signs[i] * x for x in m[i]] for i in rng.sample(range(n), n)])


def random_affine(rng, n):
    """A seeded element of GL(n, Z) x| Q^n."""
    return AffineMapZ(random_gl(rng, n),
                      tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n)))


def _conjugated_by_base_change(h, a0):
    """A_0^{-t} H A_0^t: the holonomy H after the base chart is re-charted by A_0."""
    return zlat.mat_mul(zlat.mat_mul(zlat.inverse_transpose(a0), h), zlat.transpose(a0))


@pytest.mark.parametrize("kind", ["node", "edge", "positive", "negative"])
def test_holonomy_transforms_by_the_base_chart_change_only(kind):
    """200 seeded re-charts by GL(n,Z) x| Q^n: the cocycle condition still
    holds; re-charting the charts other than the base chart leaves every
    loop's holonomy unchanged, and re-charting the base chart by A_0 as
    well turns each holonomy H into A_0^{-t} H A_0^t."""
    rng = random.Random(19)
    base = build_local_model(kind)
    hol = {name: holonomy(base, w) for name, w in base.loops.items()}
    others = [c.id for c in base.charts if c.id != "U1"]
    for _ in range(200):
        changes = {c: random_affine(rng, base.dim) for c in others}
        moved = recharted(base, changes)
        assert {name: holonomy(moved, w) for name, w in moved.loops.items()} == hol
        a0 = random_affine(rng, base.dim)
        moved = recharted(base, dict(changes, U1=a0))
        assert check_cocycle(moved) is None
        for name, w in moved.loops.items():
            assert holonomy(moved, w) == _conjugated_by_base_change(hol[name], a0.linear)


def test_holonomy_is_homomorphism_on_random_words():
    """Holonomy is a homomorphism to the opposite group, hol(w1 w2) =
    hol(w2) hol(w1), on a re-charted negative model whose cotangent
    contributions do not commute, so the two product orders differ."""
    rng = random.Random(7)
    base = recharted(build_local_model("negative"),
                     {"U2": random_affine(rng, 3), "U3": random_affine(rng, 3)})
    contributions = [base.cotangent(Crossing(p.id, p.chart_a, p.chart_b))
                     for p in base.pieces]
    assert any(zlat.mat_mul(a, b) != zlat.mat_mul(b, a)
               for a in contributions for b in contributions)
    for _ in range(25):
        w1 = _random_word(base, rng, rng.randint(0, 5))
        w2 = _random_word(base, rng, rng.randint(0, 5))
        lhs = holonomy(base, w1 * w2)
        rhs = zlat.mat_mul(holonomy(base, w2), holonomy(base, w1))
        assert lhs == rhs


def test_fixed_subspace_dimensions_of_models():
    neg = build_local_model("negative")
    mats = [holonomy(neg, neg.loops[g]) for g in ("g1", "g2", "g3")]
    assert zlat.fixed_space_dimension(mats) == 1
    pos = build_local_model("positive")
    mats = [holonomy(pos, pos.loops[g]) for g in ("g1", "g2", "g3")]
    assert zlat.fixed_space_dimension(mats) == 2


def test_check_simple_accepts_all_models():
    for kind, expect in (
        ("node", "node"),
        ("edge", "edge"),
        ("positive", "positive"),
        ("negative", "negative"),
    ):
        base = build_local_model(kind)
        report = check_simple(base)
        assert report.simple
        assert report.verdicts[0].matched_model == expect
        p = report.verdicts[0].conjugator
        mats = [holonomy(base, base.loops[name]) for name in base.singular_points[0]["loops"]]
        assert abs(zlat.det(p)) == 1
        assert [zlat.mat_mul(zlat.mat_mul(zlat.inverse(p), m), p) for m in mats] \
            == list(zlat.STANDARD[kind])


def test_check_simple_accepts_perturbed_edge():
    report = check_simple(build_local_model("edge", Polynomial([0, 0, 1])))
    assert report.simple and report.verdicts[0].matched_model == "edge"


def doctored_node_model() -> ChartedBase:
    """Node model with its nontrivial transition replaced by (T^2)^{-t}."""
    t2 = zlat.mat_mul(zlat.T_NODE, zlat.T_NODE)
    base = build_local_model("node")
    pieces = [
        p if p.id != "Hminus" else OverlapPiece(
            "Hminus", "U1", "U2", "Hminus",
            AffineMapZ.from_linear(zlat.inverse_transpose(t2)),
        )
        for p in base.pieces
    ]
    return ChartedBase(
        dim=2, charts=base.charts, pieces=pieces,
        discriminant=base.discriminant, loops=base.loops,
        singular_points=base.singular_points,
    )


def test_check_simple_rejects_doctored_node():
    report = check_simple(doctored_node_model())
    assert not report.simple
    assert report.verdicts[0].matched_model is None


def test_atlas_json_roundtrip():
    base = build_local_model("negative")
    data = affine.base_to_json(base)
    back = affine.base_from_json(data)
    assert [c.id for c in back.charts] == [c.id for c in base.charts]
    for g in ("g1", "g2", "g3"):
        assert holonomy(back, back.loops[g]) == holonomy(base, base.loops[g])
    word = affine.loop_word_from_json([["12+", "U1", "U2"], ["12-", "U2", "U1"]])
    assert holonomy(back, word) == zlat.NEGATIVE_TRIPLE[0]


# SHA-256 of the canonical JSON atlas of each local model, with the default
# handle and with tau = 1/2 s - 3 s^2, so the model table keeps every byte
PINNED_ATLASES = {
    ("node", None): "144e931d8317425ec79a4d3cb2bcbb8edd435bd5cd4fd9c7c0ea37bdc66906cc",
    ("edge", None): "2b47fd73572a9fbdf98202de79d2b75f730bab099dab9089e69c0038fe1bab3c",
    ("positive", None): "be164eff74a4397fd046ef7e74e5debc19edd37a3e22103a95d3385013685ccc",
    ("negative", None): "36dc7589addee1fcc91ed4165bef80a7bb723e141db158d7f355d5caaf740a51",
    ("edge", "tau"): "5408b115d9db7118b06449418988345aff76d056d1e5835d78a1427f6d90317e",
    ("positive", "tau"): "267ba20561f1699c6dbce0300530fcf1d39abe1e2cd479e7eaa5a7810173c89a",
    ("negative", "tau"): "50af1b95cfcd1f3bc73e334e7ee213355c13414b81da94cfd55959754783ea89",
}


@pytest.mark.parametrize("kind, tau", list(PINNED_ATLASES))
def test_local_model_atlases_keep_their_pinned_bytes(kind, tau):
    handle = None if tau is None else Polynomial([0, Fraction(1, 2), -3])
    text = report.canonical_json(affine.base_to_json(build_local_model(kind, handle)))
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_ATLASES[kind, tau]


def test_node_reports_reject_a_handle():
    for tau in ([1, 2], [0, Fraction(1, 2)]):
        with pytest.raises(ValueError, match="no handle"):
            affine.build_report("node", tau)
        with pytest.raises(ValueError, match="no handle"):
            affine.check_simple_report("node", tau, None)
    for zero in ([0], [0, 0]):
        body = affine.build_report("node", zero)
        assert body.pop("passed") is True
        text = report.canonical_json(body)
        assert hashlib.sha256(text.encode()).hexdigest() == PINNED_ATLASES["node", None]
    assert affine.check_simple_report("node", [0], None)["passed"]


@pytest.mark.parametrize("kind, tau", list(PINNED_ATLASES))
def test_cached_cotangent_matrices_match_the_transitions(kind, tau):
    handle = None if tau is None else Polynomial([0, Fraction(1, 2), -3])
    base = build_local_model(kind, handle)
    for p in base.pieces:
        for frm, to in ((p.chart_a, p.chart_b), (p.chart_b, p.chart_a)):
            c = Crossing(p.id, frm, to)
            assert base.cotangent(c) == zlat.inverse_transpose(base.crossing_transition(c).linear)
    piece = base.pieces[0]
    with pytest.raises(ValueError, match="does not match piece"):
        holonomy(base, LoopWord("U1", (Crossing(piece.id, "U1", "U1"),)))
    with pytest.raises(ValueError, match="unknown overlap piece"):
        holonomy(base, LoopWord("U1", (Crossing("nowhere", "U1", "U2"),)))
    with pytest.raises(ValueError, match="crossing sequence broken"):
        holonomy(base, LoopWord("U1", (Crossing(piece.id, "U2", "U1"),)))
    with pytest.raises(ValueError, match="does not return"):
        holonomy(base, LoopWord("U1", (Crossing(piece.id, "U1", "U2"),)))


def test_check_simple_searches_only_the_matching_sign(monkeypatch):
    """A positive model whose base chart U1 is re-charted by W has its
    holonomy conjugated by W^t (H becomes W^{-t} H W^t); its sign comes
    from its fixed space, so one question is asked, of the positive
    triple, and its answer is a verified conjugator."""
    w = zlat.mat([[1, 1, 0], [0, 1, 0], [1, 0, 1]])
    base = recharted(build_local_model("positive"), {"U1": AffineMapZ.from_linear(w)})
    mats = tuple(holonomy(base, base.loops[g]) for g in ("g1", "g2", "g3"))
    asked = []
    real = zlat.simultaneous_conjugator

    def recorded(sources, targets, bound=None):
        asked.append((tuple(sources), tuple(targets)))
        return real(sources, targets)

    zlat._conjugator_cached.cache_clear()
    monkeypatch.setattr(zlat, "simultaneous_conjugator", recorded)
    (verdict,) = check_simple(base).verdicts
    p = verdict.conjugator
    assert verdict.matched_model == "positive" and p != zlat.identity(3)
    assert asked == [(mats, zlat.POSITIVE_TRIPLE)]
    assert tuple(zlat.mat_mul(zlat.mat_mul(zlat.inverse(p), m), p) for m in mats) \
        == zlat.POSITIVE_TRIPLE


def test_check_simple_asks_no_question_of_the_other_sign(monkeypatch):
    """The sign of a vertex triple is read off its fixed space, so on the
    positive model no conjugacy question names the negative triple."""
    asked = []
    real = zlat.simultaneous_conjugator

    def recorded(sources, targets, bound=None):
        asked.append(tuple(targets))
        return real(sources, targets)

    monkeypatch.setattr(zlat, "simultaneous_conjugator", recorded)
    (verdict,) = check_simple(build_local_model("positive")).verdicts
    assert verdict.matched_model == "positive"
    assert asked and zlat.NEGATIVE_TRIPLE not in asked


@pytest.mark.parametrize("kind", ["node", "edge", "positive", "negative"])
def test_check_simple_is_invariant_under_recharting(kind):
    """200 seeded re-charts of every chart by GL(n,Z) x| Q^n (which holds
    the re-charts by GL(n,Z) x| Z^n): the model stays simple, matched to
    itself by a conjugator that takes its holonomy, in the given or the
    reversed loop order, to the standard generators."""
    rng = random.Random(39)
    base = build_local_model(kind)
    names = base.singular_points[0]["loops"]
    for _ in range(200):
        moved = recharted(base, {c.id: random_affine(rng, base.dim) for c in base.charts})
        (verdict,) = check_simple(moved).verdicts
        assert (verdict.simple, verdict.matched_model) == (True, kind)
        p = verdict.conjugator
        assert abs(zlat.det(p)) == 1
        mats = [holonomy(moved, moved.loops[name]) for name in names]
        orders = (mats, [zlat.inverse(m) for m in reversed(mats)])
        assert any([zlat.mat_mul(zlat.mat_mul(zlat.inverse(p), m), p) for m in order]
                   == list(zlat.STANDARD[kind]) for order in orders)
