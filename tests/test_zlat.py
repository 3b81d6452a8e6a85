"""Exact linear algebra: group laws, unipotency, conjugacy machinery."""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tfib import zlat
from tfib.zlat import AffineMapZ, compose, invert


def test_compose_identity():
    ident = AffineMapZ.identity(2)
    assert compose(ident, ident).is_identity()


def test_compose_inverse_law():
    t = AffineMapZ(zlat.T_NODE, (Fraction(1, 3), Fraction(-2)))
    assert compose(t, invert(t)).is_identity()
    assert compose(invert(t), t).is_identity()


def test_negative_triple_product_is_identity():
    t1, t2, t3 = (AffineMapZ.from_linear(m) for m in zlat.NEGATIVE_TRIPLE)
    assert compose(compose(t1, t2), t3).is_identity()


def test_positive_triple_product_is_identity():
    p1, p2, p3 = (AffineMapZ.from_linear(m) for m in zlat.POSITIVE_TRIPLE)
    assert compose(compose(p1, p2), p3).is_identity()


def test_compose_dimension_mismatch():
    with pytest.raises(ValueError):
        compose(AffineMapZ.identity(2), AffineMapZ.identity(3))


def test_float_translation_is_rejected():
    with pytest.raises(ValueError, match="exact rationals"):
        AffineMapZ(zlat.identity(2), (0.5, 0))
    assert AffineMapZ(zlat.identity(2), ("1/2", 0)).translation == (Fraction(1, 2), 0)


@pytest.mark.parametrize("value, want", [
    (3, Fraction(3)), (Fraction(1, 2), Fraction(1, 2)), ("-3/4", Fraction(-3, 4))])
def test_rational_reads_ints_fractions_and_rational_strings(value, want):
    assert zlat.rational(value, "x") == want


@pytest.mark.parametrize("value", [True, False, 0.5, "1/0", "x", None, []])
def test_rational_rejects_bools_floats_and_non_rationals(value):
    with pytest.raises(ValueError, match="entries must be exact rationals"):
        zlat.rational(value, "entries")


def test_standard_generators_are_named_once():
    assert zlat.STANDARD == {"node": (zlat.T_NODE,), "edge": (zlat.T_GENERIC,),
                             "negative": zlat.NEGATIVE_TRIPLE,
                             "positive": zlat.POSITIVE_TRIPLE}
    assert list(zlat.STANDARD)[2:] == ["negative", "positive"]


def test_is_unipotent():
    assert zlat.is_unipotent(zlat.T_NODE)
    assert zlat.is_unipotent(zlat.identity(3))
    assert not zlat.is_unipotent(zlat.mat([[2, 0], [0, 1]]))
    for t in zlat.NEGATIVE_TRIPLE + zlat.POSITIVE_TRIPLE:
        assert zlat.is_unipotent(t)


def test_inverse_transpose_examples():
    t1 = zlat.mat([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    assert zlat.inverse_transpose(t1) == zlat.mat([[1, 0, 0], [-1, 1, 0], [0, 0, 1]])
    assert zlat.inverse_transpose(zlat.identity(3)) == zlat.identity(3)
    # direct exact cross-check on the node generator
    m = zlat.inverse_transpose(zlat.T_NODE)
    assert m == zlat.mat([[1, -1], [0, 1]])
    assert zlat.mat_mul(zlat.transpose(m), zlat.T_NODE) == zlat.identity(2)


def test_inverse_transpose_rejects_singular():
    with pytest.raises(ValueError):
        zlat.inverse_transpose(zlat.mat([[2, 0], [0, 1]]))


small_entries = st.integers(min_value=-2, max_value=2)


def _gl2_maps():
    def build(a, b, c, tx, ty):
        # shear products are always in GL(2,Z)
        m = zlat.mat_mul(
            zlat.mat([[1, a], [0, 1]]),
            zlat.mat_mul(zlat.mat([[1, 0], [b, 1]]), zlat.mat([[1, c], [0, 1]])),
        )
        return AffineMapZ(m, (Fraction(tx, 7), Fraction(ty, 5)))

    return st.builds(build, small_entries, small_entries, small_entries,
                     small_entries, small_entries)


@given(_gl2_maps(), _gl2_maps(), _gl2_maps())
@settings(max_examples=60, deadline=None)
def test_compose_associative(a, b, c):
    assert compose(compose(a, b), c) == compose(a, compose(b, c))


@given(_gl2_maps())
@settings(max_examples=60, deadline=None)
def test_inverse_transpose_involution(a):
    assert zlat.inverse_transpose(zlat.inverse_transpose(a.linear)) == a.linear


def test_conjugator_finds_witness():
    p = zlat.mat([[0, 1], [1, 0]])
    target = zlat.mat_mul(zlat.mat_mul(zlat.inverse(p), zlat.T_NODE), p)
    found = zlat.conjugator(zlat.T_NODE, target)
    assert found is not None
    q = zlat.mat_mul(zlat.mat_mul(zlat.inverse(found), zlat.T_NODE), found)
    assert q == target


def test_conjugator_rejects_t_squared():
    t2 = zlat.mat_mul(zlat.T_NODE, zlat.T_NODE)
    assert zlat.conjugator(zlat.T_NODE, t2) is None
    # the rejection is already conclusive at the Smith-form prefilter
    assert zlat.smith_invariants(
        zlat.mat_sub(zlat.T_NODE, zlat.identity(2))
    ) != zlat.smith_invariants(zlat.mat_sub(t2, zlat.identity(2)))


def test_simultaneous_conjugator_on_triples():
    p = zlat.mat([[1, 0, 1], [0, 1, 0], [0, 0, 1]])
    pinv = zlat.inverse(p)
    targets = [zlat.mat_mul(zlat.mat_mul(pinv, t), p) for t in zlat.NEGATIVE_TRIPLE]
    found = zlat.simultaneous_conjugator(list(zlat.NEGATIVE_TRIPLE), targets)
    assert found is not None
    for t, tt in zip(zlat.NEGATIVE_TRIPLE, targets):
        assert zlat.mat_mul(zlat.mat_mul(zlat.inverse(found), t), found) == tt


def test_negative_and_positive_triples_not_conjugate():
    assert zlat.simultaneous_conjugator(
        list(zlat.NEGATIVE_TRIPLE), list(zlat.POSITIVE_TRIPLE)
    ) is None


def test_fixed_space_dimensions():
    import random

    assert zlat.fixed_space_dimension(list(zlat.NEGATIVE_TRIPLE)) == 1
    assert zlat.fixed_space_dimension(list(zlat.POSITIVE_TRIPLE)) == 2
    # I + R with R of random rank, so that the fixed spaces are not all 0
    rng = random.Random(4)
    tuples = [list(zlat.NEGATIVE_TRIPLE), list(zlat.POSITIVE_TRIPLE)]
    for _ in range(200):
        n = rng.choice([2, 3])
        tuples.append([[[v + (i == j) for j, v in enumerate(row)] for i, row in
                        enumerate(_random_system(rng, n, n, rng.randint(0, n)))]
                       for _ in range(rng.randint(1, 3))])
    for mats in tuples:
        n = len(mats[0])
        stacked = [row for m in mats for row in zlat.mat_sub(m, zlat.identity(n))]
        assert zlat.fixed_space_dimension(mats) == len(_fraction_nullspace(stacked, n)[0])


def test_affine_json_roundtrip():
    a = AffineMapZ(zlat.T_NODE, (Fraction(1, 3), Fraction(-2, 7)))
    b = zlat.affine_from_json(zlat.affine_to_json(a))
    assert a == b
    assert zlat.affine_to_json(a) == {"linear": [[1, 0], [1, 1]],
                                      "translation": ["1/3", "-2/7"]}


def test_affine_from_json_accepts_only_exact_translations():
    data = {"linear": [[1, 0], [1, 1]], "translation": ["1/3", 0]}
    want = AffineMapZ(zlat.T_NODE, (Fraction(1, 3), 0))
    # the "numeric": false tag of older atlas files is still read
    assert zlat.affine_from_json({**data, "numeric": False}) == want
    with pytest.raises(ValueError):
        zlat.affine_from_json({**data, "numeric": True})
    with pytest.raises(ValueError):
        zlat.affine_from_json({**data, "translation": [0.25, 0]})


def _gl(n):
    """GL(n,Z) elements: a signed permutation matrix times shears."""
    shear = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(-3, 3))

    def build(perm, signs, shears):
        m = tuple(tuple(signs[i] if j == perm[i] else 0 for j in range(n))
                  for i in range(n))
        for i, j, k in shears:
            e = [list(row) for row in zlat.identity(n)]
            e[i][j] += k if i != j else 0
            m = zlat.mat_mul(m, zlat.mat(e))
        return m

    return st.builds(build, st.permutations(range(n)),
                     st.tuples(*[st.sampled_from([-1, 1])] * n),
                     st.lists(shear, max_size=6))


_entry = st.integers(min_value=-12, max_value=12)


def _normal_form_case(n):
    """(m, chain, p, q): an n x n matrix, the ratios of a divisibility
    chain, and two GL(n,Z) elements."""
    return st.tuples(st.tuples(*[st.tuples(*[_entry] * n)] * n),
                     st.tuples(*[st.integers(0, 6)] * n), _gl(n), _gl(n))


@given(st.sampled_from([2, 3]).flatmap(_normal_form_case))
@settings(max_examples=300, deadline=None)
def test_smith_invariants_are_a_gl3_normal_form(case):
    """For n = 2 and 3: invariant under GL(n,Z) on either side, a
    divisibility chain whose product is |det|, and the diagonal itself for
    a diagonal chain."""
    m, chain, p, q = case
    n = len(m)
    d = zlat.smith_invariants(m)
    assert zlat.smith_invariants(zlat.mat_mul(zlat.mat_mul(p, m), q)) == d
    assert all(b % a == 0 if a else b == 0 for a, b in zip(d, d[1:]))
    assert min(d) >= 0 and math.prod(d) == abs(zlat.det(m))
    diagonal = tuple(math.prod(chain[:k + 1]) for k in range(n))
    dm = tuple(tuple(diagonal[i] if i == j else 0 for j in range(n)) for i in range(n))
    assert zlat.smith_invariants(zlat.mat_mul(zlat.mat_mul(p, dm), q)) == diagonal


def _faddeev_leverrier(m):
    """Characteristic polynomial by Faddeev-LeVerrier in exact Fractions."""
    n = len(m)
    coeffs = [Fraction(1)]
    prev = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        acc = [[sum(m[i][t] * prev[t][j] for t in range(n)) for j in range(n)]
               for i in range(n)]
        coeffs.append(-sum(acc[i][i] for i in range(n)) / k)
        prev = [[acc[i][j] + (coeffs[-1] if i == j else 0) for j in range(n)]
                for i in range(n)]
    return tuple(coeffs)


def test_charpoly_against_faddeev_leverrier():
    import random

    rng = random.Random(1)
    for _ in range(300):
        n = rng.choice([1, 2, 3])
        m = tuple(tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(n))
        assert zlat.charpoly(m) == _faddeev_leverrier(m), m
    for m in zlat.NEGATIVE_TRIPLE + zlat.POSITIVE_TRIPLE + (zlat.T_NODE,):
        assert zlat.charpoly(m) == _faddeev_leverrier(m)
    with pytest.raises(ValueError):
        zlat.charpoly(zlat.identity(4))


def _fraction_nullspace(rows, ncols):
    """Reference RREF nullspace in Fraction arithmetic (free-variable basis)."""
    rows = [[Fraction(v) for v in row] for row in rows]
    pivots = []
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [v / rows[r][col] for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for ri, pc in enumerate(pivots):
            vec[pc] = -rows[ri][fc]
        basis.append(vec)
    return basis, free


def _random_system(rng, nrows, ncols, rank=None):
    """Random integer rows; with a rank, a product of rank-r factors."""
    if rank is None:
        return [[rng.randint(-5, 5) for _ in range(ncols)] for _ in range(nrows)]
    left = [[rng.randint(-3, 3) for _ in range(rank)] for _ in range(nrows)]
    right = [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(rank)]
    return [[sum(left[i][k] * right[k][j] for k in range(rank))
             for j in range(ncols)] for i in range(nrows)]


def _scaled_down(nullspace):
    """The rational basis of an integer ``(denom, basis, free)`` nullspace;
    ``denom`` must be its least common denominator."""
    denom, basis, free = nullspace
    rational = [[Fraction(v, denom) for v in vec] for vec in basis]
    assert denom == math.lcm(*(v.denominator for vec in rational for v in vec))
    return rational, free


def test_integer_nullspace_matches_fraction_rref():
    import random

    rng = random.Random(2)
    for trial in range(400):
        nrows, ncols = rng.randint(1, 27), rng.randint(1, 9)
        rank = rng.randint(0, min(nrows, ncols)) if trial % 2 else None
        rows = _random_system(rng, nrows, ncols, rank)
        want = _fraction_nullspace(rows, ncols)
        assert _scaled_down(zlat._nullspace_rref(rows, ncols)) == want, rows
    zero = [[0, 0, 0]] * 4
    assert _scaled_down(zlat._nullspace_rref(zero, 3)) == _fraction_nullspace(zero, 3)


def test_rank_is_columns_minus_nullity():
    import random

    rng = random.Random(3)
    for _ in range(200):
        n = rng.choice([2, 3])
        m = zlat.mat(_random_system(rng, n, n, rng.randint(0, n)))
        assert zlat.rank(m) == n - len(_fraction_nullspace(m, n)[0]), m


def _conjugacy_rows(sources, targets):
    n = len(sources[0])
    rows = []
    for a, b in zip(sources, targets):
        for i in range(n):
            for j in range(n):
                row = [0] * (n * n)
                for k in range(n):
                    row[k * n + j] += a[i][k]
                    row[i * n + k] -= b[k][j]
                rows.append(row)
    return rows


def _brute_force_conjugator(sources, targets, bound):
    """Lexicographically first conjugator of least sup-norm over the whole
    [-bound, bound]^d box of free coordinates (last coordinate fastest)."""
    import itertools

    n = len(sources[0])
    basis, _ = _fraction_nullspace(_conjugacy_rows(sources, targets), n * n)
    denom = math.lcm(*(v.denominator for vec in basis for v in vec))
    scaled = [[int(v * denom) for v in vec] for vec in basis]
    best = None
    for coeffs in itertools.product(range(-bound, bound + 1), repeat=len(basis)):
        entries = [sum(c * vec[k] for c, vec in zip(coeffs, scaled))
                   for k in range(n * n)]
        if any(v % denom for v in entries):
            continue
        entries = [v // denom for v in entries]
        norm = max(abs(v) for v in entries)
        if norm > bound or (best is not None and norm >= best[0]):
            continue
        p = tuple(tuple(entries[i * n:(i + 1) * n]) for i in range(n))
        if abs(zlat.det(p)) == 1:
            best = (norm, p)
    return None if best is None else best[1]


def _conj(w, m):
    return zlat.mat_mul(zlat.mat_mul(w, m), zlat.inverse(w))


# a node and a generic problem whose least conjugator has sup-norm 4
NODE_NORM_4 = zlat.mat([[13, -9], [16, -11]])
GENERIC_NORM_4 = zlat.mat([[5, -2, 0], [8, -3, 0], [-2, 1, 1]])
# unimodular matrices with entries above 2^32: the conjugates they make have
# entries near 2^66 and no conjugator in a small box, and the solution
# spaces below have basis entries beyond 64-bit integers (BIG_Q2's generic
# one has a denominator near 2^34 instead)
BIG_Q1 = zlat.mat([[1, 2**33, 0], [0, 1, 2**33 + 1], [0, 0, 1]])
BIG_Q2 = zlat.mat([[1, 0, 0], [2**35, 1, 0], [3, 2**34 - 1, 1]])


@pytest.mark.parametrize("sources, targets, bound", [
    ([_conj(zlat.mat([[1, 1, 0], [0, 1, 1], [0, 0, 1]]), zlat.T_GENERIC)],
     [zlat.T_GENERIC], 3),
    ([_conj(zlat.mat([[0, 1, -1], [1, 2, 0], [0, 1, 0]]), zlat.T_GENERIC)],
     [zlat.T_GENERIC], 3),
    ([GENERIC_NORM_4], [zlat.T_GENERIC], 3),
    ([GENERIC_NORM_4], [zlat.T_GENERIC], 4),
    ([_conj(zlat.mat([[1, 0, 1], [1, 1, 1], [0, -1, 1]]), t)
      for t in zlat.NEGATIVE_TRIPLE], list(zlat.NEGATIVE_TRIPLE), 3),
    ([_conj(zlat.mat([[2, 1, 0], [1, 1, 0], [0, 1, 1]]), t)
      for t in zlat.POSITIVE_TRIPLE], list(zlat.POSITIVE_TRIPLE), 4),
    ([_conj(zlat.mat([[1, 1, 0], [0, 1, 0], [1, 0, 1]]), t)
      for t in zlat.POSITIVE_TRIPLE], list(zlat.NEGATIVE_TRIPLE), 3),
    ([_conj(zlat.mat([[2, 1], [1, 1]]), zlat.T_NODE)], [zlat.T_NODE], 3),
    ([NODE_NORM_4], [zlat.T_NODE], 3),
    ([NODE_NORM_4], [zlat.T_NODE], 4),
    ([_conj(BIG_Q1, zlat.T_GENERIC)], [zlat.T_GENERIC], 2),
    ([_conj(BIG_Q2, zlat.T_GENERIC)], [zlat.T_GENERIC], 2),
    ([_conj(BIG_Q2, t) for t in zlat.NEGATIVE_TRIPLE], list(zlat.NEGATIVE_TRIPLE), 2),
    ([_conj(BIG_Q1, t) for t in zlat.POSITIVE_TRIPLE], list(zlat.POSITIVE_TRIPLE), 2),
])
def test_shell_search_matches_brute_force(sources, targets, bound):
    zlat._conjugator_cached.cache_clear()
    found = zlat.simultaneous_conjugator(sources, targets, bound=bound)
    assert found == _brute_force_conjugator(sources, targets, bound)
    if found is not None:
        for a, b in zip(sources, targets):
            assert zlat.mat_mul(zlat.mat_mul(zlat.inverse(found), a), found) == b


@given(st.sampled_from([(zlat.T_NODE,), (zlat.T_GENERIC,), zlat.NEGATIVE_TRIPLE,
                         zlat.POSITIVE_TRIPLE]).flatmap(
    lambda targets: st.tuples(st.just(targets), _gl(len(targets[0])), st.integers(1, 3))))
@settings(max_examples=12, deadline=None)
def test_shell_search_matches_brute_force_on_random_witnesses(case):
    targets, w, bound = case
    sources = [_conj(w, m) for m in targets]
    assume(tuple(sources) != tuple(targets))  # answered by the identity, unsearched
    found = zlat.simultaneous_conjugator(sources, targets, bound=bound)
    assert found == _brute_force_conjugator(sources, targets, bound)


def test_norm_4_problems_need_bound_4():
    for src, tgt in ((NODE_NORM_4, zlat.T_NODE), (GENERIC_NORM_4, zlat.T_GENERIC)):
        assert zlat.conjugator(src, tgt, bound=3) is None
        p = zlat.conjugator(src, tgt, bound=4)
        assert max(abs(v) for row in p for v in row) == 4


@pytest.mark.parametrize("bound", [0, -1])
def test_conjugator_rejects_a_bound_below_one(bound):
    with pytest.raises(ValueError, match="at least 1"):
        zlat.conjugator(zlat.T_GENERIC, zlat.T_GENERIC, bound=bound)
    with pytest.raises(ValueError, match="at least 1"):
        zlat.simultaneous_conjugator(list(zlat.NEGATIVE_TRIPLE),
                                     list(zlat.POSITIVE_TRIPLE), bound=bound)


def test_exact_layers_import_without_numpy():
    import os
    import subprocess
    import sys
    from pathlib import Path

    # numpy is absent after the import, after a searched conjugacy, and
    # after the simplicity check of every local model
    code = (
        "import sys\n"
        "import tfib.zlat, tfib.affine, tfib.polybase, tfib.topo\n"
        "print('numpy' in sys.modules)\n"
        "from tfib import affine, zlat\n"
        "w = zlat.mat([[1, 1, 0], [0, 1, 1], [0, 0, 1]])\n"
        "src = zlat.mat_mul(zlat.mat_mul(w, zlat.T_GENERIC), zlat.inverse(w))\n"
        "print(zlat.conjugator(src, zlat.T_GENERIC) is not None)\n"
        "print(zlat._conjugator_cached.cache_info().misses)\n"
        "print('numpy' in sys.modules)\n"
        "for kind in ('node', 'edge', 'positive', 'negative'):\n"
        "    print(affine.check_simple(affine.build_local_model(kind)).simple)\n"
        "print('numpy' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(zlat.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.split() == ["False", "True", "1", "False"] + ["True"] * 4 + ["False"]


def _planted_witness(rng, n):
    """A GL(n,Z) element of sup-norm <= 3: elementary row moves, then a
    signed permutation of the rows."""
    while True:
        m = [list(row) for row in zlat.identity(n)]
        for _ in range(rng.randint(2, 8)):
            i, j = rng.sample(range(n), 2)
            c = rng.choice((-1, 1))
            m[i] = [a + c * b for a, b in zip(m[i], m[j])]
        signs = [rng.choice((-1, 1)) for _ in range(n)]
        w = tuple(tuple(s * v for v in m[p]) for s, p in zip(signs, rng.sample(range(n), n)))
        if max(abs(v) for row in w for v in row) <= 3:
            return w


def _planted_problems():
    """Seeded (sources, targets) problems: planted witnesses for T_GENERIC,
    the two triples and T_NODE, and opposite-sign triple controls."""
    import random

    rng = random.Random(24)
    triples = {"negative": zlat.NEGATIVE_TRIPLE, "positive": zlat.POSITIVE_TRIPLE}
    plan = ([("generic", (zlat.T_GENERIC,))] * 40 + [("negative", triples["negative"])] * 20
            + [("positive", triples["positive"])] * 20 + [("node", (zlat.T_NODE,))] * 20
            + [("control", None)] * 12)
    problems = []
    for kind, targets in plan:
        if kind == "control":
            sign = rng.choice(("negative", "positive"))
            other = "positive" if sign == "negative" else "negative"
            sources, targets = triples[other], triples[sign]
        else:
            sources = targets
        w = _planted_witness(rng, len(targets[0]))
        problems.append(([_conj(w, m) for m in sources], list(targets)))
    return problems


#: SHA-256 of the answers to `_planted_problems` at bounds 1-4, taken from
#: the exhaustive-box search that the pruned search replaced
PLANTED_ANSWERS_SHA256 = "3001b25464a9b8292538e1a0775245a382cd44f949cf6691cbd70ee06b7d9077"


def test_planted_problem_answers_keep_their_pinned_digest():
    import hashlib
    import json

    answers = [zlat.simultaneous_conjugator(sources, targets, bound=bound)
               for bound in (1, 2, 3, 4) for sources, targets in _planted_problems()]
    assert sum(p is None for p in answers) < len(answers)
    digest = hashlib.sha256(json.dumps(answers).encode()).hexdigest()
    assert digest == PLANTED_ANSWERS_SHA256


def test_opposite_signs_are_rejected_without_a_search(monkeypatch):
    def no_search(*args):
        raise AssertionError("the fixed-space prefilter should have answered")

    zlat._conjugator_cached.cache_clear()
    monkeypatch.setattr(zlat, "_enumerate_conjugators", no_search)
    w = zlat.mat([[1, 1, 0], [0, 1, 0], [1, 0, 1]])
    for sources, targets in ((zlat.NEGATIVE_TRIPLE, zlat.POSITIVE_TRIPLE),
                             (zlat.POSITIVE_TRIPLE, zlat.NEGATIVE_TRIPLE)):
        for bound in (1, 3, 4):
            assert zlat.simultaneous_conjugator([_conj(w, m) for m in sources],
                                                list(targets), bound=bound) is None


@given(_gl(3), st.sampled_from([zlat.NEGATIVE_TRIPLE, zlat.POSITIVE_TRIPLE]))
@settings(max_examples=60, deadline=None)
def test_fixed_space_prefilter_keeps_every_conjugate_tuple(w, triple):
    sources = tuple(_conj(w, m) for m in triple)
    assert zlat._fixed_space_dimension(sources) == zlat._fixed_space_dimension(triple)
