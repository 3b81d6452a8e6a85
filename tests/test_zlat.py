"""Exact linear algebra: group laws, unipotency, conjugacy machinery."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tfib import zlat
from tfib.zlat import AffineMapZ, compose, invert


def test_compose_identity():
    ident = AffineMapZ.identity(2)
    assert compose(ident, ident) == ident


def test_compose_inverse_law():
    t = AffineMapZ(zlat.T_NODE, (Fraction(1, 3), Fraction(-2)))
    assert compose(t, invert(t)) == AffineMapZ.identity(2)
    assert compose(invert(t), t) == AffineMapZ.identity(2)


def test_negative_triple_product_is_identity():
    t1, t2, t3 = (AffineMapZ.from_linear(m) for m in zlat.NEGATIVE_TRIPLE)
    assert compose(compose(t1, t2), t3) == AffineMapZ.identity(3)


def test_positive_triple_product_is_identity():
    p1, p2, p3 = (AffineMapZ.from_linear(m) for m in zlat.POSITIVE_TRIPLE)
    assert compose(compose(p1, p2), p3) == AffineMapZ.identity(3)


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
    # None is a proof: the Smith forms of T - I, a conjugacy invariant, differ
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


def _gl(n, size=3, count=6):
    """GL(n,Z) elements: a signed permutation matrix times up to ``count``
    shears of size up to ``size``."""
    shear = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                      st.integers(-size, size))

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
                     st.lists(shear, max_size=count))


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


def test_rank_is_columns_minus_nullity():
    import random

    rng = random.Random(3)
    for _ in range(200):
        n = rng.choice([2, 3])
        m = zlat.mat(_random_system(rng, n, n, rng.randint(0, n)))
        assert zlat.rank(m) == n - len(_fraction_nullspace(m, n)[0]), m
    # single columns and tall stacks, like the 9 x 3 stack of a vertex
    # triple in `fixed_space_dimension`: the Gram matrix is n x n for them all
    for _ in range(200):
        nrows, n = rng.choice([(1, 1), (2, 1), (4, 1), (1, 3), (2, 3),
                               (4, 2), (6, 2), (6, 3), (9, 3)])
        m = _random_system(rng, nrows, n, rng.choice([None, *range(min(nrows, n) + 1)]))
        assert zlat.rank(m) == n - len(_fraction_nullspace(m, n)[0]), m


def _random_member(rng, n):
    """I + N for a seeded N: rank-one nilpotent, rank-one with w . v = 0 or
    not, nilpotent of rank 2 (n = 3), or entries drawn at random."""
    v = [rng.randint(-4, 4) for _ in range(n)]
    w = [rng.randint(-4, 4) for _ in range(n)]
    kind = rng.randrange(4)
    if kind == 0:  # w orthogonal to v, so N = c v w^t is nilpotent
        w = ([-v[1], v[0]] if n == 2 else
             [v[1] * w[2] - v[2] * w[1], v[2] * w[0] - v[0] * w[2], v[0] * w[1] - v[1] * w[0]])
    if kind <= 1:
        c = rng.randint(1, 3)
        nil = [[c * a * b for b in w] for a in v]
    elif kind == 2:  # strictly lower triangular, conjugated by a shear
        low = zlat.mat([[rng.randint(-2, 2) if j < i else 0 for j in range(n)]
                        for i in range(n)])
        i, j = rng.sample(range(n), 2)
        p = zlat.mat([[rng.randint(-3, 3) if (r, q) == (i, j) else int(r == q)
                       for q in range(n)] for r in range(n)])
        nil = zlat.mat_mul(zlat.mat_mul(p, low), zlat.inverse(p))
    else:
        nil = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
    return zlat.mat([[x + (i == j) for j, x in enumerate(row)] for i, row in enumerate(nil)])


def test_rank_one_unipotent_is_unipotent_with_rank_one():
    """The member rule of a vertex triple: a value exactly when (m - I)^2 = 0
    and rank(m - I) = 1, the rank read by the Fraction reference."""
    import random

    rng = random.Random(40)
    seen = set()
    for _ in range(600):
        n = rng.choice([2, 3])
        m = _random_member(rng, n)
        nil = zlat.mat_sub(m, zlat.identity(n))
        square_zero = not any(x for row in zlat.mat_mul(nil, nil) for x in row)
        rank_one = len(_fraction_nullspace(nil, n)[0]) == n - 1
        found = zlat.rank_one_unipotent(m)
        assert (found is not None) == (square_zero and rank_one), m
        if found is not None:
            c, v, w = found
            assert nil == tuple(tuple(c * a * b for b in w) for a in v)
        seen.add((n, square_zero, rank_one))
    assert seen == {(n, z, r) for n in (2, 3) for z in (True, False)
                    for r in (True, False)}


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


def assert_conjugates(sources, targets, p):
    """p is in GL(n,Z) and p^-1 A_i p = B_i for every pair."""
    assert p is not None and abs(zlat.det(p)) == 1
    assert [zlat.mat_mul(zlat.mat_mul(zlat.inverse(p), a), p) for a in sources] \
        == list(targets)


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
def test_normal_forms_match_brute_force(sources, targets, bound):
    """The normal forms against an exhaustive reference: when the box
    [-bound, bound] holds a conjugator, the normal forms return a verified
    one, and when they return None, the box holds none.  The norm-4 and
    2^33 problems are solved beyond the box."""
    zlat._conjugator_cached.cache_clear()
    found = zlat.simultaneous_conjugator(sources, targets)
    boxed = _brute_force_conjugator(sources, targets, bound)
    if found is None:
        assert boxed is None
    else:
        assert_conjugates(sources, targets, found)
    if boxed is not None:
        assert_conjugates(sources, targets, boxed)
    # every problem but the opposite-sign one is planted; that one is told
    # apart by the dimension of the common fixed space, a class invariant
    opposite = zlat.fixed_space_dimension(sources) != zlat.fixed_space_dimension(targets)
    assert (found is None) == opposite


@given(st.sampled_from([(zlat.T_NODE,), (zlat.T_GENERIC,), zlat.NEGATIVE_TRIPLE,
                         zlat.POSITIVE_TRIPLE]).flatmap(
    lambda targets: st.tuples(st.just(targets), _gl(len(targets[0])), st.integers(1, 3))))
@settings(max_examples=12, deadline=None)
def test_normal_forms_match_brute_force_on_random_witnesses(case):
    targets, w, bound = case
    sources = [_conj(w, m) for m in targets]
    found = zlat.simultaneous_conjugator(sources, targets)
    assert_conjugates(sources, targets, found)
    boxed = _brute_force_conjugator(sources, targets, bound)
    if boxed is not None:
        assert_conjugates(sources, targets, boxed)


def test_normal_forms_solve_norm_4_problems():
    """Their least conjugators have sup-norm 4, outside the box of bound 3;
    the normal forms need no bound."""
    for src, tgt in ((NODE_NORM_4, zlat.T_NODE), (GENERIC_NORM_4, zlat.T_GENERIC)):
        assert _brute_force_conjugator([src], [tgt], 3) is None
        p = _brute_force_conjugator([src], [tgt], 4)
        assert max(abs(v) for row in p for v in row) == 4
        assert_conjugates([src], [tgt], zlat.conjugator(src, tgt))


def test_exact_layers_import_without_numpy():
    import os
    import subprocess
    import sys
    from pathlib import Path

    # numpy is absent after the import, after a conjugacy question, and
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


#: SHA-256 of the answers to `_planted_problems`, taken from the normal
#: forms (the box search's least-sup-norm witnesses were other matrices)
PLANTED_ANSWERS_SHA256 = "d498c4e6bbb447feb7ece9f5c1329f6b8c990e09449316d762eb4ef82d97fa41"


def test_planted_problem_answers_keep_their_pinned_digest():
    import hashlib
    import json

    problems = _planted_problems()
    answers = [zlat.simultaneous_conjugator(sources, targets) for sources, targets in problems]
    for (sources, targets), p in zip(problems, answers):
        if p is None:
            assert zlat.vertex_sign(sources) != zlat.vertex_sign(targets)
        else:
            assert_conjugates(sources, targets, p)
    assert sum(p is None for p in answers) == 12
    digest = hashlib.sha256(json.dumps(answers).encode()).hexdigest()
    assert digest == PLANTED_ANSWERS_SHA256


def test_opposite_signs_are_rejected_without_a_search():
    """An answer of None is a proof: the opposite sign's common fixed space
    has another dimension, and conjugation keeps that dimension."""
    w = zlat.mat([[1, 1, 0], [0, 1, 0], [1, 0, 1]])
    for sources, targets in ((zlat.NEGATIVE_TRIPLE, zlat.POSITIVE_TRIPLE),
                             (zlat.POSITIVE_TRIPLE, zlat.NEGATIVE_TRIPLE)):
        sources = [_conj(w, m) for m in sources]
        assert zlat.simultaneous_conjugator(sources, list(targets)) is None
        assert zlat.fixed_space_dimension(sources) != zlat.fixed_space_dimension(targets)


@given(_gl(3), st.sampled_from([zlat.NEGATIVE_TRIPLE, zlat.POSITIVE_TRIPLE]))
@settings(max_examples=60, deadline=None)
def test_fixed_space_dimension_is_a_conjugacy_invariant(w, triple):
    """The dimension that `vertex_sign` reads is a conjugacy invariant."""
    sources = tuple(_conj(w, m) for m in triple)
    assert zlat.fixed_space_dimension(sources) == zlat.fixed_space_dimension(triple)
    assert zlat.vertex_sign(sources) == zlat.vertex_sign(triple)


@given(st.lists(st.integers(-60, 60), min_size=1, max_size=3).filter(any))
@settings(max_examples=200, deadline=None)
def test_completion_has_the_primitive_vector_as_first_column(entries):
    g = math.gcd(*entries)
    u = tuple(x // g for x in entries)
    m = zlat._completion(u)
    assert abs(zlat.det(m)) == 1 and tuple(row[0] for row in m) == u


def _wide_gl(n):
    """GL(n,Z) elements of sup-norm up to 50."""
    return _gl(n, 50, 3).filter(lambda m: max(abs(v) for row in m for v in row) <= 50)


@given(st.sampled_from([2, 3]).flatmap(
    lambda n: st.tuples(_wide_gl(n), _wide_gl(n), st.integers(1, 3), st.integers(1, 3))))
@settings(max_examples=80, deadline=None)
def test_single_matrices_are_conjugate_exactly_when_their_contents_agree(case):
    """I + c E_21 conjugated by planted witnesses of sup-norm up to 50: a
    verified conjugator when the contents agree, and otherwise None, which
    the Smith forms of A - I prove."""
    w1, w2, c1, c2 = case
    n = len(w1)

    def planted(w, c):
        m = [list(row) for row in zlat.identity(n)]
        m[1][0] = c
        return _conj(w, zlat.mat(m))

    a, b = planted(w1, c1), planted(w2, c2)
    p = zlat.conjugator(a, b)
    if c1 == c2:
        assert_conjugates([a], [b], p)
    else:
        assert p is None
        ident = zlat.identity(n)
        assert zlat.smith_invariants(zlat.mat_sub(a, ident)) \
            != zlat.smith_invariants(zlat.mat_sub(b, ident))


def test_a_content_2_matrix_is_not_conjugate_to_the_generic_generator():
    """T_GENERIC^2 = I + 2 E_21, moved by a witness: None, and the proof is
    the Smith form of A - I, (2, 0, 0) against the generator's (1, 0, 0)."""
    w = zlat.mat([[2, 1, 0], [1, 1, 0], [0, 3, 1]])
    a = _conj(w, zlat.mat_mul(zlat.T_GENERIC, zlat.T_GENERIC))
    assert zlat.conjugator(a, zlat.T_GENERIC) is None
    assert zlat.smith_invariants(zlat.mat_sub(a, zlat.identity(3))) == (2, 0, 0)
    assert zlat.smith_invariants(zlat.mat_sub(zlat.T_GENERIC, zlat.identity(3))) == (1, 0, 0)


def test_a_triple_whose_first_two_images_differ_is_not_negative():
    """T_1 = I + e_1 e_2^t, T_2 = I + e_2 e_3^t and T_3 = (T_1 T_2)^-1 have a
    one-dimensional common fixed space, like the negative triple, but the
    images of T_1 - I and T_2 - I span a plane where the negative triple's
    span a line; conjugation moves images by P^-1, so None is a proof."""
    t1 = zlat.mat([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    t2 = zlat.mat([[1, 0, 0], [0, 1, 1], [0, 0, 1]])
    triple = [t1, t2, zlat.inverse(zlat.mat_mul(t1, t2))]
    assert zlat.vertex_sign(triple) == "negative"
    assert zlat.simultaneous_conjugator(triple, zlat.NEGATIVE_TRIPLE) is None

    def images(mats):
        return zlat.rank([col for m in mats[:2]
                          for col in zlat.transpose(zlat.mat_sub(m, zlat.identity(3)))])

    assert (images(triple), images(zlat.NEGATIVE_TRIPLE)) == (2, 1)


@pytest.mark.parametrize("sources, targets", [
    ([zlat.mat([[2, 0], [0, 1]])], [zlat.mat([[1, 1], [1, 2]])]),
    (list(zlat.NEGATIVE_TRIPLE), [zlat.T_GENERIC] * 3),
    (list(zlat.NEGATIVE_TRIPLE[1::-1]), list(zlat.NEGATIVE_TRIPLE[:2])),
])
def test_a_question_without_normal_forms_raises_unless_it_is_trivial(sources, targets):
    """A pair of matrices neither of which is a rank-one unipotent, or
    targets of no standard kind, have no normal forms to compare; equal
    sources and targets are conjugate by the identity all the same."""
    with pytest.raises(ValueError, match="no normal form"):
        zlat.simultaneous_conjugator(sources, targets)
    assert zlat.simultaneous_conjugator(targets, targets) == zlat.identity(len(targets[0]))


def test_standard_forms_are_the_target_forms_of_the_standard_targets():
    """The table holds `_target_form` of each standard target and of each
    triple member alone, and nothing else."""
    members = [(m,) for m in zlat.NEGATIVE_TRIPLE + zlat.POSITIVE_TRIPLE]
    assert set(zlat._STANDARD_FORMS) == {*zlat.STANDARD.values(), *members}
    for targets, form in zlat._STANDARD_FORMS.items():
        assert form is not None and form == zlat._target_form(targets)


def test_planted_answers_do_not_depend_on_the_standard_forms(monkeypatch):
    """Without the table every target's form is built per question, and the
    answers keep their pinned digest: the table only stores results."""
    import hashlib
    import json

    monkeypatch.setattr(zlat, "_STANDARD_FORMS", {})
    zlat._conjugator_cached.cache_clear()
    try:
        answers = [zlat.simultaneous_conjugator(sources, targets)
                   for sources, targets in _planted_problems()]
    finally:
        zlat._conjugator_cached.cache_clear()
    digest = hashlib.sha256(json.dumps(answers).encode()).hexdigest()
    assert digest == PLANTED_ANSWERS_SHA256


@pytest.mark.parametrize("model", sorted(zlat.STANDARD))
def test_a_target_outside_the_standard_forms_is_solved(model):
    """W T W^-1 for a standard T is no key of the table: its form is built
    for the question, and the conjugator passes the exact products."""
    standard = zlat.STANDARD[model]
    n = len(standard[0])
    w1 = zlat.mat([[2, 1], [1, 1]] if n == 2 else [[1, 1, 0], [0, 1, 1], [0, 0, 1]])
    w2 = zlat.mat([[1, 2], [0, 1]] if n == 2 else [[2, 1, 0], [1, 1, 0], [0, 3, 1]])
    sources = [_conj(w1, m) for m in standard]
    targets = [_conj(w2, m) for m in standard]
    assert tuple(targets) not in zlat._STANDARD_FORMS
    assert_conjugates(sources, targets, zlat.simultaneous_conjugator(sources, targets))


@pytest.mark.parametrize("table", ["standard", "empty"])
def test_a_pair_of_matrices_without_normal_forms_raises_with_or_without_the_table(
        monkeypatch, table):
    """Neither matrix is a rank-one unipotent: ValueError, whether or not
    the standard targets' forms are in the table."""
    if table == "empty":
        monkeypatch.setattr(zlat, "_STANDARD_FORMS", {})
    for a, b in ((zlat.mat([[2, 0], [0, 1]]), zlat.mat([[1, 1], [1, 2]])),
                 (zlat.mat([[0, 1, 0], [1, 0, 0], [0, 0, 1]]),
                  zlat.mat([[-1, 0, 0], [0, 1, 0], [0, 0, 1]]))):
        with pytest.raises(ValueError, match="no normal form"):
            zlat.conjugator(a, b)


def _triple_sum_product(a, b):
    """The index triple sum, kept as the oracle of the closed-form
    `zlat.mat_mul`."""
    n = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
                 for i in range(n))


def _row_dot_product(a, v):
    """Each row of a dotted with v, the oracle of the closed-form
    `zlat.mat_vec`."""
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def _types(entries):
    return [[type(x) for x in row] if isinstance(row, tuple) else type(row)
            for row in entries]


def _exact_matrices(n):
    """n x n matrices whose entries mix small ints, ints beyond 2^64 and
    Fractions."""
    entry = st.one_of(st.integers(-3, 3), st.integers(-2**80, 2**80),
                      st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12)))
    row = st.lists(entry, min_size=n, max_size=n).map(tuple)
    return st.lists(row, min_size=n, max_size=n).map(tuple)


@given(st.sampled_from([2, 3]).flatmap(lambda n: st.tuples(_exact_matrices(n),
                                                           _exact_matrices(n))))
@settings(max_examples=100, deadline=None)
@example((((2**70, -2**65), (3, 2**64 + 1)), ((2**66, 1), (-1, 2**64))))
@example((((Fraction(1, 3), 2, 0), (0, 1, 0), (2**65, 0, Fraction(-5, 2))),
          ((1, 0, 0), (Fraction(7, 4), 1, 0), (0, 2**64, 1))))
def test_mat_mul_matches_the_triple_sum(case):
    a, b = case
    got, want = zlat.mat_mul(a, b), _triple_sum_product(a, b)
    assert got == want and _types(got) == _types(want)
    for v in b:
        got, want = zlat.mat_vec(a, v), _row_dot_product(a, v)
        assert got == want and _types(got) == _types(want)


def _cofactor_adjugate(m):
    """The minors-and-signs adjugate that `zlat.adjugate` ran before its
    closed form, kept as the oracle: entry (i, j) is the (j, i) cofactor."""
    n = len(m)
    if n == 1:
        return ((1,),)
    return tuple(tuple((-1) ** (i + j) * zlat.det(tuple(r[:i] + r[i + 1:]
                                                       for k, r in enumerate(m) if k != j))
                       for j in range(n)) for i in range(n))


@given(st.sampled_from([1, 2, 3]).flatmap(_exact_matrices))
@settings(max_examples=100, deadline=None)
def test_adjugate_matches_the_cofactor_formula(m):
    assert zlat.adjugate(m) == _cofactor_adjugate(m)
    assert zlat.transpose(m) == tuple(tuple(row[i] for row in m) for i in range(len(m)))


@pytest.mark.parametrize("n", [1, 4])
def test_products_raise_outside_n_2_and_3(n):
    m, v = zlat.identity(n), (1,) * n
    with pytest.raises(ValueError, match=f"mat_mul is closed-form for n = 2 and 3, got n = {n}"):
        zlat.mat_mul(m, m)
    with pytest.raises(ValueError, match=f"mat_vec is closed-form for n = 2 and 3, got n = {n}"):
        zlat.mat_vec(m, v)


@given(st.sampled_from([2, 3]).flatmap(_gl))
@settings(max_examples=100, deadline=None)
@example(((1, 0), (1, 1)))
@example(((0, 1), (1, 0)))
@example(((-1, 0, 0), (0, 1, 0), (0, 0, 1)))
def test_inverse_is_the_signed_adjugate(m):
    d = zlat.det(m)
    assert d in (1, -1)
    inv = zlat.inverse(m)
    assert inv == tuple(tuple(d * x for x in row) for row in _cofactor_adjugate(m))
    assert zlat.mat_mul(m, inv) == zlat.mat_mul(inv, m) == zlat.identity(len(m))
    doubled = (tuple(2 * x for x in m[0]),) + m[1:]
    with pytest.raises(ValueError, match=rf"not invertible over Z \(det={2 * d}\)"):
        zlat.inverse(doubled)


def test_mat_mul_rejects_a_dimension_mismatch():
    for a, b in ((zlat.identity(2), zlat.identity(3)), (zlat.identity(3), zlat.identity(2))):
        with pytest.raises(ValueError, match="dimension mismatch"):
            zlat.mat_mul(a, b)
    with pytest.raises(ValueError, match="dimension mismatch"):
        zlat.mat_vec(zlat.identity(3), (1, 2))


def test_identity_is_built_once_per_size():
    assert zlat.identity(3) is zlat.identity(3)
    assert zlat.identity(3) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert zlat.identity(2) == ((1, 0), (0, 1))
