"""Exact integer and affine-integral linear algebra.

Matrices are tuples of tuples of Python ints (arbitrary precision), n = 2
or 3 throughout: the products `mat_mul` and `mat_vec`, `det`, `adjugate`
and `inverse` are written out in closed form for those two sizes, with no
generic loop.  Affine maps carry an integer linear part and an exact
rational translation.  Everything is immutable and safe to share.

`mat` reads every integer matrix and `rational` every exact rational (a
float or a bool is rejected, not rounded or read as 1 and 0); `STANDARD`
names the standard generators of the four local models, and
`vertex_sign` the sign of a vertex triple.  `rank` and `smith_invariants`
both read the determinantal divisors of `_divisors`.

Also home to the exact conjugacy decision used by the simplicity checker
and the semi-stable validation.  Every question the package asks is
about rank-one unipotents A = I + c v w^t (v, w primitive, w . v = 0):
one such matrix, or a triple of them simultaneously conjugate to a
standard vertex triple.  Each has a normal form, built by completing a
primitive vector to a unimodular basis with the extended gcd (Cohen,
GTM 138, section 2.4): P^{-1} A P = I + c E_21 for one matrix, and for a
triple the standard triple of its sign.  Two inputs are conjugate exactly
when their normal forms agree, and the conjugator is read off the two
transforms; it is checked by exact products before it is returned, so
None is a proof that no conjugator exists in GL(n,Z).  The targets' half
of that work depends on the targets alone, and every target the package
asks about is standard, so `_STANDARD_FORMS` builds those targets' forms
once, at import, and a question computes only its sources' form.  Like
the whole module, this runs on plain Python ints: exact for every input.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

IntMatrix = Tuple[Tuple[int, ...], ...]


def mat(rows) -> IntMatrix:
    """Freeze a nested sequence into an IntMatrix, validating squareness;
    an entry that is not an ``int`` (a float, a bool, a string) raises
    ValueError."""
    try:
        m = tuple(tuple(row) for row in rows)
    except TypeError:
        raise ValueError(f"a matrix is an array of rows of integers, "
                         f"got {rows!r}") from None
    bad = [v for row in m for v in row if type(v) is not int]
    if bad:
        raise ValueError(f"matrix entries must be integers, got {bad[0]!r}")
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix must be square")
    return m


@functools.lru_cache(maxsize=None)
def identity(n: int) -> IntMatrix:
    """The n x n identity, built once per n (it is immutable, so shared)."""
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """The exact product a b, in closed form like `det` and `adjugate`;
    any n other than 2 and 3 raises ValueError."""
    n = len(a)
    if len(b) != n:
        raise ValueError("dimension mismatch")
    if n == 3:
        (a0, a1, a2), (a3, a4, a5), (a6, a7, a8) = a
        (b0, b1, b2), (b3, b4, b5), (b6, b7, b8) = b
        return ((a0 * b0 + a1 * b3 + a2 * b6, a0 * b1 + a1 * b4 + a2 * b7,
                 a0 * b2 + a1 * b5 + a2 * b8),
                (a3 * b0 + a4 * b3 + a5 * b6, a3 * b1 + a4 * b4 + a5 * b7,
                 a3 * b2 + a4 * b5 + a5 * b8),
                (a6 * b0 + a7 * b3 + a8 * b6, a6 * b1 + a7 * b4 + a8 * b7,
                 a6 * b2 + a7 * b5 + a8 * b8))
    if n == 2:
        (a0, a1), (a2, a3) = a
        (b0, b1), (b2, b3) = b
        return ((a0 * b0 + a1 * b2, a0 * b1 + a1 * b3),
                (a2 * b0 + a3 * b2, a2 * b1 + a3 * b3))
    raise ValueError(f"mat_mul is closed-form for n = 2 and 3, got n = {n}")


def mat_vec(a: IntMatrix, v: Sequence) -> tuple:
    """The exact product a v, in closed form like `mat_mul`; any n other
    than 2 and 3 raises ValueError."""
    n = len(a)
    if len(v) != n:
        raise ValueError("dimension mismatch")
    if n == 3:
        (a0, a1, a2), (a3, a4, a5), (a6, a7, a8) = a
        v0, v1, v2 = v
        return (a0 * v0 + a1 * v1 + a2 * v2, a3 * v0 + a4 * v1 + a5 * v2,
                a6 * v0 + a7 * v1 + a8 * v2)
    if n == 2:
        (a0, a1), (a2, a3) = a
        v0, v1 = v
        return (a0 * v0 + a1 * v1, a2 * v0 + a3 * v1)
    raise ValueError(f"mat_vec is closed-form for n = 2 and 3, got n = {n}")


def mat_sub(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def transpose(m: IntMatrix) -> IntMatrix:
    return tuple(zip(*m))


def det(m: IntMatrix) -> int:
    n = len(m)
    if n == 1:
        return m[0][0]
    if n == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    if n == 3:
        return (
            m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
        )
    raise ValueError(f"det is closed-form for n <= 3, got n = {n}")


def adjugate(m: IntMatrix) -> IntMatrix:
    """The transposed cofactor matrix, in closed form (n <= 3)."""
    n = len(m)
    if n == 1:
        return ((1,),)
    if n == 2:
        (a, b), (c, d) = m
        return ((d, -b), (-c, a))
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = m
        return ((e * i - f * h, c * h - b * i, b * f - c * e),
                (f * g - d * i, a * i - c * g, c * d - a * f),
                (d * h - e * g, b * g - a * h, a * e - b * d))
    raise ValueError(f"adjugate is closed-form for n <= 3, got n = {n}")


def inverse(m: IntMatrix) -> IntMatrix:
    """Exact inverse; requires det = +/-1 (GL(n,Z) membership), and is then
    the adjugate itself (det = 1) or its negation (det = -1)."""
    d = det(m)
    if d not in (1, -1):
        raise ValueError(f"matrix not invertible over Z (det={d})")
    adj = adjugate(m)
    return adj if d == 1 else tuple([tuple(map(operator.neg, row)) for row in adj])


def inverse_transpose(m: IntMatrix) -> IntMatrix:
    """(m^t)^{-1}, exact; an involution on GL(n,Z)."""
    return inverse(transpose(m))


def is_gl(m: IntMatrix) -> bool:
    return det(m) in (1, -1)


def _divisors(m) -> Tuple[int, ...]:
    """The determinantal divisors d_1, ..., d_n of integer rows ``m`` with
    n <= 3 columns: d_k is the gcd of the k x k minors, 0 when they all
    vanish (Cohen, GTM 138, section 2.4)."""
    cols = range(len(m[0]))
    return tuple(math.gcd(*(det([[row[j] for j in js] for row in rows])
                            for rows in itertools.combinations(m, k)
                            for js in itertools.combinations(cols, k)))
                 for k in range(1, len(cols) + 1))


def rank(m) -> int:
    """Rank over Q of a nonempty integer matrix given as rows (not
    necessarily square) with at most 3 columns: the number of nonzero
    determinantal divisors of its Gram matrix m^t m, which has the kernel
    of m and is n x n however many rows m has."""
    cols = tuple(zip(*m))
    gram = [[sum(map(operator.mul, a, b)) for b in cols] for a in cols]
    return sum(1 for d in _divisors(gram) if d)


def smith_invariants(m: IntMatrix) -> Tuple[int, ...]:
    """Diagonal of the Smith normal form (nonnegative, sorted by divisibility).

    Invariant under left/right GL(n,Z) action, in particular under
    conjugation.  The k-th invariant is d_k / d_{k-1} for the determinantal
    divisors d_k of `_divisors` and d_0 = 1, and 0 from the first vanishing
    d_k on.
    """
    out, prev = [], 1
    for d in _divisors(m):
        out.append(d // prev if prev else 0)
        prev = d
    return tuple(out)


# ----------------------------------------------------------------------
# affine-integral maps
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class AffineMapZ:
    """x -> linear @ x + translation with linear part in GL(n,Z).

    The translation is stored as Fractions, each entry read by `rational`:
    a float or a bool entry raises ValueError.
    """

    linear: IntMatrix
    translation: tuple

    def __post_init__(self):
        object.__setattr__(self, "linear", mat(self.linear))
        if len(self.translation) != len(self.linear):
            raise ValueError("dimension mismatch between linear part and translation")
        object.__setattr__(self, "translation", tuple(
            rational(v, "translation entries") for v in self.translation))
        if not is_gl(self.linear):
            raise ValueError("linear part must lie in GL(n,Z)")

    @staticmethod
    def from_linear(linear) -> "AffineMapZ":
        linear = mat(linear)
        return AffineMapZ(linear, (0,) * len(linear))

    @staticmethod
    def identity(n: int) -> "AffineMapZ":
        return AffineMapZ(identity(n), (0,) * n)

    @property
    def dim(self) -> int:
        return len(self.linear)

    def __call__(self, point):
        moved = mat_vec(self.linear, tuple(point))
        return tuple(a + b for a, b in zip(moved, self.translation))


def compose(a: AffineMapZ, b: AffineMapZ) -> AffineMapZ:
    """(a o b)(x) = a(b(x)), exact."""
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    lin = mat_mul(a.linear, b.linear)
    tr = tuple(x + y for x, y in zip(mat_vec(a.linear, b.translation), a.translation))
    return AffineMapZ(lin, tr)


def invert(a: AffineMapZ) -> AffineMapZ:
    linv = inverse(a.linear)
    return AffineMapZ(linv, tuple(-v for v in mat_vec(linv, a.translation)))


# ----------------------------------------------------------------------
# JSON encoding
# ----------------------------------------------------------------------

def json_object(data, keys, what: str) -> dict:
    """``data`` if it is a JSON object that holds ``keys``; else ValueError."""
    if not isinstance(data, dict) or not all(k in data for k in keys):
        holding = f" with {', '.join(keys)}" if keys else ""
        raise ValueError(f"{what} must be a JSON object{holding}, got {repr(data)[:60]}")
    return data


def json_array(data, what: str, keys=None) -> list:
    """``data`` if it is a JSON array, whose entries are JSON objects that
    hold ``keys`` when ``keys`` is given; else ValueError."""
    if not isinstance(data, list):
        raise ValueError(f"{what} must be a JSON array, got {repr(data)[:60]}")
    if keys is not None:
        for entry in data:
            json_object(entry, keys, f"an entry of {what}")
    return data


def rational(value, what: str) -> Fraction:
    """``value`` as a Fraction: an int (not a bool), a Fraction or a rational
    string such as "-3/4"; anything else raises ValueError naming ``what``."""
    if isinstance(value, (int, Fraction, str)) and not isinstance(value, bool):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            pass
    raise ValueError(f"{what} must be exact rationals, got {value!r}")


def matrix_to_json(m: IntMatrix) -> list:
    return [list(row) for row in m]


def affine_to_json(a: AffineMapZ) -> dict:
    """Translation entries as exact rational strings ("1/2")."""
    return {"linear": matrix_to_json(a.linear),
            "translation": [str(v) for v in a.translation]}


def affine_from_json(data) -> AffineMapZ:
    """Inverse of `affine_to_json`.  Translations must be exact: an entry
    that `rational` rejects (a JSON float or bool) raises ValueError, and
    so does a ``"numeric": true`` tag (a float-translation map);
    ``"numeric": false`` is accepted."""
    json_object(data, ("linear", "translation"), "an affine map")
    if data.get("numeric", False):
        raise ValueError("float-translation affine maps are not supported; "
                         "translations must be exact rationals")
    translation = json_array(data["translation"], "a translation")
    return AffineMapZ(mat(data["linear"]), tuple(translation))


# ----------------------------------------------------------------------
# conjugacy over GL(n,Z)
# ----------------------------------------------------------------------

def _completion(u) -> IntMatrix:
    """A GL(n,Z) matrix whose first column is the primitive vector ``u``.

    Extended-gcd moves on the coordinate pairs (0, k), each a 2 x 2 block
    of determinant 1, take u to e_1; the answer is the product of their
    inverses, built by the matching column moves on the identity.
    """
    n = len(u)
    x, cols = list(u), [list(row) for row in identity(n)]
    for k in range(1, n):
        a, b = x[0], x[k]
        # s a + t b = g = gcd(a, b), by the extended Euclid
        g, s, t, h, s1, t1 = a, 1, 0, b, 0, 1
        while h:
            q = g // h
            g, s, t, h, s1, t1 = h, s1, t1, g - q * h, s - q * s1, t - q * t1
        if g < 0:
            g, s, t = -g, -s, -t
        if g:
            for row in cols:
                row[0], row[k] = (a * row[0] + b * row[k]) // g, s * row[k] - t * row[0]
            x[0], x[k] = g, 0
    if x[0] < 0:  # n = 1, where no move runs
        cols[0][0] = -1
    return tuple(map(tuple, cols))


def rank_one_unipotent(m):
    """``(c, v, w)`` with m - I = c v w^t, v and w primitive, w . v = 0 and
    c > 0 the content of m - I; None when m is not such a matrix, that is,
    unless m is unipotent with rank(m - I) = 1 (a rank-one N = c v w^t has
    N^2 = (w . v) N).  This is the rule for a member of a vertex triple."""
    n = len(m)
    d = [[x - (i == j) for j, x in enumerate(row)] for i, row in enumerate(m)]
    flat = [x for row in d for x in row]
    c = math.gcd(*flat)
    if not c:
        return None
    i, j = divmod(next(k for k, x in enumerate(flat) if x), n)
    g = math.gcd(*(row[j] for row in d))
    v = [row[j] // g for row in d]
    w = [x // (c * v[i]) for x in d[i]]
    if d != [[c * a * b for b in w] for a in v] or sum(map(operator.mul, v, w)):
        return None
    return c, v, w


def _single_form(m):
    """``(c, P)`` with P^{-1} m P = I + c E_21 (for c = 1, `T_NODE` or
    `T_GENERIC`), or None when m - I is not a rank-one nilpotent.

    With m - I = c v w^t: R = (W^t)^{-1}, for W the completion of w, has
    w^t R = e_1^t, and its other columns are a basis of w^perp, in which v
    has the primitive coordinates a; completing a on those columns puts v
    second."""
    found = rank_one_unipotent(m)
    if found is None:
        return None
    c, v, w = found
    completion = _completion(w)
    a = mat_vec(transpose(completion), v)[1:]
    block = ((1,) + (0,) * len(a),) + tuple((0,) + row for row in _completion(a))
    return c, mat_mul(inverse_transpose(completion), block)


def _triple_form(triple):
    """P with P^{-1} T_i P = NEGATIVE_TRIPLE[i] for the first two members,
    or None.

    The members must share the image v: T_i - I = v w_i^t.  With q . v = 1,
    Q = [q; w_1; -w_2] takes v to e_1 and w_1, -w_2 to e_2, e_3 under
    Q^{-t}, and it is unimodular exactly when w_1 and w_2 are a basis of
    v^perp; P is Q^{-1}.  The third member is left to the caller."""
    forms = [rank_one_unipotent(m) for m in triple[:2]]
    if None in forms:
        return None
    (c1, v, w1), (c2, v2, w2) = forms
    if v2 != v and v2 != [-x for x in v]:
        return None
    sign = -c2 if v2 == v else c2
    q = inverse(_completion(v))[0]
    rows = (q, tuple(c1 * x for x in w1), tuple(sign * x for x in w2))
    return inverse(rows) if det(rows) in (1, -1) else None


def _no_normal_form(targets) -> ValueError:
    return ValueError(f"no normal form for the conjugacy target {list(targets)}")


def _target_form(targets):
    """The targets' half of `_candidate`, which depends on the targets only.

    One matrix: ``(c, P_B^{-1})`` from its `_single_form`, or None when it
    is not a rank-one unipotent.  A triple must be simultaneously
    conjugate to `NEGATIVE_TRIPLE` (its members share an image) or,
    through transposes, to `POSITIVE_TRIPLE` (they share a co-image):
    ``(flip, P_B^{-1})``, where ``flip`` is ``tuple`` or `transpose` and
    `_triple_form` takes the first two flipped members to the standard
    ones, and since the triple multiplies to the identity, the third as
    well.  Anything else raises ValueError."""
    if len(targets) == 1:
        form = _single_form(targets[0])
        return None if form is None else (form[0], inverse(form[1]))
    if len(targets) == 3 and len(targets[0]) == 3:
        for flip in (tuple, transpose):
            flipped = [flip(m) for m in targets]
            form = _triple_form(flipped)
            if form is not None and mat_mul(mat_mul(*flipped[:2]), flipped[2]) == identity(3):
                return flip, inverse(form)
    raise _no_normal_form(targets)


def _candidate(sources, targets):
    """P_A P_B^{-1}, from the normal forms P_A of the sources and P_B of the
    targets, or None when the two have different normal forms.

    The targets' form is read from `_STANDARD_FORMS` when they are
    standard, and built by `_target_form` otherwise.  A pair of single
    matrices is decided when either one is a rank-one unipotent, and
    raises ValueError when neither is."""
    form = _STANDARD_FORMS.get(targets)
    if form is None:
        form = _target_form(targets)
    if len(targets) == 1:
        mine = _single_form(sources[0])
        if mine is None and form is None:
            raise _no_normal_form(targets)
        if mine is None or form is None or mine[0] != form[0]:
            return None
        return mat_mul(mine[1], form[1])
    flip, form_inverse = form
    mine = _triple_form([flip(m) for m in sources])
    if mine is None:
        return None
    p = mat_mul(mine, form_inverse)
    return p if flip is tuple else inverse_transpose(p)


def simultaneous_conjugator(
    sources: Sequence[IntMatrix],
    targets: Sequence[IntMatrix],
    bound=None,
) -> Optional[IntMatrix]:
    """P in GL(n,Z) with P^{-1} A_i P = B_i for every pair, or None.

    One of a single pair must be a rank-one unipotent, and a triple of
    targets must have a standard sign (see `_candidate`); other problems
    raise ValueError unless the sources equal the targets.  P is
    P_A P_B^{-1} for the normal forms P_A, P_B of sources and targets, and
    is returned only after the exact products A_i P = P B_i are checked.
    Every answer is a proof: if some P conjugated the sources to the
    targets, the sources would have a normal form of the targets' kind and
    content, and the one built from two members of a triple would take the
    third, which the other two determine, to the third target (the targets
    multiply to the identity).  When the sources equal the targets, P is
    the identity.  Answers are memoized by (sources, targets), since graph
    validation and the local models ask the same few questions over and
    over; the standard targets' forms are built once per process, at
    import (`_STANDARD_FORMS`), so a new question computes only the
    sources' form.
    """
    # `bound` is ignored; perfbench/workloads.py still passes bound=3
    # (ROADMAP item 1)
    return _conjugator_cached(tuple(sources), tuple(targets))


@functools.lru_cache(maxsize=4096)
def _conjugator_cached(sources, targets):
    if len(sources) != len(targets):
        raise ValueError("source/target lists differ in length")
    if not sources:
        raise ValueError("empty conjugacy problem")
    n = len(targets[0])
    if any(len(m) != n for m in sources + targets):
        raise ValueError("dimension mismatch")
    if sources == targets:
        return identity(n)
    p = _candidate(sources, targets)
    if p is None or any(mat_mul(a, p) != mat_mul(p, b) for a, b in zip(sources, targets)):
        return None
    return p


def conjugator(a: IntMatrix, b: IntMatrix) -> Optional[IntMatrix]:
    """GL(n,Z) conjugator P with P^{-1} a P = b, or None."""
    return simultaneous_conjugator([a], [b])


def fixed_space_dimension(mats: Sequence[IntMatrix]) -> int:
    """Dimension of the common fixed subspace of a list of matrices (over
    Q): n minus the rank of the stacked A_i - I."""
    if not mats:
        raise ValueError("empty matrix list")
    n = len(mats[0])
    return n - rank([row for m in mats for row in mat_sub(m, identity(n))])


# ----------------------------------------------------------------------
# the standard generators
# ----------------------------------------------------------------------

#: node / focus-focus monodromy generator (n = 2)
T_NODE: IntMatrix = mat([[1, 0], [1, 1]])

#: generic-singular monodromy generator (n = 3)
T_GENERIC: IntMatrix = mat([[1, 0, 0], [1, 1, 0], [0, 0, 1]])

#: negative-vertex triple, product T1 T2 T3 = I
NEGATIVE_TRIPLE: Tuple[IntMatrix, IntMatrix, IntMatrix] = (
    mat([[1, 1, 0], [0, 1, 0], [0, 0, 1]]),
    mat([[1, 0, -1], [0, 1, 0], [0, 0, 1]]),
    mat([[1, -1, 1], [0, 1, 0], [0, 0, 1]]),
)

#: positive-vertex triple: entrywise inverse transpose of the negative one
POSITIVE_TRIPLE: Tuple[IntMatrix, IntMatrix, IntMatrix] = tuple(
    inverse_transpose(t) for t in NEGATIVE_TRIPLE
)

#: local model -> its standard generators
STANDARD = {"node": (T_NODE,), "edge": (T_GENERIC,),
            "negative": NEGATIVE_TRIPLE, "positive": POSITIVE_TRIPLE}

#: standard target -> its `_target_form`, built once per process: the four
#: `STANDARD` values and each member of the two triples as a one-matrix
#: target, which is every target the package asks about
_STANDARD_FORMS = {targets: _target_form(targets) for targets in (
    *STANDARD.values(), *((m,) for m in NEGATIVE_TRIPLE + POSITIVE_TRIPLE))}


def vertex_sign(triple: Sequence[IntMatrix]) -> Optional[str]:
    """The sign of a vertex triple from its common fixed-space dimension:
    1 is "negative" and 2 is "positive", like the standard triples; any
    other dimension is None, the triple of no local model."""
    return {1: "negative", 2: "positive"}.get(fixed_space_dimension(triple))
