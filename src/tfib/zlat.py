"""Exact integer and affine-integral linear algebra.

Matrices are tuples of tuples of Python ints (arbitrary precision), n = 2
or 3 throughout.  Affine maps carry an integer linear part and an exact
rational translation.  Everything is immutable and safe to share.

`mat` reads every integer matrix and `rational` every exact rational (a
float or a bool is rejected, not rounded or read as 1 and 0); `STANDARD`
names the standard generators of the four local models, and
`vertex_sign` the sign of a vertex triple.

Also home to the exact conjugacy machinery used by the simplicity checker
and the semi-stable validation.  Conclusive prefilters run first: the
closed-form characteristic polynomial and the Smith form of A - I of each
matrix, and for a tuple the dimension of its common fixed space.  The
linear conditions A P = P B are then solved by integer-only row
reduction, and the integer points of the solution space are searched
shell by shell, sup-norm 1, 2, ..., bound, pruning a candidate as soon as
an entry it fixes is not integral or too large.  The conjugator returned
is the one of least sup-norm, ties going to the lexicographically first
in the free coordinates of the solution space; None means none lies in
the box.  Like the whole module, the search runs on plain Python ints,
with no array library or machine integer: exact for every input.
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
    """The exact product a b: each entry is a row of a dotted with a
    column of b by ``map(operator.mul, ...)``, so the loop runs in C."""
    if len(b) != len(a):
        raise ValueError("dimension mismatch")
    cols = list(zip(*b))
    return tuple([tuple([sum(map(operator.mul, row, col)) for col in cols]) for row in a])


def mat_vec(a: IntMatrix, v: Sequence) -> tuple:
    """The exact product a v, by the same row-times-column rule as `mat_mul`."""
    if len(v) != len(a):
        raise ValueError("dimension mismatch")
    return tuple([sum(map(operator.mul, row, v)) for row in a])


def mat_sub(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def transpose(m: IntMatrix) -> IntMatrix:
    n = len(m)
    return tuple(tuple(m[j][i] for j in range(n)) for i in range(n))


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
    n = len(m)
    if n == 1:
        return ((1,),)
    cof = []
    for i in range(n):
        row = []
        for j in range(n):
            minor = tuple(
                r[:j] + r[j + 1:] for k, r in enumerate(m) if k != i
            )
            row.append((-1) ** (i + j) * det(minor))
        cof.append(tuple(row))
    return transpose(tuple(cof))


def inverse(m: IntMatrix) -> IntMatrix:
    """Exact inverse; requires det = +/-1 (GL(n,Z) membership)."""
    d = det(m)
    if d not in (1, -1):
        raise ValueError(f"matrix not invertible over Z (det={d})")
    adj = adjugate(m)
    return tuple(tuple(d * v for v in row) for row in adj)


def inverse_transpose(m: IntMatrix) -> IntMatrix:
    """(m^t)^{-1}, exact; an involution on GL(n,Z)."""
    return inverse(transpose(m))


def is_gl(m: IntMatrix) -> bool:
    return det(m) in (1, -1)


def is_unipotent(m: IntMatrix) -> bool:
    """True iff (m - I)^n = 0."""
    n = len(m)
    p = mat_sub(m, identity(n))
    acc = p
    for _ in range(n - 1):
        acc = mat_mul(acc, p)
    return acc == tuple(tuple(0 for _ in range(n)) for _ in range(n))


def rank(m) -> int:
    """Rank over Q of a nonempty integer matrix given as rows (not
    necessarily square), from the integer row reduction."""
    return len(_rref(m, len(m[0]))[1])


def charpoly(m: IntMatrix) -> Tuple[int, ...]:
    """Coefficients of det(x I - m), leading 1 first, in closed form (n <= 3).

    They are 1, -trace, the sum of the principal 2-minors and -det,
    truncated to n + 1 terms.
    """
    n = len(m)
    if n > 3:
        raise ValueError(f"charpoly is closed-form for n <= 3, got n = {n}")
    minors = sum(m[i][i] * m[j][j] - m[i][j] * m[j][i]
                 for i, j in itertools.combinations(range(n), 2))
    return (1, -sum(m[i][i] for i in range(n)), minors, -det(m))[:n + 1]


def smith_invariants(m: IntMatrix) -> Tuple[int, ...]:
    """Diagonal of the Smith normal form (nonnegative, sorted by divisibility).

    Invariant under left/right GL(n,Z) action, in particular under
    conjugation; the cheap conclusive obstruction for conjugacy tests.
    Computed from the determinantal divisors (n <= 3): with g_k the gcd of
    the k x k minors and g_0 = 1, the k-th invariant is g_k / g_{k-1}, and
    0 from the first vanishing g_k on.
    """
    n = len(m)
    out = []
    prev = 1
    for k in range(1, n + 1):
        subsets = list(itertools.combinations(range(n), k))
        g = math.gcd(*(det([[m[i][j] for j in cols] for i in rows])
                       for rows in subsets for cols in subsets))
        out.append(g // prev if prev else 0)
        prev = g
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

def _rref(rows, ncols):
    """Reduced row echelon form of an integer matrix, in integers only.

    Fraction-free elimination: zero rows are dropped, and each combined row
    is divided by the gcd of its entries.  Returns ``(rows, pivots)``; row
    ``i`` is a nonzero integer multiple of the i-th row of the rational
    RREF, whose pivot sits in column ``pivots[i]``.
    """
    rows = [list(row) for row in rows if any(row)]
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        top = rows[r]
        reduced = []
        for i, row in enumerate(rows):
            f = row[col]
            if i != r and f:
                row = [top[col] * a - f * b for a, b in zip(row, top)]
                g = math.gcd(*row)
                if not g:
                    continue
                row = [v // g for v in row]
            reduced.append(row)
        rows = reduced
        pivots.append(col)
    return rows, pivots


def _nullspace_rref(rows, ncols):
    """RREF nullspace basis of an integer matrix given as row lists,
    scaled to integers.

    Returns ``(denom, basis, free)``: divided by ``denom``, the integer
    vectors of ``basis`` are the standard free-variable basis, so every
    solution's coordinates at the ``free`` columns are exactly its
    coefficients in this basis.  ``denom`` is the least common denominator
    of that rational basis.  The elimination runs on integers and nothing
    is divided inexactly.
    """
    rows, pivots = _rref(rows, ncols)
    free = [c for c in range(ncols) if c not in pivots]
    denom = math.lcm(*(row[pc] // math.gcd(row[pc], row[fc])
                       for row, pc in zip(rows, pivots) for fc in free))
    basis = []
    for fc in free:
        vec = [0] * ncols
        vec[fc] = denom
        for row, pc in zip(rows, pivots):
            vec[pc] = -row[fc] * denom // row[pc]
        basis.append(vec)
    return denom, basis, free


#: the sup-norm box [-SEARCH_BOUND, SEARCH_BOUND] of every conjugator search
#: the checks run (local models, semi-stable validation)
SEARCH_BOUND = 3


def simultaneous_conjugator(
    sources: Sequence[IntMatrix],
    targets: Sequence[IntMatrix],
    bound: int = SEARCH_BOUND,
) -> Optional[IntMatrix]:
    """Find P in GL(n,Z), entries in [-bound, bound], with P^{-1} A_i P = B_i.

    The condition A_i P = P B_i is linear in P; we solve it exactly over Q
    and search the integer points of the solution space shell by shell
    (see `_enumerate_conjugators`).  The answer is deterministic: of the
    conjugators with entries in [-bound, bound], the one of least sup-norm,
    ties going to the lexicographically first in free coordinates.  When
    the sources equal the targets the identity is returned at once.
    Returns None when no conjugator lies in the box.  Conclusive invariant
    prefilters run first: charpoly and Smith form of A - I per pair, and
    for more than one pair the common fixed-space dimension, which a
    simultaneous conjugator maps from the sources onto the targets (so the
    two signs of vertex triple are told apart without a search).  Results
    are memoized, since graph validation asks about the same few matrices
    over and over.  A bound below 1 raises ValueError.
    """
    if bound < 1:
        raise ValueError(f"conjugator bound must be at least 1, got {bound}")
    return _conjugator_cached(tuple(sources), tuple(targets), bound)


@functools.lru_cache(maxsize=4096)
def _conjugator_cached(sources, targets, bound):
    if len(sources) != len(targets):
        raise ValueError("source/target lists differ in length")
    if not sources:
        raise ValueError("empty conjugacy problem")
    n = len(sources[0])
    for a, b in zip(sources, targets):
        if len(a) != n or len(b) != n:
            raise ValueError("dimension mismatch")
        if _invariants(a) != _invariants(b):
            return None
    if len(sources) > 1 and _fixed_space_dimension(sources) != _fixed_space_dimension(targets):
        return None
    if tuple(sources) == tuple(targets):
        return identity(n)
    # build the linear system (A P - P B = 0 for every pair), unknowns P[i][j]
    rows = []
    for a, b in zip(sources, targets):
        for i in range(n):
            for j in range(n):
                row = [0] * (n * n)
                for k in range(n):
                    row[k * n + j] += a[i][k]
                    row[i * n + k] -= b[k][j]
                rows.append(row)
    denom, basis, free = _nullspace_rref(rows, n * n)
    if not basis:
        return None
    return _enumerate_conjugators(denom, basis, free, n, bound)


@functools.lru_cache(maxsize=1024)
def _invariants(m):
    """Conjugacy invariants of ``m``: its charpoly and the Smith form of
    m - I.  Cached because the targets are the same few matrices
    (``T_GENERIC``, the standard triples) on every conjugator cache miss."""
    return charpoly(m), smith_invariants(mat_sub(m, identity(len(m))))


@functools.lru_cache(maxsize=1024)
def _fixed_space_dimension(mats):
    """`fixed_space_dimension` of a tuple of matrices, cached like
    `_invariants`: the target tuples are the two standard triples."""
    return fixed_space_dimension(mats)


def _enumerate_conjugators(denom, basis, free, n, bound):
    """Least-norm unimodular integer point of the solution space, by shells.

    ``basis`` is the RREF nullspace basis times ``denom`` (see
    `_nullspace_rref`).  At the ``free`` columns it is ``denom`` times the
    identity, so the free coordinates of a solution are entries of P:
    every conjugator of sup-norm <= s has free coordinates in [-s, s]^d.
    Shell s = 1, ..., bound scans that box in lexicographic order (last
    coordinate fastest), keeps the integral candidates of sup-norm <= s
    and returns the first unimodular one.  Shell s - 1 found none, so the
    hit has sup-norm exactly s, and lexicographic order on [-s, s]^d is
    the order of the full box restricted to it: the result is the
    lexicographically first conjugator of least sup-norm in
    [-bound, bound]^d.

    The box is never materialised: a depth-first search places the
    coordinates first to last on one row, P times ``denom``, updated in
    place by the nonzero entries of each basis vector and undone on the
    way back.  An entry of P is fixed once the last coordinate touching it
    is placed, and the branch goes when it is not divisible by ``denom``
    or exceeds s; a free column equals its coordinate and needs no test.
    """
    d, size = len(basis), n * n
    # the nonzero entries of each basis vector; the entries placing k fixes
    steps = [[(j, v) for j, v in enumerate(vec) if v] for vec in basis]
    fixed = [[] for _ in range(d)]
    for j in range(size):
        k = max((k for k in range(d) if basis[k][j]), default=None)
        if k is not None and j not in free:
            fixed[k].append(j)
    row = [0] * size

    def unimodular():
        e = [v // denom for v in row] if denom != 1 else row
        if n == 2:
            det = e[0] * e[3] - e[1] * e[2]
        else:
            det = (e[0] * (e[4] * e[8] - e[5] * e[7]) - e[1] * (e[3] * e[8] - e[5] * e[6])
                   + e[2] * (e[3] * e[7] - e[4] * e[6]))
        if det == 1 or det == -1:
            return tuple(tuple(e[i * n:(i + 1) * n]) for i in range(n))
        return None

    def place(k, s, top):
        # coordinate k through -s, ..., s: start at -s, then step by +1
        step, tests = steps[k], fixed[k]
        for j, v in step:
            row[j] -= s * v
        for _ in range(2 * s + 1):
            for j in tests:
                x = row[j]
                if x > top or x < -top or x % denom:
                    break
            else:
                hit = unimodular() if k == d - 1 else place(k + 1, s, top)
                if hit is not None:
                    return hit
            for j, v in step:
                row[j] += v
        for j, v in step:
            row[j] -= (s + 1) * v
        return None

    for s in range(1, bound + 1):
        hit = place(0, s, s * denom)
        if hit is not None:
            return hit
    return None


def conjugator(a: IntMatrix, b: IntMatrix,
               bound: int = SEARCH_BOUND) -> Optional[IntMatrix]:
    """GL(n,Z) conjugator P with P^{-1} a P = b, or None."""
    return simultaneous_conjugator([a], [b], bound=bound)


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


def vertex_sign(triple: Sequence[IntMatrix]) -> Optional[str]:
    """The sign of a vertex triple from its common fixed-space dimension:
    1 is "negative" and 2 is "positive", like the standard triples; any
    other dimension is None, the triple of no local model."""
    return {1: "negative", 2: "positive"}.get(fixed_space_dimension(triple))
