"""Independent checks of tfib's answers.

Nothing here calls tfib: the integer matrix arithmetic is written out
again, and the expected generators, counts and integrals are literals
taken from the paper's conventions (see the README of tfib).  Every
check returns ``None`` when the answer is right and a one-line reason
when it is wrong; ``Tally`` counts attempted and failed checks.
"""

from __future__ import annotations

import math

# monodromy generators, acting on cycle-coordinate columns
T_NODE = ((1, 0), (1, 1))
T_GENERIC = ((1, 0, 0), (1, 1, 0), (0, 0, 1))
NEGATIVE_TRIPLE = (
    ((1, 1, 0), (0, 1, 0), (0, 0, 1)),
    ((1, 0, -1), (0, 1, 0), (0, 0, 1)),
    ((1, -1, 1), (0, 1, 0), (0, 0, 1)),
)
# entrywise inverse transposes of the negative triple
POSITIVE_TRIPLE = (
    ((1, 0, 0), (-1, 1, 0), (0, 0, 1)),
    ((1, 0, 0), (0, 1, 0), (1, 0, 1)),
    ((1, 0, 0), (1, 1, 0), (-1, 0, 1)),
)

# loop generators of the affine local models (cotangent holonomy)
LOCAL_MODEL_LOOPS = {
    "node": {"g": T_NODE},
    "edge": {"g": T_GENERIC},
    "negative": dict(zip(("g1", "g2", "g3"), NEGATIVE_TRIPLE)),
    "positive": dict(zip(("g1", "g2", "g3"), POSITIVE_TRIPLE)),
}

# quintic graph and its Legendre dual: (vertices, edges, positive, negative)
QUINTIC = (300, 450, 50, 250)
QUINTIC_DUAL = (300, 450, 250, 50)
K3_NODES = 24

MODEL_IDS = ("amoeba", "control", "generic", "hl", "leg_d", "leg_h", "leg_v",
             "positive", "sm_ff", "stitched_ff", "thin_legs")


# ----------------------------------------------------------------------
# integer matrices as tuples of tuples
# ----------------------------------------------------------------------

def as_matrix(m):
    return tuple(tuple(int(v) for v in row) for row in m)


def identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def mul(a, b):
    n = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
                 for i in range(n))


def product(mats, n):
    acc = identity(n)
    for m in mats:
        acc = mul(acc, m)
    return acc


def det(m):
    if len(m) == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def inverse(m):
    """Exact inverse of a unimodular 2x2 or 3x3 integer matrix."""
    d = det(m)
    if d not in (1, -1):
        raise ValueError("not unimodular")
    n = len(m)
    if n == 2:
        return ((d * m[1][1], -d * m[0][1]), (-d * m[1][0], d * m[0][0]))

    def minor(i, j):
        rows = [r for k, r in enumerate(m) if k != i]
        sub = [[v for c, v in enumerate(r) if c != j] for r in rows]
        return sub[0][0] * sub[1][1] - sub[0][1] * sub[1][0]

    return tuple(tuple(d * (-1) ** (i + j) * minor(j, i) for j in range(3))
                 for i in range(3))


def conjugate(w, b):
    """w b w^{-1}: the source of a problem whose witness is w."""
    return mul(mul(w, b), inverse(w))


def sup_norm(m):
    return max(abs(v) for row in m for v in row)


# ----------------------------------------------------------------------
# checks
# ----------------------------------------------------------------------

def check_conjugator(sources, targets, p):
    """p is unimodular and p^{-1} A_i p = B_i for every pair."""
    if p is None:
        return "no conjugator returned for a conjugate pair"
    p = as_matrix(p)
    if det(p) not in (1, -1):
        return f"conjugator {p} is not unimodular"
    for a, b in zip(sources, targets):
        if mul(as_matrix(a), p) != mul(p, as_matrix(b)):
            return f"conjugator {p} does not take {a} to {b}"
    return None


def check_none(result):
    if result is not None:
        return f"a non-conjugate control was matched by {result}"
    return None


def check_equal(got, want, what):
    if got != want:
        return f"{what}: got {got!r}, expected {want!r}"
    return None


def check_close(got, want, tol, what):
    """|got - want| <= tol elementwise (both flat sequences or scalars)."""
    got_l = list(got) if isinstance(got, (list, tuple)) else [got]
    want_l = list(want) if isinstance(want, (list, tuple)) else [want]
    if len(got_l) != len(want_l):
        return f"{what}: got {got!r}, expected {want!r}"
    for g, w in zip(got_l, want_l):
        if not (isinstance(g, (int, float)) and math.isfinite(g)) or abs(g - w) > tol:
            return f"{what}: got {got!r}, expected {want!r} within {tol}"
    return None


def check_below(value, limit, what):
    if not (isinstance(value, (int, float)) and math.isfinite(value)) or value >= limit:
        return f"{what}: {value!r} is not below {limit}"
    return None


def check_above(value, limit, what):
    if not (isinstance(value, (int, float)) and math.isfinite(value)) or value < limit:
        return f"{what}: {value!r} is not at least {limit}"
    return None


def in_amoeba(x1, x2, slack=0.0):
    """(x1, x2) in the closed amoeba of 1 + v1 + v2 = 0: the moduli 1, e^x1,
    e^x2 satisfy the triangle inequalities."""
    a, b = math.exp(x1), math.exp(x2)
    return abs(a - b) <= 1.0 + slack and a + b >= 1.0 - slack


class Tally:
    """Attempted and failed checks of a run, with the first reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def record(self, label, reason):
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(f"{label}: {reason}")

    @property
    def fail_ratio(self):
        return self.failed / self.attempted if self.attempted else 0.0
