"""Generated input documents for the tests, one registry entry per shape.

`SHAPES` maps each shape to the dims it is drawn at, a builder
`(rng, n) -> input document dict` and the answers it is built to reach,
as `answers` names them; an answer the shape does not fix is left out.  A
builder draws only from `rng`, a `random.Random` or the random of
`hypothesis.strategies.randoms`, and works in Fractions with the helpers
of `reference.py`.  Like `reference.py`, this module imports no `flatlie`
module, so the documents do not move when the program changes; callers
load them with `inputdoc.parse_document`.
"""

import random
from fractions import Fraction as F
from typing import Callable, NamedTuple

import reference

#: every value of each answer a shape can declare
VALUES = {"flat": {True, False}, "kind": {"riemannian", "lorentzian", "other"},
          "class_c": {True, False}, "direct": {True, False, None}}


def answers(report):
    """The answers of an `analyze --json` report that a shape can declare:
    `flat`, the signature `kind`, `class_c` and Theorem 1's `direct` side
    (None off Lorentzian signature)."""
    t1 = report["theorem1"]
    return {"flat": report["flatness"]["flat"], "kind": report["signature"]["kind"],
            "class_c": report["class_c"]["detected"], "direct": t1["direct_side"] if t1 else None}


# -- rationals and bases -------------------------------------------------------

def small(rng, positive=False):
    """A nonzero rational p/q with |p| <= 3 and q in {1, 2, 3}."""
    p = rng.randint(1, 3) * (1 if positive or rng.random() < 0.5 else -1)
    return F(p, rng.choice((1, 1, 2, 3)))


def rational(rng, top=3):
    """A rational p/q with |p| <= top and q in {1, 2, 3}, zero included."""
    return F(rng.randint(-top, top), rng.choice((1, 2, 3)))


def six_digit(rng):
    """A rational with a 6-digit numerator over a 6-digit denominator."""
    return F(rng.choice((-1, 1)) * rng.randint(100000, 999999), rng.randint(100000, 999999))


def bidiagonal_scramble(rng, n):
    """L U with L and U unit bidiagonal (random signs), columns shuffled:
    an int matrix of determinant +-1."""
    L = [[int(i == j) for j in range(n)] for i in range(n)]
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    for i in range(1, n):
        L[i][i - 1], U[i - 1][i] = rng.choice((-1, 1)), rng.choice((-1, 1))
    perm = rng.sample(range(n), n)
    return [[row[c] for c in perm] for row in reference.mat_mul(L, U)]


def triangular_scramble(rng, n):
    """L U diag(s) with L and U unit triangular, their other entries
    `rational(rng, 2)`, and s of `small` scales: an invertible rational
    matrix."""
    L = [[rational(rng, 2) for _ in range(n)] for _ in range(n)]
    U = [[rational(rng, 2) for _ in range(n)] for _ in range(n)]
    s = [small(rng) for _ in range(n)]
    lower = [[L[i][j] if j < i else F(i == j) for j in range(n)] for i in range(n)]
    upper = [[U[i][j] * s[j] if j > i else s[j] * (i == j) for j in range(n)] for i in range(n)]
    return reference.mat_mul(lower, upper)


def rational_basis(rng, n):
    """An invertible matrix with non-unit denominators."""
    while True:
        P = [[F(rng.randint(-3, 3), rng.choice((1, 2, 3, 5))) for _ in range(n)] for _ in range(n)]
        if reference.rank(P) == n:
            return P


def six_digit_basis(rng, n, blocks):
    """I plus entries k / b with |k| <= 9 and b of 6 digits, inside each
    block of indices, so a change of basis keeps blocks that are
    orthogonal ideals orthogonal ideals."""
    while True:
        P = [[F(int(i == j)) for j in range(n)] for i in range(n)]
        for block in blocks:
            for i in block:
                for j in block:
                    if rng.random() < 0.5:
                        P[i][j] += F(rng.randint(-9, 9), rng.randint(100000, 999999))
        if reference.rank(P) == n:
            return P


def dominant_block(rng, gram, k):
    """A dense Lorentzian block on the first k coordinates of gram: 6-digit
    diagonal entries of at least 2.5, the first one negated, and 6-digit
    off-diagonal entries of at most 1/4, so the block is diagonally dominant."""
    for i in range(k):
        gram[i][i] = F(rng.randint(500000, 999999), rng.randint(100000, 199999))
        for j in range(i + 1, k):
            gram[i][j] = gram[j][i] = F(rng.choice((-1, 1)) * rng.randint(100000, 199999), rng.randint(800000, 999999))
    gram[0][0] = -gram[0][0]


# -- tables and documents ------------------------------------------------------

def zero_table(n):
    """(c, gram) of zeros: c[i][j][k] is the e_k coefficient of [e_i, e_j]."""
    return [[[F(0)] * n for _ in range(n)] for _ in range(n)], [[F(0)] * n for _ in range(n)]


def add(c, i, j, k, x):
    """Add x e_k to [e_i, e_j], and -x e_k to [e_j, e_i]."""
    c[i][j][k] += x
    c[j][i][k] -= x


def antisymmetric_tensor(rng, n, entry):
    """An antisymmetric n x n x n tensor, Jacobi not imposed: entry(rng) at
    each (i, j, k) with i < j, its negative at (j, i, k), 0 on the diagonal."""
    c = [[[0] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                add(c, i, j, k, entry(rng))
    return c


def acting(n, columns):
    """R acting on R^(n-1): [e_0, e_j] is columns[j - 1] on e_1..e_{n-1}."""
    c, _ = zero_table(n)
    for j, column in enumerate(columns, 1):
        for k, x in enumerate(column, 1):
            add(c, 0, j, k, x)
    return c


def unit_brackets(n, triples):
    """The table of dim n with [e_i, e_j] = e_k for each (i, j, k)."""
    c, _ = zero_table(n)
    for i, j, k in triples:
        add(c, i, j, k, F(1))
    return c


def dense_gram(rng, n):
    """A dense 6-digit Gram matrix whose diagonal entries are at least 500."""
    _, gram = zero_table(n)
    for i in range(n):
        gram[i][i] = F(rng.randint(500000, 999999), rng.randint(100, 999))
        for j in range(i + 1, n):
            gram[i][j] = gram[j][i] = six_digit(rng)
    return gram


def random_form(rng, n):
    """A random nondegenerate symmetric matrix, `small` on the diagonal so
    that the least draws give the identity, `rational` off it."""
    while True:
        upper = [[small(rng) if i == j else rational(rng) for j in range(n)] for i in range(n)]
        gram = [[upper[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
        if reference.rank(gram) == n:
            return gram


def moved(c, gram, P):
    """(c, gram) in the basis of the columns of P."""
    return reference.transport(c, P), reference.transport_form(gram, P)


def document(c, gram):
    """The input document of (c, gram): the nonzero brackets [e_i, e_j],
    i < j, 1-based, every rational as its canonical string."""
    n = len(gram)
    brackets = [{"i": i + 1, "j": j + 1, "coeffs": reference.encode(c[i][j])}
                for i in range(n) for j in range(i + 1, n) if any(c[i][j])]
    return {"dim": n, "brackets": brackets, "metric": reference.encode(gram)}


def fits(c, gram):
    """Whether every numerator and denominator has at most 6 digits."""
    entries = [x for plane in c for row in plane for x in row] + [x for row in gram for x in row]
    return max(max(abs(F(x).numerator), F(x).denominator) for x in entries) < 10**6


# -- the shapes ------------------------------------------------------------------

SO3 = ((0, 1, 2), (1, 2, 0), (2, 0, 1))  # [e_i, e_j] = e_k


def rotations(rng, n, lorentzian):
    """k commuting generators s_a (k of n's parity in 1-3) rotating
    (n - k) / 2 Euclidean planes, with equal weights inside each plane and
    positive weights on span(s_a), the first one negated for a Lorentzian
    form.  The s_a act by isometries, so the metric is flat (Theorem 1's
    split), and `L_{e_j}` vanishes on the planes."""
    c, gram = zero_table(n)
    k = rng.choice([k for k in (1, 2, 3) if (n - k) % 2 == 0])
    for a in range(k):
        gram[a][a] = small(rng, positive=True)
    for x in range(k, n, 2):
        for a in range(k):
            lam = small(rng)
            add(c, a, x, x + 1, lam)
            add(c, a, x + 1, x, -lam)
        gram[x][x] = gram[x + 1][x + 1] = small(rng, positive=True)
    if lorentzian:
        gram[0][0] = -gram[0][0]
    return c, gram


def class_c(rng, n, flat):
    """[t, u_j] = alpha u_j on an abelian ideal U whose restricted form has
    a one-dimensional radical, u_1 null and orthogonal to U (flat by
    Theorem 2), or none, U positive definite and its Schur complement
    negative (not flat).  A class-C algebra has no nonzero Killing vector,
    so Theorem 1's direct side is False."""
    alpha = small(rng, positive=True)
    c = acting(n, [[alpha * (k == j) for k in range(n - 1)] for j in range(n - 1)])
    _, gram = zero_table(n)
    for j in range(2, n):
        gram[j][j] = small(rng, positive=True)
        gram[0][j] = gram[j][0] = small(rng)
    if flat:
        gram[0][0], gram[0][1], gram[1][0] = small(rng), F(1), F(1)
    else:
        gram[1][1] = small(rng, positive=True)
        gram[0][1] = gram[1][0] = small(rng)
        schur = sum(gram[0][j] * gram[0][j] / gram[j][j] for j in range(1, n))
        gram[0][0] = schur - small(rng, positive=True)
    return c, gram


def so3_sum(rng, n):
    """so(3) + R^(n-3) under a bi-invariant weight on so(3) and one negative
    weight on R^(n-3): not flat, and the curvature vanishes exactly on the
    pairs with zero bracket."""
    c, gram = unit_brackets(n, SO3), zero_table(n)[1]
    w = small(rng, positive=True)
    for i in range(n):
        gram[i][i] = w if i < 3 else small(rng, positive=True)
    gram[3][3] = -gram[3][3]
    return c, gram


def sparse(table, scramble=True):
    """The builder of a sparse shape: table's (c, gram) in its adapted
    basis, moved by a `bidiagonal_scramble` unless scramble is off, so most
    coordinates stay the exact zeros that the analyze kernel skips."""
    def build(rng, n):
        c, gram = table(rng, n)
        if scramble:
            c, gram = moved(c, gram, bidiagonal_scramble(rng, n))
        return document(c, gram)
    return build


def scalar_table(rng, n):
    """R acting on R^(n-1) by a nonzero scalar, under its degenerate
    adapted form: the flat `class_c` table."""
    return class_c(rng, n, flat=True)


def skew_table(rng, n):
    """R acting on R^(n-1) by a matrix skew for a diagonal form, under that
    form: the flat split of Theorem 1."""
    w = [small(rng, positive=True) for _ in range(n)]
    K = [[rational(rng) for _ in range(n - 1)] for _ in range(n - 1)]
    c = acting(n, [[(K[k][j] - K[j][k]) / w[k + 1] for k in range(n - 1)] for j in range(n - 1)])
    gram = [[w[i] * (i == j) for j in range(n)] for i in range(n)]
    gram[0][0] *= rng.choice((-1, 1))
    return c, gram


def any_table(rng, n):
    """R acting on R^(n-1) by any matrix, with no form of its own."""
    return acting(n, [[rational(rng) for _ in range(n - 1)] for _ in range(n - 1)]), None


def simple_table(rng, n):
    """so(3) plus an abelian summand, with no form of its own."""
    return unit_brackets(n, SO3), None


def heisenberg_table(rng, n):
    """The Heisenberg algebra plus an abelian summand, with no form of its own."""
    return unit_brackets(n, ((0, 1, 2),)), None


def abelian_table(rng, n):
    """The abelian algebra, with no form of its own."""
    return unit_brackets(n, ()), None


def scrambled(table):
    """The builder of a table shape, whose Jacobi identity holds by its
    form: table's (c, gram), with a `random_form` in place of gram half of
    the time and whenever gram is None, moved by a `triangular_scramble`
    whose entries fit the input caps."""
    def build(rng, n):
        c, gram = table(rng, n)
        if gram is None or rng.random() < 0.5:
            gram = random_form(rng, n)
        while True:
            moved_c, moved_gram = moved(c, gram, triangular_scramble(rng, n))
            if fits(moved_c, moved_gram):
                return document(moved_c, moved_gram)
    return build


def dense_document(rng, n):
    """[e_1, e_j] dense in e_2..e_n and a dense Lorentzian metric, every
    entry a 6-digit rational over its own 6-digit denominator: the input
    caps' worst case."""
    c = acting(n, [[six_digit(rng) for _ in range(n - 1)] for _ in range(n - 1)])
    gram = dense_gram(rng, n)
    gram[0][0] = -gram[0][0]
    return document(c, gram)


def dense_flat_split(rng, n):
    """A flat split Lorentzian document of dim n = 1 + r + m, r = (n - 1) // 4,
    with every entry within the input caps but large views: s acts on R^m
    by a dense M, skew for diag(d) with d_u distinct 3-digit primes
    (M[u][v] = x / q and M[v][u] = -x d_u / (q d_v), q a further distinct
    prime), next to a center R^r; s and the center carry `dominant_block`,
    and the basis is permuted.  The Killing subalgebra is s plus the
    center, the derived algebra R^m, and the product's slots pass
    linalg.MAX_PACKED_WIDTH in `same_connection` and `verify_eq2` from
    n = 17 (r = 4, m = 12) on."""
    r = (n - 1) // 4
    k, m = r + 1, n - 1 - r
    pool = [p for p in range(101, 1000) if all(p % q for q in range(2, 32))]
    primes = iter(rng.sample(pool, m + m * (m - 1) // 2))
    d = [next(primes) for _ in range(m)]
    M = [[F(0)] * m for _ in range(m)]
    for u in range(m):
        for v in range(u + 1, m):
            M[u][v] = F(rng.choice((-1, 1)) * rng.randint(100, 999), next(primes))
            M[v][u] = -M[u][v] * d[u] / d[v]
    c = acting(n, [[F(0)] * (n - 1)] * r + [[F(0)] * r + [M[u][v] for u in range(m)] for v in range(m)])
    _, gram = zero_table(n)
    dominant_block(rng, gram, k)
    for u in range(m):
        gram[k + u][k + u] = F(d[u])
    perm = list(range(n))
    rng.shuffle(perm)
    return document(*moved(c, gram, [[int(i == perm[j]) for j in range(n)] for i in range(n)]))


def dense_flat_class_c(rng, n):
    """A flat class-C Lorentzian document: [e_i, e_j] = beta_i e_j - beta_j e_i
    for 6-digit beta with beta_1 = 0, so e_1 is in the ideal ker(beta), and
    a dense 6-digit metric whose column 1 is beta, so e_1 is orthogonal to
    that ideal: the restriction is degenerate.  From n = 6 on, the witness
    check's slots pass linalg.MAX_PACKED_WIDTH."""
    beta = [six_digit(rng) for _ in range(n)]
    beta[1] = F(0)
    c, _ = zero_table(n)
    for i in range(n):
        for j in range(i + 1, n):
            add(c, i, j, j, beta[i])
            add(c, i, j, i, -beta[j])
    gram = dense_gram(rng, n)
    for i in range(n):
        gram[i][1] = gram[1][i] = beta[i]
    return document(c, gram)


def dense_riemannian(rng, n):
    """[e_1, e_j] dense in e_2..e_n of small rationals under a dense,
    diagonally dominant Riemannian metric."""
    c = acting(n, [[F(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n - 1)] for _ in range(n - 1)])
    _, gram = zero_table(n)
    for i in range(n):
        gram[i][i] = F(2 * n)
        for j in range(i + 1, n):
            gram[i][j] = gram[j][i] = F(rng.randint(-1, 1))
    return document(c, gram)


class Shape(NamedTuple):
    """The dims a shape is drawn at, its builder and its declared answers."""

    dims: tuple[int, ...]
    build: Callable[[random.Random, int], dict]
    answers: dict


FLAT_SPLIT = {"flat": True, "kind": "lorentzian", "class_c": False, "direct": True}
NONFLAT_LORENTZIAN = {"flat": False, "kind": "lorentzian", "class_c": False, "direct": False}
CLASS_C = {"kind": "lorentzian", "class_c": True, "direct": False}
RIEMANNIAN = {"kind": "riemannian", "class_c": False, "direct": None}
SPARSE_DIMS, TABLE_DIMS, DENSE_DIMS = (6, 7, 8, 9), (2, 3, 4, 5), (3, 4, 5)

SHAPES = {
    "flat_split": Shape(SPARSE_DIMS, sparse(lambda rng, n: rotations(rng, n, True)), FLAT_SPLIT),
    "riemannian_flat": Shape(SPARSE_DIMS, sparse(lambda rng, n: rotations(rng, n, False)), {**RIEMANNIAN, "flat": True}),
    "classc_flat": Shape(SPARSE_DIMS, sparse(lambda rng, n: class_c(rng, n, True)), {**CLASS_C, "flat": True}),
    "classc_nonflat": Shape(SPARSE_DIMS, sparse(lambda rng, n: class_c(rng, n, False)), {**CLASS_C, "flat": False}),
    "so3_lorentzian": Shape(SPARSE_DIMS, sparse(so3_sum), NONFLAT_LORENTZIAN),
    "flat_split_adapted": Shape(SPARSE_DIMS, sparse(lambda rng, n: rotations(rng, n, True), scramble=False), FLAT_SPLIT),
    "scalar": Shape(TABLE_DIMS, scrambled(scalar_table), {"class_c": True}),
    "skew": Shape(TABLE_DIMS, scrambled(skew_table), {"class_c": False}),
    "any": Shape(TABLE_DIMS, scrambled(any_table), {}),
    "abelian": Shape(TABLE_DIMS, scrambled(abelian_table), {"flat": True, "class_c": False}),
    "simple": Shape(TABLE_DIMS[1:], scrambled(simple_table), {"class_c": False}),
    "heisenberg": Shape(TABLE_DIMS[1:], scrambled(heisenberg_table), {"class_c": False}),
    "dense_document": Shape(DENSE_DIMS, dense_document, NONFLAT_LORENTZIAN),
    "dense_flat_split": Shape(DENSE_DIMS, dense_flat_split, FLAT_SPLIT),
    "dense_flat_class_c": Shape(DENSE_DIMS, dense_flat_class_c, {**CLASS_C, "flat": True}),
    "dense_riemannian": Shape(DENSE_DIMS, dense_riemannian, {**RIEMANNIAN, "flat": False}),
}

SPARSE = ("flat_split", "riemannian_flat", "classc_flat", "classc_nonflat", "so3_lorentzian")
TABLES = ("scalar", "skew", "any", "abelian", "simple", "heisenberg")


def population(seed, names):
    """(name, document) for four documents of each named shape, at dims
    cycling through its dims, from one seeded generator."""
    rng = random.Random(seed)
    return [(name, SHAPES[name].build(rng, SHAPES[name].dims[t % len(SHAPES[name].dims)]))
            for t in range(4) for name in names]
