"""Seeded sparse input documents of dims 6-9, the shapes of the paper's
structure theorems, with the exact zeros that the analyze kernel skips.

Each family is built in an adapted basis and then, unless `scramble` is
off, moved to the basis of the columns of a unimodular bidiagonal matrix
(L U with unit bidiagonal L and U of random signs, columns shuffled), so
most coordinates stay sparse, as in the benchmark's `analyze_large`
documents:

- ``flat_split`` / ``riemannian_flat``: k commuting generators s_a rotating
  p = (n - k) / 2 Euclidean planes, with equal weights inside each plane and
  a Lorentzian (or positive definite) form on span(s_a).  The s_a act by
  isometries, so the metric is flat; `L_{e_j}` vanishes on the planes, so
  most left multiplications are zero (Theorem 1's split).
- ``classc_flat`` / ``classc_nonflat``: [t, u_j] = alpha u_j on an abelian
  ideal U, whose restricted form has a one-dimensional radical (flat by
  Theorem 2) or none (not flat).
- ``so3_lorentzian``: so(3) + R^m with a bi-invariant Lorentzian form,
  not flat, whose curvature vanishes exactly on the pairs with zero bracket.

Only `fractions`, `random` and the Fraction helpers of `reference.py` are
used, so the documents do not move when the program changes.
"""

import random
from fractions import Fraction as F

import reference

FAMILIES = ("flat_split", "riemannian_flat", "classc_flat", "classc_nonflat", "so3_lorentzian")
DIMS = (6, 7, 8, 9)


def small(rng, positive=False):
    """A nonzero rational p/q with |p| <= 3 and q in {1, 2, 3}."""
    p = rng.randint(1, 3) * (1 if positive or rng.random() < 0.5 else -1)
    return F(p, rng.choice((1, 1, 2, 3)))


def bidiagonal_scramble(rng, n):
    """L U with L and U unit bidiagonal (random signs), columns shuffled:
    an int matrix of determinant +-1."""
    L = [[int(i == j) for j in range(n)] for i in range(n)]
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    for i in range(1, n):
        L[i][i - 1], U[i - 1][i] = rng.choice((-1, 1)), rng.choice((-1, 1))
    perm = rng.sample(range(n), n)
    return [[row[c] for c in perm] for row in reference.mat_mul(L, U)]


def adapted(rng, family, n):
    """(c, gram) of the family in its adapted basis: c[i][j][k] is the e_k
    coefficient of [e_i, e_j]."""
    c = [[[F(0)] * n for _ in range(n)] for _ in range(n)]
    gram = [[F(0)] * n for _ in range(n)]

    def put(i, j, k, x):
        c[i][j][k] += x
        c[j][i][k] -= x

    if family in ("flat_split", "riemannian_flat"):
        k = rng.choice([k for k in (1, 2, 3) if (n - k) % 2 == 0])
        for a in range(k):
            gram[a][a] = small(rng, positive=True)
        for x in range(k, n, 2):
            for a in range(k):
                lam = small(rng)
                put(a, x, x + 1, lam)
                put(a, x + 1, x, -lam)
            gram[x][x] = gram[x + 1][x + 1] = small(rng, positive=True)
        if family == "flat_split":
            gram[0][0] = -gram[0][0]
    elif family in ("classc_flat", "classc_nonflat"):
        alpha = small(rng, positive=True)
        for j in range(1, n):
            put(0, j, j, alpha)
        for j in range(2, n):
            gram[j][j] = small(rng, positive=True)
            gram[0][j] = gram[j][0] = small(rng)
        if family == "classc_flat":  # u_1 is null and orthogonal to U
            gram[0][0], gram[0][1], gram[1][0] = small(rng), F(1), F(1)
        else:  # U positive definite, the Schur complement of U negative
            gram[1][1] = small(rng, positive=True)
            gram[0][1] = gram[1][0] = small(rng)
            schur = sum(gram[0][j] * gram[0][j] / gram[j][j] for j in range(1, n))
            gram[0][0] = schur - small(rng, positive=True)
    elif family == "so3_lorentzian":
        for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            put(i, j, k, F(1))
        w = small(rng, positive=True)
        for i in range(n):
            gram[i][i] = w if i < 3 else small(rng, positive=True)
        gram[3][3] = -gram[3][3]
    else:
        raise KeyError(family)
    return c, gram


def document(rng, family, n, scramble=True):
    """The input document of one instance, in the scrambled basis unless
    `scramble` is off."""
    c, gram = adapted(rng, family, n)
    if scramble:
        P = bidiagonal_scramble(rng, n)
        c, gram = reference.transport(c, P), reference.transport_form(gram, P)
    brackets = [
        {"i": i + 1, "j": j + 1, "coeffs": [str(x) for x in c[i][j]]}
        for i in range(n) for j in range(i + 1, n) if any(c[i][j])
    ]
    return {"dim": n, "brackets": brackets, "metric": [[str(x) for x in row] for row in gram]}


def population(seed, per_family=4):
    """(family, document) for per_family instances of each family, at dims
    cycling through 6-9, from one seeded generator."""
    rng = random.Random(seed)
    return [
        (family, document(rng, family, DIMS[t % len(DIMS)]))
        for t in range(per_family) for family in FAMILIES
    ]
