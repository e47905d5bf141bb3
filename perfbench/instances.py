"""Seeded input documents with truth labels known by construction.

Only `fractions` and `random` are used: the inputs of the benchmark must not
move when the program's own generators (`flatlie.sweeps`, `flatlie.catalog`)
change.  Every family below is built in an adapted basis where its verdicts
follow from a short argument, then scrambled by a random integer change of
basis with determinant +-1, so the program sees dense coordinates.

Families and the argument behind their labels:

- ``flat_split``: k commuting generators s_a rotating p Euclidean planes, a
  Lorentzian form on span(s_a) and equal weights inside each plane.  The
  s_a act by isometries, so the metric is flat with a timelike Killing
  vector (theorem1 direct side), the Killing subalgebra is span(s_a) and the
  algebra is unimodular, hence geodesically complete.
- ``riemannian_flat``: the same algebra with a positive definite form on
  span(s_a) (Milnor's flat normal form).
- ``classc_flat``: [t, u] = alpha u on an abelian ideal U, with a form whose
  restriction to U has the one-dimensional radical e.  Flat by theorem 2;
  the null transversal d = t - <t,t>/2 e satisfies d.d = -alpha d, so the
  geodesic with v(0) = f0 d blows up at exactly 1 / (alpha f0).
- ``classc_nonflat``: the same algebra with a nondegenerate restriction to U,
  hence not flat by theorem 2.
- ``nonflat_lorentzian`` / ``bi_invariant_riemannian``: so(3) + R^m with a
  bi-invariant form, K(x, y) = ad_[x,y] / 4, which is nonzero on so(3).
  Geodesics through the identity have constant velocity (v.v = [v, v] / 2 = 0).
- ``heisenberg_riemannian``: [x, y] = c z with a positive definite form.  A
  non-abelian nilpotent algebra has no flat Riemannian metric (Milnor).
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)

#: turns of the fastest rotation plane covered by one rotation geodesic
ROTATION_TURNS = 8


def _small(rng: random.Random, positive: bool = False) -> Fraction:
    """A nonzero rational p/q with |p| <= 3 and q in {1, 2, 3}.  Zero is left
    out so that the sparsity, and with it the cost, of an instance does not
    depend on the seed."""
    num = rng.randint(1, 3)
    if not positive and rng.random() < 0.5:
        num = -num
    return Fraction(num, rng.choice((1, 1, 2, 3)))


def _zeros(n: int) -> list[list[Fraction]]:
    return [[ZERO] * n for _ in range(n)]


def _mat_mul(A, B):
    Bt = list(zip(*B))
    return [[sum((a * b for a, b in zip(row, col) if a and b), ZERO) for col in Bt] for row in A]


def _transpose(A):
    return [list(r) for r in zip(*A)]


def _mat_vec(A, v):
    return [sum((a * x for a, x in zip(row, v) if a and x), ZERO) for row in A]


def _inverse(A):
    n = len(A)
    M = [list(row) + [ONE if i == j else ZERO for j in range(n)] for i, row in enumerate(A)]
    for i in range(n):
        p = next(r for r in range(i, n) if M[r][i] != 0)
        M[i], M[p] = M[p], M[i]
        pv = M[i][i]
        M[i] = [x / pv for x in M[i]]
        for r in range(n):
            if r != i and M[r][i] != 0:
                f = M[r][i]
                M[r] = [x - f * y for x, y in zip(M[r], M[i])]
    return [row[n:] for row in M]


def _unimodular(rng: random.Random, n: int):
    """L U with L and U unit bidiagonal (random signs), columns permuted:
    determinant +-1.  The fixed band keeps the density, and with it the
    cost, of an instance the same for every seed."""
    L = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    U = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    for i in range(1, n):
        L[i][i - 1] = rng.choice((ONE, -ONE))
        U[i - 1][i] = rng.choice((ONE, -ONE))
    P = _mat_mul(L, U)
    perm = list(range(n))
    rng.shuffle(perm)
    return [[P[i][perm[j]] for j in range(n)] for i in range(n)]


class _Algebra:
    """Structure constants c[i][j][k] in an adapted basis, plus a Gram matrix."""

    def __init__(self, n: int):
        self.n = n
        self.c = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
        self.gram = _zeros(n)

    def set_bracket(self, i: int, j: int, k: int, value: Fraction) -> None:
        self.c[i][j][k] += value
        self.c[j][i][k] -= value

    def bracket(self, x, y):
        n = self.n
        out = [ZERO] * n
        for i, xi in enumerate(x):
            if not xi:
                continue
            for j, yj in enumerate(y):
                if yj:
                    f = xi * yj
                    for k, ck in enumerate(self.c[i][j]):
                        if ck:
                            out[k] += f * ck
        return out

    def scrambled_document(self, P, Pinv) -> dict:
        """Document in the basis whose j-th vector is column j of P."""
        n = self.n
        cols = [[P[r][a] for r in range(n)] for a in range(n)]
        brackets = []
        for a in range(n):
            for b in range(a + 1, n):
                w = _mat_vec(Pinv, self.bracket(cols[a], cols[b]))
                if any(w):
                    brackets.append({"i": a + 1, "j": b + 1, "coeffs": [str(x) for x in w]})
        gram = _mat_mul(_transpose(P), _mat_mul(self.gram, P))
        return {"dim": n, "brackets": brackets, "metric": [[str(x) for x in row] for row in gram]}


def _rotation(rng: random.Random, n: int, k: int, lorentzian: bool) -> tuple[_Algebra, dict]:
    p = (n - k) // 2
    if k < 1 or p < 1 or k + 2 * p != n:
        raise ValueError(f"rotation family needs k >= 1 and n - k = 2p >= 2, got n={n}, k={k}")
    alg = _Algebra(n)
    rates = []  # rotation rate of each plane under s_0
    for plane in range(p):
        x, y = k + 2 * plane, k + 2 * plane + 1
        lams = [_small(rng) for _ in range(k)]
        rates.append(lams[0])
        for a, lam in enumerate(lams):
            if lam:
                alg.set_bracket(a, x, y, lam)
                alg.set_bracket(a, y, x, -lam)
        w = _small(rng, positive=True)
        alg.gram[x][x] = alg.gram[y][y] = w
    for a in range(k):
        alg.gram[a][a] = _small(rng, positive=True)
    if lorentzian:
        alg.gram[0][0] = -alg.gram[0][0]
    return alg, {"killing_dim": k, "rates": rates}


def _classc(rng: random.Random, n: int, degenerate: bool) -> tuple[_Algebra, dict]:
    """Basis t, u_1 .. u_{n-1}; [t, u_j] = alpha u_j with alpha > 0.

    The restriction to U is positive definite on u_2.. and the ambient form
    is Lorentzian in both variants."""
    alg = _Algebra(n)
    alpha = _small(rng, positive=True)
    for j in range(1, n):
        alg.set_bracket(0, j, j, alpha)
    G = alg.gram
    for j in range(2, n):
        G[j][j] = _small(rng, positive=True)
        G[0][j] = G[j][0] = _small(rng)
    extra: dict = {"alpha": alpha}
    if degenerate:
        # e = u_1 is null and orthogonal to U; <t, e> = 1 keeps G nondegenerate
        G[0][0] = _small(rng)
        G[0][1] = G[1][0] = ONE
        d = [ZERO] * n
        d[0] = ONE
        d[1] = -G[0][0] / 2
        extra["d"] = d
    else:
        G[1][1] = _small(rng, positive=True)
        G[0][1] = G[1][0] = _small(rng)
        # the Schur complement of the U-block must be negative: Lorentzian
        schur = sum((G[0][j] * G[0][j] / G[j][j] for j in range(1, n)), ZERO)
        G[0][0] = schur - _small(rng, positive=True)
    return alg, extra


def _bi_invariant(rng: random.Random, n: int, lorentzian: bool) -> tuple[_Algebra, dict]:
    if n < 4:
        raise ValueError("bi-invariant family needs dim >= 4")
    alg = _Algebra(n)
    alg.set_bracket(0, 1, 2, ONE)
    alg.set_bracket(1, 2, 0, ONE)
    alg.set_bracket(2, 0, 1, ONE)
    w = _small(rng, positive=True)
    for i in range(3):
        alg.gram[i][i] = w
    for i in range(3, n):
        alg.gram[i][i] = _small(rng, positive=True)
    if lorentzian:
        alg.gram[3][3] = -alg.gram[3][3]
    return alg, {"killing_dim": n}


def _heisenberg(rng: random.Random, n: int) -> tuple[_Algebra, dict]:
    alg = _Algebra(n)
    alg.set_bracket(0, 1, 2, _small(rng))
    for i in range(n):
        alg.gram[i][i] = _small(rng, positive=True)
    return alg, {}


# family -> (minimum dim, labels shared by every instance of the family)
FAMILIES = {
    "flat_split": (3, {"flat": True, "kind": "lorentzian", "theorem1_direct": True,
                       "class_c": False, "companion": True}),
    "riemannian_flat": (3, {"flat": True, "kind": "riemannian", "class_c": False}),
    "classc_flat": (2, {"flat": True, "kind": "lorentzian", "theorem1_direct": False,
                        "class_c": True, "degenerate_restriction": True, "companion": False}),
    "classc_nonflat": (2, {"flat": False, "kind": "lorentzian", "theorem1_direct": False,
                           "class_c": True, "degenerate_restriction": False, "companion": False}),
    "nonflat_lorentzian": (4, {"flat": False, "kind": "lorentzian", "theorem1_direct": False,
                               "class_c": False, "companion": False}),
    "bi_invariant_riemannian": (4, {"flat": False, "kind": "riemannian", "class_c": False}),
    "heisenberg_riemannian": (3, {"flat": False, "kind": "riemannian", "class_c": False}),
}


def make_instance(rng: random.Random, family: str, n: int) -> dict:
    """One scrambled document with its labels.

    Returns {"family", "dim", "doc", "labels", "adapted"}; "adapted" holds
    data in scrambled coordinates that a geodesic op needs (the witness
    direction d and alpha for flat class-C instances).
    """
    min_dim, shared = FAMILIES[family]
    if n < min_dim:
        raise ValueError(f"{family} needs dim >= {min_dim}, got {n}")
    if family in ("flat_split", "riemannian_flat"):
        k = 1 if (n - 1) % 2 == 0 else 2
        alg, extra = _rotation(rng, n, k, lorentzian=family == "flat_split")
    elif family in ("classc_flat", "classc_nonflat"):
        alg, extra = _classc(rng, n, degenerate=family == "classc_flat")
    elif family in ("nonflat_lorentzian", "bi_invariant_riemannian"):
        alg, extra = _bi_invariant(rng, n, lorentzian=family == "nonflat_lorentzian")
    else:
        alg, extra = _heisenberg(rng, n)
    P = _unimodular(rng, n)
    Pinv = _inverse(P)
    labels = dict(shared)
    if "killing_dim" in extra:
        labels["killing_dim"] = extra["killing_dim"]
    adapted = {"Pinv": Pinv, "k": extra.get("killing_dim"), "rates": extra.get("rates")}
    if "d" in extra:
        adapted["d"] = _mat_vec(Pinv, extra["d"])
        adapted["alpha"] = extra["alpha"]
    return {
        "family": family,
        "dim": n,
        "doc": alg.scrambled_document(P, Pinv),
        "labels": labels,
        "adapted": adapted,
    }


def geodesic_case(rng: random.Random, inst: dict) -> dict:
    """Initial velocity, horizon and expected outcome for a geodesic op.

    Flat class-C instances are sent along f0 d, which blows up at
    1 / (alpha f0).  On a rotation algebra the velocity is s_0 plus a plane
    component, which rotates at the rates of s_0; the horizon covers
    ROTATION_TURNS turns of the fastest plane, so the work per op does not
    depend on the drawn rates.  Every other family is complete with a
    constant velocity.
    """
    n = inst["dim"]
    adapted = inst["adapted"]
    if inst["family"] == "classc_flat":
        f0 = Fraction(rng.randint(1, 4), rng.randint(1, 2))
        v0 = [f0 * x for x in adapted["d"]]
        blowup = 1 / (adapted["alpha"] * f0)
        t_max = float(2 * blowup)
        expect = {"outcome": "blow_up_detected", "blowup_time": float(blowup)}
    else:
        v = [Fraction(rng.randint(-2, 2)) for _ in range(n)]
        if adapted["rates"] is not None:
            k = adapted["k"]
            v[:k] = [ONE] + [ZERO] * (k - 1)
            v[k] = Fraction(rng.randint(1, 2))
            t_max = ROTATION_TURNS * 2 * math.pi / float(max(abs(r) for r in adapted["rates"]))
        else:
            v[0] = Fraction(rng.randint(1, 2))
            t_max = 10.0
        v0 = _mat_vec(adapted["Pinv"], v)
        expect = {"outcome": "reached_horizon"}
    G = [[Fraction(x) for x in row] for row in inst["doc"]["metric"]]
    e0 = sum((v0[i] * G[i][j] * v0[j] for i in range(n) for j in range(n)), ZERO)
    expect["energy0"] = float(e0)
    return {"v0": ",".join(str(x) for x in v0), "t_max": t_max, "expect": expect}
