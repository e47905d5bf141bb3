"""Differential tests of the integer exact kernel against Fraction oracles.

`linalg.rref`, `metric.levi_civita`, `metric.is_flat`,
`theorems.verify_eq2` and `LieAlgebra.is_abelian_subspace` work in Python
ints.  Here each is compared with a plain Fraction computation on seeded
instances of dims 2-9, flat and non-flat, with Gram matrices and structure
constants that have non-unit denominators.
"""

import random
from fractions import Fraction as F

import pytest

from flatlie import linalg, sweeps
from flatlie.errors import InvalidSplitError
from flatlie.linalg import Subspace
from flatlie.metric import MetricLieAlgebra, curvature, is_flat, killing_subalgebra, levi_civita
from flatlie.theorems import SplitData, verify_eq2

DIMS = range(2, 10)


def rref_oracle(A):
    """Fraction Gauss-Jordan: normalize each pivot row, clear its column."""
    rows = [[F(x) for x in r] for r in A]
    if not rows:
        return [], []
    pivots = []
    r = 0
    for c in range(len(rows[0])):
        pr = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def levi_civita_oracle(m):
    """2 <e_i e_j, e_k> = <[e_i,e_j],e_k> - <[e_j,e_k],e_i> + <[e_k,e_i],e_j>,
    solved with the oracle inverse of G, all in Fractions."""
    n, G, c = m.dim, m.gram, m.algebra.c
    R, _ = rref_oracle([list(row) + [F(int(i == j)) for j in range(n)] for i, row in enumerate(G)])
    Ginv = [row[n:] for row in R]

    low = [[[sum((G[k][l] * c[i][j][l] for l in range(n)), F(0)) for k in range(n)] for j in range(n)] for i in range(n)]
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            rhs = [(low[i][j][l] - low[j][l][i] + low[l][i][j]) / 2 for l in range(n)]
            out[i][j] = [sum((Ginv[k][l] * rhs[l] for l in range(n)), F(0)) for k in range(n)]
    return out


def left_mult_oracle(T, u):
    """Matrix of v -> T(u, v): entry (k, j) is the e_k coefficient of T(u, e_j)."""
    n = len(T)
    return [[sum((u[i] * T[i][j][k] for i in range(n)), F(0)) for j in range(n)] for k in range(n)]


def bracket_oracle(c, x, y):
    n = len(c)
    return [sum((x[i] * y[j] * c[i][j][k] for i in range(n) for j in range(n)), F(0)) for k in range(n)]


def eq2_oracle(m, S, D):
    """L_s = ad_s on the Killing basis and L_h = 0 on the derived basis,
    with the product from the Fraction Koszul oracle."""
    p, c = levi_civita_oracle(m), m.algebra.c
    return all(left_mult_oracle(p, s) == left_mult_oracle(c, s) for s in S.basis) and all(
        x == 0 for h in D.basis for row in left_mult_oracle(p, h) for x in row
    )


def rational_basis(rng, n):
    """An invertible matrix with non-unit denominators."""
    while True:
        P = [[F(rng.randint(-3, 3), rng.choice((1, 2, 3, 5))) for _ in range(n)] for _ in range(n)]
        if len(rref_oracle(P)[1]) == n:
            return P


def instances():
    """(label, metric) pairs: flat and non-flat for every dim in DIMS, two
    of them also with the Gram matrix scaled and moved to a rational basis."""
    out = []
    for n in DIMS:
        rng = random.Random(1000 + n)
        flat = sweeps.theorem1_true_instance(rng, n)
        # flat class C: both curvature terms are nonzero, unlike the split case
        flat_c = sweeps.class_c_instance(rng, n, degenerate=True)
        nonflat = sweeps.class_c_instance(rng, n, degenerate=False)
        other = sweeps.random_metric_algebra(rng, n)
        for label, m in (("flat", flat), ("flatc", flat_c), ("nonflat", nonflat), ("random", other)):
            out.append((f"{label}{n}", m))
        out.append((f"flatc{n}-rational", flat_c.scale_gram(F(2, 9)).change_basis(rational_basis(rng, n))))
        out.append((f"nonflat{n}-rational", nonflat.scale_gram(F(-5, 2)).change_basis(rational_basis(rng, n))))
    return out


def eq2_fails():
    """so(3) + R^(n-3) with distinct weights on so(3), moved to a rational
    basis: the Killing subalgebra is the abelian factor, an orthogonal
    complement of [g, g] = so(3), and the metric is not flat, so eq. (2)
    fails on a valid split."""
    out = []
    for n in range(4, 8):
        rng = random.Random(2000 + n)
        weights = [F(1), F(2), F(3)] + [F(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 4)) for _ in range(n - 3)]
        gram = [[w if i == j else F(0) for j, w in enumerate(weights)] for i in range(n)]
        m = MetricLieAlgebra.make(sweeps.simple3(n), gram)
        out.append((f"so3sum{n}-rational", m.change_basis(rational_basis(rng, n))))
    return out


INSTANCES = instances()
IDS = [label for label, _ in INSTANCES]
EQ2_FAILS = eq2_fails()


def test_population_has_both_verdicts_and_fractional_data():
    verdicts = {is_flat(m).flat for _, m in INSTANCES}
    assert verdicts == {True, False}
    assert any(x.denominator > 1 for _, m in INSTANCES for row in m.gram for x in row)
    assert any(x.denominator > 1 for _, m in INSTANCES for plane in m.algebra.c for row in plane for x in row)


def matrices(rng, m):
    """Matrices the kernel eliminates on, plus random rank-deficient ones."""
    n = m.dim
    G = m.gram_rows()
    yield [row + [F(int(i == j)) for j in range(n)] for i, row in enumerate(G)]
    yield [[m.algebra.c[i][j][k] for i in range(n)] for j in range(n) for k in range(n)]
    yield [list(row) for plane in levi_civita(m).p for row in plane]
    rows, cols = rng.randint(1, n + 2), rng.randint(1, n + 2)
    A = [[F(rng.randint(-4, 4), rng.choice((1, 2, 3, 7))) for _ in range(cols)] for _ in range(rows)]
    yield A
    yield A + [[2 * x - y for x, y in zip(A[0], A[-1])], [F(0)] * cols]


@pytest.mark.parametrize("label,m", INSTANCES, ids=IDS)
def test_rref_matches_fraction_gauss_jordan(label, m):
    rng = random.Random(label)
    for A in matrices(rng, m):
        assert linalg.rref(A) == rref_oracle(A)


@pytest.mark.parametrize("label,m", INSTANCES, ids=IDS)
def test_rref_matches_sympy_domain_matrix(label, m):
    pytest.importorskip("sympy")
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix

    rng = random.Random(label)
    for A in matrices(rng, m):
        dm = DomainMatrix([[QQ(x.numerator, x.denominator) for x in row] for row in A], (len(A), len(A[0])), QQ)
        R, pivots = dm.rref()
        expected = [[F(int(x.numerator), int(x.denominator)) for x in row] for row in R.to_list()]
        assert linalg.rref(A) == (expected, list(pivots))


def test_rref_exact_on_huge_entries():
    rng = random.Random(7)
    for n in DIMS:
        A = [[F(rng.randint(-10**40, 10**40), rng.randint(1, 10**30)) for _ in range(n + 1)] for _ in range(n)]
        A.append([x + y for x, y in zip(A[0], A[1])])
        assert linalg.rref(A) == rref_oracle(A)


@pytest.mark.parametrize("label,m", INSTANCES, ids=IDS)
def test_levi_civita_matches_fraction_koszul(label, m):
    p = levi_civita(m).p
    assert [[list(row) for row in plane] for plane in p] == levi_civita_oracle(m)
    assert all(isinstance(x, F) for plane in p for row in plane for x in row)


@pytest.mark.parametrize("label,m", INSTANCES, ids=IDS)
def test_is_flat_verdict_and_witness_match_curvature_on_every_pair(label, m):
    n = m.dim
    p = levi_civita(m)
    basis = linalg.identity(n)
    nonzero = [
        (i, j, tuple(tuple(r) for r in K))
        for i in range(n)
        for j in range(i + 1, n)
        for K in [curvature(m.algebra, p, basis[i], basis[j])]
        if not linalg.is_zero_mat(K)
    ]
    verdict = is_flat(m)
    assert verdict.flat == (not nonzero)
    assert verdict.witness == (nonzero[0] if nonzero else None)


def _split(m):
    S, D = killing_subalgebra(m), m.algebra.derived_subalgebra()
    return SplitData(S, D, tuple(tuple(m.inner(list(s), list(d)) for d in D.basis) for s in S.basis))


def _is_valid_split(split):
    return split.killing.dim + split.derived.dim == split.killing.ambient_dim and not any(
        x for row in split.cross_gram for x in row
    )


@pytest.mark.parametrize("label,m", INSTANCES + EQ2_FAILS, ids=IDS + [label for label, _ in EQ2_FAILS])
def test_verify_eq2_matches_fraction_left_multiplication(label, m):
    split = _split(m)
    if _is_valid_split(split):
        assert verify_eq2(m, split) == eq2_oracle(m, split.killing, split.derived)
    else:
        with pytest.raises(InvalidSplitError):
            verify_eq2(m, split)


def test_verify_eq2_population_reaches_both_outcomes():
    outcomes = [verify_eq2(m, split) for _, m in INSTANCES + EQ2_FAILS for split in [_split(m)] if _is_valid_split(split)]
    assert outcomes.count(True) >= 5 and outcomes.count(False) == len(EQ2_FAILS)
    assert all(not is_flat(m).flat for _, m in EQ2_FAILS)


def subspaces(rng, a):
    """The derived algebra, the center, spans of random elements of the
    derived algebra and of the whole algebra, with rational coefficients."""
    n = a.dim
    D = a.derived_subalgebra()
    yield D
    yield a.center()
    for source in (D.basis, linalg.identity(n)):
        if source:
            k = rng.randint(1, 3)
            yield Subspace.span(n, [
                [sum((F(rng.randint(-3, 3), rng.choice((1, 2, 3))) * row[j] for row in source), F(0)) for j in range(n)]
                for _ in range(k)
            ])


def abelian_oracle(a, V):
    rows = V.basis
    return all(not any(bracket_oracle(a.c, x, y)) for x in rows for y in rows)


@pytest.mark.parametrize("label,m", INSTANCES, ids=IDS)
def test_is_abelian_subspace_matches_fraction_brackets(label, m):
    rng = random.Random(label)
    a = m.algebra
    for V in list(subspaces(rng, a)) + [killing_subalgebra(m)]:
        assert a.is_abelian_subspace(V) == abelian_oracle(a, V)


def test_is_abelian_subspace_population_reaches_both_outcomes():
    outcomes = [
        m.algebra.is_abelian_subspace(V)
        for label, m in INSTANCES
        for V in subspaces(random.Random(label), m.algebra)
        if V.dim >= 2
    ]
    assert outcomes.count(True) >= 10 and outcomes.count(False) >= 10
