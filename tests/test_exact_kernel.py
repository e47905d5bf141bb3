"""Differential tests of the integer exact kernel against Fraction oracles.

`linalg.rref`, `linalg.kernel`, `linalg.integer_inverse`, `linalg.congruence`,
`linalg.transport`, `metric.levi_civita`, `metric.is_flat`,
`theorems.verify_eq2`, `theorems.same_connection`, `classc.scalar_action`,
`LieAlgebra.is_abelian_subspace` and the sweeps' connection check work in
Python ints.  Here each is compared with a plain Fraction computation (or,
for `same_connection`, with equality of the two solved products) on
seeded instances of dims 1-9, flat and non-flat, with Gram matrices and
structure constants that have non-unit denominators.
"""

import math
import random
from fractions import Fraction as F

import pytest

from flatlie import linalg, metric, sweeps
from flatlie.classc import scalar_action
from flatlie.errors import DegenerateFormError, InvalidSplitError
from flatlie.lie import LieAlgebra
from flatlie.linalg import Subspace
from flatlie.metric import MetricLieAlgebra, curvature, is_flat, killing_subalgebra, levi_civita
from flatlie.theorems import SplitData, riemannian_companion, same_connection, verify_eq2

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


def hyperbolic_last(rng, n):
    """[e_j, e_{n-1}] = -e_j for j < n - 1 (class C, t last) under a
    positive diagonal metric, moved to a rational basis whose first n - 1
    columns stay in the abelian ideal: the restriction to the ideal is
    nondegenerate, so the metric is not flat, yet C_01 = 0."""
    brackets = {(j, n - 1): [F(-int(k == j)) for k in range(n)] for j in range(n - 1)}
    weights = [F(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(n)]
    gram = [[w if i == j else F(0) for j, w in enumerate(weights)] for i in range(n)]
    m = MetricLieAlgebra.make(LieAlgebra.from_brackets(n, brackets), gram)
    while True:
        P = rational_basis(rng, n)
        P[n - 1][: n - 1] = [F(0)] * (n - 1)
        if len(rref_oracle(P)[1]) == n:
            return m.change_basis(P)


def high_nonflat():
    """Non-flat instances of dims 10-12, where a wrong entry of K has more
    room to hide: class C, random shapes, the C_ij = 0 witness case and a
    witness behind all but three of the pairs."""
    out = []
    for n in (10, 11, 12):
        rng = random.Random(3000 + n)
        out.append((f"nonflat{n}", sweeps.class_c_instance(rng, n, degenerate=False)))
        out.append((f"hyperbolic{n}-rational", hyperbolic_last(rng, n)))
        # so(3) in the last three coordinates: every earlier pair is flat
        gram = [[F(i + 1, 2) if i == j else F(0) for j in range(n)] for i in range(n)]
        shift = [[int(i == (j + 3) % n) for j in range(n)] for i in range(n)]  # column j is e_{j+3 mod n}
        out.append((f"so3last{n}", MetricLieAlgebra.make(sweeps.simple3(n), gram).change_basis(shift)))
    rng = random.Random(3100)
    while len(out) < 11:
        m = sweeps.random_metric_algebra(rng, 10 + len(out) % 3)
        if not is_flat(m).flat:
            out.append((f"random{m.dim}", m))
    return out


def six_digit(rng):
    """A rational with a 6-digit numerator over a 6-digit denominator."""
    return F(rng.choice((-1, 1)) * rng.randint(100000, 999999), rng.randint(100000, 999999))


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
        if len(rref_oracle(P)[1]) == n:
            return P


def late_witness(rng, n):
    """R^(n-3) + (R x_M R^2), M of 6-digit rationals, under a metric with 6-digit
    entries that makes the two ideals orthogonal, moved by a basis of each.
    Every pair that meets the abelian ideal is flat, so the witness is the
    first pair of the last three coordinates, (n - 3, n - 2)."""
    t, u, v = n - 3, n - 2, n - 1
    M = [[six_digit(rng) for _ in range(2)] for _ in range(2)]
    brackets = {(t, u): [F(0)] * n, (t, v): [F(0)] * n}
    brackets[(t, u)][u], brackets[(t, u)][v] = M[0][0], M[1][0]
    brackets[(t, v)][u], brackets[(t, v)][v] = M[0][1], M[1][1]
    blocks = [range(0, t), range(t, n)]
    gram = [[F(0)] * n for _ in range(n)]
    for block in blocks:
        for i in block:
            for j in block:
                if i < j:
                    gram[i][j] = gram[j][i] = six_digit(rng) / 10
            gram[i][i] = abs(six_digit(rng)) * 10  # diagonally dominant: nondegenerate
    gram[t][t] = -gram[t][t]
    m = MetricLieAlgebra.make(LieAlgebra.from_brackets(n, brackets), gram)
    return m.change_basis(six_digit_basis(rng, n, blocks))


def big_entry():
    """Dims 3-8 with 6-digit data: flat instances scaled by a 6-digit rational
    and moved to a basis with 6-digit denominators, non-flat class C moved the
    same way, and late_witness.  Their slot widths run from a few hundred
    bits to several thousand, on both sides of linalg.MAX_PACKED_WIDTH."""
    out = []
    for n in range(3, 9):
        rng = random.Random(4000 + n)
        everything = [range(n)]
        flat = (sweeps.class_c_instance(rng, n, degenerate=True) if n % 2 else sweeps.theorem1_true_instance(rng, n))
        nonflat = sweeps.class_c_instance(rng, n, degenerate=False)
        out.append((f"bigflat{n}", flat.scale_gram(six_digit(rng)).change_basis(six_digit_basis(rng, n, everything))))
        out.append((f"bignonflat{n}", nonflat.scale_gram(six_digit(rng)).change_basis(six_digit_basis(rng, n, everything))))
        if n >= 4:
            out.append((f"latewitness{n}", late_witness(rng, n)))
    return out


def anisotropic():
    """Generated algebras of dims 3-6 under diagonal metrics with weights
    among 1, 999999 and 1/999999: the product constants dwarf the structure
    constants, so the commutator term 2 E a of the width bound outweighs
    D c, and a width that left it out would let the witness rows overflow."""
    out = []
    for s in range(40):
        rng = random.Random(5000 + s)
        n = rng.randint(3, 6)
        weights = [F(rng.choice((1, 999999)), rng.choice((1, 999999))) for _ in range(n)]
        gram = [[w if i == j else F(0) for j in range(n)] for i, w in enumerate(weights)]
        out.append((f"anisotropic{s}", MetricLieAlgebra.make(sweeps.random_algebra(rng, n), gram)))
    return out


def slot_width(m):
    """The slot width is_flat packs at, from its bound n a (D c + 2 E a)."""
    P, D = metric.integer_product(m)
    C, E = m.algebra.integer_constants()
    g = math.gcd(D, E)
    a, c = linalg.max_abs(P), linalg.max_abs(C)
    return linalg.slot_width(m.dim * a * (D // g * c + 2 * E // g * a))


INSTANCES = instances()
IDS = [label for label, _ in INSTANCES]
EQ2_FAILS = eq2_fails()
HIGH_NONFLAT = high_nonflat()
BIG_ENTRY = big_entry()
ANISOTROPIC = anisotropic()


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


def kernel_oracle(A):
    """Fraction Gauss-Jordan null space: for each free column f of
    `rref_oracle`'s form, 1 at f and -R[r][f] at each pivot p_r.  Those
    vectors are not in canonical form (the pivots before f are filled), so
    the canonical basis is the oracle's reduced form of them."""
    n = len(A[0])
    R, pivots = rref_oracle(A)
    vectors = []
    for f in range(n):
        if f not in pivots:
            v = [F(0)] * n
            v[f] = F(1)
            for r, p in enumerate(pivots):
                v[p] = -R[r][f]
            vectors.append(v)
    return tuple(map(tuple, rref_oracle(vectors)[0]))


def assert_kernel_matches_oracle(A):
    K = linalg.kernel(A)
    assert K.ambient_dim == len(A[0]) and K.basis == kernel_oracle(A)
    assert all(type(x) is F for row in K.basis for x in row)
    assert linalg.rank(A) == len(rref_oracle(A)[1]) == len(A[0]) - K.dim


@pytest.mark.parametrize("label,m", INSTANCES, ids=IDS)
def test_kernel_matches_fraction_null_space(label, m):
    """The one-pass kernel on the Killing constraint rows and on the
    matrices of the rref tests."""
    n = m.dim
    low, _ = metric.lowered_constants(m)
    assert_kernel_matches_oracle([[low[a][j][i] + low[a][i][j] for a in range(n)] for i in range(n) for j in range(i, n)])
    for A in matrices(random.Random(label), m):
        assert_kernel_matches_oracle(A)


def test_kernel_matches_fraction_null_space_on_every_shape():
    """Zero matrices, zero columns, wide and tall shapes, full rank and
    rank-deficient matrices, with small entries on every shape up to 7 x 7
    and with entries of 1,000 bits and more on a few."""
    rng = random.Random(11)
    small = lambda: F(rng.randint(-4, 4), rng.choice((1, 2, 3, 7)))  # noqa: E731
    big = lambda: F(rng.choice((-1, 1)) * rng.getrandbits(1100), rng.getrandbits(1000) | 1)  # noqa: E731
    cases = [(r, c, small) for r in range(1, 8) for c in range(1, 8)]
    cases += [(r, c, big) for r, c in ((1, 3), (3, 1), (2, 5), (5, 2), (4, 4), (3, 6), (6, 3))]
    full = 0
    for r, c, entry in cases:
        assert_kernel_matches_oracle([[0] * c for _ in range(r)])
        A = [[entry() for _ in range(c)] for _ in range(r)]
        full += len(rref_oracle(A)[1]) == min(r, c)
        assert_kernel_matches_oracle(A)
        zeroed = set(rng.sample(range(c), rng.randint(1, c)))
        assert_kernel_matches_oracle([[F(0) if j in zeroed else x for j, x in enumerate(row)] for row in A])
        k = rng.randint(1, max(1, min(r, c) - 1))  # rank at most k
        mix = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(r)]
        assert_kernel_matches_oracle([[sum((f * A[l][j] for l, f in enumerate(row)), F(0)) for j in range(c)] for row in mix])
    assert full >= 45


@pytest.mark.parametrize("label,m", INSTANCES, ids=IDS)
def test_levi_civita_matches_fraction_koszul(label, m):
    p = levi_civita(m).p
    assert [[list(row) for row in plane] for plane in p] == levi_civita_oracle(m)
    assert all(isinstance(x, F) for plane in p for row in plane for x in row)


@pytest.mark.parametrize(
    "label,m",
    INSTANCES + HIGH_NONFLAT + BIG_ENTRY + ANISOTROPIC,
    ids=IDS + [label for label, _ in HIGH_NONFLAT + BIG_ENTRY + ANISOTROPIC],
)
def test_is_flat_verdict_and_witness_match_curvature_on_every_pair(label, m):
    """The Fraction curvature on each basis pair in order, up to the first
    nonzero one, against is_flat's verdict and witness."""
    n = m.dim
    p = levi_civita(m)
    basis = linalg.identity(n)
    nonzero = (
        (i, j, tuple(tuple(r) for r in K))
        for i in range(n)
        for j in range(i + 1, n)
        for K in [curvature(m.algebra, p, basis[i], basis[j])]
        if not linalg.is_zero_mat(K)
    )
    first = next(nonzero, None)
    verdict = is_flat(m)
    assert verdict.flat == (first is None)
    assert verdict.witness == first


def test_high_nonflat_population_reaches_its_witness_cases():
    """Each dims-10-12 instance is non-flat; on the hyperbolic ones the
    witness pair has C_ij = 0, so K is the commutator term alone, and on
    the so3last ones the witness is the first pair inside so(3)."""
    for label, m in HIGH_NONFLAT:
        i, j, _ = is_flat(m).witness
        if label.startswith("hyperbolic"):
            assert linalg.is_zero_vec(m.algebra.c[i][j])
        if label.startswith("so3last"):
            assert (i, j) == (m.dim - 3, m.dim - 2)


def test_big_entry_population_reaches_both_packings_and_late_witnesses():
    """The 6-digit instances are decided with whole rows packed at slots of
    more than 500 bits and one slot per int beyond MAX_PACKED_WIDTH; both
    verdicts occur, and each late_witness instance has its witness at
    (n - 3, n - 2), not at the first pair."""
    widths = [slot_width(m) for _, m in BIG_ENTRY]
    assert any(500 < w <= linalg.MAX_PACKED_WIDTH for w in widths)
    assert sum(w > linalg.MAX_PACKED_WIDTH for w in widths) >= 5 and max(widths) > 2000
    assert {is_flat(m).flat for _, m in BIG_ENTRY} == {True, False}
    for label, m in BIG_ENTRY:
        if label.startswith("latewitness"):
            assert is_flat(m).witness[:2] == (m.dim - 3, m.dim - 2)


def test_anisotropic_population_has_the_commutator_term_dominate_the_width():
    dominated = 0
    for _, m in ANISOTROPIC:
        P, D = metric.integer_product(m)
        C, E = m.algebra.integer_constants()
        g = math.gcd(D, E)
        dominated += 2 * (E // g) * linalg.max_abs(P) > (D // g) * linalg.max_abs(C) > 0
    assert dominated >= 10
    assert {is_flat(m).flat for _, m in ANISOTROPIC} == {True, False}


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


def center(a):
    """{x : [x, y] = 0 for all y}, as an exact kernel."""
    n = a.dim
    return linalg.kernel([[a.c[i][j][k] for i in range(n)] for j in range(n) for k in range(n)])


def subspaces(rng, a):
    """The derived algebra, the center, spans of random elements of the
    derived algebra and of the whole algebra, with rational coefficients."""
    n = a.dim
    D = a.derived_subalgebra()
    yield D
    yield center(a)
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


def congruence_oracle(S):
    """Fraction congruence diagonalization: (E, d) with E S E^T = diag(d).
    Symmetric pivoting; when the remaining diagonal vanishes, e_r += e_c
    for the first nonzero off-diagonal entry makes a nonzero pivot."""
    n = len(S)
    A = [[F(x) for x in row] for row in S]
    E = [[F(int(i == j)) for j in range(n)] for i in range(n)]

    def add_row_col(dst, src, f):
        A[dst] = [x + f * y for x, y in zip(A[dst], A[src])]
        for r in range(n):
            A[r][dst] += f * A[r][src]
        E[dst] = [x + f * y for x, y in zip(E[dst], E[src])]

    def swap(i, j):
        A[i], A[j] = A[j], A[i]
        for r in range(n):
            A[r][i], A[r][j] = A[r][j], A[r][i]
        E[i], E[j] = E[j], E[i]

    for i in range(n):
        if A[i][i] == 0:
            j = next((j for j in range(i + 1, n) if A[j][j] != 0), None)
            if j is not None:
                swap(i, j)
            else:
                found = next(((r, c) for r in range(i, n) for c in range(r + 1, n) if A[r][c] != 0), None)
                if found is None:
                    break
                r, c = found
                add_row_col(r, c, F(1))
                if r != i:
                    swap(i, r)
        piv = A[i][i]
        for r in range(i + 1, n):
            if A[r][i] != 0:
                add_row_col(r, i, -A[r][i] / piv)
    return E, [A[i][i] for i in range(n)]


def symmetric_matrices():
    """Seeded symmetric matrices of dims 1-8: dense with distinct
    denominators, degenerate (B^T diag(d) B over k <= n rows), all-zero
    diagonal (the row-add branch) and a pivot block beside a zero-diagonal
    block (row adds after pivot steps, on rows of different scales)."""
    for seed in range(1000):
        rng = random.Random(seed)
        n, kind = 1 + seed % 8, seed // 8 % 4
        S = [[F(0)] * n for _ in range(n)]
        if kind == 0:
            for i in range(n):
                for j in range(i, n):
                    S[i][j] = S[j][i] = F(rng.randint(-9, 9), rng.randint(1, 60))
        elif kind == 1:
            k = rng.randint(1, n)
            B = [[F(rng.randint(-3, 3), rng.choice((1, 2, 3, 5))) for _ in range(n)] for _ in range(k)]
            d = [F(rng.randint(-2, 2), rng.randint(1, 4)) for _ in range(k)]
            S = [[sum((B[l][i] * d[l] * B[l][j] for l in range(k)), F(0)) for j in range(n)] for i in range(n)]
        else:
            # z pivots first; with no coupling the rest keeps a zero diagonal
            z = 0 if kind == 2 else rng.randint(1, max(1, n - 1))
            coupling = 0.3 if seed % 2 else 0.0
            for i in range(n):
                if i < z:
                    S[i][i] = F(rng.choice((-3, -1, 1, 2)), rng.randint(1, 7))
                for j in range(i + 1, n):
                    if rng.random() < 0.6 and (i >= z or j < z or rng.random() < coupling):
                        S[i][j] = S[j][i] = F(rng.randint(-5, 5), rng.randint(1, 12))
        yield S


def test_congruence_matches_fraction_congruence():
    """E S E^T = diag(d) in ints, every row of E a nonzero multiple of the
    oracle's row and every d[i] of the oracle's sign: the timelike vector
    that `metric.timelike_vector` builds from a row is the oracle's up to
    scale, and the companion's reflection in it does not see the scale."""
    sign = lambda x: (x > 0) - (x < 0)  # noqa: E731
    counts = {"row_add": 0, "degenerate": 0}
    for S in symmetric_matrices():
        n = len(S)
        E, d = linalg.congruence(S)
        O, od = congruence_oracle(S)
        ES = [[sum((e * S[k][j] for k, e in enumerate(row) if e), F(0)) for j in range(n)] for row in E]
        ESEt = [[sum((x * y for x, y in zip(row, col)), F(0)) for col in E] for row in ES]
        assert ESEt == [[d[i] if i == j else 0 for j in range(n)] for i in range(n)]
        for row, orow in zip(E, O):
            k = next(k for k, x in enumerate(orow) if x)
            assert row[k] != 0 and all(x * orow[k] == y * row[k] for x, y in zip(row, orow))
        assert [sign(x) for x in d] == [sign(x) for x in od]
        assert tuple(linalg.signature(S)) == (
            sum(x > 0 for x in od), sum(x < 0 for x in od), sum(x == 0 for x in od)
        )
        assert all(type(x) is int for row in E for x in row) and all(type(x) is int for x in d)
        counts["row_add"] += n > 1 and all(S[i][i] == 0 for i in range(n)) and any(map(any, S))
        counts["degenerate"] += any(x == 0 for x in od)
    assert counts["row_add"] >= 100 and counts["degenerate"] >= 100


def transport_oracle(T, P):
    """P^-1 T(P_a, P_b), in Fractions."""
    n = len(P)
    R, _ = rref_oracle([[F(x) for x in row] + [F(int(i == j)) for j in range(n)] for i, row in enumerate(P)])
    Pinv = [row[n:] for row in R]
    P = [[F(x) for x in row] for row in P]
    out = []
    for a in range(n):
        # T(P_a, e_j), then T(P_a, P_b) = sum_j P[j][b] T(P_a, e_j)
        Ta = [[sum((P[i][a] * T[i][j][k] for i in range(n)), F(0)) for k in range(n)] for j in range(n)]
        Tab = [[sum((P[j][b] * Ta[j][k] for j in range(n)), F(0)) for k in range(n)] for b in range(n)]
        out.append(tuple(tuple(sum((Pinv[k][l] * v[l] for l in range(n)), F(0)) for k in range(n)) for v in Tab))
    return tuple(out)


@pytest.mark.parametrize("n", range(1, 7))
def test_transport_matches_fraction_change_of_basis(n):
    rng = random.Random(300 + n)
    for _ in range(4):
        T_int = tuple(tuple(tuple(rng.randint(-6, 6) for _ in range(n)) for _ in range(n)) for _ in range(n))
        T_frac = tuple(tuple(tuple(F(x, rng.randint(1, 9)) for x in row) for row in plane) for plane in T_int)
        for P in (sweeps.unimodular_int_matrix(rng, n), rational_basis(rng, n)):
            for T in (T_int, T_frac):
                moved = linalg.transport(T, P)
                assert moved == transport_oracle(T, P)
                assert all(isinstance(x, F) for plane in moved for row in plane for x in row)
            t = rng.randint(2, 30)
            scaled = tuple(tuple(tuple(F(x, t) for x in row) for row in plane) for plane in T_int)
            assert linalg.transport(T_int, P, t) == transport_oracle(scaled, P)


def _axioms_instance():
    """R acting on R^2 with rational rates, and a diagonal Gram matrix with
    non-unit denominators: each product entry P[i][j][k] enters the
    defining identity at (i, j, k) only."""
    a = LieAlgebra.from_brackets(3, {(0, 1): [0, 0, F(1, 2)], (0, 2): [0, F(-3, 2), 0]})
    return metric.MetricLieAlgebra.make(a, [[F(-1, 3), 0, 0], [0, 2, 0], [0, 0, F(5, 7)]])


def _perturbed_failures(monkeypatch, entry):
    product = metric.integer_product

    def perturbed(m):
        P, D = product(m)
        P = [[list(row) for row in plane] for plane in P]
        i, j, k = entry
        P[i][j][k] += 1
        return tuple(tuple(map(tuple, plane)) for plane in P), D

    with monkeypatch.context() as patch:
        patch.setattr(metric, "integer_product", perturbed)
        return sweeps._connection_failures(_axioms_instance(), "t")


def test_connection_check_reports_a_perturbed_product_entry(monkeypatch):
    assert sweeps._connection_failures(_axioms_instance(), "t") == []
    failures = _perturbed_failures(monkeypatch, (0, 1, 2))
    assert [f for f in failures if "defining identity" in f] == ["t: defining identity fails at (0, 1, 2)"]
    assert "t: torsion-freeness fails at (0, 1)" in failures
    failures = _perturbed_failures(monkeypatch, (1, 2, 0))
    assert [f for f in failures if "defining identity" in f] == ["t: defining identity fails at (1, 2, 0)"]
    assert "t: L - R != ad for basis vector 1" in failures
    # a diagonal entry keeps L - R = ad but breaks the defining identity
    failures = _perturbed_failures(monkeypatch, (2, 2, 1))
    assert failures and not any("torsion" in f or "L - R" in f for f in failures)
    assert "t: defining identity fails at (2, 2, 1)" in failures


def test_transport_beyond_the_packed_width(monkeypatch):
    """6-digit rationals in P and T give slots wider than
    linalg.MAX_PACKED_WIDTH, so transport keeps one int per slot; small
    data packs whole columns.  Both agree with the oracle."""
    widths = []
    pack_row = linalg.pack_row

    def spied(row, w):
        widths.append(w)
        return pack_row(row, w)

    monkeypatch.setattr(linalg, "pack_row", spied)
    for n in (4, 5):
        rng = random.Random(310 + n)
        T = tuple(tuple(tuple(six_digit(rng) for _ in range(n)) for _ in range(n)) for _ in range(n))
        P = [[six_digit(rng) for _ in range(n)] for _ in range(n)]
        widths.clear()
        assert linalg.transport(T, P) == transport_oracle(T, P)
        assert min(widths) > linalg.MAX_PACKED_WIDTH
        T_int = tuple(tuple(tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(n)) for _ in range(n))
        P_small = rational_basis(rng, n)
        widths.clear()
        assert linalg.transport(T_int, P_small) == transport_oracle(T_int, P_small)
        assert max(widths) <= linalg.MAX_PACKED_WIDTH


def test_integer_inverse_is_the_least_denominator_view():
    rng = random.Random(320)
    for n in range(1, 7):
        for P in (rational_basis(rng, n), six_digit_basis(rng, n, [range(n)]), sweeps.unimodular_int_matrix(rng, n)):
            Qi, q = linalg.integer_inverse(P)
            R, _ = rref_oracle([[F(x) for x in row] + [F(int(i == j)) for j in range(n)] for i, row in enumerate(P)])
            assert [[F(x, q) for x in row] for row in Qi] == [row[n:] for row in R]
            assert q > 0 and math.gcd(q, *(x for row in Qi for x in row)) == 1


def dense_document(rng, n):
    """[e_1, e_j] dense in e_2..e_n and a dense metric, every entry a 6-digit
    rational over its own 6-digit denominator: the input caps' worst case."""
    brackets = {(0, j): [F(0)] + [six_digit(rng) for _ in range(n - 1)] for j in range(1, n)}
    gram = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        gram[i][i] = F(rng.randint(500000, 999999), rng.randint(100, 999))
        for j in range(i + 1, n):
            gram[i][j] = gram[j][i] = six_digit(rng)
    gram[0][0] = -gram[0][0]
    return MetricLieAlgebra.make(LieAlgebra.from_brackets(n, brackets), gram)


def test_integer_product_matches_a_sympy_koszul_solve_on_a_dense_document():
    """The product solved independently: the Koszul formula over
    sympy.Rational with the Gram inverse from sympy.Matrix.inv."""
    sympy = pytest.importorskip("sympy")
    m = dense_document(random.Random(9), 9)
    n = m.dim
    G = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in m.gram])
    Ginv = G.inv()
    c = [[[sympy.Rational(x.numerator, x.denominator) for x in row] for row in plane] for plane in m.algebra.c]
    low = [[[sum(G[k, l] * c[i][j][l] for l in range(n)) for k in range(n)] for j in range(n)] for i in range(n)]
    P, D = metric.integer_product(m)
    for i in range(n):
        for j in range(n):
            rhs = [(low[i][j][l] - low[j][l][i] + low[l][i][j]) / 2 for l in range(n)]
            expected = [sum(Ginv[k, l] * rhs[l] for l in range(n)) for k in range(n)]
            assert [sympy.Rational(x, D) for x in P[i][j]] == expected, (i, j)
    assert D > 0 and math.gcd(D, *(x for plane in P for row in plane for x in row)) == 1


def same_connection_oracle(m1, m2):
    """Both products solved on their own and compared: (P, D) is canonical
    (least D), so equal views mean equal products."""
    return metric.integer_product(m1) == metric.integer_product(m2)


def _perturbed(m, rng):
    """m's Gram matrix with one entry (and its mirror) moved, when the
    result is still nondegenerate."""
    n = m.dim
    i, j = rng.randrange(n), rng.randrange(n)
    gram = [list(row) for row in m.gram]
    gram[i][j] += F(rng.choice((-1, 1)) * rng.randint(1, 4), rng.randint(1, 3))
    gram[j][i] = gram[i][j]
    try:
        return MetricLieAlgebra.make(m.algebra, gram)
    except DegenerateFormError:
        return None


def connection_pairs():
    """(m1, m2) pairs on one algebra: flat split metrics with their
    Riemannian companions and perturbed companions, and sweep instances
    with a rescaled, a perturbed and an unrelated Gram matrix."""
    pairs = []
    for n in range(3, 8):
        rng = random.Random(600 + n)
        for _ in range(4):
            m = sweeps.theorem1_true_instance(rng, n)
            comp = riemannian_companion(m)
            pairs += [(m, comp), (comp, m)]
            for _ in range(3):
                pert = _perturbed(comp, rng)
                if pert is not None:
                    pairs += [(m, pert), (pert, m)]
    for n in range(2, 7):
        rng = random.Random(700 + n)
        for kind in ("any", "lorentzian", "riemannian"):
            m = sweeps.random_metric_algebra(rng, n, kind)
            other = MetricLieAlgebra.make(m.algebra, sweeps.gram_with_signature(rng, n - 1, 1))
            pairs += [(m, m.scale_gram(sweeps.rational(rng, zero_ok=False))), (m, other)]
            pert = _perturbed(m, rng)
            if pert is not None:
                pairs.append((m, pert))
        m = sweeps.class_c_instance(rng, n, degenerate=True)
        pairs += [(m, m.scale_gram(F(-3, 2))), (m, m.change_basis(linalg.identity(n)))]
    return pairs


CONNECTION_PAIRS = connection_pairs()


def test_same_connection_matches_product_equality():
    answers = [same_connection(m1, m2) for m1, m2 in CONNECTION_PAIRS]
    assert answers == [same_connection_oracle(m1, m2) for m1, m2 in CONNECTION_PAIRS]
    assert answers.count(True) >= 60 and answers.count(False) >= 60


def rotation_at(n, k):
    """so(2) acting on R^2 plus R^(n-3) under diag(-1, 1, ..., 1), the
    generator moved to position k: L_{e_k} = ad_{e_k} is the only nonzero
    left multiplication.  The second metric weights one rotated vector 2,
    so the rotation is no isometry: only L_{e_k} fails to be skew."""
    brackets = {(0, 1): [0, 0, 1] + [0] * (n - 3), (0, 2): [0, -1, 0] + [0] * (n - 3)}
    a = LieAlgebra.from_brackets(n, brackets)
    perm = list(range(n))
    perm[0], perm[k] = k, 0
    swap = [[int(i == perm[j]) for j in range(n)] for i in range(n)]  # column k is e_0
    m = MetricLieAlgebra.make(a, [[-1 if i == j == 0 else int(i == j) for j in range(n)] for i in range(n)])
    h = [[2 if i == j == 1 else x for j, x in enumerate(row)] for i, row in enumerate(m.gram)]
    return m.change_basis(swap), MetricLieAlgebra.make(a, h).change_basis(swap)


@pytest.mark.parametrize("n", range(3, 7))
def test_same_connection_checks_every_left_multiplication(n):
    for k in range(n):
        m, other = rotation_at(n, k)
        left = [linalg.left_matrix(metric.integer_product(m)[0], e) for e in linalg.units(n)]
        assert [j for j, L in enumerate(left) if not linalg.is_zero_mat(L)] == [k]
        assert same_connection(m, m.scale_gram(3)) and same_connection_oracle(m, m.scale_gram(3))
        assert not same_connection(m, other) and not same_connection_oracle(m, other)


def scalar_action_oracle(a, U, t):
    """ad_t on U in Fractions: the coordinates of [t, u] in U's canonical
    basis are its entries at the pivots, [t, u] must be their combination,
    and the matrix they form must be alpha * id."""
    if U.dim == 0:
        return None
    pivots = [next(j for j, x in enumerate(u) if x) for u in U.basis]
    alpha = None
    for idx, u in enumerate(U.basis):
        v = bracket_oracle(a.c, t, u)
        coords = [v[p] for p in pivots]
        back = [sum((c * w[j] for c, w in zip(coords, U.basis)), F(0)) for j in range(len(v))]
        if back != v:
            return None
        alpha = coords[idx] if alpha is None else alpha
        if coords != [alpha if i == idx else 0 for i in range(U.dim)]:
            return None
    return alpha


def scalar_action_cases():
    """(algebra, U, t): class C algebras, and near misses: R acting on
    R^(n-1) by a non-scalar diagonal such as diag(1, 2) or by a nilpotent,
    each also in a rational basis; U is the derived algebra, the span of
    e_1 .. e_{n-1} or a random plane, t a unit or a rational vector."""
    cases = []
    for n in range(2, 8):
        rng = random.Random(800 + n)
        algebras = [sweeps.class_c_instance(rng, n, degenerate=rng.random() < 0.5).algebra]
        if n >= 3:
            for rates in ([1, 2] + [1] * (n - 3), [1] * (n - 2) + [F(-1, 2)]):
                diagonal = {(0, j): [rates[j - 1] * (k == j) for k in range(n)] for j in range(1, n)}
                algebras.append(LieAlgebra.from_brackets(n, diagonal))
            nilpotent = {(0, j): [int(k == j + 1) for k in range(n)] for j in range(1, n - 1)}
            algebras.append(LieAlgebra.from_brackets(n, nilpotent))
        algebras += [a.change_basis(rational_basis(rng, n)) for a in algebras]
        units = linalg.identity(n)
        for a in algebras:
            plane = Subspace.span(n, [[rng.randint(-2, 2) for _ in range(n)] for _ in range(2)])
            for U in (a.derived_subalgebra(), Subspace.span(n, units[1:]), plane):
                for t in (units[0], units[-1], [F(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(n)]):
                    cases.append((a, U, t))
    return cases


def test_scalar_action_matches_the_fraction_restriction():
    answers = []
    for a, U, t in scalar_action_cases():
        alpha = scalar_action(a, U, t)
        assert alpha == scalar_action_oracle(a, U, t)
        answers.append(alpha)
    assert sum(x is None for x in answers) >= 100
    assert sum(x is not None and x != 0 for x in answers) >= 30 and sum(x == 0 for x in answers) >= 10
