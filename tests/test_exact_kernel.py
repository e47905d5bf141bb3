"""Differential tests of the integer exact kernel against Fraction oracles.

`Subspace.row_space`, `linalg.kernel`, `linalg.integer_inverse`, `linalg.congruence`
(on a Fraction matrix and on a metric's Gram view (G, g)), `linalg.congruence_inverse`,
`linalg.integer_transport`, `MetricLieAlgebra.change_basis`, `metric.is_flat`,
`metric.integer_product` (against the Koszul solve pair by pair),
`theorems.verify_eq2`, `theorems.same_connection`, `classc.closed_form_matches`
(each also against its definition on `reference.left_mult` or `reference.transport`),
`classc.scalar_action`,
`LieAlgebra.is_abelian_subspace` and the sweeps' connection check work in
Python ints.  Here each is compared with the Fraction computation of the
reference analyzer (`reference.py`; for `same_connection`, equality of the
two products it solves) on
seeded instances of dims 1-9, flat and non-flat, with Gram matrices and
structure constants that have non-unit denominators.  Every `Subspace`
they build holds the least-terms int view of the oracle's canonical basis.
"""

import itertools
import math
import random
from fractions import Fraction as F

import pytest

import populations
import reference
from flatlie import classc, inputdoc, linalg, metric, sweeps, theorems
from flatlie.classc import scalar_action
from flatlie.errors import (
    AntisymmetryError,
    DegenerateFormError,
    InvalidSplitError,
    JacobiError,
    NonSymmetricError,
    SingularMatrixError,
)
from flatlie.lie import LieAlgebra
from flatlie.linalg import Subspace
from flatlie.metric import MetricLieAlgebra, is_flat, killing_subalgebra
from flatlie.theorems import SplitData, riemannian_companion, same_connection, verify_eq2
from populations import dominant_block, rational_basis, six_digit, six_digit_basis
from test_lie import center, tensor_view
from test_metric import fraction_product

DIMS = range(2, 10)


def product(m):
    """The reference's product of m, solved from the Koszul formula."""
    return reference.product(m.algebra.c, m.gram)


def load_shape(shape, seed, n):
    """The `populations` document of shape built at random.Random(seed), loaded."""
    return inputdoc.parse_document(populations.SHAPES[shape].build(random.Random(seed), n))


def in_least_terms(d, rows):
    """Whether the int view rows / d has d > 0 and no factor common to d
    and every entry: the view that clearing its Fractions finds."""
    return d > 0 and math.gcd(d, *itertools.chain.from_iterable(rows)) == 1


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


def so3_sum(weights):
    """so(3) + R^(len(weights) - 3) under the diagonal form of weights."""
    n = len(weights)
    gram = [[w if i == j else F(0) for j, w in enumerate(weights)] for i in range(n)]
    return MetricLieAlgebra.make(LieAlgebra.from_brackets(*sweeps.simple3(n)), gram)


def eq2_fails():
    """so(3) + R^(n-3) with distinct weights on so(3), moved to a rational
    basis: the Killing subalgebra is the abelian factor, an orthogonal
    complement of [g, g] = so(3), and the metric is not flat, so eq. (2)
    fails on a valid split."""
    out = []
    for n in range(4, 8):
        rng = random.Random(2000 + n)
        weights = [F(1), F(2), F(3)] + [F(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 4)) for _ in range(n - 3)]
        out.append((f"so3sum{n}-rational", so3_sum(weights).change_basis(rational_basis(rng, n))))
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
        if reference.rank(P) == n:
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
        out.append((f"so3last{n}", MetricLieAlgebra.make(LieAlgebra.from_brackets(*sweeps.simple3(n)), gram).change_basis(shift)))
    rng = random.Random(3100)
    while len(out) < 11:
        m = sweeps.random_metric_algebra(rng, 10 + len(out) % 3)
        if not is_flat(m).flat:
            out.append((f"random{m.dim}", m))
    return out


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
        out.append((f"anisotropic{s}", MetricLieAlgebra.make(LieAlgebra.from_brackets(*sweeps.random_algebra(rng, n)), gram)))
    return out


def slot_width(m):
    """The slot width is_flat packs at, from its bound n a (D c + 2 E a)."""
    P, D = metric.integer_product(m)
    C, E = m.algebra.C, m.algebra.E
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
    G = [list(r) for r in m.gram]
    yield [row + [F(int(i == j)) for j in range(n)] for i, row in enumerate(G)]
    yield [[m.algebra.c[i][j][k] for i in range(n)] for j in range(n) for k in range(n)]
    yield [list(row) for plane in fraction_product(m) for row in plane]
    rows, cols = rng.randint(1, n + 2), rng.randint(1, n + 2)
    A = [[F(rng.randint(-4, 4), rng.choice((1, 2, 3, 7))) for _ in range(cols)] for _ in range(rows)]
    yield A
    yield A + [[2 * x - y for x, y in zip(A[0], A[-1])], [F(0)] * cols]


def assert_view_of(V, basis):
    """V holds the oracle's canonical basis as its least-terms int view:
    (B, b) is what clearing the Fraction basis finds, b > 0, gcd 1."""
    rows, d = linalg.clear_denominators(basis)
    assert (V.B, V.b) == (tuple(map(tuple, rows)), d) and in_least_terms(V.b, V.B)
    assert V.basis == tuple(map(tuple, basis)) and all(type(x) is F for row in V.basis for x in row)


def assert_row_space_matches_oracle(A):
    V = Subspace.row_space(len(A[0]), A)
    assert_view_of(V, reference.row_space(A))
    assert Subspace.span(len(A[0]), A) == V


@pytest.mark.parametrize("label,m", INSTANCES, ids=IDS)
def test_row_space_matches_fraction_gauss_jordan(label, m):
    rng = random.Random(label)
    for A in matrices(rng, m):
        assert_row_space_matches_oracle(A)


@pytest.mark.parametrize("label,m", INSTANCES, ids=IDS)
def test_row_space_matches_sympy_domain_matrix(label, m):
    pytest.importorskip("sympy")
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix

    rng = random.Random(label)
    for A in matrices(rng, m):
        dm = DomainMatrix([[QQ(x.numerator, x.denominator) for x in row] for row in A], (len(A), len(A[0])), QQ)
        R, pivots = dm.rref()
        expected = [[F(int(x.numerator), int(x.denominator)) for x in row] for row in R.to_list()[: len(pivots)]]
        assert_view_of(Subspace.row_space(len(A[0]), A), expected)
        assert reference.rank(A) == len(pivots)


def test_row_space_exact_on_huge_entries():
    rng = random.Random(7)
    for n in DIMS:
        A = [[F(rng.randint(-10**40, 10**40), rng.randint(1, 10**30)) for _ in range(n + 1)] for _ in range(n)]
        A.append([x + y for x, y in zip(A[0], A[1])])
        assert_row_space_matches_oracle(A)


def test_a_negative_last_pivot_gives_a_positive_denominator():
    """`_bareiss` ends on pivot -1 for the row [-1, 2], and for the rows
    [1, 1], [1, 0] too, although `_distinct_rows` makes every leading entry
    positive: `row_space` eliminates those rows as they are, and
    `kernel([[1, 1, 1], [0, 1, 1]])` eliminates them column-reversed.  Each
    view flips its signs to b = 1."""
    assert linalg._bareiss([[-1, 2]])[2] == -1
    assert Subspace.row_space(2, [[-1, 2]]) == Subspace(2, ((1, -2),), 1)
    assert linalg.kernel([[2, -1]]) == Subspace(2, ((1, 2),), 1)
    assert linalg._distinct_rows([[1, 1], [1, 0]]) == [(1, 1), (1, 0)]
    assert linalg._bareiss([(1, 1), (1, 0)])[2] == linalg._bareiss([(1, 1, 1), (1, 1, 0)])[2] == -1
    assert Subspace.row_space(2, [[1, 1], [1, 0]]) == Subspace.full(2)
    assert linalg.kernel([[1, 1, 1], [0, 1, 1]]) == Subspace(3, ((0, 1, -1),), 1)


def assert_kernel_matches_oracle(A):
    K = linalg.kernel(A)
    assert K.ambient_dim == len(A[0])
    assert_view_of(K, reference.kernel(A))
    assert reference.rank(A) == len(A[0]) - K.dim


@pytest.mark.parametrize("label,m", INSTANCES, ids=IDS)
def test_kernel_matches_fraction_null_space(label, m):
    """The one-pass kernel on the Killing constraint rows and on the
    matrices of the row-space tests."""
    n = m.dim
    low, _ = metric.lowered_constants(m)
    assert_kernel_matches_oracle([[low[a][j][i] + low[a][i][j] for a in range(n)] for i in range(n) for j in range(i, n)])
    for A in matrices(random.Random(label), m):
        assert_kernel_matches_oracle(A)


def assert_operations_match_oracle(U, V, G, g=1):
    """The sum U + V, V-perp in the symmetric form G / g and the radical of
    that form restricted to V, against the Fraction oracles."""
    gram = [[F(x, g) for x in row] for row in G]
    assert_view_of(linalg.subspace_sum(U, V), reference.row_space(list(U.basis) + list(V.basis)))
    assert_view_of(linalg.orthogonal_complement(V, G), reference.complement(V.basis, gram))
    assert_view_of(linalg.radical(linalg.restrict_form(G, V, g)[0], V), reference.radical(gram, V.basis))


def test_kernel_matches_fraction_null_space_on_every_shape():
    """Zero matrices, zero columns, wide and tall shapes, full rank and
    rank-deficient matrices, with small entries on every shape up to 7 x 7
    and with entries of 1,000 bits and more on a few; the row space too,
    and its sum with the kernel, complement and radical in a symmetric
    form with entries of the same kind."""
    rng = random.Random(11)
    small = lambda: F(rng.randint(-4, 4), rng.choice((1, 2, 3, 7)))  # noqa: E731
    big = lambda: F(rng.choice((-1, 1)) * rng.getrandbits(1100), rng.getrandbits(1000) | 1)  # noqa: E731
    cases = [(r, c, small) for r in range(1, 8) for c in range(1, 8)]
    cases += [(r, c, big) for r, c in ((1, 3), (3, 1), (2, 5), (5, 2), (4, 4), (3, 6), (6, 3))]
    full = 0
    for r, c, entry in cases:
        A = [[entry() for _ in range(c)] for _ in range(r)]
        full += reference.rank(A) == min(r, c)
        zeroed = set(rng.sample(range(c), rng.randint(1, c)))
        k = rng.randint(1, max(1, min(r, c) - 1))  # rank at most k
        mix = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(r)]
        deficient = [[sum((f * A[l][j] for l, f in enumerate(row)), F(0)) for j in range(c)] for row in mix]
        for M in ([[0] * c for _ in range(r)], A, [[F(0) if j in zeroed else x for j, x in enumerate(row)] for row in A], deficient):
            assert_kernel_matches_oracle(M)
            assert_row_space_matches_oracle(M)
        S = [[entry() for _ in range(c)] for _ in range(c)]
        S = [[S[min(i, j)][max(i, j)] for j in range(c)] for i in range(c)]
        assert_operations_match_oracle(linalg.kernel(A), Subspace.row_space(c, deficient), S)
    assert full >= 45


def row_classes(M):
    """The number of distinct nonzero rows of M up to a nonzero factor."""
    return len({tuple(F(x) / next(y for y in row if y) for x in row) for row in M if any(row)})


def test_kernel_and_row_space_eliminate_the_distinct_nonzero_rows(monkeypatch):
    """Tall matrices with zero rows and with rows repeated equal, negated
    and scaled, rank-deficient ones, entries wider than
    `linalg.MAX_PACKED_WIDTH`, all-zero matrices and single rows: the
    kernel and the row space match the reference's Fraction `rref`, and
    `_bareiss` sees each nonzero row once up to a factor.  An all-zero
    matrix has the full kernel and the zero row space."""
    eliminated = []
    bareiss = linalg._bareiss

    def spied(rows):
        eliminated.append(len(rows))
        return bareiss(rows)

    monkeypatch.setattr(linalg, "_bareiss", spied)
    rng = random.Random(34)
    small = lambda: F(rng.randint(-4, 4), rng.choice((1, 2, 3, 7)))  # noqa: E731
    wide = lambda: F(rng.choice((-1, 1)) * rng.getrandbits(linalg.MAX_PACKED_WIDTH + 100), rng.getrandbits(900) | 1)  # noqa: E731
    integer = lambda: rng.randint(-3, 3)  # noqa: E731

    def tall(base):
        """base with zero rows and equal, negated and scaled copies of its rows, shuffled."""
        c = len(base[0])
        rows = list(base) + [[0] * c, [F(0)] * c]
        for row in base:
            f = F(rng.choice((-3, -2, 2, 5)), rng.choice((1, 3)))
            rows += [list(row), [-x for x in row], [f * x for x in row]]
        rng.shuffle(rows)
        return rows

    cases = []
    for entry in (small, integer, wide):
        for r, c in ((1, 1), (1, 4), (2, 5), (3, 3), (4, 6)):
            A = [[entry() for _ in range(c)] for _ in range(r)]
            k = rng.randint(1, max(1, min(r, c) - 1))
            mix = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(r + 2)]
            deficient = [[sum((f * A[l][j] for l, f in enumerate(row)), 0) for j in range(c)] for row in mix]
            cases += [A, A[:1], tall(A), deficient, tall(deficient), [[0] * c for _ in range(r)], [[F(0)] * c]]
    assert any(row_classes(M) < sum(map(any, M)) < len(M) for M in cases)
    assert any(linalg.slot_width(max(abs(x.numerator) for row in M for x in row)) > linalg.MAX_PACKED_WIDTH
               for M in cases if type(M[0][0]) is F)
    zero = 0
    for M in cases:
        c, classes = len(M[0]), row_classes(M)
        eliminated.clear()
        assert_kernel_matches_oracle(M)
        assert eliminated == [classes]
        eliminated.clear()
        assert_row_space_matches_oracle(M)
        assert eliminated == ([classes] * 2 if classes else [])
        if not classes:
            zero += 1
            assert linalg.kernel(M) == Subspace.full(c) and Subspace.row_space(c, M) == Subspace(c)
    assert zero >= 15


@pytest.mark.parametrize("label,m", INSTANCES, ids=IDS)
def test_levi_civita_matches_fraction_koszul(label, m):
    p = fraction_product(m)
    assert p == product(m)
    assert all(isinstance(x, F) for plane in p for row in plane for x in row)


@pytest.mark.parametrize(
    "label,m",
    INSTANCES + HIGH_NONFLAT + BIG_ENTRY + ANISOTROPIC,
    ids=IDS + [label for label, _ in HIGH_NONFLAT + BIG_ENTRY + ANISOTROPIC],
)
def test_is_flat_verdict_and_witness_match_curvature_on_every_pair(label, m):
    """The Fraction curvature on each basis pair in order, up to the first
    nonzero one, against is_flat's verdict and witness."""
    n, c = m.dim, m.algebra.c
    p = fraction_product(m)
    basis = reference.units(n)
    nonzero = (
        (i, j, tuple(tuple(r) for r in K))
        for i in range(n)
        for j in range(i + 1, n)
        for K in [reference.curvature(c, p, basis[i], basis[j])]
        if any(map(any, K))
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
        C, E = m.algebra.C, m.algebra.E
        g = math.gcd(D, E)
        dominated += 2 * (E // g) * linalg.max_abs(P) > (D // g) * linalg.max_abs(C) > 0
    assert dominated >= 10
    assert {is_flat(m).flat for _, m in ANISOTROPIC} == {True, False}


FLAT_POPULATION = INSTANCES + HIGH_NONFLAT + BIG_ENTRY + ANISOTROPIC


def flat_regime(monkeypatch, m):
    """(verdict, regime) of one run of the is_flat body on m, the block size
    seen by spying on `linalg.pack`: "whole" (b = n) when it packs at the
    row spacing n w, "rows" (b = 1) when it packs at w only, "entries"
    (b = 1, one int per entry) when it packs no row at all, and "none"
    when no A_k is packed (every A_k is 0)."""
    metric.product_bound(m)  # and the product it reads
    calls = {"pack": [], "pack_row": []}
    fns = {name: getattr(linalg, name) for name in calls}

    def spy(name):
        def spied(row, w):
            calls[name].append(w)
            return fns[name](row, w)
        return spied

    with monkeypatch.context() as patch:
        for name in calls:
            patch.setattr(linalg, name, spy(name))
        verdict = metric.is_flat.__wrapped__(m)
    w = slot_width(m)
    if not calls["pack_row"]:
        return verdict, "none"
    return verdict, "whole" if m.dim * w in calls["pack"] else "rows" if calls["pack"] else "entries"


def test_is_flat_reaches_every_block_size_with_both_verdicts(monkeypatch):
    """The populations whose verdicts and witnesses match the Fraction
    curvature pair by pair (`test_is_flat_verdict_and_witness_match_curvature_on_every_pair`)
    are decided on whole matrices, on packed rows and on one int per entry,
    each with both verdicts, as FLAT_ROW_BITS and MAX_PACKED_WIDTH set it.
    In each, some witness has a zero first row, so its first nonzero block
    is a later row of K (or of the one whole block), and some non-flat
    metric mixes zero and nonzero A_k."""
    seen, late, mixed = set(), set(), set()
    for _, m in FLAT_POPULATION:
        verdict, regime = flat_regime(monkeypatch, m)
        assert verdict == is_flat(m)
        w = slot_width(m)
        if regime != "none":
            wide = w > linalg.MAX_PACKED_WIDTH
            assert regime == ("entries" if wide else "whole" if m.dim * w <= metric.FLAT_ROW_BITS else "rows")
        seen.add((regime, verdict.flat))
        if not verdict.flat:
            zero = [not any(map(any, plane)) for plane in metric.integer_product(m)[0]]
            if not any(verdict.witness[2][0]):
                late.add(regime)
            if any(zero) and not all(zero):
                mixed.add(regime)
    assert {(r, f) for r in ("whole", "rows", "entries") for f in (True, False)} <= seen
    assert {"whole", "rows", "entries"} <= late & mixed


@pytest.mark.parametrize("budget", [0, 10**9])
def test_is_flat_gives_the_same_verdict_at_any_block_size(monkeypatch, budget):
    """Forcing b = 1 (FLAT_ROW_BITS = 0) or b = n up to MAX_PACKED_WIDTH
    leaves every verdict and witness as it is; the forced regime is seen
    on every metric that packs its rows."""
    expected = [is_flat(m) for _, m in FLAT_POPULATION]
    monkeypatch.setattr(metric, "FLAT_ROW_BITS", budget)
    runs = [flat_regime(monkeypatch, m) for _, m in FLAT_POPULATION]
    assert [verdict for verdict, _ in runs] == expected
    assert {regime for _, regime in runs} == {"none", "entries", "rows" if budget == 0 else "whole"}


def _split(m):
    S, D = killing_subalgebra(m), m.algebra.derived_subalgebra()
    return SplitData(S, D, tuple(tuple(reference.form(m.gram, s, d) for d in D.basis) for s in S.basis))


def _is_valid_split(split):
    return split.killing.dim + split.derived.dim == split.killing.ambient_dim and not any(
        x for row in split.cross_gram for x in row
    )


@pytest.mark.parametrize("label,m", INSTANCES + EQ2_FAILS, ids=IDS + [label for label, _ in EQ2_FAILS])
def test_verify_eq2_matches_fraction_left_multiplication(label, m):
    split = _split(m)
    if _is_valid_split(split):
        assert verify_eq2(m, split) == reference.eq2(m.algebra.c, product(m), split.killing.basis, split.derived.basis)
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
    yield center(a)
    for source in (D.basis, linalg.units(n)):
        if source:
            k = rng.randint(1, 3)
            yield Subspace.span(n, [
                [sum((F(rng.randint(-3, 3), rng.choice((1, 2, 3))) * row[j] for row in source), F(0)) for j in range(n)]
                for _ in range(k)
            ])


@pytest.mark.parametrize("label,m", INSTANCES, ids=IDS)
def test_is_abelian_subspace_matches_fraction_brackets(label, m):
    rng = random.Random(label)
    a = m.algebra
    for V in list(subspaces(rng, a)) + [killing_subalgebra(m)]:
        assert a.is_abelian_subspace(V) == reference.is_abelian(a.c, V.basis)


def test_is_abelian_subspace_population_reaches_both_outcomes():
    outcomes = [
        m.algebra.is_abelian_subspace(V)
        for label, m in INSTANCES
        for V in subspaces(random.Random(label), m.algebra)
        if V.dim >= 2
    ]
    assert outcomes.count(True) >= 10 and outcomes.count(False) >= 10


@pytest.mark.parametrize("label,m", INSTANCES, ids=IDS)
def test_subspace_operations_hold_the_cleared_oracle_basis(label, m):
    """On the subspaces of each algebra and its Killing subalgebra: every
    pairwise sum, the orthogonal complement in the metric and the radical
    of the metric restricted to the subspace."""
    Vs = list(subspaces(random.Random(label), m.algebra)) + [killing_subalgebra(m)]
    for U, V in itertools.product(Vs, repeat=2):
        assert_operations_match_oracle(U, V, m.G, m.g)


def test_subspace_operations_population_has_nonzero_radicals():
    radicals = [
        linalg.radical(linalg.restrict_form(m.G, V, m.g)[0], V).dim
        for label, m in INSTANCES
        for V in subspaces(random.Random(label), m.algebra)
    ]
    assert sum(r > 0 for r in radicals) >= 10 and sum(r == 0 for r in radicals) >= 10


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
        O, od = reference.congruence(S)
        ES = [[sum((e * S[k][j] for k, e in enumerate(row) if e), F(0)) for j in range(n)] for row in E]
        ESEt = [[sum((x * y for x, y in zip(row, col)), F(0)) for col in E] for row in ES]
        assert ESEt == [[d[i] if i == j else 0 for j in range(n)] for i in range(n)]
        for row, orow in zip(E, O):
            k = next(k for k, x in enumerate(orow) if x)
            assert row[k] != 0 and all(x * orow[k] == y * row[k] for x, y in zip(row, orow))
        assert [sign(x) for x in d] == [sign(x) for x in od]
        assert all(type(x) is int for row in E for x in row) and all(type(x) is int for x in d)
        counts["row_add"] += n > 1 and all(S[i][i] == 0 for i in range(n)) and any(map(any, S))
        counts["degenerate"] += any(x == 0 for x in od)
    assert counts["row_add"] >= 100 and counts["degenerate"] >= 100


@pytest.mark.parametrize("n", range(1, 7))
def test_transport_matches_fraction_change_of_basis(n):
    """The transport of antisymmetric int views (C, E), over 1 and over
    the lcm of Fraction entries, and of C scaled by 1 / t, against the
    reference's change of basis, for an int unimodular P, a rational one
    and a six-digit one, each view in least terms; the zero table moves to
    the zero table over 1."""
    rng = random.Random(300 + n)
    zero = populations.zero_table(n)[0]
    for _ in range(4):
        c_int = populations.antisymmetric_tensor(rng, n, lambda r: r.randint(-6, 6))
        c_frac = populations.antisymmetric_tensor(rng, n, lambda r: F(r.randint(-6, 6), r.randint(1, 9)))
        for P in (sweeps.unimodular_int_matrix(rng, n), rational_basis(rng, n), six_digit_basis(rng, n, [range(n)])):
            for c in (c_int, c_frac, zero):
                C, E = tensor_view(c)
                X, e = linalg.integer_transport(C, P, E)
                assert linalg.fraction_tensor(X, e) == reference.transport(c, P) and in_least_terms(e, itertools.chain(*X))
            t = rng.randint(2, 30)
            scaled = [[[F(x, t) for x in row] for row in plane] for plane in c_int]
            assert linalg.fraction_tensor(*linalg.integer_transport(c_int, P, t)) == reference.transport(scaled, P)
        Z = tensor_view(zero)[0]
        assert linalg.integer_transport(Z, P) == (Z, 1)


def test_transport_refuses_a_singular_basis_and_a_non_antisymmetric_view():
    """A singular P raises SingularMatrixError; a view with C[i][j] != -C[j][i]
    raises AntisymmetryError naming the first such entry, before P is read,
    so even with a singular P, and through `MetricLieAlgebra.in_basis` too."""
    rng = random.Random(350)
    for n in range(2, 6):
        C, E = tensor_view(populations.antisymmetric_tensor(rng, n, lambda r: F(r.randint(-6, 6), r.randint(1, 9))))
        singular = [[0] * n] + rational_basis(rng, n)[1:]
        for P in (singular, [row[:1] + row[:n - 1] for row in rational_basis(rng, n)]):
            with pytest.raises(SingularMatrixError):
                linalg.integer_transport(C, P, E)
        bad = [[list(row) for row in plane] for plane in C]
        bad[0][n - 1][1] += 1  # no longer -C[n-1][0][1]
        for P in (sweeps.unimodular_int_matrix(rng, n), singular):
            with pytest.raises(AntisymmetryError) as exc:
                linalg.integer_transport(bad, P, E)
            assert exc.value.triple == (0, n - 1, 1)
            with pytest.raises(AntisymmetryError):
                MetricLieAlgebra.in_basis((bad, E), linalg.units(n), P)


def test_transports_read_int_input_as_it_is(monkeypatch):
    """An int view and an int P reach `integer_transport`, and an int Gram
    matrix and P `transport_form`, with no `clear_denominators` copy; a
    rational P too, and both agree with the reference."""
    rng = random.Random(360)
    cleared = []
    clear_denominators = linalg.clear_denominators

    def spied(A):
        cleared.append(A)
        return clear_denominators(A)

    monkeypatch.setattr(linalg, "clear_denominators", spied)
    for n in range(1, 7):
        c = populations.antisymmetric_tensor(rng, n, lambda r: r.randint(-6, 6))
        gram = sweeps.gram_with_signature(rng, n - 1, 1)
        for P in (sweeps.unimodular_int_matrix(rng, n), rational_basis(rng, n)):
            cleared.clear()
            X, e = linalg.integer_transport(c, P)
            M, h = linalg.transport_form(gram, P)
            assert linalg.fraction_tensor(X, e) == reference.transport(c, P) and in_least_terms(e, itertools.chain(*X))
            assert linalg.fraction_matrix(M, h) == reference.transport_form(gram, P) and in_least_terms(h, M)
            if type(P[0][0]) is int:
                assert cleared == []


def test_transport_form_refuses_a_non_symmetric_gram():
    """A non-symmetric Gram matrix raises NonSymmetricError in
    `transport_form`, before P is read, and so through both `in_basis`
    routes."""
    m = sweeps.random_metric_algebra(random.Random(370), 3)
    view = m.algebra.C, m.algebra.E
    not_symmetric = [[1, 1, 0], [0, 1, 0], [0, 0, 1]]
    singular = [[1, 2, 0], [2, 4, 0], [0, 0, 1]]
    with pytest.raises(NonSymmetricError):
        linalg.transport_form(not_symmetric, singular)
    with pytest.raises(NonSymmetricError):
        MetricLieAlgebra.in_basis(view, not_symmetric, sweeps.unimodular_int_matrix(random.Random(371), 3))
    with pytest.raises(NonSymmetricError):
        MetricLieAlgebra.in_basis(view, [[F(x, 3) for x in row] for row in not_symmetric], [[F(1, 2), 0, 0], [0, 1, 0], [0, 0, 1]])


def _change_of_basis_cases():
    """(metric, P) with non-unit denominators in the metric, and P an int
    unimodular matrix, a rational one and a six-digit one."""
    for n in range(1, 7):
        rng = random.Random(330 + n)
        m = sweeps.random_metric_algebra(rng, n).scale_gram(F(-7, 3))
        if n >= 2:
            m = m.change_basis(rational_basis(rng, n))
        for P in (sweeps.unimodular_int_matrix(rng, n), rational_basis(rng, n), six_digit_basis(rng, n, [range(n)])):
            yield m, P


def test_change_basis_fields_are_the_cleared_fraction_change_of_basis(monkeypatch):
    """A change of basis builds each new record once, and its fields
    (C, E) and (G, g) are the Fraction change of basis in least terms, so
    they equal clearing it.  An int P reaches the transport as ints."""
    seen = []
    built = {LieAlgebra: 0, MetricLieAlgebra: 0}
    integer_transport = linalg.integer_transport

    def spied(T, P, t=1):
        seen.append({type(x) for row in P for x in row})
        return integer_transport(T, P, t)

    def counted(cls):
        init = cls.__init__

        def wrapper(self, *args):
            built[cls] += 1
            init(self, *args)
        return wrapper

    monkeypatch.setattr(linalg, "integer_transport", spied)
    for cls in built:
        monkeypatch.setattr(cls, "__init__", counted(cls))
    for m, P in _change_of_basis_cases():
        seen.clear()
        built.update(dict.fromkeys(built, 0))
        moved = m.change_basis(P)
        assert built == {LieAlgebra: 1, MetricLieAlgebra: 1}
        a = moved.algebra
        assert in_least_terms(a.E, itertools.chain(*a.C)) and in_least_terms(moved.g, moved.G)
        assert a.c == reference.transport(m.algebra.c, P)
        assert moved.gram == reference.transport_form(m.gram, P)
        assert moved.signature == m.signature
        if all(type(x) is int for row in P for x in row):
            assert seen == [{int}]


def test_change_basis_refuses_bad_input():
    m = sweeps.random_metric_algebra(random.Random(340), 3)
    singular = [[1, 2, 0], [2, 4, 0], [0, 0, 1]]
    with pytest.raises(SingularMatrixError):
        m.change_basis(singular)
    with pytest.raises(TypeError):
        m.change_basis([[1.0, 0, 0], [0, 1, 0], [0, 0, 1]])
    identity = [[F(int(i == j)) for j in range(3)] for i in range(3)]
    view = m.algebra.C, m.algebra.E
    with pytest.raises(TypeError):
        MetricLieAlgebra.in_basis(view, [[1.0, 0, 0], [0, 1, 0], [0, 0, 1]], identity)
    with pytest.raises(ValueError):
        MetricLieAlgebra.in_basis(view, [row[:2] for row in m.gram], identity)
    with pytest.raises(ValueError):
        MetricLieAlgebra.in_basis(view, m.gram, identity, 0)
    assert MetricLieAlgebra.in_basis(view, m.gram, identity) == m


def test_change_basis_checks_every_new_instance(monkeypatch):
    """The views a change of basis hands over are checked as the
    constructors check theirs: antisymmetry and Jacobi on the algebra,
    symmetry and nondegeneracy on the Gram matrix."""
    m = sweeps.random_metric_algebra(random.Random(341), 3)
    P = sweeps.unimodular_int_matrix(random.Random(342), 3)
    table = sweeps.heisenberg_like(random.Random(343), 3)  # what `scramble` builds from
    o = (0, 0, 0)
    # [e0, e1] = e2, [e1, e2] = e1: antisymmetric, but the Jacobi sum of
    # (e0, e1, e2) is [e0, e1] = e2
    not_lie = ((o, (0, 0, 1), o), ((0, 0, -1), o, (0, 1, 0)), (o, (0, -1, 0), o))
    not_antisymmetric = ((o, (0, 0, 1), o), (o, o, o), (o, o, o))
    for tensor, error in ((not_lie, JacobiError), (not_antisymmetric, AntisymmetryError)):
        with monkeypatch.context() as patch:
            patch.setattr(linalg, "integer_transport", lambda T, P, t=1: (tensor, 1))
            with pytest.raises(error):
                m.change_basis(P)
            with pytest.raises(error):
                sweeps.scramble(table, m.gram, random.Random(343))
    not_symmetric = ((1, 1, 0), (0, 1, 0), (0, 0, 1))
    degenerate = ((1, 0, 0), (0, 1, 0), (0, 0, 0))
    for form, error in ((not_symmetric, NonSymmetricError), (degenerate, DegenerateFormError)):
        with monkeypatch.context() as patch:
            patch.setattr(linalg, "transport_form", lambda G, P, g=1: (form, 1))
            with pytest.raises(error):
                m.change_basis(P)
            with pytest.raises(error):
                sweeps.scramble(table, m.gram, random.Random(343))


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


def _expected_failures(i, j, k):
    """The full failure list of `_perturbed_failures` for entry (i, j, k).
    The Gram matrix is diagonal, so the defining identity fails at
    (i, j, k) alone, and Gi L_i + (Gi L_i)^T changes at (k, j) by a nonzero
    multiple of Gi[k][k], so L_i is no longer skew.  Off the diagonal i != j, torsion
    fails at (i, j) and (j, i), so L - R != ad for both i and j.  Each basis
    vector a reports L - R, then skewness, then its torsion pairs."""
    failures = [f"t: defining identity fails at ({i}, {j}, {k})"]
    for a in range(3):
        twisted = i != j and a in (i, j)
        if twisted:
            failures.append(f"t: L - R != ad for basis vector {a}")
        if a == i:
            failures.append(f"t: L_u not skew-symmetric for basis vector {a}")
        if twisted:
            failures.append(f"t: torsion-freeness fails at ({a}, {i + j - a})")
    return failures


def test_connection_check_reports_a_perturbed_product_entry(monkeypatch):
    """Every single-entry +1 perturbation of the product gives the full
    failure list, in order, that the check built from the left and right
    multiplication matrices and mat_mul gave."""
    assert sweeps._connection_failures(_axioms_instance(), "t") == []
    for entry in itertools.product(range(3), repeat=3):
        assert _perturbed_failures(monkeypatch, entry) == _expected_failures(*entry), entry
    # spot checks, written out: an off-diagonal entry and a diagonal one
    assert _perturbed_failures(monkeypatch, (1, 2, 0)) == [
        "t: defining identity fails at (1, 2, 0)",
        "t: L - R != ad for basis vector 1",
        "t: L_u not skew-symmetric for basis vector 1",
        "t: torsion-freeness fails at (1, 2)",
        "t: L - R != ad for basis vector 2",
        "t: torsion-freeness fails at (2, 1)",
    ]
    assert _perturbed_failures(monkeypatch, (2, 2, 1)) == [
        "t: defining identity fails at (2, 2, 1)",
        "t: L_u not skew-symmetric for basis vector 2",
    ]


def test_transport_beyond_the_packed_width(monkeypatch):
    """6-digit rationals in P and in an antisymmetric c give slots wider
    than linalg.MAX_PACKED_WIDTH, so transport keeps one int per slot;
    small data packs whole columns.  Both agree with the oracle."""
    for n in (4, 5):
        rng = random.Random(310 + n)
        c = populations.antisymmetric_tensor(rng, n, six_digit)
        P = [[six_digit(rng) for _ in range(n)] for _ in range(n)]
        C, E = tensor_view(c)
        X, widths = packed_widths(monkeypatch, linalg.integer_transport, C, P, E)
        assert linalg.fraction_tensor(*X) == reference.transport(c, P)
        assert min(widths) > linalg.MAX_PACKED_WIDTH
        c = populations.antisymmetric_tensor(rng, n, lambda r: r.randint(-9, 9))
        P = rational_basis(rng, n)
        X, widths = packed_widths(monkeypatch, linalg.integer_transport, c, P)
        assert linalg.fraction_tensor(*X) == reference.transport(c, P)
        assert max(widths) <= linalg.MAX_PACKED_WIDTH


def test_integer_inverse_is_the_least_denominator_view():
    rng = random.Random(320)
    for n in range(1, 7):
        for P in (rational_basis(rng, n), six_digit_basis(rng, n, [range(n)]), sweeps.unimodular_int_matrix(rng, n)):
            Qi, q = linalg.integer_inverse(P)
            assert [[F(x, q) for x in row] for row in Qi] == reference.inverse(P)
            assert q > 0 and math.gcd(q, *(x for row in Qi for x in row)) == 1


def _elimination_cases():
    """Dense documents of dims 2-9 over three seeds, and metrics of dims
    2-6 from every sweep generator."""
    for seed in range(3):
        for n in range(2, 10):
            yield load_shape("dense_document", seed, n)
    rng = random.Random(350)
    for dim in range(2, 7):
        yield sweeps.random_metric_algebra(rng, dim)
        yield sweeps.random_metric_algebra(rng, dim, kind="lorentzian")
        yield sweeps.theorem1_true_instance(rng, dim)
        yield sweeps.class_c_instance(rng, dim, True)
        yield sweeps.class_c_instance(rng, dim, False)


def test_eliminations_on_the_gram_view_match_the_fraction_gram():
    """`congruence` clears each row of a metric's fields (G, g) on its own,
    so it returns exactly what it returns on the Fraction Gram G / g: the
    same E and d, d with the signs of the signature; the inverse read off
    the congruence the constructor kept is the one `integer_inverse` finds
    on the Fraction Gram."""
    for m in _elimination_cases():
        gram = m.gram
        assert linalg.congruence(m.G, m.g) == linalg.congruence(gram)
        assert tuple(m.signature) == reference.signature(gram)
        assert linalg.congruence_inverse(*m._congruence) == linalg.integer_inverse(gram)


def _zero_diagonal_forms(rng, n):
    """Seeded symmetric forms of dim n with zero diagonal entries, so that
    `congruence_of_rows` swaps and row-adds: a random one with every
    diagonal entry 0 and rational off-diagonal entries, the hyperbolic
    [[0, 1], [1, 0]] blocks (with a -1 on the diagonal for odd n), and
    those blocks moved to a random unimodular basis."""
    S = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.6:
                S[i][j] = S[j][i] = F(rng.randint(-9, 9), rng.randint(1, 5))
    yield S
    H = [[F(0)] * n for _ in range(n)]
    for i in range(0, n - 1, 2):
        H[i][i + 1] = H[i + 1][i] = F(1)
    if n % 2:
        H[n - 1][n - 1] = F(-1)
    yield H
    P = sweeps.unimodular_int_matrix(rng, n)
    yield [[reference.form(H, col_a, col_b) for col_b in zip(*P)] for col_a in zip(*P)]


def _congruence_inverse(S):
    """`congruence_inverse` of the congruence `congruence_of_rows` runs on
    the rows of S, as a metric's constructor runs it."""
    nu, rows = linalg.row_scales(S)
    E, d = linalg.congruence_of_rows(nu, rows)
    return linalg.congruence_inverse(E, d, nu)


def _nondegenerate_forms():
    """The Fraction Gram of every elimination case, seeded nondegenerate
    forms of dims 1-8 with zero diagonals (the swap and row-add branches),
    a 1 x 1 negative form and forms whose last pivot is negative."""
    for m in _elimination_cases():
        yield m.gram
    rng = random.Random(380)
    for n in range(1, 9):
        for _ in range(3):
            for S in _zero_diagonal_forms(rng, n):
                if reference.signature(S)[2] == 0:
                    yield S
    yield [[F(-3, 7)]]
    yield [[F(2), F(1)], [F(1), F(-5, 3)]]
    yield [[F(1), F(0), F(0)], [F(0), F(4, 9), F(0)], [F(0), F(0), F(-2)]]


def test_congruence_inverse_matches_the_elimination_and_the_reference():
    """The inverse read off the congruence, on forms that reach every branch
    of `congruence_of_rows`, is the least-terms view that `integer_inverse`
    finds on the Fraction form and the reference's inverse."""
    counts = {"zero diagonal": 0, "negative last pivot": 0}
    for S in _nondegenerate_forms():
        H, q = _congruence_inverse(S)
        assert (H, q) == linalg.integer_inverse(S)
        assert [[F(x, q) for x in row] for row in H] == reference.inverse(S)
        assert in_least_terms(q, H)
        counts["zero diagonal"] += any(S[i][i] == 0 for i in range(len(S)))
        # d_k = p_(k-1) nu_k p_k with nu_k > 0, so prod(d) has the sign of p_n
        counts["negative last pivot"] += math.prod(linalg.congruence(S)[1]) < 0
    assert counts["zero diagonal"] >= 40 and counts["negative last pivot"] >= 20


def test_integer_product_matches_a_sympy_koszul_solve_on_a_dense_document():
    """The product solved independently: the Koszul formula over
    sympy.Rational with the Gram inverse from sympy.Matrix.inv."""
    sympy = pytest.importorskip("sympy")
    m = load_shape("dense_document", 9, 9)
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


def _random_lorentzian(rng, n):
    return sweeps.random_metric_algebra(rng, n, kind="lorentzian")


def _random_riemannian(rng, n):
    """A positive definite instance, drawn as `random_metric_algebra` draws."""
    return sweeps.scramble(sweeps.random_algebra(rng, n), sweeps.gram_with_signature(rng, n, 0), rng)


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
        for make in (sweeps.random_metric_algebra, _random_lorentzian, _random_riemannian):
            m = make(rng, n)
            other = MetricLieAlgebra.make(m.algebra, sweeps.gram_with_signature(rng, n - 1, 1))
            pairs += [(m, m.scale_gram(sweeps.rational(rng, zero_ok=False))), (m, other)]
            pert = _perturbed(m, rng)
            if pert is not None:
                pairs.append((m, pert))
        m = sweeps.class_c_instance(rng, n, degenerate=True)
        pairs += [(m, m.scale_gram(F(-3, 2))), (m, m.change_basis([[F(int(i == j)) for j in range(n)] for i in range(n)]))]
    return pairs


CONNECTION_PAIRS = connection_pairs()


def test_same_connection_matches_product_equality():
    answers = [same_connection(m1, m2) for m1, m2 in CONNECTION_PAIRS]
    assert answers == [product(m1) == product(m2) for m1, m2 in CONNECTION_PAIRS]
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
    """On rotation_at(n, k) only L_{e_k} is nonzero, and it rotates the
    plane of the other two rotated axes, so stretching either of them
    breaks its skewness, and stretching any other axis does not."""
    for k in range(n):
        m, other = rotation_at(n, k)
        left = [reference.left_mult(metric.integer_product(m)[0], e) for e in reference.units(n)]
        assert [j for j, L in enumerate(left) if any(map(any, L))] == [k]
        assert same_connection(m, m.scale_gram(3)) and product(m) == product(m.scale_gram(3))
        assert not same_connection(m, other) and product(m) != product(other)
        rotated = {j for row in left[k] for j, x in enumerate(row) if x}
        assert len(rotated) == 2
        assert [same_connection(m, axis_rescaled(m, i)) for i in range(n)] == [i not in rotated for i in range(n)]


def sweep_metrics(rng, dims):
    """One metric of every sweep generator for each dim (the degenerate
    class-C draw needs dim 2)."""
    for n in dims:
        yield sweeps.random_metric_algebra(rng, n)
        yield _random_lorentzian(rng, n)
        yield _random_riemannian(rng, n)
        yield sweeps.theorem1_true_instance(rng, n)
        if n > 1:
            yield sweeps.class_c_instance(rng, n, degenerate=True)
        yield sweeps.class_c_instance(rng, n, degenerate=False)


def packed_widths(monkeypatch, check, *args):
    """(result, widths): check(*args) and the slot widths of the
    `linalg.pack_row` calls it makes itself (memoized layers it reads were
    built before)."""
    widths = []
    pack_row = linalg.pack_row

    def spied(row, w):
        widths.append(w)
        return pack_row(row, w)

    with monkeypatch.context() as patch:
        patch.setattr(linalg, "pack_row", spied)
        return check(*args), widths


def test_killing_rows_regroup_the_koszul_formula():
    """2 L gram p_ij = G C_ij + A_(i,j) with L = g E, so with p = P / D
    2 E G P_ij = D (G C_ij + A_(i,j)) for every pair, A_(i,j) = A_(j,i) the
    row of the Killing constraints; and the packed lowered constants are the
    plain dots G C_ij."""
    population = [m for _, m in INSTANCES + BIG_ENTRY] + list(sweep_metrics(random.Random(900), range(1, 10)))
    for m in population:
        n, G, C, E = m.dim, m.G, m.algebra.C, m.algebra.E
        low, L = metric.lowered_constants(m)
        assert low == tuple(tuple(tuple(linalg.dot(row, cij) for row in G) for cij in plane) for plane in C)
        A, L_rows = metric.killing_rows(m)
        assert L == L_rows == m.g * E and len(A) == n * (n + 1) // 2
        row = dict(zip(((i, j) for i in range(n) for j in range(i, n)), A))
        assert all(row[i, j] == tuple(low[a][j][i] + low[a][i][j] for a in range(n)) for i, j in row)
        P, D = metric.integer_product(m)
        for i in range(n):
            for j in range(n):
                a = row[min(i, j), max(i, j)]
                assert [2 * E * linalg.dot(Gk, P[i][j]) for Gk in G] == [
                    D * (linalg.dot(Gk, C[i][j]) + x) for Gk, x in zip(G, a)
                ], (i, j)


@pytest.mark.parametrize("n", range(1, 10))
def test_integer_product_matches_the_koszul_solve_on_every_sweep_generator(n):
    for m in sweep_metrics(random.Random(910 + n), [n] * 3):
        P, D = metric.integer_product(m)
        assert linalg.fraction_tensor(P, D) == product(m) and in_least_terms(D, itertools.chain(*P))


def test_integer_product_matches_the_koszul_solve_past_the_packed_width(monkeypatch):
    """The dense documents of dims 2-13: from dim 8 on, the lowered
    constants' slots pass linalg.MAX_PACKED_WIDTH and keep one int each."""
    wide = 0
    for n in range(2, 14):
        m = load_shape("dense_document", n, n)
        _, widths = packed_widths(monkeypatch, metric.lowered_constants, m)
        wide += min(widths) > linalg.MAX_PACKED_WIDTH
        P, D = metric.integer_product(m)
        assert linalg.fraction_tensor(P, D) == product(m) and in_least_terms(D, itertools.chain(*P))
    assert wide == 6


def same_connection_definition(m1, m2):
    """Every L_k = left_mult(P, e_k) of m1's product P / D is skew for
    m2's form: G L_k + (G L_k)^T = 0 with m2's field G, in ints."""
    P, _ = metric.integer_product(m1)
    n = m1.dim
    for e in reference.units(n):
        GL = reference.mat_mul(m2.G, reference.left_mult(P, e))
        if any(GL[r][c] + GL[c][r] for r in range(n) for c in range(n)):
            return False
    return True


def axis_rescaled(m, i):
    """m's form with axis i stretched by 2: row and column i doubled."""
    gram = [[x * (2 if r == i else 1) * (2 if c == i else 1) for c, x in enumerate(row)] for r, row in enumerate(m.gram)]
    return MetricLieAlgebra.make(m.algebra, gram)


def big_connection_pairs():
    """Pairs on the big-entry metrics and the dense flat split document:
    a 6-digit rescaling (the same connection), every axis rescaled, and a
    dense 6-digit form."""
    pairs = []
    rng = random.Random(950)
    for _, m in BIG_ENTRY:
        n = m.dim
        pairs.append((m, m.scale_gram(six_digit(rng))))
        pairs += [(m, axis_rescaled(m, i)) for i in range(n)]
        gram = [[F(0)] * n for _ in range(n)]
        dominant_block(rng, gram, n)
        pairs.append((m, MetricLieAlgebra.make(m.algebra, gram)))
    m = load_shape("dense_flat_split", 1, 17)
    pairs += [(m, riemannian_companion(m)), (m, axis_rescaled(m, 0)), (m, axis_rescaled(m, 5))]
    return pairs


def test_same_connection_matches_its_definition(monkeypatch):
    """The packed test against the skewness of every left multiplication,
    on the connection pairs (small entries) and on big-entry pairs whose
    slots pass linalg.MAX_PACKED_WIDTH; both outcomes occur on each side."""
    outcomes = set()
    for m1, m2 in CONNECTION_PAIRS + big_connection_pairs():
        metric.integer_product(m1)
        answer, widths = packed_widths(monkeypatch, same_connection, m1, m2)
        assert answer == same_connection_definition(m1, m2)
        outcomes.add((answer, widths[0] > linalg.MAX_PACKED_WIDTH))
    assert outcomes == {(True, False), (False, False), (True, True), (False, True)}


def eq2_definition(m, split):
    """L_s = ad_s on the Killing rows and L_h = 0 on the derived rows, on
    the matrices left_mult(P, s) and left_mult(C, s): E L(P, s) == D L(C, s)."""
    P, D = metric.integer_product(m)
    C, E = m.algebra.C, m.algebra.E
    return all(
        [[E * x for x in row] for row in reference.left_mult(P, s)] == [[D * x for x in row] for row in reference.left_mult(C, s)]
        for s in split.killing.B
    ) and not any(any(map(any, reference.left_mult(P, h))) for h in split.derived.B)


def big_eq2_cases():
    """so(3) + R^(n-3) with 6-digit weights, in a basis with 6-digit
    denominators (eq. (2) fails on a valid split), and the dense flat split
    document (it holds)."""
    out = []
    for n in range(4, 8):
        rng = random.Random(2100 + n)
        weights = [F(1), F(2), F(3)] + [abs(six_digit(rng)) for _ in range(n - 3)]
        out.append(so3_sum(weights).change_basis(six_digit_basis(rng, n, [range(n)])))
    return out + [load_shape("dense_flat_split", 1, 17)]


def test_verify_eq2_matches_its_definition(monkeypatch):
    """The packed planes against left_mult on every valid split of the
    instances, eq. (2) failures and big-entry cases; both outcomes occur
    with small slots and with slots past linalg.MAX_PACKED_WIDTH."""
    population = [m for _, m in INSTANCES + EQ2_FAILS + BIG_ENTRY] + big_eq2_cases()
    outcomes = set()
    for m in population:
        split = _split(m)
        if not _is_valid_split(split):
            continue
        answer, widths = packed_widths(monkeypatch, verify_eq2, m, split)
        assert answer == eq2_definition(m, split)
        outcomes.add((answer, widths[0] > linalg.MAX_PACKED_WIDTH))
    assert outcomes == {(True, False), (False, False), (True, True), (False, True)}


def moved_product(m, w):
    """The product of m moved to the witness basis by `reference.transport`,
    an inverse of the basis included."""
    W = reference.transpose([w.e, *w.b_basis.basis, w.d])
    return reference.transport(linalg.fraction_tensor(*metric.integer_product(m)), W)


def closed_form_definition(moved, w, alpha):
    """The closed-form table against the `moved_product`."""
    return linalg.fraction_tensor(*classc.closed_form_products(w, alpha)) == moved


def flat_class_c_metrics():
    rng = random.Random(960)
    out = [sweeps.class_c_instance(rng, n, degenerate=True) for n in range(2, 10)]
    out += [m for label, m in INSTANCES + BIG_ENTRY if label.startswith("flatc") or label in ("bigflat3", "bigflat5", "bigflat7")]
    return out + [load_shape("dense_flat_class_c", n, n) for n in range(3, 9)]


def test_closed_form_matches_its_definition(monkeypatch):
    """The packed products of witness vectors against the transported
    product, for the witness's alpha and three wrong ones, with small slots
    and with slots past linalg.MAX_PACKED_WIDTH; only alpha matches."""
    wide = set()
    for m in flat_class_c_metrics():
        metric.integer_product(m)
        w = classc.construct_witness(m)
        alpha = classc.witness_scale(m.algebra, w)
        assert alpha == scalar_action(m.algebra, m.algebra.derived_subalgebra(), w.d)
        moved = moved_product(m, w)
        for a in (alpha, 2 * alpha, -alpha, alpha / 3):
            answer, widths = packed_widths(monkeypatch, classc.closed_form_matches, m, w, a)
            assert answer == closed_form_definition(moved, w, a) == (a == alpha)
            wide.add(widths[0] > linalg.MAX_PACKED_WIDTH)
    assert wide == {False, True}


def test_dense_goldens_reach_the_wide_side_of_each_packed_check(monkeypatch):
    """Each packed check meets slots past linalg.MAX_PACKED_WIDTH on a
    golden input (the documents at random.Random(1) that `test_golden`
    traces to the registry), so the CI diff of its golden report pins that
    side too."""
    m = load_shape("dense_document", 1, 9)
    assert min(packed_widths(monkeypatch, metric.lowered_constants, m)[1]) > linalg.MAX_PACKED_WIDTH
    m = load_shape("dense_flat_split", 1, 17)
    companion = riemannian_companion(m)
    assert min(packed_widths(monkeypatch, same_connection, m, companion)[1]) > linalg.MAX_PACKED_WIDTH
    split = theorems.theorem1_check(m).split
    assert min(packed_widths(monkeypatch, verify_eq2, m, split)[1]) > linalg.MAX_PACKED_WIDTH
    m = load_shape("dense_flat_class_c", 1, 7)
    metric.integer_product(m)
    w = classc.construct_witness(m)
    widths = packed_widths(monkeypatch, classc.closed_form_matches, m, w, classc.witness_scale(m.algebra, w))[1]
    assert min(widths) > linalg.MAX_PACKED_WIDTH


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
        units = linalg.units(n)
        algebras += [MetricLieAlgebra.make(a, units).change_basis(rational_basis(rng, n)).algebra for a in algebras]
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
        assert alpha == reference.scalar_action(a.c, U.basis, t)
        answers.append(alpha)
    assert sum(x is None for x in answers) >= 100
    assert sum(x is not None and x != 0 for x in answers) >= 30 and sum(x == 0 for x in answers) >= 10


def test_sweeps_run_no_membership_test_and_eliminate_int_rows(monkeypatch):
    """`restrict_form` hands `radical` and `congruence` its int view, so
    over whole sweeps the row clearing of `_bareiss` sees ints only."""
    rows, primitive_row = [], linalg._primitive_row

    def spied_row(row):
        rows.append(all(type(x) is int for x in row))
        return primitive_row(row)

    monkeypatch.setattr(linalg, "_primitive_row", spied_row)
    for seed in (100, 101, 102):
        sweeps.run_all(seed, 40)
    assert len(rows) > 5000 and all(rows)
