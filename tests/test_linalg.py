import random
from fractions import Fraction as F

import pytest

import populations
import reference
from flatlie import linalg, sweeps
from flatlie.errors import NonSymmetricError, SingularMatrixError
from flatlie.linalg import Signature, Subspace
from flatlie.metric import integer_product
from populations import rational, rational_basis


def rand_mat(rng, r, c):
    return [[rational(rng, 5) for _ in range(c)] for _ in range(r)]


def fraction_inverse(A):
    """A^-1 in Fractions, read off the int view `integer_inverse`."""
    Qi, q = linalg.integer_inverse(A)
    return [[F(x, q) for x in row] for row in Qi]


def rand_symmetric(rng, n):
    A = rand_mat(rng, n, n)
    return [[A[i][j] + A[j][i] for j in range(n)] for i in range(n)]


def test_rational_round_trips():
    rng = random.Random(1)
    for _ in range(300):
        a, b = rational(rng, 5), rational(rng, 5)
        assert (a + b) - b == a
        if b != 0:
            assert (a * b) / b == a


def test_frac_shares_fractions_and_refuses_floats():
    x = F(3, 7)
    assert linalg.frac(x) is x
    assert linalg.frac(2) == F(2) and type(linalg.frac(2)) is F
    assert linalg.frac("-4/6") == F(-2, 3)
    with pytest.raises(TypeError):
        linalg.frac(0.5)
    with pytest.raises(TypeError):
        linalg.exact_mat([[F(1), 0.5]])
    with pytest.raises(TypeError):
        Subspace.span(2, [[1, 0], [F(1, 2), 0.25]])


@pytest.mark.parametrize("w", [1, 2, 3, 8, 61, 1001])
def test_pack_round_trips_at_the_slot_limits(w):
    top = 2 ** (w - 1) - 1  # slot_width's bound: |v| < 2^(w-1)
    assert linalg.slot_width(top) == w
    rng = random.Random(w)
    for n in (1, 2, 5, 9):
        for row in ([top] * n, [-top] * n, [rng.choice((-top, 0, top)) for _ in range(n)],
                    [rng.randint(-top, top) for _ in range(n)]):
            assert linalg.unpack(linalg.pack(row, w), w, n) == row


def test_pack_borrows_across_slots():
    """A negative slot borrows 1 from the slot above it; unpack returns it."""
    assert linalg.pack([-1, 1], 8) == 255
    assert linalg.unpack(255, 8, 2) == [-1, 1]
    assert linalg.unpack(linalg.pack([-127, 127, -127], 8), 8, 3) == [-127, 127, -127]
    assert linalg.unpack(linalg.pack([-3, 0, 0, 2], 4), 4, 4) == [-3, 0, 0, 2]


@pytest.mark.parametrize("w", [2, 5, 64])
def test_pack_a_lone_nonzero_in_the_first_or_last_slot(w):
    top = 2 ** (w - 1) - 1
    for n in (1, 4, 7):
        for v in (1, -1, top, -top):
            for at in (0, n - 1):
                row = [0] * n
                row[at] = v
                x = linalg.pack(row, w)
                assert x == v << (w * at) and x != 0
                assert linalg.unpack(x, w, n) == row


def test_packed_row_is_zero_iff_every_slot_is():
    rng = random.Random(11)
    for _ in range(500):
        n, bound = rng.randint(1, 9), rng.choice((1, 7, 2**20, 10**40))
        w = linalg.slot_width(bound)
        row = [rng.choice((0, 0, rng.randint(-bound, bound))) for _ in range(n)]
        x = linalg.pack(row, w)
        assert (x == 0) == (not any(row))
        assert linalg.unpack(x, w, n) == row
        # a combination of packed rows is the packed combination, as long as it fits
        other = [rng.randint(-bound, bound) for _ in range(n)]
        w2 = linalg.slot_width(3 * bound)
        assert linalg.unpack(2 * linalg.pack(row, w2) - linalg.pack(other, w2), w2, n) == [
            2 * a - b for a, b in zip(row, other)
        ]


def test_pack_one_bit_too_narrow_lets_two_rows_collide():
    """Slots bounded by 5 need w = slot_width(5) = 4.  At w = 3 the rows
    (4, 0) and (-4, 1) both pack to 4."""
    assert linalg.slot_width(5) == 4
    assert linalg.pack([4, 0], 3) == linalg.pack([-4, 1], 3) == 4
    assert linalg.pack([4, 0], 4) != linalg.pack([-4, 1], 4)
    assert linalg.unpack(linalg.pack([-4, 1], 4), 4, 2) == [-4, 1]


def test_pack_row_packs_whole_rows_up_to_the_max_width():
    """Up to MAX_PACKED_WIDTH a row is one packed int; beyond it, one int
    per slot.  unpack_row reads either, also from a combination of rows."""
    rng = random.Random(12)
    for w in (2, 64, linalg.MAX_PACKED_WIDTH, linalg.MAX_PACKED_WIDTH + 1, 3000):
        top = 2 ** (w - 2) - 1  # a difference of two rows stays below 2^(w-1)
        for n in (1, 3, 8):
            row, other = ([rng.randint(-top, top) for _ in range(n)] for _ in range(2))
            xs, ys = linalg.pack_row(row, w), linalg.pack_row(other, w)
            assert xs == ((linalg.pack(row, w),) if w <= linalg.MAX_PACKED_WIDTH else tuple(row))
            assert linalg.unpack_row(xs, w, n) == row
            assert linalg.unpack_row([x - y for x, y in zip(xs, ys)], w, n) == [a - b for a, b in zip(row, other)]


def test_max_abs_of_an_int_tensor():
    assert linalg.max_abs((((0, -7), (3, 0)), ((2, 0), (0, 6)))) == 7
    assert linalg.max_abs((((0,),),)) == 0


def test_kernel_identity_is_zero_subspace():
    assert linalg.kernel(linalg.units(2)).dim == 0


def test_kernel_zero_matrix_is_everything():
    assert linalg.kernel(linalg.zeros(3, 3)) == Subspace.full(3)


def test_kernel_rank_one():
    A = [[1, 1], [2, 2]]
    K = linalg.kernel(A)
    assert K.dim == 1
    for v in K.basis:
        assert not any(linalg.dot(row, v) for row in A)
    assert K == Subspace.span(2, [[1, -1]])


def test_kernel_rank_nullity():
    rng = random.Random(2)
    for _ in range(40):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        A = rand_mat(rng, r, c)
        K = linalg.kernel(A)
        assert K.dim + reference.rank(A) == c
        for v in K.basis:
            assert not any(linalg.dot(row, v) for row in A)


@pytest.mark.parametrize(
    "S,expected",
    [
        ([[-1, 0, 0], [0, 1, 0], [0, 0, 1]], (2, 1, 0)),
        ([[0, 1], [1, 0]], (1, 1, 0)),
        ([[0, 0], [0, 0]], (0, 0, 2)),
        ([[1, 0], [0, 1]], (2, 0, 0)),
    ],
)
def test_signature_cases(S, expected):
    assert tuple(Signature.of(linalg.congruence([[F(x) for x in row] for row in S])[1])) == expected


def test_signature_rejects_nonsymmetric():
    with pytest.raises(NonSymmetricError):
        linalg.congruence([[0, 1], [0, 0]])


def test_signature_congruence_invariance():
    # Sylvester's law: congruence by any invertible P preserves the signature.
    rng = random.Random(3)
    for n in range(2, 7):
        for _ in range(10):
            entries = [rng.choice([-2, -1, 0, 1, 3]) for _ in range(n)]
            D = [[F(entries[i]) if i == j else F(0) for j in range(n)] for i in range(n)]
            Q = rational_basis(rng, n)
            S = reference.mat_mul(linalg.transpose(Q), reference.mat_mul(D, Q))
            expected = (
                sum(1 for x in entries if x > 0),
                sum(1 for x in entries if x < 0),
                sum(1 for x in entries if x == 0),
            )
            assert tuple(Signature.of(linalg.congruence(S)[1])) == expected
            P = rational_basis(rng, n)
            S2 = reference.mat_mul(linalg.transpose(P), reference.mat_mul(S, P))
            assert Signature.of(linalg.congruence(S2)[1]) == Signature.of(linalg.congruence(S)[1])


def test_congruence_is_exact():
    rng = random.Random(4)
    for n in range(1, 6):
        for _ in range(10):
            S = rand_symmetric(rng, n)
            E, d = linalg.congruence(S)
            D = reference.mat_mul(E, reference.mat_mul(S, linalg.transpose(E)))
            assert all(D[i][j] == (d[i] if i == j else 0) for i in range(n) for j in range(n))


def test_radical_cases():
    V = Subspace.full(2)
    assert linalg.radical([[1, 0], [0, -1]], V).dim == 0
    assert linalg.radical(linalg.zeros(2, 2), V) == V
    assert linalg.radical([[0, 0], [0, 1]], V) == Subspace.span(2, [[1, 0]])


def test_restrict_form_on_an_integer_view():
    """restrict_form's view (R, den) on the cleared view Gi / g and on the
    Fraction G alike, and the block between two subspaces, against Fraction
    sums: R holds ints for the int Gi, over den = g V.b W.b."""
    rng = random.Random(14)

    def fractions(view):
        R, den = view
        return [[F(x) / den for x in row] for row in R]

    for _ in range(30):
        n = rng.randint(1, 5)
        G = rand_symmetric(rng, n)
        Gi, g = linalg.clear_denominators(G)
        V = Subspace.span(n, rand_mat(rng, rng.randint(0, n), n))
        W = Subspace.span(n, rand_mat(rng, rng.randint(0, n), n))
        block = [[reference.form(G, v, w) for w in W.basis] for v in V.basis]
        assert fractions(linalg.restrict_form(Gi, V, g, W)) == block == fractions(linalg.restrict_form(G, V, 1, W))
        R, den = linalg.restrict_form(Gi, V, g)
        assert fractions((R, den)) == [[reference.form(G, v, w) for w in V.basis] for v in V.basis]
        assert all(type(x) is int for row in R for x in row) and den == g * V.b * V.b


def test_radical_contained_and_counts_zeros():
    rng = random.Random(8)
    for _ in range(20):
        n = rng.randint(2, 5)
        k = rng.randint(1, n)
        V = Subspace.span(n, [rand_mat(rng, 1, n)[0] for _ in range(k)])
        if V.dim == 0:
            continue
        G = rand_symmetric(rng, n)
        R, den = linalg.restrict_form(G, V)
        rad = linalg.radical(R, V)
        for row in rad.basis:
            assert V.contains(row)
            for w in V.basis:
                assert reference.form(G, row, w) == 0
        # the induced form on V / radical is nondegenerate
        assert Signature.of(linalg.congruence(R, den)[1]).n_zero == rad.dim


def test_orthogonal_complement_cases():
    G = [[-1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert linalg.orthogonal_complement(Subspace.full(3), G).dim == 0
    V = Subspace.span(3, [[1, 0, 0]])
    assert linalg.orthogonal_complement(V, G) == Subspace.span(3, [[0, 1, 0], [0, 0, 1]])
    # a degenerate form is not refused: V-perp is {x : <v, x> = 0 on V}
    degenerate = [[1, 0, 0], [0, 0, 0], [0, 0, 0]]
    assert linalg.orthogonal_complement(V, degenerate) == Subspace.span(3, [[0, 1, 0], [0, 0, 1]])


def test_orthogonal_complement_dimension_identity():
    rng = random.Random(9)
    for _ in range(20):
        n = rng.randint(2, 5)
        G = rand_symmetric(rng, n)
        if reference.rank(G) < n:
            continue
        V = Subspace.span(n, [rand_mat(rng, 1, n)[0] for _ in range(rng.randint(0, n))])
        W = linalg.orthogonal_complement(V, G)
        assert V.dim + W.dim == n
        for v in V.basis:
            for w in W.basis:
                assert reference.form(G, v, w) == 0


def _bareiss_cases():
    """Int matrices for `_bareiss`: tall, rank-deficient (a row replaced by
    an int combination of others), with zero columns, sparse (so many rows
    meet a pivot column at 0) and with 30-digit entries."""
    rng = random.Random(12)
    cases = [[[0, 0], [0, 0]], [[0, 2, 0], [0, 0, 3], [0, 1, 0]], [[2, 1, 0], [1, 1, 0], [0, 0, 1]]]
    for trial in range(80):
        r, c = rng.randint(1, 9), rng.randint(1, 7)
        if trial % 4 == 0:
            r = c + rng.randint(2, 6)  # tall
        big = 10**30 if trial % 5 == 0 else 1
        A = [[rng.choice([0, 0, 0, rng.randint(-9, 9) * big]) for _ in range(c)] for _ in range(r)]
        for j in rng.sample(range(c), rng.randint(0, c // 2)):  # zero columns
            for row in A:
                row[j] = 0
        if r > 2 and trial % 2:
            k, p, q = rng.sample(range(r), 3)
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            A[k] = [a * x + b * y for x, y in zip(A[p], A[q])]
        cases.append(A)
    return cases


def test_bareiss_matches_the_fraction_rref():
    """R / d, the pivots and the zero rows after them are the reduced
    echelon form that Fraction elimination finds, on every case."""
    cases = _bareiss_cases()
    assert sum(reference.rank(A) < min(len(A), len(A[0])) for A in cases) >= 20
    for A in cases:
        R, pivots, d = linalg._bareiss([list(row) for row in A])
        expected, expected_pivots = reference.rref(A)
        assert pivots == expected_pivots, A
        assert [[F(x, d) for x in row] for row in R] == expected, A


def test_integer_inverse():
    rng = random.Random(10)
    for _ in range(20):
        n = rng.randint(1, 5)
        A = rational_basis(rng, n)
        assert reference.mat_mul(A, fraction_inverse(A)) == linalg.units(n)
    with pytest.raises(SingularMatrixError):
        linalg.integer_inverse([[1, 1], [1, 1]])


def test_integer_inverse_raises_exactly_on_singular():
    rng = random.Random(11)
    for trial in range(60):
        n = rng.randint(1, 5)
        A = rand_mat(rng, n, n)
        if trial % 2:
            # replace a row by a combination of (up to) two others
            k = rng.randrange(n)
            picks = rng.sample([r for r in range(n) if r != k], min(2, n - 1))
            coeffs = [rational(rng, 5) for _ in picks]
            A[k] = [sum((c * A[p][j] for c, p in zip(coeffs, picks)), F(0)) for j in range(n)]
        if reference.rank(A) < n:
            with pytest.raises(SingularMatrixError):
                linalg.integer_inverse(A)
        else:
            assert reference.mat_mul(A, fraction_inverse(A)) == linalg.units(n)


def test_subspace_canonical_equality():
    a = Subspace.span(3, [[1, 1, 0], [0, 0, 1]])
    b = Subspace.span(3, [[2, 2, 2], [0, 0, -1], [1, 1, 1]])
    assert a == b
    assert a.contains([3, 3, 5])
    assert not a.contains([1, 0, 0])
    assert Subspace.span(3, [[0, 0, 0]]).dim == 0
    assert a.coordinates([3, 3, 5]) == [3, 5]
    assert a.coordinates([1, 0, 0]) is None
    assert Subspace(2, ()).coordinates([0, 0]) == []


def test_coordinates_refuse_vectors_of_the_wrong_length():
    V = Subspace.span(3, [[1, 0, 0]])
    for v in ([1], [1, 0, 0, 5], []):
        with pytest.raises(ValueError, match="ambient dimension 3"):
            V.coordinates(v)
        with pytest.raises(ValueError, match="ambient dimension 3"):
            V.contains(v)
    with pytest.raises(ValueError, match="ambient dimension 0"):
        Subspace(0, ()).coordinates([0])
    with pytest.raises(ValueError, match="ambient dimension 0"):
        Subspace(0, ()).contains([0])


def test_contains_is_coordinates_found(monkeypatch):
    """`contains` decides membership on the int residual that `coordinates`
    forms, so the two agree on members and non-members, int and Fraction
    vectors, and the zero subspace; on int vectors `contains` builds no
    Fraction at all."""
    rng = random.Random(38)
    cases = []
    for n in range(1, 7):
        for k in range(n + 1):
            basis = rand_mat(rng, k, n)
            V = Subspace.span(n, basis) if k else Subspace(n)
            for _ in range(4):
                coeffs = [rational(rng, 5) for _ in basis]
                member = [sum((c * row[j] for c, row in zip(coeffs, basis)), F(0)) for j in range(n)]
                (scaled,), _ = linalg.clear_denominators([member])
                for v in (member, scaled, [rational(rng, 5) for _ in range(n)], [rng.randint(-3, 3) for _ in range(n)]):
                    cases.append((V, v))
    found = [V.coordinates(v) is not None for V, v in cases]
    assert [V.contains(v) for V, v in cases] == found
    assert sum(found) > 200 and len(found) - sum(found) > 100

    def refuse(*args):
        raise AssertionError("Fraction built")

    monkeypatch.setattr(linalg, "Fraction", refuse)
    ints = [i for i, (_, v) in enumerate(cases) if all(type(x) is int for x in v)]
    assert len(ints) > 200 and 100 < sum(found[i] for i in ints) < len(ints) - 50
    assert [cases[i][0].contains(cases[i][1]) for i in ints] == [found[i] for i in ints]


def test_tensor_contraction_index_convention():
    """T[i][j][k] is the e_k coefficient of T(e_i, e_j), pinned on a
    Levi-Civita product, which is not antisymmetric, and for the transport
    on an antisymmetric tensor, the only kind it takes."""
    rng = random.Random(3)
    T = linalg.fraction_tensor(*integer_product(sweeps.random_metric_algebra(rng, 4)))
    n = len(T)
    assert any(T[i][j] != tuple(-x for x in T[j][i]) for i in range(n) for j in range(n))
    e = linalg.units(n)
    for i in range(n):
        for j in range(n):
            assert linalg.bilinear(T, e[i], e[j]) == list(T[i][j])
    for _ in range(5):
        x = [rational(rng, 5) for _ in range(n)]
        y = [rational(rng, 5) for _ in range(n)]
        Txy = linalg.bilinear(T, x, y)
        assert [linalg.dot(row, y) for row in linalg.left_matrix(T, x)] == Txy
        assert [linalg.dot(row, x) for row in reference.right_mult(T, y)] == Txy

    # the transport of an antisymmetric view (C, E), pinned by the same contraction
    C = populations.antisymmetric_tensor(rng, n, lambda r: r.randint(-5, 5))
    c = linalg.fraction_tensor(C, 7)

    def transport(C, P, E):
        return linalg.fraction_tensor(*linalg.integer_transport(C, P, E))

    assert transport(C, [[F(int(i == j)) for j in range(n)] for i in range(n)], 7) == c
    P = rational_basis(rng, n)
    X, x = linalg.integer_transport(C, P, 7)
    moved = linalg.fraction_tensor(X, x)
    cols = linalg.transpose(P)
    assert [linalg.dot(row, moved[0][1]) for row in P] == linalg.bilinear(c, cols[0], cols[1])
    assert transport(X, fraction_inverse(P), x) == c
    with pytest.raises(SingularMatrixError):
        linalg.integer_transport(C, linalg.zeros(n, n), 7)
