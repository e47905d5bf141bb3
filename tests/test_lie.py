import random
from fractions import Fraction as F

import pytest

import reference
from flatlie import linalg, sweeps
from flatlie.errors import AntisymmetryError, JacobiError, SingularMatrixError
from flatlie.lie import LieAlgebra, integer_view
from flatlie.linalg import Subspace
from flatlie.metric import MetricLieAlgebra
from populations import six_digit


def solvable2():
    return LieAlgebra.from_brackets(2, {(0, 1): [0, 1]})


def heisenberg():
    return LieAlgebra.from_brackets(3, {(0, 1): [0, 0, 1]})


def so3():
    return LieAlgebra.from_brackets(
        3, {(0, 1): [0, 0, 1], (1, 2): [1, 0, 0], (0, 2): [0, -1, 0]}
    )


def rot3():
    return LieAlgebra.from_brackets(3, {(0, 1): [0, 0, 1], (0, 2): [0, -1, 0]})


def test_constructor_refuses_a_bad_integer_view():
    """`LieAlgebra(dim, C, E, labels)` checks the view itself, each refusal
    naming its field: int entries, E >= 1 and least terms, on which
    equality and hash rely; and the labels, None or one string per basis
    vector, so every emitted document loads."""
    o = (0, 0)
    C = ((o, (0, 2)), ((0, -2), o))  # [e0, e1] = 2 e1 / E
    assert LieAlgebra(2, C, 3) == LieAlgebra.from_brackets(2, {(0, 1): [0, F(2, 3)]})
    with pytest.raises(TypeError, match="C: "):
        LieAlgebra(2, ((o, (0, F(2))), ((0, F(-2)), o)), 3)
    with pytest.raises(TypeError, match="C: "):
        LieAlgebra(2, ((o, (0, 2.0)), ((0, -2.0), o)), 3)
    for E in (0, -3):
        with pytest.raises(ValueError, match="E: "):
            LieAlgebra(2, C, E)
    with pytest.raises(ValueError, match="C, E: .*least terms"):
        LieAlgebra(2, C, 4)  # 2 / 4 is 1 / 2: not the least view
    with pytest.raises(ValueError, match="C: "):
        LieAlgebra(2, [[list(o), [0, 2]], [[0, -2], list(o)]], 3)  # lists would make the record mutable
    with pytest.raises(ValueError, match="C: "):
        LieAlgebra(3, C, 3)
    for labels in (["x"], [1, 2], ["x", "y", "z"]):
        with pytest.raises(ValueError, match="labels: "):
            LieAlgebra.from_brackets(2, {}, labels)
    for labels in (("x",), ["x", "y"], ("x", 2)):
        with pytest.raises(ValueError, match="labels: "):
            LieAlgebra(2, C, 3, labels)
    assert LieAlgebra.from_brackets(2, {}, ["x", "y"]).labels == ("x", "y")


def test_from_brackets_refuses_keys_outside_the_strict_upper_triangle():
    """Only keys (i, j) with 0 <= i < j < dim are read: the lower triangle
    is the antisymmetric completion, never a second entry."""
    for key in ((1, 0), (1, 1), (-1, 1), (0, 3)):
        with pytest.raises(ValueError, match=r"bracket key .* must satisfy 0 <= i < j < dim"):
            LieAlgebra.from_brackets(3, {key: [0, 0, 1]})


def test_from_brackets_refuses_rows_of_the_wrong_length():
    """A short or long coefficient row is refused, not padded or truncated."""
    for coeffs in ([0, 1], [0, 0, 1, 0], []):
        with pytest.raises(ValueError, match=rf"bracket \(0, 1\) has {len(coeffs)} coefficients, expected 3"):
            LieAlgebra.from_brackets(3, {(0, 1): coeffs})


def test_from_brackets_refuses_floats_and_clears_fractions():
    """Floats are refused; Fraction coefficients are cleared to the least
    int view (C, E), which `c` reads back as the same Fractions."""
    with pytest.raises(TypeError, match="inexact float"):
        LieAlgebra.from_brackets(2, {(0, 1): [0, 0.5]})
    half = LieAlgebra.from_brackets(2, {(0, 1): [0, F(1, 2)]})
    assert (half.C, half.E) == ((((0, 0), (0, 1)), ((0, -1), (0, 0))), 2)
    assert all(type(x) is int for plane in half.C for row in plane for x in row)
    assert half.c[0][1] == (0, F(1, 2)) and half.c[1][0] == (0, F(-1, 2))

def center(a):
    """{x : [x, y] = 0 for all y}, as an exact kernel."""
    n = a.dim
    return linalg.kernel([[a.c[i][j][k] for i in range(n)] for j in range(n) for k in range(n)])


def jacobi_residuals(dim, bracket_fn):
    """Independent oracle, for any dim: the cyclic Jacobi sum of each triple
    i < j < k, evaluated directly and yielded lazily in the constructor's
    loop order."""
    basis = linalg.units(dim)
    for i in range(dim):
        for j in range(i + 1, dim):
            for k in range(j + 1, dim):
                r = [F(0)] * dim
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                    inner = bracket_fn(basis[b], basis[c])
                    term = bracket_fn(basis[a], inner)
                    r = [x + y for x, y in zip(r, term)]
                yield (i, j, k), r


def brute_jacobi_residuals(dim, bracket_fn):
    return dict(jacobi_residuals(dim, bracket_fn))


def tensor_bracket(c):
    """[x, y] = sum_ij x_i y_j c[i][j] for a full tensor c of Fractions,
    by the reference's contraction."""
    return lambda x, y: reference.bilinear(c, x, y)


def full_tensor(dim, brackets):
    """The full tensor of the upper-triangle brackets {(i, j): column}."""
    c = [[[F(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for (i, j), v in brackets.items():
        c[i][j], c[j][i] = [F(x) for x in v], [-F(x) for x in v]
    return c


def jacobi_check_matches_the_oracle(dim, brackets):
    """Whether the constructor accepts brackets, asserting that it does
    exactly when every oracle residual vanishes and otherwise names the
    oracle's first failing triple with its residual."""
    residuals = jacobi_residuals(dim, tensor_bracket(full_tensor(dim, brackets)))
    failing = next(((t, r) for t, r in residuals if not linalg.is_zero_vec(r)), None)
    if failing is None:
        LieAlgebra.from_brackets(dim, brackets)
        return True
    with pytest.raises(JacobiError) as exc:
        LieAlgebra.from_brackets(dim, brackets)
    assert (exc.value.triple, list(exc.value.residual)) == failing
    return False


def perturbed_brackets(rng, dim):
    """The upper-triangle brackets of a generated Lie algebra of dim with
    one to three entries moved by a random rational: some of these still
    satisfy Jacobi, most do not."""
    a = LieAlgebra.from_brackets(*sweeps.random_algebra(rng, dim))
    brackets = {(i, j): list(a.c[i][j]) for i in range(dim) for j in range(i + 1, dim)}
    for _ in range(rng.randint(1, 3)):
        i, j = sorted(rng.sample(range(dim), 2))
        brackets[(i, j)][rng.randrange(dim)] += F(rng.randint(-4, 4), rng.choice((1, 2, 3, 5)))
    return brackets


def test_jacobi_check_matches_the_oracle_on_perturbed_tensors():
    """Dims 3-9: the constructor accepts exactly the tensors whose oracle
    residuals all vanish, and otherwise names the oracle's first failing
    triple with its residual."""
    rng = random.Random(3)
    accepted = []
    for k in range(70):
        dim = 3 + k % 7
        accepted.append(jacobi_check_matches_the_oracle(dim, perturbed_brackets(rng, dim)))
    assert accepted.count(True) >= 5 and accepted.count(False) >= 30


def big_entry_brackets(rng, dim):
    """The upper-triangle brackets of a non-abelian generated algebra moved
    to a basis with 6-digit denominators, then, in three cases out of four,
    one or two entries moved by a 6-digit rational: entries of hundreds to
    thousands of bits."""
    a = LieAlgebra.from_brackets(*sweeps.random_algebra(rng, dim))
    while not a.derived_subalgebra().dim:
        a = LieAlgebra.from_brackets(*sweeps.random_algebra(rng, dim))
    while True:
        P = [[F(int(i == j)) + six_digit(rng) * (rng.random() < 0.6)
              for j in range(dim)] for i in range(dim)]
        if reference.rank(P) == dim:
            break
    c = reference.transport(a.c, P)
    brackets = {(i, j): list(c[i][j]) for i in range(dim) for j in range(i + 1, dim)}
    if rng.random() < 0.75:
        for _ in range(rng.randint(1, 2)):
            i, j = sorted(rng.sample(range(dim), 2))
            brackets[(i, j)][rng.randrange(dim)] += six_digit(rng)
    return brackets


def test_jacobi_check_matches_the_brute_oracle_on_big_entry_tensors():
    """Dims 3-7 with 6-digit data, on both sides of the packing width
    (the residual slot width is about twice the bits of the largest
    integer structure constant): accepted iff every oracle residual
    vanishes, else the oracle's first triple and its residual."""
    rng = random.Random(5)
    accepted, widths = [], []
    for k in range(30):
        dim = 3 + k % 5
        brackets = big_entry_brackets(rng, dim)
        C, _ = integer_view(dim, brackets)
        widths.append(linalg.slot_width(3 * dim * linalg.max_abs(C) ** 2))
        accepted.append(jacobi_check_matches_the_oracle(dim, brackets))
    assert accepted.count(True) >= 5 and accepted.count(False) >= 10
    assert sum(w > linalg.MAX_PACKED_WIDTH for w in widths) >= 5 and min(widths) <= linalg.MAX_PACKED_WIDTH


def test_validate_abelian_and_dim2():
    LieAlgebra.abelian(4)
    solvable2()  # Jacobi vacuous in dim 2


def test_validate_dim3_via_brute_force_oracle():
    # [e1,e2]=e3, [e1,e3]=e2, [e2,e3]=0: the oracle says Jacobi holds, so
    # the constructor must accept it.
    a = LieAlgebra.from_brackets(3, {(0, 1): [0, 0, 1], (0, 2): [0, 1, 0]})
    for r in brute_jacobi_residuals(3, tensor_bracket(a.c)).values():
        assert linalg.is_zero_vec(r)


def test_jacobi_violation_reports_triple_and_residual():
    # [e1,e2]=e3 and [e2,e3]=e2 break Jacobi; confirm against the oracle first.
    brackets = {(0, 1): [F(0), F(0), F(1)], (1, 2): [F(0), F(1), F(0)]}

    def raw_bracket(x, y):
        out = [F(0)] * 3
        for (i, j), v in brackets.items():
            coef = x[i] * y[j] - x[j] * y[i]
            if coef:
                out = [o + coef * c for o, c in zip(out, v)]
        return out

    oracle = brute_jacobi_residuals(3, raw_bracket)
    assert not linalg.is_zero_vec(oracle[(0, 1, 2)])
    with pytest.raises(JacobiError) as exc:
        LieAlgebra.from_brackets(3, brackets)
    assert exc.value.triple == (0, 1, 2)
    assert list(exc.value.residual) == oracle[(0, 1, 2)]


#: (dim, upper-triangle brackets, failing triple, its residual): sparse
#: tables whose failing triple has one zero plane (the first two) or two
#: (the last two), and whose earlier triples have zero planes too.  The
#: triples and residuals were recorded from the Jacobi check that added
#: all three planes of every triple.
SPARSE_JACOBI_FAILURES = [
    (6, {(1, 5): ["0", "-1/2", "0", "0", "0", "-3/2"], (2, 4): ["0", "1", "0", "0", "0", "0"],
         (2, 5): ["0", "0", "0", "0", "-1", "-2"]},
     (1, 2, 5), ["0", "1", "0", "0", "-3/2", "0"]),
    (5, {(1, 3): ["0", "1", "0", "0", "0"], (1, 4): ["0", "1", "0", "0", "0"],
         (2, 4): ["0", "-1", "-1/2", "0", "0"], (3, 4): ["0", "1/3", "0", "0", "0"]},
     (2, 3, 4), ["0", "-1", "0", "0", "0"]),
    (7, {(1, 2): ["0", "1", "0", "-1", "0", "-2", "-2/3"], (1, 6): ["0", "0", "0", "-1/3", "0", "0", "3/2"],
         (5, 6): ["-2/3", "0", "2/3", "0", "-1/3", "0", "0"]},
     (1, 2, 5), ["4/9", "0", "-4/9", "0", "2/9", "0", "0"]),
    (7, {(1, 3): ["0", "0", "0", "-1", "0", "-1/2", "-3/2"], (2, 4): ["0", "0", "0", "0", "1", "0", "0"],
         (2, 5): ["0", "0", "0", "-3", "0", "0", "-3/2"]},
     (1, 2, 3), ["0", "0", "0", "-3/2", "0", "0", "-3/4"]),
]


def _scaled(case, f):
    """The case with every structure constant f times as large: the same
    failing triple, with the residual f^2 times as large."""
    dim, brackets, triple, residual = case
    return (dim, {key: [str(F(x) * f) for x in row] for key, row in brackets.items()},
            triple, [str(F(x) * f * f) for x in residual])


#: the first and last sparse failures with constants of about 200
#: digits, whose Jacobi slots are wider than `linalg.MAX_PACKED_WIDTH`:
#: each residual is then formed one int per entry, not one packed int per row
WIDE_JACOBI_FAILURES = [_scaled(SPARSE_JACOBI_FAILURES[0], 10**200), _scaled(SPARSE_JACOBI_FAILURES[-1], -(7**240))]


@pytest.mark.parametrize("dim,brackets,triple,residual", WIDE_JACOBI_FAILURES)
def test_wide_jacobi_failures_are_not_packed(dim, brackets, triple, residual):
    C, _ = integer_view(dim, {key: [F(x) for x in row] for key, row in brackets.items()})
    assert linalg.slot_width(3 * dim * linalg.max_abs(C) ** 2) > linalg.MAX_PACKED_WIDTH


@pytest.mark.parametrize("dim,brackets,triple,residual", SPARSE_JACOBI_FAILURES + WIDE_JACOBI_FAILURES)
def test_jacobi_check_skips_zero_planes_and_names_the_same_triple(dim, brackets, triple, residual):
    """Adding only the nonzero planes of each triple leaves the first
    failing triple and its residual as they were."""
    i, j, k = triple
    zero_planes = sum(not any(F(x) for x in brackets.get(p, ["0"])) for p in ((j, k), (i, k), (i, j)))
    assert zero_planes in (1, 2)
    with pytest.raises(JacobiError) as exc:
        LieAlgebra.from_brackets(dim, brackets)
    assert exc.value.triple == triple
    assert exc.value.residual == tuple(F(x) for x in residual)
    oracle = brute_jacobi_residuals(dim, tensor_bracket(full_tensor(dim, brackets)))
    assert next((t, r) for t, r in oracle.items() if not linalg.is_zero_vec(r)) == (triple, list(exc.value.residual))


def tensor_view(c):
    """The Fraction tensor c as the fields (C, E) of `LieAlgebra`."""
    rows, E = linalg.clear_denominators([row for plane in c for row in plane])
    return linalg.planes(rows, len(c)), E


def test_antisymmetry_violation_on_full_tensor():
    c = [[[F(0)] * 2 for _ in range(2)] for _ in range(2)]
    c[0][1][1] = F(1)
    c[1][0][1] = F(1)  # should be -1
    with pytest.raises(AntisymmetryError):
        LieAlgebra(2, *tensor_view(c))


def test_antisymmetry_violation_names_the_first_triple():
    """The first (i, j, k) in loop order (i <= j, then k) is reported: a
    nonzero diagonal c[i][i][k], and a 1/2 vs -1/3 pair that a common
    denominator must not make equal."""
    def zeros():
        return [[[F(0)] * 3 for _ in range(3)] for _ in range(3)]

    c = zeros()
    c[1][1][2] = F(5)
    c[2][2][0] = F(1)
    with pytest.raises(AntisymmetryError) as exc:
        LieAlgebra(3, *tensor_view(c))
    assert exc.value.triple == (1, 1, 2)
    c = zeros()
    c[0][2][1], c[2][0][1] = F(1, 2), F(-1, 3)
    c[1][2][0], c[2][1][0] = F(1), F(1)
    with pytest.raises(AntisymmetryError) as exc:
        LieAlgebra(3, *tensor_view(c))
    assert exc.value.triple == (0, 2, 1)


def test_ad_matrices():
    """The int contraction `linalg.bilinear` of C is E times the bracket,
    antisymmetric, and the reference's ad x applied to y."""
    assert not any(map(any, reference.left_mult(LieAlgebra.abelian(3).c, [F(1), F(2), F(3)])))
    a = solvable2()
    assert reference.left_mult(a.c, [F(1), F(0)]) == [[0, 0], [0, 1]]
    rng = random.Random(0)
    for alg in (heisenberg(), so3(), rot3()):
        for _ in range(10):
            x = [rng.randint(-3, 3) for _ in range(3)]
            y = [rng.randint(-3, 3) for _ in range(3)]
            xy = linalg.bilinear(alg.C, x, y)
            assert linalg.is_zero_vec(linalg.bilinear(alg.C, x, x))
            assert xy == [-v for v in linalg.bilinear(alg.C, y, x)]
            assert [alg.E * v for v in reference.bilinear(alg.c, x, y)] == xy
            assert [linalg.dot(row, y) for row in reference.left_mult(alg.c, x)] == reference.bilinear(alg.c, x, y)


def test_derived_subalgebra():
    assert LieAlgebra.abelian(3).derived_subalgebra().dim == 0
    assert solvable2().derived_subalgebra() == Subspace.span(2, [[0, 1]])
    # class-C algebra in dim n has an (n-1)-dimensional derived ideal
    for n in (3, 4, 5):
        brackets = {(0, j): [F(0)] * n for j in range(1, n)}
        for j in range(1, n):
            brackets[(0, j)] = [F(1) if k == j else F(0) for k in range(n)]
        a = LieAlgebra.from_brackets(n, brackets)
        assert a.derived_subalgebra().dim == n - 1


def test_derived_subalgebra_is_the_span_of_the_fraction_brackets():
    """The derived algebra is read off the int rows of the field C;
    spanning the Fraction brackets gives the same canonical basis, entry by
    entry, Fractions included."""
    rng = random.Random(34)
    algebras = [solvable2(), heisenberg(), so3(), rot3()]
    for dim in range(2, 8):
        algebras += [sweeps.theorem1_true_instance(rng, dim).algebra, LieAlgebra.from_brackets(*sweeps.class_c_algebra(rng, dim))]
    for a in algebras:
        D = a.derived_subalgebra()
        assert D.basis == reference.derived(a.c)
        assert all(type(x) is F for row in D.basis for x in row)


def test_derived_is_ideal():
    for alg in (solvable2(), heisenberg(), so3(), rot3()):
        D = alg.derived_subalgebra()
        basis = linalg.units(alg.dim)
        for e in basis:
            for d in D.basis:
                assert reference.rank([*D.basis, reference.bilinear(alg.c, e, d)]) == D.dim


def test_unimodular():
    assert LieAlgebra.abelian(2).is_unimodular()
    assert not solvable2().is_unimodular()  # trace ad(e1) = 1
    assert rot3().is_unimodular()
    assert so3().is_unimodular()


def test_two_solvable():
    assert LieAlgebra.abelian(2).is_2_solvable()
    assert rot3().is_2_solvable()
    assert not so3().is_2_solvable()


def test_is_abelian_subspace():
    a = solvable2()
    assert a.is_abelian_subspace(Subspace.span(2, [[0, 1]]))
    assert not a.is_abelian_subspace(Subspace.full(2))
    r = rot3()
    assert r.is_abelian_subspace(Subspace.span(3, [[1, 0, 0]]))


def riemannian(a):
    """a with the identity Gram matrix, so that the metric's change of basis
    moves a."""
    return MetricLieAlgebra.make(a, linalg.units(a.dim))


def test_change_basis_identity_and_roundtrip():
    a = rot3()
    m = riemannian(a)
    assert m.change_basis([[F(int(i == j)) for j in range(3)] for i in range(3)]).algebra.c == a.c
    rng = random.Random(1)
    while True:
        P = [[F(rng.randint(-2, 2)) for _ in range(3)] for _ in range(3)]
        if reference.rank(P) == 3:
            break
    b = m.change_basis(P)
    Qi, q = linalg.integer_inverse(P)
    assert b.change_basis([[F(x, q) for x in row] for row in Qi]) == m


def test_change_basis_permutation():
    a = solvable2()
    swap = [[F(0), F(1)], [F(1), F(0)]]
    b = riemannian(a).change_basis(swap).algebra
    # new basis f1 = e2, f2 = e1: [f1, f2] = [e2, e1] = -e2 = -f1
    assert list(b.c[0][1]) == [F(-1), F(0)]


def test_change_basis_preserves_structure():
    rng = random.Random(2)
    for alg in (solvable2(), heisenberg(), so3(), rot3()):
        n = alg.dim
        while True:
            P = [[F(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
            if reference.rank(P) == n:
                break
        b = riemannian(alg).change_basis(P).algebra
        assert b.is_unimodular() == alg.is_unimodular()
        assert b.is_2_solvable() == alg.is_2_solvable()
        assert b.derived_subalgebra().dim == alg.derived_subalgebra().dim
        assert center(b).dim == center(alg).dim


def test_change_basis_rejects_singular():
    with pytest.raises(SingularMatrixError):
        riemannian(solvable2()).change_basis([[1, 1], [1, 1]])
