import random
from collections import Counter
from fractions import Fraction as F

import pytest

import populations
import reference
from flatlie import catalog, inputdoc, linalg, sweeps
from flatlie.errors import DegenerateFormError, HypothesisNotMetError, NonSymmetricError
from flatlie.lie import LieAlgebra
from flatlie.linalg import Signature, Subspace
from flatlie.metric import (
    MetricLieAlgebra,
    integer_product,
    is_flat,
    killing_rows,
    killing_subalgebra,
    timelike_vector,
    verify_killing_triple_identity,
)


def abelian_minkowski():
    return catalog.build("abelian_minkowski")


def random_instances(seed, count, dims=(2, 3, 4)):
    rng = random.Random(seed)
    return [sweeps.random_metric_algebra(rng, rng.choice(dims)) for _ in range(count)]


def fraction_product(m):
    """m's Levi-Civita product p = P / D, one Fraction per entry."""
    return linalg.fraction_tensor(*integer_product(m))


def test_construction_validation():
    a = LieAlgebra.abelian(2)
    with pytest.raises(NonSymmetricError):
        MetricLieAlgebra.make(a, [[1, 1], [0, 1]])
    with pytest.raises(DegenerateFormError):
        MetricLieAlgebra.make(a, [[1, 1], [1, 1]])
    m = MetricLieAlgebra.make(a, [[0, 1], [1, 0]])
    assert tuple(m.signature) == (1, 1, 0)
    assert m.is_lorentzian and not m.is_riemannian


def test_inner_is_exact_and_refuses_floats():
    m = catalog.build("rot3")
    with pytest.raises(TypeError):
        m.inner([0.5, 0, 0], [1, 0, 0])
    with pytest.raises(TypeError):
        m.inner([1, 0, 0], (F(1), 2.0, 0))
    rng = random.Random(12)
    for m in random_instances(13, 20, dims=(2, 3, 4, 5)):
        m = m.scale_gram(F(rng.randint(1, 9), rng.randint(1, 9)))
        for _ in range(5):
            x = [F(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(m.dim)]
            y = [rng.randint(-5, 5) for _ in range(m.dim)]
            value = sum((x[i] * m.gram[i][j] * y[j] for i in range(m.dim) for j in range(m.dim)), F(0))
            assert m.inner(x, y) == value == m.inner(y, x)
            assert type(m.inner(x, y)) is F


def test_inner_refuses_vectors_of_the_wrong_length():
    m = catalog.build("rot3")
    for x, y in (([1], [1, 0, 0]), ([1, 2, 3, 4], [1, 0, 0, 9]), ([1, 0, 0], [1, 0])):
        with pytest.raises(ValueError, match="algebra dimension 3"):
            m.inner(x, y)


def test_signature_is_derived_not_passed():
    """The signature is read off the Gram view (G, g); a caller cannot
    supply one, and neither the fields nor the Fraction view `gram` can be
    rebound."""
    a = LieAlgebra.abelian(2)
    G = ((0, 1), (1, 0))
    with pytest.raises(TypeError):
        MetricLieAlgebra(a, G, 1, linalg.Signature(9, 9, 9))
    with pytest.raises(TypeError):
        MetricLieAlgebra(a, G, 1, signature=linalg.Signature(9, 9, 9))
    m = MetricLieAlgebra(a, G, 1)
    assert m.signature == linalg.Signature(1, 1, 0)
    assert m.gram == ((F(0), F(1)), (F(1), F(0)))
    with pytest.raises(AttributeError):
        m.signature = linalg.Signature(2, 0, 0)
    with pytest.raises(AttributeError):
        m.gram = ((F(1), F(0)), (F(0), F(1)))
    with pytest.raises(AttributeError):
        m.G = ((1, 0), (0, 1))


def test_constructor_refuses_a_bad_gram_view():
    """`MetricLieAlgebra(algebra, G, g)` checks the view itself, each
    refusal naming its field: int entries, g >= 1, symmetry and least
    terms, on which equality and hash rely."""
    a = LieAlgebra.abelian(2)
    G = ((2, 1), (1, -3))
    assert MetricLieAlgebra(a, G, 5) == MetricLieAlgebra.make(a, [[F(2, 5), F(1, 5)], [F(1, 5), F(-3, 5)]])
    with pytest.raises(TypeError, match="G: "):
        MetricLieAlgebra(a, ((F(2), 1), (1, -3)), 5)
    with pytest.raises(TypeError, match="G: "):
        MetricLieAlgebra(a, ((2.0, 1), (1, -3)), 5)
    for g in (0, -5):
        with pytest.raises(ValueError, match="g: "):
            MetricLieAlgebra(a, G, g)
    with pytest.raises(NonSymmetricError, match="G: "):
        MetricLieAlgebra(a, ((2, 1), (3, -3)), 5)
    with pytest.raises(ValueError, match="G, g: .*least terms"):
        MetricLieAlgebra(a, ((4, 2), (2, -6)), 10)  # G / g = G' / 5: not the least view
    with pytest.raises(ValueError, match="G: "):
        MetricLieAlgebra(a, [[2, 1], [1, -3]], 5)  # lists would make the record mutable
    with pytest.raises(ValueError, match="G: "):
        MetricLieAlgebra(a, ((1,),), 1)
    with pytest.raises(DegenerateFormError):
        MetricLieAlgebra(a, ((1, 1), (1, 1)), 1)


def test_levi_civita_abelian_is_zero():
    m = abelian_minkowski()
    p = fraction_product(m)
    assert all(all(x == 0 for x in p[i][j]) for i in range(3) for j in range(3))


def test_levi_civita_classc2_flat_table():
    # hand-computed from the defining identity: dd = -d, de = e, ed = ee = 0
    p = fraction_product(catalog.build("classc2_flat"))
    assert list(p[0][0]) == [F(-1), F(0)]
    assert list(p[0][1]) == [F(0), F(1)]
    assert list(p[1][0]) == [F(0), F(0)]
    assert list(p[1][1]) == [F(0), F(0)]


def test_levi_civita_rot3_eq2_table():
    # L_s = ad_s on the Killing side, L_h = 0 on the derived side
    m = catalog.build("rot3")
    p = fraction_product(m)
    basis = linalg.units(3)
    assert reference.left_mult(p, basis[0]) == m.algebra.ad(basis[0])
    assert not any(map(any, reference.left_mult(p, basis[1])))
    assert not any(map(any, reference.left_mult(p, basis[2])))


def test_defining_identity_residual_zero():
    for m in [catalog.build(n) for n in catalog.names()] + random_instances(11, 30):
        n = m.dim
        G = [list(r) for r in m.gram]
        c = m.algebra.c
        p = fraction_product(m)
        basis = linalg.units(n)
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    lhs = 2 * m.inner(list(p[i][j]), basis[k])
                    rhs = (
                        m.inner(c[i][j], basis[k])
                        - m.inner(c[j][k], basis[i])
                        + m.inner(c[k][i], basis[j])
                    )
                    assert lhs == rhs


def test_connection_axioms_random():
    rng = random.Random(12)
    for m in random_instances(13, 25):
        n = m.dim
        p = fraction_product(m)
        basis = linalg.units(n)
        u = [F(rng.randint(-3, 3)) for _ in range(n)]
        L = reference.left_mult(p, u)
        R = reference.right_mult(p, u)
        assert reference.mat_sub(L, R) == m.algebra.ad(u)
        # metric compatibility: <L_u v, w> + <v, L_u w> = 0
        for v in basis:
            for w in basis:
                assert m.inner([linalg.dot(row, v) for row in L], w) + m.inner(v, [linalg.dot(row, w) for row in L]) == 0
        # torsion-freeness on basis pairs
        for a in range(n):
            for b in range(n):
                uv = reference.bilinear(p, basis[a], basis[b])
                vu = reference.bilinear(p, basis[b], basis[a])
                assert [x - y for x, y in zip(uv, vu)] == m.algebra.bracket(basis[a], basis[b])


def test_curvature_antisymmetry():
    rng = random.Random(14)
    for m in random_instances(15, 10):
        p, c = fraction_product(m), m.algebra.c
        u = [F(rng.randint(-3, 3)) for _ in range(m.dim)]
        v = [F(rng.randint(-3, 3)) for _ in range(m.dim)]
        Kuv = reference.curvature(c, p, u, v)
        Kvu = reference.curvature(c, p, v, u)
        assert Kuv == [[-x for x in row] for row in Kvu]


def test_is_flat_verdicts():
    assert is_flat(abelian_minkowski()).flat
    assert is_flat(catalog.build("rot3")).flat
    assert is_flat(catalog.build("classc2_flat")).flat
    assert is_flat(catalog.build("classc3_flat")).flat
    v = is_flat(catalog.build("classc2_nonflat"))
    assert not v.flat
    assert v.witness[:2] == (0, 1)
    # hand-computed witness: K(d, e) = L_e (the rotation generator)
    assert [list(r) for r in v.witness[2]] == [[0, 1], [-1, 0]]
    assert not is_flat(catalog.build("heisenberg_euclidean")).flat


def test_killing_subalgebra_against_oracle():
    m = abelian_minkowski()
    assert killing_subalgebra(m) == Subspace.full(3)
    r = catalog.build("rot3")
    assert killing_subalgebra(r) == Subspace.span(3, [[1, 0, 0]])
    for m in [catalog.build(n) for n in catalog.names()] + random_instances(16, 25):
        assert killing_subalgebra(m).basis == reference.killing(m.algebra.c, m.gram)


def _checked_timelike_vector(m, V):
    """timelike_vector(m, V), checked: an int vector of V with <s, s> < 0,
    None exactly when the restricted signature has no minus."""
    s = timelike_vector(m, V)
    has_minus = V.dim > 0 and Signature.of(linalg.congruence(*linalg.restrict_form(m.gram, V))[1]).n_minus >= 1
    assert (s is not None) == has_minus
    if s is not None:
        assert all(type(x) is int for x in s)
        assert V.contains(s) and m.inner(s, s) < 0
    return s


def test_timelike_vector():
    m = abelian_minkowski()
    assert _checked_timelike_vector(m, Subspace.full(3)) is not None
    assert _checked_timelike_vector(m, Subspace.span(3, [[1, 0, 0]])) is not None
    assert _checked_timelike_vector(m, Subspace.span(3, [[0, 1, 0]])) is None
    # null direction: t + x has <v, v> = 0
    assert _checked_timelike_vector(m, Subspace.span(3, [[1, 1, 0]])) is None
    assert _checked_timelike_vector(m, Subspace(3, ())) is None
    assert killing_subalgebra(catalog.build("rot3")) == Subspace.span(3, [[1, 0, 0]])
    assert _checked_timelike_vector(catalog.build("rot3"), Subspace.span(3, [[1, 0, 0]])) is not None


def test_timelike_vector_on_random_subspaces():
    """Random metrics of every signature on rational subspaces: degenerate
    and indefinite restrictions, with and without a timelike vector."""
    rng = random.Random(17)
    found = {True: 0, False: 0}
    for m in random_instances(18, 40, dims=(2, 3, 4, 5)):
        n = m.dim
        for _ in range(3):
            rows = [[F(rng.randint(-3, 3), rng.choice((1, 2, 3))) for _ in range(n)] for _ in range(rng.randint(0, n))]
            found[_checked_timelike_vector(m, Subspace.span(n, rows)) is not None] += 1
    assert min(found.values()) >= 20


def test_product_span():
    assert reference.product_span(fraction_product(abelian_minkowski())) == ()
    r = catalog.build("rot3")
    assert reference.product_span(fraction_product(r)) == r.algebra.derived_subalgebra().basis
    # flat class-C: products span {e, d} (here the whole 2-dim algebra)
    assert reference.product_span(fraction_product(catalog.build("classc2_flat"))) == Subspace.full(2).basis


def test_killing_triple_identity():
    rep = verify_killing_triple_identity(abelian_minkowski())
    assert rep.all_equal and rep.abelian and rep.killing == Subspace.full(3)
    rep = verify_killing_triple_identity(catalog.build("rot3"))
    assert rep.all_equal and rep.abelian
    assert rep.killing == Subspace.span(3, [[1, 0, 0]])
    # Riemannian flat example
    rot3_euclid = MetricLieAlgebra.make(catalog.build("rot3").algebra, linalg.units(3))
    rep = verify_killing_triple_identity(rot3_euclid)
    assert rep.all_equal and rep.abelian
    with pytest.raises(HypothesisNotMetError):
        verify_killing_triple_identity(catalog.build("classc2_nonflat"))  # not flat
    # flat but neither Riemannian nor Lorentzian
    split_sig = MetricLieAlgebra.make(
        LieAlgebra.abelian(4),
        [[-1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    )
    with pytest.raises(HypothesisNotMetError):
        verify_killing_triple_identity(split_sig)


def test_killing_triple_sides_match_the_definition():
    """The triple identity decides (g.g)-perp and ker(u -> R_u) on the int
    planes of (P, D); the reference's `product_span` and
    `right_mult_kernel` of the Fraction product, straight from the
    definition, give the same subspaces, on flat instances with a nonzero
    and a zero Killing part."""
    rng = random.Random(41)
    flat = [sweeps.theorem1_true_instance(rng, dim) for dim in range(3, 8) for _ in range(3)]
    flat += [catalog.build(name) for name in ("rot3", "classc2_flat", "classc3_flat", "abelian_minkowski")]
    flat = [m for m in flat if (m.is_lorentzian or m.is_riemannian) and is_flat(m).flat]
    assert len(flat) >= 17
    for m in flat:
        rep = verify_killing_triple_identity(m)
        p = fraction_product(m)
        assert rep.product_span_perp.basis == reference.complement(reference.product_span(p), m.gram)
        assert rep.right_mult_kernel.basis == reference.right_mult_kernel(p)


def test_gram_scaling_leaves_product_and_flatness():
    for name in ("rot3", "classc2_flat", "classc2_nonflat", "heisenberg_euclidean"):
        m = catalog.build(name)
        for factor in (F(2), F(3, 5)):
            scaled = m.scale_gram(factor)
            assert fraction_product(m) == fraction_product(scaled)
            assert is_flat(m).flat == is_flat(scaled).flat


def test_sparse_population_reaches_every_zero_skipping_branch():
    """The sparse shapes of `populations` at dims 6-9 reach every branch
    where the analyze kernel skips exact zeros: a zero `L_k`, a curvature
    witness with a zero bracket, a pair with exactly one zero left
    multiplication, and Killing rows that are zero or repeat another."""
    reached = Counter()
    for _, doc in populations.population(34, populations.SPARSE):
        m = inputdoc.parse_document(doc)
        n, C = m.dim, m.algebra.C
        P, _ = integer_product(m)
        zero = [not any(map(any, plane)) for plane in P]  # zero[k]: L_{e_k} = 0
        reached["zero L_k"] += any(zero)
        reached["one of L_i, L_j zero"] += any(zero[i] != zero[j] for i in range(n) for j in range(i + 1, n))
        verdict = is_flat(m)
        if not verdict.flat:
            i, j, _ = verdict.witness
            reached["witness with C_ij = 0"] += not any(C[i][j])
        A, _ = killing_rows(m)
        nonzero = [row for row in A if any(row)]
        classes = {tuple(F(x, next(y for y in row if y)) for x in row) for row in nonzero}
        reached["zero and repeated Killing rows"] += len(nonzero) < len(A) and len(classes) < len(nonzero)
    assert len(reached) == 4 and min(reached.values()) >= 2, reached
