import random
from fractions import Fraction as F

import pytest

import reference
from flatlie import catalog, linalg, sweeps
from flatlie.classc import (
    closed_form_matches,
    closed_form_products,
    construct_witness,
    detect,
    incompleteness_verdict,
    theorem2_check,
    witness_change_of_basis,
    witness_scale,
)
from flatlie.errors import NotClassCError, NotDegenerateError
from flatlie.lie import LieAlgebra
from flatlie.linalg import Subspace
from flatlie.metric import MetricLieAlgebra


def test_detect_dim2():
    a = LieAlgebra.from_brackets(2, {(0, 1): [0, 1]})  # [e1, e2] = e2
    s = detect(a)
    assert s is not None
    assert s.ideal == Subspace.span(2, [[0, 1]])
    assert list(s.b) == [F(1), F(0)]
    assert s.alpha == 1
    # defining property: [b, x] = x on the ideal
    assert a.bracket(list(s.b), [0, 1]) == [F(0), F(1)]


def test_detect_scaled_transversal():
    a = LieAlgebra.from_brackets(2, {(0, 1): [0, 3]})  # [e1, e2] = 3 e2
    s = detect(a)
    assert s.alpha == 3
    assert list(s.b) == [F(1, 3), F(0)]
    assert a.bracket(list(s.b), [0, 1]) == [F(0), F(1)]


def test_detect_dim3():
    a = LieAlgebra.from_brackets(3, {(0, 1): [0, 1, 0], (0, 2): [0, 0, 1]})
    s = detect(a)
    assert s.ideal == Subspace.span(3, [[0, 1, 0], [0, 0, 1]])
    assert list(s.b) == [F(1), F(0), F(0)]


def test_detect_rejections():
    heis = LieAlgebra.from_brackets(3, {(0, 1): [0, 0, 1]})
    assert detect(heis) is None  # derived ideal has codimension 2
    rot = LieAlgebra.from_brackets(3, {(0, 1): [0, 0, 1], (0, 2): [0, -1, 0]})
    assert detect(rot) is None  # transversal acts by rotation, not a scalar
    # abelian codimension-1 ideal but diagonal (non-scalar) action: not class C
    diag = LieAlgebra.from_brackets(3, {(0, 1): [0, 1, 0], (0, 2): [0, 0, 2]})
    assert detect(diag) is None
    # abelian algebras are outside class C: from dim 2 the derived algebra
    # {0} has the wrong codimension, in dim 1 no scalar acts on U = {0}
    for n in range(1, 5):
        assert detect(LieAlgebra.abelian(n)) is None, n


def test_detect_survives_change_of_basis():
    rng = random.Random(5)
    a = LieAlgebra.from_brackets(3, {(0, 1): [0, F(1, 2), 0], (0, 2): [0, 0, F(1, 2)]})
    P = sweeps.unimodular_int_matrix(rng, 3)
    b = a.change_basis(P)
    s = detect(b)
    assert s is not None
    assert b.bracket(list(s.b), list(s.ideal.basis[0])) == list(s.ideal.basis[0])


def test_detected_algebras_satisfy_span_property():
    # cross-check: [x, y] in span{x, y} for sampled rational pairs
    rng = random.Random(6)
    for dim in (2, 3, 4):
        m = sweeps.class_c_instance(rng, dim, degenerate=True)
        a = m.algebra
        assert detect(a) is not None
        for _ in range(50):
            x = [F(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(dim)]
            y = [F(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(dim)]
            stacked = [x, y, a.bracket(x, y)]
            assert reference.rank(stacked) <= 2


def test_theorem2_catalog():
    r = theorem2_check(catalog.build("classc2_flat"))
    assert r.degenerate_restriction and r.flat and r.equivalent
    r = theorem2_check(catalog.build("classc2_nonflat"))
    assert not r.degenerate_restriction and not r.flat and r.equivalent
    r = theorem2_check(catalog.build("classc3_flat"))
    assert r.degenerate_restriction and r.radical_dim == 1 and r.flat and r.equivalent


def test_theorem2_dim3_block_restriction():
    # restriction [[1,0],[0,0]] on the derived ideal: degenerate, hence flat
    a = LieAlgebra.from_brackets(3, {(0, 1): [0, 1, 0], (0, 2): [0, 0, 1]})
    gram = [[0, 0, 1], [0, 1, 0], [1, 0, 0]]
    m = MetricLieAlgebra.make(a, gram)
    D = a.derived_subalgebra()
    assert linalg.restrict_form(m.G, D, m.g) == ([[1, 0], [0, 0]], 1)
    r = theorem2_check(m)
    assert r.degenerate_restriction and r.flat


def test_theorem2_requires_class_c():
    with pytest.raises(NotClassCError):
        theorem2_check(catalog.build("heisenberg_euclidean"))
    with pytest.raises(NotClassCError):
        theorem2_check(catalog.build("abelian_minkowski"))


def test_theorem2_randomized():
    result = sweeps.sweep_theorem2(321, 60)
    assert result.failures == ()


def test_witness_classc2():
    w = construct_witness(catalog.build("classc2_flat"))
    assert list(w.e) == [F(0), F(1)]
    assert list(w.d) == [F(1), F(0)]
    assert w.b_basis.dim == 0


def test_witness_formula_with_nonnull_y():
    # basis (e, t), [t, e] = e, gram [[0,1],[1,3]]: y = t has <y,y> = 3, so
    # d = t - (3/2) e
    a = LieAlgebra.from_brackets(2, {(0, 1): [-1, 0]})
    m = MetricLieAlgebra.make(a, [[0, 1], [1, 3]])
    w = construct_witness(m)
    assert list(w.e) == [F(1), F(0)]
    assert list(w.d) == [F(-3, 2), F(1)]
    assert m.inner(w.d, w.e) == 1
    assert m.inner(w.d, w.d) == 0


def test_witness_classc3():
    m = catalog.build("classc3_flat")
    w = construct_witness(m)
    assert list(w.e) == [F(0), F(0), F(1)]
    assert list(w.d) == [F(1), F(0), F(0)]
    assert w.b_basis == Subspace.span(3, [[0, 1, 0]])
    # B-sector is positive for this entry
    assert linalg.Signature.of(linalg.congruence(*w.gram_b)[1]) == linalg.Signature(1, 0, 0)


def test_witness_requires_degenerate():
    with pytest.raises(NotDegenerateError):
        construct_witness(catalog.build("classc2_nonflat"))


def test_closed_form_matches_transported_product():
    instances = [catalog.build("classc2_flat"), catalog.build("classc3_flat")]
    rng = random.Random(7)
    instances += [sweeps.class_c_instance(rng, rng.choice((2, 3, 4, 5)), True) for _ in range(15)]
    for m in instances:
        w = construct_witness(m)
        alpha = witness_scale(m.algebra, w)
        X, x = closed_form_products(w, alpha)
        assert closed_form_matches(m, w, alpha)
        # uu' sector is symmetric
        nb = w.b_basis.dim
        for j in range(1, nb + 1):
            for k in range(1, nb + 1):
                assert X[j][k] == X[k][j]
        # curvature of the assembled table vanishes identically
        table = linalg.fraction_tensor(X, x)
        c_w = m.algebra.change_basis(witness_change_of_basis(w)).c
        basis = linalg.units(m.dim)
        for i in range(m.dim):
            for j in range(i + 1, m.dim):
                assert not any(map(any, reference.curvature(c_w, table, basis[i], basis[j])))


def _witness_population():
    """Flat class-C metrics of dims 2-9 with a one-dimensional radical:
    the catalog pair, 40 generated ones, and every third generated one also
    scaled and moved to a basis with non-unit denominators (a unimodular
    matrix with its columns scaled)."""
    out = [catalog.build("classc2_flat"), catalog.build("classc3_flat")]
    rng = random.Random(11)
    for k in range(40):
        m = sweeps.class_c_instance(rng, 2 + k % 8, True)
        out.append(m)
        if k % 3 == 0:
            scales = [F(rng.choice((-2, 1, 3)), rng.choice((1, 2, 5))) for _ in range(m.dim)]
            P = [[x * f for x, f in zip(row, scales)] for row in sweeps.unimodular_int_matrix(rng, m.dim)]
            out.append(m.scale_gram(F(-3, 7)).change_basis(P))
    return out


def test_witness_matches_the_fraction_oracles():
    """The int witness route against Fraction oracles: the closed-form view
    equals the reference's Koszul product transported to the witness
    basis, d equals its Fraction formula, b_trace is tr ad_b, and the table
    taken at 2 alpha matches on no instance."""
    population = _witness_population()
    assert len(population) == 56 and {m.dim for m in population} == set(range(2, 10))
    for m in population:
        w = construct_witness(m)
        alpha = witness_scale(m.algebra, w)
        W = witness_change_of_basis(w)
        assert closed_form_matches(m, w, alpha)
        assert linalg.fraction_tensor(*closed_form_products(w, alpha)) == reference.transport(
            reference.product(m.algebra.c, m.gram), W)
        # y is the first basis vector with <y, e> != 0
        y = next(u for u in linalg.units(m.dim) if m.inner(u, w.e))
        ye, yy = m.inner(y, w.e), m.inner(y, y)
        assert list(w.d) == [x / ye - yy / (2 * ye * ye) * z for x, z in zip(y, w.e)]
        b = detect(m.algebra).b
        ad_b = m.algebra.ad(b)
        assert incompleteness_verdict(m).b_trace == sum((ad_b[i][i] for i in range(m.dim)), F(0))
        assert not closed_form_matches(m, w, 2 * alpha)


def test_witness_brackets_in_witness_coordinates():
    # the only nonvanishing brackets are [d, e] = alpha e and [d, u] = alpha u
    m = catalog.build("classc3_flat")
    w = construct_witness(m)
    alpha = witness_scale(m.algebra, w)
    alg_w = m.algebra.change_basis(witness_change_of_basis(w))
    n = m.dim
    basis = linalg.units(n)
    d = basis[n - 1]
    for j in range(n - 1):
        expected = [alpha * x for x in basis[j]]
        assert alg_w.bracket(d, basis[j]) == expected
    for i in range(n - 1):
        for j in range(n - 1):
            assert linalg.is_zero_vec(alg_w.bracket(basis[i], basis[j]))


def test_incompleteness_verdicts():
    r = incompleteness_verdict(catalog.build("classc2_flat"))
    assert not r.unimodular and r.b_trace == 1 and r.flat
    assert r.verdict == "incomplete"
    r = incompleteness_verdict(catalog.build("classc3_flat"))
    assert r.b_trace == 2 and r.verdict == "incomplete"
    r = incompleteness_verdict(catalog.build("classc2_nonflat"))
    assert not r.unimodular and not r.flat
    assert r.verdict == "criterion inapplicable"
    with pytest.raises(NotClassCError):
        incompleteness_verdict(catalog.build("heisenberg_euclidean"))
