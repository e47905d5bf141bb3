import random

import pytest

import reference
from flatlie import catalog, linalg, sweeps
from flatlie.errors import (
    HypothesisNotMetError,
    InvalidSplitError,
    MismatchedAlgebrasError,
    NotLorentzianError,
    NotRiemannianError,
)
from flatlie.lie import LieAlgebra
from flatlie.linalg import Subspace
from flatlie.metric import MetricLieAlgebra
from flatlie.theorems import (
    corollary1_check,
    riemannian_companion,
    riemannian_flat_check,
    same_connection,
    theorem1_check,
    verify_eq2,
)


def two_plane_dim5():
    """Two rotation planes with rates 1 and 2 under a single generator."""
    brackets = {
        (0, 1): [0, 0, 1, 0, 0],
        (0, 2): [0, -1, 0, 0, 0],
        (0, 3): [0, 0, 0, 0, 2],
        (0, 4): [0, 0, 0, -2, 0],
    }
    a = LieAlgebra.from_brackets(5, brackets)
    gram = [[-1 if i == j == 0 else (1 if i == j else 0) for j in range(5)] for i in range(5)]
    return MetricLieAlgebra.make(a, gram)


def test_theorem1_abelian_minkowski():
    r = theorem1_check(catalog.build("abelian_minkowski"))
    assert r.direct_side and r.structural_side and r.equivalent
    assert r.even_dim_derived is True  # derived = 0, even
    assert r.eq2_verified is True


def test_theorem1_rot3():
    r = theorem1_check(catalog.build("rot3"))
    assert r.direct_side and r.structural_side
    assert r.split.killing == Subspace.span(3, [[1, 0, 0]])
    assert r.split.derived.dim == 2
    assert r.even_dim_derived is True
    assert r.eq2_verified is True


def test_theorem1_two_planes_dim5():
    m = two_plane_dim5()
    r = theorem1_check(m)
    assert r.direct_side and r.structural_side
    assert r.split.killing.dim == 1 and r.split.derived.dim == 4
    assert r.even_dim_derived is True
    assert r.eq2_verified is True
    comp = riemannian_companion(m)
    assert comp.is_riemannian and same_connection(m, comp)


def test_theorem1_classc2_flat_both_false():
    r = theorem1_check(catalog.build("classc2_flat"))
    assert r.flat and not r.timelike_killing
    assert not r.direct_side and not r.structural_side and r.equivalent


def test_theorem1_requires_lorentzian():
    with pytest.raises(NotLorentzianError):
        theorem1_check(catalog.build("classc2_nonflat"))
    with pytest.raises(NotLorentzianError):
        theorem1_check(catalog.build("heisenberg_euclidean"))


def test_theorem1_heisenberg_lorentzian_variants():
    a = catalog.build("heisenberg_euclidean").algebra
    for k in range(3):
        gram = [[-1 if i == j == k else (1 if i == j else 0) for j in range(3)] for i in range(3)]
        r = theorem1_check(MetricLieAlgebra.make(a, gram))
        assert not r.direct_side and not r.structural_side and r.equivalent


def test_theorem1_random_equivalence():
    result = sweeps.sweep_theorem1(2024, 60)
    assert result.failures == ()


def test_verify_eq2_rejects_foreign_split():
    m = catalog.build("rot3")
    split = theorem1_check(m).split
    perturbed = MetricLieAlgebra.make(m.algebra, [[-1, 0, 0], [0, 1, 0], [0, 0, 2]])
    with pytest.raises(InvalidSplitError):
        verify_eq2(perturbed, split)


def test_riemannian_flat_check():
    r = riemannian_flat_check(
        MetricLieAlgebra.make(LieAlgebra.abelian(3), linalg.units(3))
    )
    assert r.direct_side and r.structural_side
    rot3_euclid = MetricLieAlgebra.make(catalog.build("rot3").algebra, linalg.units(3))
    r = riemannian_flat_check(rot3_euclid)
    assert r.direct_side and r.structural_side and r.eq2_verified
    r = riemannian_flat_check(catalog.build("heisenberg_euclidean"))
    assert not r.direct_side and not r.structural_side and r.equivalent
    r = riemannian_flat_check(catalog.build("classc2_nonflat"))
    assert not r.direct_side and not r.structural_side and r.equivalent
    with pytest.raises(NotRiemannianError):
        riemannian_flat_check(catalog.build("rot3"))


def test_corollary1():
    r = corollary1_check(catalog.build("rot3"))
    assert r.two_solvable and r.unimodular and r.geodesically_complete
    r = corollary1_check(catalog.build("abelian_minkowski"))
    assert r.two_solvable and r.unimodular and r.geodesically_complete
    with pytest.raises(HypothesisNotMetError):
        corollary1_check(catalog.build("classc2_flat"))


def test_companion_rot3():
    m = catalog.build("rot3")
    comp = riemannian_companion(m)
    assert comp.is_riemannian
    assert [list(r) for r in comp.gram] == linalg.units(3)
    assert same_connection(m, comp)
    # deterministic construction; reapplying changes nothing
    assert riemannian_companion(m).gram == comp.gram


def test_companion_abelian_and_rejects():
    m = catalog.build("abelian_minkowski")
    comp = riemannian_companion(m)
    assert comp.is_riemannian and same_connection(m, comp)
    with pytest.raises(HypothesisNotMetError):
        riemannian_companion(catalog.build("classc2_flat"))


def test_companion_random_true_instances():
    rng = random.Random(77)
    for _ in range(10):
        m = sweeps.theorem1_true_instance(rng, rng.choice((3, 4, 5)))
        comp = riemannian_companion(m)
        assert comp.is_riemannian
        assert same_connection(m, comp)
        # instances satisfying the split are 2-solvable, unimodular, complete
        c1 = corollary1_check(m)
        assert c1.two_solvable and c1.unimodular and c1.geodesically_complete


def test_companion_is_a_rank_one_change_fixing_the_derived_factor():
    for dim in range(3, 8):
        m = sweeps.theorem1_true_instance(random.Random(100 + dim), dim)
        G, G2 = [list(r) for r in m.gram], [list(r) for r in riemannian_companion(m).gram]
        assert reference.rank(reference.mat_sub(G2, G)) == 1
        split = theorem1_check(m).split
        S, D = split.killing, split.derived
        assert linalg.restrict_form(G2, D) == linalg.restrict_form(G, D)
        assert all(reference.form(G2, s, d) == 0 for s in S.basis for d in D.basis)


def test_same_connection():
    m = catalog.build("rot3")
    assert same_connection(m, m)
    assert same_connection(m, m.scale_gram(2))
    other = catalog.build("abelian_minkowski")
    with pytest.raises(MismatchedAlgebrasError):
        same_connection(m, other)


def test_corollary2():
    """Corollary 2's forward direction: on a flat Lorentzian instance with a
    timelike Killing vector, `riemannian_companion` returns a positive
    definite metric with the same connection; without one it refuses."""
    for name in ("rot3", "abelian_minkowski"):
        m = catalog.build(name)
        assert theorem1_check(m).timelike_killing
        companion = riemannian_companion(m)
        assert companion.is_riemannian and same_connection(m, companion)
    m = catalog.build("classc2_flat")
    r = theorem1_check(m)
    assert r.flat and not r.timelike_killing
    with pytest.raises(HypothesisNotMetError):
        riemannian_companion(m)
    m = MetricLieAlgebra.make(catalog.build("classc2_flat").algebra, [[-1, 0], [0, 1]])
    assert not theorem1_check(m).flat  # Lorentzian but not flat
    with pytest.raises(HypothesisNotMetError):
        riemannian_companion(m)
