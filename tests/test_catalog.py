from fractions import Fraction as F

from flatlie import catalog, linalg
from flatlie.classc import detect, incompleteness_verdict, theorem2_check
from flatlie.metric import is_flat, killing_subalgebra
from flatlie.theorems import riemannian_flat_check, theorem1_check


def test_every_entry_validates_with_zero_jacobi_residual():
    # brute-force cyclic sum, independent of the constructor's own check
    for name in catalog.names():
        a = catalog.build(name).algebra
        basis = linalg.units(a.dim)
        for i in range(a.dim):
            for j in range(i + 1, a.dim):
                for k in range(j + 1, a.dim):
                    r = [F(0)] * a.dim
                    for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
                        term = a.bracket(basis[x], a.bracket(basis[y], basis[z]))
                        r = [p + q for p, q in zip(r, term)]
                    assert linalg.is_zero_vec(r), f"{name} triple ({i},{j},{k})"


def test_every_entry_matches_documented_verdicts():
    for name in catalog.names():
        entry = catalog.get(name)
        m = entry.build()
        exp = entry.expected
        assert tuple(m.signature) == exp["signature"], name
        assert is_flat(m).flat == exp["flat"], name
        if "theorem1" in exp:
            r = theorem1_check(m)
            assert (r.direct_side, r.structural_side) == exp["theorem1"], name
        if "riemannian_flat" in exp:
            r = riemannian_flat_check(m)
            assert (r.direct_side, r.structural_side) == exp["riemannian_flat"], name
        if "unimodular" in exp:
            assert m.algebra.is_unimodular() == exp["unimodular"], name
        if "two_solvable" in exp:
            assert m.algebra.is_2_solvable() == exp["two_solvable"], name
        if "killing_dim" in exp:
            assert killing_subalgebra(m).dim == exp["killing_dim"], name
        if exp["class_c"]:
            r2 = theorem2_check(m)
            assert r2.degenerate_restriction == exp["degenerate_restriction"], name
            if "verdict" in exp:
                assert incompleteness_verdict(m).verdict == exp["verdict"], name
        else:
            assert detect(m.algebra) is None, name
