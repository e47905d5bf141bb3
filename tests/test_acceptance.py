"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Expected values marked as derived are computed by independent
oracles (direct bilinear-form evaluation, the closed-form Riccati solution,
brute-force subspace assembly), never by the code path under test.
"""

import functools
import json
import random
import time

import pytest

import reference
from flatlie import catalog, linalg, sweeps
from flatlie.classc import (
    closed_form_matches,
    closed_form_products,
    construct_witness,
    theorem2_check,
    witness_change_of_basis,
    witness_scale,
)
from flatlie.cli import main
from flatlie.errors import NotLorentzianError
from flatlie.geodesics import BLOW_UP_DETECTED, REACHED_HORIZON, integrate
from flatlie.metric import MetricLieAlgebra, integer_product, is_flat, verify_killing_triple_identity
from flatlie.theorems import riemannian_companion, riemannian_flat_check, same_connection, theorem1_check

@functools.cache
def population():
    """Catalog entries plus 200 seeded random metric Lie algebras (dims 2-5)."""
    rng = random.Random(20240808)
    instances = [catalog.build(name) for name in catalog.names()]
    for _ in range(200):
        instances.append(sweeps.random_metric_algebra(rng, rng.choice((2, 3, 4, 5))))
    return instances


@functools.cache
def lorentzian_population():
    rng = random.Random(5150)
    instances = []
    for idx in range(100):
        dim = rng.choice((2, 3, 4, 5))
        if idx % 3 == 0 and dim >= 3:
            instances.append(sweeps.theorem1_true_instance(rng, dim))
        else:
            instances.append(sweeps.random_metric_algebra(rng, dim, kind="lorentzian"))
    return instances


@functools.cache
def class_c_population():
    rng = random.Random(90210)
    instances = []
    for idx in range(110):
        degenerate = idx % 2 == 0
        instances.append((sweeps.class_c_instance(rng, rng.choice((2, 3, 4, 5, 6)), degenerate), degenerate))
    return instances


def announce(num, name):
    print(f"\n[acceptance] criterion {num:>2} ({name}): PASS")


def test_criterion_1_defining_identity_residual_zero():
    start = time.perf_counter()
    for m in population():
        n = m.dim
        c = m.algebra.c
        p = linalg.fraction_tensor(*integer_product(m))
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
                    assert lhs == rhs, f"residual at ({i},{j},{k}) on dim-{n} instance"
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f}s (budget 10s)"
    announce(1, "product defining identity, exact zero residual")


def test_criterion_2_connection_axioms():
    for m in population():
        n = m.dim
        p = linalg.fraction_tensor(*integer_product(m))
        G = [list(r) for r in m.gram]
        basis = linalg.units(n)
        for a in range(n):
            L = reference.left_mult(p, basis[a])
            R = reference.right_mult(p, basis[a])
            assert reference.mat_sub(L, R) == m.algebra.ad(basis[a])
            assert reference.mat_mul(reference.transpose(L), G) == [[-x for x in row] for row in reference.mat_mul(G, L)]
            for b in range(n):
                uv, vu = reference.bilinear(p, basis[a], basis[b]), reference.bilinear(p, basis[b], basis[a])
                torsion = [x - y for x, y in zip(uv, vu)]
                assert torsion == m.algebra.bracket(basis[a], basis[b])
    announce(2, "skew-symmetry, torsion-freeness, ad = L - R, exact")


def test_criterion_3_theorem1_equivalence():
    expected = {
        "abelian_minkowski": (True, True),
        "rot3": (True, True),
        "classc2_flat": (False, False),
        "classc3_flat": (False, False),
    }
    for name, sides in expected.items():
        r = theorem1_check(catalog.build(name))
        assert (r.direct_side, r.structural_side) == sides, name
        assert r.equivalent

    # classc2_nonflat as documented is Riemannian: theorem1 must reject the
    # signature, the Riemannian check gives false/false, and the Lorentzian
    # variant of the same algebra (nondegenerate restriction) gives false/false.
    nonflat = catalog.build("classc2_nonflat")
    with pytest.raises(NotLorentzianError):
        theorem1_check(nonflat)
    rr = riemannian_flat_check(nonflat)
    assert (rr.direct_side, rr.structural_side) == (False, False)
    lorentz_variant = MetricLieAlgebra.make(nonflat.algebra, [[-1, 0], [0, 1]])
    rv = theorem1_check(lorentz_variant)
    assert (rv.direct_side, rv.structural_side) == (False, False)

    # Heisenberg-style Lorentzian variants
    heis = catalog.build("heisenberg_euclidean").algebra
    for k in range(3):
        gram = [[-1 if i == j == k else (1 if i == j else 0) for j in range(3)] for i in range(3)]
        r = theorem1_check(MetricLieAlgebra.make(heis, gram))
        assert (r.direct_side, r.structural_side) == (False, False)

    discrepancies = []
    for idx, m in enumerate(lorentzian_population()):
        r = theorem1_check(m)
        if not r.equivalent:
            discrepancies.append(idx)
        if r.structural_side:
            assert r.split.derived.dim % 2 == 0, f"odd derived dimension at instance {idx}"
            assert r.eq2_verified is True, f"closed-form product fails at instance {idx}"
    assert discrepancies == [], f"theorem 1 sides disagree on instances {discrepancies}"
    announce(3, "two-sided equivalence, catalog + 100 random Lorentzian, zero discrepancies")


def test_criterion_4_killing_triple_identity():
    checked = 0
    for m in population() + lorentzian_population():
        if not (m.is_riemannian or m.is_lorentzian):
            continue
        if not is_flat(m).flat:
            continue
        rep = verify_killing_triple_identity(m)
        assert rep.all_equal, "the three Killing characterizations disagree"
        assert rep.abelian, "Killing subalgebra is not abelian"
        checked += 1
    assert checked >= 30, f"only {checked} flat Riemannian/Lorentzian instances in the population"
    announce(4, f"Killing = (g.g)-perp = ker R on {checked} flat instances, exact")


def test_criterion_5_theorem2_equivalence():
    start = time.perf_counter()
    n_deg = n_nondeg = 0
    for idx, (m, expect_degenerate) in enumerate(class_c_population()):
        r = theorem2_check(m)
        assert r.degenerate_restriction == expect_degenerate, f"generator broke at instance {idx}"
        assert r.equivalent, (
            f"instance {idx}: flat {r.flat} vs degenerate restriction {r.degenerate_restriction}"
        )
        if r.degenerate_restriction:
            n_deg += 1
        else:
            n_nondeg += 1
    elapsed = time.perf_counter() - start
    assert n_deg >= 30 and n_nondeg >= 30
    assert elapsed < 30.0, f"criterion 5 took {elapsed:.1f}s (budget 30s)"
    announce(5, f"flat iff degenerate restriction on {n_deg}+{n_nondeg} class-C instances")


def test_criterion_6_witness_construction_fidelity():
    checked = 0
    instances = [catalog.build("classc2_flat"), catalog.build("classc3_flat")]
    instances += [m for m, deg in class_c_population() if deg]
    for m in instances:
        r = theorem2_check(m)
        if not (r.flat and r.radical_dim == 1):
            continue
        w = construct_witness(m)
        assert m.inner(w.d, w.e) == 1
        assert m.inner(w.d, w.d) == 0
        alpha = witness_scale(m.algebra, w)
        assert closed_form_matches(m, w, alpha)
        table = linalg.fraction_tensor(*closed_form_products(w, alpha))
        c_w = m.algebra.change_basis(witness_change_of_basis(w)).c
        basis = linalg.units(m.dim)
        for i in range(m.dim):
            for j in range(i + 1, m.dim):
                assert not any(map(any, reference.curvature(c_w, table, basis[i], basis[j])))
        checked += 1
    assert checked >= 30
    announce(6, f"witness postconditions + closed-form table on {checked} flat class-C instances")


def test_criterion_7_riemannian_companion():
    m = catalog.build("rot3")
    comp = riemannian_companion(m)
    assert comp.signature == linalg.Signature(3, 0, 0)
    assert same_connection(m, comp)
    assert same_connection(m, m.scale_gram(2))
    announce(7, "companion positive definite with identical connection; scaling invariance")


def test_criterion_8_completeness_dichotomy_numerical():
    start = time.perf_counter()
    # incomplete branch: classc2_flat, v0 = d, alpha = 1; oracle is the
    # closed-form Riccati blow-up time 1/(alpha * scale) = 1.0
    traj = integrate(catalog.build("classc2_flat"), [1.0, 0.0], t_max=5.0, rel_tol=1e-8)
    assert traj.outcome == BLOW_UP_DETECTED
    assert abs(traj.blowup_time - 1 / (1 * 1)) <= 1e-3

    # complete branch: rot3, v0 = s + e1, bounded rotation to t_max = 100
    traj = integrate(catalog.build("rot3"), [1.0, 1.0, 0.0], t_max=100.0, rel_tol=1e-10)
    assert traj.outcome == REACHED_HORIZON
    e0 = traj.samples[0].energy
    assert traj.energy_drift() <= 1e-6 * (1.0 + abs(e0))
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"criterion 8 took {elapsed:.1f}s (budget 5s)"
    announce(8, "blow-up at t = 1.0 +/- 1e-3; bounded flow with energy drift <= 1e-6")


def test_criterion_9_deterministic_reports(capsys, tmp_path):
    for name in catalog.names():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(catalog.get(name).document))
        assert main(["analyze", "--json", "--seed", "42", "-i", str(path)]) == 0
        first = capsys.readouterr().out
        assert main(["analyze", "--json", "--seed", "42", "-i", str(path)]) == 0
        second = capsys.readouterr().out
        assert first == second, f"analyze --json not byte-identical on {name}"
    announce(9, "analyze --json byte-identical across runs on every catalog entry")


def test_criterion_10_negative_controls(capsys, tmp_path):
    # Jacobi-violating input rejected with the offending triple
    bad = {
        "dim": 3,
        "brackets": [
            {"i": 1, "j": 2, "coeffs": ["0", "0", "1"]},
            {"i": 2, "j": 3, "coeffs": ["0", "1", "0"]},
        ],
        "metric": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
    }
    path = tmp_path / "jacobi.json"
    path.write_text(json.dumps(bad))
    assert main(["validate", "-i", str(path)]) == 2
    err = capsys.readouterr().err
    assert "Jacobi" in err and "(1, 2, 3)" in err

    degenerate = {"dim": 2, "brackets": [], "metric": [["1", "1"], ["1", "1"]]}
    path = tmp_path / "degenerate.json"
    path.write_text(json.dumps(degenerate))
    assert main(["validate", "-i", str(path)]) == 2
    assert "nondegenerate" in capsys.readouterr().err

    path = tmp_path / "riemannian.json"
    path.write_text(json.dumps(catalog.get("heisenberg_euclidean").document))
    assert main(["theorem1", "-i", str(path)]) == 2
    assert "Lorentzian" in capsys.readouterr().err
    announce(10, "Jacobi violation, degenerate gram, wrong-signature usage all rejected")
