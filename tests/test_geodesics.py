import csv
import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

from flatlie import catalog, geodesics, sweeps
from flatlie.errors import InvalidGeodesicInputError, InvalidToleranceError, NonPositiveProductError
from flatlie.geodesics import (
    BLOW_UP_DETECTED,
    MIN_STEP,
    REACHED_HORIZON,
    STEP_LIMIT,
    blowup_time_classc,
    euler_arnold_rhs,
    integrate,
    product_as_floats,
    write_csv,
)
from flatlie.lie import LieAlgebra
from flatlie.metric import MetricLieAlgebra, killing_subalgebra, levi_civita


def classc2_with_alpha(alpha):
    """[d, e] = alpha e with the hyperbolic-pair metric: flat, and v = f d
    satisfies the scalar Riccati equation f' = alpha f^2."""
    a = LieAlgebra.from_brackets(2, {(0, 1): [0, F(alpha)]})
    return MetricLieAlgebra.make(a, [[0, 1], [1, 0]])


def test_rhs_abelian_zero():
    P = product_as_floats(catalog.build("abelian_minkowski"))
    v = np.array([1.0, -2.0, 3.0])
    assert np.allclose(euler_arnold_rhs(P, v), 0.0)


def test_rhs_classc_d_direction():
    # -(d d) = alpha d
    P = product_as_floats(catalog.build("classc2_flat"))
    assert np.allclose(euler_arnold_rhs(P, np.array([1.0, 0.0])), [1.0, 0.0])


def test_rhs_rot3_mixed():
    # v = s + e1: v.v = ad_s(e1) = e2, so the rhs is -e2
    P = product_as_floats(catalog.build("rot3"))
    assert np.allclose(euler_arnold_rhs(P, np.array([1.0, 1.0, 0.0])), [0.0, 0.0, -1.0])


def test_integrate_abelian_constant():
    traj = integrate(catalog.build("abelian_minkowski"), [1.0, 2.0, -1.0], t_max=5.0)
    assert traj.outcome == REACHED_HORIZON
    assert traj.final.t == pytest.approx(5.0)
    assert traj.final.v == pytest.approx((1.0, 2.0, -1.0))


def test_blowup_against_riccati_oracle():
    # closed form: f(t) = scale / (1 - alpha scale t) blows up at 1/(alpha scale)
    for alpha in (F(1, 2), F(1), F(2), F(5)):
        m = classc2_with_alpha(alpha)
        traj = integrate(m, [1.0, 0.0], t_max=10.0, rel_tol=1e-8)
        assert traj.outcome == BLOW_UP_DETECTED
        expected = blowup_time_classc(alpha, 1)
        assert abs(traj.blowup_time - expected) / expected < 1e-3


def test_blowup_scale_dependence():
    m = classc2_with_alpha(1)
    traj = integrate(m, [2.0, 0.0], t_max=10.0, rel_tol=1e-8)
    assert traj.outcome == BLOW_UP_DETECTED
    assert abs(traj.blowup_time - 0.5) < 1e-3
    assert blowup_time_classc(1, 2) == pytest.approx(0.5)


def test_no_blowup_on_negative_ray():
    with pytest.raises(NonPositiveProductError):
        blowup_time_classc(1, -1)
    # f' = f^2 with f(0) = -1 decays toward zero: complete on this ray
    traj = integrate(classc2_with_alpha(1), [-1.0, 0.0], t_max=50.0)
    assert traj.outcome == REACHED_HORIZON
    assert traj.final.norm < 1.0


def test_rot3_bounded_with_energy_conservation():
    m = catalog.build("rot3")
    traj = integrate(m, [1.0, 1.0, 0.0], t_max=100.0, rel_tol=1e-10)
    assert traj.outcome == REACHED_HORIZON
    assert traj.final.norm == pytest.approx(np.sqrt(2.0), rel=1e-6)
    e0 = traj.samples[0].energy
    assert traj.energy_drift() <= 1e-6 * (1.0 + abs(e0))


def test_rot3_matches_its_closed_form():
    """On rot3 ([s, e1] = e2, [s, e2] = -e1) the velocity v = a s + b e1 + c e2
    keeps a, and (b, c) turns at rate a: b(t) = b0 cos(at) + c0 sin(at),
    c(t) = c0 cos(at) - b0 sin(at).  A check that does not depend on the
    integration method."""
    m = catalog.build("rot3")
    for v0 in ((1.0, 1.0, 0.0), (2.0, 0.5, -1.0), (-1.0, 1.0, 1.0), (0.5, 0.0, 3.0), (0.0, 1.0, 2.0)):
        a, b0, c0 = v0
        traj = integrate(m, v0, t_max=50.0)
        assert traj.outcome == REACHED_HORIZON and traj.final.t == 50.0
        bound = 1e-8 * (1.0 + math.hypot(*v0))
        for s in traj.samples:
            at = a * s.t
            exact = (a, b0 * math.cos(at) + c0 * math.sin(at), c0 * math.cos(at) - b0 * math.sin(at))
            assert math.dist(s.v, exact) <= bound, (v0, s.t)


def dense_dim20():
    """[e_1, e_j] dense in e_2..e_20 under a dense Riemannian metric, and a
    unit initial velocity."""
    rng = random.Random(20)
    n = 20
    brackets = {(0, j): [F(0)] + [F(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n - 1)]
                for j in range(1, n)}
    gram = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        gram[i][i] = F(2 * n)
        for j in range(i + 1, n):
            gram[i][j] = gram[j][i] = F(rng.randint(-1, 1))
    m = MetricLieAlgebra.make(LieAlgebra.from_brackets(n, brackets), gram)
    return m, [rng.choice((-1.0, 1.0)) / math.sqrt(n) for _ in range(n)]


def test_energy_conservation_across_catalog():
    cases = [
        (catalog.build(name), v0) for name, v0 in (
            ("abelian_minkowski", [1.0, 1.0, 1.0]),
            ("rot3", [1.0, 0.5, -0.5]),
            ("classc2_nonflat", [1.0, 1.0]),
            ("heisenberg_euclidean", [1.0, 1.0, 1.0]),
        )
    ] + [dense_dim20()]
    rng = random.Random(10)
    for dim in range(2, 10):
        v0 = [float(rng.randint(-2, 2)) for _ in range(dim)]
        v0[-1] = 1.0
        cases.append((nonflat_riemannian(rng, dim), v0))
    for m, v0 in cases:
        traj = integrate(m, v0, t_max=10.0, rel_tol=1e-9)
        assert traj.outcome == REACHED_HORIZON
        e0 = traj.samples[0].energy
        assert traj.energy_drift() <= 1e-6 * (1.0 + abs(e0))


def test_outcomes_stable_under_tolerance_halving():
    cases = [
        ("abelian_minkowski", [1.0, 1.0, 1.0]),
        ("rot3", [1.0, 1.0, 0.0]),
        ("classc2_flat", [1.0, 0.0]),
        ("classc2_flat", [1.0, 1.0]),
        ("classc2_nonflat", [1.0, 1.0]),
        ("classc3_flat", [1.0, 1.0, 1.0]),
        ("heisenberg_euclidean", [1.0, 1.0, 1.0]),
    ]
    for name, v0 in cases:
        a = integrate(catalog.build(name), v0, t_max=8.0, rel_tol=1e-8)
        b = integrate(catalog.build(name), v0, t_max=8.0, rel_tol=5e-9)
        assert a.outcome == b.outcome


def test_tolerance_validated():
    m = catalog.build("rot3")
    with pytest.raises(InvalidToleranceError):
        integrate(m, [1.0, 0.0, 0.0], t_max=1.0, rel_tol=1e-15)
    with pytest.raises(InvalidToleranceError):
        integrate(m, [1.0, 0.0, 0.0], t_max=1.0, rel_tol=0.5)


def test_horizon_and_initial_velocity_validated():
    m = catalog.build("rot3")
    for t_max in (-1.0, 0.0, float("nan"), float("inf"), 1e-20, 1e-320):
        with pytest.raises(InvalidGeodesicInputError) as info:
            integrate(m, [1.0, 0.0, 0.0], t_max=t_max)
        assert info.value.field == "t_max"
    # a horizon whose first step (t_max / 10) would be below MIN_STEP is
    # refused, not reported as a false step_underflow; from the bound up the
    # horizon is reached
    with pytest.raises(InvalidGeodesicInputError) as info:
        integrate(catalog.build("classc2_flat"), [1.0, 1.0], t_max=1e-14)
    assert info.value.field == "t_max" and "1e-13" in info.value.reason
    for name, v0 in (("rot3", [1.0, 1.0, 0.0]), ("classc2_flat", [1.0, 1.0])):
        for t_max in (10 * MIN_STEP, 5e-13):
            assert integrate(catalog.build(name), v0, t_max=t_max).outcome == REACHED_HORIZON
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(InvalidGeodesicInputError) as info:
            integrate(m, [1.0, bad, 0.0], t_max=1.0)
        assert info.value.field == "v0"
    for huge in ([1e200, 1e200, 0.0], [1e12, 0.0, 0.0]):
        with pytest.raises(InvalidGeodesicInputError) as info:
            integrate(m, huge, t_max=1.0)
        assert info.value.field == "v0"


def test_step_cap_ends_a_huge_horizon(monkeypatch):
    monkeypatch.setattr(geodesics, "MAX_STEPS", 50)
    traj = integrate(catalog.build("rot3"), [1.0, 1.0, 0.0], t_max=1e9)
    assert traj.outcome == STEP_LIMIT
    assert len(traj.samples) == 51 and traj.series_terms == 50 * geodesics.ORDER
    assert traj.blowup_time is None and traj.final.t < 1e9


def test_times_strictly_increasing():
    traj = integrate(catalog.build("rot3"), [1.0, 1.0, 0.0], t_max=5.0)
    times = [s.t for s in traj.samples]
    assert all(t1 > t0 for t0, t1 in zip(times, times[1:]))


def test_csv_export(tmp_path):
    traj = integrate(catalog.build("rot3"), [1.0, 1.0, 0.0], t_max=2.0)
    path = tmp_path / "traj.csv"
    write_csv(traj, path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "v_1", "v_2", "v_3", "norm"]
    assert len(rows) == len(traj.samples) + 1
    assert float(rows[1][0]) == 0.0


# ---------------------------------------------------------------------------
# oracles that do not depend on the integration method
# ---------------------------------------------------------------------------

def float_product(m):
    """p[i][j][k] as floats, one float per Fraction of `levi_civita`."""
    return np.array([[[float(x) for x in row] for row in plane] for plane in levi_civita(m).p], dtype=float)


def test_rhs_matches_einsum():
    rng = np.random.default_rng(20)
    for n in range(1, 21):
        P = rng.standard_normal((n, n, n))
        v = rng.standard_normal(n)
        np.testing.assert_allclose(euler_arnold_rhs(-P.reshape(n, n * n), v), -np.einsum("i,j,ijk->k", v, v, P), rtol=1e-12)
    # on the operator of each catalog entry and generated instance, against
    # the einsum of a tensor built from the Fraction product; `out` is
    # written in place and returned
    rng = random.Random(21)
    instances = [catalog.build(name) for name in catalog.names()]
    for dim in range(2, 7):
        instances += [sweeps.theorem1_true_instance(rng, dim), flat_classc_ray(rng, dim)[0], nonflat_riemannian(rng, dim)]
    for m in instances:
        n = m.dim
        P, op = float_product(m), product_as_floats(m)
        assert op.shape == (n, n * n)
        np.testing.assert_array_equal(op, -P.reshape(n, n * n))
        for v in np.random.default_rng(n).standard_normal((3, n)):
            out = np.empty(n)
            assert euler_arnold_rhs(op, v, out=out) is out
            scale = np.abs(P).max() * n * (v @ v)  # bounds the terms, so cancellation is allowed for
            np.testing.assert_allclose(out, -np.einsum("i,j,ijk->k", v, v, P), rtol=1e-12, atol=1e-14 * scale)
            np.testing.assert_array_equal(out, euler_arnold_rhs(op, v))


def flat_classc_ray(rng, dim):
    """[t, u_j] = alpha u_j with <u_1, u_1> = 0 and <t, u_1> = 1: flat, and
    v = f d along the null d = t - (<t, t>/2) u_1 obeys f' = alpha f^2, so
    f0 with alpha f0 > 0 blows up at 1 / (alpha f0)."""
    algebra = sweeps.class_c_algebra(rng, dim)
    alpha = algebra.c[0][1][1]
    gram = [[F(0)] * dim for _ in range(dim)]
    gram[0][0] = sweeps.rational(rng)
    gram[0][1] = gram[1][0] = F(1)
    for j in range(2, dim):
        gram[0][j] = gram[j][0] = sweeps.rational(rng)
        gram[j][j] = F(rng.randint(1, 3))
    f0 = rng.randint(1, 3) * (1 if alpha > 0 else -1)
    d = [F(0)] * dim
    d[0], d[1] = F(f0), -f0 * gram[0][0] / 2
    return MetricLieAlgebra.make(algebra, gram), d, float(2 / (alpha * f0))


def nonflat_riemannian(rng, dim):
    """so(3) or Heisenberg-like (the solvable class-C pair in dim 2), plus
    abelian directions, under a diagonal Riemannian metric: never flat, and
    the flow is a bounded, integrable top."""
    if dim == 2:
        algebra = sweeps.class_c_algebra(rng, 2)
    else:
        algebra = sweeps.simple3(dim) if dim % 2 else sweeps.heisenberg_like(rng, dim)
    gram = [[F(rng.randint(1, 3) if i == j else 0) for j in range(dim)] for i in range(dim)]
    return MetricLieAlgebra.make(algebra, gram)


def series_at(W, theta):
    return sum(w * theta ** k for k, w in enumerate(W))


def operator(m):
    n = m.dim
    return product_as_floats(m).reshape(n * n, n)


def test_coefficients_on_a_classc_ray_are_exact():
    """Along v = f0 d the velocity is f0 d / (1 - alpha f0 t), so its Taylor
    coefficients are c_k = alpha^k f0^(k+1) d, and scaled by s they are
    c_k s^k.  Row 1 at s = 1 is the right-hand side."""
    rng = random.Random(11)
    cases = [(classc2_with_alpha(alpha), [F(1), F(0)], alpha) for alpha in (F(1), F(3, 2), F(-2))]
    for dim in range(2, 10):
        m, d, _ = flat_classc_ray(rng, dim)
        cases.append((m, [x / d[0] for x in d], m.algebra.c[0][1][1]))
    for m, d, alpha in cases:
        d = np.array([float(x) for x in d])
        B = operator(m)
        for f0, s in ((1.0, 1.0), (2.0, 0.1), (-0.5, 0.7)):
            v = f0 * d
            W = geodesics.taylor_coefficients(B, v, s)
            assert W.shape == (geodesics.ORDER + 1, m.dim)
            for k, w in enumerate(W):
                exact = float(alpha) ** k * f0 ** (k + 1) * s ** k * d
                np.testing.assert_allclose(w, exact, rtol=1e-12, atol=1e-14 * np.abs(exact).max(), err_msg=str(k))
            np.testing.assert_allclose(geodesics.taylor_coefficients(B, v, 1.0)[1], euler_arnold_rhs(product_as_floats(m), v),
                                       rtol=1e-13, atol=1e-15)


def test_each_step_polynomial_matches_the_closed_forms():
    """Samples are the steps, each a series over a long interval, so the
    series of every step is checked at interior points as well: on rot3
    against its rotation, and on class-C rays against the Riccati solution
    v(t) = v0 / (1 - t / t*): v stays along v0, and its coordinate there is
    1 / (1 - t / t*), whose reciprocal is linear in t, so its error does not
    grow with v up to blow-up."""
    m = catalog.build("rot3")
    B = operator(m)
    for v0 in ((1.0, 1.0, 0.0), (2.0, 0.5, -1.0), (-1.0, 1.0, 1.0), (0.5, 0.0, 3.0)):
        a, b0, c0 = v0
        traj = integrate(m, v0, t_max=50.0)
        bound = 1e-8 * (1.0 + math.hypot(*v0))
        for s0, s1 in zip(traj.samples, traj.samples[1:]):
            h = s1.t - s0.t
            W = geodesics.taylor_coefficients(B, np.array(s0.v), h)
            for theta in (0.2, 0.5, 0.8, 1.0):
                at = a * (s0.t + theta * h)
                exact = (a, b0 * math.cos(at) + c0 * math.sin(at), c0 * math.cos(at) - b0 * math.sin(at))
                assert math.dist(series_at(W, theta), exact) <= bound, (v0, s0.t, theta)

    rng = random.Random(12)
    rays = [(classc2_with_alpha(alpha), [1.0, 0.0], 1 / alpha) for alpha in (F(1, 2), F(2), F(5))]
    for dim in range(2, 8):
        ray, d, t_max = flat_classc_ray(rng, dim)
        rays.append((ray, [float(x) for x in d], t_max / 2))
    for m, v0, t_star in rays:
        B = operator(m)
        v0 = np.array(v0)
        traj = integrate(m, v0, t_max=2 * float(t_star))
        assert traj.outcome == BLOW_UP_DETECTED
        assert abs(traj.blowup_time - t_star) <= 1e-9 * t_star
        for s0, s1 in zip(traj.samples, traj.samples[1:]):
            h = s1.t - s0.t
            W = geodesics.taylor_coefficients(B, np.array(s0.v), h)
            for theta in (0.2, 0.5, 0.8, 1.0):
                t, v = s0.t + theta * h, series_at(W, theta)
                along = v @ v0 / (v0 @ v0)
                assert abs(1 / along - (1 - t / t_star)) <= 1e-9, (t, theta)
                assert np.linalg.norm(v - along * v0) <= 1e-9 * np.linalg.norm(v), (t, theta)


def test_theorem1_instances_match_their_rotation():
    """On a Theorem 1 split, L_s = ad_s on the Killing subalgebra and L = 0
    on the derived algebra D, so from v0 = s + d (d in D) the velocity is
    v(t) = s + exp(-t ad_s) d.  The exponential comes from an
    eigendecomposition of ad_s, which is semisimple with imaginary spectrum."""
    rng = random.Random(13)
    for dim in range(3, 10):
        m = sweeps.theorem1_true_instance(rng, dim)
        killing, derived = killing_subalgebra(m).basis, m.algebra.derived_subalgebra().basis
        assert len(killing) + len(derived) == dim and derived
        s, d = ([sum(c * x for c, x in zip(coefficients, column)) for column in zip(*basis)]
                for basis, coefficients in ((killing, [rng.randint(-2, 2) for _ in killing]),
                                            (derived, [rng.randint(1, 2) for _ in derived])))
        ad_s = np.array([[float(x) for x in row] for row in m.algebra.ad(s)])
        eigenvalues, V = np.linalg.eig(ad_s)
        s, d = np.array([float(x) for x in s]), np.array([float(x) for x in d])
        coordinates = np.linalg.solve(V, d)
        v0 = s + d
        traj = integrate(m, v0, t_max=10.0)
        assert traj.outcome == REACHED_HORIZON and traj.final.t == 10.0
        # |v| swings under the indefinite metric, and in these scrambled bases
        # |ad_s| is up to 50x the rotation rates: float rounding, which no
        # step rule sees, reaches a few 1e-8 of max |v| here with either
        # stepper (DOP853: 8e-8 at dim 8)
        bound = 1e-7 * (1.0 + max(sample.norm for sample in traj.samples))
        for sample in traj.samples:
            exact = s + (V @ (np.exp(-sample.t * eigenvalues) * coordinates)).real
            assert np.linalg.norm(np.array(sample.v) - exact) <= bound, (dim, sample.t)


def test_steep_classc_rays_blow_up_without_overflow():
    """alpha up to 1e3 and f0 up to 1e6: the first scale follows |B| |v0|,
    so no coefficient overflows (any floating-point overflow raises here)."""
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        for alpha in (F(10), F(100), F(1000)):
            m = classc2_with_alpha(alpha)
            for f0 in (1.0, 1e3, 1e6):
                traj = integrate(m, [f0, 0.0], t_max=10.0)
                expected = blowup_time_classc(alpha, f0)
                assert traj.outcome == BLOW_UP_DETECTED
                # The run stops once |v| = f0 / (1 - t / t*) passes BLOWUP_NORM,
                # or once the step, about half the time left, is below MIN_STEP.
                gap = expected * f0 / geodesics.BLOWUP_NORM + 4 * MIN_STEP
                assert abs(traj.blowup_time - expected) <= 1e-9 * expected + gap, (alpha, f0)
                assert all(math.isfinite(x) for sample in traj.samples for x in sample.v)


def test_series_terms_count_order_per_step():
    """No step is rejected: each step forms ORDER coefficients."""
    outcomes = set()
    for name in catalog.names():
        m = catalog.build(name)
        for v0 in ([1.0] * m.dim, [float(i == 0) for i in range(m.dim)]):
            traj = integrate(m, v0, 5.0)
            assert traj.series_terms == geodesics.ORDER * (len(traj.samples) - 1), (name, v0)
            outcomes.add(traj.outcome)
    assert outcomes == {REACHED_HORIZON, BLOW_UP_DETECTED}
