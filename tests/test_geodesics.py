import csv
import math
import random
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest

import populations
import reference
from flatlie import catalog, geodesics, inputdoc, sweeps
from flatlie.errors import InvalidGeodesicInputError, InvalidToleranceError
from flatlie.geodesics import (
    BLOW_UP_DETECTED,
    MIN_STEP,
    REACHED_HORIZON,
    STEP_LIMIT,
    integrate,
    product_as_floats,
    write_csv,
)
from flatlie.lie import LieAlgebra
from flatlie.metric import MetricLieAlgebra, killing_subalgebra


def classc2_with_alpha(alpha):
    """[d, e] = alpha e with the hyperbolic-pair metric: flat, and v = f d
    satisfies the scalar Riccati equation f' = alpha f^2."""
    a = LieAlgebra.from_brackets(2, {(0, 1): [0, F(alpha)]})
    return MetricLieAlgebra.make(a, [[0, 1], [1, 0]])


def rhs(op, v):
    """-(v . v) on the (n, n^2) operator `op` of `product_as_floats`: row 1
    of the series rows at s = 1, on a fresh workspace."""
    n = len(v)
    return geodesics.SeriesWorkspace(op.reshape(n * n, n)).rows(np.asarray(v, dtype=float), 1.0)[1]


def test_rhs_abelian_zero():
    P = product_as_floats(catalog.build("abelian_minkowski"))
    v = np.array([1.0, -2.0, 3.0])
    assert np.allclose(rhs(P, v), 0.0)


def test_rhs_classc_d_direction():
    # -(d d) = alpha d
    P = product_as_floats(catalog.build("classc2_flat"))
    assert np.allclose(rhs(P, np.array([1.0, 0.0])), [1.0, 0.0])


def test_rhs_rot3_mixed():
    # v = s + e1: v.v = ad_s(e1) = e2, so the rhs is -e2
    P = product_as_floats(catalog.build("rot3"))
    assert np.allclose(rhs(P, np.array([1.0, 1.0, 0.0])), [0.0, 0.0, -1.0])


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
        expected = 1 / float(alpha)  # 1 / (alpha f0) with f0 = 1
        assert abs(traj.blowup_time - expected) / expected < 1e-3


def test_blowup_scale_dependence():
    m = classc2_with_alpha(1)
    traj = integrate(m, [2.0, 0.0], t_max=10.0, rel_tol=1e-8)
    assert traj.outcome == BLOW_UP_DETECTED
    assert abs(traj.blowup_time - 0.5) < 1e-3


def test_no_blowup_on_negative_ray():
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


def test_energy_conservation_across_catalog():
    cases = [
        (catalog.build(name), v0) for name, v0 in (
            ("abelian_minkowski", [1.0, 1.0, 1.0]),
            ("rot3", [1.0, 0.5, -0.5]),
            ("classc2_nonflat", [1.0, 1.0]),
            ("heisenberg_euclidean", [1.0, 1.0, 1.0]),
        )
    ]
    rng = random.Random(20)  # a dense dim-20 Riemannian metric and a unit initial velocity
    m = inputdoc.parse_document(populations.dense_riemannian(rng, 20))
    cases.append((m, [rng.choice((-1.0, 1.0)) / math.sqrt(20) for _ in range(20)]))
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
    for t_max in (-1.0, 0.0, float("nan"), float("inf"), 1e-20, 1e-320, 1.01e100, 1e300):
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
    for short_or_long in ([1.0, 0.0], [1.0, 0.0, 0.0, 0.0]):
        with pytest.raises(InvalidGeodesicInputError) as info:
            integrate(m, short_or_long, t_max=1.0)
        assert (info.value.field, info.value.reason) == ("v0", f"must have 3 components, got {len(short_or_long)}")


def test_constant_rays_reach_the_largest_horizon_without_overflow():
    """Rows of zeros bound nothing, so on a constant velocity each step is
    MAX_GROWTH times the last and the rows are formed at scales up to
    MAX_HORIZON: their products s^2 |v|^2 stay finite up to |v| near
    BLOWUP_NORM (any floating-point overflow or invalid value raises here).
    Beyond MAX_HORIZON the abelian ray's first products would overflow,
    and inf times the zero operator would end it as a false blow-up."""
    cases = [("abelian_minkowski", [1.0, 2.0, -1.0]), ("abelian_minkowski", [9e11, 0.0, 0.0]),
             ("heisenberg_euclidean", [0.0, 0.0, 1.0]), ("heisenberg_euclidean", [0.0, 0.0, 9e11]),
             ("classc2_flat", [0.0, 9e11])]
    with np.errstate(over="raise", invalid="raise"):
        for name, v0 in cases:
            traj = integrate(catalog.build(name), v0, t_max=geodesics.MAX_HORIZON)
            assert traj.outcome == REACHED_HORIZON and traj.final.t == geodesics.MAX_HORIZON, name
            assert traj.final.v == pytest.approx(v0, rel=1e-15), name


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
    """p[i][j][k] as floats, one float per Fraction of the reference's Koszul product."""
    return np.array([[[float(x) for x in row] for row in plane] for plane in reference.product(m.algebra.c, m.gram)])


def test_rhs_matches_einsum():
    rng = np.random.default_rng(20)
    for n in range(1, 21):
        P = rng.standard_normal((n, n, n))
        v = rng.standard_normal(n)
        np.testing.assert_allclose(rhs(-P.reshape(n, n * n), v), -np.einsum("i,j,ijk->k", v, v, P), rtol=1e-12)
    # on the operator of each catalog entry and generated instance, against
    # the einsum of a tensor built from the Fraction product
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
            scale = np.abs(P).max() * n * (v @ v)  # bounds the terms, so cancellation is allowed for
            np.testing.assert_allclose(rhs(op, v), -np.einsum("i,j,ijk->k", v, v, P), rtol=1e-12, atol=1e-14 * scale)


def flat_classc_ray(rng, dim):
    """[t, u_j] = alpha u_j with <u_1, u_1> = 0 and <t, u_1> = 1: flat, and
    v = f d along the null d = t - (<t, t>/2) u_1 obeys f' = alpha f^2, so
    f0 with alpha f0 > 0 blows up at 1 / (alpha f0)."""
    algebra = LieAlgebra.from_brackets(*sweeps.class_c_algebra(rng, dim))
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
        algebra = LieAlgebra.from_brackets(*sweeps.class_c_algebra(rng, 2))
    else:
        algebra = LieAlgebra.from_brackets(*(sweeps.simple3(dim) if dim % 2 else sweeps.heisenberg_like(rng, dim)))
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
            W = geodesics.SeriesWorkspace(B).rows(v, s)
            assert W.shape == (geodesics.ORDER + 1, m.dim)
            for k, w in enumerate(W):
                exact = float(alpha) ** k * f0 ** (k + 1) * s ** k * d
                np.testing.assert_allclose(w, exact, rtol=1e-12, atol=1e-14 * np.abs(exact).max(), err_msg=str(k))
            np.testing.assert_allclose(geodesics.SeriesWorkspace(B).rows(v, 1.0)[1],
                                       -np.einsum("i,j,ijk->k", v, v, float_product(m)), rtol=1e-13, atol=1e-15)


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
            W = geodesics.SeriesWorkspace(B).rows(np.array(s0.v), h)
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
            W = geodesics.SeriesWorkspace(B).rows(np.array(s0.v), h)
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
                expected = 1 / (float(alpha) * f0)
                assert traj.outcome == BLOW_UP_DETECTED
                # The run ends at the pole its rows show; the backstops end it
                # once |v| = f0 / (1 - t / t*) passes BLOWUP_NORM, or once the
                # step, about half the time left, is below MIN_STEP.
                gap = expected * f0 / geodesics.BLOWUP_NORM + 4 * MIN_STEP
                assert abs(traj.blowup_time - expected) <= 1e-9 * expected + gap, (alpha, f0)
                assert all(math.isfinite(x) for sample in traj.samples for x in sample.v)


def test_pole_ratio_reads_a_simple_real_pole_only():
    """Rows w_k = lambda^-k u are a simple real pole's: the ratio is read
    back.  Rows that turn (a complex pair of poles), alternate in sign (a pole
    behind), hold two real poles, are not parallel, end in a zero row or
    hold a value that is not finite are not."""
    p = geodesics.ORDER
    u = np.array([3.0, -1.0, 2.0])
    k = np.arange(p + 1.0)[:, None]
    assert geodesics.pole_ratio(u * 1.7 ** -k, 1e-9) == pytest.approx(1.7, rel=1e-14)
    assert geodesics.pole_ratio(u * (-1.7) ** -k, 1e-9) is None
    turning = np.hstack([np.cos(0.3 * k), np.sin(0.3 * k)]) * 1.7 ** -k
    assert geodesics.pole_ratio(turning, 1e-9) is None
    two_poles = u * (1.7 ** -k + 2.0 ** -k)
    assert geodesics.pole_ratio(two_poles, 1e-9) is None
    bent = u * 1.7 ** -k + np.array([0.0, 1.0, 0.0]) * 1.2 ** -k
    assert geodesics.pole_ratio(bent, 1e-9) is None
    ended = u * 1.7 ** -k
    ended[p] = 0.0
    assert geodesics.pole_ratio(ended, 1e-9) is None
    for bad in (np.nan, np.inf):
        broken = u * 1.7 ** -k
        broken[p - 2, 1] = bad
        assert geodesics.pole_ratio(broken, 1e-9) is None


def test_classc_rays_end_at_the_pole_their_rows_show():
    """Along f0 d the rows are f (s / rho)^k d, a simple real pole at
    rho = 1 / (alpha f) ahead: the first step's rows show it, so the run
    takes that one step and ends at the pole t + s lambda, with |v| still
    far below BLOWUP_NORM, within 2e-15 of 1 / (alpha f0).  On flat
    class-C rays of dims 2-9 and steep rays with alpha up to 1e3 and f0 up
    to 1e6."""
    rng = random.Random(41)
    rays = []
    for dim in range(2, 10):
        m, d, t_max = flat_classc_ray(rng, dim)
        rays.append((m, [float(x) for x in d], t_max, t_max / 2))
    for alpha in (10, 100, 1000):
        for f0 in (1.0, 1e3, 1e6):
            rays.append((classc2_with_alpha(F(alpha)), [f0, 0.0], 10.0, 1 / (alpha * f0)))
    for m, v0, t_max, t_star in rays:
        traj = integrate(m, v0, t_max)
        assert traj.outcome == BLOW_UP_DETECTED, (m.dim, v0)
        assert traj.final.norm < geodesics.BLOWUP_NORM and traj.final.t < t_star, (m.dim, v0)
        assert len(traj.samples) - 1 == 1, (m.dim, v0)
        assert abs(traj.blowup_time - t_star) <= 2e-15 * t_star, (m.dim, v0)


def recording_pole_ratio(monkeypatch):
    """Wrap `geodesics.pole_ratio` so that every ratio it returns is listed."""
    ratios = []
    pole_ratio = geodesics.pole_ratio

    def recording(W, rel_tol):
        ratios.append(pole_ratio(W, rel_tol))
        return ratios[-1]

    monkeypatch.setattr(geodesics, "pole_ratio", recording)
    return ratios


def test_a_pole_at_or_just_past_the_horizon_is_not_a_blow_up(monkeypatch):
    """A class-C ray integrated to exactly its pole, or to 1e-9 short of it,
    reaches the horizon: its rows show the pole, but at or past t_max, or
    nearer t_max than the ratios agree.  Integrated to 1e-6 past its pole,
    the same ray ends at the pole after its first step."""
    ratios = recording_pole_ratio(monkeypatch)
    rng = random.Random(42)
    rays = [(classc2_with_alpha(alpha), [f0, 0.0], 1 / (float(alpha) * f0))
            for alpha in (F(1, 3), F(1), F(10)) for f0 in (1.0, 3.0)]
    for dim in range(2, 10):
        m, d, t_max = flat_classc_ray(rng, dim)
        rays.append((m, [float(x) for x in d], t_max / 2))
    for m, v0, t_star in rays:
        for t_max in (t_star, t_star * (1 - 1e-9)):
            ratios.clear()
            traj = integrate(m, v0, t_max)
            assert traj.outcome == REACHED_HORIZON and traj.final.t == t_max, (m.dim, v0, t_max)
            assert traj.blowup_time is None
            assert any(ratio is not None for ratio in ratios), (m.dim, v0, t_max)
        traj = integrate(m, v0, t_star * (1 + 1e-6))
        assert traj.outcome == BLOW_UP_DETECTED and len(traj.samples) - 1 == 1, (m.dim, v0)
        assert abs(traj.blowup_time - t_star) <= 2e-15 * t_star, (m.dim, v0)


def test_rays_without_a_pole_step_as_if_there_were_no_pole_test(monkeypatch):
    """The pole test only reads the rows, so a ray that reaches its horizon
    runs the same steps, bit for bit, as with a pole test that never
    accepts: on Theorem 1 rotations, non-flat tops, bi-invariant so(3) sums
    (non-flat controls) and the non-flat catalog entries, to t_max 1, 10
    and 50, and the class-C ray v0 = (-1, 1) of f' = f^2, whose |v| grows
    like 1 + t, to t_max 1e4: its rows show a pole behind it, at t = -1.
    The rows of every step are tested, and none is accepted."""
    rng = random.Random(43)
    so3 = populations.SHAPES["so3_lorentzian"]
    metrics = [m for dim in range(3, 10) for m in (sweeps.theorem1_true_instance(rng, dim), nonflat_riemannian(rng, dim))]
    metrics += [inputdoc.parse_document(so3.build(rng, n)) for n in so3.dims]
    rays = [(m, [float(rng.randint(-2, 2)) for _ in range(m.dim - 1)] + [1.0], t_max)
            for m in metrics for t_max in (1.0, 10.0, 50.0)]
    for name, v0 in (("classc2_nonflat", [1.0, 1.0]), ("heisenberg_euclidean", [1.0, 1.0, 1.0])):
        rays += [(catalog.build(name), v0, t_max) for t_max in (1.0, 10.0, 50.0)]
    rays.append((classc2_with_alpha(1), [-1.0, 1.0], 1e4))
    for m, v0, t_max in rays:
        monkeypatch.undo()
        ratios = recording_pole_ratio(monkeypatch)
        traj = integrate(m, v0, t_max)
        monkeypatch.setattr(geodesics, "pole_ratio", lambda W, rel_tol: None)
        assert traj.outcome == REACHED_HORIZON and traj == integrate(m, v0, t_max), (m.dim, v0, t_max)
        assert ratios == [None] * (len(traj.samples) - 1), (m.dim, v0, t_max)


def test_nonflat_classc_blow_ups_agree_with_the_norm_backstop(monkeypatch):
    """Non-flat class-C rays blow up too; there the pole stop ends the run
    on the steps of a run that marches |v| to BLOWUP_NORM, sooner, and its
    blow-up time agrees with that run's to 1e-8."""
    rng = random.Random(44)
    shape = populations.SHAPES["classc_nonflat"]
    rays = [(inputdoc.parse_document(shape.build(rng, n)), [float(rng.randint(-2, 2)) for _ in range(n - 1)] + [1.0])
            for n in shape.dims for _ in range(2)]
    for m, v0 in rays:
        monkeypatch.undo()
        traj = integrate(m, v0, 10.0)
        monkeypatch.setattr(geodesics, "pole_ratio", lambda W, rel_tol: None)
        marched = integrate(m, v0, 10.0)
        assert traj.outcome == marched.outcome == BLOW_UP_DETECTED, (m.dim, v0)
        assert traj.samples == marched.samples[:len(traj.samples)] and len(traj.samples) < len(marched.samples)
        assert abs(traj.blowup_time - marched.blowup_time) <= 1e-8 * marched.blowup_time, (m.dim, v0)


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


def recurrence_rows(B, v, s):
    """The series rows by the rescaled recurrence with its views rebuilt
    every order: xi_0 = s v, xi_{k+1} = sum_m B / (k + 1) (xi_m, xi_{k-m}),
    and w_k = xi_k / s."""
    X = np.empty((geodesics.ORDER + 1, len(v)))
    X[0] = v * s
    for k in range(geodesics.ORDER):
        X[:k + 1].T.dot(X[k::-1]).ravel().dot(B / (k + 1), out=X[k + 1])
    X /= s
    return X


def step_factor_rows(B, v, s):
    """The series rows by the recurrence on w_k itself, which carries the
    step factor: w_0 = v, w_{k+1} = s / (k + 1) sum_m B(w_m, w_{k-m}).  An
    oracle for the rescaled recurrence."""
    W = np.empty((geodesics.ORDER + 1, len(v)))
    W[0] = v
    for k in range(geodesics.ORDER):
        w = W[k + 1]
        W[:k + 1].T.dot(W[k::-1]).ravel().dot(B, out=w)
        w *= s / (k + 1)
    return W


def series_grid():
    """(n, B, cases) for dims 1 to MAX_DIM, the largest workspace a document
    can ask for: steps s and velocity scales 1e-6 to 1e3 with s |v| at most
    1, so every row is finite."""
    rng = np.random.default_rng(26)
    scales = (1e-6, 1e-3, 1.0, 1e3)
    for n in range(1, inputdoc.MAX_DIM + 1):
        B = rng.standard_normal((n * n, n)) / n
        yield n, B, [(rng.standard_normal(n) * vs, s) for s in scales for vs in scales if s * vs <= 1.0], rng


def test_workspace_rows_are_the_recurrence_bit_for_bit():
    """One `SeriesWorkspace` per operator, reused across its (v, s) cases in
    two orders, gives rows equal to the recurrence's bit for bit, so no state
    carries from one step to the next; a fresh workspace gives the same
    rows in its own array."""
    for n, B, cases, rng in series_grid():
        series = geodesics.SeriesWorkspace(B)
        for v, s in cases + [cases[i] for i in rng.permutation(len(cases))]:
            expected = recurrence_rows(B, v, s)
            assert np.isfinite(expected).all()
            assert np.array_equal(series.rows(v, s), expected), (n, s)
            fresh = geodesics.SeriesWorkspace(B).rows(v, s)
            assert fresh is not series.W and np.array_equal(fresh, expected), (n, s)


def test_rows_make_no_tail_sized_temporary():
    """Order k pairs xi_m with xi_{k-m} on the workspace's kept reversed
    rows, so no order copies its tail (rows xi_k .. xi_0) into a fresh
    array: on a warmed workspace, the tracemalloc peak of one `rows` call
    stays below half of one (ORDER + 1) x n float64 block, at n = 9 and at
    the largest workspace (a copied tail of the last order alone is
    ORDER x n floats)."""
    rng = np.random.default_rng(38)
    for n in (9, inputdoc.MAX_DIM):
        series = geodesics.SeriesWorkspace(rng.standard_normal((n * n, n)) / n)
        v = rng.standard_normal(n)
        series.rows(v, 0.5)
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            series.rows(v, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            if started:
                tracemalloc.stop()
        assert peak < (geodesics.ORDER + 1) * n * 8 / 2, (n, peak)


def test_rescaled_rows_agree_with_the_step_factor_recurrence():
    """On the grid of the bit-for-bit test the rows agree with those of the
    recurrence that carries the step factor to 1e-12 of each row's max (the
    largest difference is 2e-14).  The rows s w_k are formed in floats, so
    from the first one below the smallest normal float on they keep fewer
    bits, a factor s sooner than the rows w_k do: only the s = |v| = 1e-6
    cases reach that, past order 23, and those rows are left out."""
    tiny = np.finfo(float).tiny
    compared = 0
    for n, B, cases, _ in series_grid():
        for v, s in cases:
            W, oracle = geodesics.SeriesWorkspace(B).rows(v, s), step_factor_rows(B, v, s)
            for k, (w, expected) in enumerate(zip(W, oracle)):
                if np.abs(w).max() * s < tiny:
                    assert s * np.abs(v).max() < 1e-11 and k > 23, (n, s, k)
                    break
                assert np.abs(w - expected).max() <= 1e-12 * np.abs(expected).max(), (n, s, k)
                compared += 1
    assert compared > 7500


def test_integrator_steps_by_the_recurrence_rows(monkeypatch):
    """`integrate` forms each step's rows with one `SeriesWorkspace.rows`
    call, and they are the recurrence's bit for bit: on flat class-C rays
    (which blow up), Theorem 1 rotations and non-flat tops, dims 2-9."""
    calls = []
    rows = geodesics.SeriesWorkspace.rows

    def recording(self, v, s):
        W = rows(self, v, s)
        calls.append((v.copy(), s, W.copy()))
        return W

    monkeypatch.setattr(geodesics.SeriesWorkspace, "rows", recording)
    rng = random.Random(26)
    for dim in range(2, 10):
        ray, d, t_star = flat_classc_ray(rng, dim)
        top = nonflat_riemannian(rng, dim)
        rotation = sweeps.theorem1_true_instance(rng, dim)
        for m, v0, t_max in ((ray, [float(x) for x in d], 2 * t_star),
                             (top, [1.0] * dim, 5.0), (rotation, [1.0] * dim, 5.0)):
            calls.clear()
            traj = integrate(m, v0, t_max)
            assert calls and len(calls) * geodesics.ORDER == traj.series_terms
            B = operator(m)
            for v, s, W in calls:
                assert np.array_equal(W, recurrence_rows(B, v, s)), (dim, s)
