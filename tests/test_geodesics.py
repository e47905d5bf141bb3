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
    STEP_UNDERFLOW,
    GeodesicTrajectory,
    TrajectorySample,
    blowup_time_classc,
    euler_arnold_rhs,
    integrate,
    product_as_floats,
    write_csv,
)
from flatlie.lie import LieAlgebra
from flatlie.metric import MetricLieAlgebra, is_flat, levi_civita


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


def test_energy_conservation_across_catalog():
    cases = [
        ("abelian_minkowski", [1.0, 1.0, 1.0]),
        ("rot3", [1.0, 0.5, -0.5]),
        ("classc2_nonflat", [1.0, 1.0]),
        ("heisenberg_euclidean", [1.0, 1.0, 1.0]),
    ]
    for name, v0 in cases:
        traj = integrate(catalog.build(name), v0, t_max=10.0, rel_tol=1e-9)
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
    assert len(traj.samples) == 51
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
# differential test: the stepper against a plain loop of the same method
# ---------------------------------------------------------------------------

def float_product(m):
    """p[i][j][k] as floats, one float per Fraction of `levi_civita`."""
    return np.array([[[float(x) for x in row] for row in plane] for plane in levi_civita(m).p], dtype=float)


def reference_integrate(m, v0, t_max, rel_tol=1e-9):
    """An independent DOP853 loop, kept as the oracle: the same tableau and
    step rule, with an einsum right-hand side, stages summed in Python, the
    error vectors e5 and e3 formed explicitly and each sample built as it is
    accepted.  f at an accepted velocity is kept as the next step's first
    stage.  Its float tensor comes from the Fraction product, not from the
    integer view that `product_as_floats` reads."""
    P = float_product(m)
    G = np.array([[float(x) for x in row] for row in m.gram], dtype=float)

    def rhs(v):
        return -np.einsum("i,j,ijk->k", v, v, P)

    def sample(tc, vc):
        return TrajectorySample(tc, tuple(float(x) for x in vc), float(np.linalg.norm(vc)), float(vc @ G @ vc))

    v = np.array([float(x) for x in v0])
    t = 0.0
    samples = [sample(t, v)]
    norm0 = max(1.0, float(np.linalg.norm(v)))
    f = rhs(v)
    evals = 1
    h = min(0.1, t_max / 10.0, rel_tol ** 0.2 / (1.0 + float(np.linalg.norm(f))))
    while t < t_max:
        if len(samples) > geodesics.MAX_STEPS:
            return GeodesicTrajectory(tuple(samples), STEP_LIMIT, None, evals)
        h = min(h, t_max - t)
        ks = [f]
        for stage in range(1, 12):
            ks.append(rhs(v + h * sum(a * k for a, k in zip(geodesics._A[stage], ks))))
        v8 = v + h * sum(b * k for b, k in zip(geodesics._B, ks))
        f8 = rhs(v8)
        evals += 12
        e5 = h * sum(e * k for e, k in zip(geodesics._E5, ks))
        e3 = h * sum(e * k for e, k in zip(geodesics._E3, ks))
        sq5, sq3 = float(e5 @ e5), float(e3 @ e3)
        err = sq5 / math.sqrt(sq5 + 0.01 * sq3) if sq5 or sq3 else 0.0
        scale = rel_tol * (1.0 + float(np.linalg.norm(v)))
        if np.isfinite(err) and err <= scale:
            t += h
            v, f = v8, f8
            if not np.isfinite(v).all():
                return GeodesicTrajectory(tuple(samples), BLOW_UP_DETECTED, samples[-1].t, evals)
            samples.append(sample(t, v))
            if np.linalg.norm(v) > geodesics.BLOWUP_NORM:
                return GeodesicTrajectory(tuple(samples), BLOW_UP_DETECTED, t, evals)
        if not np.isfinite(err) or err > 0:
            ratio = (scale / err) ** (1 / 8) if np.isfinite(err) and err > 0 else 0.2
            h *= min(5.0, max(0.2, 0.9 * ratio))
        else:
            h *= 5.0
        if h < MIN_STEP and t < t_max:
            if float(np.linalg.norm(v)) > 1e3 * norm0:
                return GeodesicTrajectory(tuple(samples), BLOW_UP_DETECTED, t, evals)
            return GeodesicTrajectory(tuple(samples), STEP_UNDERFLOW, None, evals)
    return GeodesicTrajectory(tuple(samples), REACHED_HORIZON, None, evals)


def assert_matches_reference(m, v0, t_max, label):
    got, want = integrate(m, v0, t_max), reference_integrate(m, v0, t_max)
    assert (got.outcome, len(got.samples), got.rhs_evaluations) == (
        want.outcome, len(want.samples), want.rhs_evaluations), label
    if want.outcome == BLOW_UP_DETECTED:
        assert abs(got.blowup_time - want.blowup_time) <= 1e-9 * want.blowup_time, label
    else:
        v, w = np.array(got.final.v), np.array(want.final.v)
        assert np.linalg.norm(v - w) <= 1e-9 * (1.0 + np.linalg.norm(w)), label
        # Under an indefinite metric |v| can grow while <v, v> stays put, so
        # the energy is measured on the scale of its terms, |G| |v|^2.
        G = np.array([[float(x) for x in row] for row in m.gram])
        terms = np.linalg.norm(G, 2) * max(s.norm for s in want.samples) ** 2
        e0 = want.samples[0].energy
        assert abs(got.energy_drift() - want.energy_drift()) <= 1e-12 * (1.0 + max(abs(e0), terms)), label
    return want.outcome


#: the published nodes c_i of the DOP853 stages 0..11
DOP853_NODES = (
    0.0, 0.526001519587677318785587544488e-1, 0.789002279381515978178381316732e-1,
    0.118350341907227396726757197510, 0.281649658092772603273242802490, 0.333333333333333333333333333333,
    0.25, 0.307692307692307692307692307692, 0.651282051282051282051282051282, 0.6,
    0.857142857142857142857142857142, 1.0,
)


def test_tableau_satisfies_its_order_conditions():
    """Each stage's row sums to its node, the weights integrate c^(k-1)
    exactly for k <= 8, and the embedded weights b - E5 and b - E3 for
    k <= 5 and k <= 3."""
    A, c = geodesics._A, DOP853_NODES
    assert len(A) == len(c) == 12 and all(len(row) == s for s, row in enumerate(A))
    for s, row in enumerate(A):
        assert abs(math.fsum(row) - c[s]) <= 1e-14, s
    b = geodesics._B
    b5 = [x - e for x, e in zip(b, geodesics._E5)]
    b3 = [x - e for x, e in zip(b, geodesics._E3)]
    for weights, order in ((b, 8), (b5, 5), (b3, 3)):
        assert len(weights) == 12
        for k in range(1, order + 1):
            assert abs(math.fsum(w * x ** (k - 1) for w, x in zip(weights, c)) - 1 / k) <= 1e-14, (order, k)


def test_tableau_matches_scipy():
    coefficients = pytest.importorskip("scipy.integrate._ivp.dop853_coefficients")
    A = np.zeros((12, 12))
    for s, row in enumerate(geodesics._A):
        A[s, :s] = row
    np.testing.assert_array_equal(A, coefficients.A[:12, :12])
    np.testing.assert_array_equal(geodesics._B, coefficients.B)
    np.testing.assert_array_equal(DOP853_NODES, coefficients.C[:12])
    # scipy pads the error weights with a zero for the stage at the new velocity
    for ours, theirs in ((geodesics._E5, coefficients.E5), (geodesics._E3, coefficients.E3)):
        np.testing.assert_array_equal(ours, theirs[:12])
        assert theirs[12] == 0.0


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


def test_stepper_matches_reference_on_catalog():
    outcomes = set()
    for name in catalog.names():
        m = catalog.build(name)
        n = m.dim
        for v0 in [[float(i == j) for i in range(n)] for j in range(n)] + [[1.0] * n]:
            for t_max in (5.0, 50.0):
                outcomes.add(assert_matches_reference(m, v0, t_max, (name, v0, t_max)))
    assert outcomes == {REACHED_HORIZON, BLOW_UP_DETECTED}


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


def test_stepper_matches_reference_on_generated_instances():
    rng = random.Random(10)
    for dim in range(2, 10):
        flat = sweeps.theorem1_true_instance(rng, dim)
        assert is_flat(flat).flat
        v0 = [rng.randint(-2, 2) for _ in range(dim)]
        v0[0] = 1
        assert assert_matches_reference(flat, v0, 5.0, ("rotation", dim)) == REACHED_HORIZON

        classc, d, t_max = flat_classc_ray(rng, dim)
        assert is_flat(classc).flat
        assert assert_matches_reference(classc, d, t_max, ("classc", dim)) == BLOW_UP_DETECTED

        nonflat = nonflat_riemannian(rng, dim)
        assert not is_flat(nonflat).flat
        v0 = [rng.randint(-2, 2) for _ in range(dim)]
        v0[-1] = 1
        assert assert_matches_reference(nonflat, v0, 5.0, ("nonflat", dim)) == REACHED_HORIZON


def test_stepper_matches_reference_on_a_dense_dim20_document():
    """[e_1, e_j] dense in e_2..e_20 under a dense Riemannian metric."""
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
    v0 = [rng.choice((-1.0, 1.0)) / math.sqrt(n) for _ in range(n)]
    assert assert_matches_reference(m, v0, 2.0, "dense20") == REACHED_HORIZON


def test_every_rhs_evaluation_is_one_call(monkeypatch):
    """`rhs_evaluations` counts calls of the module-level `euler_arnold_rhs`:
    one at v0 into K[0], then twelve per attempted step, accepted or
    rejected (eleven stages and f at the new velocity), each written into its
    own row of K.  No call is at a velocity already evaluated: K[0] is never
    written again, an accepted step's last row is copied into it."""
    calls = []
    rhs = geodesics.euler_arnold_rhs

    def counted(op, v, out=None):
        calls.append((None if out is None else out.__array_interface__["data"][0], v.tobytes()))
        return rhs(op, v, out=out)

    monkeypatch.setattr(geodesics, "euler_arnold_rhs", counted)

    def attempts(m, v0, t_max):
        calls.clear()
        traj = integrate(m, v0, t_max)
        rows = [row for row, _ in calls]
        first, stages = rows[0], rows[1:13]
        assert None not in rows and len(set(stages)) == 12 and first not in stages
        attempted = (len(rows) - 1) // 12
        assert rows[1:] == stages * attempted
        assert len(rows) == traj.rhs_evaluations == 1 + 12 * attempted
        if len({s.v for s in traj.samples}) > 1:  # on a moving velocity every argument is new
            arguments = [v for _, v in calls]
            assert len(set(arguments)) == len(arguments)
        return traj, attempted

    outcomes = set()
    for name in catalog.names():
        m = catalog.build(name)
        for v0 in ([1.0] * m.dim, [float(i == 0) for i in range(m.dim)]):
            traj, attempted = attempts(m, v0, 5.0)
            assert attempted >= len(traj.samples) - 1
            outcomes.add(traj.outcome)
    assert outcomes == {REACHED_HORIZON, BLOW_UP_DETECTED}
    traj, attempted = attempts(catalog.build("classc2_nonflat"), [1.0, 1.0], 5.0)
    assert attempted > len(traj.samples) - 1  # some steps were rejected
