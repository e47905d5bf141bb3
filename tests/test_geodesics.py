import csv
from fractions import Fraction as F

import numpy as np
import pytest

from flatlie import catalog, geodesics
from flatlie.errors import InvalidGeodesicInputError, InvalidToleranceError, NonPositiveProductError
from flatlie.geodesics import (
    BLOW_UP_DETECTED,
    REACHED_HORIZON,
    STEP_LIMIT,
    blowup_time_classc,
    euler_arnold_rhs,
    integrate,
    product_as_floats,
    write_csv,
)
from flatlie.lie import LieAlgebra
from flatlie.metric import MetricLieAlgebra, levi_civita


def classc2_with_alpha(alpha):
    """[d, e] = alpha e with the hyperbolic-pair metric: flat, and v = f d
    satisfies the scalar Riccati equation f' = alpha f^2."""
    a = LieAlgebra.from_brackets(2, {(0, 1): [0, F(alpha)]})
    return MetricLieAlgebra.make(a, [[0, 1], [1, 0]])


def test_rhs_abelian_zero():
    P = product_as_floats(levi_civita(catalog.build("abelian_minkowski")))
    v = np.array([1.0, -2.0, 3.0])
    assert np.allclose(euler_arnold_rhs(P, v), 0.0)


def test_rhs_classc_d_direction():
    # -(d d) = alpha d
    P = product_as_floats(levi_civita(catalog.build("classc2_flat")))
    assert np.allclose(euler_arnold_rhs(P, np.array([1.0, 0.0])), [1.0, 0.0])


def test_rhs_rot3_mixed():
    # v = s + e1: v.v = ad_s(e1) = e2, so the rhs is -e2
    P = product_as_floats(levi_civita(catalog.build("rot3")))
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
    for t_max in (-1.0, 0.0, float("nan"), float("inf")):
        with pytest.raises(InvalidGeodesicInputError) as info:
            integrate(m, [1.0, 0.0, 0.0], t_max=t_max)
        assert info.value.field == "t_max"
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
