"""Numerical probe of geodesic completeness.

For a left-invariant metric the geodesic through the identity is determined
by its velocity curve in the Lie algebra, which satisfies v' = -(v . v) with
the Levi-Civita product; extendability of that ODE to all time is exactly
geodesic completeness (see README for the reduction).  This module
integrates the velocity equation with an adaptive embedded Runge-Kutta pair
and flags finite-time blow-up.  Floats only: the exact kernel is never used
inside the stepper.
"""

from __future__ import annotations

import csv
import math
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .errors import InvalidGeodesicInputError, InvalidToleranceError, NonPositiveProductError
from .metric import MetricLieAlgebra, integer_product

if TYPE_CHECKING:
    import numpy as np

BLOWUP_NORM = 1e12
MIN_STEP = 1e-14
MAX_STEPS = 100_000

REACHED_HORIZON = "reached_horizon"
BLOW_UP_DETECTED = "blow_up_detected"
STEP_UNDERFLOW = "step_underflow"
STEP_LIMIT = "step_limit"

# Fehlberg 4(5) tableau; the 5th-order solution is propagated.
_RK_A = (
    (),
    (1 / 4,),
    (3 / 32, 9 / 32),
    (1932 / 2197, -7200 / 2197, 7296 / 2197),
    (439 / 216, -8.0, 3680 / 513, -845 / 4104),
    (-8 / 27, 2.0, -3544 / 2565, 1859 / 4104, -11 / 40),
)
_RK_B5 = (16 / 135, 0.0, 6656 / 12825, 28561 / 56430, -9 / 50, 2 / 55)
_RK_B4 = (25 / 216, 0.0, 1408 / 2565, 2197 / 4104, -1 / 5, 0.0)


def product_as_floats(m: MetricLieAlgebra) -> np.ndarray:
    """The negated Levi-Civita product as the (n, n^2) float operator that
    `euler_arnold_rhs` reads: row i holds -(e_i e_j)_k at column j n + k.

    Built once per integration from the integer view p = P / D of
    `integer_product`, as -(x / D) per entry: int true division is correctly
    rounded, so each entry is exactly -float(Fraction(x, D)), and no
    Fraction product is built."""
    import numpy as np

    P, D = integer_product(m)
    return np.array([[-(x / D) for plane in P[i] for x in plane] for i in range(m.dim)], dtype=float)


def euler_arnold_rhs(op: np.ndarray, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Velocity equation right-hand side -(v . v) by bilinear evaluation on
    the negated operator of `product_as_floats`: two vector-matrix products
    around one reshape, written into `out` when it is given."""
    n = len(v)
    return v.dot(v.dot(op).reshape(n, n), out=out)


class TrajectorySample(NamedTuple):
    t: float
    v: tuple[float, ...]
    norm: float     # Euclidean norm, the blow-up monitor
    energy: float   # <v, v> under the metric; conserved along exact geodesics


class GeodesicTrajectory(NamedTuple):
    samples: tuple[TrajectorySample, ...]
    outcome: str  # REACHED_HORIZON | BLOW_UP_DETECTED | STEP_UNDERFLOW | STEP_LIMIT
    blowup_time: float | None = None
    rhs_evaluations: int = 0

    @property
    def final(self) -> TrajectorySample:
        return self.samples[-1]

    def energy_drift(self) -> float:
        e0 = self.samples[0].energy
        return max(abs(s.energy - e0) for s in self.samples)


def integrate(
    m: MetricLieAlgebra,
    v0: Sequence[float],
    t_max: float,
    rel_tol: float = 1e-9,
) -> GeodesicTrajectory:
    """Adaptive RKF45 integration of v' = -(v . v) from v(0) = v0.

    Blow-up is declared when the velocity norm exceeds BLOWUP_NORM, or when
    the step size collapses below MIN_STEP while the norm has grown by a
    factor >= 1e3 (a collapsing step without growth is reported as
    STEP_UNDERFLOW instead).  The final accepted time is the blow-up
    estimate.  After MAX_STEPS accepted steps short of t_max the samples so
    far are returned as STEP_LIMIT.
    """
    if not (1e-14 < rel_tol < 1e-2):
        raise InvalidToleranceError("rel_tol", f"must be in (1e-14, 1e-2), got {rel_tol}")
    if not (0 < t_max < math.inf):
        raise InvalidGeodesicInputError("t_max", f"must be finite and positive, got {t_max}")
    if t_max < 10 * MIN_STEP:
        # the first step is t_max / 10: below MIN_STEP it would end as a false STEP_UNDERFLOW
        raise InvalidGeodesicInputError("t_max", f"must be at least {10 * MIN_STEP:g}, got {t_max}")
    components = [float(x) for x in v0]
    if len(components) != m.dim:
        raise ValueError(f"initial velocity must have {m.dim} components")
    if not all(map(math.isfinite, components)):
        raise InvalidGeodesicInputError("v0", f"must have finite components, got {components}")
    import numpy as np

    v = np.array(components, dtype=float)
    op = product_as_floats(m)
    G = np.array([[float(x) for x in row] for row in m.gram], dtype=float)
    if not (math.hypot(*v) < BLOWUP_NORM and math.isfinite(v @ G @ v)):
        raise InvalidGeodesicInputError(
            "v0", f"must have norm below {BLOWUP_NORM:g} and finite energy, got {components}"
        )
    # Stage derivatives are written in place into the rows of K; stage s
    # reads the views K[:s] and forms its argument in buf.
    K = np.empty((6, m.dim))
    k0, buf = K[0], np.empty(m.dim)
    stages = [(np.array(_RK_A[s]), K[:s], K[s]) for s in range(1, 6)]
    # One product gives the 5th-order increment and the error estimate v5 - v4.
    weights = np.array([_RK_B5, [b5 - b4 for b5, b4 in zip(_RK_B5, _RK_B4)]])

    t = 0.0
    norm = math.hypot(*components)
    # accepted states as Python floats; energies are formed once, at return
    ts, vs, norms = [t], [components], [norm]

    def trajectory(outcome: str, blowup_time: float | None = None) -> GeodesicTrajectory:
        V = np.array(vs)
        energies = np.einsum("si,ij,sj->s", V, G, V).tolist()
        samples = tuple(
            TrajectorySample(tc, tuple(vc), nc, ec) for tc, vc, nc, ec in zip(ts, vs, norms, energies)
        )
        return GeodesicTrajectory(samples, outcome, blowup_time, evals)

    norm0 = max(1.0, norm)
    f0 = euler_arnold_rhs(op, v)
    evals = 1
    h = min(0.1, t_max / 10.0, rel_tol ** 0.2 / (1.0 + math.hypot(*f0.tolist())))

    while t < t_max:
        if len(ts) > MAX_STEPS:
            return trajectory(STEP_LIMIT)
        h = min(h, t_max - t)
        euler_arnold_rhs(op, v, out=k0)
        for a, k_prev, k in stages:
            # the bits of v + h * a.dot(k_prev): IEEE * and + commute exactly
            a.dot(k_prev, out=buf)
            buf *= h
            buf += v
            euler_arnold_rhs(op, buf, out=k)
        evals += 6
        step, delta = h * weights.dot(K)
        err = math.hypot(*delta.tolist())
        scale = rel_tol * (1.0 + norm)

        if math.isfinite(err) and err <= scale:
            t += h
            v = v + step
            vl = v.tolist()
            if not all(map(math.isfinite, vl)):
                return trajectory(BLOW_UP_DETECTED, ts[-1])
            norm = math.hypot(*vl)
            ts.append(t)
            vs.append(vl)
            norms.append(norm)
            if norm > BLOWUP_NORM:
                return trajectory(BLOW_UP_DETECTED, t)

        if not math.isfinite(err) or err > 0:
            ratio = (scale / err) ** 0.2 if math.isfinite(err) and err > 0 else 0.2
            h *= min(5.0, max(0.2, 0.9 * ratio))
        else:
            h *= 5.0
        if h < MIN_STEP and t < t_max:
            if norm > 1e3 * norm0:
                return trajectory(BLOW_UP_DETECTED, t)
            return trajectory(STEP_UNDERFLOW)

    return trajectory(REACHED_HORIZON)


def blowup_time_classc(alpha, scale) -> float:
    """Exact blow-up time of f' = alpha f^2, f(0) = scale: geodesics along
    the null transversal d of a flat class-C metric satisfy exactly this
    scalar Riccati equation."""
    product = float(alpha) * float(scale)
    if product <= 0:
        raise NonPositiveProductError("no finite blow-up on this ray (alpha * scale <= 0)")
    return 1.0 / product


def write_csv(trajectory: GeodesicTrajectory, path) -> None:
    """Export samples as CSV with columns t, v_1..v_n, norm."""
    n = len(trajectory.samples[0].v)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + [f"v_{i + 1}" for i in range(n)] + ["norm"])
        for s in trajectory.samples:
            writer.writerow([repr(s.t)] + [repr(x) for x in s.v] + [repr(s.norm)])
