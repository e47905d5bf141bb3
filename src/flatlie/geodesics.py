"""Numerical probe of geodesic completeness.

For a left-invariant metric the geodesic through the identity is determined
by its velocity curve in the Lie algebra, which satisfies v' = -(v . v) with
the Levi-Civita product; extendability of that ODE to all time is exactly
geodesic completeness (see README for the reduction).  The right-hand side
is a quadratic polynomial, so the Taylor coefficients of the velocity follow
exactly from one Cauchy-product recurrence (`taylor_coefficients`).  This
module steps by the series of order ORDER, with each step chosen a priori
from its last two coefficients (Jorba & Zou, Experimental Math. 14 (2005)),
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
ORDER = 30
# a step is at most this many times the previous one, so theta^ORDER is finite
MAX_GROWTH = 1e6

REACHED_HORIZON = "reached_horizon"
BLOW_UP_DETECTED = "blow_up_detected"
STEP_UNDERFLOW = "step_underflow"
STEP_LIMIT = "step_limit"


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
    around one reshape, written into `out` when it is given.

    The definition-level right-hand side: `integrate` never calls it, it
    steps by `taylor_coefficients`, whose row 1 is s times this."""
    n = len(v)
    return v.dot(v.dot(op).reshape(n, n), out=out)


def taylor_coefficients(B: np.ndarray, v: np.ndarray, s: float) -> np.ndarray:
    """Rows w_0..w_ORDER of the Taylor series of the velocity through v,
    scaled by s: w_k = a_k s^k for v(t + tau) = sum_k a_k tau^k, so that
    v(t + theta s) = sum_k w_k theta^k.

    B is the negated product as the (n^2, n) operator
    `product_as_floats(m).reshape(n * n, n)`, so v' = B(v, v), and matching
    powers of tau gives w_0 = v and
    w_{k+1} = s / (k + 1) sum_m B(w_m, w_{k-m}): per order, one
    (k + 1) x n matmul for the n x n matrix sum_m w_m (x) w_{k-m} and one
    dot of it with B.  With s near the step to be taken every row stays near
    |v| or below, where the unscaled a_k overflow near a blow-up."""
    import numpy as np

    W = np.empty((ORDER + 1, len(v)))
    W[0] = v
    for k in range(ORDER):
        w = W[k + 1]
        W[:k + 1].T.dot(W[k::-1]).ravel().dot(B, out=w)
        w *= s / (k + 1)
    return W


class TrajectorySample(NamedTuple):
    t: float
    v: tuple[float, ...]
    norm: float     # Euclidean norm, the blow-up monitor
    energy: float   # <v, v> under the metric; conserved along exact geodesics


class GeodesicTrajectory(NamedTuple):
    samples: tuple[TrajectorySample, ...]
    outcome: str  # REACHED_HORIZON | BLOW_UP_DETECTED | STEP_UNDERFLOW | STEP_LIMIT
    blowup_time: float | None = None
    series_terms: int = 0  # Taylor coefficients formed: ORDER per step

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
    """Taylor-series integration of v' = -(v . v) from v(0) = v0.

    Each step forms the coefficients w_0..w_p (p = ORDER) scaled by the
    previous step s, and takes the step theta s with
    theta = min((tol / |w_{p-1}|)^(1/(p-1)), (tol / |w_p|)^(1/p)) e^(-0.7/(p-1)),
    tol = rel_tol (1 + |v|), and theta at most MAX_GROWTH; the new velocity
    is the series at theta, one dot of the powers theta^k with the rows.  No
    step is rejected.

    Blow-up is declared when the velocity norm exceeds BLOWUP_NORM, or when
    the step falls below MIN_STEP while the norm has grown by a factor >= 1e3
    (a collapsing step without growth is reported as STEP_UNDERFLOW instead).
    The final step's time is the blow-up estimate.  After MAX_STEPS steps
    short of t_max the samples so far are returned as STEP_LIMIT.
    """
    if not (1e-14 < rel_tol < 1e-2):
        raise InvalidToleranceError("rel_tol", f"must be in (1e-14, 1e-2), got {rel_tol}")
    if not (0 < t_max < math.inf):
        raise InvalidGeodesicInputError("t_max", f"must be finite and positive, got {t_max}")
    if t_max < 10 * MIN_STEP:
        # the first scale is at most t_max / 10 and a step at most MAX_GROWTH
        # scales: a far shorter horizon could end as a false STEP_UNDERFLOW
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
    B = op.reshape(m.dim * m.dim, m.dim)

    t = 0.0
    norm = math.hypot(*components)
    # states as Python floats; energies are formed once, at return
    ts, vs, norms = [t], [components], [norm]
    terms = 0

    def trajectory(outcome: str, blowup_time: float | None = None) -> GeodesicTrajectory:
        V = np.array(vs)
        energies = np.einsum("si,ij,sj->s", V, G, V).tolist()
        samples = tuple(
            TrajectorySample(tc, tuple(vc), nc, ec) for tc, vc, nc, ec in zip(ts, vs, norms, energies)
        )
        return GeodesicTrajectory(samples, outcome, blowup_time, terms)

    norm0 = max(1.0, norm)
    # The first scale is at most t_max / 10 and at most 1 / (beta (1 + |v0|))
    # for beta = |B|_F: |B(x, y)| <= beta |x| |y| bounds the rows by
    # |v0| (s beta |v0|)^k, so none of them can overflow.
    beta_v = math.sqrt(float(np.vdot(op, op))) * (1.0 + norm)
    s = t_max / 10 / (1.0 + t_max / 10 * beta_v)
    safety = math.exp(-0.7 / (ORDER - 1))
    powers = np.arange(ORDER + 1.0)

    while t < t_max:
        if len(ts) > MAX_STEPS:
            return trajectory(STEP_LIMIT)
        W = taylor_coefficients(B, v, s)
        terms += ORDER
        tol = rel_tol * (1.0 + norm)
        theta = MAX_GROWTH
        for k in (ORDER - 1, ORDER):
            c = math.hypot(*W[k].tolist())
            if c:  # a row of 0 (a polynomial velocity, or an underflow) bounds nothing
                theta = min(theta, safety * (tol / c) ** (1.0 / k))
        h = theta * s
        if h < MIN_STEP:
            if norm > 1e3 * norm0:
                return trajectory(BLOW_UP_DETECTED, t)
            return trajectory(STEP_UNDERFLOW)
        if t + h < t_max:
            t += h
        else:
            h, t = t_max - t, t_max
            theta = h / s
        v = (theta ** powers).dot(W)
        vl = v.tolist()
        if not all(map(math.isfinite, vl)):
            return trajectory(BLOW_UP_DETECTED, ts[-1])
        norm = math.hypot(*vl)
        ts.append(t)
        vs.append(vl)
        norms.append(norm)
        if norm > BLOWUP_NORM:
            return trajectory(BLOW_UP_DETECTED, t)
        s = h

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
