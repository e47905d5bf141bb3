"""Numerical probe of geodesic completeness.

For a left-invariant metric the geodesic through the identity is determined
by its velocity curve in the Lie algebra, which satisfies v' = -(v . v) with
the Levi-Civita product; extendability of that ODE to all time is exactly
geodesic completeness (see README for the reduction).  The right-hand side
is a quadratic polynomial, so the Taylor coefficients of the velocity follow
exactly from one Cauchy-product recurrence (`SeriesWorkspace.rows`), run
on the time-rescaled velocity, whose recurrence carries no step factor.
This module steps by the series of order ORDER, with each step chosen a priori
from its last two coefficients (Jorba & Zou, Experimental Math. 14 (2005)),
and flags finite-time blow-up.  Near a simple real pole the ratio of
consecutive coefficients gives the distance to it (Corliss & Chang, ACM
TOMS 8 (1982)).  Every step's rows are tested, so a blow-up ray ends at the
first step whose rows show its pole, with the pole as its blow-up time.
Floats only: the exact kernel is never used inside the stepper.
"""

from __future__ import annotations

import csv
import math
from operator import mul
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .errors import InvalidGeodesicInputError, InvalidToleranceError
from .metric import MetricLieAlgebra, integer_product

if TYPE_CHECKING:
    import numpy as np

BLOWUP_NORM = 1e12
# a step collapsing below MIN_STEP is a blow-up only once |v| has grown this
# many times over max(1, |v0|), and a STEP_UNDERFLOW otherwise
BLOWUP_GROWTH = 1e3
MIN_STEP = 1e-14
MAX_STEPS = 100_000
ORDER = 30
# a step is at most this many times the previous one, so theta^ORDER is finite
MAX_GROWTH = 1e6
# the rows are formed as xi_k = s w_k with s <= t_max and |w_k| near
# |v| < BLOWUP_NORM, and the products xi_m xi_j must stay finite
MAX_HORIZON = 1e100

REACHED_HORIZON = "reached_horizon"
BLOW_UP_DETECTED = "blow_up_detected"
STEP_UNDERFLOW = "step_underflow"
STEP_LIMIT = "step_limit"


def product_as_floats(m: MetricLieAlgebra) -> np.ndarray:
    """The negated Levi-Civita product as an (n, n^2) float operator:
    row i holds -(e_i e_j)_k at column j n + k, so its reshape to (n^2, n)
    is the B of `SeriesWorkspace`, with -(v . v) = B(v, v).

    Built once per integration from the integer view p = P / D of
    `integer_product`, as -(x / D) per entry: int true division is correctly
    rounded, so each entry is exactly -float(Fraction(x, D)), and no
    Fraction product is built."""
    import numpy as np

    P, D = integer_product(m)
    return np.array([[-(x / D) for plane in P[i] for x in plane] for i in range(m.dim)], dtype=float)


class SeriesWorkspace:
    """The buffers and views of the Taylor series recurrence for one
    operator B, made once per integration.

    B is the negated product as the (n^2, n) operator
    `product_as_floats(m).reshape(n * n, n)`, so v' = B(v, v).  The rows
    w_k = a_k s^k of v(t + tau) = sum_k a_k tau^k, scaled by a step s, come
    from the time-rescaled velocity x(tau) = s v(t + s tau), which satisfies
    the same equation x' = B(x, x) with no step factor: its coefficients
    xi_k = s w_k obey xi_0 = s v and xi_{k+1} = sum_m B_k(xi_m, xi_{k-m})
    for B_k = B / (k + 1), and w_k = xi_k / s.  With s near the step to be
    taken every row stays near |v| or below, where the unscaled a_k
    overflow near a blow-up.

    It holds the (ORDER + 1) x n row buffer W, a second (ORDER + 1) x n
    buffer R with R[ORDER - m] = W[m] (the rows in reverse order), the
    n x n Cauchy-product buffer C with its flat view, the operators
    B_k = B / (k + 1) as one (ORDER, n^2, n) array, and for each order k
    the views W[:k+1].T, R[ORDER-k:], B_k, W[k+1] and R[ORDER-k-1], all
    made once.  `rows` then forms order k of the rescaled recurrence in two
    numpy calls and one row copy: one (k + 1) x n matmul into C for
    sum_m xi_m (x) xi_{k-m}, one dot of C with B_k into xi_{k+1}, and the
    copy of xi_{k+1} into R.  Pairing xi_m with xi_{k-m} needs the rows in
    both orders: R[ORDER-k:] holds xi_k .. xi_0 contiguously, which is the
    operand numpy would otherwise copy out of the negative-stride view
    W[k::-1] before every matmul.  So these are the BLAS calls and operands
    of the recurrence written with the views W[k::-1], and the rows are its
    bits, with no temporary array per order."""

    __slots__ = ("W", "_R", "_C", "_flat", "_orders")

    def __init__(self, B: np.ndarray):
        import numpy as np

        n = B.shape[1]
        self.W = W = np.empty((ORDER + 1, n))
        self._R = R = np.empty((ORDER + 1, n))
        self._C = np.empty((n, n))
        self._flat = self._C.reshape(n * n)
        Bk = B / np.arange(1.0, ORDER + 1.0)[:, None, None]
        self._orders = tuple(
            (W[:k + 1].T, R[ORDER - k:], Bk[k], W[k + 1], R[ORDER - k - 1]) for k in range(ORDER)
        )

    def rows(self, v: np.ndarray, s: float) -> np.ndarray:
        """The rows w_0..w_ORDER, so that v(t + theta s) = sum_k w_k theta^k,
        written over the previous ones in the workspace's buffer W, which
        is returned: every row is formed anew from v and s, as xi_k and then
        divided by s in one call.  Row 1 at s = 1 is -(v . v)."""
        C, flat = self._C, self._flat
        W = self.W
        W[0] = v * s
        self._R[ORDER] = W[0]
        for head, tail, Bk, w, r in self._orders:
            head.dot(tail, out=C)
            flat.dot(Bk, out=w)
            r[...] = w
        W /= s
        return W


def pole_ratio(W: np.ndarray, rel_tol: float) -> float | None:
    """The ratio lambda of a simple real pole ahead, read off the last rows
    of a step, or None.

    If v(t + tau) is dominated by c / (rho - tau), its coefficients are
    a_k = c rho^(-k-1), so the rows w_k = a_k s^k satisfy
    w_k = lambda w_{k+1} with lambda = rho / s, and the pole is at
    t + s lambda (the Corliss-Chang ratio estimate).  Each consecutive pair
    of w_{p-3} .. w_p gets its least-squares ratio lambda_k; the rows count
    as that pole's only if w_{p-2} .. w_p are nonzero and finite, the
    spread of the lambda_k is at most rel_tol lambda_{p-1}, which is
    returned, and every |w_k - lambda_k w_{k+1}| is at most rel_tol |w_k|.

    Every step's rows are tested, and most fail the spread, so the ratios
    are formed in Python floats (four rows as lists, no numpy call per
    check), last pair first, and the test ends at the first ratio that
    widens the spread past rel_tol lambda_{p-1}."""
    rows = W[ORDER - 3:].tolist()
    pairs = (rows[2], rows[3]), (rows[1], rows[2]), (rows[0], rows[1])
    ratios = []
    for head, tail in pairs:
        square = sum(map(mul, tail, tail))
        if not 0.0 < square < math.inf:
            return None
        ratio = sum(map(mul, head, tail)) / square
        ratios.append(ratio)
        # a spread of at most rel_tol lambda_{p-1} leaves every ratio positive
        if not (math.isfinite(ratio) and max(ratios) - min(ratios) <= rel_tol * ratios[0]):
            return None
    for (head, tail), ratio in zip(pairs, ratios):
        if sum((h - ratio * x) ** 2 for h, x in zip(head, tail)) > rel_tol ** 2 * sum(map(mul, head, head)):
            return None
    return ratios[0]


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

    Each step forms the Taylor coefficients w_0..w_p (p = ORDER), scaled by
    the previous step s, with one call of `SeriesWorkspace.rows` on a
    workspace made once per integration, and
    takes the step theta s with
    theta = min((tol / |w_{p-1}|)^(1/(p-1)), (tol / |w_p|)^(1/p)) e^(-0.7/(p-1)),
    tol = rel_tol (1 + |v|), and theta at most MAX_GROWTH; the new velocity
    is the series at theta, one dot of the powers theta^k with the rows.  No
    step is rejected.

    Every step's rows are tested for a simple real pole ahead
    (`pole_ratio`, the Corliss-Chang estimate, with rel_tol as its
    tolerance).  If they show one at t + s lambda with
    t + s lambda (1 + rel_tol) < t_max, the step they were formed for is
    taken and the run ends as BLOW_UP_DETECTED, with t + s lambda as the
    blow-up time.  The ratios agree only to rel_tol lambda, so a pole at or
    past t_max, or nearer t_max than that, changes nothing.  The test only
    reads the rows, so a run that ends any other way takes the same steps
    as without it.

    As backstops for rays whose rows show no simple pole, blow-up is also
    declared when the velocity norm exceeds BLOWUP_NORM, or when the step
    falls below MIN_STEP after |v| has grown BLOWUP_GROWTH-fold over
    max(1, |v0|) (a collapsing step without that growth is reported as
    STEP_UNDERFLOW instead);
    there the final step's time is the blow-up estimate.  After MAX_STEPS
    steps short of t_max the samples so far are returned as STEP_LIMIT.
    """
    if not (1e-14 < rel_tol < 1e-2):
        raise InvalidToleranceError("rel_tol", f"must be in (1e-14, 1e-2), got {rel_tol}")
    if not (0 < t_max < math.inf):
        raise InvalidGeodesicInputError("t_max", f"must be finite and positive, got {t_max}")
    if t_max < 10 * MIN_STEP:
        # the first scale is at most t_max / 10 and a step at most MAX_GROWTH
        # scales: a far shorter horizon could end as a false STEP_UNDERFLOW
        raise InvalidGeodesicInputError("t_max", f"must be at least {10 * MIN_STEP:g}, got {t_max}")
    if t_max > MAX_HORIZON:
        raise InvalidGeodesicInputError("t_max", f"must be at most {MAX_HORIZON:g}, got {t_max}")
    components = [float(x) for x in v0]
    if len(components) != m.dim:
        raise InvalidGeodesicInputError("v0", f"must have {m.dim} components, got {len(components)}")
    if not all(map(math.isfinite, components)):
        raise InvalidGeodesicInputError("v0", f"must have finite components, got {components}")
    import numpy as np

    v = np.array(components, dtype=float)
    op = product_as_floats(m)
    # int true division is correctly rounded: each entry is float(Fraction(x, g))
    G = np.array([[x / m.g for x in row] for row in m.G], dtype=float)
    if not (math.hypot(*v) < BLOWUP_NORM and math.isfinite(v @ G @ v)):
        raise InvalidGeodesicInputError(
            "v0", f"must have norm below {BLOWUP_NORM:g} and finite energy, got {components}"
        )
    series = SeriesWorkspace(op.reshape(m.dim * m.dim, m.dim))

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
        W = series.rows(v, s)
        terms += ORDER
        tol = rel_tol * (1.0 + norm)
        theta = MAX_GROWTH
        for k in (ORDER - 1, ORDER):
            c = math.hypot(*W[k].tolist())
            if c:  # a row of 0 (a polynomial velocity, or an underflow) bounds nothing
                theta = min(theta, safety * (tol / c) ** (1.0 / k))
        h = theta * s
        if h < MIN_STEP:
            if norm > BLOWUP_GROWTH * norm0:
                return trajectory(BLOW_UP_DETECTED, t)
            return trajectory(STEP_UNDERFLOW)
        pole = None
        lam = pole_ratio(W, rel_tol)
        # the ratios agree only to rel_tol lambda: a pole nearer t_max than
        # that is not resolved from one there
        if lam is not None and t + s * lam * (1.0 + rel_tol) < t_max:
            pole = t + s * lam
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
        if pole is not None:
            return trajectory(BLOW_UP_DETECTED, pole)
        if norm > BLOWUP_NORM:
            return trajectory(BLOW_UP_DETECTED, t)
        s = h

    return trajectory(REACHED_HORIZON)


def write_csv(trajectory: GeodesicTrajectory, path) -> None:
    """Export samples as CSV with columns t, v_1..v_n, norm."""
    n = len(trajectory.samples[0].v)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + [f"v_{i + 1}" for i in range(n)] + ["norm"])
        for s in trajectory.samples:
            writer.writerow([repr(s.t)] + [repr(x) for x in s.v] + [repr(s.norm)])
