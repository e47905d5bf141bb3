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

# Dormand-Prince 8(5,3) tableau (Hairer, Norsett & Wanner, Solving Ordinary
# Differential Equations I, 2nd ed., II.10; the coefficients of dop853.f).
# Row s of _A forms stage s from stages 0..s-1; _B gives the 8th-order
# increment; _E5 and _E3 give the 5th- and 3rd-order error vectors, where
# _E3 is _B less the 3rd-order weights.  Stage 12 of a step, f at the new
# velocity, is stage 0 of the next ("first same as last").
_A = (
    (),
    (5.26001519587677318785587544488e-2,),
    (1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2),
    (2.95875854768068491816892993775e-2, 0.0, 8.87627564304205475450678981324e-2),
    (2.41365134159266685502369798665e-1, 0.0, -8.84549479328286085344864962717e-1,
     9.24834003261792003115737966543e-1),
    (3.7037037037037037037037037037e-2, 0.0, 0.0, 1.70828608729473871279604482173e-1,
     1.25467687566822425016691814123e-1),
    (3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1, 6.02165389804559606850219397283e-2,
     -1.7578125e-2),
    (3.70920001185047927108779319836e-2, 0.0, 0.0, 1.70383925712239993810214054705e-1,
     1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
     8.27378916381402288758473766002e-3),
    (6.24110958716075717114429577812e-1, 0.0, 0.0, -3.36089262944694129406857109825,
     -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
     2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1),
    (4.77662536438264365890433908527e-1, 0.0, 0.0, -2.48811461997166764192642586468,
     -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
     1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
     -2.03312017085086261358222928593e-2),
    (-9.3714243008598732571704021658e-1, 0.0, 0.0, 5.18637242884406370830023853209,
     1.09143734899672957818500254654, -8.14978701074692612513997267357,
     -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
     2.49360555267965238987089396762, -3.0467644718982195003823669022),
    (2.27331014751653820792359768449, 0.0, 0.0, -1.05344954667372501984066689879e1,
     -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
     2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
     -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
     6.43392746015763530355970484046e-1),
)
_B = (
    5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0, 4.45031289275240888144113950566,
    1.89151789931450038304281599044, -5.8012039600105847814672114227, 3.1116436695781989440891606237e-1,
    -1.52160949662516078556178806805e-1, 2.01365400804030348374776537501e-1,
    4.47106157277725905176885569043e-2,
)
_E5 = (
    0.1312004499419488073250102996e-1, 0.0, 0.0, 0.0, 0.0, -0.1225156446376204440720569753e1,
    -0.4957589496572501915214079952, 0.1664377182454986536961530415e1, -0.3503288487499736816886487290,
    0.3341791187130174790297318841, 0.8192320648511571246570742613e-1, -0.2235530786388629525884427845e-1,
)
# 3rd-order weights
_B3 = (
    0.244094488188976377952755905512, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.733846688281611857341361741547,
    0.0, 0.0, 0.220588235294117647058823529412e-1,
)
_E3 = tuple(b - b3 for b, b3 in zip(_B, _B3))


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
    """Adaptive DOP853 integration of v' = -(v . v) from v(0) = v0.

    Blow-up is declared when the velocity norm exceeds BLOWUP_NORM, or when
    the step size collapses below MIN_STEP while the norm has grown by a
    factor >= 1e3 (a collapsing step without growth is reported as
    STEP_UNDERFLOW instead).  The final accepted time is the blow-up
    estimate.  After MAX_STEPS accepted steps short of t_max the samples so
    far are returned as STEP_LIMIT.  Every attempted step evaluates the
    right-hand side 12 times, so rhs_evaluations is 1 + 12 x attempted.
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
    # reads the views K[:s] and forms its argument in buf.  K[0] holds f(v)
    # for the current v: evaluated once at the start, then copied from
    # K[12], f at the new velocity, when a step is accepted.
    K = np.empty((13, m.dim))
    k0, k_new, buf = K[0], K[12], np.empty(m.dim)
    stages = [(np.array(_A[s]), K[:s], K[s]) for s in range(1, 12)]
    # One product gives the 8th-order increment and both error vectors.
    weights, K12 = np.array([_B, _E5, _E3]), K[:12]

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
    euler_arnold_rhs(op, v, out=k0)
    evals = 1
    h = min(0.1, t_max / 10.0, rel_tol ** 0.2 / (1.0 + math.hypot(*k0.tolist())))

    while t < t_max:
        if len(ts) > MAX_STEPS:
            return trajectory(STEP_LIMIT)
        h = min(h, t_max - t)
        for a, k_prev, k in stages:
            # the bits of v + h * a.dot(k_prev): IEEE * and + commute exactly
            a.dot(k_prev, out=buf)
            buf *= h
            buf += v
            euler_arnold_rhs(op, buf, out=k)
        step, e5, e3 = h * weights.dot(K12)
        v_new = v + step
        euler_arnold_rhs(op, v_new, out=k_new)
        evals += 12
        n5, n3 = math.hypot(*e5.tolist()), math.hypot(*e3.tolist())
        # Hairer's estimate |e5|^2 / sqrt(|e5|^2 + 0.01 |e3|^2), written so
        # that no square can overflow
        err = n5 * (n5 / math.hypot(n5, 0.1 * n3)) if n5 or n3 else 0.0
        scale = rel_tol * (1.0 + norm)

        if math.isfinite(err) and err <= scale:
            t += h
            v = v_new
            k0[...] = k_new
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
            ratio = (scale / err) ** 0.125 if math.isfinite(err) and err > 0 else 0.2
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
