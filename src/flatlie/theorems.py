"""Exact decision procedures for the structure theorems on flat metric Lie algebras.

Each check computes both sides of its equivalence independently (curvature on
one side, subspace structure on the other) and reports them separately: the
module verifies, it does not assume.  Of Corollary 2 only the forward
direction is checked: `riemannian_companion` builds a same-connection
Riemannian metric from a timelike Killing vector and checks it; the converse
is not computed (ROADMAP item 4).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from typing import NamedTuple

from . import linalg
from .errors import (
    HypothesisNotMetError,
    InvalidSplitError,
    MismatchedAlgebrasError,
    NotLorentzianError,
    NotRiemannianError,
)
from .lie import memoized
from .linalg import Subspace
from .metric import (
    MetricLieAlgebra,
    integer_product,
    is_flat,
    killing_subalgebra,
    product_bound,
    timelike_vector,
)


class SplitData(NamedTuple):
    """Killing/derived decomposition with its orthogonality witness."""

    killing: Subspace
    derived: Subspace
    cross_gram: tuple[tuple[Fraction, ...], ...]  # <s_i, d_j>; all zero iff orthogonal
    _json = {"killing": "killing_basis", "derived": "derived_basis", "cross_gram": None}


class Theorem1Report(NamedTuple):
    """Both sides of the split characterization, fields in report order
    (`report.to_data` writes them under their `_json` names)."""

    direct_side: bool
    structural_side: bool
    equivalent: bool
    flat: bool
    timelike_killing: bool
    orthogonal: bool
    killing_abelian: bool
    derived_abelian: bool
    even_dim_derived: bool | None
    eq2_verified: bool | None
    split: SplitData | None
    spans_directly: bool
    timelike_witness: tuple[int, ...] | None
    _json = {"orthogonal": "orthogonal_split", "spans_directly": None, "timelike_witness": None}


def verify_eq2(m: MetricLieAlgebra, split: SplitData) -> bool:
    """Check the closed-form product on a valid split: L_s = ad_s for s in
    the Killing subalgebra and L_h = 0 on the derived algebra, exactly.

    Decided in ints, on the views p = P / D and c = C / E and the int rows
    of the split's bases: L_s = ad_s iff E L(P, s) == D L(C, s).  The
    matrix L(P, s) is sum_i s_i P[i], so with each plane P[i] packed whole,
    its n^2 entries in one row (`linalg.pack_row`), L(P, s) is one dot of s
    with the packed planes per packed int.  With sigma the largest sum |s|
    over the rows of both bases, every slot of E L(P, s) - D L(C, s) and of
    L(P, h) is at most sigma (E max |P| + D max |C|) (`product_bound`,
    `LieAlgebra.entry_bound`), which sets the slot width."""
    if split.killing != killing_subalgebra(m) or split.derived != m.algebra.derived_subalgebra():
        raise InvalidSplitError("split does not match this metric's Killing/derived subspaces")
    if split.killing.dim + split.derived.dim != m.dim or any(
        x != 0 for row in split.cross_gram for x in row
    ):
        raise InvalidSplitError("split is not an orthogonal direct-sum decomposition")
    P, D = integer_product(m)
    C, E = m.algebra.C, m.algebra.E
    sigma = max(sum(map(abs, v)) for v in split.killing.B + split.derived.B)
    w = linalg.slot_width(sigma * (E * product_bound(m) + D * m.algebra.entry_bound))
    dot = linalg.dot
    Pp, Cp = (linalg.pack_rows([list(chain.from_iterable(plane)) for plane in T], w) for T in (P, C))
    for s in split.killing.B:
        if any(E * dot(s, p) != D * dot(s, c) for p, c in zip(Pp, Cp)):
            return False
    return not any(dot(h, p) for h in split.derived.B for p in Pp)


@memoized
def _split_check(m: MetricLieAlgebra) -> Theorem1Report:
    """Both sides of the split characterization of flatness.

    Direct side: the metric is flat (and, when Lorentzian, the Killing
    subalgebra contains a timelike vector).  Structural side: the algebra
    splits as an orthogonal direct sum of the Killing subalgebra and the
    derived algebra, both abelian (with the same timelike condition).  The
    two must agree on every valid input; a discrepancy is a bug, not a result.
    """
    a = m.algebra
    S = killing_subalgebra(m)
    D = a.derived_subalgebra()
    R, den = linalg.restrict_form(m.G, S, m.g, D)
    spans = S.dim + D.dim == m.dim and linalg.subspace_sum(S, D).dim == m.dim
    orthogonal = not any(map(any, R))
    s_abelian = a.is_abelian_subspace(S)
    d_abelian = a.is_2_solvable()
    witness = timelike_vector(m, S)
    timelike = witness is not None
    condition = timelike or not m.is_lorentzian
    flat = is_flat(m).flat
    direct = flat and condition
    structural = spans and orthogonal and s_abelian and d_abelian and condition
    split = SplitData(S, D, linalg.fraction_matrix(R, den)) if structural else None
    return Theorem1Report(
        flat=flat,
        timelike_killing=timelike,
        direct_side=direct,
        spans_directly=spans,
        orthogonal=orthogonal,
        killing_abelian=s_abelian,
        derived_abelian=d_abelian,
        structural_side=structural,
        equivalent=direct == structural,
        even_dim_derived=D.dim % 2 == 0 if structural else None,
        eq2_verified=verify_eq2(m, split) if structural else None,
        split=split,
        timelike_witness=witness,
    )


def theorem1_check(m: MetricLieAlgebra) -> Theorem1Report:
    """Two-sided check of the flat-Lorentzian-with-timelike-Killing
    characterization."""
    if not m.is_lorentzian:
        raise NotLorentzianError(f"signature {tuple(m.signature)} is not Lorentzian")
    return _split_check(m)


def riemannian_flat_check(m: MetricLieAlgebra) -> Theorem1Report:
    """Same two-sided equivalence for positive definite metrics (no timelike
    condition): flat iff orthogonal split into abelian Killing + derived."""
    if not m.is_riemannian:
        raise NotRiemannianError(f"signature {tuple(m.signature)} is not Riemannian")
    return _split_check(m)


class Corollary1Report(NamedTuple):
    two_solvable: bool
    unimodular: bool
    geodesically_complete: bool


def corollary1_check(m: MetricLieAlgebra) -> Corollary1Report:
    """A flat Lorentzian algebra with a timelike Killing vector is 2-solvable
    and unimodular, hence geodesically complete (flat + unimodular)."""
    report = theorem1_check(m)
    if not report.direct_side:
        raise HypothesisNotMetError("requires a flat Lorentzian metric with a timelike Killing vector")
    two_solvable = m.algebra.is_2_solvable()
    unimodular = m.algebra.is_unimodular()
    return Corollary1Report(two_solvable, unimodular, two_solvable and unimodular)


def same_connection(m1: MetricLieAlgebra, m2: MetricLieAlgebra) -> bool:
    """True iff m2's Levi-Civita connection is m1's, decided one-sided on
    m1's product and m2's form, with no second Koszul solve.

    The Levi-Civita connection of a form is its unique torsion-free
    connection that makes every L_u skew for the form, and m1's product
    p = P / D is torsion-free.  So it is m2's iff
    <L_k e_c, e_r> + <e_c, L_k e_r> = 0 for all k, r, c.  With m2's Gram
    matrix H / h (its fields (G, g)), M_k[r][c] = dot(H[r], P[k][c]) is
    h D <L_k e_c, e_r>, and the test is M_k + M_k^T = 0 for every k.

    Row by row, packed over c (`linalg.pack_row`): row r of M_k is
    dot(H[r], PT_k) for the columns PT_k[l] = (P[k][c][l])_c of the plane
    P[k] packed, and row r of M_k^T is dot(P[k][r], HP) for the packed rows
    HP[l] of H (symmetric: its columns).  Every slot of the sum is at most
    2 (row sum of |H|) max |P| (`product_bound`), which sets the slot
    width: 2 n^2 dots per packed int of a row."""
    if m1.algebra != m2.algebra:
        raise MismatchedAlgebrasError("metrics live on different Lie algebras")
    P, _ = integer_product(m1)
    H = m2.G
    w = linalg.slot_width(2 * max(sum(map(abs, row)) for row in H) * product_bound(m1))
    dot = linalg.dot
    HP = linalg.pack_rows(H, w)
    for plane in P:
        PT = linalg.pack_rows(zip(*plane), w)
        if any(dot(Hr, pt) + dot(Pr, hp) for Hr, Pr in zip(H, plane) for pt, hp in zip(PT, HP)):
            return False
    return True


@memoized
def riemannian_companion(m: MetricLieAlgebra) -> MetricLieAlgebra:
    """Positive definite metric with the same Levi-Civita connection.

    The companion is the reflection in the timelike Killing vector s that
    Theorem 1's check found (`Theorem1Report.timelike_witness`),
    <x, y>' = <x, y> - 2 <x, s> <y, s> / <s, s>, which flips the sign of
    <s, s> and leaves s-perp alone; it does not see the scale of s.  The
    result is checked to be positive definite with the same connection
    before it is returned, the one place that connection is checked.
    """
    report = theorem1_check(m)
    if not report.direct_side:
        raise HypothesisNotMetError("requires a flat Lorentzian metric with a timelike Killing vector")
    s = report.timelike_witness
    Gi, g = m.G, m.g
    # in ints: with gram = Gi / g, v = Gi s and q = g <s, s> = <s, v> < 0,
    # the reflected form is (q Gi - 2 v v^T) / (g q) = (2 v v^T - q Gi) / (-g q),
    # the companion's fields once in least terms
    v = [linalg.dot(row, s) for row in Gi]
    q = linalg.dot(s, v)
    reflected = [[2 * a * b - q * x for x, b in zip(row, v)] for row, a in zip(Gi, v)]

    companion = MetricLieAlgebra(m.algebra, *linalg.least_terms(reflected, -g * q))
    if not companion.is_riemannian:
        raise AssertionError("companion construction produced a non-positive-definite form")
    if not same_connection(m, companion):
        raise AssertionError("companion construction changed the Levi-Civita product")
    return companion
