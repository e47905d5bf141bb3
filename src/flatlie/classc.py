"""Scalar-bracket Lie algebras: detection, the degenerate-restriction
flatness criterion, and the explicit flat witness basis.

"Class C" here means non-abelian algebras in which every bracket [x, y] is
a linear combination of x and y; equivalently there is an abelian
codimension-1 ideal U (necessarily the derived algebra) and an element b
outside it acting on U as the identity.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Sequence

from . import linalg
from .errors import (
    InvalidWitnessError,
    NotClassCError,
    NotDegenerateError,
    RadicalDimensionError,
)
from .lie import LieAlgebra, memoized
from .linalg import IntTensor, Subspace, frac
from .metric import MetricLieAlgebra, integer_product, is_flat, product_bound


class ClassCStructure(NamedTuple):
    """Abelian codimension-1 ideal, the normalized generator b with
    [b, x] = x on the ideal, and the scale of the detection transversal
    (t = alpha b + u0)."""

    b: tuple[Fraction, ...]
    ideal: Subspace
    alpha: Fraction
    _json = {"ideal": "ideal_basis", "alpha": None}


def scalar_action(a: LieAlgebra, U: Subspace, t: Sequence) -> Fraction | None:
    """alpha such that ad_t restricted to U equals alpha * id, or None.

    Decided in ints: with c = C / E, t = ti / s and U's int rows u, the
    matrix A[k][x] = sum_i ti[i] C[i][x][k] is built once, so
    [t, u] = A u / (E s).  Only the nonzero ti[i] are added, so for a unit
    vector t, as `detect` passes, A is one transposed plane.  That is
    alpha u for one alpha shared by every row iff each A u equals lam u,
    with lam = (A u)[p] / u[p] at the row's pivot p, tested by
    cross-multiplying; then alpha = lam / (E s).
    """
    if U.dim == 0:
        return None
    n, C, E = a.dim, a.C, a.E
    (ti,), s = linalg.clear_denominators([t])
    dot = linalg.dot
    terms = [(x, C[i]) for i, x in enumerate(ti) if x]
    if len(terms) == 1 and terms[0][0] == 1:
        A = list(zip(*terms[0][1]))
    else:
        A = [[sum(x * Ci[col][k] for x, Ci in terms) for col in range(n)] for k in range(n)]
    lam = None  # (numerator, denominator) of the shared ratio
    for u in U.B:
        p = next(j for j, x in enumerate(u) if x)
        Au = [dot(row, u) for row in A]
        if any(y * u[p] != Au[p] * x for x, y in zip(u, Au)):
            return None
        if lam is None:
            lam = (Au[p], u[p])
        elif Au[p] * lam[1] != lam[0] * u[p]:
            return None
    return Fraction(lam[0], lam[1] * E * s)


@memoized
def detect(a: LieAlgebra) -> ClassCStructure | None:
    """Structural detection: derived algebra abelian of codimension 1 and a
    transversal acting on it by a nonzero scalar.

    Returns None when any condition fails, abelian algebras included: their
    derived algebra {0} has codimension 1 only in dim 1, where
    `scalar_action` is None on U = {0}.  Sampling the span property
    [x, y] in span{x, y} cannot certify membership in the class, so it is
    only used as a cross-check in the tests.

    The transversal t is the first unit vector outside U, read off U's
    echelon rows (B, b): e_j lies in U iff some row is b e_j, the one row
    with pivot j and no other nonzero entry, and U, of codimension 1,
    misses at least one e_j.
    """
    U = a.derived_subalgebra()
    n = a.dim
    if U.dim != n - 1 or not a.is_2_solvable():
        return None
    inside = {next(j for j, x in enumerate(row) if x) for row in U.B if sum(map(bool, row)) == 1}
    t = linalg.units(n)[next(j for j in range(n) if j not in inside)]
    alpha = scalar_action(a, U, t)
    if alpha is None or alpha == 0:
        return None
    b = tuple(x / alpha for x in t)
    return ClassCStructure(b=b, ideal=U, alpha=alpha)


class Theorem2Report(NamedTuple):
    degenerate_restriction: bool
    radical_dim: int
    flat: bool
    equivalent: bool


@memoized
def _derived_radical(m: MetricLieAlgebra) -> Subspace:
    """Radical of the inner product restricted to the derived algebra,
    read off the int rows of the restricted form's view."""
    D = m.algebra.derived_subalgebra()
    return linalg.radical(linalg.restrict_form(m.G, D, m.g)[0], D)


@memoized
def theorem2_check(m: MetricLieAlgebra) -> Theorem2Report:
    """Two-sided flatness criterion for class-C algebras: flat iff the inner
    product restricted to the derived algebra is degenerate.  Both sides are
    computed independently (curvature vs. radical of the restriction)."""
    _require_class_c(m.algebra)
    rad = _derived_radical(m)
    degenerate = rad.dim > 0
    flat = is_flat(m).flat
    return Theorem2Report(degenerate, rad.dim, flat, degenerate == flat)


def _require_class_c(a: LieAlgebra) -> ClassCStructure:
    structure = detect(a)
    if structure is None:
        raise NotClassCError("algebra has no abelian codimension-1 ideal with scalar transversal action")
    return structure


class WitnessBasis(NamedTuple):
    """Adapted basis for a flat class-C metric: e spans the radical of the
    restricted form, d is a null transversal with <d, e> = 1, and b_basis
    spans the orthogonal complement of span{e, d} (inside the derived
    algebra).  gram_b is the restriction of the inner product to b_basis,
    as its least-terms integer view (R, den)."""

    e: tuple[Fraction, ...]
    d: tuple[Fraction, ...]
    b_basis: Subspace
    gram_b: tuple[tuple[tuple[int, ...], ...], int]
    _json = {"b_basis": "b_sector_basis", "gram_b": None}


def construct_witness(m: MetricLieAlgebra) -> WitnessBasis:
    """Build the witness basis for a degenerate restriction.

    e is the radical generator (leading coordinate 1 in canonical form);
    y is the first basis vector with <y, e> != 0 (one exists because the
    ambient form is nondegenerate); then

        d = y / <y, e> - (1/2) (<y, y> / <y, e>^2) e

    gives <d, e> = 1 and <d, d> = 0.  In ints, with e = ei / k, gram = G / g
    and a = (G ei)[i] for y = e_i, d = (2 a g k y - G[i][i] g k ei) / (2 a^2)
    in least terms.  All postconditions are re-verified exactly, in ints,
    before returning.
    """
    _require_class_c(m.algebra)
    n = m.dim
    D = m.algebra.derived_subalgebra()
    rad = _derived_radical(m)
    if rad.dim == 0:
        raise NotDegenerateError("restriction to the derived algebra is nondegenerate")
    if rad.dim > 1:
        # unreachable for a nondegenerate ambient form on a codimension-1
        # ideal, but guarded rather than assumed
        raise RadicalDimensionError(f"restricted-form radical has dimension {rad.dim}")

    # <x, e> = dot(x, Ge) / (g k) for the views e = ei / k and gram = Gi / g
    Gi, g = m.G, m.g
    (ei,), k = rad.B, rad.b
    Ge = [linalg.dot(row, ei) for row in Gi]
    i = next((i for i, x in enumerate(Ge) if x), None)
    if i is None:
        raise AssertionError("nondegenerate form pairs e with some basis vector")
    a = Ge[i]
    raw = [-Gi[i][i] * g * k * x for x in ei]
    raw[i] += 2 * a * g * k
    (di,), dd = linalg.least_terms([raw], 2 * a * a)

    span_ed = Subspace.row_space(n, [ei, di])
    B = linalg.orthogonal_complement(span_ed, Gi)

    if linalg.dot(di, Ge) != g * k * dd or linalg.dot(di, [linalg.dot(row, di) for row in Gi]):
        raise InvalidWitnessError("null transversal postconditions failed")
    if any(linalg.dot(x, Ge) for x in D.B):
        raise InvalidWitnessError("radical vector is not orthogonal to the derived algebra")
    if linalg.subspace_sum(span_ed, B).dim != n or B.dim != n - 2:
        raise InvalidWitnessError("span{e, d} + B does not decompose the algebra")
    if linalg.subspace_sum(rad, B) != D:
        raise InvalidWitnessError("span{e} + B is not the derived algebra")

    (e,) = rad.basis
    (d,) = linalg.fraction_matrix((di,), dd)
    return WitnessBasis(e, d, B, linalg.least_terms(*linalg.restrict_form(Gi, B, g)))


def witness_scale(a: LieAlgebra, w: WitnessBasis) -> Fraction:
    """alpha with [d, u] = alpha u on the derived algebra (d = alpha b + u0).

    Read off `detect`'s b with [b, u] = u on the ideal U: d - alpha b
    centralizes U, and U is its own centralizer, so d - alpha b is in U and
    alpha = phi(d) / phi(b) for any linear form phi that vanishes on U.
    With U's view B / b and f its one column with no pivot, phi(v) is
    b v[f] - sum_r v[p_r] B[r][f]: b times the residual at f of v less
    the combination of the rows with v's entries at their pivots."""
    structure = _require_class_c(a)
    U = structure.ideal
    pivots = [next(j for j, x in enumerate(row) if x) for row in U.B]
    f = next(j for j in range(a.dim) if j not in pivots)

    def phi(v: Sequence) -> Fraction:
        return U.b * v[f] - sum(v[p] * row[f] for p, row in zip(pivots, U.B))

    alpha = Fraction(phi(w.d)) / phi(structure.b)
    if alpha == 0:
        raise InvalidWitnessError("witness transversal does not act by a nonzero scalar")
    return alpha


def closed_form_products(w: WitnessBasis, alpha) -> tuple[IntTensor, int]:
    """The flat product table in witness coordinates (index 0 = e,
    1..n-2 = B, n-1 = d) as its least-terms integer view (X, x):

        L_e = 0,  de = alpha e,  dd = -alpha d,
        du = ue = 0,  ud = -alpha u,  uu' = alpha <u, u'> e.

    With alpha = s / t and gram_b = R / den every entry is an int over
    t den.  `closed_form_matches` compares it with the metric's product.
    """
    alpha = frac(alpha)
    if alpha == 0:
        raise InvalidWitnessError("scale alpha must be nonzero")
    R, den = w.gram_b
    nb = w.b_basis.dim
    n = nb + 2
    if len(R) != nb:
        raise InvalidWitnessError("gram_b size does not match the B-sector dimension")
    s, dd = alpha.numerator, n - 1
    X = [[[0] * n for _ in range(n)] for _ in range(n)]
    X[dd][0][0] = s * den        # de = alpha e
    X[dd][dd][dd] = -s * den     # dd = -alpha d
    for j in range(1, nb + 1):
        X[j][dd][j] = -s * den   # ud = -alpha u
        for k in range(1, nb + 1):
            X[j][k][0] = s * R[j - 1][k - 1]  # uu' = alpha <u,u'> e
    rows, x = linalg.least_terms([row for plane in X for row in plane], alpha.denominator * den)
    return linalg.planes(rows, n), x


def closed_form_matches(m: MetricLieAlgebra, w: WitnessBasis, alpha) -> bool:
    """Whether the closed-form table equals the Levi-Civita product of m in
    witness coordinates, decided with no inverse of the witness basis.

    With the columns of the witness change of basis W cleared to the int
    rows Wi_a over one omega, p = P / D and the table X / x, the product of
    the basis vectors a and b is P(Wi_a, Wi_b) / (D omega^2) and the table
    says it is Wi X_ab / (x omega), so the two agree iff
    x P(Wi_a, Wi_b) == D omega Wi X_ab.  Both sides are packed over the
    output index (`linalg.pack_row`): the rows P[i][j] and Wi_c are packed
    once, P(Wi_a, Wi_b) is dot(Wi_b, U_a) with U_a[j] = dot(Wi_a, (P[i][j])_i)
    and Wi X_ab is dot(X_ab, (Wi_c)_c).  Every slot of the difference is at
    most x max |P| (column sum of |W|)^2 + D omega max |X| (row sum of |W|),
    with max |P| from `metric.product_bound`, which sets the slot width.
    W is a basis (`construct_witness` checks that span{e, d} + B is the
    whole algebra), so equal products on its pairs are equal tensors."""
    X, x = closed_form_products(w, alpha)
    P, D = integer_product(m)
    (ei, di), s = linalg.clear_denominators([w.e, w.d])
    B, b = w.b_basis.B, w.b_basis.b
    omega = math.lcm(s, b)
    Wi = [[v * (omega // s) for v in ei], *([v * (omega // b) for v in row] for row in B), [v * (omega // s) for v in di]]
    col_sum = max(sum(map(abs, Wa)) for Wa in Wi)
    row_sum = max(sum(map(abs, Wk)) for Wk in zip(*Wi))
    width = linalg.slot_width(x * product_bound(m) * col_sum**2 + D * omega * linalg.max_abs(X) * row_sum)
    cols = zip(*(linalg.pack_rows(Pj, width) for Pj in zip(*P)))  # cols[t][j]: int t of each packed P[i][j], by i
    dot, scale = linalg.dot, D * omega
    for col, Wt in zip(cols, linalg.pack_rows(Wi, width)):
        for Wa, Xa in zip(Wi, X):
            U = [dot(Wa, Pj) for Pj in col]  # U[j]: P(Wi_a, e_j), packed
            if any(x * dot(Wb, U) != scale * dot(Xab, Wt) for Wb, Xab in zip(Wi, Xa)):
                return False
    return True


class IncompletenessReport(NamedTuple):
    unimodular: bool
    b_trace: Fraction
    flat: bool
    verdict: str  # "incomplete" or "criterion inapplicable"


def incompleteness_verdict(m: MetricLieAlgebra) -> IncompletenessReport:
    """Class-C algebras are never unimodular (trace ad_b = dim - 1), so a
    flat class-C metric is geodesically incomplete by the completeness
    criterion (flat complete iff unimodular).  For non-flat metrics that
    criterion does not apply and the verdict says so.  tr ad_b is read off
    the int traces E tr ad_{e_i} that `is_unimodular` tests."""
    structure = _require_class_c(m.algebra)
    a = m.algebra
    b_trace = Fraction(linalg.dot(structure.b, a.traces()), a.E)
    unimodular = a.is_unimodular()
    flat = theorem2_check(m).flat
    verdict = "incomplete" if flat and not unimodular else "criterion inapplicable"
    return IncompletenessReport(unimodular, b_trace, flat, verdict)
