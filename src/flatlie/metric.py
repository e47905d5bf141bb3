"""Metric Lie algebras and their Levi-Civita product, curvature and
Killing subalgebra.

The product constants p[i][j][k] (e_i e_j = sum_k p[i][j][k] e_k) are the
unique solution of

    2 <e_i e_j, e_k> = <[e_i,e_j], e_k> - <[e_j,e_k], e_i> + <[e_k,e_i], e_j>

for each pair (i, j); by bilinearity this pins the product on the whole
algebra, and all verdicts below (flatness in particular) are decided on
basis pairs with exact arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain
from typing import NamedTuple, Sequence

from . import linalg
from .errors import DegenerateFormError, HypothesisNotMetError, NonSymmetricError
from .lie import CheckedRecord, LieAlgebra, memoized
from .linalg import ZERO, IntTensor, Mat, Signature, Subspace, Tensor, Vec, frac


class _MetricFields(NamedTuple):
    algebra: LieAlgebra
    gram: tuple[tuple[Fraction, ...], ...]


class MetricLieAlgebra(CheckedRecord, _MetricFields):
    """A Lie algebra together with a nondegenerate symmetric inner product.

    As for `LieAlgebra`, the fields are the tuple's entries; `signature` is
    derived from the Gram matrix at construction and, like `_memo`, lives
    outside the tuple."""

    def __init__(self, algebra: LieAlgebra, gram: tuple[tuple[Fraction, ...], ...]):
        self._memo = {}
        n = algebra.dim
        if len(gram) != n or any(len(r) != n for r in gram):
            raise ValueError("Gram matrix size must match the algebra dimension")
        if not linalg.is_symmetric(gram):
            raise NonSymmetricError("inner product matrix must be symmetric")
        sig = linalg.signature(gram)
        if sig.n_zero:
            raise DegenerateFormError("inner product must be nondegenerate (ambient radical is nonzero)")
        self._signature = sig

    @property
    def signature(self) -> Signature:
        return self._signature

    @classmethod
    def make(cls, algebra: LieAlgebra, gram: Sequence[Sequence]) -> "MetricLieAlgebra":
        return cls(algebra, tuple(tuple(frac(x) for x in row) for row in gram))

    @property
    def dim(self) -> int:
        return self.algebra.dim

    @property
    def is_lorentzian(self) -> bool:
        return self.signature.n_minus == 1 and self.signature.n_zero == 0

    @property
    def is_riemannian(self) -> bool:
        return self.signature.n_minus == 0 and self.signature.n_zero == 0

    def gram_rows(self) -> Mat:
        return [list(r) for r in self.gram]

    @memoized
    def integer_gram(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """(Gi, g) with gram = Gi / g for the least g > 0: the one integer
        view of the Gram matrix, the only place it is cleared."""
        Gi, g = linalg.clear_denominators(self.gram)
        return tuple(map(tuple, Gi)), g

    def inner(self, x: Sequence, y: Sequence) -> Fraction:
        """<x, y> for vectors of ints or Fractions (floats are refused with
        TypeError, as `linalg.frac` does): x and y are cleared to integers,
        so the value is int dots over one denominator.  Lengths are checked."""
        if len(x) != self.dim or len(y) != self.dim:
            raise ValueError(f"vector lengths {len(x)}, {len(y)} != algebra dimension {self.dim}")
        bad = next((v for v in chain(x, y) if isinstance(v, float)), None)
        if bad is not None:
            raise TypeError(f"refusing inexact float {bad!r}")
        G, g = self.integer_gram()
        (xi, yi), d = linalg.clear_denominators([x, y])
        return Fraction(linalg.dot(xi, [linalg.dot(row, yi) for row in G]), g * d * d)

    def scale_gram(self, f) -> "MetricLieAlgebra":
        f = frac(f)
        if f == 0:
            raise ValueError("scale factor must be nonzero")
        return MetricLieAlgebra.make(self.algebra, linalg.mat_scale(self.gram_rows(), f))

    def change_basis(self, P: Sequence[Sequence]) -> "MetricLieAlgebra":
        """Transport algebra and inner product to the basis given by the
        columns of P (gram -> P^T gram P).  With gram = Gi / g and
        P = Pi / p the new Gram matrix is Pi^T Gi Pi over g p^2."""
        Pm = linalg.mat(P)  # the one coercion of P: transport reads Pm as is
        new_alg = self.algebra.change_basis(Pm)
        Gi, g = self.integer_gram()
        Pi, p = linalg.clear_denominators(Pm)
        den = g * p * p
        M = linalg.mat_mul(linalg.transpose(Pi), linalg.mat_mul(Gi, Pi))
        return MetricLieAlgebra(new_alg, tuple(tuple(Fraction(x, den) if x else ZERO for x in row) for row in M))


class LeviCivitaProduct(NamedTuple):
    """Product constants p[i][j][k] of the Levi-Civita connection."""

    dim: int
    p: Tensor

    def product(self, u: Sequence, v: Sequence) -> Vec:
        return linalg.bilinear(self.p, u, v)


class CurvatureVerdict(NamedTuple):
    flat: bool
    # (i, j, K(e_i, e_j)) for the first basis pair with nonzero curvature
    witness: tuple[int, int, tuple[tuple[Fraction, ...], ...]] | None = None


@memoized
def lowered_constants(m: MetricLieAlgebra) -> tuple[IntTensor, int]:
    """(Low, L) with <[e_i, e_j], e_k> = Low[i][j][k] / L: the one integer
    view of the lowered structure constants, which the Levi-Civita solve and
    the Killing constraints both read.  With G = Gi / g and c = C / e it is
    Gi C over g e, read off the cleared Gram `integer_gram`."""
    Gi, g = m.integer_gram()
    C, e = m.algebra.integer_constants()
    return tuple(tuple(tuple(linalg.dot(row, cij) for row in Gi) for cij in plane) for plane in C), g * e


@memoized
def integer_product(m: MetricLieAlgebra) -> tuple[IntTensor, int]:
    """(P, D) with p = P / D for the least D > 0: the one integer view of the
    Levi-Civita product that every exact layer reads.

    Solved pair by pair in ints: G^-1 = H / q (`linalg.integer_inverse` of
    the Fraction Gram, whose elimination clears each row on its own, so
    dense entries with distinct denominators do not share one huge common
    denominator).  The Koszul right-hand side for (i, j) is
    (Low[i][j][k] - Low[j][k][i] + Low[k][i][j]) / 2L, so each product
    constant is an entry of H (Koszul sum) over 2 q L; dividing by the gcd
    of 2 q L and every numerator leaves the least D."""
    n = m.dim
    low, L = lowered_constants(m)
    H, q = linalg.integer_inverse(m.gram)
    koszul = [[[low[i][j][k] - low[j][k][i] + low[k][i][j] for k in range(n)] for j in range(n)] for i in range(n)]
    num = [[[linalg.dot(row, rhs) for row in H] for rhs in plane] for plane in koszul]
    den = 2 * q * L
    d = math.gcd(den, *(x for plane in num for row in plane for x in row))
    return tuple(tuple(tuple(x // d for x in row) for row in plane) for plane in num), den // d


@memoized
def levi_civita(m: MetricLieAlgebra) -> LeviCivitaProduct:
    """The product p = P / D of `integer_product`, one Fraction per entry."""
    P, D = integer_product(m)
    return LeviCivitaProduct(
        m.dim, tuple(tuple(tuple(Fraction(x, D) if x else ZERO for x in row) for row in plane) for plane in P)
    )


def left_mult(p: LeviCivitaProduct, u: Sequence) -> Mat:
    """Matrix of v -> u v."""
    return linalg.left_matrix(p.p, u)


def right_mult(p: LeviCivitaProduct, u: Sequence) -> Mat:
    """Matrix of v -> v u."""
    return linalg.right_matrix(p.p, u)


def curvature(algebra: LieAlgebra, p: LeviCivitaProduct, u: Sequence, v: Sequence) -> Mat:
    """K(u, v) = L_[u,v] - (L_u L_v - L_v L_u), exact, straight from the
    definition in Fractions; `is_flat` decides on the integer views."""
    Lu = left_mult(p, [frac(x) for x in u])
    Lv = left_mult(p, [frac(x) for x in v])
    Lbr = left_mult(p, algebra.bracket(u, v))
    return linalg.mat_sub(Lbr, linalg.mat_sub(linalg.mat_mul(Lu, Lv), linalg.mat_mul(Lv, Lu)))


@memoized
def is_flat(m: MetricLieAlgebra) -> CurvatureVerdict:
    """Check K(e_i, e_j) = 0 on all basis pairs (sufficient by bilinearity).

    Decided in ints, on the views p = P / D and c = C / E: L_k = A_k / D for
    the integer matrix A_k of v -> P(e_k, v), and L_[e_i, e_j] = S / (E D)
    with S = sum_k C_ijk A_k, so
    K(e_i, e_j) = (D S - E (A_i A_j - A_j A_i)) / (E D^2).  The first
    nonzero one is the witness.  D and E are first divided by their gcd g,
    which divides D S - E (A_i A_j - A_j A_i) by g and keeps K.

    Each row of K is decided packed (`linalg.pack_row`).  With a = max |P|
    and c = max |C|, every entry of D S - E (A_i A_j - A_j A_i) is at most
    n a (D c + 2 E a) in absolute value, which sets the slot width w, so a
    packed row is 0 iff the row is.  The rows of each A_k are packed once
    per metric, PR[k][r] = pack_row(row r of A_k); row r of A_i A_j is then
    dot(row r of A_i, PR[j]) and row r of S is dot(C_ij, stack_r) with
    stack_r = (PR[0][r] .. PR[n-1][r]): three dots per packed int of a
    row, one packed int per row up to linalg.MAX_PACKED_WIDTH.  The
    witness rows are unpacked."""
    n = m.dim
    P, D = integer_product(m)
    C, E = m.algebra.integer_constants()
    g = math.gcd(D, E)
    den = E * D * D // g
    D, E = D // g, E // g
    a, c = linalg.max_abs(P), linalg.max_abs(C)
    w = linalg.slot_width(n * a * (D * c + 2 * E * a))
    rows = [tuple(zip(*plane)) for plane in P]  # rows[k][r][c] = A_k[r][c] = P[k][c][r]
    packed = [[linalg.pack_row(row, w) for row in A] for A in rows]  # packed[k][r][q]: q-th int of row r
    q = len(packed[0][0])
    # K lists the packed ints of its rows in order, q per row: int t of row r
    # reads row r of A_i and A_j (rows_at), int t of every packed row of A_j
    # and A_i (cols_at) and int t of packed row r of every A_k (stacks)
    rows_at = [[row for row in A for _ in range(q)] for A in rows]
    cols_at = [list(zip(*PR)) * n for PR in packed]
    stacks = [s for PRr in zip(*packed) for s in zip(*PRr)]
    dot = linalg.dot
    for i in range(n):
        for j in range(i + 1, n):
            cij = C[i][j]
            K = [
                D * dot(cij, s) - E * (dot(ai, pj) - dot(aj, pi))
                for s, ai, aj, pi, pj in zip(stacks, rows_at[i], rows_at[j], cols_at[i], cols_at[j])
            ]
            if any(K):
                witness = (linalg.unpack_row(K[r * q:(r + 1) * q], w, n) for r in range(n))
                return CurvatureVerdict(False, (i, j, tuple(tuple(Fraction(x, den) for x in row) for row in witness)))
    return CurvatureVerdict(True, None)


@memoized
def killing_subalgebra(m: MetricLieAlgebra) -> Subspace:
    """{u : ad_u + (ad_u)* = 0}: values at the identity of the left-invariant
    Killing fields.  Since (ad_u)* = G^-1 ad_u^T G with G invertible, this is
    {u : <[u, x], y> + <x, [u, y]> = 0 for all x, y}; the condition is linear
    in u and symmetric in (x, y), so it is the kernel of an n(n+1)/2 x n
    constraint matrix.  Row (i, j) at column a is Low[a][j][i] + Low[a][i][j]:
    the common denominator L scales every row alike."""
    n = m.dim
    low, _ = lowered_constants(m)
    return linalg.kernel([[low[a][j][i] + low[a][i][j] for a in range(n)] for i in range(n) for j in range(i, n)])


def timelike_vector(m: MetricLieAlgebra, V: Subspace) -> tuple[int, ...] | None:
    """An int vector s in V with <s, s> < 0, or None iff the form restricted
    to V takes no negative value: s = B^T E[i] for V's basis cleared to int
    rows B, E R E^T = diag(d) the congruence of the restricted form R and
    d[i] its first negative entry (so degenerate restrictions are fine)."""
    if V.dim == 0:
        return None
    Gi, g = m.integer_gram()
    E, d = linalg.congruence(linalg.restrict_form(Gi, V, g))
    i = next((i for i, x in enumerate(d) if x < 0), None)
    if i is None:
        return None
    B, _ = linalg.clear_denominators(V.basis)
    return tuple(linalg.dot(col, E[i]) for col in zip(*B))


def product_span(p: LeviCivitaProduct) -> Subspace:
    """span{e_i e_j : all i, j} (the set g.g)."""
    vectors = [list(p.p[i][j]) for i in range(p.dim) for j in range(p.dim)]
    return Subspace.span(p.dim, vectors)


def right_mult_kernel(p: LeviCivitaProduct) -> Subspace:
    """{u : R_u = 0}, again a kernel since u -> R_u is linear."""
    n = p.dim
    constraints = [[p.p[j][b][k] for b in range(n)] for j in range(n) for k in range(n)]
    return linalg.kernel(constraints)


class KillingTripleReport(NamedTuple):
    """The three flat-case characterizations of the Killing subalgebra."""

    killing: Subspace
    product_span_perp: Subspace
    right_mult_kernel: Subspace
    all_equal: bool
    abelian: bool


def verify_killing_triple_identity(m: MetricLieAlgebra) -> KillingTripleReport:
    """For a flat Riemannian or Lorentzian instance, compute independently
    the Killing subalgebra, (g.g)-perp and ker(u -> R_u) and compare."""
    if not (m.is_riemannian or m.is_lorentzian):
        raise HypothesisNotMetError("triple identity requires a Riemannian or Lorentzian signature")
    if not is_flat(m).flat:
        raise HypothesisNotMetError("triple identity requires a flat metric")
    p = levi_civita(m)
    s1 = killing_subalgebra(m)
    s2 = linalg.orthogonal_complement(product_span(p), m.integer_gram()[0])
    s3 = right_mult_kernel(p)
    equal = s1 == s2 == s3
    return KillingTripleReport(s1, s2, s3, equal, m.algebra.is_abelian_subspace(s1))
