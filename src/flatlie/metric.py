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
from operator import add
from typing import NamedTuple, Sequence

from . import linalg
from .errors import DegenerateFormError, HypothesisNotMetError, NonSymmetricError
from .lie import CheckedRecord, LieAlgebra, check_ints, check_reduced, is_square, memoized
from .linalg import IntTensor, Signature, Subspace, frac


class _MetricFields(NamedTuple):
    algebra: LieAlgebra
    G: tuple[tuple[int, ...], ...]
    g: int


class MetricLieAlgebra(CheckedRecord, _MetricFields):
    """A Lie algebra together with a nondegenerate symmetric inner product.

    The Gram matrix gram = G / g is held as its least-terms integer view,
    as `LieAlgebra` holds c.  `signature` and the congruence it is read
    from are derived from (G, g) at construction and, like `_memo`, live
    outside the tuple."""

    def __init__(self, algebra: LieAlgebra, G: tuple[tuple[int, ...], ...], g: int):
        self._memo = {}
        self._check()

    def _check(self) -> None:
        """The view, symmetry and nondegeneracy; sets the signature.  The
        rows of G / g are cleared once (`linalg.row_scales`): the view is in
        least terms iff the lcm of their denominators is g, and the
        congruence behind the signature starts from them.  Its E, d and
        row scales nu are kept as `_congruence`, from which
        `integer_product` reads G^-1 (`linalg.congruence_inverse`)."""
        n, G, g = self.algebra.dim, self.G, self.g
        if not is_square(G, n):
            raise ValueError(f"G: the Gram matrix must be a {n} x {n} tuple of tuples, {n} the algebra dimension")
        check_ints(G, g, "G", "g")
        nu, rows = linalg.row_scales(G, g)
        check_reduced(g // math.lcm(*nu), "G", "g")
        if not linalg.is_symmetric(G):
            raise NonSymmetricError("G: inner product matrix must be symmetric")
        E, d = linalg.congruence_of_rows(nu, rows)
        sig = Signature.of(d)
        if sig.n_zero:
            raise DegenerateFormError("inner product must be nondegenerate (ambient radical is nonzero)")
        self._signature = sig
        self._congruence = E, d, nu

    @property
    def signature(self) -> Signature:
        return self._signature

    @classmethod
    def make(cls, algebra: LieAlgebra, gram: Sequence[Sequence]) -> "MetricLieAlgebra":
        """gram (ints, or anything `frac` coerces) cleared to (G, g)."""
        G, g = linalg.clear_denominators(linalg.exact_mat(gram))
        return cls(algebra, tuple(map(tuple, G)), g)

    @property
    def dim(self) -> int:
        return self.algebra.dim

    @property
    def is_lorentzian(self) -> bool:
        return self.signature.n_minus == 1 and self.signature.n_zero == 0

    @property
    def is_riemannian(self) -> bool:
        return self.signature.n_minus == 0 and self.signature.n_zero == 0

    @property
    @memoized
    def gram(self) -> tuple[tuple[Fraction, ...], ...]:
        """G / g, one Fraction per entry: for the public boundary only."""
        return linalg.fraction_matrix(self.G, self.g)

    def scale_gram(self, f) -> "MetricLieAlgebra":
        """The metric f <., .> for f != 0: f G / g in least terms."""
        f = frac(f)
        if f == 0:
            raise ValueError("scale factor must be nonzero")
        scaled = [[f.numerator * x for x in row] for row in self.G]
        return MetricLieAlgebra(self.algebra, *linalg.least_terms(scaled, self.g * f.denominator))

    @classmethod
    def in_basis(
        cls, view: tuple[Sequence, int], gram: Sequence[Sequence], P: Sequence[Sequence], g: int = 1
    ) -> "MetricLieAlgebra":
        """The metric Lie algebra (C / E, gram / g) in the basis given by the
        columns of P: the algebra from view = (C, E) by
        `linalg.integer_transport`, the Gram view P^T (gram / g) P by
        `linalg.transport_form`, both from P coerced once.  The
        constructor's check covers gram too: P is invertible.  gram and P
        hold ints, kept as ints, or anything `frac` coerces (floats raise
        TypeError), g is a positive int; a singular P raises
        SingularMatrixError."""
        P = linalg.exact_mat(P)
        C, E = view
        moved = LieAlgebra(len(C), *linalg.integer_transport(C, P, E))
        if len(gram) != moved.dim or any(len(r) != moved.dim for r in gram):
            raise ValueError("Gram matrix size must match the algebra dimension")
        if g < 1:
            raise ValueError("the denominator g must be positive")
        return cls(moved, *linalg.transport_form(linalg.exact_mat(gram), P, g))

    def change_basis(self, P: Sequence[Sequence]) -> "MetricLieAlgebra":
        """Transport algebra and inner product to the basis given by the
        columns of P (gram -> P^T gram P), from the fields (C, E) and
        (G, g): see `in_basis`."""
        a = self.algebra
        return MetricLieAlgebra.in_basis((a.C, a.E), self.G, P, self.g)


class CurvatureVerdict(NamedTuple):
    flat: bool
    # (i, j, K(e_i, e_j)) for the first basis pair with nonzero curvature
    witness: tuple[int, int, tuple[tuple[Fraction, ...], ...]] | None = None


@memoized
def lowered_constants(m: MetricLieAlgebra) -> tuple[IntTensor, int]:
    """(Low, L) with <[e_i, e_j], e_k> = Low[i][j][k] / L: the integer view
    of the lowered structure constants, G C over L = g E for gram = G / g
    and c = C / E.  `killing_rows` reads it.

    Packed (`linalg.pack_row`): G is symmetric, so its rows packed over k
    are its columns, and Low[i][j] = G C_ij is one dot of C_ij with them,
    unpacked once.  Every slot is at most (row sum of |G|) max |C|
    (`LieAlgebra.entry_bound`), which sets the slot width.  Only i < j
    with C_ij != 0 is solved: Low[j][i] = -Low[i][j], Low[i][i] = 0, and a
    zero bracket plane, about half of them on a sparse document, lowers to
    the zero row as it is."""
    G, a = m.G, m.algebra
    n, C = a.dim, a.C
    w = linalg.slot_width(max(sum(map(abs, row)) for row in G) * a.entry_bound)
    parts = linalg.pack_rows(G, w)
    dot = linalg.dot
    low = [[(0,) * n] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if any(C[i][j]):
                row = tuple(linalg.unpack_row([dot(C[i][j], part) for part in parts], w, n))
                low[i][j], low[j][i] = row, tuple(-x for x in row)
    return tuple(map(tuple, low)), m.g * a.E


@memoized
def killing_rows(m: MetricLieAlgebra) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(A, L): the n(n+1)/2 x n int matrix of the Killing constraints over
    the L of `lowered_constants`.  Row (i, j), i <= j in row-major order, at
    column a is Low[a][j][i] + Low[a][i][j], that is L times
    <[e_a, e_j], e_i> + <e_j, [e_a, e_i]>: `killing_subalgebra` is its
    kernel, and regrouping the Koszul formula gives
    2 L <e_i e_j, e_k> = Low[i][j][k] + A_(i,j)[k], which `integer_product`
    solves.  The rows are sums of the transposed planes LT[j][i][a] =
    Low[a][j][i], built once."""
    n = m.dim
    low, L = lowered_constants(m)
    LT = [list(zip(*(plane[j] for plane in low))) for j in range(n)]
    return tuple(tuple(map(add, LT[j][i], LT[i][j])) for i in range(n) for j in range(i, n)), L


@memoized
def integer_product(m: MetricLieAlgebra) -> tuple[IntTensor, int]:
    """(P, D) with p = P / D for the least D > 0: the one integer view of the
    Levi-Civita product that every exact layer reads.

    Solved from the Killing rows (`killing_rows`): the Koszul formula reads
    2 L gram p_ij = G C_ij + A_(i,j) over L = g E.  With
    (G / g)^-1 = H / q (`linalg.congruence_inverse`, read off the
    congruence that the constructor ran for the signature, whose rows of
    G / g are each cleared on their own, so dense entries with distinct
    denominators do not share one huge common denominator), H G = q g I,
    so p_ij = (q g C_ij + H A_(i,j)) / 2 q L.  A_(i,j) is symmetric in
    (i, j) and C_ij antisymmetric, so p_ji = (H A_(i,j) - q g C_ij) / 2 q L:
    at most n(n+1)/2 products with H.  A zero Killing row (most of them on
    a sparse document) has the zero product with H, and a zero C_ij adds
    nothing, so neither is multiplied out: a pair with both zero has
    p_ij = p_ji = 0 as it is.  Dividing by the gcd of 2 q L and every
    numerator leaves the least D."""
    n, C = m.dim, m.algebra.C
    A, L = killing_rows(m)
    H, q = linalg.congruence_inverse(*m._congruence)
    qg = q * m.g
    dot = linalg.dot
    zero = (0,) * n
    rows = [zero] * (n * n)
    pairs = ((i, j) for i in range(n) for j in range(i, n))
    for (i, j), a in zip(pairs, A):
        HA = [dot(h, a) for h in H] if any(a) else zero
        if any(C[i][j]):
            rows[i * n + j] = [x + qg * c for x, c in zip(HA, C[i][j])]
            rows[j * n + i] = [x - qg * c for x, c in zip(HA, C[i][j])]
        else:
            rows[i * n + j] = rows[j * n + i] = HA
    P, D = linalg.least_terms(rows, 2 * q * L)
    return linalg.planes(P, n), D


@memoized
def product_bound(m: MetricLieAlgebra) -> int:
    """max |P| of `integer_product`, the bound every packed contraction
    with P reads."""
    return linalg.max_abs(integer_product(m)[0])


#: Widest packed row of K, n slots of w bits, at which `is_flat` packs
#: each whole matrix into one int instead of one int per row.  A block of
#: b rows takes one Python-level product where b rows take b, but each
#: product multiplies a column of the block, b ints n w bits apart, by a
#: packed row of n w bits, about n w / 30 times the limb work of the b
#: products it replaces.  On CPython 3.11 (2-vCPU Xeon), with the slot
#: width forced to each row width at dims 7-20, whole matrices took
#: 0.24-0.84 of the time of single rows up to rows of 320 bits, blocks of
#: 2-8 rows less of a saving, and from about 360 bits on every block of 2
#: or more rows lost to single rows, by 1.3-2.2x at 450 bits, whatever n.
FLAT_ROW_BITS = 320


@memoized
def is_flat(m: MetricLieAlgebra) -> CurvatureVerdict:
    """Check K(e_i, e_j) = 0 on all basis pairs (sufficient by bilinearity).

    Decided in ints, on the views p = P / D and c = C / E: L_k = A_k / D for
    the integer matrix A_k of v -> P(e_k, v), and L_[e_i, e_j] = S / (E D)
    with S = sum_k C_ijk A_k, so
    K(e_i, e_j) = (D S - E (A_i A_j - A_j A_i)) / (E D^2).  The first
    nonzero one is the witness.  D and E are first divided by their gcd g,
    which divides D S - E (A_i A_j - A_j A_i) by g and keeps K.

    K is decided packed (`linalg.pack`), in blocks of b rows.  With
    a = max |P| and c = max |C| (`product_bound`, `LieAlgebra.entry_bound`),
    every entry of D S - E (A_i A_j - A_j A_i) is at most n a (D c + 2 E a)
    in absolute value, which sets the slot width w, so a packed block is 0
    iff its rows are.  b = n, the whole matrix, when a row of n w bits is
    at most FLAT_ROW_BITS wide, and b = 1 otherwise, as past
    linalg.MAX_PACKED_WIDTH, where a packed row keeps one int per entry.
    Per metric, the rows of each A_k are packed once,
    PR_k[l] = pack_row(row l of A_k); so are its blocks of b rows whole,
    M_k[beta], and its columns over each block at the spacing n w of a
    row, CP_k[beta][l] = sum_{r in beta} A_k[r][l] 2^(n w (r - r0)) for a
    block beta from row r0.  Block beta of K, packed, is then
    D dot(C_ij, (M_k[beta])_k) - E (dot(CP_i[beta], PR_j) - dot(CP_j[beta], PR_i)):
    three dots per packed int of a block.  At b = 1, CP_k[beta] is row r0
    of A_k and M_k[beta] is PR_k[r0]; at b = n, one int holds K.  The
    witness blocks are unpacked.

    Exact zeros are skipped, not multiplied: the commutator term is dropped
    when A_i or A_j is the zero matrix (most L_k of a sparse flat document)
    and the S term when C_ij = 0, and a pair with both dropped has K = 0.
    The dropped terms are 0, so each K, and with it the witness, the first
    nonzero pair in the same order, is unchanged.  A zero A_k is not packed
    either: its blocks, rows and columns are shared zeros."""
    n = m.dim
    P, D = integer_product(m)
    C, E = m.algebra.C, m.algebra.E
    g = math.gcd(D, E)
    den = E * D * D // g
    D, E = D // g, E // g
    a = product_bound(m)
    w = linalg.slot_width(n * a * (D * m.algebra.entry_bound + 2 * E * a))
    span = n * w  # bits of one packed row
    q = 1 if w <= linalg.MAX_PACKED_WIDTH else n  # ints per packed row
    b = n if q == 1 and span <= FLAT_ROW_BITS else 1
    blocks = n // b

    def blocked(lines):  # out[beta][x]: lines[x][r] over the rows r of block beta, span bits apart
        return [tuple(linalg.pack(x, span) for x in lines)] if b > 1 else list(zip(*lines))

    zero = [not any(map(any, plane)) for plane in P]  # zero[k]: A_k = 0
    blank = (0,) * n
    packed, CP, M = [], [], []  # packed[k][t][l]: int t of PR_k[l]; CP[k][beta][l]; M[k][beta][t]
    for plane, z in zip(P, zero):  # column c of A_k is P[k][c]
        rows = [blank] * q if z else linalg.pack_rows(zip(*plane), w)
        packed.append(rows)
        CP.append([blank] * blocks if z else blocked(plane))
        M.append([(0,) * q] * blocks if z else blocked(rows))
    # K lists the packed ints of its blocks in order, q per block: int t of
    # block beta reads CP_i[beta] and CP_j[beta] (blocks_at), int t of every
    # packed row of A_j and A_i (cols_at) and int t of M_k[beta] (stacks)
    blocks_at = [[cp for cp in CPk for _ in range(q)] for CPk in CP]
    cols_at = [rows * blocks for rows in packed]
    stacks = [s for Mb in zip(*M) for s in zip(*Mb)]
    dot = linalg.dot
    for i in range(n):
        for j in range(i + 1, n):
            cij = C[i][j]
            if zero[i] or zero[j]:
                if not any(cij):
                    continue
                K = [D * dot(cij, s) for s in stacks]
            elif any(cij):
                K = [
                    D * dot(cij, s) - E * (dot(ai, pj) - dot(aj, pi))
                    for s, ai, aj, pi, pj in zip(stacks, blocks_at[i], blocks_at[j], cols_at[i], cols_at[j])
                ]
            else:
                K = [
                    E * (dot(aj, pi) - dot(ai, pj))
                    for ai, aj, pi, pj in zip(blocks_at[i], blocks_at[j], cols_at[i], cols_at[j])
                ]
            if any(K):
                entries = chain.from_iterable(linalg.unpack_row(K[e:e + q], w, n * b) for e in range(0, len(K), q))
                witness = tuple(tuple(Fraction(x, den) for x in row) for row in zip(*[entries] * n))
                return CurvatureVerdict(False, (i, j, witness))
    return CurvatureVerdict(True, None)


@memoized
def killing_subalgebra(m: MetricLieAlgebra) -> Subspace:
    """{u : ad_u + (ad_u)* = 0}: values at the identity of the left-invariant
    Killing fields.  Since (ad_u)* = G^-1 ad_u^T G with G invertible, this is
    {u : <[u, x], y> + <x, [u, y]> = 0 for all x, y}; the condition is linear
    in u and symmetric in (x, y), so it is the kernel of the n(n+1)/2 x n
    matrix of `killing_rows`: the common denominator L scales every row alike."""
    return linalg.kernel(killing_rows(m)[0])


def timelike_vector(m: MetricLieAlgebra, V: Subspace) -> tuple[int, ...] | None:
    """An int vector s in V with <s, s> < 0, or None iff the form restricted
    to V takes no negative value: s = B^T E[i] for V's int rows B,
    E R E^T = diag(d) the congruence of the restricted form R and d[i] its
    first negative entry (so degenerate restrictions are fine)."""
    if V.dim == 0:
        return None
    E, d = linalg.congruence(*linalg.restrict_form(m.G, V, m.g))
    i = next((i for i, x in enumerate(d) if x < 0), None)
    if i is None:
        return None
    return tuple(linalg.dot(col, E[i]) for col in zip(*V.B))


class KillingTripleReport(NamedTuple):
    """The three flat-case characterizations of the Killing subalgebra."""

    killing: Subspace
    product_span_perp: Subspace
    right_mult_kernel: Subspace
    all_equal: bool
    abelian: bool


def verify_killing_triple_identity(m: MetricLieAlgebra) -> KillingTripleReport:
    """For a flat Riemannian or Lorentzian instance, compute independently
    the Killing subalgebra, (g.g)-perp and ker(u -> R_u) and compare, the
    last two on the int planes of p = P / D (rows P[i][j] and (P[j][b][k])_b)."""
    if not (m.is_riemannian or m.is_lorentzian):
        raise HypothesisNotMetError("triple identity requires a Riemannian or Lorentzian signature")
    if not is_flat(m).flat:
        raise HypothesisNotMetError("triple identity requires a flat metric")
    (P, _), n = integer_product(m), m.dim
    s1 = killing_subalgebra(m)
    s2 = linalg.orthogonal_complement(Subspace.row_space(n, list(chain(*P))), m.G)
    s3 = linalg.kernel([[P[j][b][k] for b in range(n)] for j in range(n) for k in range(n)])
    return KillingTripleReport(s1, s2, s3, s1 == s2 == s3, m.algebra.is_abelian_subspace(s1))
