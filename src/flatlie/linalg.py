"""Exact linear algebra over the rationals.

Vectors are lists/tuples of Fraction, matrices are lists of row lists.
Every operation here is pure and exact: no floating point, no tolerances,
so "equals zero" is a real decision, not a threshold.

The hot exact work runs in Python ints: `clear_denominators` scales a
matrix or tensor to integers over one common denominator, and `dot`,
`mat_vec`, `mat_mul`, `bilinear`, `left_matrix` and `right_matrix` keep
int data int (their sums start at int 0, so an entry with no nonzero term
is the int 0, which equals Fraction(0)).  A tensor is cleared in one place
only, the memoized view `LieAlgebra.integer_constants`;
`metric.lowered_constants` clears the Gram matrix,
`metric.integer_product` is solved in ints from it, `rref` clears each
row's denominators itself, and `transport` and the congruence pass behind
`symmetric_diagonalize` and `signature` clear their own matrices.
`pack` turns an int row into one integer with exact zero test and
read-back (`slot_width`, `unpack`), so `is_flat` and the Jacobi check
take one `dot` per term of a row rather than of each entry.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain
from operator import lshift, mul
from typing import Iterable, NamedTuple, Sequence

from .errors import DegenerateFormError, NonSymmetricError, SingularMatrixError

Vec = list[Fraction]
Mat = list[list[Fraction]]
Tensor = tuple[tuple[tuple[Fraction, ...], ...], ...]
IntTensor = tuple[tuple[tuple[int, ...], ...], ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def frac(x) -> Fraction:
    """Coerce to Fraction; floats are refused to keep the kernel exact.
    A Fraction is returned as it is: it is immutable, so sharing it is safe."""
    if type(x) is Fraction:
        return x
    if isinstance(x, float):
        raise TypeError(f"refusing inexact float {x!r}")
    return Fraction(x)


def vec(entries: Iterable) -> Vec:
    return [frac(x) for x in entries]


def mat(rows: Iterable[Iterable]) -> Mat:
    return [vec(r) for r in rows]


def zeros(r: int, c: int) -> Mat:
    return [[ZERO] * c for _ in range(r)]


def identity(n: int) -> Mat:
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def units(n: int) -> list[list[int]]:
    """The unit vectors e_0 .. e_{n-1} as int rows: contracting with them
    keeps int data int and Fraction data Fraction."""
    return [[int(i == j) for j in range(n)] for i in range(n)]


def clear_denominators(A: Sequence[Sequence]) -> tuple[list[list[int]], int]:
    """(d A, d) for the least d > 0 that makes every entry of the matrix
    d A an integer; entries may be Fractions or ints."""
    d = math.lcm(*(x.denominator for row in A for x in row))
    return [[x.numerator * (d // x.denominator) for x in row] for row in A], d


def clear_tensor_denominators(T: Sequence[Sequence[Sequence]]) -> tuple[IntTensor, int]:
    """clear_denominators for an n x n x n tensor: one d for all entries.
    The result is nested tuples, so a memo may share it."""
    rows, d = clear_denominators([row for plane in T for row in plane])
    n = len(T)
    return tuple(tuple(map(tuple, rows[i * n:(i + 1) * n])) for i in range(n)), d


def transpose(A: Sequence[Sequence[Fraction]]) -> Mat:
    return [list(col) for col in zip(*A)] if A else []


def dot(x: Sequence, y: Sequence):
    """sum_k x_k y_k, one C-level pass: the inner loop of the packed rows
    that `is_flat` and the Jacobi check build once and then only read."""
    return sum(map(mul, x, y))


def max_abs(T: Sequence[Sequence[Sequence[int]]]) -> int:
    """The largest |entry| of an int 3-tensor."""
    return max(map(abs, chain.from_iterable(chain.from_iterable(T))))


def slot_width(bound: int) -> int:
    """The least w with bound < 2^(w-1): every int v with |v| <= bound is
    a balanced base-2^w digit, the slot range of `pack` and `unpack`."""
    return bound.bit_length() + 1


def pack(row: Sequence[int], w: int) -> int:
    """sum_c row[c] 2^(w c): an int row as one integer (Kronecker
    substitution; von zur Gathen & Gerhard, Modern Computer Algebra, 8.4).

    pack is Z-linear, so an integer combination of packed rows is the packed
    combination of the rows, whatever its slots.  A packed row is 0 iff the
    row is 0 as long as every slot v satisfies |v| < 2^(w-1): if slot h is
    the highest nonzero one, |v_h| 2^(w h) >= 2^(w h), while the lower slots
    add up to at most (2^(w-1) - 1)(2^(w h) - 1) / (2^w - 1) < 2^(w h) / 2 in
    absolute value, so the sum is not 0.  The same bound makes the balanced
    digits of `unpack` give the row back."""
    return sum(map(lshift, row, range(0, w * len(row), w)))


def unpack(x: int, w: int, n: int) -> list[int]:
    """The n slots of x = pack(row, w) when every slot v has |v| < 2^(w-1):
    balanced base-2^w digits, lowest first.  A negative slot borrows 1 from
    the one above it, which subtracting the digit before the shift returns."""
    mask, half, out = (1 << w) - 1, 1 << (w - 1), []
    for _ in range(n):
        v = x & mask
        if v >= half:
            v -= 1 << w
        out.append(v)
        x = (x - v) >> w
    return out


#: Widest slot that `pack_row` packs a whole row at.  A packed row spends
#: one Python-level product per row instead of one per entry, but each
#: product multiplies an a-bit entry into slots about 2a bits wide, twice
#: the bits of the entry products it replaces.  On CPython 3.11 (2-vCPU
#: Xeon) the saved calls outweigh the doubled bits up to slots of about
#: 1,000 bits, in `is_flat` and in the Jacobi check alike; on the dense
#: 6-digit documents at the input caps (slots of 11,000-25,000 bits),
#: whole packed rows made `is_flat` 1.5-1.75x slower than one int per entry.
MAX_PACKED_WIDTH = 1024


def pack_row(row: Sequence[int], w: int) -> tuple[int, ...]:
    """row as a tuple of packed ints: one `pack(row, w)` when the slot width
    w is at most MAX_PACKED_WIDTH, else one int per slot, the entries
    themselves.  An integer combination of such tuples, taken int by int,
    is zero iff the combined row is, and `unpack_row` reads it back, as
    long as every combined slot v has |v| < 2^(w-1) (see `pack`)."""
    return (pack(row, w),) if w <= MAX_PACKED_WIDTH else tuple(row)


def unpack_row(xs: Sequence[int], w: int, n: int) -> list[int]:
    """The n slots of a combination of `pack_row` tuples of one shape."""
    return [v for x in xs for v in unpack(x, w, n // len(xs))]


def mat_vec(A: Sequence[Sequence[Fraction]], v: Sequence[Fraction]) -> Vec:
    return [sum((a * x for a, x in zip(row, v) if a and x), 0) for row in A]


def mat_mul(A: Sequence[Sequence[Fraction]], B: Sequence[Sequence[Fraction]]) -> Mat:
    Bt = transpose(B)
    return [[sum((a * b for a, b in zip(row, col) if a and b), 0) for col in Bt] for row in A]


def bilinear(T: Tensor, x: Sequence, y: Sequence) -> Vec:
    """T(x, y) = sum_ij x_i y_j T[i][j] for an n x n x n tensor whose
    T[i][j][k] is the e_k coefficient of T(e_i, e_j).  Every contraction of
    a 3-tensor goes through here; zero coefficients are skipped."""
    out = [0] * len(T)
    ys = [(j, yj) for j, yj in enumerate(y) if yj]
    for xi, plane in zip(x, T):
        if xi:
            for j, yj in ys:
                f = xi * yj
                for k, t in enumerate(plane[j]):
                    if t:
                        out[k] += f * t
    return out


def left_matrix(T: Tensor, x: Sequence) -> Mat:
    """Matrix of y -> T(x, y)."""
    return transpose([bilinear(T, x, e) for e in units(len(T))])


def right_matrix(T: Tensor, y: Sequence) -> Mat:
    """Matrix of x -> T(x, y)."""
    return transpose([bilinear(T, e, y) for e in units(len(T))])


def transport(T: Sequence[Sequence[Sequence]], P: Sequence[Sequence], t: int = 1) -> Tensor:
    """The tensor T / t in the basis given by the columns of P: entry (a, b)
    is P^-1 T(P_a, P_b) / t.  T and P may hold ints or Fractions; callers
    coerce outside input with `mat` first.  In ints: with P = Pi / p and
    P^-1 = Qi / q, the entry is Qi T(Pi_a, Pi_b) over q t p^2, one Fraction
    per entry.  Raises SingularMatrixError for a singular P."""
    Qi, q = clear_denominators(inverse(P))
    Pi, p = clear_denominators(P)
    cols = transpose(Pi)
    den = q * t * p * p
    return tuple(
        tuple(tuple(Fraction(x, den) if x else ZERO for x in mat_vec(Qi, bilinear(T, a, b))) for b in cols)
        for a in cols
    )


def mat_sub(A, B) -> Mat:
    return [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_add(A, B) -> Mat:
    return [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_scale(A, f: Fraction) -> Mat:
    return [[f * a for a in row] for row in A]


def is_zero_mat(A) -> bool:
    return all(x == 0 for row in A for x in row)


def is_zero_vec(v) -> bool:
    return all(x == 0 for x in v)


def vec_sub(u, v) -> Vec:
    return [a - b for a, b in zip(u, v)]


def vec_scale(v, f: Fraction) -> Vec:
    return [f * x for x in v]


def is_symmetric(A) -> bool:
    n = len(A)
    return all(len(r) == n for r in A) and all(
        A[i][j] == A[j][i] for i in range(n) for j in range(i + 1, n)
    )


def form_value(G: Sequence[Sequence[Fraction]], x: Sequence[Fraction], y: Sequence[Fraction]) -> Fraction:
    """<x, y> for the bilinear form with Gram matrix G."""
    return sum((xi * gij * yj for xi, row in zip(x, G) if xi for gij, yj in zip(row, y) if gij and yj), ZERO)


def _primitive_row(row: Sequence) -> list[int]:
    """The row scaled to integers with no common factor.  Dropping the
    common factor too, such as one lcm a caller applied to a whole matrix,
    keeps the minors of the elimination small."""
    (ints,), _ = clear_denominators([row])
    g = math.gcd(*ints)
    return [x // g for x in ints] if g > 1 else ints


def rref(A: Sequence[Sequence[Fraction]]) -> tuple[Mat, list[int]]:
    """Reduced row echelon form; returns (R, pivot_columns).

    Fraction-free Gauss-Jordan (Bareiss, "Sylvester's identity and
    multistep integer-preserving Gaussian elimination", Math. Comp. 22,
    1968).  Each row is first scaled to primitive integers.  A pivot step
    at (r, c) replaces every other row by
    (pivot * row - row[c] * pivot_row) / prev, prev the previous pivot; by
    Sylvester's identity every entry stays a minor, so the division is
    exact.  After the last step every pivot equals the last one, d, and R
    is the integer matrix over d: Fractions are built once, at the end."""
    rows = [_primitive_row(row) for row in A]
    if not rows:
        return [], []
    pivots: list[int] = []
    prev = 1
    r = 0
    for c in range(len(rows[0])):
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        prow = rows[r]
        pv = prow[c]
        for i, row in enumerate(rows):
            if i != r:
                f = row[c]
                rows[i] = [(pv * x - f * y) // prev for x, y in zip(row, prow)]
        prev = pv
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return [[Fraction(x, prev) if x else ZERO for x in row] for row in rows], pivots


def rank(A: Sequence[Sequence[Fraction]]) -> int:
    return len(rref(A)[1])


def kernel(A: Sequence[Sequence[Fraction]]) -> "Subspace":
    """Null space {v : A v = 0} of a matrix with at least one row."""
    n = len(A[0])
    R, pivots = rref(A)
    pivot_set = set(pivots)
    basis: list[Vec] = []
    for free in range(n):
        if free in pivot_set:
            continue
        v = [ZERO] * n
        v[free] = ONE
        for r, pc in enumerate(pivots):
            v[pc] = -R[r][free]
        basis.append(v)
    return Subspace.span(n, basis)


def inverse(A: Sequence[Sequence[Fraction]]) -> Mat:
    """A^-1, read off the right half of rref([A | I])."""
    n = len(A)
    R, pivots = rref([list(row) + irow for row, irow in zip(A, identity(n))])
    if pivots != list(range(n)):
        raise SingularMatrixError("matrix is not invertible")
    return [row[n:] for row in R]


class Signature(NamedTuple):
    """Sylvester signature (#positive, #negative, #zero) of a symmetric form."""

    n_plus: int
    n_minus: int
    n_zero: int

    @property
    def dim(self) -> int:
        return self.n_plus + self.n_minus + self.n_zero


def symmetric_diagonalize(S: Sequence[Sequence[Fraction]]) -> tuple[Mat, Vec]:
    """Exact congruence diagonalization: returns (E, d) with E S E^T = diag(d),
    the integer pass of `_congruence` as Fractions."""
    E, d = _congruence(S)
    return [[Fraction(x) for x in row] for row in E], [Fraction(x) for x in d]


def _congruence(S: Sequence[Sequence[Fraction]]) -> tuple[list[list[int]], list[int]]:
    """(E, d) in ints with E S E^T = diag(d).

    Fraction-free, with the pivots of symmetric elimination: take a nonzero
    diagonal pivot, swapping rows and columns alike; when the whole
    remaining diagonal vanishes, e_r += e_c for the first A[r][c] != 0
    makes the pivot 2 A[r][c] (characteristic zero), so no square roots
    are needed.

    Each row r is first scaled by nu[r], the lcm of its own denominators,
    so A = diag(nu) S is integral and E starts as diag(nu).  A Bareiss pass
    then keeps A[r][c] = E_r S F_c^T, where F_c is e_c plus the vectors
    row-added into it, and replaces each later row by
    (piv row - A[r][i] pivot_row) / prev, exact by Sylvester's identity.
    Every row of E stays a common factor (prev, the last pivot) times
    nu[r] times the row that elimination in Fractions gives; a row add
    weights its two rows by the other one's nu to keep it so.  Hence
    d[i] = E_i S E_i^T = prev * nu[i] * piv.  Scaling the rows only, not
    also the columns, keeps each minor one row-lcm per row in size.
    """
    n = len(S)
    if not is_symmetric(S):
        raise NonSymmetricError("symmetric_diagonalize requires a symmetric matrix")
    nu = [math.lcm(*(x.denominator for x in row)) for row in S]
    A = [[x.numerator * (lr // x.denominator) for x in row] for row, lr in zip(S, nu)]
    E = [[lr if r == c else 0 for c in range(n)] for r, lr in enumerate(nu)]
    d = [0] * n

    def swap(i: int, j: int) -> None:
        A[i], A[j] = A[j], A[i]
        for row in A:
            row[i], row[j] = row[j], row[i]
        E[i], E[j] = E[j], E[i]
        nu[i], nu[j] = nu[j], nu[i]

    prev = 1
    for i in range(n):
        if not A[i][i]:
            j = next((j for j in range(i + 1, n) if A[j][j]), None)
            if j is not None:
                swap(i, j)
            else:
                found = next(((r, c) for r in range(i, n) for c in range(r + 1, n) if A[r][c]), None)
                if found is None:
                    break  # remaining block is identically zero
                r, c = found
                g = math.gcd(nu[r], nu[c])
                a, b = nu[c] // g, nu[r] // g
                A[r] = [a * x + b * y for x, y in zip(A[r], A[c])]
                E[r] = [a * x + b * y for x, y in zip(E[r], E[c])]
                nu[r] *= a
                for row in A:  # F_r += F_c
                    row[r] += row[c]
                if r != i:
                    swap(i, r)
        piv = A[i][i]
        d[i] = prev * nu[i] * piv
        prow, erow = A[i], E[i]
        for r in range(i + 1, n):
            f = A[r][i]
            A[r][i + 1:] = [(piv * x - f * y) // prev for x, y in zip(A[r][i + 1:], prow[i + 1:])]
            E[r] = [(piv * x - f * y) // prev for x, y in zip(E[r], erow)]
        prev = piv
    return E, d


def signature(S: Sequence[Sequence[Fraction]]) -> Signature:
    """Sylvester signature of a symmetric matrix, computed exactly: the
    signs of the integer diagonal of `_congruence`."""
    _, d = _congruence(S)
    return Signature(
        n_plus=sum(1 for x in d if x > 0),
        n_minus=sum(1 for x in d if x < 0),
        n_zero=sum(1 for x in d if x == 0),
    )


class Subspace(NamedTuple):
    """Linear subspace of Q^n with a canonical reduced-row-echelon basis.

    Equality of subspaces is plain equality of the canonical bases.  The
    empty basis is the zero subspace.  Being a tuple, len and iteration
    run over (ambient_dim, basis): `dim` is the dimension.
    """

    ambient_dim: int
    basis: tuple[tuple[Fraction, ...], ...]

    @staticmethod
    def span(ambient_dim: int, vectors: Iterable[Sequence]) -> "Subspace":
        vecs = []
        for v in vectors:
            w = vec(v)
            if len(w) != ambient_dim:
                raise ValueError(f"vector length {len(w)} != ambient dimension {ambient_dim}")
            if not is_zero_vec(w):
                vecs.append(w)
        if not vecs:
            return Subspace(ambient_dim, ())
        R, pivots = rref(vecs)
        return Subspace(ambient_dim, tuple(tuple(row) for row in R[: len(pivots)]))

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        return Subspace.span(ambient_dim, identity(ambient_dim))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def coordinates(self, v: Sequence) -> Vec | None:
        """Coordinates of v in the canonical basis, or None if v is not in
        the subspace.  Each coordinate is read off its row's pivot."""
        w = vec(v)
        coords = []
        for row in self.basis:
            f = w[next(j for j, x in enumerate(row) if x != 0)]
            coords.append(f)
            if f:
                w = [a - f * b for a, b in zip(w, row)]
        return coords if is_zero_vec(w) else None

    def contains(self, v: Sequence) -> bool:
        return self.coordinates(v) is not None

    def basis_rows(self) -> Mat:
        return [list(r) for r in self.basis]


def subspace_sum(U: Subspace, V: Subspace) -> Subspace:
    if U.ambient_dim != V.ambient_dim:
        raise ValueError("subspaces live in different ambient spaces")
    return Subspace.span(U.ambient_dim, list(U.basis) + list(V.basis))


def restrict_form(G: Sequence[Sequence[Fraction]], V: Subspace) -> Mat:
    """Gram matrix of the form restricted to V, in V's canonical basis."""
    B = V.basis_rows()
    return mat_mul(B, mat_mul(G, transpose(B))) if B else []


def orthogonal_complement(V: Subspace, G: Sequence[Sequence[Fraction]]) -> Subspace:
    """V-perp for a nondegenerate symmetric form G on the ambient space."""
    if rank(G) < len(G):
        raise DegenerateFormError("orthogonal complement requires a nondegenerate ambient form")
    n = V.ambient_dim
    if V.dim == 0:
        return Subspace.full(n)
    constraints = mat_mul(V.basis_rows(), G)
    return kernel(constraints)


def radical(form_restricted: Sequence[Sequence[Fraction]], on: Subspace) -> Subspace:
    """Radical {e in V : <e, x> = 0 for all x in V} of a restricted form.

    `form_restricted` must be the Gram matrix of the ambient form in V's
    canonical basis; the result is expressed in ambient coordinates.
    """
    if on.dim == 0:
        return on
    if not is_symmetric(form_restricted):
        raise NonSymmetricError("restricted form must be symmetric")
    Bt = transpose(on.basis)
    return Subspace.span(on.ambient_dim, [mat_vec(Bt, c) for c in kernel(form_restricted).basis])
