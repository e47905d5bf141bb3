"""Exact linear algebra over the rationals.

Functions take vectors and matrices (sequences of rows) of ints or
Fractions; the records hold them as least-terms int views.  Every
operation here is pure and exact: no floating point, no tolerances, so
"equals zero" is a real decision, not a threshold.

The hot exact work runs in Python ints: `clear_denominators` scales a
matrix to integers over one common denominator, and `dot` and `bilinear`
keep int data int (their sums start at int 0, so an entry with no
nonzero term is the int 0, which equals Fraction(0)).  The
records' fields are least-terms integer views: the structure constants
(C, E), which `lie.integer_view` clears from the bracket table of
`LieAlgebra.from_brackets` (so of every sweep instance's shape) and the
loader from a document's int pairs, the Gram matrix (G, g) and a
`Subspace`'s canonical basis (B, b).  A change of basis makes the first
two in the new basis: `integer_transport` moves the antisymmetric view
(C, E) through the 2 x 2 minors of P, reading only the nonzero rows
C[i][j] with i < j and forming only the entries a < b, and
`transport_form` forms the upper triangle of P^T G P; each refuses
input without its symmetry before any other work, reads int input as it
is (`integer_matrix`) and is reduced to the least denominator by
`least_terms`, as `integer_inverse` and every `Subspace` are.
`metric.integer_product` is solved in ints from the two views.
`_bareiss` is the one Gaussian elimination, on rows that
`_primitive_row` clears to primitive ints; `Subspace.row_space` and the
one-pass `kernel` hand it only their distinct nonzero rows
(`_distinct_rows`), the int inverse view `integer_inverse` (behind
`integer_transport`'s P^-1) every row, and the subspace operations
combine the int rows B.  `congruence` (behind `metric.timelike_vector`),
`restrict_form` and `orthogonal_complement` take int or Fraction
matrices, and `congruence` a view (G, g) too, cleared row by row, not
over g; `restrict_form` returns such a view, which `radical` and
`congruence` read as it is.  A metric's constructor runs
`congruence_of_rows` on the rows of its (G, g) for the signature and
keeps the result, from which `congruence_inverse` reads G^-1 for
`metric.integer_product` with no second elimination.  `pack` turns an int row
into one integer with exact zero test and read-back (`slot_width`,
`unpack`), so `is_flat`, the Jacobi check, `integer_transport` and the
lowered constants and connection, eq. (2) and class-C witness checks take
one `dot` per term of a row rather than of each entry.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain
from operator import add, lshift, mul, neg
from typing import Iterable, NamedTuple, Sequence

from .errors import AntisymmetryError, NonSymmetricError, SingularMatrixError

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


def exact_mat(rows: Iterable[Iterable]) -> list[list]:
    """The matrix with its int entries kept as ints and every other entry
    coerced by `frac` (so floats are refused): exact input for the integer
    kernel, which reads ints and Fractions alike."""
    return [[x if type(x) is int else frac(x) for x in row] for row in rows]


def zeros(r: int, c: int) -> Mat:
    return [[ZERO] * c for _ in range(r)]


def units(n: int) -> list[list[int]]:
    """The unit vectors e_0 .. e_{n-1} as int rows: contracting with them
    keeps int data int and Fraction data Fraction."""
    return [[0] * i + [1] + [0] * (n - 1 - i) for i in range(n)]


def clear_denominators(A: Sequence[Sequence]) -> tuple[list[list[int]], int]:
    """(d A, d) for the least d > 0 that makes every entry of the matrix
    d A an integer; entries may be Fractions or ints."""
    d = math.lcm(*(x.denominator for row in A for x in row))
    return [[x.numerator * (d // x.denominator) for x in row] for row in A], d


def least_terms(rows: Sequence[Sequence[int]], d: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(rows / h, d / h) for h = gcd(d, every entry) with the sign of the
    nonzero int d: the view rows / d over its least positive denominator,
    the one `clear_denominators` finds for the matrix of Fractions
    rows / d.  Stored as tuples, so a record may hold it."""
    h = math.gcd(d, *chain.from_iterable(rows))
    if h == 1 and d > 0:
        return tuple(map(tuple, rows)), d
    if d < 0:
        h = -h
    return tuple(tuple(x // h for x in row) for row in rows), d // h


def planes(rows: Sequence[Sequence[int]], n: int) -> IntTensor:
    """The n^2 rows of an n x n x n tensor, plane by plane, as the tensor."""
    return tuple(tuple(map(tuple, rows[i * n:(i + 1) * n])) for i in range(n))


def fraction_matrix(rows: Sequence[Sequence[int]], d: int) -> tuple[tuple[Fraction, ...], ...]:
    """The matrix rows / d of an integer view, one Fraction per nonzero
    entry (a zero entry is the shared ZERO): for the public boundary."""
    return tuple(tuple(Fraction(x, d) if x else ZERO for x in row) for row in rows)


def fraction_tensor(X: Sequence[Sequence[Sequence[int]]], d: int) -> Tensor:
    """The tensor X / d of an integer view, one Fraction per nonzero entry
    (a zero entry is the shared ZERO)."""
    return tuple(fraction_matrix(plane, d) for plane in X)


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


def pack_rows(rows: Iterable[Sequence[int]], w: int) -> list[tuple[int, ...]]:
    """parts[t][l], int t of `pack_row(rows[l], w)`: dot(v, parts[t]) is
    int t of the packed combination sum_l v[l] rows[l]."""
    return list(zip(*(pack_row(row, w) for row in rows)))


def unpack_row(xs: Sequence[int], w: int, n: int) -> list[int]:
    """The n slots of a combination of `pack_row` tuples of one shape."""
    return [v for x in xs for v in unpack(x, w, n // len(xs))]


def bilinear(T: Tensor, x: Sequence, y: Sequence) -> Vec:
    """T(x, y) = sum_ij x_i y_j T[i][j] for an n x n x n tensor whose
    T[i][j][k] is the e_k coefficient of T(e_i, e_j): the contraction
    behind `LieAlgebra.is_abelian_subspace`; zero coefficients are
    skipped."""
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


def check_antisymmetric(T: Sequence[Sequence[Sequence[int]]]) -> None:
    """Raise AntisymmetryError at the first (i, j, k), in the order i <= j,
    then k, with T[i][j][k] != -T[j][i][k], for an n x n x n tensor."""
    n = len(T)
    for i in range(n):
        Ti = T[i]
        for j in range(i, n):
            if any(map(add, Ti[j], T[j][i])):
                raise AntisymmetryError(i, j, next(k for k, (x, y) in enumerate(zip(Ti[j], T[j][i])) if x != -y))


def integer_matrix(A: Sequence[Sequence]) -> tuple[Sequence[Sequence[int]], int]:
    """(Ai, a) with A = Ai / a: a matrix of ints as it is, over 1, with no
    copy; otherwise `clear_denominators(A)`."""
    return (A, 1) if set(map(type, chain.from_iterable(A))) <= {int} else clear_denominators(A)


def integer_transport(C: Sequence[Sequence[Sequence[int]]], P: Sequence[Sequence], E: int = 1) -> tuple[IntTensor, int]:
    """(X, e): the antisymmetric tensor C / E, an int view in any terms
    with E > 0, in the basis given by the columns of P, whose entry (a, b)
    is P^-1 C(P_a, P_b) / E, as X / e for the least e > 0, the view that
    clearing the Fraction tensor would find.  P holds ints, read as they
    are, or Fractions; callers coerce outside input with `exact_mat` first.
    Raises AntisymmetryError for a C that is not antisymmetric, before any
    other work (`check_antisymmetric`), and SingularMatrixError for a
    singular P.

    Antisymmetry gives C(P_a, P_b) = sum_{i<j} m_ij(a, b) C[i][j] with
    m_ij(a, b) = P_ia P_jb - P_ja P_ib, the 2 x 2 minors of P (its second
    compound), so only the nonzero upper rows C[i][j], i < j, are read and
    only the entries a < b are formed; X[b][a] = -X[a][b] and X[a][a] = 0.
    In ints, with P = Pi / p and P^-1 = Qi / q (`integer_inverse`), entry
    (a, b) is sum_{i<j} m_ij(a, b) Qi C[i][j] in Pi's minors, over q E p^2.
    The columns of Qi are packed over the output index (`pack_row`), so
    each Qi C[i][j] is one dot per packed int, formed once; each entry
    a < b is then one dot of its minors with them, unpacked once, and the
    whole is divided by its gcd with the denominator.  Every slot is at
    most (row sum of |Qi|) (column sum of |Pi|)^2 max |C|, which sets the
    slot width: the minors of a pair of columns sum to at most the product
    of their sums in absolute value."""
    check_antisymmetric(C)
    n = len(P)
    Qi, q = integer_inverse(P)
    Pi, p = integer_matrix(P)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if any(C[i][j])]
    upper = [C[i][j] for i, j in pairs]
    cols = list(zip(*Pi))
    bound = max(sum(map(abs, row)) for row in Qi) * max(sum(map(abs, col)) for col in cols) ** 2
    w = slot_width(bound * max(map(abs, chain.from_iterable(upper)), default=0))
    QC = [[dot(row, part) for row in upper] for part in pack_rows(zip(*Qi), w)]  # QC[t][l]: int t of Qi upper[l]
    X = []  # X[l]: entry (a, b) of the l-th pair a < b
    for a, Pa in enumerate(cols):
        for Pb in cols[a + 1:]:
            minors = [Pa[i] * Pb[j] - Pa[j] * Pb[i] for i, j in pairs]
            X.append(unpack_row([dot(minors, QCt) for QCt in QC], w, n))
    rows, e = least_terms(X, q * E * p * p)
    out = [[(0,) * n] * n for _ in range(n)]
    rows = iter(rows)
    for a in range(n):
        for b in range(a + 1, n):
            out[a][b] = row = next(rows)
            out[b][a] = tuple(map(neg, row))
    return tuple(map(tuple, out)), e


def transport_form(G: Sequence[Sequence], P: Sequence[Sequence], g: int = 1) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(M, h): the symmetric bilinear form G / g in the basis given by the
    columns of P, P^T G P / g, as M / h for the least h > 0, the view
    `clear_denominators` would find.  G and P hold ints, read as they are,
    or Fractions; with G = Gi / s and P = Pi / p it is Pi^T Gi Pi over
    g s p^2, formed for a <= b and mirrored.  Raises NonSymmetricError for
    a G that is not symmetric, before any other work."""
    if not is_symmetric(G):
        raise NonSymmetricError("transport_form requires a symmetric form")
    Gi, s = integer_matrix(G)
    Pi, p = integer_matrix(P)
    cols = list(zip(*Pi))
    GP = [[dot(row, col) for row in Gi] for col in cols]  # GP[b]: column b of Gi Pi
    M = [[0] * len(cols) for _ in cols]
    for a, col in enumerate(cols):
        for b in range(a, len(cols)):
            M[a][b] = M[b][a] = dot(col, GP[b])
    return least_terms(M, g * s * p * p)


def is_zero_vec(v) -> bool:
    return all(x == 0 for x in v)


def is_symmetric(A) -> bool:
    n = len(A)
    return all(len(r) == n for r in A) and all(
        A[i][j] == A[j][i] for i in range(n) for j in range(i + 1, n)
    )


def _primitive_row(row: Sequence) -> list[int]:
    """The row scaled to integers with no common factor.  Dropping the
    common factor too, such as one lcm a caller applied to a whole matrix,
    keeps the minors of the elimination small.  A row of ints, such as the
    Killing constraints or [P | I] for an int P, needs no clearing."""
    ints = row if set(map(type, row)) <= {int} else clear_denominators([row])[0][0]
    g = math.gcd(*ints)
    return [x // g for x in ints] if g > 1 else list(ints)


def _distinct_rows(A: Sequence[Sequence]) -> list[tuple[int, ...]]:
    """The distinct nonzero rows of A up to a nonzero factor, in order of
    first appearance: each nonzero row as its primitive int row with its
    first nonzero entry positive, once.  A zero row and a row that is a
    multiple of an earlier one add nothing to the span, so A and these rows
    have the same row space and null space: the same reduced echelon form,
    whose pivot rows are all that `kernel` and `Subspace.row_space` read."""
    out: dict[tuple[int, ...], None] = {}
    for row in A:
        if any(row):
            p = _primitive_row(row)
            out[tuple(p) if next(x for x in p if x) > 0 else tuple(-x for x in p)] = None
    return list(out)


def _bareiss(rows: list[Sequence[int]]) -> tuple[list[Sequence[int]], list[int], int]:
    """(R, pivots, d): the reduced row echelon form of the int rows is
    R / d, R in ints.  The list is taken over and changed.

    Fraction-free Gauss-Jordan (Bareiss, "Sylvester's identity and
    multistep integer-preserving Gaussian elimination", Math. Comp. 22,
    1968).  The callers hand in primitive rows (`_primitive_row`,
    `_distinct_rows`), which keeps the minors small.  A pivot step at
    (r, c) replaces every other row by
    (pivot * row - row[c] * pivot_row) / prev, prev the previous pivot; by
    Sylvester's identity every entry stays a minor, so the division is
    exact.  After the last step every pivot equals the last one, d.  A row
    with row[c] = 0 only becomes pivot * row / prev, and stays as it is
    when pivot = prev."""
    pivots: list[int] = []
    prev = 1
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        prow = rows[r]
        pv = prow[c]
        for i, row in enumerate(rows):
            if i != r:
                f = row[c]
                if f:
                    rows[i] = [(pv * x - f * y) // prev for x, y in zip(row, prow)]
                elif pv != prev:
                    rows[i] = [pv * x // prev for x in row]
        prev = pv
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots, prev


def kernel(A: Sequence[Sequence[Fraction]]) -> "Subspace":
    """Null space {v : A v = 0} of a matrix with at least one row, in one
    Bareiss pass over A's columns in reverse order: row r of the form R / d
    is then zero after its pivot p_r, so the null vector of a free column f
    (1 at f, -R[r][f] / d at each p_r) has its other entries at pivots
    after f, and these vectors over d, by f, are the kernel's canonical basis.

    Only `_distinct_rows` is eliminated: zero rows and repeats up to a
    factor, such as most Killing constraint rows of a sparse document, do
    not change the null space, and `least_terms` takes the basis to its
    one view whatever the last pivot d.  All-zero A gives `Subspace.full`."""
    n = len(A[0])
    R, pivots, d = _bareiss(_distinct_rows([row[::-1] for row in A]))
    pivot_of = {n - 1 - c: row for c, row in zip(pivots, R)}
    basis = []
    for f in range(n):
        if f in pivot_of:
            continue
        v = [0] * n
        v[f] = d
        for p, row in pivot_of.items():
            v[p] = -row[n - 1 - f]
        basis.append(v)
    return Subspace(n, *least_terms(basis, d))


def integer_inverse(A: Sequence[Sequence]) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(Qi, q) with A^-1 = Qi / q for the least q > 0: the right half of
    the integer reduced form of [A | I] that `_bareiss` leaves over its
    last pivot, for A of ints or Fractions.  Each row goes in as its
    primitive part.  The rows of [A | I] are nonzero and independent, so
    none is dropped as in `kernel`.  Raises SingularMatrixError.  A
    metric's Gram matrix is inverted from its congruence instead
    (`congruence_inverse`)."""
    n = len(A)
    R, pivots, d = _bareiss([_primitive_row([*row] + [0] * i + [1] + [0] * (n - 1 - i)) for i, row in enumerate(A)])
    if pivots != list(range(n)):
        raise SingularMatrixError("matrix is not invertible")
    return least_terms([row[n:] for row in R], d)


class Signature(NamedTuple):
    """Sylvester signature (#positive, #negative, #zero) of a symmetric form."""

    n_plus: int
    n_minus: int
    n_zero: int

    @property
    def dim(self) -> int:
        return self.n_plus + self.n_minus + self.n_zero

    @classmethod
    def of(cls, d: Sequence[int]) -> "Signature":
        """The signs of the diagonal d of a congruence."""
        return cls(sum(x > 0 for x in d), sum(x < 0 for x in d), sum(x == 0 for x in d))


def congruence(S: Sequence[Sequence], s: int = 1) -> tuple[list[list[int]], list[int]]:
    """(E, d) in ints with E (S / s) E^T = diag(d), for S of ints or
    Fractions and s a positive int.

    Fraction-free, with the pivots of symmetric elimination: take a nonzero
    diagonal pivot, swapping rows and columns alike; when the whole
    remaining diagonal vanishes, e_r += e_c for the first A[r][c] != 0
    makes the pivot 2 A[r][c] (characteristic zero), so no square roots
    are needed.

    Each row r of S / s is first scaled by nu[r], the lcm of its own
    denominators (l S[r] over l s, l the lcm of the entries' denominators,
    divided by their gcd), so A = diag(nu) S / s is integral and E starts
    as diag(nu): a view (G, g) gives the rows of G / g.  A Bareiss pass
    then keeps A[r][c] = E_r S F_c^T, where F_c is e_c plus the vectors
    row-added into it, and replaces each later row by
    (piv row - A[r][i] pivot_row) / prev, exact by Sylvester's identity.
    Every row of E stays a common factor (prev, the last pivot) times
    nu[r] times the row that elimination in Fractions gives; a row add
    weights its two rows by the other one's nu to keep it so.  Hence
    d[i] = E_i S E_i^T = prev * nu[i] * piv.  Scaling the rows only, not
    also the columns, keeps each minor one row-lcm per row in size.
    """
    if not is_symmetric(S):
        raise NonSymmetricError("congruence requires a symmetric matrix")
    return congruence_of_rows(*row_scales(S, s))


def row_scales(S: Sequence[Sequence], s: int = 1) -> tuple[list[int], list[list[int]]]:
    """(nu, A): row r of S / s as A[r] / nu[r] in least terms, nu[r] > 0,
    for S of ints or Fractions and s a positive int.  For a view (G, g),
    nu[r] = g / gcd(g, G[r]), so the view is in least terms iff the lcm of
    the nu[r] is g."""
    nu, A = [], []
    for row in S:
        lr = math.lcm(*(x.denominator for x in row))
        ints = [x.numerator * (lr // x.denominator) for x in row]
        h = math.gcd(lr * s, *ints)
        nu.append(lr * s // h)
        A.append([x // h for x in ints])
    return nu, A


def congruence_of_rows(nu: list[int], A: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """`congruence` of the symmetric matrix whose row r is A[r] / nu[r], the
    rows of `row_scales`, which it takes over and changes."""
    n = len(A)
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


def congruence_inverse(E: Sequence[Sequence[int]], d: Sequence[int], nu: Sequence[int]) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(H, q) with S^-1 = H / q for the least q > 0, read off what
    `congruence_of_rows` returns for a nondegenerate symmetric S: E and d
    with E S E^T = diag(d), and nu, the row scales it leaves.  No second
    elimination: S^-1 = E^T diag(d)^-1 E = sum_k E_k^T E_k / d_k.

    Fraction-free, as `_bareiss` is.  Let S_k = sum_{i<=k} E_i^T E_i / d_i
    and p_k = d_k / (p_{k-1} nu_k), p_0 = 1.  `congruence_of_rows` has
    d_k = prev nu_k piv, so p_k is its k-th Bareiss pivot: the leading
    k x k minor of diag(nu) M, M = U S U^T, where the int matrix U holds
    the swaps and row adds e_r += e_c made up to step k (later ones move
    only basis vectors after k); diag(nu) M is an int matrix, so row r
    of M is an int row over nu_r.  The first k rows of E are a triangular
    combination W of the first k rows U_k of U with W M_k W^T diagonal,
    M_k the leading k x k block of M, so S_k = U_k^T M_k^-1 U_k and
    p_k S_k = U_k^T (nu_1 .. nu_k) adj(M_k) U_k: a cofactor of M_k leaves
    out one row, so (nu_1 .. nu_k) times it is an int, and p_k S_k is an
    int matrix T_k, the nu-scaled adjugate of the leading block carried
    through the swaps and row adds.  Hence in

        T_k = (nu_k p_k T_{k-1} + E_k^T E_k) / (nu_k p_{k-1})

    every division is exact.  It is accumulated on the upper triangle, and
    T_n / p_n is S^-1, reduced by `least_terms`.  Entry (a, b) of T_k is 0
    unless some E_i, i <= k, is nonzero at a and at b, so only the rows and
    columns before `end`, one past the last nonzero entry of E_1 .. E_k,
    are formed: with no swap, E is lower triangular and T_k fills its
    leading k x k block."""
    n = len(E)
    T = [[0] * n for _ in range(n)]
    prev = end = 1
    for Ek, dk, vk in zip(E, d, nu):
        p = dk // (prev * vk)
        num, den = vk * p, vk * prev
        end = max(end, 1 + max(i for i, x in enumerate(Ek) if x))
        for a in range(end):
            x, row = Ek[a], T[a]
            if x:
                row[a:end] = [(num * t + x * y) // den for t, y in zip(row[a:end], Ek[a:end])]
            elif num != den:
                row[a:end] = [num * t // den for t in row[a:end]]
        prev = p
    for a in range(n):
        for b in range(a):
            T[a][b] = T[b][a]
    return least_terms(T, prev)


class Subspace(NamedTuple):
    """Linear subspace of Q^n with a canonical reduced-row-echelon basis
    held as its least-terms integer view B / b (`least_terms`), the one
    that `clear_denominators` finds for it: each row of B is b at its pivot.

    Equality of subspaces is plain equality of the fields.  The empty B
    (over b = 1) is the zero subspace.  Being a tuple, len and iteration
    run over (ambient_dim, B, b): `dim` is the dimension.
    """

    ambient_dim: int
    B: tuple[tuple[int, ...], ...] = ()
    b: int = 1

    @staticmethod
    def span(ambient_dim: int, vectors: Iterable[Sequence]) -> "Subspace":
        rows = exact_mat(vectors)
        for w in rows:
            if len(w) != ambient_dim:
                raise ValueError(f"vector length {len(w)} != ambient dimension {ambient_dim}")
        return Subspace.row_space(ambient_dim, rows)

    @staticmethod
    def row_space(ambient_dim: int, rows: Sequence[Sequence]) -> "Subspace":
        """The span of rows of ints or Fractions, each of length
        ambient_dim, taken without coercing them: scaling a row by a nonzero
        factor leaves the span, and so its canonical basis, the nonzero rows
        of `_bareiss`, unchanged.  So only `_distinct_rows` is eliminated,
        without the zero rows and the repeats up to a factor, such as the
        zero brackets behind `LieAlgebra.derived_subalgebra`."""
        rows = _distinct_rows(rows)
        if not rows:
            return Subspace(ambient_dim)
        R, pivots, d = _bareiss(rows)
        return Subspace(ambient_dim, *least_terms(R[: len(pivots)], d))

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, tuple(map(tuple, units(ambient_dim))))

    @property
    def dim(self) -> int:
        return len(self.B)

    @property
    def basis(self) -> tuple[tuple[Fraction, ...], ...]:
        """B / b, one Fraction per entry: for the public boundary only."""
        return fraction_matrix(self.B, self.b)


def subspace_sum(U: Subspace, V: Subspace) -> Subspace:
    if U.ambient_dim != V.ambient_dim:
        raise ValueError("subspaces live in different ambient spaces")
    return Subspace.row_space(U.ambient_dim, U.B + V.B)


def restrict_form(G: Sequence[Sequence], V: Subspace, g: int = 1, W: Subspace | None = None) -> tuple[list[list], int]:
    """(R, den) with R / den the Gram matrix of the form G / g restricted
    to V, in V's canonical basis; with W, the block of values <v_r, w_c>
    between the canonical bases of V and W.  On the int views B / b of the
    bases, R holds the dots of those rows through G, over the one positive
    den = g V.b W.b, not reduced: ints for a G of ints, such as a metric's
    field G over g, and Fractions for a G of Fractions."""
    W = V if W is None else W
    GC = [[dot(row, w) for row in G] for w in W.B]
    return [[dot(v, Gw) for Gw in GC] for v in V.B], g * V.b * W.b


def orthogonal_complement(V: Subspace, G: Sequence[Sequence]) -> Subspace:
    """V-perp {x : <v, x> = 0 for all v in V} for a symmetric form G (ints
    or Fractions) on the ambient space: the kernel of the rows G v, for the
    int rows v of V's view.  G is not checked to be nondegenerate: the
    callers pass a metric's field G, proved so at construction."""
    if V.dim == 0:
        return Subspace.full(V.ambient_dim)
    return kernel([[dot(row, v) for row in G] for v in V.B])


def radical(form_restricted: Sequence[Sequence], on: Subspace) -> Subspace:
    """Radical {e in V : <e, x> = 0 for all x in V} of a restricted form.

    `form_restricted` must be the Gram matrix of the ambient form in V's
    canonical basis up to a nonzero factor, such as the R of
    `restrict_form`'s view (R, den), ints or Fractions; the result is
    expressed in ambient coordinates, as int combinations of V's rows B.
    """
    if on.dim == 0:
        return on
    if not is_symmetric(form_restricted):
        raise NonSymmetricError("restricted form must be symmetric")
    cols = list(zip(*on.B))
    return Subspace.row_space(on.ambient_dim, [[dot(k, col) for col in cols] for k in kernel(form_restricted).B])
