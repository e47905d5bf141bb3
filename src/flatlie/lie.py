"""Lie algebras presented by rational structure constants.

The tensor c[i][j][k] means [e_i, e_j] = sum_k c[i][j][k] e_k, held as
its least-terms integer view c = C / E.  Antisymmetry and the Jacobi
identity are checked exactly at construction, so everything downstream
may assume a genuine Lie algebra.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import wraps
from itertools import chain
from typing import Iterable, Mapping, NamedTuple, Sequence

from . import linalg
from .errors import JacobiError
from .linalg import IntTensor, Mat, Subspace, Tensor, Vec, frac


def memoized(fn):
    """Store fn(obj) in obj._memo, so it is computed at most once per
    instance.  The value must be immutable: it is shared by every caller."""

    key = f"{fn.__module__}.{fn.__qualname__}"  # a string keeps instances picklable

    @wraps(fn)
    def wrapper(obj):
        memo = obj._memo
        if key not in memo:
            memo[key] = fn(obj)
        return memo[key]

    return wrapper


class CheckedRecord:
    """Mixin, listed before its NamedTuple base, for a record whose own
    `__init__` starts the per-instance `_memo` and calls `_check`, the one
    place its fields are checked.  Every route to a record goes through
    that constructor: its named constructors, and the copies made by
    `_make`, `_replace` and pickle, so each is checked and starts with an
    empty memo."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def __reduce__(self):
        return type(self), tuple(self)


def is_square(T, n: int) -> bool:
    """Whether T is a tuple of n tuples of length n (so it is immutable)."""
    return type(T) is tuple and len(T) == n and all(type(r) is tuple and len(r) == n for r in T)


def check_view(rows: Sequence[Sequence], d, num: str, den: str) -> None:
    """Refuse, naming the field, a view rows / d that is not in least terms
    over ints: the one view of its value, so == and hash can follow it."""
    check_ints(rows, d, num, den)
    check_reduced(math.gcd(d, *chain.from_iterable(rows)), num, den)


def check_ints(rows: Sequence[Sequence], d, num: str, den: str) -> None:
    """The first half of `check_view`: int entries over a positive int d."""
    if not set(map(type, chain.from_iterable(rows))) <= {int}:
        raise TypeError(f"{num}: entries must be ints")
    if type(d) is not int or d < 1:
        raise ValueError(f"{den}: the denominator must be a positive int, got {d!r}")


def check_reduced(h: int, num: str, den: str) -> None:
    """The second half of `check_view`, given h, the gcd of d and every entry."""
    if h != 1:
        raise ValueError(f"{num}, {den}: the view is not in least terms")


def integer_view(dim: int, brackets: Mapping[tuple[int, int], Sequence]) -> tuple[IntTensor, int]:
    """(C, E) with C / E the structure constants of the bracket table of
    `LieAlgebra.from_brackets`, antisymmetric completion included, and E
    the lcm of the table's denominators, so the view is in least terms.
    The coefficients are ints or Fractions, cleared by
    `linalg.clear_denominators`; keys are not checked."""
    rows, E = linalg.clear_denominators(list(brackets.values()))
    return complete_brackets(dim, zip(brackets, rows)), E


def complete_brackets(dim: int, rows: Iterable[tuple[tuple[int, int], Sequence[int]]]) -> IntTensor:
    """The antisymmetric completion C of an upper-triangle table of int
    rows: C[i][j] is the row of (i, j), C[j][i] its negative, and every
    other row 0."""
    C = [[(0,) * dim] * dim for _ in range(dim)]
    for (i, j), row in rows:
        C[i][j] = tuple(row)
        C[j][i] = tuple(-x for x in row)
    return tuple(map(tuple, C))


def clear_vectors(n: int, *vectors: Sequence) -> tuple[list[list[int]], int]:
    """Vectors of length n, of ints or Fractions, as int rows over one
    denominator; a float raises TypeError, as in `linalg.frac`."""
    if any(len(v) != n for v in vectors):
        raise ValueError(f"vector lengths {', '.join(str(len(v)) for v in vectors)} != algebra dimension {n}")
    bad = next((x for x in chain(*vectors) if isinstance(x, float)), None)
    if bad is not None:
        raise TypeError(f"refusing inexact float {bad!r}")
    return linalg.clear_denominators(vectors)


class _LieFields(NamedTuple):
    dim: int
    C: IntTensor
    E: int
    labels: tuple[str, ...] | None = None


class LieAlgebra(CheckedRecord, _LieFields):
    """The structure constants c = C / E held as their least-terms integer
    view (`check_view`), so ==, hash and pickle follow the fields.  The
    fields are the tuple's entries, so they cannot be rebound; the
    per-instance `_memo` and `entry_bound`, read off C by the Jacobi check,
    live outside the tuple, out of ==, hash and repr."""

    def __init__(self, dim: int, C: IntTensor, E: int, labels: tuple[str, ...] | None = None):
        self._memo = {}
        self._check()

    def _check(self) -> None:
        """The view (C, E) itself and the labels, then antisymmetry and
        Jacobi on the view.  The Jacobi residual of a triple adds only its
        nonzero bracket planes, and a triple with none is skipped: a zero
        plane's term is 0, so every residual, and with it the first failing
        triple that a JacobiError names, is the same."""
        n, C, E, labels = self
        if type(n) is not int or n < 1:
            raise ValueError("dim: dimension must be a positive integer")
        if labels is not None and not (
            type(labels) is tuple and len(labels) == n and all(isinstance(x, str) for x in labels)
        ):
            raise ValueError(f"labels: expected None or a tuple of {n} strings, got {labels!r}")
        if not (is_square(C, n) and all(is_square(plane, n) for plane in C)):
            raise ValueError(f"C: the structure constants must be a {n} x {n} x {n} tuple of tuples")
        check_view(list(chain.from_iterable(C)), E, "C", "E")
        linalg.check_antisymmetric(C)  # one denominator E: same test as on c
        # Entry m of [e_a, v] is sum_x v_x C[a][x][m], so with PC[a][x] the
        # packed row C[a][x] (`linalg.pack_row`), dot(v, PC[a]) is [e_a, v]
        # packed.  A residual entry is at most 3 n c^2 with c = max |C|,
        # kept as `entry_bound`, which sets the slot width.  The residual of
        # (i, j, k) is formed one packed int t at a time, PT[t][a] = PC[a][t].
        self._entry_bound = linalg.max_abs(C)
        w = linalg.slot_width(3 * n * self._entry_bound**2)
        PT = list(zip(*(linalg.pack_rows(plane, w) for plane in C)))
        Z = [[row if any(row) else None for row in plane] for plane in C]  # the nonzero planes
        dot = linalg.dot
        for i in range(n):
            for j in range(i + 1, n):
                cij = Z[i][j]
                for k in range(j + 1, n):
                    cjk, cki = Z[j][k], Z[k][i]
                    if not (cij or cjk or cki):
                        continue
                    for P in PT:
                        r = dot(cjk, P[i]) if cjk else 0
                        if cki:
                            r += dot(cki, P[j])
                        if cij:
                            r += dot(cij, P[k])
                        if r:  # quadratic in c = C / E
                            terms = ((cjk, i), (cki, j), (cij, k))
                            packed = [sum(dot(c, Q[a]) for c, a in terms if c) for Q in PT]
                            raise JacobiError(i, j, k, [Fraction(x, E * E) for x in linalg.unpack_row(packed, w, n)])

    @property
    def entry_bound(self) -> int:
        """max |C|, the bound that every packed contraction with C reads."""
        return self._entry_bound

    @classmethod
    def from_brackets(
        cls,
        dim: int,
        brackets: Mapping[tuple[int, int], Sequence],
        labels: Sequence[str] | None = None,
    ) -> "LieAlgebra":
        """Build from the strict upper triangle only: keys (i, j) with i < j,
        0-based; the antisymmetric completion is automatic.  The table is
        cleared straight to the fields (C, E) by `integer_view`."""
        table = {}
        for (i, j), coeffs in brackets.items():
            if not (0 <= i < j < dim):
                raise ValueError(f"bracket key ({i}, {j}) must satisfy 0 <= i < j < dim")
            if len(coeffs) != dim:
                raise ValueError(f"bracket ({i}, {j}) has {len(coeffs)} coefficients, expected {dim}")
            table[i, j] = tuple(map(frac, coeffs))
        return cls(dim, *integer_view(dim, table), tuple(labels) if labels else None)

    @classmethod
    def abelian(cls, dim: int, labels: Sequence[str] | None = None) -> "LieAlgebra":
        return cls.from_brackets(dim, {}, labels)

    @property
    @memoized
    def c(self) -> Tensor:
        """C / E, one Fraction per entry: for the public boundary only."""
        return linalg.fraction_tensor(self.C, self.E)

    def bracket(self, x: Sequence, y: Sequence) -> Vec:
        """[x, y] for x, y = xi / d, yi / d (`clear_vectors`): C(xi, yi) / (E d^2)."""
        (xi, yi), d = clear_vectors(self.dim, x, y)
        return [Fraction(v, self.E * d * d) for v in linalg.bilinear(self.C, xi, yi)]

    def ad(self, x: Sequence) -> Mat:
        """Matrix of v -> [x, v]; columns are the brackets with basis vectors."""
        (xi,), d = clear_vectors(self.dim, x)
        return [[Fraction(v, self.E * d) for v in row] for row in linalg.left_matrix(self.C, xi)]

    @memoized
    def derived_subalgebra(self) -> Subspace:
        """[g, g]: the span of all basis brackets, read off the int rows
        C[i][j] = E c[i][j]."""
        C = self.C
        return Subspace.row_space(self.dim, [C[i][j] for i in range(self.dim) for j in range(i + 1, self.dim)])

    def traces(self) -> tuple[int, ...]:
        """The int traces E tr ad_{e_i} = sum_j C[i][j][j], i by i."""
        n, C = self.dim, self.C
        return tuple(sum(C[i][j][j] for j in range(n)) for i in range(n))

    def is_unimodular(self) -> bool:
        """tr ad_{e_i} = 0 for every i, on the int `traces`."""
        return not any(self.traces())

    def is_abelian_subspace(self, V: Subspace) -> bool:
        """Decided in ints: the brackets of V's int rows B under C are
        nonzero multiples of the true ones."""
        rows = V.B
        return all(
            linalg.is_zero_vec(linalg.bilinear(self.C, rows[a], rows[b]))
            for a in range(len(rows))
            for b in range(a + 1, len(rows))
        )

    def is_abelian(self) -> bool:
        return not any(map(any, chain.from_iterable(self.C)))

    @memoized
    def is_2_solvable(self) -> bool:
        """True iff the derived subalgebra is abelian."""
        return self.is_abelian_subspace(self.derived_subalgebra())

    @classmethod
    def in_basis(cls, view: tuple[Sequence, int], P: Sequence[Sequence]) -> "LieAlgebra":
        """The algebra C / E of the integer view (C, E), in any terms, in the
        basis whose j-th vector is column j of P (old coordinates), from
        `linalg.integer_transport`.  P holds ints, kept as ints, or anything
        `frac` coerces (a float raises TypeError, a singular P
        SingularMatrixError).  A C that is not antisymmetric raises
        AntisymmetryError before P is read; the constructor's check of the
        result covers (C, E) otherwise: P is invertible."""
        C, E = view
        return cls(len(C), *linalg.integer_transport(C, linalg.exact_mat(P), E))

    def change_basis(self, P: Sequence[Sequence]) -> "LieAlgebra":
        """`in_basis` from the fields (C, E)."""
        return LieAlgebra.in_basis((self.C, self.E), P)
