"""Lie algebras presented by rational structure constants.

The tensor c[i][j][k] means [e_i, e_j] = sum_k c[i][j][k] e_k.  Antisymmetry
and the Jacobi identity are checked exactly at construction, so everything
downstream may assume a genuine Lie algebra.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import wraps
from typing import Mapping, NamedTuple, Sequence

from . import linalg
from .errors import AntisymmetryError, JacobiError
from .linalg import IntTensor, Mat, Subspace, Tensor, Vec, ZERO, frac


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

    wrapper.key = key  # the memo slot, for a constructor that already holds the value
    return wrapper


class CheckedRecord:
    """Mixin, listed before its NamedTuple base, for a record whose own
    `__init__` starts the per-instance `_memo` and calls `_check`, the one
    place its fields are checked.  The copies made by `_make`, `_replace`
    and pickle go through the constructor too, so each is checked and
    starts with an empty memo.  `_seeded` builds an instance whose memo
    starts with views its maker already holds, and checks it the same way."""

    __slots__ = ()

    @classmethod
    def _seeded(cls, fields: tuple, memo: dict):
        obj = cls.__new__(cls, *fields)
        obj._memo = memo
        obj._check()
        return obj

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def __reduce__(self):
        return type(self), tuple(self)


def integer_view(dim: int, brackets: Mapping[tuple[int, int], Sequence]) -> tuple[IntTensor, int]:
    """(C, E) with C / E the structure constants of the bracket table of
    `LieAlgebra.from_brackets`, antisymmetric completion included, and E
    the lcm of the table's denominators: the view
    `linalg.clear_tensor_denominators` would clear from the whole tensor.
    The coefficients are ints or Fractions; keys are not checked."""
    E = math.lcm(*(x.denominator for v in brackets.values() for x in v))
    C = [[(0,) * dim] * dim for _ in range(dim)]
    for (i, j), v in brackets.items():
        C[i][j] = tuple(x.numerator * (E // x.denominator) for x in v)
        C[j][i] = tuple(-x for x in C[i][j])
    return tuple(map(tuple, C)), E


class _LieFields(NamedTuple):
    dim: int
    c: Tensor
    labels: tuple[str, ...] | None = None


class LieAlgebra(CheckedRecord, _LieFields):
    """The fields are the tuple's entries, so they cannot be rebound; the
    per-instance `_memo` lives outside the tuple, out of ==, hash and repr."""

    def __init__(self, dim: int, c: Tensor, labels: tuple[str, ...] | None = None):
        self._memo = {}
        self._check()

    def _check(self) -> None:
        """Shape, antisymmetry and the Jacobi identity, decided on the
        integer view `integer_constants`."""
        n, c = self.dim, self.c
        if n < 1:
            raise ValueError("dimension must be a positive integer")
        if len(c) != n or any(len(p) != n or any(len(r) != n for r in p) for p in c):
            raise ValueError("structure constant tensor must be n x n x n")
        C, E = self.integer_constants()
        for i in range(n):
            for j in range(i, n):
                for k in range(n):
                    if C[i][j][k] != -C[j][i][k]:  # one denominator E: same test as on c
                        raise AntisymmetryError(i, j, k)
        # Entry m of [e_a, v] is sum_x v_x C[a][x][m], so with PC[a][x] the
        # packed row C[a][x] (`linalg.pack_row`), dot(v, PC[a]) is [e_a, v]
        # packed.  A residual entry is at most 3 n c^2 with c = max |C|,
        # which sets the slot width.
        w = linalg.slot_width(3 * n * linalg.max_abs(C) ** 2)
        PC = [tuple(zip(*(linalg.pack_row(row, w) for row in plane))) for plane in C]  # PC[a][q][x]
        dot = linalg.dot
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    cjk, cki, cij = C[j][k], C[k][i], C[i][j]
                    residual = [dot(cjk, x) + dot(cki, y) + dot(cij, z) for x, y, z in zip(PC[i], PC[j], PC[k])]
                    if any(residual):  # quadratic in c = C / E
                        raise JacobiError(i, j, k, [Fraction(x, E * E) for x in linalg.unpack_row(residual, w, n)])

    @classmethod
    def from_brackets(
        cls,
        dim: int,
        brackets: Mapping[tuple[int, int], Sequence],
        labels: Sequence[str] | None = None,
    ) -> "LieAlgebra":
        """Build from the strict upper triangle only: keys (i, j) with i < j,
        0-based; the antisymmetric completion is automatic.  The table is
        cleared straight to the algebra's `integer_constants` by
        `integer_view`, on which the constructor checks run once; the n^3
        tensor `c` is never cleared."""
        zero = (ZERO,) * dim
        c = [[zero] * dim for _ in range(dim)]
        table = {}
        for (i, j), coeffs in brackets.items():
            if not (0 <= i < j < dim):
                raise ValueError(f"bracket key ({i}, {j}) must satisfy 0 <= i < j < dim")
            if len(coeffs) != dim:
                raise ValueError(f"bracket ({i}, {j}) has {len(coeffs)} coefficients, expected {dim}")
            v = table[i, j] = tuple(map(frac, coeffs))
            c[i][j] = v
            c[j][i] = tuple(-x if x else ZERO for x in v)
        fields = (dim, tuple(map(tuple, c)), tuple(labels) if labels else None)
        return cls._seeded(fields, {cls.integer_constants.key: integer_view(dim, table)})

    @classmethod
    def abelian(cls, dim: int, labels: Sequence[str] | None = None) -> "LieAlgebra":
        return cls.from_brackets(dim, {}, labels)

    @memoized
    def integer_constants(self) -> tuple[IntTensor, int]:
        """(C, E) with c = C / E for the least E > 0: the one integer view of
        the structure constants that every exact layer reads."""
        return linalg.clear_tensor_denominators(self.c)

    def bracket(self, x: Sequence, y: Sequence) -> Vec:
        if len(x) != self.dim or len(y) != self.dim:
            raise ValueError(f"vector lengths {len(x)}, {len(y)} != algebra dimension {self.dim}")
        return linalg.bilinear(self.c, x, y)

    def ad(self, x: Sequence) -> Mat:
        """Matrix of v -> [x, v]; columns are the brackets with basis vectors."""
        return linalg.left_matrix(self.c, x)

    @memoized
    def derived_subalgebra(self) -> Subspace:
        """[g, g]: the span of all basis brackets, read off the int rows
        C[i][j] = E c[i][j] of `integer_constants`."""
        C, _ = self.integer_constants()
        return Subspace.row_space(self.dim, [C[i][j] for i in range(self.dim) for j in range(i + 1, self.dim)])

    def is_unimodular(self) -> bool:
        n = self.dim
        return all(sum((self.c[i][j][j] for j in range(n)), ZERO) == 0 for i in range(n))

    def is_abelian_subspace(self, V: Subspace) -> bool:
        """Decided in ints: the brackets of the integer-scaled basis rows
        under C are nonzero multiples of the true ones."""
        C, _ = self.integer_constants()
        rows, _ = linalg.clear_denominators(V.basis)
        return all(
            linalg.is_zero_vec(linalg.bilinear(C, rows[a], rows[b]))
            for a in range(len(rows))
            for b in range(a + 1, len(rows))
        )

    def is_abelian(self) -> bool:
        return all(
            linalg.is_zero_vec(self.c[i][j]) for i in range(self.dim) for j in range(i + 1, self.dim)
        )

    def is_2_solvable(self) -> bool:
        """True iff the derived subalgebra is abelian."""
        return self.is_abelian_subspace(self.derived_subalgebra())

    @classmethod
    def in_basis(cls, view: tuple[Sequence, int], P: Sequence[Sequence]) -> "LieAlgebra":
        """The algebra C / E of the integer view (C, E), in any terms, built
        once, in the basis whose j-th vector is column j of P (old
        coordinates): `linalg.integer_transport` hands it its least-terms
        `integer_constants`.  P holds ints, kept as ints, or anything `frac`
        coerces (a float raises TypeError, a singular P SingularMatrixError).
        Its antisymmetry and Jacobi check covers (C, E): P is invertible."""
        C, E = view
        moved = linalg.integer_transport(C, linalg.exact_mat(P), E)
        return cls._seeded((len(C), linalg.fraction_tensor(*moved)), {cls.integer_constants.key: moved})

    def change_basis(self, P: Sequence[Sequence]) -> "LieAlgebra":
        """`in_basis` from `integer_constants`."""
        return LieAlgebra.in_basis(self.integer_constants(), P)
