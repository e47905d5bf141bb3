"""Exception types shared across the package.

Everything derives from FlatLieError so callers (notably the CLI) can treat
"the input is unusable" uniformly.  Domain verdicts ("this metric is not
flat") are return values, never exceptions.
"""

from __future__ import annotations


class FlatLieError(Exception):
    """Base class for all package errors."""


class ParseError(FlatLieError):
    """Malformed input document; the message names the offending field."""


class NonSymmetricError(FlatLieError):
    """A matrix that had to be symmetric is not."""


class DegenerateFormError(FlatLieError):
    """A bilinear form that had to be nondegenerate has zero determinant."""


class SingularMatrixError(FlatLieError):
    """A matrix that had to be invertible is singular."""


class AntisymmetryError(FlatLieError):
    """Structure constants violate c[i][j][k] = -c[j][i][k]."""

    def __init__(self, i: int, j: int, k: int):
        self.triple = (i, j, k)
        super().__init__(f"antisymmetry violated at (i, j, k) = ({i + 1}, {j + 1}, {k + 1})")


class JacobiError(FlatLieError):
    """Jacobi identity fails on a basis triple; carries the residual vector."""

    def __init__(self, i: int, j: int, k: int, residual):
        self.triple = (i, j, k)
        self.residual = tuple(residual)
        super().__init__(
            f"Jacobi identity fails on basis triple ({i + 1}, {j + 1}, {k + 1}); "
            f"residual {[str(x) for x in residual]}"
        )


class NotLorentzianError(FlatLieError):
    """Operation requires signature (-,+,...,+)."""


class NotRiemannianError(FlatLieError):
    """Operation requires a positive definite inner product."""


class HypothesisNotMetError(FlatLieError):
    """The instance does not satisfy the operation's precondition."""


class InvalidSplitError(FlatLieError):
    """Supplied split data is not a valid orthogonal Killing/derived split."""


class MismatchedAlgebrasError(FlatLieError):
    """Two metric Lie algebras do not share the same underlying algebra."""


class NotClassCError(FlatLieError):
    """The algebra has no abelian codimension-1 ideal with scalar transversal action."""


class NotDegenerateError(FlatLieError):
    """Witness construction requires a degenerate restricted form."""


class RadicalDimensionError(FlatLieError):
    """Restricted-form radical has dimension >= 2 (unsupported; see docs)."""


class InvalidWitnessError(FlatLieError):
    """Witness basis data is internally inconsistent."""


class InvalidGeodesicInputError(FlatLieError):
    """Unusable integrator argument; `field` names it (rel_tol, t_max or v0)."""

    def __init__(self, field: str, reason: str):
        self.field = field
        self.reason = reason
        super().__init__(f"{field} {reason}")


class InvalidToleranceError(InvalidGeodesicInputError):
    """Integrator tolerance outside the accepted range (field rel_tol)."""


class UnknownExampleError(FlatLieError):
    """Requested catalog entry does not exist."""
