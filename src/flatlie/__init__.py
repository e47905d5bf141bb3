"""flatlie: exact analysis of flat left-invariant pseudo-Riemannian metrics
on finite-dimensional Lie algebras, plus a numerical geodesic probe.

The exported names resolve on first use (PEP 562): `import flatlie` loads
no submodule, and `flatlie.X` imports only the module that defines X, so a
cold command pays for the modules it runs and no others.
"""

from importlib import import_module

__version__ = "0.1.0"

#: defining submodule -> the names this package exports from it
_EXPORTS = {
    "lie": ("LieAlgebra",),
    "linalg": ("Subspace", "Signature"),
    "metric": (
        "MetricLieAlgebra",
        "CurvatureVerdict",
        "is_flat",
        "killing_subalgebra",
        "timelike_vector",
        "verify_killing_triple_identity",
    ),
    "theorems": (
        "SplitData",
        "Theorem1Report",
        "theorem1_check",
        "verify_eq2",
        "riemannian_flat_check",
        "Corollary1Report",
        "corollary1_check",
        "riemannian_companion",
        "same_connection",
    ),
    "classc": (
        "ClassCStructure",
        "detect",
        "Theorem2Report",
        "theorem2_check",
        "WitnessBasis",
        "construct_witness",
        "witness_scale",
        "closed_form_products",
        "closed_form_matches",
        "IncompletenessReport",
        "incompleteness_verdict",
    ),
    "geodesics": (
        "GeodesicTrajectory",
        "integrate",
        "REACHED_HORIZON",
        "STEP_LIMIT",
        "BLOW_UP_DETECTED",
        "STEP_UNDERFLOW",
    ),
}

_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_OWNER)


def __getattr__(name: str):
    module = _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
