"""Built-in example catalog.

Compiled in rather than loaded from disk so the test suite is hermetic.
Each entry records the input document plus the verdicts it is documented
to produce; the tests replay those expectations.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import UnknownExampleError
from .inputdoc import parse_document
from .metric import MetricLieAlgebra


class CatalogEntry(NamedTuple):
    name: str
    description: str
    document: dict
    expected: dict

    def build(self) -> MetricLieAlgebra:
        return parse_document(self.document)


_ENTRIES = [
    CatalogEntry(
        name="abelian_minkowski",
        description="Abelian 3-dimensional algebra with Minkowski inner product: "
        "flat, every direction is a Killing direction.",
        document={
            "dim": 3,
            "brackets": [],
            "metric": [["-1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
            "labels": ["t", "x", "y"],
        },
        expected={
            "signature": (2, 1, 0),
            "flat": True,
            "theorem1": (True, True),
            "unimodular": True,
            "class_c": False,
        },
    ),
    CatalogEntry(
        name="rot3",
        description="Timelike generator s rotating a Euclidean plane "
        "([s,e1]=e2, [s,e2]=-e1): flat Lorentzian with timelike Killing field s.",
        document={
            "dim": 3,
            "brackets": [
                {"i": 1, "j": 2, "coeffs": ["0", "0", "1"]},
                {"i": 1, "j": 3, "coeffs": ["0", "-1", "0"]},
            ],
            "metric": [["-1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
            "labels": ["s", "e1", "e2"],
        },
        expected={
            "signature": (2, 1, 0),
            "flat": True,
            "theorem1": (True, True),
            "unimodular": True,
            "two_solvable": True,
            "class_c": False,
            "killing_dim": 1,
        },
    ),
    CatalogEntry(
        name="classc2_flat",
        description="Scalar-bracket algebra [d,e]=e with the hyperbolic-pair "
        "metric: degenerate on [g,g], hence flat; non-unimodular, incomplete.",
        document={
            "dim": 2,
            "brackets": [{"i": 1, "j": 2, "coeffs": ["0", "1"]}],
            "metric": [["0", "1"], ["1", "0"]],
            "labels": ["d", "e"],
        },
        expected={
            "signature": (1, 1, 0),
            "flat": True,
            "theorem1": (False, False),
            "unimodular": False,
            "class_c": True,
            "degenerate_restriction": True,
            "verdict": "incomplete",
        },
    ),
    CatalogEntry(
        name="classc2_nonflat",
        description="Same algebra with the Euclidean metric: nondegenerate "
        "restriction, so not flat (constant negative curvature).",
        document={
            "dim": 2,
            "brackets": [{"i": 1, "j": 2, "coeffs": ["0", "1"]}],
            "metric": [["1", "0"], ["0", "1"]],
            "labels": ["d", "e"],
        },
        expected={
            "signature": (2, 0, 0),
            "flat": False,
            "riemannian_flat": (False, False),
            "class_c": True,
            "degenerate_restriction": False,
            "verdict": "criterion inapplicable",
        },
    ),
    CatalogEntry(
        name="classc3_flat",
        description="3-dimensional scalar-bracket algebra, metric degenerate on "
        "the derived ideal (radical along u2, rescued by <d,u2>=1): flat, incomplete.",
        document={
            "dim": 3,
            "brackets": [
                {"i": 1, "j": 2, "coeffs": ["0", "1", "0"]},
                {"i": 1, "j": 3, "coeffs": ["0", "0", "1"]},
            ],
            "metric": [["0", "0", "1"], ["0", "1", "0"], ["1", "0", "0"]],
            "labels": ["d", "u1", "u2"],
        },
        expected={
            "signature": (2, 1, 0),
            "flat": True,
            "theorem1": (False, False),
            "unimodular": False,
            "class_c": True,
            "degenerate_restriction": True,
            "verdict": "incomplete",
        },
    ),
    CatalogEntry(
        name="heisenberg_euclidean",
        description="Heisenberg algebra [x,y]=z with the Euclidean metric: "
        "nilpotent non-flat Riemannian control case.",
        document={
            "dim": 3,
            "brackets": [{"i": 1, "j": 2, "coeffs": ["0", "0", "1"]}],
            "metric": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
            "labels": ["x", "y", "z"],
        },
        expected={
            "signature": (3, 0, 0),
            "flat": False,
            "riemannian_flat": (False, False),
            "unimodular": True,
            "class_c": False,
        },
    ),
]

_BY_NAME = {entry.name: entry for entry in _ENTRIES}


def names() -> list[str]:
    return [entry.name for entry in _ENTRIES]


def get(name: str) -> CatalogEntry:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise UnknownExampleError(
            f"unknown catalog entry {name!r}; available: {', '.join(names())}"
        ) from None


def build(name: str) -> MetricLieAlgebra:
    return get(name).build()
