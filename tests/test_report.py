"""`report.to_data`, the one serializer from report objects to JSON values."""

import json
import sys
from fractions import Fraction as F
from pathlib import Path
from typing import NamedTuple

import pytest

from flatlie import catalog, inputdoc, report
from flatlie.linalg import Subspace
from flatlie.report import to_data
from flatlie.theorems import theorem1_check

GOLDEN = Path(__file__).parent / "golden" / "analyze"


class Sample(NamedTuple):
    count: int
    ratio: F
    note: str
    span: Subspace
    entries: tuple[F, ...]
    flag: bool | None
    _json = {"ratio": "scale", "note": None}


class Pair(NamedTuple):
    left: int
    right: F


def test_to_data_renames_omits_and_keeps_declaration_order():
    span = Subspace.span(3, [[2, 0, F(2, 3)], [0, 0, 0]])
    data = to_data(Sample(3, F(-1, 2), "left out", span, (F(0), F(10, 2), F(-7, 2)), None))
    assert data == {
        "count": 3,
        "scale": "-1/2",
        "span": [["1", "0", "1/3"]],
        "entries": ["0", "5", "-7/2"],
        "flag": None,
    }
    assert list(data) == ["count", "scale", "span", "entries", "flag"]
    # an int count stays a JSON number; every Fraction, zero and integral
    # ones included, is a string
    assert json.dumps(data) == (
        '{"count": 3, "scale": "-1/2", "span": [["1", "0", "1/3"]], '
        '"entries": ["0", "5", "-7/2"], "flag": null}'
    )


def test_to_data_writes_nested_records_as_objects_and_plain_tuples_as_arrays():
    records = [Pair(1, F(1, 2)), (Pair(2, F(3)), (2, F(3)))]
    assert to_data(records) == [
        {"left": 1, "right": "1/2"},
        [{"left": 2, "right": "3"}, [2, "3"]],
    ]
    assert to_data((Pair(0, F(0)),)) == [{"left": 0, "right": "0"}]


def test_to_data_passes_plain_values_and_rejects_other_types():
    assert to_data([True, 0, "x", None, (1, F(1))]) == [True, 0, "x", None, [1, "1"]]
    with pytest.raises(TypeError):
        to_data(0.5)


def test_theorem1_object_has_the_golden_key_order():
    m = inputdoc.parse_document(catalog.get("rot3").document)
    expected = json.loads((GOLDEN / "rot3.json").read_text(encoding="utf-8"))["theorem1"]
    data = to_data(theorem1_check(m))
    assert list(data) == list(expected)
    assert list(data["split"]) == list(expected["split"]) == ["killing_basis", "derived_basis"]
    assert data == expected


def test_view_strings_are_the_fraction_strings():
    """A view rows / d is written entry by entry as str(Fraction(x, d)):
    zero, negative and reducible entries, and entries beyond the int/str
    digit limit, which the oracle lifts to write them."""
    limit = sys.get_int_max_str_digits()
    long = 7 ** (2 * max(limit, 4300))  # more digits than the limit
    cases = [
        ((0, 0, 5), 1), ((0, -3, 6, 4, -12), 6), ((-7, 14, 21), 7), ((3, -2, 9), 12),
        ((long, -long, 2 * long, 0), 1), ((long, 3 * long + 1), 3), ((5, -1), long), ((long * 6, 9), 4 * long),
    ]
    for row, d in cases:
        written = report._view_data([row, row[::-1]], d)
        sys.set_int_max_str_digits(0)
        try:
            expected = [[str(F(x, d)) for x in r] for r in (row, row[::-1])]
        finally:
            sys.set_int_max_str_digits(limit)
        assert written == expected, (row, d)
    span = Subspace.span(3, [[-6, 0, 4]])
    assert (span.B, span.b) == (((3, 0, -2),), 3) and to_data(span) == [["1", "0", "-2/3"]]
