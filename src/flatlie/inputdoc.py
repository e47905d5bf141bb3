"""JSON input documents: exact-rational descriptions of metric Lie algebras.

Schema (all rationals as "p/q" or integer strings; floats are rejected):

    {
      "dim": 3,
      "brackets": [{"i": 1, "j": 2, "coeffs": ["0", "0", "1"]}, ...],
      "metric": [["-1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
      "labels": ["s", "e1", "e2"]          # optional
    }

Indices are 1-based with i < j; the antisymmetric completion is implied.
`dim` is at most MAX_DIM and every numerator and denominator has at most
MAX_DIGITS digits; larger input is refused with a ParseError naming the
field.

Loading builds no Fraction: `parse_rational` matches a rational string
with one regex and returns its least-terms (numerator, denominator) ints
from the matched digits, and each distinct string is parsed once per
document, its repeats read from a dict.  The bracket table
is cleared over the lcm of its denominators to the algebra's fields
(C, E), completed antisymmetrically by `lie.complete_brackets`, and the
Gram matrix likewise to (G, g); the `LieAlgebra` and `MetricLieAlgebra`
constructors then check them once: the views, antisymmetry and Jacobi,
symmetry and nondegeneracy.
"""

from __future__ import annotations

import json
import math
import re
from typing import IO

from .errors import ParseError
from .lie import LieAlgebra, complete_brackets
from .metric import MetricLieAlgebra

#: sign, numerator digits and denominator digits of a rational string
_RATIONAL = re.compile(r"([+-]?)(\d+)(?:/([1-9]\d*))?")

_TOP_KEYS = {"dim", "brackets", "metric", "labels"}

#: Largest accepted dimension.  The exact analysis costs about dim^5
#: big-integer operations; a dense document at both caps (dim 20, every
#: entry a 6-digit numerator over a 6-digit denominator) ran
#: `analyze --json` in about 55 s on one CPU of a 2-vCPU Xeon (Python 3.11).
MAX_DIM = 20

#: Most digits accepted in one numerator or denominator, as written.
#: Distinct denominators multiply into common denominators of about
#: dim^2 * MAX_DIGITS digits; that dense document has a curvature witness
#: entry with a 4,990-digit numerator, beyond Python's default 4,300-digit
#: int/str conversion limit, so the reports format rationals without that
#: limit.
MAX_DIGITS = 6


class _LongInteger:
    """A JSON integer literal of more than MAX_DIGITS digits, left
    unconverted: no field accepts it, and Python refuses to convert one
    of more than 4,300 digits."""

    def __init__(self, literal: str):
        self.digits = len(literal.lstrip("-"))

    def __repr__(self) -> str:
        return f"an integer of {self.digits} digits"


def _parse_int(literal: str):
    return int(literal) if len(literal.lstrip("-")) <= MAX_DIGITS else _LongInteger(literal)


def _too_long(where: str, what) -> ParseError:
    return ParseError(f"{where}: {what} has more than {MAX_DIGITS} digits in its numerator or denominator")


def parse_rational(x, where: str) -> tuple[int, int]:
    """The exact value of one document entry as its least-terms ints
    (numerator, denominator), the denominator positive and zero (0, 1).
    The entry is an int of at most MAX_DIGITS digits, or a string "p" or
    "p/q", signed or not, padded with whitespace or not, whose digit runs p
    and q have at most MAX_DIGITS digits each and q starts with 1-9.  The
    string is matched once, and the pair is read off the matched digits.
    Anything else raises a ParseError naming `where`."""
    if isinstance(x, str):
        text = x.strip()
        match = _RATIONAL.fullmatch(text)
        if match is None:
            raise ParseError(f"{where}: invalid rational {x!r} (use 'p/q' or an integer string)")
        sign, num, den = match.groups()
        if len(num) > MAX_DIGITS or (den is not None and len(den) > MAX_DIGITS):
            raise _too_long(where, f"the rational of {len(text)} characters")
        n = -int(num) if sign == "-" else int(num)
        if den is None:
            return n, 1
        d = int(den)
        h = math.gcd(n, d)
        return n // h, d // h
    if isinstance(x, bool):
        raise ParseError(f"{where}: expected a rational, got a boolean")
    if isinstance(x, _LongInteger):
        raise _too_long(where, x)
    if isinstance(x, int):
        if abs(x) >= 10**MAX_DIGITS:
            raise _too_long(where, "the integer")
        return x, 1
    if isinstance(x, float):
        raise ParseError(f"{where}: floats are not accepted; write the exact rational as a string")
    raise ParseError(f"{where}: invalid rational {x!r}")


def _parse_entries(values: list, seen: dict[str, tuple[int, int]], where: str, *indices: int) -> list[tuple[int, int]]:
    """`parse_rational` of each value, with entry k named
    `where.format(*indices, k)`.  A string is parsed once per document:
    `seen` maps each string already accepted to its pair.  Only strings
    are kept there (True == 1 would make a bool find the int's pair), and
    only accepted ones, so a refused string is refused wherever it first
    appears.  The names are formatted only when an entry is refused: the
    values are then parsed again, named, up to the first refused one, so
    its ParseError is the one `parse_rational` gives."""
    try:
        out = []
        for x in values:
            if type(x) is str:
                pair = seen.get(x)
                if pair is None:
                    pair = seen[x] = parse_rational(x, where)
            else:
                pair = parse_rational(x, where)
            out.append(pair)
        return out
    except ParseError:
        for k, x in enumerate(values):
            parse_rational(x, where.format(*indices, k))
        raise


def _clear(rows: list[list[tuple[int, int]]]) -> tuple[list[list[int]], int]:
    """(d rows, d) for rows of least-terms pairs (numerator, denominator)
    and d the lcm of their denominators: the view in least terms, as
    `linalg.clear_denominators` finds it for the rows of Fractions."""
    d = math.lcm(*(q for row in rows for _, q in row))
    return [[p * (d // q) for p, q in row] for row in rows], d


def parse_document(doc) -> MetricLieAlgebra:
    """Validate a loaded JSON document and build the metric Lie algebra.

    Raises ParseError for schema problems; antisymmetry/Jacobi/symmetry/
    degeneracy violations surface as their own exception types.
    """
    if not isinstance(doc, dict):
        raise ParseError("document must be a JSON object")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise ParseError(f"unknown keys: {sorted(unknown)}")
    for key in ("dim", "metric"):
        if key not in doc:
            raise ParseError(f"missing required key {key!r}")

    dim = doc["dim"]
    if isinstance(dim, bool) or not isinstance(dim, int) or not 1 <= dim <= MAX_DIM:
        raise ParseError(f"dim: expected an integer from 1 to {MAX_DIM}, got {dim!r}")

    labels = doc.get("labels")
    if labels is not None:
        if not isinstance(labels, list) or len(labels) != dim or not all(isinstance(s, str) for s in labels):
            raise ParseError(f"labels: expected a list of {dim} strings")

    seen: dict[str, tuple[int, int]] = {}  # each accepted entry string, parsed
    brackets: dict[tuple[int, int], list[tuple[int, int]]] = {}
    raw_brackets = doc.get("brackets", [])
    if not isinstance(raw_brackets, list):
        raise ParseError("brackets: expected a list")
    for idx, entry in enumerate(raw_brackets):
        where = f"brackets[{idx}]"
        if not isinstance(entry, dict) or set(entry) != {"i", "j", "coeffs"}:
            raise ParseError(f"{where}: expected an object with keys i, j, coeffs")
        i, j = entry["i"], entry["j"]
        for name, val in (("i", i), ("j", j)):
            if isinstance(val, bool) or not isinstance(val, int):
                raise ParseError(f"{where}.{name}: expected an integer index")
        if not (1 <= i < j <= dim):
            raise ParseError(f"{where}: indices must satisfy 1 <= i < j <= dim, got ({i}, {j})")
        if (i - 1, j - 1) in brackets:
            raise ParseError(f"{where}: duplicate bracket ({i}, {j})")
        coeffs = entry["coeffs"]
        if not isinstance(coeffs, list) or len(coeffs) != dim:
            raise ParseError(f"{where}.coeffs: expected {dim} entries")
        brackets[(i - 1, j - 1)] = _parse_entries(coeffs, seen, "brackets[{}].coeffs[{}]", idx)

    metric = doc["metric"]
    if not isinstance(metric, list) or len(metric) != dim or any(
        not isinstance(row, list) or len(row) != dim for row in metric
    ):
        raise ParseError(f"metric: expected a {dim} x {dim} array")
    gram = [_parse_entries(row, seen, "metric[{}][{}]", r) for r, row in enumerate(metric)]

    rows, E = _clear(list(brackets.values()))
    algebra = LieAlgebra(dim, complete_brackets(dim, zip(brackets, rows)), E, tuple(labels) if labels else None)
    G, g = _clear(gram)
    return MetricLieAlgebra(algebra, tuple(map(tuple, G)), g)


def load(stream: IO[str]) -> MetricLieAlgebra:
    return loads(stream.read())


def loads(text: str) -> MetricLieAlgebra:
    try:
        doc = json.loads(text, parse_int=_parse_int)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    except RecursionError:  # the decoder recurses once per nested array or object
        raise ParseError("invalid JSON: nested too deep") from None
    return parse_document(doc)


def emit_document(m: MetricLieAlgebra) -> dict:
    """Canonical document for a metric Lie algebra: nonzero upper-triangle
    brackets in (i, j) order, all rationals as canonical strings.

    The caps of `parse_document` apply here too, so every emitted document
    loads: an algebra beyond MAX_DIM or a rational beyond MAX_DIGITS raises
    a ParseError naming the field."""
    n = m.dim
    if n > MAX_DIM:
        raise ParseError(f"dim: expected an integer from 1 to {MAX_DIM}, got {n!r}")

    def emit(x, where: str) -> str:
        # capped before str(x), which refuses an int of more than 4,300 digits
        if abs(x.numerator) >= 10**MAX_DIGITS or x.denominator >= 10**MAX_DIGITS:
            raise _too_long(where, "the rational")
        return str(x)

    brackets = []
    for i in range(n):
        for j in range(i + 1, n):
            coeffs = m.algebra.c[i][j]
            if any(coeffs):
                where = f"brackets[{len(brackets)}].coeffs"
                brackets.append(
                    {"i": i + 1, "j": j + 1, "coeffs": [emit(x, f"{where}[{k}]") for k, x in enumerate(coeffs)]}
                )
    doc = {
        "dim": n,
        "brackets": brackets,
        "metric": [[emit(x, f"metric[{r}][{c}]") for c, x in enumerate(row)] for r, row in enumerate(m.gram)],
    }
    if m.algebra.labels:
        doc["labels"] = list(m.algebra.labels)
    return doc
