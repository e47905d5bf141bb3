"""`inputdoc.parse_rational` against the two-step parse it replaced: a
validation regex, a digit count, then `Fraction(text)`, whose least-terms
(numerator, denominator) is the pair `parse_rational` returns; and
`parse_document`, which parses each distinct string once per document,
against the same parse of every entry."""

import re
from fractions import Fraction

import pytest

from flatlie import catalog, inputdoc
from flatlie.errors import ParseError

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

_ORACLE_RE = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")


def _too_long(where, what):
    return ParseError(f"{where}: {what} has more than {inputdoc.MAX_DIGITS} digits in its numerator or denominator")


def fraction_oracle(x, where):
    """The two-step parse: match, count digits, then `Fraction(str)`."""
    if isinstance(x, bool):
        raise ParseError(f"{where}: expected a rational, got a boolean")
    if isinstance(x, int):
        if abs(x) >= 10**inputdoc.MAX_DIGITS:
            raise _too_long(where, "the integer")
        return Fraction(x)
    if isinstance(x, str):
        text = x.strip()
        if not _ORACLE_RE.match(text):
            raise ParseError(f"{where}: invalid rational {x!r} (use 'p/q' or an integer string)")
        if any(len(part) > inputdoc.MAX_DIGITS for part in text.lstrip("+-").split("/")):
            raise _too_long(where, f"the rational of {len(text)} characters")
        return Fraction(text)
    if isinstance(x, float):
        raise ParseError(f"{where}: floats are not accepted; write the exact rational as a string")
    raise ParseError(f"{where}: invalid rational {x!r}")


def oracle(x, where):
    """The pair of the two-step parse's Fraction."""
    value = fraction_oracle(x, where)
    return value.numerator, value.denominator


def outcome(parse, x):
    try:
        value = parse(x, "metric[0][1]")
    except ParseError as exc:
        return "error", str(exc)
    return "value", tuple(map(type, value)), value


#: ASCII digits, other Unicode decimal digits (Arabic-Indic, Devanagari,
#: fullwidth, mathematical), the rational's punctuation and whitespace
ALPHABET = "0123456789" "٠١٣٩" "०७" "０５" "𝟘𝟙" "+-/." " \t\n\r  "

#: strings near the accepted shape: whitespace, a sign, digit runs of up
#: to 8 digits (past MAX_DIGITS), a slash
DIGIT_RUNS = st.text(alphabet="0123456789٣०５", max_size=8)
NEAR_RATIONALS = st.builds(
    "".join,
    st.tuples(
        st.sampled_from(["", " ", "\t"]),
        st.sampled_from(["", "+", "-", "+-"]),
        DIGIT_RUNS,
        st.sampled_from(["", "/", "//", "."]),
        DIGIT_RUNS,
        st.sampled_from(["", " ", "\n", "/"]),
    ),
)

VALUES = st.one_of(
    st.text(alphabet=ALPHABET, max_size=16),
    NEAR_RATIONALS,
    st.integers(),
    st.integers(min_value=-(10**7), max_value=10**7),
    st.booleans(),
    st.floats(),
    st.none(),
)


@settings(max_examples=1000, deadline=None, database=None)
@given(VALUES)
def test_parse_rational_agrees_with_the_two_step_parse(x):
    assert outcome(inputdoc.parse_rational, x) == outcome(oracle, x)


@pytest.mark.parametrize(
    "text",
    [" 7 ", "+7", "-0", "000", "0/5", "-3/6", "1/01", "1/0", "1//2", "1.5", "", "+", "/2", "٣/٤", "1/٠",
     "1234567", "123456/1234567", "-123456/654321", " 1/2\n", "+-1", "1/2/3"],
)
def test_parse_rational_agrees_on_the_edges(text):
    assert outcome(inputdoc.parse_rational, text) == outcome(oracle, text)


def test_zero_is_the_zero_pair():
    for x in ("0", "-0", "+000", "0/7", " -0/123456 ", 0):
        assert inputdoc.parse_rational(x, "w") == (0, 1)


def _rot3(metric=None, coeffs=None):
    """The document of the catalog's rot3 with metric entries and
    brackets[0].coeffs entries replaced, {(r, c): value} and {k: value}."""
    doc = inputdoc.emit_document(catalog.build("rot3"))
    for (r, c), value in (metric or {}).items():
        doc["metric"][r][c] = value
    for k, value in (coeffs or {}).items():
        doc["brackets"][0]["coeffs"][k] = value
    return doc


def _refusal(doc):
    with pytest.raises(ParseError) as exc:
        inputdoc.parse_document(doc)
    return str(exc.value)


def _refusal_of(x, where):
    with pytest.raises(ParseError) as exc:
        inputdoc.parse_rational(x, where)
    return str(exc.value)


@pytest.mark.parametrize("bad", ["1.5", "1/0", "x", "1234567", " 1234567/2 "])
def test_a_bad_string_repeated_is_refused_at_its_first_field(bad):
    """A refused string is not kept for its repeats: each document is
    refused at the first field that holds it, in document order, with the
    message `parse_rational` gives there."""
    assert _refusal(_rot3({(0, 0): bad}, {2: bad})) == _refusal_of(bad, "brackets[0].coeffs[2]")
    assert _refusal(_rot3({(0, 1): bad, (1, 0): bad})) == _refusal_of(bad, "metric[0][1]")
    assert _refusal(_rot3(coeffs={0: bad, 1: bad})) == _refusal_of(bad, "brackets[0].coeffs[0]")


def test_a_seven_digit_string_twice_is_refused_both_times():
    """The same 7-digit string refused at its first field, and, with that
    field repaired, at its second."""
    doc = _rot3({(2, 2): "1234567"}, {2: "1234567"})
    assert _refusal(doc) == str(_too_long("brackets[0].coeffs[2]", "the rational of 7 characters"))
    doc["brackets"][0]["coeffs"][2] = "1"
    assert _refusal(doc) == str(_too_long("metric[2][2]", "the rational of 7 characters"))


@pytest.mark.parametrize("one", ["1", 1])
def test_a_boolean_next_to_one_is_refused(one):
    """True == 1 and hash(True) == hash(1), so a bool never reads the pair
    of "1" or of 1 parsed before it: it is refused where it stands."""
    message = "metric[2][2]: expected a rational, got a boolean"
    assert _refusal(_rot3({(1, 1): one, (2, 2): True})) == message
    assert _refusal(_rot3({(2, 2): True}, {2: one})) == message


def test_repeated_strings_parse_to_the_pairs_of_every_entry():
    """A document whose entries repeat, as strings, ints and padded strings
    of one value, loads to the metric and algebra that parsing every entry
    on its own gives (the oracle's Fractions)."""
    metric = {(0, 0): " -2/6 ", (1, 1): "1/3", (2, 2): "1/3", (0, 1): "-1/3", (1, 0): "-1/3", (2, 1): 0, (1, 2): "0"}
    doc = _rot3(metric, {0: "0", 1: "-1/3", 2: 1})
    m = inputdoc.parse_document(doc)
    assert m.gram == tuple(tuple(fraction_oracle(x, "w") for x in row) for row in doc["metric"])
    assert m.algebra.c[0][1] == tuple(fraction_oracle(x, "w") for x in doc["brackets"][0]["coeffs"])
