"""`inputdoc.parse_rational` against the two-step parse it replaced: a
validation regex, a digit count, then `Fraction(text)`, whose least-terms
(numerator, denominator) is the pair `parse_rational` returns."""

import re
from fractions import Fraction

import pytest

from flatlie import inputdoc
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
