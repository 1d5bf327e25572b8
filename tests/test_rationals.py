import re
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import example, given
import hypothesis.strategies as st

from bidarena.rationals import (as_fraction, decimal_text, format_ratio,
                                format_rational, parse_rational)


def test_parse_ratio_text():
    assert parse_rational("3/2") == Fraction(3, 2)
    assert parse_rational(" 7/4 ") == Fraction(7, 4)


def test_parse_decimal_text_is_exact():
    assert parse_rational("0.25") == Fraction(1, 4)
    assert parse_rational("2") == Fraction(2)
    assert parse_rational("0.1") == Fraction(1, 10)


@pytest.mark.parametrize("bad", ["", "x", "1/0", "1/2/3", "1.2.3"])
def test_parse_rejects_garbage(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


def test_parse_bounds_decimal_exponents():
    # Fraction builds 10**exponent in full; the bound is the one Python puts
    # on the integers of "p/q" text.
    limit = sys.get_int_max_str_digits()
    assert parse_rational(f"1e{limit}") == 10 ** limit
    assert parse_rational(f"1e-{limit}") == Fraction(1, 10 ** limit)
    for text in (f"1e{limit + 1}", f"2.5E-{limit + 1}", "1e4000000", "1e999999999",
                 "1e" + "9" * (limit + 1)):
        started = time.perf_counter()
        with pytest.raises(ValueError, match="not a rational: '"):
            parse_rational(text)
        assert time.perf_counter() - started < 0.5


def test_format_rational():
    assert format_rational(Fraction(3, 2)) == "3/2"
    assert format_rational(Fraction(4)) == "4"


def test_formats_name_the_integer_text_limit(default_int_text_limit):
    # Python's own message asks for sys.set_int_max_str_digits(), which no
    # `arena` option can reach.
    big = 10 ** 4300
    for x in (Fraction(big), Fraction(1, big), Fraction(big + 1, big)):
        for fmt in (format_rational, format_ratio):
            with pytest.raises(ValueError, match=re.escape(
                    "cannot print an integer of more than 4300 digits, "
                    "past sys.get_int_max_str_digits()")):
                fmt(x)
    assert format_ratio(Fraction(big - 1, 7)) == f"{big - 1}/7"  # 4300 digits print


def test_format_ratio_always_has_denominator():
    assert format_ratio(Fraction(1)) == "1/1"
    assert format_ratio(Fraction(-1, 2)) == "-1/2"


def test_decimal_text():
    assert decimal_text(Fraction(1, 4)) == "0.25"
    assert decimal_text(Fraction(1, 3)) == "0.333333333333"
    # Past the float range the same style, rounded exactly.
    assert decimal_text(Fraction(10) ** 400) == "1e+400"
    assert decimal_text(-Fraction(3, 2) * 10 ** 400) == "-1.5e+400"
    assert decimal_text(Fraction(2) ** 1024) == "1.79769313486e+308"
    assert decimal_text(Fraction(10 ** 5000, 3)) == "3.33333333333e+4999"


def test_decimal_text_below_the_normal_float_range():
    # A float rounds these to 0, or to a subnormal with fewer than 12 digits.
    assert decimal_text(Fraction(1, 10 ** 400)) == "1e-400"
    assert decimal_text(Fraction(-1, 10 ** 400)) == "-1e-400"
    assert decimal_text(Fraction(123456789012345, 10 ** 334)) == "1.23456789012e-320"
    assert decimal_text(Fraction(0)) == "0"
    # Just above and just below the least normal float, 2**-1022.
    tiny = Fraction(sys.float_info.min)
    assert decimal_text(tiny) == "2.22507385851e-308"
    assert decimal_text(tiny * (1 + Fraction(1, 10 ** 9))) == "2.22507386073e-308"
    assert decimal_text(tiny * (1 - Fraction(1, 10 ** 9))) == "2.22507385628e-308"
    assert decimal_text(-tiny * (1 - Fraction(1, 10 ** 9))) == "-2.22507385628e-308"
    assert decimal_text(tiny * Fraction(999, 1000)) == "2.22284878465e-308"


def test_as_fraction_conversions():
    assert as_fraction(2) == Fraction(2)
    assert as_fraction("5/3") == Fraction(5, 3)
    assert as_fraction(Fraction(1, 7)) == Fraction(1, 7)


def test_as_fraction_rejects_inexact_types():
    with pytest.raises(TypeError):
        as_fraction(0.25)
    with pytest.raises(TypeError):
        as_fraction(True)
    with pytest.raises(TypeError):
        as_fraction(None)


@given(st.fractions(max_denominator=10**6))
def test_parse_inverts_format(x):
    assert parse_rational(format_rational(x)) == x
    assert parse_rational(format_ratio(x)) == x


LIMIT = sys.get_int_max_str_digits()
# Digit runs: plain ASCII, ones mixing in digits that are not ASCII (the
# superscript two is no decimal digit; the Arabic-Indic and fullwidth ones
# are), and runs at Python's integer-string limit.
DIGIT_RUNS = st.one_of(
    st.text(alphabet="0123456789", max_size=6),
    st.text(alphabet="0123456789\u00b2\u0661\u0663\uff10 ", max_size=4),
    st.integers(LIMIT - 1, LIMIT + 1).map(lambda k: "7" * k),
)


@st.composite
def digit_texts(draw):
    """"p" or "p/q" digit text with leading zeros and surrounding whitespace."""
    def run():
        return draw(st.sampled_from(["", "0", "00"])) + draw(DIGIT_RUNS)
    text = run() + ("/" + run() if draw(st.booleans()) else "")
    pad = st.sampled_from(["", " ", "\t", "\n "])
    return draw(pad) + text + draw(pad)


@given(digit_texts())
@example("0/0")
@example("000/0")
@example("007/008")
@example(" 12/04 ")
@example("\u00b2")
@example("3/\u00b2")
@example("\u0661/\u0662")
@example("7" * LIMIT + "/1")
@example("1/" + "7" * (LIMIT + 1))
def test_parse_agrees_with_fraction_on_digit_text(text):
    # Plain "p" and "p/q" text, ASCII or not, parses to what `Fraction`
    # gives, or is rejected as `Fraction` rejects it, with the one message.
    try:
        want = Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        with pytest.raises(ValueError, match=re.escape(f"not a rational: {text!r}")):
            parse_rational(text)
    else:
        assert parse_rational(text) == want
