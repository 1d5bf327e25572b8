"""Exact rational arithmetic helpers shared by the whole package.

Every quantity at the package's API (values, costs, bids, multipliers,
payments, welfare) is a `fractions.Fraction`; inside, `Instance.columns`, the
`Market`, the auction kernel and the best-response sweep run on ints scaled
by exact common denominators. Floats are rejected at the boundary so a binary
rounding error can never masquerade as a tie-break.
"""

from __future__ import annotations

import sys
from decimal import MAX_EMAX, MIN_EMIN, Context
from fractions import Fraction


def as_fraction(x: int | str | Fraction) -> Fraction:
    """Convert exact input to Fraction. Floats are rejected on purpose."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise TypeError("bool is not a rational")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return parse_rational(x)
    raise TypeError(f"exact rational required, got {type(x).__name__}: {x!r}")


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or finite decimal text ("3/2", "0.25", "2", "1e-3") exactly.

    `Fraction` builds 10**exponent in full, so a decimal exponent larger in
    magnitude than `sys.get_int_max_str_digits()`, the bound Python already
    puts on the integers of "p/q" text, is rejected before it is built.
    """
    try:
        _, marker, exponent = text.lower().rpartition("e")
        limit = sys.get_int_max_str_digits()
        if marker and limit and abs(int(exponent)) > limit:
            raise ValueError(f"decimal exponent beyond {limit} digits")
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational: {text!r}") from exc


def _past_text_limit() -> ValueError:
    """The error for printing an int past a nonzero `sys.get_int_max_str_digits()`."""
    return ValueError(f"cannot print an integer of more than {sys.get_int_max_str_digits()} "
                      "digits, past sys.get_int_max_str_digits()")


def format_rational(x: Fraction) -> str:
    """Canonical text for instance files: "p/q", or bare "p" for integers."""
    try:
        return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    except ValueError:
        raise _past_text_limit() from None


def format_ratio(x: Fraction) -> str:
    """Text for reports: always "p/q", so consumers never guess the form."""
    try:
        return f"{x.numerator}/{x.denominator}"
    except ValueError:
        raise _past_text_limit() from None


def decimal_text(x: Fraction) -> str:
    """12-significant-digit decimal for plotting tools; never used internally.
    Outside the normal float range it is rounded exactly (1e+400, 1e-400)."""
    log2 = x.numerator.bit_length() - x.denominator.bit_length()  # log2 |x|, give or take 1
    if sys.float_info.min_exp <= log2 < sys.float_info.max_exp - 1 or not x:
        return f"{float(x):.12g}"
    exact = Context(prec=12, Emax=MAX_EMAX, Emin=MIN_EMIN).divide(x.numerator, x.denominator)
    return f"{exact.normalize():.12g}"
