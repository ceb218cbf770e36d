"""Coercion of user-supplied numbers to exact rationals."""

from decimal import Decimal, InvalidOperation
from fractions import Fraction

# Bounds on a numeric string, checked before it is parsed: past them the
# exact value costs time and memory out of all proportion to the text
# ("1e-99999999999" asks for a hundred-billion-digit integer).
MAX_DIGITS = 1000
MAX_EXPONENT = 1000


def _check_exponent(text: str, value: str) -> None:
    _, _, exponent = text.lower().partition("e")
    try:
        size = abs(int(exponent))
    except ValueError:
        return  # not a number at all; the parse rejects it
    if size > MAX_EXPONENT:
        raise ValueError(f"exponent beyond {MAX_EXPONENT} in {value!r}")


def as_fraction(value) -> Fraction:
    """Convert ``value`` to an exact ``Fraction``.

    Accepts Fraction, int, Decimal, str ("3/10", "0.3", "3e-2") and float.
    Floats are read through their shortest decimal representation, so 0.3
    becomes exactly 3/10 rather than the nearest binary double. A string
    must be finite, at most ``MAX_DIGITS`` characters long and carry an
    exponent of at most ``MAX_EXPONENT`` in size.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("booleans are not numeric values")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Decimal):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(Decimal(repr(value)))
    if isinstance(value, str):
        text = value.strip()
        if len(text) > MAX_DIGITS:
            raise ValueError(f"number longer than {MAX_DIGITS} characters: {value[:20]!r}...")
        if "e" in text or "E" in text:
            _check_exponent(text, value)
        try:
            return Fraction(text)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
        except ValueError:
            pass
        try:
            number = Decimal(text)
        except InvalidOperation:
            raise ValueError(f"cannot parse {value!r} as a rational") from None
        if not number.is_finite():
            raise ValueError(f"{value!r} is not a finite number")
        return Fraction(number)
    raise TypeError(f"cannot interpret {type(value).__name__} as a rational")
