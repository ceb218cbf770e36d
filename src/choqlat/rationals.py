"""Coercion of user-supplied numbers to exact rationals.

The package has one number grammar, :func:`_ratio`: it reads a value to an
integer pair (numerator, positive denominator). A string is read straight to
its integers, so ``"0.50"`` gives (50, 100), not reduced; Fractions, ints,
Decimals and floats give their reduced pair. Profile values and point
coordinates stay pairs, since their checks cross-multiply and their sums
run on integers; :func:`as_fraction` is that reader followed by one
``Fraction``, for every value that is kept as one. Sums over many pairs
scale them to one common denominator, :func:`_common_denominator`, whose
size is bounded before it is computed.
"""

from decimal import Decimal, InvalidOperation
from fractions import Fraction
from math import lcm

from .errors import SizeLimitExceeded

# Bounds on a numeric string, checked before it is parsed: past them the
# exact value costs time and memory out of all proportion to the text
# ("1e-99999999999" asks for a hundred-billion-digit integer).
MAX_DIGITS = 1000
MAX_EXPONENT = 1000

# Bound on the bit length of a least common denominator, checked before it
# is computed: the sum of the distinct denominators' bit lengths bounds the
# lcm's. Every term of a sum is scaled to the lcm, so its cost grows with
# that size: along a chain of 490-digit denominators (Python 3.11, one
# core), 128 of them (208,000 bits) took 0.3 s, 256 took 1.4 s and 512
# (832,000 bits) 5.4 s, on the chain path and on the Moebius form alike.
MAX_DENOMINATOR_BITS = 1 << 18


def _shown(text: str) -> str:
    """``text``, the rendering of a value, as an error message quotes it:
    whole up to 64 characters, else its first 24 characters, ``...`` and
    its length, so that no message grows with the value."""
    return text if len(text) <= 64 else f"{text[:24]}... ({len(text)} characters)"


def _check_exponent(text: str, value: str) -> None:
    _, _, exponent = text.lower().partition("e")
    try:
        # as Decimal reads it: Decimal drops every underscore ("1e_5" is
        # 1E+5), where int refuses a leading or trailing one
        size = abs(int(exponent.replace("_", "")))
    except ValueError:
        return  # not a number at all; the parse rejects it
    if size > MAX_EXPONENT:
        raise ValueError(f"exponent beyond {MAX_EXPONENT} in {_shown(repr(value))}")


def _read_plain(text: str) -> tuple[int, int] | None:
    """Integer pair of a plain number string, or None when it is not plain.

    Plain means ASCII of the form ``[+-]digits/digits`` or
    ``[+-]digits[.digits][(e|E)[+-]digits]``, with digits on at least one
    side of the point (".5" and "5." count). ``Fraction(text)`` reads each
    such string to the same value; here ``int`` reads the digits, without a
    regular expression, and the pair is the digits as written: "0.50" is
    (50, 100) and "2/4" is (2, 4). A zero denominator raises
    ``ZeroDivisionError`` as ``Fraction`` does.
    """
    if not text.isascii():
        return None
    negative = text[:1] == "-"
    body = text[1:] if negative or text[:1] == "+" else text
    whole, slash, rest = body.partition("/")
    if slash:
        if not (whole.isdigit() and rest.isdigit()):
            return None
        numerator, denominator = int(whole), int(rest)
        if not denominator:
            raise ZeroDivisionError(text)
    else:
        mantissa, e, exponent = body.lower().partition("e")
        whole, _, decimals = mantissa.partition(".")
        digits = whole + decimals
        if not digits.isdigit():
            return None
        shift = -len(decimals)
        if e:
            unsigned = exponent[1:] if exponent[:1] in ("+", "-") else exponent
            if not unsigned.isdigit():
                return None
            shift += int(exponent)
        numerator, denominator = int(digits), 1
        if shift >= 0:
            numerator *= 10**shift
        else:
            denominator = 10**-shift
    return (-numerator if negative else numerator), denominator


def _from_string(value: str) -> tuple[int, int]:
    text = value.strip()
    if len(text) > MAX_DIGITS:
        raise ValueError(f"number longer than {MAX_DIGITS} characters: {value[:20]!r}...")
    if "e" in text or "E" in text:
        _check_exponent(text, value)
    try:
        pair = _read_plain(text)
        return Fraction(text).as_integer_ratio() if pair is None else pair
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {_shown(repr(value))}") from None
    except ValueError:
        pass
    try:
        number = Decimal(text)
    except InvalidOperation:
        raise ValueError(f"cannot parse {_shown(repr(value))} as a rational") from None
    if not number.is_finite():
        raise ValueError(f"{_shown(repr(value))} is not a finite number")
    return number.as_integer_ratio()


def _ratio(value) -> tuple[int, int]:
    """``value`` as an exact (numerator, denominator) pair, the denominator
    positive.

    Accepts what :func:`as_fraction` accepts and raises what it raises. A
    plain string keeps the integers it was written with (:func:`_read_plain`),
    so the pair need not be in lowest terms; every other value gives the
    pair of its ``Fraction``.
    """
    kind = type(value)
    if kind is str:
        return _from_string(value)
    if kind is Fraction:
        return value.as_integer_ratio()
    if kind is int:
        return value, 1
    if isinstance(value, Fraction):
        return value.as_integer_ratio()
    if isinstance(value, bool):
        raise TypeError("booleans are not numeric values")
    if isinstance(value, int):
        return Fraction(value).as_integer_ratio()
    if isinstance(value, (Decimal, float)):
        number = value if isinstance(value, Decimal) else Decimal(repr(value))
        if not number.is_finite():
            raise ValueError(f"{_shown(repr(value))} is not a finite number")
        return number.as_integer_ratio()
    if isinstance(value, str):
        return _from_string(value)
    raise TypeError(f"cannot interpret {type(value).__name__} as a rational")


def _common_denominator(denominators: set[int]) -> int:
    """The least common multiple of a set of positive ``denominators``,
    refused with :class:`~choqlat.errors.SizeLimitExceeded` before it is
    computed when their bit lengths sum past ``MAX_DENOMINATOR_BITS``."""
    bits = sum(map(int.bit_length, denominators))
    if bits > MAX_DENOMINATOR_BITS:
        raise SizeLimitExceeded(
            f"common denominator of up to {bits} bits, over the cap {MAX_DENOMINATOR_BITS}",
            cap=MAX_DENOMINATOR_BITS,
        )
    return lcm(*denominators)


def as_fraction(value) -> Fraction:
    """Convert ``value`` to an exact ``Fraction``.

    Accepts Fraction, int, Decimal, str ("3/10", "0.3", "3e-2") and float.
    Floats are read through their shortest decimal representation, so 0.3
    becomes exactly 3/10 rather than the nearest binary double. A value
    must be finite (a string, a float and a Decimal that is not raise the
    same "is not a finite number"), and a string at most ``MAX_DIGITS``
    characters long with an exponent of at most ``MAX_EXPONENT`` in size.
    Plain ASCII strings (:func:`_read_plain`) are read on integers; every
    other string follows the grammar of ``Fraction``, then of ``Decimal``.
    A Fraction is returned as it is; anything else is read by
    :func:`_ratio`, strings included, and made into one ``Fraction``.
    """
    if type(value) is Fraction or isinstance(value, Fraction):
        return value
    return Fraction(*_ratio(value))
