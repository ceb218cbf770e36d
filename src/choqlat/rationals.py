"""Coercion of user-supplied numbers to exact rationals.

The package has one number reader, :func:`_ratio`: it reads a value to an
integer pair (numerator, positive denominator) in lowest terms, so
``"0.50"`` gives (1, 2). A string is read by the standard library's parsers:
``Decimal`` without a ``/``, ``int`` on the two halves of ASCII ``p/q`` text
and ``Fraction`` on any other. A string is stripped only where that can
change its outcome, and its exponent is checked only when its text is long
enough to pass ``MAX_EXPONENT``, so ``"7/12"``, ``"0.35"`` and ``"35e-2"``
each go straight to their parser. Profile values and point coordinates stay
pairs, since their checks cross-multiply and their sums run on integers;
:func:`as_fraction` is that reader followed by one ``Fraction``, for every
value that is kept as one. Sums over many pairs
scale them to one common denominator, :func:`_common_denominator`, whose
size is bounded before it is computed.
"""

from decimal import Decimal, InvalidOperation
from fractions import Fraction
from math import gcd, lcm

from .errors import SizeLimitExceeded

# Bounds on a numeric string, checked before it is parsed: past them the
# exact value costs time and memory out of all proportion to the text
# ("1e-99999999999" asks for a hundred-billion-digit integer).
MAX_DIGITS = 1000
MAX_EXPONENT = 1000
# _ratio checks the exponent of a string without "/" only when an e/E comes
# before its last len(str(MAX_EXPONENT)) characters: an exponent text
# shorter than that cannot name a size beyond MAX_EXPONENT
_SHORT_EXPONENT = -len(str(MAX_EXPONENT))

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


def _finite(number: Decimal, value) -> tuple[int, int]:
    if not number.is_finite():
        raise ValueError(f"{_shown(repr(value))} is not a finite number")
    return number.as_integer_ratio()


def _ratio(value) -> tuple[int, int]:
    """``value`` as an exact (numerator, denominator) pair in lowest terms,
    the denominator positive: the pair of its ``Fraction``.

    Accepts what :func:`as_fraction` accepts and raises what it raises.
    A string is read without ``strip`` where that cannot change its
    outcome: ``Decimal`` drops the same surrounding whitespace, and ASCII
    ``[+-]digits/digits`` has none. It is stripped to check a length past
    ``MAX_DIGITS`` and before ``Fraction`` reads any other ``p/q`` text,
    and its exponent is checked only when its text is long enough to pass
    ``MAX_EXPONENT``.
    """
    kind = type(value)
    if kind is not str:
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
            return _finite(value if isinstance(value, Decimal) else Decimal(repr(value)), value)
        if not isinstance(value, str):
            raise TypeError(f"cannot interpret {type(value).__name__} as a rational")
    if len(value) > MAX_DIGITS and len(value.strip()) > MAX_DIGITS:
        raise ValueError(f"number longer than {MAX_DIGITS} characters: {value[:20]!r}...")
    if "/" not in value:
        if "e" in (head := value[:_SHORT_EXPONENT]) or "E" in head:
            _check_exponent(value.strip(), value)
        try:
            number = Decimal(value)
        except InvalidOperation:
            raise ValueError(f"cannot parse {_shown(repr(value))} as a rational") from None
        return _finite(number, value)
    whole, _, rest = value.partition("/")
    unsigned = whole[1:] if whole[:1] in ("+", "-") else whole
    if rest.isdigit() and value.isascii() and unsigned.isdigit():
        numerator, denominator = int(whole), int(rest)
    else:
        text = value.strip()
        if "e" in text or "E" in text:
            _check_exponent(text, value)
        try:
            numerator, denominator = Fraction(text).as_integer_ratio()
        except ZeroDivisionError:
            denominator = 0
        except ValueError:
            raise ValueError(f"cannot parse {_shown(repr(value))} as a rational") from None
    if not denominator:
        raise ValueError(f"zero denominator in {_shown(repr(value))}")
    common = gcd(numerator, denominator)
    return numerator // common, denominator // common


def _common_denominator(denominators: set[int]) -> int:
    """The least common multiple of a set of positive ``denominators``,
    refused with :class:`~choqlat.errors.SizeLimitExceeded` before it is
    computed when their bit lengths sum past ``MAX_DENOMINATOR_BITS``."""
    bits = sum(map(int.bit_length, denominators))
    if bits > MAX_DENOMINATOR_BITS:
        what = f"common denominator of up to {bits} bits"
        raise SizeLimitExceeded.over(what, MAX_DENOMINATOR_BITS)
    return lcm(*denominators)


def as_fraction(value) -> Fraction:
    """Convert ``value`` to an exact ``Fraction``.

    Accepts Fraction, int, Decimal, str ("3/10", "0.3", "3e-2") and float.
    Floats are read through their shortest decimal representation, so 0.3
    becomes exactly 3/10 rather than the nearest binary double. A value
    must be finite (a string, a float and a Decimal that is not raise the
    same "is not a finite number"), and a string at most ``MAX_DIGITS``
    characters long with an exponent of at most ``MAX_EXPONENT`` in size.
    A string without ``/`` follows the grammar of ``Decimal``; ASCII
    ``[+-]digits/digits`` is read by ``int`` and every other ``p/q`` string
    by ``Fraction``. A Fraction is returned as it is; anything else is read
    by :func:`_ratio`, strings included, and made into one ``Fraction``.
    """
    if type(value) is Fraction or isinstance(value, Fraction):
        return value
    return Fraction(*_ratio(value))
