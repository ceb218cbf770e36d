"""Exception types shared across the package.

Every error carries a stable ``code`` string so the command line layer can
surface failures in a machine-readable way.

A size budget is refused in one form, :meth:`SizeLimitExceeded.over`:
"<what was counted>, over the cap N", with ``cap`` = N in the context. Two
refusals keep older wordings, with ``cap`` in the context too: the downset
enumeration's "downset family exceeds cap N" and the CLI's "exact value has
a numerator or denominator over N digits".
"""


class ChoqlatError(Exception):
    """Base class for all validation and domain errors."""

    code = "error"

    def __init__(self, message, **context):
        super().__init__(message)
        self.context = dict(context)


# poset construction and enumeration

class DuplicateLabel(ChoqlatError):
    code = "duplicate_label"


class UnknownLabel(ChoqlatError):
    code = "unknown_label"


class CycleDetected(ChoqlatError):
    code = "cycle_detected"


class RedundantCover(ChoqlatError):
    code = "redundant_cover"


class SizeLimitExceeded(ChoqlatError):
    code = "size_limit_exceeded"

    @classmethod
    def over(cls, what: str, cap: int) -> "SizeLimitExceeded":
        """The refusal of a size budget: "``what``, over the cap ``cap``",
        with ``cap`` in the context."""
        return cls(f"{what}, over the cap {cap}", cap=cap)


# lattices in downset form

class NotAnElement(ChoqlatError):
    code = "not_an_element"


class NotALattice(ChoqlatError):
    code = "not_a_lattice"


class NotDistributive(ChoqlatError):
    code = "not_distributive"


# Moebius machinery

class NotComparable(ChoqlatError):
    code = "not_comparable"


class NotInBipolarExtension(ChoqlatError):
    code = "not_in_bipolar_extension"


# profiles and interpolation

class NotNonincreasing(ChoqlatError):
    code = "not_nonincreasing"


class ValueOutOfRange(ChoqlatError):
    code = "value_out_of_range"


class BaseMismatch(ChoqlatError):
    code = "base_mismatch"


class NegativeScore(ChoqlatError):
    code = "negative_score"


class NotZeroOne(ChoqlatError):
    code = "not_zero_one"


class NotMonotone(ChoqlatError):
    code = "not_monotone"


# bipolar structure

class NotComplemented(ChoqlatError):
    code = "not_complemented"


class SignConstraintViolated(ChoqlatError):
    code = "sign_constraint_violated"


class NotInTile(ChoqlatError):
    code = "not_in_tile"


class NotRegularMosaic(ChoqlatError):
    code = "not_regular_mosaic"


class ProfileNotInAnyTile(ChoqlatError):
    code = "profile_not_in_any_tile"


class NotNormalized(ChoqlatError):
    code = "not_normalized"


# reference levels

class InvalidDimensions(ChoqlatError):
    code = "invalid_dimensions"


class OutOfScale(ChoqlatError):
    code = "out_of_scale"


# file handling

class FileFormatError(ChoqlatError):
    code = "file_format"


class ContradictoryValue(ChoqlatError):
    code = "contradictory_value"
