"""Signed structure on a distributive lattice: tiles, mosaic structure,
signed profiles and capacities, and the signed natural extension.

A signed vertex pairs a positive and a negative part from the bipolar
extension (:func:`~choqlat.birkhoff.bipolar_extension`). For a complemented
element the interval below (x, complement) is a tile order-isomorphic to
the whole lattice; the vertices in some tile are read off the extension by
one filter. A :class:`Tile` is a frozen record
(:func:`~choqlat._record.frozen_record`) of the lattice and its two sides.
When every connected component of the base poset has a single bottom
element the tiles cover the entire extension (a "regular mosaic"), and
signed profiles can be evaluated by pulling them back to the unsigned
polytope through their tile: :func:`evaluate_bipolar` returns the same
:class:`~choqlat.interpolation.Evaluation` record as the unsigned
:func:`~choqlat.interpolation.evaluate`, with signed chain vertices and the
tile set. A signed profile is positional, as an unsigned one is: its pairs
by base bit position and the sort keys of their sizes, which its
``magnitude()`` keeps. The tile is read on bit masks: each connected
component's mask, kept with the base beside whether the base is a regular
mosaic, is tested against the masks of the strictly positive and strictly
negative values (:func:`select_tile`). The dual path,
:func:`bipolar_moebius_form_eval`, is the same rank-bucket sum over one
ranking of the positive and negative parts of the profile's pairs, keyed by
the pair codes of the coefficients' family.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import compress
from typing import Mapping

from ._record import frozen_record
from .birkhoff import BipolarElement, DownsetLattice, _admissible_family, _vertex_code
from .errors import (
    BaseMismatch,
    NotAnElement,
    NotComplemented,
    NotInTile,
    NotNonincreasing,
    NotRegularMosaic,
    ProfileNotInAnyTile,
    SignConstraintViolated,
)
from .interpolation import (
    Evaluation,
    Profile,
    _ProfileBody,
    _profile_values,
    _rank_form,
    choquet_classical,
    triangulate,
)
from .moebius import ValueTable, _CapacityBody, _numerators
from .poset import Poset, _component_masks, _rising_cover, is_downset
from .rationals import as_fraction


def bipolar_leq(a, b) -> bool:
    """Product order on signed elements."""
    return a[0] <= b[0] and a[1] <= b[1]


def bipolar_join_irreducibles(lattice: DownsetLattice) -> tuple[BipolarElement, ...]:
    """Join-irreducibles of the extension: the one-signed principal downsets."""
    empty = frozenset()
    out = [BipolarElement(d, empty) for d in lattice.join_irreducibles]
    out += [BipolarElement(empty, d) for d in lattice.join_irreducibles]
    return tuple(out)


def is_regular_mosaic(base: Poset) -> bool:
    """True iff every connected component of ``base`` has one minimal element.

    Exactly then is the bipolar extension the union of its tiles. Found
    once per poset, with its components
    (:func:`~choqlat.poset._component_masks`).
    """
    return _component_masks(base)[2]


@frozen_record
class Tile:
    """Interval of the bipolar extension below (x, complement of x).

    ``phi`` collapses a signed element to its unsigned join, ``phi_inverse``
    splits an unsigned element along the complement pair; the two maps are
    mutually inverse order isomorphisms between the tile and the lattice.
    """

    lattice: DownsetLattice
    positive: frozenset
    negative: frozenset

    @cached_property
    def elements(self) -> tuple[BipolarElement, ...]:
        pos_parts = [d for d in self.lattice.elements if d <= self.positive]
        neg_parts = [d for d in self.lattice.elements if d <= self.negative]
        return tuple(BipolarElement(a, b) for a in pos_parts for b in neg_parts)

    def check_pair(self, pair) -> BipolarElement:
        pos, neg = pair
        pos = self.lattice.check_element(pos)
        neg = self.lattice.check_element(neg)
        if not (pos <= self.positive and neg <= self.negative):
            raise NotInTile(
                f"({sorted(pos)!r}, {sorted(neg)!r}) is outside the tile at"
                f" {sorted(self.positive)!r}"
            )
        return BipolarElement(pos, neg)

    def phi(self, pair) -> frozenset:
        """Unsigned element matching a signed tile element (their join)."""
        pos, neg = self.check_pair(pair)
        return pos | neg

    def phi_inverse(self, element) -> BipolarElement:
        """Signed tile element matching an unsigned element."""
        member = self.lattice.check_element(element)
        return BipolarElement(member & self.positive, member & self.negative)


def tile(lattice: DownsetLattice, x) -> Tile:
    """Tile of the bipolar extension attached to a complemented element."""
    member = _complemented(lattice.base, x)
    return Tile(lattice, member, lattice.top - member)


def tile_union(lattice: DownsetLattice) -> frozenset:
    """Signed vertices lying in the tile of some complemented element: the
    admissible vertex pairs as a set."""
    return frozenset(admissible_vertex_pairs(lattice))


def psi(lattice: DownsetLattice, x, signed: Mapping[str, int]) -> BipolarElement:
    """Signed vertex (ternary map on the base) to element of the tile at x."""
    t = tile(lattice, x)
    base = lattice.base
    if set(signed) != set(base.elements):
        raise BaseMismatch("signed map must cover the base poset exactly")
    for label, value in signed.items():
        if value not in (-1, 0, 1):
            raise SignConstraintViolated(
                f"value {value!r} at {label!r} is not in {{-1, 0, 1}}", label=label
            )
        if value < 0 and label in t.positive:
            raise SignConstraintViolated(
                f"negative value on the positive side at {label!r}", label=label
            )
        if value > 0 and label in t.negative:
            raise SignConstraintViolated(
                f"positive value on the negative side at {label!r}", label=label
            )
    if rise := _rising_cover(base, [abs(signed[label]) for label in base._topo]):
        lower, upper = rise
        raise NotNonincreasing(
            f"|values| increase along {lower!r} < {upper!r}", lower=lower, upper=upper
        )
    pos = frozenset(label for label, value in signed.items() if value == 1)
    neg = frozenset(label for label, value in signed.items() if value == -1)
    return BipolarElement(pos, neg)


def psi_inverse(lattice: DownsetLattice, x, pair) -> dict[str, int]:
    """Element of the tile at x back to its signed vertex."""
    t = tile(lattice, x)
    pos, neg = t.check_pair(pair)
    return {
        label: (1 if label in pos else -1 if label in neg else 0)
        for label in lattice.base.elements
    }


class BipolarProfile(_ProfileBody):
    """Signed map on the base poset: values in [-1, 1], sizes nonincreasing.

    Kept as :class:`~choqlat.interpolation.Profile` keeps its values: checked
    (numerator, denominator) pairs by base bit position, their sizes, which
    :meth:`magnitude` hands on as they are, and the sort keys of the sizes,
    with the reduced ``values`` built on first read.
    """

    def __init__(self, base: Poset, values: Mapping[str, object]):
        checked = _profile_values(base, values, signed=True)
        self.base, (self._pairs, self._keys, self._sizes) = base, checked

    def magnitude(self) -> Profile:
        # the held sizes of checked signed values pass the unsigned checks
        # as they are, with the keys already held
        return Profile._from_checked(self.base, self._sizes, self._keys, self._sizes)


def admissible_vertex_pairs(
    lattice: DownsetLattice,
) -> tuple[BipolarElement, ...]:
    """Signed vertices lying in some tile: disjoint downset pairs whose
    supports touch disjoint sets of connected components.

    For a regular mosaic this is the whole bipolar extension; otherwise it
    is a strict subset (elements like two minimal points of one component on
    opposite signs belong to no tile). Computed once per lattice.
    """
    return lattice.derived(_admissible_family).vertices


class BipolarCapacity(_CapacityBody):
    """Rational values on every signed vertex that lies in some tile.

    One value per vertex globally: overlapping tiles share vertices by
    construction, so tile-consistency cannot be violated. Values on
    non-tile elements of a non-mosaic extension are deliberately not
    representable. As for :class:`~choqlat.moebius.GeneralizedCapacity`,
    ``values`` is the one :class:`~choqlat.moebius.ValueTable` of
    :func:`~choqlat.moebius.vertex_table`: the numerators by position among
    :func:`admissible_vertex_pairs` over one denominator.
    """

    def __init__(self, lattice: DownsetLattice, values: Mapping):
        self._hold(lattice.derived(_admissible_family), values, "signed vertices in a tile")
        self.base = lattice.base

    def __call__(self, pair) -> Fraction:
        pos, neg = pair
        key = BipolarElement(frozenset(pos), frozenset(neg))
        try:
            return self.values[key]
        except KeyError:
            pos, neg = (sorted(part, key=str) for part in key)
            raise NotAnElement(f"({pos!r}, {neg!r}) is not a stored vertex") from None

    def __repr__(self) -> str:
        return f"BipolarCapacity(on {len(self.values)} signed vertices)"

    def check_normalized(self) -> bool:
        """Optional normalization: 1 at (top, bottom) and -1 at (bottom, top)."""
        numerators, denominator = self.values._integers
        # the top's code split along the tile of the whole base, then of none
        top = (1 << len(self.base)) - 1
        (plus,), (minus,) = (self._family.chain([top], side) for side in (top, 0))
        return numerators[plus] == denominator and numerators[minus] == -denominator


def select_tile(profile: BipolarProfile) -> frozenset:
    """Positive side of a tile containing the signed profile.

    A connected component goes to the positive side exactly when it carries
    no strictly negative value (so all-zero components count as positive);
    a component carrying both strict signs lies in no tile. Each
    component's bit code (:func:`~choqlat.poset._component_masks`) is
    tested against the codes of the strictly positive and the strictly
    negative values.
    """
    parts, masks, plus, minus = _signed_masks(profile)
    for mask, part in zip(masks, parts):
        if mask & minus and mask & plus:
            shown = sorted(part.members)
            raise ProfileNotInAnyTile(f"component {shown!r} carries both signs", component=shown)
    return frozenset().union(*[part.members for m, part in zip(masks, parts) if not m & minus])


def _signed_masks(profile: BipolarProfile) -> tuple:
    """The base's components and their bit codes, and the bit codes of the
    strictly positive and the strictly negative values, on a regular mosaic
    base."""
    base = profile.base
    parts, masks, regular = _component_masks(base)
    if not regular:
        raise NotRegularMosaic("signed evaluation needs a regular mosaic base")
    numerators = [n for n, _ in profile._pairs]
    minus = sum(compress(base._bit.values(), map((0).__gt__, numerators)))
    plus = sum(compress(base._bit.values(), numerators)) - minus
    return parts, masks, plus, minus


def _complemented(base: Poset, x) -> frozenset:
    """``x`` as a downset whose complement in ``base`` is a downset too."""
    member = frozenset(x)
    if not (is_downset(base, member) and is_downset(base, set(base.elements) - member)):
        shown = sorted(member)
        raise NotComplemented(f"{shown!r} is not a complemented element", element=shown)
    return member


def _checked_tile(profile: BipolarProfile, x) -> frozenset:
    """``x`` as the positive side of a tile containing the profile: its
    code must hold every strictly positive value and no strictly negative
    one, and the first failing label in label order names the fault."""
    _, _, plus, minus = _signed_masks(profile)
    bits = profile.base._bit
    member = _complemented(profile.base, x)
    code = sum(map(bits.__getitem__, member))
    if wrong := plus & ~code | minus & code:
        label = min(label for label, bit in bits.items() if bit & wrong)
        if bits[label] & plus:
            raise NotInTile(f"strictly positive value at {label!r} outside the tile")
        raise NotInTile(f"strictly negative value at {label!r} inside the tile")
    return member


def evaluate_bipolar(
    capacity: BipolarCapacity, profile: BipolarProfile, tile_hint=None
) -> Evaluation:
    """Signed natural extension with its full decomposition.

    The profile is pulled back to the unsigned polytope through its tile:
    triangulate the magnitude profile, split every chain vertex along the
    complement pair, and take the convex combination of stored vertex
    values, bottom vertex included. Each vertex's bit code is split by the
    tile's code and looked up among the admissible pairs, and the sum runs
    on the capacity's integer numerators: the capacity's one chain sum, as
    for an unsigned chain (:meth:`~choqlat.interpolation.Evaluation.along`).
    The result's ``chain`` holds the split vertices, built when first read,
    and its ``tile`` the positive side. ``tile_hint`` forces a particular
    tile (it must contain the profile); the value does not depend on the
    admissible choice.
    """
    if capacity.base != profile.base:
        raise BaseMismatch("capacity and profile are over different base posets")
    positive = select_tile(profile) if tile_hint is None else _checked_tile(profile, tile_hint)
    return Evaluation.along(capacity, triangulate(profile.magnitude()), positive)


def bipolar_natural_extension(
    capacity: BipolarCapacity, profile: BipolarProfile, tile_hint=None
) -> Fraction:
    """Value of the signed natural extension (see :func:`evaluate_bipolar`)."""
    return evaluate_bipolar(capacity, profile, tile_hint).value


def bicapacity_choquet(values, scores: Mapping[str, object]) -> Fraction:
    """Signed Choquet integral on a plain index set.

    ``values`` maps pairs of disjoint frozensets of the score keys to
    numbers (a :class:`BipolarCapacity` over an antichain base works too).
    The keys split by score sign (zero counts as positive), the induced
    one-sided game reads the pair table along that split, and |scores| is
    integrated classically against it.
    """
    table = values.values if isinstance(values, BipolarCapacity) else values
    parsed = {label: as_fraction(raw) for label, raw in scores.items()}
    plus = frozenset(label for label, value in parsed.items() if value >= 0)
    minus = frozenset(parsed) - plus

    def induced(subset: frozenset) -> Fraction:
        key = (subset & plus, subset & minus)
        try:
            return table[key]
        except KeyError:
            raise NotAnElement(
                f"pair table not defined at {tuple(sorted(part, key=str) for part in key)!r}"
            ) from None

    return choquet_classical(induced, {label: abs(v) for label, v in parsed.items()})


def bipolar_moebius_form_eval(
    coefficients: Mapping, profile: BipolarProfile
) -> Fraction:
    """Evaluate the signed extension from Moebius coefficients on the
    bipolar extension.

    Each signed element contributes its coefficient times the joint minimum
    of the positive part of the profile over its positive side and of the
    negative part over its negative side; empty sides contribute the
    empty-meet value 1. The minima come from one ranking of the 2n values
    max(f, 0) and max(-f, 0), split from the profile's (numerator,
    denominator) pairs by bit position, and the sum runs on integer
    numerators by rank bucket, as in :func:`~choqlat.interpolation.moebius_form_eval`. Each
    key is the pair code code(neg) << n | code(pos): the positive parts
    take the low n bits and the negative parts the high ones, both read in
    the key base's bit order. A :class:`~choqlat.moebius.ValueTable` (a
    transform's output) is read as its numerators by position, keyed by
    its family's codes on its own base, so no label view is built; a table
    on lattice elements is refused. Any other mapping is read value by
    value to numerators over one denominator, its label keys coded on the
    profile base's bits. Only the nonzero numerators enter the sum. Equals
    ``bipolar_natural_extension`` when the coefficients are the bipolar
    Moebius transform of the capacity.
    """
    # a label missing from the profile, in a key or in the table's base
    try:
        if isinstance(coefficients, ValueTable):
            family = coefficients._family
            if not family.signed:
                raise BaseMismatch("coefficients are on lattice elements, not signed pairs")
            numerators, denominator = coefficients._integers
            base, codes = family.lattice.base, family.order
        else:
            numerators, denominator = _numerators(coefficients.values())
            base = profile.base
            codes = [_vertex_code(base, (pos, neg)) for pos, neg in coefficients]
        parts = profile._pairs
        if base._topo != profile.base._topo:  # the profile read in the key base's bit order
            parts = list(map(dict(zip(profile.base._topo, parts)).__getitem__, base._topo))
    except KeyError:
        raise BaseMismatch("coefficient keys mention labels outside the base") from None
    zero = (0, 1)
    plus = [pair if pair[0] > 0 else zero for pair in parts]
    minus = [(-n, d) if n < 0 else zero for n, d in parts]
    return _rank_form(plus + minus, numerators, codes, denominator)


def embed_profile(profile: Profile, x) -> BipolarProfile:
    """Signed copy of an unsigned profile whose tile is ``x``: values keep
    their size and take the sign of the side of the complement pair."""
    member = _complemented(profile.base, x)
    signed = {
        label: (value if label in member else -value)
        for label, value in profile.values.items()
    }
    return BipolarProfile(profile.base, signed)
