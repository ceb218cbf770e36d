"""Profiles on a base poset and the piecewise-linear extension of vertex
functionals along the natural triangulation.

A profile is a nonincreasing map from the base poset into [0, 1]: a point of
the polytope whose vertices are indicators of downsets. Sorting the profile
values decreasingly picks a maximal chain of downsets whose simplex contains
the profile, and the extension of a vertex functional is the matching convex
combination of its vertex values. On an antichain base this is the classical
Choquet integral; the bottom vertex is always kept in the combination so
functionals that do not vanish at the empty set evaluate correctly.

Profiles are positional. Their values are read once, straight to
(numerator, denominator) pairs in lowest terms
(:func:`~choqlat.rationals._ratio`), and a profile keeps them as one list
by base bit position (the base's linear extension), with the exact integer
sort key of each value's size (:func:`_sort_keys`), computed once. The
checks compare keys, and read the covers in one fixed order held with the
base, so a rise names the smallest failing cover
(:func:`~choqlat.poset._rising_cover`). ``values``, the ``Fraction``s by
label, is built only when read.

The chain path runs on lattice positions and integers. :func:`triangulate`
sorts the base positions by the profile's keys and records each chain
vertex as a bit code of the base's elements, and the sorted profile pairs
whose gaps are the weights. A capacity's vertex family
looks the codes up as positions, split along a tile for a signed chain
(:meth:`~choqlat.birkhoff._Family.chain`), and the capacity's one chain sum
(:meth:`~choqlat.moebius._CapacityBody._chain_value`) adds each level times
the value's integer step there and makes one ``Fraction``, over a common
denominator of only the levels where the value steps. That pair serves
:meth:`Evaluation.along`, which builds every chain-path :class:`Evaluation`,
unsigned (:func:`evaluate`) or signed (the extension pulled back through a
tile), and the grid corner sweep of :mod:`~choqlat.kary`. An evaluation's
chain and ``Fraction`` weights are built only when read, by the one
build-on-read mechanism both records share. Both are frozen records
(:func:`~choqlat._record.frozen_record`), equal, hashed and shown by their
fields.

The dual path, :func:`moebius_form_eval`, reads only the Moebius
coefficients and the profile's pairs, never its keys: C(f) = sum of
m(X) * min over X of f. It ranks the profile pairs once by bit position,
adds each nonzero coefficient's integer numerator to the bucket of the
smallest rank among the bits of its key, the vertex's bit code, and ends
with one product per nonempty bucket, over a common denominator of only
the values at those ranks. No label set is read or built.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, starmap
from typing import Mapping, Sequence

from .errors import (
    BaseMismatch,
    NegativeScore,
    NotAnElement,
    NotMonotone,
    NotNonincreasing,
    NotZeroOne,
    ValueOutOfRange,
)
from ._record import frozen_record
from .birkhoff import BipolarElement
from .moebius import GeneralizedCapacity
from .poset import Poset, _rising_cover
from .rationals import _common_denominator, _ratio, _shown, as_fraction

ZERO = Fraction(0)
ONE = Fraction(1)
# a profile's lowest value and the words of its errors, unsigned and signed
_TERMS = ((0, "profile value", "profile increases"), (-1, "signed value", "|values| increase"))
_denominator = operator.itemgetter(1)

def _profile_values(
    base: Poset, values: Mapping[str, object], signed: bool = False, read: list | None = None
) -> tuple[list[tuple[int, int]], list[int], list[tuple[int, int]]]:
    """The values of a profile on ``base`` as (numerator, positive
    denominator) pairs in a list by base bit position, the sort keys of
    their sizes (:func:`_sort_keys`) and the sizes, once they pass the
    profile's checks. An unsigned profile's sizes are its pairs.

    ``values`` maps labels to numbers, each read by
    :func:`~choqlat.rationals._ratio`; a file reader that has read them
    passes their pairs, in the same order, as ``read``. Labels given in bit
    order (the base's linear extension: on a grid of k <= 10 levels, label
    order, for any n) need no reordering. Unsigned profiles take values in
    [0, 1] and are nonincreasing; signed ones take values in [-1, 1] and
    their sizes are nonincreasing. Both checks compare the sizes' keys,
    which order as their values: a value is out of range when its key is
    negative or when the value of the largest key is above 1. A value out of
    range is named in the order of ``values``; a rise along a cover names
    the smallest such cover (:func:`~choqlat.poset._rising_cover`).
    """
    labels = values.keys()
    if read is None:
        read = list(map(_ratio, values.values()))
    if tuple(labels) == base._topo:
        pairs = read
    else:
        parsed = dict(zip(labels, read))
        # key views compare as sets; the sets are built only to report a mismatch
        if parsed.keys() != base._bit.keys():
            raise BaseMismatch(
                "profile labels must cover the base poset exactly",
                missing=sorted(set(base.elements) - set(parsed)),
                extra=sorted(set(parsed) - set(base.elements)),
            )
        pairs = list(map(parsed.__getitem__, base._topo))
    sizes = [(abs(n), d) for n, d in pairs] if signed else pairs
    keys = _sort_keys(sizes)
    low, kind, rising = _TERMS[signed]
    # keys order as their values: the largest value is above 1 when any is
    if keys and (min(keys) < 0 or operator.gt(*sizes[keys.index(max(keys))])):
        for label, (n, d) in zip(labels, read):
            if not low * d <= n <= d:
                raise ValueOutOfRange(
                    f"{kind} {_shown(str(Fraction(n, d)))} at {label!r} is outside [{low}, 1]",
                    label=label,
                )
    if rise := _rising_cover(base, keys):
        lower, upper = rise
        raise NotNonincreasing(f"{rising} along {lower!r} < {upper!r}", lower=lower, upper=upper)
    return pairs, keys, sizes


class _ProfileBody:
    """What both profile kinds hold: the checked values as ``_pairs``, one
    (numerator, denominator) pair in lowest terms by base bit position
    (the base's linear extension), ``_sizes``, their sizes by the same
    positions (the pairs themselves when unsigned), and ``_keys``, the
    exact sort keys of the sizes; the evaluations read those.
    ``values``, the ``Fraction``s by label in base order, is built on first
    read. Each kind's own
    ``__init__`` checks its values."""

    @classmethod
    def _from_checked(cls, base: Poset, pairs: list[tuple[int, int]], keys: list[int], sizes: list):
        """A profile of ``pairs`` by position that already pass every check
        of its kind, with the sort keys of their sizes and the sizes."""
        profile = cls.__new__(cls)
        profile.base, profile._pairs, profile._keys, profile._sizes = base, pairs, keys, sizes
        return profile

    @cached_property
    def values(self) -> dict[str, Fraction]:
        # base order is label order
        return dict(sorted(zip(self.base._topo, starmap(Fraction, self._pairs))))

    def __call__(self, label: str) -> Fraction:
        return self.values[label]

    def __repr__(self) -> str:
        return f"{type(self).__name__}(on {len(self._pairs)} elements)"


class Profile(_ProfileBody):
    """Nonincreasing map from the base poset into [0, 1]."""

    def __init__(self, base: Poset, values: Mapping[str, object]):
        self.base, (self._pairs, self._keys, self._sizes) = base, _profile_values(base, values)


class _BuiltOnRead:
    """A frozen record whose fast path fills only some fields: :meth:`_made`
    makes it from the fields it has, and a field read before it is built
    comes from the record's ``_build_<field>`` method, once."""

    @classmethod
    def _made(cls, **fields):
        record = cls.__new__(cls)
        record.__dict__.update(fields)
        return record

    def __getattr__(self, name: str):
        # reached only for a name the record does not hold (yet)
        build = getattr(type(self), f"_build_{name}", None)
        if build is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        made = self.__dict__[name] = build(self)
        return made


@frozen_record
class ChainDecomposition(_BuiltOnRead):
    """A profile written as a convex combination of chained downset vertices.

    ``chain[0]`` is the empty set and ``chain[i]`` adds ``order[i-1]``;
    ``weights`` are the simplex coordinates (nonnegative, summing to one),
    with ``weights[0]`` attached to the bottom vertex.

    :func:`triangulate` makes the record by position: the sorted base
    positions (``_ranked``), each vertex as a mask of the base's element
    bits (``_masks``), and the sorted profile values as (numerator,
    denominator) pairs (``_levels``) in place of the weights. Its
    ``order``, ``chain`` and ``weights`` are built on first read.
    """

    base: Poset
    order: tuple[str, ...]
    chain: tuple[frozenset, ...]
    weights: tuple[Fraction, ...]

    def _build_order(self) -> tuple[str, ...]:
        return tuple(map(self.base._topo.__getitem__, self._ranked))

    def _build_chain(self) -> tuple[frozenset, ...]:
        return tuple(frozenset(self.order[:i]) for i in range(len(self.order) + 1))

    def _build_weights(self) -> tuple[Fraction, ...]:
        levels = [Fraction(n, d) for n, d in self._levels]
        return tuple(map(operator.sub, [ONE, *levels], [*levels, ZERO]))

    def reconstruct(self) -> dict[str, Fraction]:
        """Profile values implied by the decomposition (exact)."""
        out = {label: ZERO for label in self.base.elements}
        for vertex, weight in zip(self.chain, self.weights):
            for label in vertex:
                out[label] += weight
        return out


def _sort_keys(values: Sequence[tuple[int, int]]) -> list[int]:
    """An integer per value, given as (numerator, positive denominator)
    pairs, in lowest terms or not, that orders the values exactly, by the
    values' positions.

    The key is the value scaled by 2**shift and rounded down, where
    ``shift`` is twice the bit length of the largest denominator. Two
    distinct values with denominators below 2**b differ by at least
    1/(their denominators' product) > 2**-2b, so their keys differ in the
    same direction; equal values get equal keys. Each key costs one shift
    and one division on the value's own numerator and denominator.
    """
    shift = 2 * max(values, key=_denominator, default=(0, 1))[1].bit_length()
    return [(n << shift) // d for n, d in values]


def triangulate(profile: Profile, tie_break: Sequence[str] | None = None) -> ChainDecomposition:
    """Chain-of-downsets decomposition of a profile.

    Elements are sorted by decreasing value; ties fall back to ``tie_break``
    (any linear extension of the base poset, the deterministic one by
    default). The extension value computed from the result never depends on
    the tie order, only the reported chain does. The sort runs on base
    positions by the profile's exact integer keys (:func:`_sort_keys`),
    stable in ``tie_break`` order. The record is positional: each chain
    vertex is the running OR of the sorted positions' bits, and the sorted
    values stand for the weights, the gaps between consecutive values of 1,
    the sorted values and 0, which a capacity's chain sum takes as
    integers. The values are the profile's (numerator, denominator) pairs,
    never a ``Fraction``; the labels, frozensets and ``Fraction`` weights
    are made only when read.
    """
    base = profile.base
    if tie_break is None:
        # the positions follow the cached linear extension, which refines the order
        positions = range(len(base._topo))
    else:
        ranks = {label: i for i, label in enumerate(tie_break)}
        if ranks.keys() != base._bit.keys() or len(tie_break) != len(base.elements):
            raise BaseMismatch("tie_break must enumerate the base poset exactly")
        if rise := _rising_cover(base, [-ranks[label] for label in base._topo]):
            raise NotNonincreasing(
                f"tie_break does not refine the base order at {rise[0]!r} < {rise[1]!r}"
            )
        positions = [base._bit[label].bit_length() - 1 for label in tie_break]
    # a stable sort keeps tied positions in tie_break order, reverse=True included
    ranked = sorted(positions, key=profile._keys.__getitem__, reverse=True)
    masks = list(accumulate(map((1).__lshift__, ranked), operator.or_, initial=0))
    levels = list(map(profile._pairs.__getitem__, ranked))
    return ChainDecomposition._made(base=base, _ranked=ranked, _masks=masks, _levels=levels)


@frozen_record
class Evaluation(_BuiltOnRead):
    """Value of an extension together with the chain that produced it.

    ``chain[i]`` is the vertex reached after ``order[:i]`` (the bottom
    vertex first) and carries ``weights[i]``. In the signed case the
    vertices are :class:`~choqlat.bipolar.BipolarElement` pairs and ``tile``
    is the positive side of the tile the profile was pulled back through;
    unsigned evaluations have ``tile=None``.

    :meth:`along` computes only the value; the record's ``chain`` and
    ``weights`` come from its decomposition on first read, the chain split
    along the tile when signed.
    """

    value: Fraction
    order: tuple[str, ...]
    chain: tuple
    weights: tuple[Fraction, ...]
    tile: frozenset | None = None

    @classmethod
    def along(cls, capacity, dec: ChainDecomposition, tile: frozenset | None = None) -> "Evaluation":
        """The extension of ``capacity``, either capacity kind, at the
        profile that :func:`triangulate` decomposed into ``dec``, pulled
        back through ``tile`` (the positive side of a tile) when given: the
        capacity's one chain sum
        (:meth:`~choqlat.moebius._CapacityBody._chain_value`) over the chain
        vertices' bit codes, split along the tile's code."""
        positive = None if tile is None else sum(map(dec.base._bit.__getitem__, tile))
        value = capacity._chain_value(dec._masks, dec._levels, positive)
        return cls._made(value=value, tile=tile, _dec=dec)

    def _build_order(self) -> tuple[str, ...]:
        return self._dec.order

    def _build_weights(self) -> tuple[Fraction, ...]:
        return self._dec.weights

    def _build_chain(self) -> tuple:
        if self.tile is None:
            return self._dec.chain
        return tuple(BipolarElement(v & self.tile, v - self.tile) for v in self._dec.chain)


def evaluate(functional: GeneralizedCapacity, profile: Profile) -> Evaluation:
    """Natural extension of a vertex functional at ``profile``, with its
    triangulating chain and weights (see :func:`natural_extension`)."""
    if functional.lattice.base != profile.base:
        raise BaseMismatch("capacity and profile are over different base posets")
    return Evaluation.along(functional, triangulate(profile))


def natural_extension(functional: GeneralizedCapacity, profile: Profile) -> Fraction:
    """Piecewise-linear interpolation of a vertex functional at ``profile``.

    The convex combination of vertex values along the triangulating chain,
    bottom vertex included. Agrees with the functional on indicator
    profiles, and reduces to the classical Choquet integral of a game on an
    antichain base.
    """
    return evaluate(functional, profile).value


def _capacity_value(capacity, subset: frozenset) -> Fraction:
    if callable(capacity):
        return as_fraction(capacity(subset))
    try:
        return as_fraction(capacity[subset])
    except KeyError:
        raise NotAnElement(f"capacity not defined on {sorted(subset, key=str)!r}") from None


def choquet_classical(capacity, scores: Mapping[str, object]) -> Fraction:
    """Classical Choquet integral of nonnegative scores against a set function.

    ``capacity`` maps frozensets of score keys to numbers (mapping or
    callable); only the sets along the sorted chain are read, tied scores
    in the order of their keys' text (the integral does not depend on it),
    so keys of mixed types sort too. Scores may exceed 1: the formula is
    positively homogeneous.
    """
    parsed = {label: as_fraction(raw) for label, raw in scores.items()}
    for label, value in parsed.items():
        if value < 0:
            raise NegativeScore(
                f"score {_shown(str(value))} at {label!r} is negative", label=label
            )
    order = sorted(parsed, key=lambda label: (-parsed[label], str(label)))
    total = ZERO
    prefix: set = set()
    for i, label in enumerate(order):
        prefix.add(label)
        nxt = parsed[order[i + 1]] if i + 1 < len(order) else ZERO
        step = parsed[label] - nxt
        if step:
            total += step * _capacity_value(capacity, frozenset(prefix))
    return total


def zero_one_maxmin(functional: GeneralizedCapacity, profile: Profile) -> Fraction:
    """Max-min form of the extension for 0-1 valued nondecreasing functionals.

    Takes, over the downsets where the functional equals one, the minimum
    profile value inside each, and returns the largest such minimum. The
    empty downset contributes the empty-meet value 1; if the functional is
    identically zero the result is 0. Always equals ``natural_extension``.
    """
    if functional.lattice.base != profile.base:
        raise BaseMismatch("functional and profile are over different base posets")
    for element, value in functional.values.items():
        if value not in (0, 1):
            raise NotZeroOne(f"value {_shown(str(value))} at {sorted(element)!r} is not 0 or 1")
    if not functional.is_monotone:
        raise NotMonotone("functional is not nondecreasing")
    best = ZERO
    for element, value in functional.values.items():
        if value == 1:
            inner = min((profile.values[j] for j in element), default=ONE)
            if inner > best:
                best = inner
    return best


def _rank_form(
    values: Sequence[tuple[int, int]], numerators: list[int], codes: Sequence[int], denominator: int
) -> Fraction:
    """Sum over coefficients of the numerator times the minimum value over
    its key.

    ``values`` holds (numerator, positive denominator) pairs by bit
    position; ``numerators[k]`` is an integer numerator over
    ``denominator`` whose key is the bit mask ``codes[k]``. The values are
    ranked in one stable sort on exact integer keys (:func:`_sort_keys`),
    so the minimum over a key is the value at the smallest rank among its
    bits, or the empty meet 1 (rank n, past the last value) for the empty
    key: the first "1" among the key's binary digits read in rank order,
    with a sentinel digit read last for rank n. Each nonzero numerator adds
    to the bucket of that rank; the sum then takes one product per nonempty
    bucket, on integers over the least common denominator of the values at
    those ranks alone (a value whose bucket sums to 0 is never read),
    bounded before it is computed
    (:func:`~choqlat.rationals._common_denominator`).
    """
    n = len(values)
    ranked = sorted(range(n), key=_sort_keys(values).__getitem__)
    # bin(code | sentinel) is "0b", the sentinel at index 2, then bit i at index 2 + n - i
    digits, sentinel = operator.itemgetter(*[2 + n - i for i in ranked], 2), 1 << n
    buckets = [0] * (n + 1)
    for num, code in zip(numerators, codes):
        if num:
            buckets[digits(bin(code | sentinel)).index("1")] += num
    read = [(values[i], bucket) for i, bucket in zip(ranked, buckets) if bucket]
    scale = _common_denominator({q for (_, q), _ in read})
    total = buckets[n] * scale + sum(bucket * p * (scale // q) for (p, q), bucket in read)
    return Fraction(total, scale * denominator)


def moebius_form_eval(coefficients: GeneralizedCapacity, profile: Profile) -> Fraction:
    """Evaluate the extension from Moebius coefficients.

    Each lattice element contributes its coefficient times the minimum
    profile value over its decomposition; the bottom element contributes
    the bare coefficient (empty meet is 1). The coefficients are read as
    integer numerators by position, each keyed by its vertex's bit code
    (``_family.order``), the profile values by bit position (its base's
    linear extension), and the sum runs by rank bucket (:func:`_rank_form`):
    no label set is read or built. Equals ``natural_extension`` of the zeta
    transform. Coefficients on signed pairs are refused.
    """
    if coefficients.lattice.base != profile.base:
        raise BaseMismatch("coefficients and profile are over different base posets")
    if coefficients._family.signed:
        raise BaseMismatch("coefficients are on signed pairs, not lattice elements")
    numerators, denominator = coefficients.values._integers
    # equal bases hold their elements at equal bit positions
    return _rank_form(profile._pairs, numerators, coefficients._family.order, denominator)
