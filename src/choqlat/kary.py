"""Products of chains as base structure: multi-level capacities, level
indexing against a numeric reference scale, and closed interpolation
formulas for scoring points of the score space.

The base poset for k levels and n criteria is a disjoint union of n chains
with k-1 elements each; a point of the k^n grid corresponds to the downset
of levels it dominates. A score vector is located inside a mesh cell, split
into per-criterion level indices and residues, and scored by interpolating
the capacity at the surrounding mesh nodes. The sorted-residue sweep over
mesh corners and the generic natural extension of the point's staircase
profile give the same number, so each checks the other: they find the
order, the levels and the vertex codes independently and share only the
capacity's one chain sum over its ``values``
(:meth:`~choqlat.moebius._CapacityBody._chain_value`); the signed variants
mirror the construction on a symmetric scale around 0. The sweep reads one
table per lattice, :func:`_grid`, kept with the lattice: each criterion's
prefix codes, the bit codes of its levels 1..l, from which every corner
and every signed tile is a sum or an OR, with no label built per point.
The same table is the one rule from a grid node to its vertex: a grid
file's node is read as the sum of its criteria's prefix codes
(:mod:`~choqlat.fileio`), after the one range check, :func:`_levels`, that
:func:`node_to_downset` shares.
A scale keeps its levels' (numerator, denominator) pairs, and a located
point its residues as pairs, turned into ``Fraction``s only when read. The
staircase is built by one function for both signs, :func:`_staircase`,
which hands its pairs, in lowest terms, to the profile through its check.
:func:`grid_steps` reads an :class:`~choqlat.interpolation.Evaluation` on
a grid base as levels, criteria and grid points.
:class:`ReferenceScale` and :class:`LevelIndexing` are frozen records
(:func:`~choqlat._record.frozen_record`). The scale has a constructor of
its own, which checks its levels; a located point's indexing, made once per
scored point, holds its indices, residue pairs and sorted criteria, and
builds ``residues`` on read.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from itertools import accumulate
from math import gcd
from typing import NamedTuple, Sequence

from ._record import frozen_record
from .bipolar import BipolarCapacity, BipolarProfile
from .errors import InvalidDimensions, OutOfScale
from .interpolation import Evaluation, Profile, _BuiltOnRead, _profile_values, _sort_keys
from .moebius import GeneralizedCapacity
from .poset import Poset
from .rationals import _ratio, _shown, as_fraction


def level_label(criterion: int, level: int) -> str:
    """Label of the join-irreducible "criterion reaches at least level"."""
    return f"c{criterion}l{level}"


def label_parts(label: str) -> tuple[int, int]:
    """(criterion, level) encoded in a base label."""
    criterion, sep, level = label[1:].partition("l")
    # ASCII first: str.isdigit also accepts digits such as "²" and "١"
    if (
        not label.isascii()
        or label[:1] != "c"
        or not sep
        or not criterion.isdigit()
        or not level.isdigit()
    ):
        raise InvalidDimensions(f"label {label!r} does not encode a grid level")
    return int(criterion), int(level)


def build_kary_base(k: int, n: int) -> Poset:
    """Disjoint union of n chains with k-1 levels each."""
    if k < 2 or n < 1:
        raise InvalidDimensions(f"need k >= 2 and n >= 1, got k={k}, n={n}", k=k, n=n)
    elements = [level_label(i, l) for i in range(1, n + 1) for l in range(1, k)]
    covers = [
        (level_label(i, l), level_label(i, l + 1))
        for i in range(1, n + 1)
        for l in range(1, k - 1)
    ]
    return Poset(elements, covers)


def grid_shape(base: Poset) -> tuple[int, int]:
    """(k, n) of a chain-product base; rejects any other poset."""
    criteria = set()
    top_level = 0
    for label in base.elements:
        criterion, level = label_parts(label)
        criteria.add(criterion)
        top_level = max(top_level, level)
    k, n = top_level + 1, max(criteria, default=0)
    if n == 0 or len(base.elements) != (k - 1) * n or base != build_kary_base(k, n):
        raise InvalidDimensions("base poset is not a chain product")
    return k, n


def _grid(lattice) -> tuple[int, int, tuple[tuple[int, ...], ...]]:
    """(k, n) of a lattice's chain-product base and its prefix codes:
    ``prefixes[i - 1][l]`` is the bit code of levels 1..l of criterion i (0
    for l = 0), which is level l's principal downset."""
    k, n = grid_shape(lattice.base)
    down = lattice.base._down
    prefixes = tuple((0, *(down[level_label(i, l)] for l in range(1, k))) for i in range(1, n + 1))
    return k, n, prefixes


def _levels(node: Sequence[int], k: int) -> Sequence[int]:
    """``node`` once each coordinate is a level 0..k-1: the one range check
    of a grid point, made before a coordinate indexes a table, where -1
    would read the last entry."""
    for i, level in enumerate(node, start=1):
        if not 0 <= level <= k - 1:
            raise InvalidDimensions(f"node coordinate {level} of criterion {i} outside 0..{k - 1}")
    return node


def node_to_downset(node: Sequence[int], k: int) -> frozenset:
    """Downset of the base poset matching a grid point, as its labels."""
    levels = enumerate(_levels(node, k), start=1)
    return frozenset(level_label(i, l) for i, level in levels for l in range(1, level + 1))


def downset_to_node(downset, n: int) -> tuple[int, ...]:
    """Grid point matching a downset of the base poset."""
    levels = [0] * n
    for label in downset:
        criterion, level = label_parts(label)
        if not 1 <= criterion <= n:
            raise InvalidDimensions(f"label {label!r} is outside a grid of {n} criteria")
        levels[criterion - 1] = max(levels[criterion - 1], level)
    return tuple(levels)


@frozen_record
class ReferenceScale:
    """Strictly increasing anchor scores, one per level.

    Symmetric scales must contain 0 with equally many levels on each side;
    signed level indices then count away from the neutral entry. The levels
    are kept as ``Fraction``s, and as their (numerator, denominator) pairs
    (``_anchors``), which every located point reads.
    """

    levels: tuple[Fraction, ...]
    symmetric: bool = False

    def __init__(self, levels, symmetric: bool = False):
        levels = tuple(map(as_fraction, levels))
        anchors = [level.as_integer_ratio() for level in levels]
        self.__dict__.update(levels=levels, symmetric=symmetric, _anchors=anchors)
        if len(levels) < 2:
            raise InvalidDimensions("a scale needs at least two levels")
        if any(a >= b for a, b in zip(levels, levels[1:])):
            raise InvalidDimensions("scale levels must be strictly increasing")
        if symmetric:
            if len(levels) % 2 == 0:
                raise InvalidDimensions("symmetric scales have an odd level count")
            if levels[len(levels) // 2] != 0:
                raise InvalidDimensions("symmetric scales are centred on 0")

    @property
    def k(self) -> int:
        """Number of levels on one side of the scale (grid arity)."""
        return (len(self.levels) + 1) // 2 if self.symmetric else len(self.levels)

    def rho(self, index: int) -> Fraction:
        """Anchor score at a signed level index (0 is the base level)."""
        offset = len(self.levels) // 2 if self.symmetric else 0
        position = offset + index
        if not 0 <= position < len(self.levels):
            raise OutOfScale(f"level index {index} outside the scale", index=index)
        return self.levels[position]


@frozen_record
class LevelIndexing(_BuiltOnRead):
    """Mesh-cell location of a score point: per-criterion level index in
    1..k-1 and residue in [0, 1], plus the criteria sorted by residue.

    A located point's record is made with its residues as (numerator,
    denominator) pairs (``_residues``), which the corner sweep and the
    staircase read; its ``Fraction`` residues are built on first read.
    """

    indices: tuple[int, ...]
    residues: tuple[Fraction, ...]
    order: tuple[int, ...]

    def _build_residues(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(n, d) for n, d in self._residues)

    @property
    def prefix_size(self) -> int:
        """Number of grid levels fully passed on all criteria combined."""
        return sum(i - 1 for i in self.indices)


def _locate(
    value: tuple[int, int], anchors: Sequence[tuple[int, int]], middle: int, sign: int
) -> tuple[int, tuple[int, int]]:
    """Level index and residue of one coordinate on one side of the scale.

    ``value`` and the scale levels ``anchors`` are (numerator, denominator)
    pairs, and ``middle`` is the position of level index 0. Takes the
    lowest admissible interval, so residues are 1 at interior mesh nodes
    and 0 only at the neutral end of the side. Comparisons cross-multiply
    numerators and denominators (all denominators are positive), and the
    residue is a pair of integers with a positive denominator, not reduced.
    """
    n, d = value
    pn, pd = anchors[middle]
    for j in range(1, len(anchors) - middle):
        an, ad = anchors[middle + sign * j]
        if (n * ad <= an * d) if sign > 0 else (n * ad >= an * d):
            # the interval's width has the side's sign
            return j, (sign * (n * pd - pn * d) * ad, sign * (an * pd - pn * ad) * d)
        pn, pd = an, ad
    raise OutOfScale(f"{_shown(str(Fraction(n, d)))} is outside the scale range")


def _locate_coordinates(
    point: Sequence, scale: ReferenceScale
) -> tuple[frozenset, LevelIndexing]:
    """Criteria located on the nonnegative side, and the mesh-cell location.

    On a symmetric scale each coordinate is located on the side of its
    sign (zero counts as nonnegative); on a one-sided scale every
    coordinate is on the nonnegative side. The coordinates are read
    straight to (numerator, denominator) pairs, the range and sign tests run
    on those integers and the scale's level pairs, read when the scale was
    made, and the residue pairs are ordered by exact integer keys
    (:func:`~choqlat.interpolation._sort_keys`), ties by criterion. No
    ``Fraction`` is made.
    """
    values = list(map(_ratio, point))
    if not values:
        raise InvalidDimensions("a point needs at least one coordinate")
    levels, anchors = scale.levels, scale._anchors
    (ln, ld), (hn, hd) = anchors[0], anchors[-1]
    middle = len(levels) // 2 if scale.symmetric else 0
    indices, residues, positive = [], [], set()
    for i, value in enumerate(values, start=1):
        n, d = value
        if not (ln * d <= n * ld and n * hd <= hn * d):
            raise OutOfScale(
                f"coordinate {_shown(str(Fraction(n, d)))} of criterion {i} outside"
                f" [{_shown(str(levels[0]))}, {_shown(str(levels[-1]))}]",
                criterion=i,
            )
        sign = -1 if scale.symmetric and n < 0 else 1
        if sign > 0:
            positive.add(i)
        index, residue = _locate(value, anchors, middle, sign)
        indices.append(index)
        residues.append(residue)
    # a stable sort keeps tied criteria in increasing order, reverse=True included
    ranked = sorted(range(len(residues)), key=_sort_keys(residues).__getitem__, reverse=True)
    order = tuple(map((1).__add__, ranked))
    indexing = LevelIndexing._made(indices=tuple(indices), order=order, _residues=residues)
    return frozenset(positive), indexing


def locate_point(point: Sequence, scale: ReferenceScale) -> LevelIndexing:
    """Mesh-cell location of a score point on a one-sided scale."""
    if scale.symmetric:
        raise InvalidDimensions("locate_point expects a one-sided scale")
    return _locate_coordinates(point, scale)[1]


def locate_signed_point(
    point: Sequence, scale: ReferenceScale
) -> tuple[frozenset, LevelIndexing]:
    """Mesh-cell location of a signed score point: the set of nonnegative
    criteria, and per-side level indices and residues."""
    if not scale.symmetric:
        raise InvalidDimensions("signed location needs a symmetric scale")
    return _locate_coordinates(point, scale)


def _staircase(
    k: int, indexing: LevelIndexing, positive: frozenset | None = None
) -> Profile | BipolarProfile:
    """The staircase of a located point on its grid base: on each criterion
    1 below the level index, the residue at it and 0 above, negated on the
    criteria outside ``positive`` when given (a signed profile). Its pairs,
    the residues in lowest terms, go through the profile's one check
    (:func:`~choqlat.interpolation._profile_values`), which puts them in bit
    order and finds their sizes and sort keys."""
    values = {}
    for i, (index, (n, d)) in enumerate(zip(indexing.indices, indexing._residues), start=1):
        g = gcd(n, d)
        n, d = n // g, d // g
        top, mid = ((1, 1), (n, d)) if positive is None or i in positive else ((-1, 1), (-n, d))
        for l in range(1, k):
            values[level_label(i, l)] = top if l < index else mid if l == index else (0, 1)
    base, signed = build_kary_base(k, len(indexing.indices)), positive is not None
    checked = _profile_values(base, values, signed, read=list(values.values()))
    return (BipolarProfile if signed else Profile)._from_checked(base, *checked)


def level_profile(point: Sequence, scale: ReferenceScale) -> tuple[LevelIndexing, Profile]:
    """Locate a score point in the mesh and build its staircase profile.

    The staircase is 1 on levels strictly below the located index, the
    residue at the index and 0 above; its natural extension equals the
    closed interpolation formulas.
    """
    indexing = locate_point(point, scale)
    return indexing, _staircase(scale.k, indexing)


def _corner_sweep(
    capacity: GeneralizedCapacity | BipolarCapacity,
    prefixes: Sequence[Sequence[int]],
    indexing: LevelIndexing,
    positive: frozenset | None = None,
) -> Fraction:
    """Sorted sweep over residues against lazily read mesh corners.

    Corners are bit codes of downsets, made from the grid's prefix codes
    (:func:`_grid`). The corner with no criterion raised is the staircase
    prefix, the sum of each criterion's code below its level index; each
    step ORs in the next criterion's code up to its index, in sorted-residue
    order. The first corner enters with weight 1 minus the top residue, so
    corners with nonzero value at the resting point are kept. With
    ``positive`` (the criteria on a tile's positive side) the corners are
    read as signed vertices split along that tile. The capacity's one chain
    sum (:meth:`~choqlat.moebius._CapacityBody._chain_value`) adds the
    corners' values at the sorted residues. A point with other than one
    coordinate per criterion is refused before any prefix is read.
    """
    indices, residues, order = indexing.indices, indexing._residues, indexing.order
    if len(indices) != len(prefixes):
        raise InvalidDimensions(f"point has {len(indices)} coordinates, grid has {len(prefixes)}")
    # a criterion's top prefix is the whole criterion
    tile = None if positive is None else sum(prefixes[i - 1][-1] for i in positive)
    start = sum(prefix[index - 1] for prefix, index in zip(prefixes, indices))
    raised = (prefixes[c - 1][indices[c - 1]] for c in order)
    corners = accumulate(raised, operator.or_, initial=start)
    levels = [residues[c - 1] for c in order]
    return capacity._chain_value(corners, levels, tile)


def interpolate_point(
    capacity: GeneralizedCapacity, point: Sequence, scale: ReferenceScale
) -> Fraction:
    """Score a point by interpolating the capacity at the surrounding mesh
    nodes (the corner-capacity form of the extension).

    Reads the 2^n corner values lazily rather than materialising a local
    capacity. Returns the capacity value itself at mesh nodes.
    """
    k, _, prefixes = capacity.lattice.derived(_grid)
    if scale.symmetric or scale.k != k:
        raise InvalidDimensions(f"scale has {scale.k} levels but the capacity grid has {k}")
    return _corner_sweep(capacity, prefixes, locate_point(point, scale))


class GridSteps(NamedTuple):
    """An :class:`~choqlat.interpolation.Evaluation` read on a grid base.

    ``levels[i]``/``criteria[i]`` decode the i-th element of the sorted
    order; ``nodes`` renders the chain as grid points, bottom first,
    matching the evaluation's weights, as (pos, neg) point pairs in the
    signed case, where ``positive_criteria`` is the tile as a set of
    criteria (``None`` when unsigned).
    """

    levels: tuple[int, ...]
    criteria: tuple[int, ...]
    nodes: tuple
    positive_criteria: frozenset | None


def grid_steps(evaluation: Evaluation, n: int) -> GridSteps:
    """Sorted-step report of an evaluation on the base with ``n`` criteria."""
    parts = [label_parts(label) for label in evaluation.order]
    if evaluation.tile is None:
        nodes = tuple(downset_to_node(v, n) for v in evaluation.chain)
        positive = None
    else:
        nodes = tuple(
            (downset_to_node(pair.pos, n), downset_to_node(pair.neg, n))
            for pair in evaluation.chain
        )
        positive = frozenset(label_parts(label)[0] for label in evaluation.tile)
    return GridSteps(
        levels=tuple(level for _, level in parts),
        criteria=tuple(criterion for criterion, _ in parts),
        nodes=nodes,
        positive_criteria=positive,
    )


# signed variants on a symmetric scale


def bipolar_level_profile(
    point: Sequence, scale: ReferenceScale
) -> tuple[frozenset, LevelIndexing, BipolarProfile]:
    """Locate a signed score point: the set of nonnegative criteria, the
    per-side mesh indices and residues, and the signed staircase profile."""
    positive, indexing = locate_signed_point(point, scale)
    return positive, indexing, _staircase(scale.k, indexing, positive)


def interpolate_signed_point(
    capacity: BipolarCapacity, point: Sequence, scale: ReferenceScale
) -> Fraction:
    """Score a signed point against a bipolar capacity on the grid.

    Criteria split by score sign (zero counts as positive); mesh corners are
    read as signed vertices split along that tile.
    """
    k, _, prefixes = capacity.lattice.derived(_grid)
    if not scale.symmetric or scale.k != k:
        raise InvalidDimensions(f"need a symmetric scale with {k} levels per side")
    positive, indexing = locate_signed_point(point, scale)
    return _corner_sweep(capacity, prefixes, indexing, positive)
