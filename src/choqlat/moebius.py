"""Lattice functionals, Moebius functions and transforms, exact in rational
arithmetic.

A capacity, a game and its Moebius coefficients are one object, a rational
value on each lattice vertex: :class:`GeneralizedCapacity`, or on the bipolar
extension a table keyed by disjoint pairs. :func:`vertex_table` reads every
such table, a file's pairs keyed by vertex code included, and is the one
place where keys become positions; a key it does not find goes to the
vertex family's own check (:meth:`~choqlat.birkhoff._Family.check`).
It returns the functional's one :class:`ValueTable`, which a capacity keeps
as its ``values``: one list of integer numerators by position over one
common denominator, making a ``Fraction`` only when a value is read. The
table sits on its vertex family's codes; the family's label view (label
sets or signed pairs, and their positions) is built only for a read by
label, iteration, a payload writer or ``mobius`` output, never on the
chain path, for its decomposition or for either Moebius form, which reads
the numerators with the family's codes. Only this module reads those
integers on the chain path: both capacity kinds share the package's one
chain sum over them.

On a downset lattice the Moebius function has a closed form: for downsets
X <= Y it is (-1)^|Y - X| when Y - X is an antichain of the base and 0
otherwise (Rota 1964). The zeta/Moebius transform pair therefore runs as one
accumulation (or difference) pass per base element along a linear
extension, in O(n |L|); the bipolar extension, a down-closed family of
downset pairs, takes one pass per (side, base element). Which vertex each
step combines with which depends on the vertex family alone, so that step
plan, two integer arrays that are also the Hasse diagram, is built once per
family by :mod:`~choqlat.birkhoff` and kept with the lattice. Each transform runs
the plan's additions (or, backwards, its subtractions) on the numerators,
and its output keeps the input's denominator: the fast Moebius transform of
Kennes 1992, on integer arrays.

No cache is global: the vertex families, with their step plans and position
tables, live on the :class:`DownsetLattice` they were built for (:meth:`DownsetLattice.derived`),
and the memo of the defining recursion :func:`rota_moebius`, which remains
for arbitrary finite orders, is created per call or passed in explicitly.
Callers that share nothing need no coordination.
"""

from __future__ import annotations

import operator
from collections.abc import Mapping
from fractions import Fraction
from functools import cached_property
from itertools import compress
from typing import Callable, Hashable, Iterable, Sequence

from .birkhoff import (
    DownsetLattice,
    _extension_family,
    _Family,
    _lattice_family,
    bipolar_extension,
    check_bipolar_pair,
)
from .errors import BaseMismatch, ContradictoryValue, NotAnElement, NotComparable
from .poset import Poset
from .rationals import _common_denominator, _ratio

ZERO = Fraction(0)


class ValueTable(Mapping):
    """Read-only table of exact values on a vertex family, held by position.

    ``_family`` is the :class:`~choqlat.birkhoff._Family` the table sits
    on, its vertices' codes in domain order (lattice order, or extension
    order for pairs, so the top comes last), and ``_integers`` is the one
    list of numerators by position over one denominator. A value becomes a
    ``Fraction`` only when it is read; zeros share one. Reading by label
    set or pair, ``in`` and iteration go through the family's label view
    (``positions``), built on the first such read; the chain sum, the
    transforms and the checks read positions and codes only.
    """

    __slots__ = ("_family", "_integers")

    def __init__(self, family: _Family, numerators: list[int], denominator: int):
        self._family = family
        self._integers = (numerators, denominator)

    def __getitem__(self, key) -> Fraction:
        numerators, denominator = self._integers
        num = numerators[self._family.positions[key]]
        return Fraction(num, denominator) if num else ZERO

    def __contains__(self, key) -> bool:
        return key in self._family.positions

    def __iter__(self):
        return iter(self._family.positions)

    def __len__(self) -> int:
        return len(self._family.order)

    def __repr__(self) -> str:
        return f"ValueTable(on {len(self)} vertices)"


class FileTable(dict):
    """A capacity file's values as its reader leaves them: each value read
    once, to a (numerator, positive denominator) pair in lowest terms, keyed
    by its vertex's code (:attr:`~choqlat.birkhoff._Family.codes`), or by
    its labels where it names one outside the base. :func:`vertex_table`
    takes the pairs as they are."""


def vertex_table(family: _Family, entries: Mapping, what: str) -> ValueTable:
    """Exact values of ``entries`` on every vertex of ``family``, as a
    :class:`ValueTable` on it: integer numerators by position over one
    common denominator.

    A key found among the family's label view (``positions``, each vertex
    mapped to its position) needs no other check; any other key goes to the
    family's :meth:`~choqlat.birkhoff._Family.check`, which returns it as a
    vertex or raises. A vertex left without a value is reported with an
    example, the only read of the family's ``vertices``. A
    :class:`ValueTable` on ``family`` itself (a capacity's values, a
    transform's output) is handed over as it is, unscanned and its values
    unread. A :class:`FileTable` holds values a file reader has already
    read to pairs, taken as they are, and its keys are found among the
    family's ``codes``, so no label view is built; a key it does not find
    is checked as its labels, and fails. Any other table's values are read
    by the package's one number reader (:func:`~choqlat.rationals._ratio`;
    a ``Fraction`` gives its own pair) and scaled to their least common
    denominator. Two keys for one vertex must give equal values, else
    :class:`~choqlat.errors.ContradictoryValue`, as in a file.
    """
    if isinstance(entries, ValueTable) and entries._family is family:
        return entries
    pairs = type(entries) is FileTable
    lookup = family.codes if pairs else family.positions
    values: list = [None] * len(family.order)
    # only a table with more keys than vertices can give one vertex twice
    # without leaving another one missing
    twice = len(entries) > len(values)
    for key, raw in entries.items():
        try:
            at = lookup[key]
        except (KeyError, TypeError):
            key = family.check(family.label(key) if pairs else key)
            at = family.positions[key]
        if not pairs:
            raw = raw.as_integer_ratio() if type(raw) is Fraction else _ratio(raw)
        if twice and values[at] is not None:
            (n, d), (m, e) = values[at], raw
            if n * e != m * d:
                raise ContradictoryValue(f"two different values for {_shown_vertex(key)!r}")
        values[at] = raw
    if None in values:
        missing = [v for v, value in zip(family.vertices, values) if value is None]
        raise BaseMismatch(
            f"missing values for {len(missing)} of the {len(values)} {what},"
            f" e.g. {_shown_vertex(missing[0])!r}"
        )
    return ValueTable(family, *_scaled(values))


def _shown_vertex(vertex) -> list | tuple:
    """A lattice element as its sorted labels, a pair as two such lists."""
    return sorted(vertex) if isinstance(vertex, frozenset) else tuple(map(sorted, vertex))


def _numerators(values: Iterable) -> tuple[list[int], int]:
    """Integer numerators of ``values``, each read by
    :func:`~choqlat.rationals._ratio`, over their least common denominator,
    and that denominator."""
    return _scaled(list(map(_ratio, values)))


def _scaled(pairs: list[tuple[int, int]]) -> tuple[list[int], int]:
    """(numerator, positive denominator) ``pairs`` as integer numerators over
    the least common denominator of theirs, and that denominator."""
    denominator = _common_denominator({d for _, d in pairs})
    return [n * (denominator // d) for n, d in pairs], denominator


class _CapacityBody:
    """What both capacity kinds share: ``values``, the one
    :class:`ValueTable` that :func:`vertex_table` makes of the caller's
    table on a vertex family, the one chain sum and the
    checks that read its numerators by position."""

    def _hold(self, family: _Family, values: Mapping, what: str):
        self.values = vertex_table(family, values, what)
        self.lattice, self._family = family.lattice, family

    @property
    def is_game(self) -> bool:
        """True when the bottom vertex (position 0) carries value zero."""
        return self.values._integers[0][0] == 0

    def _chain_value(
        self, masks: Iterable[int], levels: Sequence[tuple[int, int]], positive: int | None = None
    ) -> Fraction:
        """The weighted sum of vertex values along a chain, exact: the
        package's one chain sum.

        ``masks`` are the chain vertices' bit codes, bottom first, looked up
        among the family's codes, split along the tile whose positive
        side has the bit code ``positive`` when given
        (:meth:`~choqlat.birkhoff._Family.chain`). ``levels`` are the
        chain's sorted values (nonincreasing, in [0, 1]) as (numerator,
        positive denominator) pairs, in lowest terms or not. The weights are
        the gaps between consecutive terms of 1, the levels and 0, and the
        sum is written in its step form v0 + sum of l_j (v_{j+1} - v_j),
        with v_j the value numerators along the chain: the steps are one
        ``map``, and level l_j enters only where the value steps (one
        ``compress``), so only those levels are scaled to their common
        denominator, by :func:`_scaled`, which bounds it before it is
        computed. The sum runs on integers and makes one ``Fraction``, over
        the product of that and the values' denominator.
        """
        numerators, denominator = self.values._integers
        values = list(map(numerators.__getitem__, self._family.chain(masks, positive)))
        steps = list(map(operator.sub, values[1:], values))
        scaled, scale = _scaled(list(compress(levels, steps)))
        total = values[0] * scale + sum(map(operator.mul, filter(None, steps), scaled))
        return Fraction(total, denominator * scale)

    @cached_property
    def is_monotone(self) -> bool:
        """Nondecreasing along every cover that grows the positive part,
        nonincreasing along the others (a lattice has only the former).

        Each vertex is compared with its lower covers, its code less one of
        its maximal bits, found through the family's codes: a bit among the
        low |base| ones grows the positive part. No step plan is built, and
        the walk stops at the first cover that goes the wrong way."""
        nums, family = self.values._integers[0], self._family
        at, low = family.codes, (1 << len(self.lattice.base)) - 1
        for (code, k), top in zip(at.items(), family.maxima):
            value = nums[k]
            while top:
                bit = top & -top
                top ^= bit
                lower = nums[at[code ^ bit]]
                if (lower > value) if bit <= low else (lower < value):
                    return False
        return True


class GeneralizedCapacity(_CapacityBody):
    """A rational value attached to every element of a downset lattice: a
    capacity, a game, or the Moebius coefficients of one.

    ``values`` holds one numerator per lattice position over one
    denominator. A transform's output is such a table, taken over unread.
    """

    def __init__(self, lattice: DownsetLattice, values: Mapping):
        self._hold(lattice.derived(_lattice_family), values, "lattice elements")

    def __call__(self, x) -> Fraction:
        try:
            return self.values[frozenset(x)]
        except KeyError:
            shown = sorted(frozenset(x), key=str)  # labels of mixed types too
            raise NotAnElement(f"{shown!r} is not a lattice element") from None

    def __repr__(self) -> str:
        return f"GeneralizedCapacity(on {len(self.lattice)} elements)"


def rota_moebius(
    elements: Sequence[Hashable],
    leq: Callable[[Hashable, Hashable], bool],
    lower: Hashable,
    upper: Hashable,
    cache: dict | None = None,
) -> int:
    """Moebius function of a finite order via the defining recursion.

    ``cache`` may be shared across calls over the same order; keys are
    (lower, mid) pairs, so values computed for one interval are reused by
    every interval with the same bottom.
    """
    if lower == upper:
        return 1
    if not leq(lower, upper):
        raise NotComparable(f"{lower!r} is not below {upper!r}")
    if cache is None:
        cache = {}
    interval = [z for z in elements if leq(lower, z) and leq(z, upper)]

    def mu(z):
        if z == lower:
            return 1
        key = (lower, z)
        value = cache.get(key)
        if value is None:
            value = -sum(mu(t) for t in interval if t != z and leq(t, z))
            cache[key] = value
        return value

    return mu(upper)


def _interval_moebius(base: Poset, lower: frozenset, upper: frozenset) -> int:
    """Moebius value between downsets ``lower <= upper``.

    The interval is the lattice of downsets of ``upper - lower``, which is
    Boolean exactly when that gap is an antichain and has value 0 otherwise.
    """
    gap = upper - lower
    mask = sum(map(base._bit.get, gap))
    if any((base._down[j] & mask).bit_count() > 1 for j in gap):
        return 0
    return -1 if len(gap) % 2 else 1


def lattice_moebius(lattice: DownsetLattice, lower, upper) -> int:
    """Moebius function of the downset lattice itself (inclusion order)."""
    x = lattice.check_element(lower)
    y = lattice.check_element(upper)
    if not x <= y:
        raise NotComparable(f"{x!r} is not below {y!r}")
    return _interval_moebius(lattice.base, x, y)


def _downset_pass(table: ValueTable, inverse: bool) -> ValueTable:
    """Zeta transform of ``table``, or its Moebius transform when
    ``inverse``, as a new table on the same vertex family over the same
    denominator. Each step of the family's plan
    adds the value at the lower key (subtracts it, with the steps reversed,
    for the inverse).
    """
    keys, lowers = table._family.plan
    numerators, denominator = table._integers
    nums = list(numerators)
    if inverse:
        for key, lower in zip(reversed(keys), reversed(lowers)):
            nums[key] -= nums[lower]
    else:
        for key, lower in zip(keys, lowers):
            nums[key] += nums[lower]
    return ValueTable(table._family, nums, denominator)


def moebius_transform(g: GeneralizedCapacity) -> GeneralizedCapacity:
    """Coefficients of ``g`` in the unanimity basis, as a table on the same
    lattice; inverse of ``zeta_transform``."""
    return GeneralizedCapacity(g.lattice, _downset_pass(g.values, inverse=True))


def zeta_transform(m: GeneralizedCapacity) -> GeneralizedCapacity:
    """Accumulate coefficients upward: value at x sums m over elements below x."""
    return GeneralizedCapacity(m.lattice, _downset_pass(m.values, inverse=False))


def unanimity(lattice: DownsetLattice, x) -> GeneralizedCapacity:
    """0-1 capacity equal to 1 exactly on the up-set of ``x``."""
    member = lattice.check_element(x)
    return GeneralizedCapacity(
        lattice, {e: int(member <= e) for e in lattice.elements}
    )


# bipolar side: functionals on pairs of disjoint elements under the product order


def bipolar_moebius_function(lattice: DownsetLattice, lower, upper) -> int:
    """Moebius function on the bipolar extension: the product of the two
    one-sided lattice values."""
    z, t = check_bipolar_pair(lattice, lower)
    x, y = check_bipolar_pair(lattice, upper)
    if not (z <= x and t <= y):
        raise NotComparable(f"{(z, t)!r} is not below {(x, y)!r}")
    return _interval_moebius(lattice.base, z, x) * _interval_moebius(lattice.base, t, y)


def _extension_table(lattice: DownsetLattice, values: Mapping) -> ValueTable:
    """``values``, a table given on the whole bipolar extension, read by
    :func:`vertex_table` on the extension's family."""
    family = lattice.derived(_extension_family)
    return vertex_table(family, values, "pairs of the bipolar extension")


def bipolar_moebius_transform(lattice: DownsetLattice, values: Mapping) -> ValueTable:
    """Moebius coefficients of a functional given on the whole bipolar
    extension; inverse of :func:`bipolar_zeta_transform`."""
    return _downset_pass(_extension_table(lattice, values), inverse=True)


def bipolar_zeta_transform(lattice: DownsetLattice, coefficients: Mapping) -> ValueTable:
    """Accumulate bipolar coefficients upward under the product order."""
    return _downset_pass(_extension_table(lattice, coefficients), inverse=False)


def bipolar_unanimity(lattice: DownsetLattice, pair) -> dict:
    """0-1 functional equal to 1 exactly on the up-set of ``pair`` in the
    bipolar extension."""
    x, y = check_bipolar_pair(lattice, pair)
    return {
        (a, b): Fraction(int(x <= a and y <= b)) for (a, b) in bipolar_extension(lattice)
    }
