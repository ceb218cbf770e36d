"""Lattice functionals, Moebius functions and transforms, exact in rational
arithmetic.

A capacity, a game and its Moebius coefficients are one object, a rational
value on each lattice vertex: :class:`GeneralizedCapacity`, or on the bipolar
extension a table keyed by disjoint pairs. :func:`vertex_table` reads and
checks every such table.

On a downset lattice the Moebius function has a closed form: for downsets
X <= Y it is (-1)^|Y - X| when Y - X is an antichain of the base and 0
otherwise (Rota 1964). The zeta/Moebius transform pair therefore runs as one
accumulation (or difference) pass per base element along a linear
extension, in O(n |L|); the bipolar extension, a down-closed family of
downset pairs, takes one pass per (side, base element). Which vertex each
step combines with which depends on the lattice alone, so that step plan,
two integer arrays that are also the Hasse diagram, is built once per
lattice by :mod:`~choqlat.birkhoff` and kept with it. Each transform
then scales its values to integer numerators over their common denominator,
runs the plan's additions (or, backwards, its subtractions) on Python ints,
and makes one exact ``Fraction`` per vertex at the end (the fast Moebius
transform of Kennes 1992, with denominators cleared).

No cache is global: step plans and pair tables live on the
:class:`DownsetLattice` they were built for (:meth:`DownsetLattice.derived`),
and the memo of the defining recursion :func:`rota_moebius`, which remains
for arbitrary finite orders, is created per call or passed in explicitly.
Callers that share nothing need no coordination.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import cached_property, partial
from math import lcm
from typing import Callable, Hashable, Mapping, Sequence

from .birkhoff import DownsetLattice, _extension_plan, _lattice_plan, bipolar_extension
from .errors import (
    BaseMismatch,
    NotAnElement,
    NotComparable,
    NotInBipolarExtension,
)
from .poset import Poset
from .rationals import as_fraction

ZERO = Fraction(0)


def vertex_table(domain: Sequence, entries: Mapping, vertex: Callable, what: str) -> dict:
    """Exact values of ``entries`` on every vertex of ``domain``, in domain order.

    ``vertex`` checks each key and returns it as a member of ``domain``;
    a vertex left without a value is reported with an example. A table
    whose keys are the domain's own vertex objects, in domain order (a
    transform's output, or the values of a table built here), needs no key
    check: each key is a vertex by identity. Its values are still read
    through ``as_fraction``.
    """
    if len(entries) == len(domain) and all(map(operator.is_, entries, domain)):
        return dict(zip(domain, map(as_fraction, entries.values())))
    parsed = {vertex(key): as_fraction(raw) for key, raw in entries.items()}
    if len(parsed) < len(domain):
        missing = [v for v in domain if v not in parsed]
        first = missing[0]
        shown = sorted(first) if isinstance(first, frozenset) else tuple(map(sorted, first))
        raise BaseMismatch(
            f"missing values for {len(missing)} of the {len(domain)} {what},"
            f" e.g. {shown!r}"
        )
    return {v: parsed[v] for v in domain}


class GeneralizedCapacity:
    """A rational value attached to every element of a downset lattice: a
    capacity, a game, or the Moebius coefficients of one."""

    def __init__(self, lattice: DownsetLattice, values: Mapping):
        self.values: dict[frozenset, Fraction] = vertex_table(
            lattice.elements, values, lattice.check_element, "lattice elements"
        )
        self.lattice = lattice

    def __call__(self, x) -> Fraction:
        try:
            return self.values[frozenset(x)]
        except KeyError:
            raise NotAnElement(f"{sorted(frozenset(x))!r} is not a lattice element") from None

    def __repr__(self) -> str:
        return f"GeneralizedCapacity(on {len(self.values)} elements)"

    @property
    def is_game(self) -> bool:
        """True when the bottom element carries value zero."""
        return self.values[self.lattice.bottom] == 0

    @cached_property
    def is_monotone(self) -> bool:
        return all(
            self.values[a] <= self.values[b] for a, b in self.lattice.cover_pairs()
        )


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
    if any(len(gap & base.below(j)) > 1 for j in gap):
        return 0
    return -1 if len(gap) % 2 else 1


def lattice_moebius(lattice: DownsetLattice, lower, upper) -> int:
    """Moebius function of the downset lattice itself (inclusion order)."""
    x = lattice.check_element(lower)
    y = lattice.check_element(upper)
    if not x <= y:
        raise NotComparable(f"{x!r} is not below {y!r}")
    return _interval_moebius(lattice.base, x, y)


def _downset_pass(plan: tuple, table: dict, inverse: bool) -> dict:
    """Zeta transform of ``table``, or its Moebius transform when ``inverse``.

    ``table`` holds exact values in the order of the domain ``plan`` was
    built on. Each step adds the value at the lower key (subtracts it, with
    the steps reversed, for the inverse); the sums run on integer
    numerators over the common denominator, and each nonzero result becomes
    one ``Fraction`` at the end. Zero results, most of a sparse Moebius
    table, share one.
    """
    keys, lowers = plan
    scale = lcm(*{v.denominator for v in table.values()})
    nums = [v.numerator * (scale // v.denominator) for v in table.values()]
    if inverse:
        for key, lower in zip(reversed(keys), reversed(lowers)):
            nums[key] -= nums[lower]
    else:
        for key, lower in zip(keys, lowers):
            nums[key] += nums[lower]
    return {x: Fraction(num, scale) if num else ZERO for x, num in zip(table, nums)}


def moebius_transform(g: GeneralizedCapacity) -> GeneralizedCapacity:
    """Coefficients of ``g`` in the unanimity basis, as a table on the same
    lattice; inverse of ``zeta_transform``."""
    plan = g.lattice.derived(_lattice_plan)
    return GeneralizedCapacity(g.lattice, _downset_pass(plan, g.values, inverse=True))


def zeta_transform(m: GeneralizedCapacity) -> GeneralizedCapacity:
    """Accumulate coefficients upward: value at x sums m over elements below x."""
    plan = m.lattice.derived(_lattice_plan)
    return GeneralizedCapacity(m.lattice, _downset_pass(plan, m.values, inverse=False))


def unanimity(lattice: DownsetLattice, x) -> GeneralizedCapacity:
    """0-1 capacity equal to 1 exactly on the up-set of ``x``."""
    member = lattice.check_element(x)
    return GeneralizedCapacity(
        lattice, {e: int(member <= e) for e in lattice.elements}
    )


# bipolar side: functionals on pairs of disjoint elements under the product order


def check_bipolar_pair(lattice: DownsetLattice, pair) -> tuple[frozenset, frozenset]:
    pos, neg = pair
    pos = lattice.check_element(pos)
    neg = lattice.check_element(neg)
    if pos & neg:
        raise NotInBipolarExtension(
            f"parts are not disjoint: {sorted(pos & neg)!r}",
            overlap=sorted(pos & neg),
        )
    return pos, neg


def bipolar_moebius_function(lattice: DownsetLattice, lower, upper) -> int:
    """Moebius function on the bipolar extension: the product of the two
    one-sided lattice values."""
    z, t = check_bipolar_pair(lattice, lower)
    x, y = check_bipolar_pair(lattice, upper)
    if not (z <= x and t <= y):
        raise NotComparable(f"{(z, t)!r} is not below {(x, y)!r}")
    return _interval_moebius(lattice.base, z, x) * _interval_moebius(lattice.base, t, y)


def _full_bipolar_table(lattice: DownsetLattice, values: Mapping) -> dict:
    """Validated values keyed and ordered by the bipolar extension."""
    return vertex_table(
        bipolar_extension(lattice),
        values,
        partial(check_bipolar_pair, lattice),
        "pairs of the bipolar extension",
    )


def bipolar_moebius_transform(lattice: DownsetLattice, values: Mapping) -> dict:
    """Moebius coefficients of a functional given on the whole bipolar
    extension; inverse of :func:`bipolar_zeta_transform`."""
    table = _full_bipolar_table(lattice, values)
    return _downset_pass(lattice.derived(_extension_plan), table, inverse=True)


def bipolar_zeta_transform(lattice: DownsetLattice, coefficients: Mapping) -> dict:
    """Accumulate bipolar coefficients upward under the product order."""
    table = _full_bipolar_table(lattice, coefficients)
    return _downset_pass(lattice.derived(_extension_plan), table, inverse=False)


def bipolar_unanimity(lattice: DownsetLattice, pair) -> dict:
    """0-1 functional equal to 1 exactly on the up-set of ``pair`` in the
    bipolar extension."""
    x, y = check_bipolar_pair(lattice, pair)
    return {
        (a, b): Fraction(int(x <= a and y <= b)) for (a, b) in bipolar_extension(lattice)
    }
