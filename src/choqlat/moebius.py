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
downset pairs, takes one pass per (side, base element). The defining
recursion :func:`rota_moebius` remains for arbitrary finite orders; its
memo caches are created per call (or passed in explicitly), never global, so
concurrent evaluations need no coordination.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import cached_property, partial
from typing import Callable, Hashable, Mapping, Sequence

from .birkhoff import DownsetLattice, disjoint_element_pairs
from .errors import (
    BaseMismatch,
    NotAnElement,
    NotComparable,
    NotInBipolarExtension,
)
from .poset import Poset, linear_extension
from .rationals import as_fraction


def vertex_table(domain: Sequence, entries: Mapping, vertex: Callable, what: str) -> dict:
    """Exact values of ``entries`` on every vertex of ``domain``, in domain order.

    ``vertex`` checks each key and returns it as a member of ``domain``;
    a vertex left without a value is reported with an example.
    """
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


def moebius_function(p: Poset, lower: str, upper: str, cache: dict | None = None) -> int:
    """Moebius function of a poset between two comparable elements."""
    p.leq(lower, upper)  # raises UnknownLabel early
    return rota_moebius(p.elements, p.leq, lower, upper, cache)


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


def _downset_pass(base: Poset, table: dict, sides: int, inverse: bool) -> dict:
    """Zeta transform of ``table``, or its Moebius transform when ``inverse``.

    Keys are tuples of ``sides`` downsets of ``base`` forming a down-closed
    family under the product order, so each interval below a key is the
    same in the family as in the full product of lattices. One step per
    (side, base element j) adds the value at the key with j removed from
    that side, wherever j is maximal there (no upper cover of j present);
    the steps run along the linear extension, and backwards with
    subtraction for the inverse. The result keeps the key order of
    ``table``.
    """
    steps = [
        (side, j, frozenset(base.upper_covers(j)))
        for side in range(sides)
        for j in linear_extension(base)
    ]
    if inverse:
        steps.reverse()
    combine = operator.sub if inverse else operator.add
    out = dict(table)
    for side, j, covers in steps:
        for key in table:
            part = key[side]
            if j in part and covers.isdisjoint(part):
                lower = key[:side] + (part - {j},) + key[side + 1 :]
                out[key] = combine(out[key], out[lower])
    return out


def moebius_transform(g: GeneralizedCapacity) -> GeneralizedCapacity:
    """Coefficients of ``g`` in the unanimity basis, as a table on the same
    lattice; inverse of ``zeta_transform``."""
    table = {(x,): v for x, v in g.values.items()}
    out = _downset_pass(g.lattice.base, table, 1, inverse=True)
    return GeneralizedCapacity(g.lattice, {key[0]: v for key, v in out.items()})


def zeta_transform(m: GeneralizedCapacity) -> GeneralizedCapacity:
    """Accumulate coefficients upward: value at x sums m over elements below x."""
    table = {(x,): v for x, v in m.values.items()}
    out = _downset_pass(m.lattice.base, table, 1, inverse=False)
    return GeneralizedCapacity(m.lattice, {key[0]: v for key, v in out.items()})


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
    """Validated values keyed and ordered by :func:`disjoint_element_pairs`."""
    return vertex_table(
        disjoint_element_pairs(lattice),
        values,
        partial(check_bipolar_pair, lattice),
        "pairs of the bipolar extension",
    )


def bipolar_moebius_transform(lattice: DownsetLattice, values: Mapping) -> dict:
    """Moebius coefficients of a functional given on the whole bipolar
    extension; inverse of :func:`bipolar_zeta_transform`."""
    table = _full_bipolar_table(lattice, values)
    return _downset_pass(lattice.base, table, 2, inverse=True)


def bipolar_zeta_transform(lattice: DownsetLattice, coefficients: Mapping) -> dict:
    """Accumulate bipolar coefficients upward under the product order."""
    table = _full_bipolar_table(lattice, coefficients)
    return _downset_pass(lattice.base, table, 2, inverse=False)


def bipolar_unanimity(lattice: DownsetLattice, pair) -> dict:
    """0-1 functional equal to 1 exactly on the up-set of ``pair`` in the
    bipolar extension."""
    x, y = check_bipolar_pair(lattice, pair)
    return {
        (a, b): Fraction(int(x <= a and y <= b))
        for (a, b) in disjoint_element_pairs(lattice)
    }
