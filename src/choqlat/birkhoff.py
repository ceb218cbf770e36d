"""Distributive lattices carried as families of downsets of a base poset.

Every finite distributive lattice is, up to isomorphism, the family of
downsets of the poset of its join-irreducible elements ordered by inclusion.
This module keeps that single representation everywhere: joins are unions,
meets are intersections, and explicitly presented lattices are converted at
the boundary by :func:`verify_distributive`.

The bipolar extension, the ordered pairs of disjoint elements, has one
enumerator, :func:`bipolar_extension`, which counts the pairs first.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Mapping, NamedTuple, TypeVar

from .errors import NotALattice, NotAnElement, NotDistributive, SizeLimitExceeded
from .poset import DOWNSET_CAP, Poset, all_downsets, connected_components, downset_key

T = TypeVar("T")


class DownsetLattice:
    """The lattice of all downsets of ``base``, ordered by inclusion.

    Bottom is the empty set, top is the whole ground set. Elements are
    enumerated lazily (first access to :attr:`elements`) and cached;
    ``DOWNSET_CAP`` guards the exponential family. Tables that other
    modules derive from the lattice are cached with it by :meth:`derived`.
    """

    def __init__(self, base: Poset):
        self.base = base
        self._derived: dict = {}

    @cached_property
    def elements(self) -> tuple[frozenset, ...]:
        return tuple(all_downsets(self.base))

    @cached_property
    def _member_set(self) -> frozenset:
        return frozenset(self.elements)

    @property
    def bottom(self) -> frozenset:
        return frozenset()

    @cached_property
    def top(self) -> frozenset:
        return frozenset(self.base.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, item) -> bool:
        try:
            return frozenset(item) in self._member_set
        except TypeError:
            return False

    def __eq__(self, other) -> bool:
        if not isinstance(other, DownsetLattice):
            return NotImplemented
        return self.base == other.base

    def __hash__(self) -> int:
        return hash(("DownsetLattice", self.base))

    def __repr__(self) -> str:
        return f"DownsetLattice(base={self.base!r})"

    def derived(self, build: Callable[["DownsetLattice"], T]) -> T:
        """``build(self)``, computed on the first request and kept with the
        lattice under the key ``build`` (a module-level function), so the
        cache lives and dies with this instance. ``build`` must depend on the
        lattice alone: threads racing on a first request may each build, and
        whichever result is kept equals the other."""
        if build not in self._derived:
            self._derived[build] = build(self)
        return self._derived[build]

    def check_element(self, x) -> frozenset:
        """``x`` as a lattice element, rejecting anything that is not one.

        An element's decomposition into the join-irreducibles at or below
        it is, in downset form, the element itself.
        """
        member = frozenset(x)
        if member not in self._member_set:
            raise NotAnElement(
                f"{sorted(member)!r} is not a downset of the base poset",
                element=sorted(member),
            )
        return member

    def join(self, x, y) -> frozenset:
        return self.check_element(x) | self.check_element(y)

    def meet(self, x, y) -> frozenset:
        return self.check_element(x) & self.check_element(y)

    def leq(self, x, y) -> bool:
        """Inclusion order; arguments are trusted to be elements."""
        return frozenset(x) <= frozenset(y)

    def principal(self, j: str) -> frozenset:
        """The join-irreducible element attached to base element ``j``."""
        return self.base.below(j)

    @cached_property
    def join_irreducibles(self) -> tuple[frozenset, ...]:
        return tuple(
            sorted((self.principal(j) for j in self.base.elements), key=downset_key)
        )

    def cover_pairs(self) -> list[tuple[frozenset, frozenset]]:
        """All covering pairs (lower, upper); upper adds one base element."""
        out = []
        for d in self.elements:
            for j in self.base.elements:
                if j not in d and (self.base.below(j) - {j}) <= d:
                    out.append((d, d | {j}))
        return out

    def complemented(self) -> dict[frozenset, frozenset]:
        """Elements whose set complement is again a downset, with complements."""
        member = self._member_set
        top = self.top
        return {d: top - d for d in self.elements if (top - d) in member}


class BipolarElement(NamedTuple):
    """Signed vertex: a positive and a negative part with empty meet."""

    pos: frozenset
    neg: frozenset


def bipolar_extension(lattice: DownsetLattice) -> tuple[BipolarElement, ...]:
    """Every ordered pair of disjoint lattice elements, by the lattice order
    of the positive part, then of the negative part. Built once per lattice;
    refused with :class:`SizeLimitExceeded` before it is built when the
    count (:func:`_extension_size`) is over ``DOWNSET_CAP``."""
    return lattice.derived(_extension)


def _extension(lattice: DownsetLattice) -> tuple[BipolarElement, ...]:
    size = _extension_size(lattice)
    if size > DOWNSET_CAP:
        raise SizeLimitExceeded(
            f"bipolar extension has at least {size} pairs, over the cap {DOWNSET_CAP}",
            cap=DOWNSET_CAP,
        )
    elems = lattice.elements
    return tuple([BipolarElement(a, b) for a in elems for b in elems if a.isdisjoint(b)])


def _extension_size(lattice: DownsetLattice) -> int:
    """Number of disjoint element pairs, or a lower bound past ``DOWNSET_CAP``:
    a product over the components of the base. Nonempty downsets of a
    component with one bottom all hold it, so its lattice L_c gives
    2|L_c| - 1 pairs; other components are scanned until the cap is passed."""
    size = 1
    for component in connected_components(lattice.base):
        inside = [d for d in lattice.elements if d <= component.members]
        if len(component.minimals) == 1:
            size *= 2 * len(inside) - 1
            continue
        pairs = 0
        for a in inside:
            if size * pairs > DOWNSET_CAP:
                break
            pairs += sum(1 for b in inside if a.isdisjoint(b))
        size *= pairs
    return size


@dataclass(frozen=True)
class BirkhoffForm:
    """Downset form of an explicitly given lattice, plus the dictionary
    sending each original element to its set of join-irreducibles."""

    lattice: DownsetLattice
    eta_map: Mapping[str, frozenset]


def verify_distributive(explicit: Poset) -> BirkhoffForm:
    """Convert an explicitly presented lattice to downset form.

    The input poset must be a lattice (all pairwise joins and meets exist).
    Join-irreducible elements — those covering exactly one element — are
    extracted with their induced order, and the lattice is distributive
    exactly when it has as many elements as that poset has downsets.
    """
    elems = explicit.elements
    n = len(elems)
    if n == 0:
        raise NotALattice("a lattice needs at least one element")
    for x in elems:
        for y in elems:
            _bound(explicit, x, y, upper=True)
            _bound(explicit, x, y, upper=False)
    irreducibles = [x for x in elems if len(explicit.lower_covers(x)) == 1]
    base = explicit.restrict(irreducibles)
    try:
        count = len(all_downsets(base, max_count=n))
    except SizeLimitExceeded:
        raise NotDistributive(
            f"the join-irreducible poset has more downsets than the lattice"
            f" has elements ({n})"
        ) from None
    if count != n:
        raise NotDistributive(
            f"lattice has {n} elements but the join-irreducible poset has"
            f" {count} downsets"
        )
    eta_map = {
        x: frozenset(j for j in irreducibles if explicit.leq(j, x)) for x in elems
    }
    return BirkhoffForm(DownsetLattice(base), eta_map)


def _bound(p: Poset, x: str, y: str, *, upper: bool) -> str:
    rel = p.leq
    if upper:
        shared = [z for z in p.elements if rel(x, z) and rel(y, z)]
        extremal = [z for z in shared if all(rel(z, w) for w in shared)]
    else:
        shared = [z for z in p.elements if rel(z, x) and rel(z, y)]
        extremal = [z for z in shared if all(rel(w, z) for w in shared)]
    if len(extremal) != 1:
        kind = "join" if upper else "meet"
        raise NotALattice(f"{x!r} and {y!r} have no {kind}", x=x, y=y)
    return extremal[0]


def explicit_poset(
    lattice: DownsetLattice, label: Callable[[frozenset], str] | None = None
) -> Poset:
    """Explicit element/cover presentation of the lattice (files, display)."""
    if label is None:
        label = lambda d: "{" + ",".join(sorted(d)) + "}"
    names = {d: label(d) for d in lattice.elements}
    covers = [(names[a], names[b]) for a, b in lattice.cover_pairs()]
    return Poset(names.values(), covers)
