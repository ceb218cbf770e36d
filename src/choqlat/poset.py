"""Finite posets over opaque string labels.

Covering pairs are the only stored relation; the full order is derived once
at construction (the connected components on first request) and every value
is immutable afterwards, so posets are cheap to query and safe to share
between concurrent evaluators. Covers must form a
transitive reduction: a cover implied by other covers is rejected instead of
silently dropped, which keeps file round trips byte-stable.

A poset owns the one bit encoding of its order: element x is bit (position
of x in the linear extension), each downset one int of those bits, and a
map on the elements (a profile, say) one list by those positions. The
covers are held once more as two lists of positions, in the order of their
labels, so a check along the covers reads them in one fixed order and names
the smallest failing cover whatever the hash seed (:func:`_rising_cover`). All
downsets are enumerated once, as codes with their maximal elements, in
canonical order (:func:`_downsets`); label frozensets are a view, made only
where a public function returns them.
"""

from __future__ import annotations

import heapq
from functools import reduce
from itertools import compress, count
from operator import itemgetter, lt, or_
from typing import Iterable, NamedTuple, Sequence

from .errors import (
    CycleDetected,
    DuplicateLabel,
    RedundantCover,
    SizeLimitExceeded,
    UnknownLabel,
)

# Default ceiling for downset enumeration; the family is exponential in the
# poset size and failing loudly beats exhausting memory.
DOWNSET_CAP = 10 ** 6


class Component(NamedTuple):
    """Connected component of the cover graph with its minimal elements."""

    members: frozenset
    minimals: frozenset


class Poset:
    """Immutable finite poset described by elements and covering pairs."""

    __slots__ = (
        "elements", "covers", "_uppers", "_lowers", "_topo", "_bit", "_down", "_ends", "_components"
    )

    def __init__(self, elements: Iterable[str], covers: Iterable[Sequence[str]] = ()):
        labels: list[str] = []
        seen: set[str] = set()
        for label in elements:
            if not isinstance(label, str):
                raise UnknownLabel(f"labels must be strings, got {label!r}")
            if label in seen:
                raise DuplicateLabel(f"duplicate label {label!r}", label=label)
            seen.add(label)
            labels.append(label)

        pairs: set[tuple[str, str]] = set()
        for cover in covers:
            lower, upper = cover
            for label in (lower, upper):
                if not isinstance(label, str) or label not in seen:
                    raise UnknownLabel(
                        f"cover references unknown label {label!r}", label=label
                    )
            if lower == upper:
                raise CycleDetected(f"self-cover on {lower!r}", label=lower)
            pairs.add((lower, upper))

        self.elements: tuple[str, ...] = tuple(sorted(labels))
        self.covers: frozenset[tuple[str, str]] = frozenset(pairs)

        uppers: dict[str, list[str]] = {x: [] for x in self.elements}
        lowers: dict[str, list[str]] = {x: [] for x in self.elements}
        for lower, upper in pairs:
            uppers[lower].append(upper)
            lowers[upper].append(lower)
        self._uppers = {x: tuple(sorted(ups)) for x, ups in uppers.items()}
        self._lowers = {x: tuple(sorted(lows)) for x, lows in lowers.items()}

        self._topo = self._toposort()
        self._components: tuple | None = None  # on first request

        # one OR per cover; a cover is implied when its lower end lies
        # strictly below another lower cover of its upper end
        bit = self._bit = {x: 1 << t for t, x in enumerate(self._topo)}
        down = self._down = {}
        implied = []
        for x in self._topo:
            closure, strict = bit[x], 0
            for lower in self._lowers[x]:
                closure |= down[lower]
                strict |= down[lower] ^ bit[lower]
            down[x] = closure
            implied += [(lower, x) for lower in self._lowers[x] if strict & bit[lower]]
        if implied:
            lower, upper = min(implied)
            raise RedundantCover(
                f"cover ({lower!r}, {upper!r}) is implied by other covers",
                lower=lower,
                upper=upper,
            )
        # the covers in label order, as the positions of their lower and upper ends
        ends = zip(*sorted(pairs)) if pairs else ((), ())
        self._ends = tuple([bit[x].bit_length() - 1 for x in side] for side in ends)

    def _toposort(self) -> tuple[str, ...]:
        indegree = {x: len(self._lowers[x]) for x in self.elements}
        ready = [x for x in self.elements if indegree[x] == 0]
        heapq.heapify(ready)
        order = []
        while ready:
            x = heapq.heappop(ready)
            order.append(x)
            for upper in self._uppers[x]:
                indegree[upper] -= 1
                if indegree[upper] == 0:
                    heapq.heappush(ready, upper)
        if len(order) != len(self.elements):
            raise CycleDetected("cover relation contains a cycle")
        return tuple(order)

    # queries

    def _check(self, label: str) -> str:
        if label not in self._down:
            raise UnknownLabel(f"unknown label {label!r}", label=label)
        return label

    def _labels(self, mask: int) -> frozenset:
        """The labels of the elements whose bits are set in ``mask``."""
        return frozenset(compress(self._topo, map("1".__eq__, bin(mask)[:1:-1])))

    def leq(self, x: str, y: str) -> bool:
        """True iff ``x`` is below or equal to ``y``."""
        bit = self._bit[self._check(x)]
        return bool(self._down[self._check(y)] & bit)

    def below(self, x: str) -> frozenset:
        """All elements at or below ``x`` (its principal downset)."""
        return self._labels(self._down[self._check(x)])

    def upper_covers(self, x: str) -> tuple[str, ...]:
        return self._uppers[self._check(x)]

    def lower_covers(self, x: str) -> tuple[str, ...]:
        return self._lowers[self._check(x)]

    def restrict(self, members: Iterable[str]) -> "Poset":
        """Sub-poset induced on ``members``; covers are recomputed.

        Below a kept y, the kept element with the highest bit is maximal, so
        y covers it; the next cover is found once its downset is dropped.
        """
        kept = sorted({self._check(label) for label in members})
        inside = sum(map(self._bit.get, kept))
        covers = []
        for upper in kept:
            rest = (self._down[upper] & inside) ^ self._bit[upper]
            while rest:
                lower = self._topo[rest.bit_length() - 1]
                covers.append((lower, upper))
                rest &= ~self._down[lower]
        return Poset(kept, covers)

    def __len__(self) -> int:
        return len(self.elements)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poset):
            return NotImplemented
        return self.elements == other.elements and self.covers == other.covers

    def __hash__(self) -> int:
        return hash((self.elements, self.covers))

    def __repr__(self) -> str:
        return f"Poset({len(self.elements)} elements, {len(self.covers)} covers)"


def _rising_cover(p: Poset, keys: list) -> tuple[str, str] | None:
    """The smallest cover (lower, upper), in label order, whose lower end's
    key is below its upper end's, ``keys`` given by position; ``None`` when
    the keys are nonincreasing along every cover."""
    lows, ups = p._ends
    rises = map(lt, map(keys.__getitem__, lows), map(keys.__getitem__, ups))
    at = next(compress(count(), rises), None)
    return None if at is None else (p._topo[lows[at]], p._topo[ups[at]])


def linear_extension(p: Poset) -> tuple[str, ...]:
    """Deterministic total order refining the poset order.

    Topological sort with lexicographic tie-breaking on labels; used as the
    canonical tie-break everywhere determinism matters.
    """
    return p._topo


def is_downset(p: Poset, members: Iterable[str]) -> bool:
    """True iff ``members`` is downward closed in ``p``: the union of their
    principal downsets adds no bit. The package's one downset rule."""
    kept = frozenset(members)
    if not p._bit.keys() >= kept:
        p._check(min(kept.difference(p._bit), key=str))
    return reduce(or_, map(p._down.get, kept), 0) == sum(map(p._bit.get, kept))


def downset_key(d: Iterable[str]) -> tuple:
    """Canonical sort key for downsets: size, then sorted labels."""
    labels = tuple(sorted(d))
    return (len(labels), labels)


def all_downsets(p: Poset, max_count: int | None = None) -> list[frozenset]:
    """Every downset of ``p`` exactly once, canonically ordered: the label
    sets of :func:`_downsets`, which raises :class:`SizeLimitExceeded` as
    soon as the family would outgrow ``max_count`` (default ``DOWNSET_CAP``)."""
    return _label_sets(p, _downsets(p, max_count)[0])


def _label_sets(p: Poset, codes: list[int]) -> list[frozenset]:
    """The label sets of ``codes``, every downset of ``p`` in canonical order:
    each is the set of the smaller downset without its last element, plus it."""
    at, sets = {0: 0}, [frozenset()]
    for code in codes[1:]:
        last = code.bit_length() - 1
        at[code] = len(sets)
        sets.append(sets[at[code ^ 1 << last]] | {p._topo[last]})
    return sets


def _downsets(p: Poset, max_count: int | None = None) -> tuple[list[int], list[int]]:
    """The code of every downset of ``p`` in the order of :func:`downset_key`,
    and of its maximal elements: along the linear extension, x joins each
    downset holding its lower covers and replaces them among its maxima. The
    sort key is the size above the complement of r, the code in label order
    (smallest label highest): adding x adds one to the size and x's bit to r.
    The key is one int per downset and no two are equal, so the family is
    sorted on the keys alone, comparing small ints rather than tuples."""
    cap = DOWNSET_CAP if max_count is None else max_count
    n = len(p.elements)
    rank = {x: 1 << n - 1 - i for i, x in enumerate(p.elements)}
    family = [((1 << n) - 1, 0, 0)]  # (sort key, code, maximal elements)
    if len(family) > cap:
        raise SizeLimitExceeded(f"downset family exceeds cap {cap}", cap=cap)
    for x in p._topo:
        bit, step = p._bit[x], (1 << n) - rank[x]
        lows = sum(map(p._bit.get, p._lowers[x]))
        grown = [(key + step, code | bit, top & ~lows | bit)
                 for key, code, top in family if code & lows == lows]
        if len(family) + len(grown) > cap:
            raise SizeLimitExceeded(f"downset family exceeds cap {cap}", cap=cap)
        family += grown
    family.sort(key=itemgetter(0))
    return [code for _, code, _ in family], [top for _, _, top in family]


def connected_components(p: Poset) -> tuple[Component, ...]:
    """Components of the comparability graph, each with its minimal elements.

    Ordered by smallest member label, so output is deterministic. Found
    once per poset and kept with it (:func:`_component_masks`).
    """
    return _component_masks(p)[0]


def _component_masks(p: Poset) -> tuple[tuple[Component, ...], tuple[int, ...], bool]:
    """The connected components of ``p``, each one's bit code, and whether
    every component has one minimal element (``p`` is a regular mosaic):
    found once per poset and kept with it."""
    if p._components is None:
        parts = _components(p)
        masks = tuple(sum(map(p._bit.get, c.members)) for c in parts)
        p._components = parts, masks, all(len(c.minimals) == 1 for c in parts)
    return p._components


def _components(p: Poset) -> tuple[Component, ...]:
    """Union-find over the covers, halving paths to each part's root."""
    parent = {x: x for x in p.elements}

    def root(x: str) -> str:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    for lower, upper in p.covers:
        parent[root(lower)] = root(upper)
    parts: dict[str, list[str]] = {}
    for x in p.elements:
        parts.setdefault(root(x), []).append(x)
    return tuple(
        Component(frozenset(part), frozenset(x for x in part if not p._lowers[x]))
        for part in parts.values()
    )
