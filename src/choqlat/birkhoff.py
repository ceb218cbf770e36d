"""Distributive lattices carried as families of downsets of a base poset.

Every finite distributive lattice is, up to isomorphism, the family of
downsets of the poset of its join-irreducible elements ordered by inclusion.
This module keeps that single representation everywhere: joins are unions,
meets are intersections, and explicitly presented lattices are converted at
the boundary by :func:`verify_distributive`, into the frozen record
:class:`BirkhoffForm` (:func:`~choqlat._record.frozen_record`).

A downset is an int on the base poset's bits (base element j is bit
(position of j in the linear extension)). Each vertex family is built and
held as such codes, one :class:`_Family` record kept with the lattice: the
elements, from :func:`~choqlat.poset._downsets`; the bipolar extension,
each disjoint pair the code of a downset of two copies of the base,
positive part low (counted per downset before it is built); the admissible
pairs, filtered from it. Label sets and signed pairs are a view, built on
first read. One walk over each code's maximal elements lists the covers:
the step plan of the zeta/Moebius transforms, also the Hasse diagram. The
pair-code layout is written only here: by the families, by
:func:`_pair_code` for a grid file's pairs and the per-criterion codes of
their negative parts, and by :func:`_vertex_code` for label sets and pairs
of them, a label-format file's keys among them. Each
family checks the keys it does not hold (:meth:`_Family.check`): a lattice
element, a pair of disjoint ones (:func:`check_bipolar_pair`), or a pair in
some tile; a file's code is read back as its labels first
(:meth:`_Family.label`). Membership and tile questions read the base's
masks (:func:`~choqlat.poset.is_downset`), never the lattice.
"""

from __future__ import annotations

from array import array
from functools import cached_property
from itertools import compress
from typing import Callable, Iterable, Mapping, NamedTuple, TypeVar

from ._record import frozen_record
from .errors import NotALattice, NotAnElement, NotDistributive, NotInBipolarExtension, NotInTile
from .errors import SizeLimitExceeded, UnknownLabel
from .poset import DOWNSET_CAP, Poset, _component_masks, _downsets, _label_sets
from .poset import downset_key, is_downset

T = TypeVar("T")


class DownsetLattice:
    """The lattice of all downsets of ``base``, ordered by inclusion.

    Bottom is the empty set, top is the whole ground set. Elements are
    enumerated as codes on first need, their label sets (:attr:`elements`)
    on first read; ``DOWNSET_CAP`` guards the family. Tables that other
    modules derive from the lattice are cached with it by :meth:`derived`.
    """

    def __init__(self, base: Poset):
        self.base = base
        self._derived: dict = {}

    @cached_property
    def elements(self) -> tuple[frozenset, ...]:
        return tuple(_label_sets(self.base, self.derived(_lattice_family).order))

    @property
    def bottom(self) -> frozenset:
        return frozenset()

    @cached_property
    def top(self) -> frozenset:
        return frozenset(self.base.elements)

    def __len__(self) -> int:
        return len(self.derived(_lattice_family).order)

    def __contains__(self, item) -> bool:
        """Decided on the base's masks, never by enumerating the lattice."""
        try:
            return is_downset(self.base, item)
        except (TypeError, UnknownLabel):  # no label set, or not of the base
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
        if member not in self:
            shown = sorted(member, key=str)  # labels of mixed types too
            raise NotAnElement(f"{shown!r} is not a downset of the base poset", element=shown)
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
        """All covering pairs (lower, upper), by lower then upper position;
        upper adds one base element."""
        return self.derived(_lattice_family).covers()

    def complemented(self) -> dict[frozenset, frozenset]:
        """Elements whose set complement is again a downset, with complements."""
        family, top, full = self.derived(_lattice_family), self.top, (1 << len(self.base)) - 1
        kept = [full ^ code in family.codes for code in family.order]
        return {d: top - d for d in compress(self.elements, kept)}


class BipolarElement(NamedTuple):
    """Signed vertex: a positive and a negative part with empty meet."""

    pos: frozenset
    neg: frozenset


def bipolar_extension(lattice: DownsetLattice) -> tuple[BipolarElement, ...]:
    """Every ordered pair of disjoint lattice elements, by the lattice order
    of the positive part, then of the negative part. Built once per lattice;
    refused with :class:`SizeLimitExceeded` before it is built when the
    count is over ``DOWNSET_CAP``."""
    return lattice.derived(_extension_family).vertices


def bipolar_cover_pairs(
    lattice: DownsetLattice,
) -> list[tuple[BipolarElement, BipolarElement]]:
    """Covering pairs of the bipolar extension of ``lattice``.

    An upper cover adds one base element j, outside both parts, to one part
    that already holds everything strictly below j. Pairs are ordered by the
    position in :func:`bipolar_extension` of the lower element, then of the
    upper one.
    """
    return lattice.derived(_extension_family).covers()


class _Family:
    """One vertex family of a lattice: ``order``, its vertices' codes in
    domain order, and ``maxima``, each one's maximal elements; and, each
    built on first read, ``codes`` (each code mapped to its position), the
    ``vertices`` they stand for, their ``positions`` and the step ``plan``.
    ``signed`` families hold pairs (pos, neg) of disjoint lattice elements,
    each coded as a downset of two copies of the base, code(neg) << |base|
    | code(pos): the positive part in the low bits."""

    def __init__(self, lattice: DownsetLattice, order: list[int], maxima: list[int], signed: bool):
        self.lattice, self.order, self.maxima, self.signed = lattice, order, maxima, signed

    @cached_property
    def codes(self) -> dict[int, int]:
        """Each vertex's code mapped to its position, in domain order."""
        return {code: k for k, code in enumerate(self.order)}

    @cached_property
    def vertices(self) -> tuple:
        """The label view: the lattice's elements, or pairs of them."""
        elements, width = self.lattice.elements, len(self.lattice.base)
        if not self.signed:
            return elements
        part = dict(zip(self.lattice.derived(_lattice_family).order, elements))
        low = (1 << width) - 1
        return tuple([BipolarElement(part[c & low], part[c >> width]) for c in self.order])

    @cached_property
    def positions(self) -> dict:
        """Each vertex mapped to its position."""
        return {v: k for k, v in enumerate(self.vertices)}

    def label(self, key):
        """The labels of ``key`` when it is a vertex code: its label set, or
        its pair of them; any other key as it is."""
        if type(key) is not int:
            return key
        base, width = self.lattice.base, len(self.lattice.base)
        labels = base._labels(key & (1 << width) - 1), base._labels(key >> width)
        return BipolarElement(*labels) if self.signed else labels[0]

    def check(self, key):
        """``key``, a label set or a pair of them, as one of this family's
        vertices, else the error that says why it is none: no lattice
        element, no pair of disjoint ones, or a pair in no tile."""
        if not self.signed:
            return self.lattice.check_element(key)
        pos, neg = pair = check_bipolar_pair(self.lattice, key)
        if _vertex_code(self.lattice.base, pair) not in self.codes:
            shown = {"pos": sorted(pos), "neg": sorted(neg)}
            raise NotInTile(f"({shown['pos']!r}, {shown['neg']!r}) lies in no tile", **shown)
        return pair

    def chain(self, masks: Iterable[int], positive: int | None = None) -> list[int]:
        """Positions of the chain vertices ``masks``, bit codes of downsets.
        With ``positive``, the bit code of a tile's positive side, each
        downset is split along the tile: the bits outside it move to the
        negative half of the pair's code."""
        if positive is None:
            return list(map(self.codes.__getitem__, masks))
        width = len(self.lattice.base)
        return [self.codes[(m & ~positive) << width | m & positive] for m in masks]

    @cached_property
    def plan(self) -> tuple:
        """The step plan of :func:`_step_plan` over :attr:`codes`, built for
        the transforms and the Hasse diagram; the monotonicity check walks
        the maxima itself and builds none."""
        return _step_plan(self.codes, self.maxima)

    def covers(self) -> list[tuple]:
        """The (lower, upper) pairs of the plan, by the position of the
        lower vertex, then of the upper one."""
        keys, lowers = self.plan
        return [(self.vertices[lo], self.vertices[up]) for lo, up in sorted(zip(lowers, keys))]


def _lattice_family(lattice: DownsetLattice, bound: int | None = None) -> _Family:
    """The family of the lattice's elements, enumerated unless the lattice
    holds it already, and kept with it (:meth:`DownsetLattice.derived`);
    past ``bound`` elements (default ``DOWNSET_CAP``) the count is refused
    at once with :class:`SizeLimitExceeded`."""
    held = lattice._derived
    if _lattice_family not in held:
        held[_lattice_family] = _Family(lattice, *_downsets(lattice.base, bound), signed=False)
    return held[_lattice_family]


def _pair_code(pos: int, neg: int, width: int) -> int:
    """The code of the pair of downset codes (pos, neg) on a base of
    ``width`` elements: the positive part in the low bits."""
    return neg << width | pos


def _vertex_code(base: Poset, parts) -> int:
    """The code of the vertex whose parts are the label sets ``parts``, one
    for a lattice element and (pos, neg) for a pair: each part's code is the
    OR of its labels' bits, and a pair's the :func:`_pair_code` of its two.
    A label outside the base raises ``KeyError``."""
    codes = [sum(map(base._bit.__getitem__, part)) for part in parts]
    return _pair_code(*codes, len(base)) if len(codes) == 2 else codes[0]


def check_bipolar_pair(lattice: DownsetLattice, pair) -> tuple[frozenset, frozenset]:
    """``pair`` as two disjoint lattice elements (pos, neg), else the error
    naming the part that is none or the labels they share."""
    pos, neg = pair
    pos, neg = lattice.check_element(pos), lattice.check_element(neg)
    if overlap := sorted(pos & neg):
        raise NotInBipolarExtension(f"parts are not disjoint: {overlap!r}", overlap=overlap)
    return pos, neg


def _refuse_overlaps(lattice: DownsetLattice, codes: Iterable[int]) -> None:
    """Refuse the first pair code of ``codes`` whose parts overlap, read as
    its labels, as :func:`check_bipolar_pair` refuses them; no vertex family
    is built."""
    base, width = lattice.base, len(lattice.base)
    for code in codes:
        if code & code >> width:
            check_bipolar_pair(lattice, map(base._labels, (code & (1 << width) - 1, code >> width)))


def _extension_family(lattice: DownsetLattice) -> _Family:
    """A disjoint pair (a, b) is a downset d = a | b whose connected
    components each go to one side, so d gives 2^(components of d) pairs.
    Less its highest bit (its last element in the linear extension), d is a
    downset whose components are known; that element joins those that hold
    an element below it. The pairs are counted first, then built, sorted on
    the integers p * |L| + q for the positions p and q of their parts."""
    elements, base = lattice.derived(_lattice_family), lattice.base
    position = elements.codes
    below = [base._down[j] ^ bit for j, bit in base._bit.items()]
    parts, size = {0: ()}, 1
    for code in list(position)[1:]:
        top = code.bit_length() - 1
        kept = [part for part in parts[code ^ 1 << top] if not part & below[top]]
        parts[code] = (*kept, code ^ sum(kept))
        size += 1 << len(parts[code])
        if size > DOWNSET_CAP:
            what = f"bipolar extension has at least {size} pairs"
            raise SizeLimitExceeded.over(what, DOWNSET_CAP)
    n = len(position)
    keys = []
    for code, components in parts.items():
        sides = [0]
        for part in components:
            sides += [side | part for side in sides]
        keys += [position[side] * n + position[code ^ side] for side in sides]
    keys.sort()
    width, order, tops = len(base), elements.order, elements.maxima
    codes = [order[key % n] << width | order[key // n] for key in keys]
    maxima = [tops[key % n] << width | tops[key // n] for key in keys]
    return _Family(lattice, codes, maxima, signed=True)


def _admissible_family(lattice: DownsetLattice) -> _Family:
    """The admissible pairs: on a regular mosaic the extension's family, else
    the pairs whose parts do not both meet a component with two bottoms."""
    extension, base, width = lattice.derived(_extension_family), lattice.base, len(lattice.base)
    parts, masks, _ = _component_masks(base)
    shared = [mask for part, mask in zip(parts, masks) if len(part.minimals) > 1]
    if not shared:
        return extension
    kept = [not any(code & c and code >> width & c for c in shared) for code in extension.order]
    codes, maxima = compress(extension.order, kept), compress(extension.maxima, kept)
    return _Family(lattice, list(codes), list(maxima), signed=True)


def _step_plan(at: dict[int, int], maxima: list[int]) -> tuple:
    """Index arrays (keys, lowers) of a family of codes, a key and its
    lower key at each step that clears one bit, the steps by bit, lowest
    bit first. Only the transforms and the Hasse diagram read them:
    ``is_monotone`` walks the same covers without a plan.

    ``at`` maps each code of a down-closed family to its position, and
    ``maxima`` are the codes' maximal elements. A key takes part in the step
    of each maximal bit: clearing it leaves a downset, held by the family.
    So each interval below a key is the same in the family as in the full
    product of lattices, and the pairs are its covering pairs, each once.
    Within one step no key is another's lower key, so the flat sequence,
    read backwards, is also the inverse's order of steps.
    """
    steps = [[] for _ in range(max(at).bit_length())]
    for (code, k), top in zip(at.items(), maxima):
        while top:
            bit = top & -top
            top ^= bit
            steps[bit.bit_length() - 1] += (k, at[code ^ bit])
    flat = array("i")
    for pairs in steps:
        flat.extend(pairs)
    return flat[0::2], flat[1::2]


@frozen_record
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
    Two elements have a join exactly when their common upper bounds are one
    element's upset (a meet likewise, with downsets): one lookup per pair.
    """
    elems = explicit.elements
    n = len(elems)
    if n == 0:
        raise NotALattice("a lattice needs at least one element")
    down, up = explicit._down, {}
    for x in reversed(explicit._topo):
        up[x] = explicit._bit[x]
        for upper in explicit.upper_covers(x):
            up[x] |= up[upper]
    ups, downs = set(up.values()), set(down.values())
    # a pair fails in both orders, so the first failure has x before y
    for i, x in enumerate(elems):
        for y in elems[i + 1:]:
            if up[x] & up[y] not in ups:
                raise NotALattice(f"{x!r} and {y!r} have no join", x=x, y=y)
            if down[x] & down[y] not in downs:
                raise NotALattice(f"{x!r} and {y!r} have no meet", x=x, y=y)
    irreducibles = [x for x in elems if len(explicit.lower_covers(x)) == 1]
    lattice = DownsetLattice(explicit.restrict(irreducibles))
    try:
        _lattice_family(lattice, n)  # kept with the lattice
    except SizeLimitExceeded:
        raise NotDistributive(
            f"the join-irreducible poset has more downsets than the lattice"
            f" has elements ({n})"
        ) from None
    # no fewer: x -> {join-irreducibles <= x} is one-to-one, x being their join
    inside = sum(map(explicit._bit.get, irreducibles))
    eta_map = {x: explicit._labels(down[x] & inside) for x in elems}
    return BirkhoffForm(lattice, eta_map)


def explicit_poset(
    lattice: DownsetLattice, label: Callable[[frozenset], str] | None = None
) -> Poset:
    """Explicit element/cover presentation of the lattice (files, display)."""
    if label is None:
        label = lambda d: "{" + ",".join(sorted(d)) + "}"
    names = {d: label(d) for d in lattice.elements}
    covers = [(names[a], names[b]) for a, b in lattice.cover_pairs()]
    return Poset(names.values(), covers)
