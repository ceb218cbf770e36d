"""Shared generators and fixtures for the test suite.

Hypothesis strategies cover the property tests; the plain ``random.Random``
helpers drive the seeded bulk runs in the acceptance module.
"""

from __future__ import annotations

import argparse
import io
import itertools
import operator
import os
import resource
import subprocess
import sys
from array import array
from contextlib import contextmanager, redirect_stdout
from decimal import Decimal, InvalidOperation
from fractions import Fraction
import random

from hypothesis import strategies as st

import choqlat as cq
from choqlat import fileio
from choqlat.birkhoff import _Family, _lattice_family
from choqlat.kary import LevelIndexing, _grid
from choqlat.moebius import ValueTable, check_bipolar_pair
from choqlat.poset import DOWNSET_CAP, _downsets
from choqlat.rationals import MAX_DIGITS, MAX_EXPONENT, _ratio


class Unscannable(dict):
    """A position dict that fails when iterated or a key is looked up in it:
    a table built on it and handed over unscanned does neither."""

    def __iter__(self):
        raise AssertionError("the position dict was scanned")

    def __getitem__(self, key):
        raise AssertionError("the position dict was scanned")


@contextmanager
def values_unread():
    """Inside the block, reading any value of any ``ValueTable`` fails: every
    read of a table's values (``[]``, ``get``, ``values()``, ``items()``,
    equality) goes through ``ValueTable.__getitem__``."""

    def refuse(table, key):
        raise AssertionError(f"a value of {table!r} was read at {key!r}")

    original = ValueTable.__getitem__
    ValueTable.__getitem__ = refuse
    try:
        yield
    finally:
        ValueTable.__getitem__ = original


def run_bounded(argv, cwd, wall_s: float, limit_kb: int) -> subprocess.CompletedProcess:
    """``python argv`` in ``cwd`` with the package on its path, its address space
    capped at ``limit_kb`` KB on the child only, and killed after ``wall_s`` s."""
    cap = lambda: resource.setrlimit(resource.RLIMIT_AS, (limit_kb * 1024,) * 2)
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cq.__file__))}
    return subprocess.run([sys.executable, *argv], cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=wall_s, preexec_fn=cap)


def wedge_poset() -> cq.Poset:
    """Three elements, one top covering two incomparable bottoms."""
    return cq.Poset(["a", "b", "c"], [("a", "b"), ("c", "b")])


def fan(m: int) -> cq.Poset:
    """One bottom under m atoms: 2^m + 1 downsets, 2^(m+1) + 1 disjoint pairs."""
    atoms = [f"a{i:02d}" for i in range(1, m + 1)]
    return cq.Poset(["o", *atoms], [("o", a) for a in atoms])


def wedge(m: int) -> cq.Poset:
    """m bottoms under one top: 2^m + 1 downsets, 3^m + 2 disjoint pairs."""
    bottoms = [f"b{i:02d}" for i in range(1, m + 1)]
    return cq.Poset([*bottoms, "t"], [(b, "t") for b in bottoms])


def antichain(n: int) -> cq.Poset:
    return cq.Poset([str(i) for i in range(1, n + 1)], [])


def chain(m: int) -> cq.Poset:
    labels = [f"x{i}" for i in range(m)]
    return cq.Poset(labels, list(zip(labels, labels[1:])))


def parallel_chains(m: int) -> cq.Poset:
    """Two disjoint chains a0000 < a0001 < ... and b0000 < ... of m elements."""
    a = [f"a{i:04d}" for i in range(m)]
    b = [f"b{i:04d}" for i in range(m)]
    return cq.Poset(a + b, [*zip(a, a[1:]), *zip(b, b[1:])])


def long_denominator_values(labels) -> dict[str, str]:
    """Nonincreasing values in [0, 1] on a chain of ``labels``, bottom
    first, over distinct 490-digit denominators: the i-th of m values is
    floor((m - i) q / (m + 1)) / q, with q = 10**489 + 2i + 1."""
    m = len(labels)
    values = {}
    for i, label in enumerate(labels):
        q = 10**489 + 2 * i + 1
        values[label] = f"{(m - i) * q // (m + 1)}/{q}"
    return values


def poset_from_ranked_flags(labels, ranking, flags) -> cq.Poset:
    """Poset from a hidden ranking and one comparability flag per index pair.

    The flagged pairs are transitively closed, then reduced to covers, so
    the result is always a valid poset.
    """
    n = len(labels)
    rel = [[False] * n for _ in range(n)]
    position = {x: i for i, x in enumerate(ranking)}
    flat = iter(flags)
    for i in range(n):
        for j in range(i + 1, n):
            lo, hi = (i, j) if position[i] < position[j] else (j, i)
            if next(flat):
                rel[lo][hi] = True
    for mid in range(n):
        for lo in range(n):
            if rel[lo][mid]:
                for hi in range(n):
                    if rel[mid][hi]:
                        rel[lo][hi] = True
    covers = []
    for lo in range(n):
        for hi in range(n):
            if rel[lo][hi] and not any(rel[lo][m] and rel[m][hi] for m in range(n)):
                covers.append((labels[lo], labels[hi]))
    return cq.Poset(labels, covers)


@st.composite
def posets(draw, min_elements=0, max_elements=5):
    n = draw(st.integers(min_value=min_elements, max_value=max_elements))
    labels = [f"p{i}" for i in range(n)]
    ranking = draw(st.permutations(range(n)))
    flags = draw(
        st.lists(st.booleans(), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2)
    )
    return poset_from_ranked_flags(labels, ranking, flags)


@st.composite
def lattices(draw, min_elements=0, max_elements=5):
    return cq.DownsetLattice(draw(posets(min_elements, max_elements)))


@st.composite
def explicit_orders(draw, max_elements=6):
    """Orders for the lattice check: random posets, the same with a bottom
    and a top adjoined (often lattices, not always distributive ones), and
    explicit forms of downset lattices."""
    kind = draw(st.sampled_from(["poset", "bounded", "distributive"]))
    if kind == "distributive":
        return cq.explicit_poset(draw(lattices(max_elements=4)))
    p = draw(posets(max_elements=max_elements))
    if kind == "poset":
        return p
    covers = [*p.covers, ("bot", "top")] if not p.elements else list(p.covers)
    covers += [("bot", x) for x in p.elements if not p.lower_covers(x)]
    covers += [(x, "top") for x in p.elements if not p.upper_covers(x)]
    return cq.Poset([*p.elements, "bot", "top"], covers)


# slow reference order algorithms on frozensets of labels: the closure, the
# transitive reduction, the pairwise bound scan and the component search


def slow_below(p: cq.Poset) -> dict[str, frozenset]:
    """Each element's principal downset, one union per lower cover."""
    below: dict[str, frozenset] = {}
    for x in cq.linear_extension(p):
        below[x] = frozenset({x}).union(*(below[lower] for lower in p.lower_covers(x)))
    return below


def slow_all_downsets(p: cq.Poset, max_count: int | None = None) -> list[frozenset]:
    """Every downset as label sets, enumerated as it was before downsets
    were codes: grown one element at a time along the linear extension,
    then put in the order of ``downset_key`` by two sorts."""
    cap = DOWNSET_CAP if max_count is None else max_count
    family: list[frozenset] = [frozenset()]
    if len(family) > cap:
        raise cq.SizeLimitExceeded(f"downset family exceeds cap {cap}", cap=cap)
    for label in cq.linear_extension(p):
        required = frozenset(p.lower_covers(label))
        grown = [d | {label} for d in family if required <= d]
        if len(family) + len(grown) > cap:
            raise cq.SizeLimitExceeded(f"downset family exceeds cap {cap}", cap=cap)
        family.extend(grown)
    # the order of downset_key, in two stable sorts whose keys are lists, not
    # tuples, so no tuple of labels outlives the sort
    family.sort(key=sorted)
    family.sort(key=len)
    return family


def slow_is_downset(p: cq.Poset, members) -> bool:
    below, kept = slow_below(p), set(members)
    return all(below[label] <= kept for label in kept)


def reduce_order(elements, leq) -> list[tuple]:
    """Transitive reduction (covering pairs) of an explicit finite order."""
    covers = []
    for a in elements:
        for b in elements:
            if a == b or not leq(a, b):
                continue
            if any(c not in (a, b) and leq(a, c) and leq(c, b) for c in elements):
                continue
            covers.append((a, b))
    return covers


def slow_restrict(p: cq.Poset, members) -> cq.Poset:
    below, kept = slow_below(p), sorted(set(members))
    return cq.Poset(kept, reduce_order(kept, lambda a, b: a in below[b]))


def slow_components(p: cq.Poset) -> tuple:
    """Search of the cover graph from each unvisited element, by label."""
    neighbours: dict[str, set[str]] = {x: set() for x in p.elements}
    for lower, upper in p.covers:
        neighbours[lower].add(upper)
        neighbours[upper].add(lower)
    unvisited = set(p.elements)
    out = []
    for seed in p.elements:
        if seed not in unvisited:
            continue
        unvisited.discard(seed)
        stack, members = [seed], set()
        while stack:
            x = stack.pop()
            members.add(x)
            for y in neighbours[x]:
                if y in unvisited:
                    unvisited.discard(y)
                    stack.append(y)
        minimals = frozenset(x for x in members if not p.lower_covers(x))
        out.append(cq.Component(frozenset(members), minimals))
    return tuple(out)


def _slow_bound(p: cq.Poset, below: dict, x: str, y: str, *, upper: bool) -> str:
    rel = lambda a, b: a in below[b]
    if upper:
        shared = [z for z in p.elements if rel(x, z) and rel(y, z)]
        extremal = [z for z in shared if all(rel(z, w) for w in shared)]
    else:
        shared = [z for z in p.elements if rel(z, x) and rel(z, y)]
        extremal = [z for z in shared if all(rel(w, z) for w in shared)]
    if len(extremal) != 1:
        kind = "join" if upper else "meet"
        raise cq.NotALattice(f"{x!r} and {y!r} have no {kind}", x=x, y=y)
    return extremal[0]


def slow_verify_distributive(explicit: cq.Poset) -> cq.BirkhoffForm:
    """Every ordered pair's join and meet by scanning all common bounds."""
    elems = explicit.elements
    n = len(elems)
    if n == 0:
        raise cq.NotALattice("a lattice needs at least one element")
    below = slow_below(explicit)
    for x in elems:
        for y in elems:
            _slow_bound(explicit, below, x, y, upper=True)
            _slow_bound(explicit, below, x, y, upper=False)
    irreducibles = [x for x in elems if len(explicit.lower_covers(x)) == 1]
    base = slow_restrict(explicit, irreducibles)
    try:
        count = len(cq.all_downsets(base, max_count=n))
    except cq.SizeLimitExceeded:
        raise cq.NotDistributive(
            f"the join-irreducible poset has more downsets than the lattice"
            f" has elements ({n})"
        ) from None
    if count != n:
        raise cq.NotDistributive(
            f"lattice has {n} elements but the join-irreducible poset has"
            f" {count} downsets"
        )
    eta_map = {x: frozenset(j for j in irreducibles if j in below[x]) for x in elems}
    return cq.BirkhoffForm(cq.DownsetLattice(base), eta_map)


unit_fractions = st.fractions(min_value=0, max_value=1, max_denominator=12)
small_fractions = st.fractions(min_value=-2, max_value=2, max_denominator=8)


def nonincreasing(base: cq.Poset, raw: dict) -> dict:
    """Largest value over each up-set; always a valid profile shape."""
    return {
        j: max(raw[x] for x in base.elements if base.leq(j, x))
        for j in base.elements
    }


@st.composite
def profiles(draw, base: cq.Poset, values=unit_fractions):
    raw = {label: draw(values) for label in base.elements}
    return cq.Profile(base, nonincreasing(base, raw))


# few distinct values, zero among them: profiles full of ties
tied_values = st.sampled_from((Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1)))


# profile values over denominators of up to 30 digits
large_unit_fractions = st.integers(1, 10**30).flatmap(
    lambda d: st.builds(Fraction, st.integers(0, d), st.just(d))
)
# and over denominators of up to 300 digits
huge_unit_fractions = st.integers(1, 10**300).flatmap(
    lambda d: st.builds(Fraction, st.integers(0, d), st.just(d))
)
PROFILE_VALUES = {
    "unit": unit_fractions,
    "tied": tied_values,
    "large": large_unit_fractions,
    "huge": huge_unit_fractions,
}


# values whose denominators often divide a power of ten, so that decimal and
# exponent text can write them
decimal_unit_fractions = st.sampled_from((1, 2, 3, 4, 5, 7, 8, 10, 12, 20, 25, 40)).flatmap(
    lambda d: st.builds(Fraction, st.integers(0, d), st.just(d))
)


@st.composite
def unreduced_texts(draw, value: Fraction) -> str:
    """Text for ``value`` with its integers scaled up: p/q with both sides
    multiplied, a decimal with trailing zeros, or an exponent form whose
    digits are shifted, and signed zeros for 0."""
    n, d = value.numerator, value.denominator
    sign = "-" if n < 0 else draw(st.sampled_from(("", "+")))
    extra = draw(st.integers(1, 3))
    forms = [f"{sign}{abs(n) * (extra + 1)}/{d * (extra + 1)}"]
    digits = next((k for k in range(7) if 10**k % d == 0), None)
    if digits is not None:
        places = digits + extra
        scaled = abs(n) * 10**places // d
        whole, rest = divmod(scaled, 10**places)
        forms += [f"{sign}{whole}.{rest:0{places}d}", f"{sign}{scaled}e-{places}"]
    if not n:
        forms += ["-0/7", "+0.0", "-0e5", "-.000"]
    return draw(st.sampled_from(forms))


@st.composite
def signed_profiles(draw, base: cq.Poset, values=unit_fractions):
    """A profile's values with a sign drawn per label."""
    magnitude = draw(profiles(base, values))
    return cq.BipolarProfile(
        base, {j: v if draw(st.booleans()) else -v for j, v in magnitude.values.items()}
    )


@st.composite
def capacities(draw, lattice: cq.DownsetLattice, game=False):
    values = {element: draw(small_fractions) for element in lattice.elements}
    if game:
        values[lattice.bottom] = Fraction(0)
    return cq.GeneralizedCapacity(lattice, values)


nonnegative_weights = st.fractions(min_value=0, max_value=2, max_denominator=6)


def _monotone_or_not(draw, table: dict) -> dict:
    """A monotone ``table`` as it is, with one value moved, or replaced by
    free draws."""
    kind = draw(st.sampled_from(["monotone", "moved", "free"]))
    if kind == "moved":
        table[draw(st.sampled_from(list(table)))] += draw(small_fractions)
    elif kind == "free":
        table = {key: draw(small_fractions) for key in table}
    return table


@st.composite
def capacity_tables(draw, lattice: cq.DownsetLattice):
    """Values on the lattice: additive with nonnegative weights, or not."""
    w = {j: draw(nonnegative_weights) for j in lattice.base.elements}
    table = {x: sum((w[j] for j in x), Fraction(0)) for x in lattice.elements}
    return _monotone_or_not(draw, table)


@st.composite
def bipolar_capacity_tables(draw, lattice: cq.DownsetLattice):
    """Values on the admissible pairs: nonnegative weights summed over the
    positive part minus others over the negative part, or not."""
    plus = {j: draw(nonnegative_weights) for j in lattice.base.elements}
    minus = {j: draw(nonnegative_weights) for j in lattice.base.elements}
    table = {
        pair: sum((plus[j] for j in pair.pos), Fraction(0))
        - sum((minus[j] for j in pair.neg), Fraction(0))
        for pair in cq.admissible_vertex_pairs(lattice)
    }
    return _monotone_or_not(draw, table)


# Vertex values whose common denominator varies: 1 (zero and integer
# tables), small and mixed, pairwise coprime primes, or dozens of digits.
PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
VALUE_KINDS = {
    "zero": st.just(Fraction(0)),
    "integer": st.integers(-10**6, 10**6).map(Fraction),
    "small": st.fractions(min_value=-3, max_value=3, max_denominator=60),
    "coprime": st.builds(Fraction, st.integers(-50, 50), st.sampled_from(PRIMES)),
    "large": st.builds(Fraction, st.integers(-10**40, 10**40), st.integers(1, 10**30)),
}
VALUE_KINDS["mixed"] = st.one_of(*VALUE_KINDS.values())


@st.composite
def exact_tables(draw, keys, kind=None):
    """One exact value per key, all drawn from ``VALUE_KINDS[kind]`` (a kind
    drawn too when none is given)."""
    values = VALUE_KINDS[kind or draw(st.sampled_from(sorted(VALUE_KINDS)))]
    return {key: draw(values) for key in keys}


def slow_disjoint_element_pairs(lattice: cq.DownsetLattice) -> tuple:
    """The plain double loop over the lattice: every ordered disjoint pair."""
    elems = lattice.elements
    return tuple((a, b) for a in elems for b in elems if not (a & b))


# slow reference covering relations: try every base element on every
# element (and, in the signed case, on either side)


def slow_cover_pairs(lattice: cq.DownsetLattice) -> list:
    out = []
    for d in lattice.elements:
        for j in lattice.base.elements:
            if j not in d and (lattice.base.below(j) - {j}) <= d:
                out.append((d, d | {j}))
    return out


def slow_bipolar_cover_pairs(lattice: cq.DownsetLattice) -> list:
    base = lattice.base
    extension = [cq.BipolarElement(*pair) for pair in slow_disjoint_element_pairs(lattice)]
    index = {pair: i for i, pair in enumerate(extension)}
    needs = [(j, base.below(j) - {j}) for j in base.elements]
    out = []
    for lower in extension:
        pos, neg = lower
        uppers = []
        for j, required in needs:
            if j in pos or j in neg:
                continue
            if required <= pos:
                uppers.append(cq.BipolarElement(pos | {j}, neg))
            if required <= neg:
                uppers.append(cq.BipolarElement(pos, neg | {j}))
        uppers.sort(key=index.__getitem__)
        out += [(lower, upper) for upper in uppers]
    return out


# grids, two parallel chains, a wedge and an antichain on which the step
# plans are checked
PLAN_BASES = {
    "grid3x2": cq.build_kary_base(3, 2),
    "grid4x3": cq.build_kary_base(4, 3),
    "grid4x4": cq.build_kary_base(4, 4),
    "grid6x5": cq.build_kary_base(6, 5),
    "grid2x11": cq.build_kary_base(2, 11),
    "chains32x2": parallel_chains(32),
    "wedge": wedge_poset(),
    "antichain8": antichain(8),
    "empty": cq.Poset([]),
}


def slow_step_plan(lattice: cq.DownsetLattice, sides: int) -> tuple:
    """The step plan as it was built before every vertex had one code: keys
    are lattice positions (one side) or pairs packed as p * |L| + q from the
    positions p and q of their parts (two sides), and each key's lower
    covers come from a per-element drop table, scaled into the side."""
    position = lattice.derived(_lattice_family).codes
    width, n = len(lattice.base), len(position)
    drops = [
        [(t, position[code ^ 1 << t]) for t in range(width)
         if code >> t & 1 and code ^ 1 << t in position]
        for code in position
    ]
    index = {x: i for i, x in enumerate(lattice.elements)}
    keys = range(n) if sides == 1 else [
        index[pos] * n + index[neg] for pos, neg in cq.bipolar_extension(lattice)
    ]
    at = {key: k for k, key in enumerate(keys)}
    steps = [[] for _ in range(sides * width)]
    shifts = [(side * width, n ** (sides - 1 - side)) for side in range(sides)]
    for k, key in enumerate(keys):
        for shift, scale in shifts:
            p = key // scale % n
            for t, lower in drops[p]:
                steps[shift + t] += (k, at[key + (lower - p) * scale])
    flat = array("i")
    for pairs in steps:
        flat.extend(pairs)
    return flat[0::2], flat[1::2]


def maximal_count(base: cq.Poset, vertices) -> int:
    """The maximal elements of every part of every vertex, a label set or a
    pair of them, counted on labels: an element with no upper cover in its
    part."""
    parts = (p for v in vertices for p in (v if isinstance(v, tuple) else (v,)))
    return sum(1 for part in parts for x in part if part.isdisjoint(base.upper_covers(x)))


def slow_admissible_steps(lattice: cq.DownsetLattice) -> tuple:
    """The covers between admissible pairs by filtering the extension's
    step plan (:func:`slow_step_plan`) through the admissible positions:
    (upper, lower) lists growing the positive part, then the negative."""
    positions = {pair: i for i, pair in enumerate(cq.admissible_vertex_pairs(lattice))}
    extension = cq.bipolar_extension(lattice)
    stored = [positions.get(pair) for pair in extension]
    rising, falling = ([], []), ([], [])
    for key, lower in zip(*slow_step_plan(lattice, 2)):
        upper_at, lower_at = stored[key], stored[lower]
        if upper_at is not None and lower_at is not None:
            steps = rising if extension[key].neg == extension[lower].neg else falling
            steps[0].append(upper_at)
            steps[1].append(lower_at)
    return rising, falling


def slow_bipolar_is_monotone(capacity: cq.BipolarCapacity) -> bool:
    stored = capacity.values
    for (pos, neg), value in stored.items():
        for j in capacity.base.elements:
            grown_pos = cq.BipolarElement(pos | {j}, neg)
            if j not in pos and grown_pos in stored and stored[grown_pos] < value:
                return False
            grown_neg = cq.BipolarElement(pos, neg | {j})
            if j not in neg and grown_neg in stored and stored[grown_neg] > value:
                return False
    return True


def slow_admissible_pairs(lattice: cq.DownsetLattice) -> tuple:
    """Disjoint pairs whose parts touch disjoint sets of components."""
    comp_index = {}
    for i, comp in enumerate(cq.connected_components(lattice.base)):
        for label in comp.members:
            comp_index[label] = i
    return tuple(
        (pos, neg)
        for pos, neg in slow_disjoint_element_pairs(lattice)
        if not {comp_index[l] for l in pos} & {comp_index[l] for l in neg}
    )


def moebius_function(p: cq.Poset, lower: str, upper: str, cache: dict | None = None) -> int:
    """Moebius function of a poset between two comparable elements."""
    p.leq(lower, upper)  # raises UnknownLabel early
    return cq.rota_moebius(p.elements, p.leq, lower, upper, cache)


# slow reference parser: every string through the regular expression of
# Fraction, then Decimal


def _slow_quoted(text: str) -> str:
    """A value's rendering as an error message quotes it: whole up to 64
    characters, else the first 24, "...", and the length in characters."""
    if len(text) > 64:
        return text[:24] + "... (" + str(len(text)) + " characters)"
    return text


def _slow_check_exponent(text: str, value: str) -> None:
    _, _, exponent = text.lower().partition("e")
    try:
        size = abs(int(exponent.replace("_", "")))
    except ValueError:
        return
    if size > MAX_EXPONENT:
        raise ValueError(f"exponent beyond {MAX_EXPONENT} in {_slow_quoted(repr(value))}")


def slow_as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("booleans are not numeric values")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, (Decimal, float)):
        number = value if isinstance(value, Decimal) else Decimal(repr(value))
        if number.is_nan() or number.is_infinite():
            raise ValueError(f"{_slow_quoted(repr(value))} is not a finite number")
        return Fraction(number)
    if isinstance(value, str):
        text = value.strip()
        if len(text) > MAX_DIGITS:
            raise ValueError(f"number longer than {MAX_DIGITS} characters: {value[:20]!r}...")
        if "e" in text or "E" in text:
            _slow_check_exponent(text, value)
        try:
            return Fraction(text)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {_slow_quoted(repr(value))}") from None
        except ValueError:
            pass
        try:
            number = Decimal(text)
        except InvalidOperation:
            raise ValueError(f"cannot parse {_slow_quoted(repr(value))} as a rational") from None
        if not number.is_finite():
            raise ValueError(f"{_slow_quoted(repr(value))} is not a finite number")
        return Fraction(number)
    raise TypeError(f"cannot interpret {type(value).__name__} as a rational")


# slow reference capacity file readers, on Fractions and label sets: each
# value made a Fraction by ``as_fraction``, duplicates compared as
# Fractions, grid entries checked per coordinate and re-keyed from their
# codes to the lattice's label sets


def _slow_read_entries(obj, what: str, names: tuple[str, ...], part) -> dict:
    entries = fileio._require(obj, "values", f"{what} file")
    if not isinstance(entries, list):
        raise cq.FileFormatError("values must be a list", field="values")
    where = f"{what} entry"
    pair = len(names) == 2
    table: dict = {}
    for entry in entries:
        vertex = part(entry, names[0], where)
        if pair:
            vertex = (vertex, part(entry, names[1], where))
        raw = fileio._require(entry, "value", where)
        try:
            value = cq.as_fraction(raw)
        except (TypeError, ValueError) as exc:
            raise cq.FileFormatError(f"bad value in value: {exc}", field="value") from None
        if table.setdefault(vertex, value) != value:
            fields = {name: entry[name] for name in names}
            shown = ", ".join(repr(v) for v in fields.values())
            label = f"({shown})" if pair else f"{names[0]} {shown}"
            raise cq.ContradictoryValue(f"two different values for {label}", **fields)
    return table


def _slow_label_capacity(obj, what: str, names: tuple[str, ...], capacity):
    lattice, _ = fileio.parse_lattice(fileio._require(obj, "lattice", f"{what} file"))
    table = _slow_read_entries(obj, what, names, fileio._labels)
    if len(table) < DOWNSET_CAP and _lattice_family not in lattice._derived:
        try:
            family = _Family(lattice, *_downsets(lattice.base, len(table)), signed=False)
        except cq.SizeLimitExceeded:
            raise cq.BaseMismatch(f"only {len(table)} entries for a larger lattice") from None
        lattice._derived[_lattice_family] = family
    return capacity(lattice, table)


def _slow_node(entry, name: str, where: str, prefixes) -> int:
    node = fileio._require(entry, name, where)
    is_int = lambda x: isinstance(x, int) and not isinstance(x, bool)
    if not isinstance(node, list) or len(node) != len(prefixes) or not all(map(is_int, node)):
        raise cq.FileFormatError(f"{name} must be a list of {len(prefixes)} integers", field=name)
    for i, level in enumerate(node, start=1):
        if not 0 <= level <= len(prefixes[0]) - 1:
            raise cq.InvalidDimensions(
                f"node coordinate {level} of criterion {i} outside 0..{len(prefixes[0]) - 1}"
            )
    return sum(prefix[level] for prefix, level in zip(prefixes, node))


def _slow_grid_capacity(obj, what: str, names: tuple[str, ...], capacity):
    k, n = fileio._grid_header(obj, f"{what} file")
    lattice = cq.DownsetLattice(cq.build_kary_base(k, n))
    prefixes = lattice.derived(_grid)[2]
    table = _slow_read_entries(
        obj, what, names, lambda entry, name, where: _slow_node(entry, name, where, prefixes)
    )
    signed, count = len(names) == 2, (len(names) * (k - 1) + 1) ** n
    for pos, neg in table if signed else ():
        if pos & neg:
            check_bipolar_pair(lattice, map(lattice.base._labels, (pos, neg)))
    if len(table) < count <= DOWNSET_CAP:
        raise cq.BaseMismatch(f"missing values for {count - len(table)} of the {count} vertices")
    family = lattice.derived(_lattice_family)
    element = lambda code: family.vertices[family.codes[code]]
    vertex = (lambda pair: cq.BipolarElement(*map(element, pair))) if signed else element
    return k, n, capacity(lattice, {vertex(key): value for key, value in table.items()})


SLOW_CAPACITY_READERS = {
    "capacity": lambda obj: _slow_label_capacity(
        obj, "capacity", ("downset",), cq.GeneralizedCapacity
    ),
    "bipolar capacity": lambda obj: _slow_label_capacity(
        obj, "bipolar capacity", ("pos", "neg"), cq.BipolarCapacity
    ),
    "grid capacity": lambda obj: _slow_grid_capacity(
        obj, "grid capacity", ("node",), cq.GeneralizedCapacity
    ),
    "grid bipolar capacity": lambda obj: _slow_grid_capacity(
        obj, "grid bipolar capacity", ("pos", "neg"), cq.BipolarCapacity
    ),
}


class IntSub(int):
    """An ``int`` subclass, which a grid file's node reads as its integer."""


GRID_SHAPES = ((2, 1), (2, 2), (3, 1), (3, 2), (2, 3), (4, 2), (3, 3))
BAD_VALUES = ("zero", "1/0", "nan", "1e5000", " ", True, None, [1], float("inf"))
FILE_FAULTS = ("short", "agree", "contradict", "bad value", "bad key", "overlap", "no tile")


@st.composite
def spellings(draw, value: Fraction):
    """``value`` as a file may give it: its text, padded or not, or text
    with its integers scaled up (:func:`unreduced_texts`); the Fraction
    itself, as the CLI reads a number literal; an int, or a float that
    reads back to it."""
    forms = [str(value), f" {value}\t", value]
    if value.denominator == 1:
        forms.append(int(value))
    if Fraction(repr(float(value))) == value:
        forms.append(float(value))
    return draw(st.one_of(st.sampled_from(forms), unreduced_texts(value)))


def _bad_key(draw, row: dict, field: str, k: int | None) -> dict:
    """``row`` with its ``field`` broken: for a grid node a coordinate of
    the wrong type or out of range (or an ``int`` subclass, in range or
    not), a wrong length or no list; for label sets an unknown label, a
    non-string or no list. A key that is no list of ints or strings is
    broken already, and is left as it is."""
    key = row[field]
    if not (isinstance(key, list) and all(type(x) in (int, str) for x in key)):
        return row
    if k is None:
        broken = draw(st.sampled_from((["zz"], [1], "p0", key[:-1] if key else ["p0"])))
    elif draw(st.integers(0, 3)):
        broken = list(key)
        at = draw(st.integers(0, len(key) - 1))
        choices = (True, False, 1.0, -1, k, 10**30, "1", None, IntSub(key[at]), IntSub(k))
        broken[at] = draw(st.sampled_from(choices))
    else:
        broken = draw(st.sampled_from((key[:-1], key + [0], tuple(key), {"levels": key})))
    return {**row, field: broken}


@st.composite
def capacity_files(draw, kinds=tuple(SLOW_CAPACITY_READERS), faults=FILE_FAULTS):
    """A capacity file of one of the ``kinds``, with the name of its
    reader (:data:`SLOW_CAPACITY_READERS`): every vertex once, values in
    mixed spellings, with up to three of the ``faults`` (:data:`FILE_FAULTS`):
    an entry dropped, an entry given again in another spelling or with
    another value, a bad value, a bad key, an overlapping pair or a pair
    in no tile; the entries shuffled."""
    kind = draw(st.sampled_from(sorted(kinds)))
    signed, grid = "bipolar" in kind, kind.startswith("grid")
    fields = ("pos", "neg") if signed else ("node",) if grid else ("downset",)
    if grid:
        k, n = draw(st.sampled_from(GRID_SHAPES))
        header = {"k": k, "n": n}
        nodes = [list(node) for node in itertools.product(range(k), repeat=n)]
        if signed:
            keys = [(a, b) for a in nodes for b in nodes if not any(x and y for x, y in zip(a, b))]
            overlaps = [(a, a) for a in nodes if any(a)]
        else:
            keys, overlaps = [(a,) for a in nodes], []
        outside = []
    else:
        k, lattice = None, draw(lattices(max_elements=4))
        header = {"lattice": fileio.poset_payload(lattice.base)}
        if signed:
            pairs = cq.admissible_vertex_pairs(lattice)
            keys = [(sorted(p.pos), sorted(p.neg)) for p in pairs]
            overlaps = [(sorted(x), sorted(x)) for x in lattice.elements if x]
            outside = [
                (sorted(a), sorted(b)) for a, b in cq.bipolar_extension(lattice)
                if (a, b) not in pairs
            ]
        else:
            keys, overlaps, outside = [(sorted(x),) for x in lattice.elements], [], []
    value_kinds = (decimal_unit_fractions, VALUE_KINDS["small"], VALUE_KINDS["mixed"])
    values = draw(st.sampled_from(value_kinds))
    exact = [draw(values) for _ in keys]
    rows = [{**dict(zip(fields, key)), "value": draw(spellings(v))} for key, v in zip(keys, exact)]
    drawn = [f for f in faults if f not in ("overlap", "no tile")]
    drawn += ["overlap"] * bool(overlaps and "overlap" in faults)
    drawn += ["no tile"] * bool(outside and "no tile" in faults)
    for fault in draw(st.lists(st.sampled_from(drawn), max_size=3)):
        at = draw(st.integers(0, len(keys) - 1))
        if fault == "short" and rows:
            del rows[draw(st.integers(0, len(rows) - 1))]
        elif fault == "agree":
            rows.append({**dict(zip(fields, keys[at])), "value": draw(spellings(exact[at]))})
        elif fault == "contradict":
            rows.append({**dict(zip(fields, keys[at])), "value": str(exact[at] + 1)})
        elif fault == "bad value" and rows:
            row = rows[draw(st.integers(0, len(rows) - 1))]
            row["value"] = draw(st.sampled_from(BAD_VALUES))
        elif fault == "bad key" and rows:
            at = draw(st.integers(0, len(rows) - 1))
            rows[at] = _bad_key(draw, rows[at], draw(st.sampled_from(fields)), k)
        elif fault == "overlap":
            pair = draw(st.sampled_from(overlaps))
            rows.append({**dict(zip(fields, pair)), "value": "0"})
        elif fault == "no tile":
            pair = draw(st.sampled_from(outside))
            rows.append({**dict(zip(fields, pair)), "value": "0"})
    return kind, {**header, "values": draw(st.permutations(rows))}


# slow reference point location: Fraction comparisons against the scale's
# anchors, residues sorted on (-residue, criterion) tuples


def _slow_locate(value: Fraction, scale: cq.ReferenceScale, sign: int) -> tuple[int, Fraction]:
    for j in range(1, scale.k):
        anchor = scale.rho(sign * j)
        if (value <= anchor) if sign > 0 else (value >= anchor):
            previous = scale.rho(sign * (j - 1))
            return j, (value - previous) / (anchor - previous)
    raise cq.OutOfScale(f"{_slow_quoted(str(value))} is outside the scale range")


def slow_locate_coordinates(point, scale: cq.ReferenceScale) -> tuple[frozenset, LevelIndexing]:
    values = [slow_as_fraction(v) for v in point]
    if not values:
        raise cq.InvalidDimensions("a point needs at least one coordinate")
    low, high = scale.levels[0], scale.levels[-1]
    indices, residues, positive = [], [], set()
    for i, value in enumerate(values, start=1):
        if not low <= value <= high:
            raise cq.OutOfScale(
                f"coordinate {_slow_quoted(str(value))} of criterion {i} outside"
                f" [{_slow_quoted(str(low))}, {_slow_quoted(str(high))}]",
                criterion=i,
            )
        sign = -1 if scale.symmetric and value < 0 else 1
        if sign > 0:
            positive.add(i)
        index, residue = _slow_locate(value, scale, sign)
        indices.append(index)
        residues.append(residue)
    order = sorted(range(1, len(residues) + 1), key=lambda i: (-residues[i - 1], i))
    return frozenset(positive), LevelIndexing(tuple(indices), tuple(residues), tuple(order))


# the label-keyed profile path that positional profiles replaced, kept as
# their oracle: checked pairs held in a label dict, sorted and tiled by
# label, and a point's residues made into Fractions. It reads the covers in
# label order, so a rise names the smallest failing cover, as the
# positional checks do whatever the hash seed.


def _slow_sort_keys(values: dict) -> dict:
    shift = 2 * max([d.bit_length() for _, d in values.values()], default=0)
    return {key: (n << shift) // d for key, (n, d) in values.items()}


def slow_profile_values(base: cq.Poset, values, signed: bool = False) -> dict:
    """A profile's checked pairs by label, in base order."""
    parsed = {label: _ratio(raw) for label, raw in values.items()}
    if parsed.keys() != base._bit.keys():
        raise cq.BaseMismatch(
            "profile labels must cover the base poset exactly",
            missing=sorted(set(base.elements) - set(parsed)),
            extra=sorted(set(parsed) - set(base.elements)),
        )
    if signed:
        low, kind, rising = -1, "signed value", "|values| increase"
    else:
        low, kind, rising = 0, "profile value", "profile increases"
    for label, (n, d) in parsed.items():
        if not low * d <= n <= d:
            raise cq.ValueOutOfRange(
                f"{kind} {_slow_quoted(str(Fraction(n, d)))} at {label!r} is outside [{low}, 1]",
                label=label,
            )
    sizes = {label: (abs(n), d) for label, (n, d) in parsed.items()}
    for lower, upper in sorted(base.covers):
        (an, ad), (bn, bd) = sizes[lower], sizes[upper]
        if an * bd < bn * ad:
            raise cq.NotNonincreasing(
                f"{rising} along {lower!r} < {upper!r}", lower=lower, upper=upper
            )
    return {label: parsed[label] for label in base.elements}


def slow_keyed_triangulate(base: cq.Poset, values: dict, tie_break=None) -> tuple:
    """(order, masks, levels) of the pairs ``values`` by label: the labels
    sorted on exact integer keys, stable in ``tie_break`` order, the running
    OR of their bits and their pairs in that order."""
    if tie_break is None:
        tie_break = cq.linear_extension(base)
    else:
        ranks = {label: i for i, label in enumerate(tie_break)}
        if set(ranks) != set(base.elements) or len(tie_break) != len(base.elements):
            raise cq.BaseMismatch("tie_break must enumerate the base poset exactly")
        for lower, upper in sorted(base.covers):
            if ranks[lower] > ranks[upper]:
                raise cq.NotNonincreasing(
                    f"tie_break does not refine the base order at {lower!r} < {upper!r}"
                )
    order = sorted(tie_break, key=_slow_sort_keys(values).__getitem__, reverse=True)
    masks = list(itertools.accumulate(map(base._bit.__getitem__, order), operator.or_, initial=0))
    return tuple(order), masks, [values[label] for label in order]


def slow_select_tile(base: cq.Poset, values: dict) -> frozenset:
    """Positive side of the tile of the signed pairs ``values`` by label."""
    if not all(len(c.minimals) == 1 for c in cq.connected_components(base)):
        raise cq.NotRegularMosaic("signed evaluation needs a regular mosaic base")
    positive: set = set()
    for comp in cq.connected_components(base):
        has_pos = any(values[label][0] > 0 for label in comp.members)
        has_neg = any(values[label][0] < 0 for label in comp.members)
        if has_pos and has_neg:
            raise cq.ProfileNotInAnyTile(
                f"component {sorted(comp.members)!r} carries both signs",
                component=sorted(comp.members),
            )
        if not has_neg:
            positive |= comp.members
    return frozenset(positive)


def slow_checked_tile(profile: cq.BipolarProfile, x) -> frozenset:
    """A tile hint's check as a walk over the profile's labels in label
    order: the first label on the wrong side names the fault."""
    base = profile.base
    if not cq.is_regular_mosaic(base):
        raise cq.NotRegularMosaic("signed evaluation needs a regular mosaic base")
    member = frozenset(x)
    if not (cq.is_downset(base, member) and cq.is_downset(base, set(base.elements) - member)):
        shown = sorted(member)
        raise cq.NotComplemented(f"{shown!r} is not a complemented element", element=shown)
    for label, value in sorted(profile.values.items()):
        if value > 0 and label not in member:
            raise cq.NotInTile(f"strictly positive value at {label!r} outside the tile")
        if value < 0 and label in member:
            raise cq.NotInTile(f"strictly negative value at {label!r} inside the tile")
    return member


# slow reference chain path: sort on (-value, tie-break rank) and subtract
# in Fractions, then add the weighted vertex values in Fractions


def slow_triangulate(profile, tie_break=None) -> cq.ChainDecomposition:
    base = profile.base
    if tie_break is None:
        tie_break = cq.linear_extension(base)
    ranks = {label: i for i, label in enumerate(tie_break)}
    order = sorted(base.elements, key=lambda label: (-profile.values[label], ranks[label]))
    chain = [frozenset()]
    weights = [Fraction(1) - (profile.values[order[0]] if order else Fraction(0))]
    running: set = set()
    for i, label in enumerate(order):
        running.add(label)
        chain.append(frozenset(running))
        nxt = profile.values[order[i + 1]] if i + 1 < len(order) else Fraction(0)
        weights.append(profile.values[label] - nxt)
    return cq.ChainDecomposition(base, tuple(order), tuple(chain), tuple(weights))


def slow_chain_value(values, chain, weights) -> Fraction:
    return sum((w * values[v] for v, w in zip(chain, weights)), Fraction(0))


def slow_evaluation(values, dec: cq.ChainDecomposition, tile=None) -> cq.Evaluation:
    """The evaluation record of a slow decomposition: its chain split along
    ``tile`` when signed, its value summed in Fractions."""
    chain = dec.chain
    if tile is not None:
        chain = tuple(cq.BipolarElement(v & tile, v - tile) for v in chain)
    return cq.Evaluation(slow_chain_value(values, chain, dec.weights), dec.order, chain, dec.weights, tile)


# slow reference evaluators of the Moebius form: each coefficient times the
# minimum over its key, summed in Fractions


def slow_moebius_form_eval(coefficients: cq.GeneralizedCapacity, profile: cq.Profile) -> Fraction:
    if coefficients.lattice.base != profile.base:
        raise cq.BaseMismatch("coefficients and profile are over different base posets")
    total = Fraction(0)
    for element, coeff in coefficients.values.items():
        if coeff:
            total += coeff * min((profile.values[j] for j in element), default=Fraction(1))
    return total


def slow_bipolar_moebius_form_eval(coefficients, profile: cq.BipolarProfile) -> Fraction:
    values = profile.values
    known = set(profile.base.elements)
    total = Fraction(0)
    for (pos, neg), raw in coefficients.items():
        coeff = cq.as_fraction(raw)
        if not (set(pos) <= known and set(neg) <= known):
            raise cq.BaseMismatch("coefficient keys mention labels outside the base")
        if not coeff:
            continue
        plus = min((max(values[j], Fraction(0)) for j in pos), default=Fraction(1))
        minus = min((max(-values[j], Fraction(0)) for j in neg), default=Fraction(1))
        total += coeff * min(plus, minus)
    return total


# slow reference transforms: zeta sums over everything below; Moebius sums
# over every comparable pair, each weighted by the defining recursion


def slow_zeta_transform(m: cq.GeneralizedCapacity) -> cq.GeneralizedCapacity:
    lattice = m.lattice
    sums = {
        x: sum((m.values[y] for y in lattice.elements if y <= x), Fraction(0))
        for x in lattice.elements
    }
    return cq.GeneralizedCapacity(lattice, sums)


def slow_bipolar_zeta_transform(lattice: cq.DownsetLattice, coefficients) -> dict:
    table = {
        check_bipolar_pair(lattice, key): cq.as_fraction(raw)
        for key, raw in coefficients.items()
    }
    return {
        (x, y): sum(
            (v for (z, t), v in table.items() if z <= x and t <= y), Fraction(0)
        )
        for (x, y) in slow_disjoint_element_pairs(lattice)
    }


def slow_moebius_transform(g: cq.GeneralizedCapacity) -> cq.GeneralizedCapacity:
    lattice = g.lattice
    cache: dict = {}
    coefficients = {}
    for x in lattice.elements:
        acc = Fraction(0)
        for y in lattice.elements:
            if y <= x:
                acc += g.values[y] * cq.rota_moebius(
                    lattice.elements, frozenset.issubset, y, x, cache
                )
        coefficients[x] = acc
    return cq.GeneralizedCapacity(lattice, coefficients)


def slow_bipolar_moebius_transform(lattice: cq.DownsetLattice, values) -> dict:
    table = {
        check_bipolar_pair(lattice, key): cq.as_fraction(raw)
        for key, raw in values.items()
    }
    cache: dict = {}
    out = {}
    for (x, y) in slow_disjoint_element_pairs(lattice):
        acc = Fraction(0)
        for (z, t), value in table.items():
            if z <= x and t <= y:
                acc += (
                    value
                    * cq.rota_moebius(lattice.elements, frozenset.issubset, z, x, cache)
                    * cq.rota_moebius(lattice.elements, frozenset.issubset, t, y, cache)
                )
        out[(x, y)] = acc
    return out


# plain-random helpers for seeded bulk runs


def random_poset(rng: random.Random, n: int, edge_chance=0.4) -> cq.Poset:
    labels = [f"p{i}" for i in range(n)]
    ranking = list(range(n))
    rng.shuffle(ranking)
    flags = [rng.random() < edge_chance for _ in range(n * (n - 1) // 2)]
    return poset_from_ranked_flags(labels, ranking, flags)


def random_fraction(rng: random.Random, low=-2, high=2, denominator=12) -> Fraction:
    return Fraction(rng.randint(low * denominator, high * denominator), denominator)


def random_profile(rng: random.Random, base: cq.Poset, denominator=10) -> cq.Profile:
    raw = {
        label: Fraction(rng.randint(0, denominator), denominator)
        for label in base.elements
    }
    return cq.Profile(base, nonincreasing(base, raw))


def random_capacity(
    rng: random.Random, lattice: cq.DownsetLattice, game=False
) -> cq.GeneralizedCapacity:
    values = {element: random_fraction(rng) for element in lattice.elements}
    if game:
        values[lattice.bottom] = Fraction(0)
    return cq.GeneralizedCapacity(lattice, values)


def random_monotone01(rng: random.Random, lattice: cq.DownsetLattice) -> cq.GeneralizedCapacity:
    """Pointwise maximum of a few unanimity functionals (or the zero one)."""
    generators = [
        rng.choice(lattice.elements) for _ in range(rng.randint(0, 3))
    ]
    values = {
        element: int(any(g <= element for g in generators))
        for element in lattice.elements
    }
    return cq.GeneralizedCapacity(lattice, values)


def random_signed_profile(
    rng: random.Random, base: cq.Poset, denominator=10
) -> cq.BipolarProfile:
    magnitude = random_profile(rng, base, denominator)
    signed = dict(magnitude.values)
    for component in cq.connected_components(base):
        if rng.random() < 0.5:
            for label in component.members:
                signed[label] = -signed[label]
    return cq.BipolarProfile(base, signed)


def random_bipolar_capacity(
    rng: random.Random, lattice: cq.DownsetLattice, game=False
) -> cq.BipolarCapacity:
    values = {
        pair: random_fraction(rng) for pair in cq.admissible_vertex_pairs(lattice)
    }
    if game:
        values[cq.BipolarElement(frozenset(), frozenset())] = Fraction(0)
    return cq.BipolarCapacity(lattice, values)


def random_linear_extension(rng: random.Random, base: cq.Poset) -> tuple[str, ...]:
    """Uniformly shuffled topological order (for tie-break invariance tests)."""
    remaining = {label: len(base.lower_covers(label)) for label in base.elements}
    ready = [label for label, degree in remaining.items() if degree == 0]
    order = []
    while ready:
        label = ready.pop(rng.randrange(len(ready)))
        order.append(label)
        for upper in base.upper_covers(label):
            remaining[upper] -= 1
            if remaining[upper] == 0:
                ready.append(upper)
    return tuple(order)


def mosaic_bases() -> list[cq.Poset]:
    """Mixed bag of single-bottom-component bases."""
    forest = cq.Poset(
        ["r", "s", "t", "u", "v"],
        [("r", "s"), ("r", "t"), ("u", "v")],
    )
    return [
        antichain(2),
        antichain(3),
        antichain(4),
        cq.build_kary_base(3, 2),
        cq.build_kary_base(4, 2),
        cq.build_kary_base(3, 3),
        cq.build_kary_base(2, 4),
        forest,
    ]


# the CLI's old argument parser, the reference for ``cli.read_argv``


class OracleError(Exception):
    """The old parser refused an argv: the CLI's exit 2 with code ``usage``."""


class _OracleParser(argparse.ArgumentParser):
    """Every parser of the oracle refuses abbreviated options, as the
    command table does, and raises on an error instead of exiting."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise OracleError(message)


def build_oracle_parser() -> argparse.ArgumentParser:
    """The argparse parser the CLI had before its command table, with each
    handler given by name."""
    parser = _OracleParser(
        prog="choqlat",
        description=(
            "Vertex-functional interpolation on distributive lattices:"
            " validation, evaluation and Hasse diagrams."
        ),
    )
    groups = parser.add_subparsers(dest="group", required=True, metavar="command")
    subcommands: dict = {}

    def command(group, group_help, name, help, handler):
        if group not in subcommands:
            subcommands[group] = groups.add_parser(group, help=group_help).add_subparsers(
                dest="command", required=True
            )
        sub = subcommands[group].add_parser(name, help=help)
        sub.set_defaults(handler=handler)
        return sub

    def evaluation(group, group_help, help, handler):
        sub = command(group, group_help, "eval", help, handler)
        sub.add_argument("--capacity", required=True)
        sub.add_argument("--profile", required=True)
        sub.add_argument("--decomposition", action="store_true")
        sub.add_argument("--cross-check", action="store_true")
        return sub

    poset_check = command(
        "poset", "poset file operations", "check", "validate a poset file", "cmd_poset_check"
    )
    poset_check.add_argument("file")
    poset_check.add_argument("--dot", action="store_true", help="emit a Graphviz Hasse diagram")

    lattice_verify = command(
        "lattice", "lattice file operations",
        "verify", "check distributivity and extract the base poset", "cmd_lattice_verify",
    )
    lattice_verify.add_argument("file")

    mosaic_check = command(
        "mosaic", "mosaic structure checks",
        "check", "is the bipolar extension a union of tiles?", "cmd_mosaic_check",
    )
    mosaic_check.add_argument("file")

    mobius = groups.add_parser("mobius", help="Moebius coefficients of a capacity")
    mobius.add_argument("--capacity")
    mobius.add_argument("--bipolar-capacity")
    mobius.set_defaults(handler="cmd_mobius")

    evaluation(
        "choquet", "unsigned evaluation", "extension value of a profile", "cmd_choquet_eval"
    )

    bipolar_eval = evaluation(
        "bipolar", "signed structure and evaluation", "signed extension value", "cmd_bipolar_eval"
    )
    bipolar_eval.add_argument(
        "--require-normalized",
        action="store_true",
        help="reject capacities that are not 1/-1 at the extreme vertices",
    )
    bipolar_enumerate = command(
        "bipolar", None, "enumerate", "list the bipolar extension", "cmd_bipolar_enumerate"
    )
    bipolar_enumerate.add_argument("file")
    bipolar_enumerate.add_argument("--dot", action="store_true")

    kary_eval = evaluation(
        "kary", "chain-product (grid) evaluation", "grid capacity against a profile",
        "cmd_kary_eval",
    )
    kary_eval.add_argument("--bipolar", action="store_true")

    levels_eval = command(
        "levels", "reference-level point scoring",
        "eval", "score a point of the score space", "cmd_levels_eval",
    )
    levels_eval.add_argument("--scale", required=True)
    levels_eval.add_argument("--capacity", required=True)
    levels_eval.add_argument("--point", required=True, help="comma-separated coordinates")
    levels_eval.add_argument("--bipolar", action="store_true")

    selftest = groups.add_parser("selftest", help="run the bundled golden instances")
    selftest.set_defaults(handler="cmd_selftest")

    return parser


def oracle_read(argv):
    """``"help"`` when the old parser printed help and exited 0, ``"error"``
    when it refused ``argv``, else the handler name and the parsed values."""
    try:
        with redirect_stdout(io.StringIO()):
            namespace = build_oracle_parser().parse_args(argv)
    except OracleError:
        return "error"
    except SystemExit as exit:
        assert exit.code == 0
        return "help"
    values = vars(namespace)
    for key in ("group", "command"):
        values.pop(key, None)
    return values.pop("handler"), values
