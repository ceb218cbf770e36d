"""JSON file formats: posets, lattices, capacities, profiles, scales.

Rationals travel as strings ("3/10" or "0.3"); the CLI hands number
literals over as exact values read from their text, and a float a caller
parsed is read through its shortest decimal form, so every value survives
a parse/serialize round trip exactly. Every file value, a point's
coordinates and a scale's levels included, is read once by one reader
(:func:`_parse_value`) to its (numerator, denominator) pair in lowest
terms. A capacity file's values are handed to the capacity as those pairs
(:class:`~choqlat.moebius.FileTable`) with no ``Fraction`` made. Duplicate
value entries are tolerated only when they agree. :func:`load_json` reads
a file's JSON text with one string object per distinct label.

A grid file is read in whole-list passes (:func:`_grid_entries`): its
points checked by coordinate column and coded by the OR of per-criterion
code tables, one lookup call per column, and, where every value is a
string, each distinct value text read once, its entries sharing one pair;
that is a read per file, not a cache. The pass never raises. Where any
entry would fail, it declines, and the per-entry loop
(:func:`_read_entries`) reads the file from its first entry, coding each
point as the sum over the same tables, and names the first bad one, so
each error keeps its class, text, context and precedence. Label-format
files are read by the per-entry loop alone.

Every capacity file keys its entries by vertex code. A label-format entry
is coded by :func:`~choqlat.birkhoff._vertex_code`, the OR of its labels'
bits (a pair: the pair code of its parts), and keeps its labels only where
it names one outside the base. A grid file's node becomes its vertex's code
through the grid's prefix codes (:func:`~choqlat.kary._grid`), the
package's one rule from a node to its vertex. A short file is refused
before any vertex is enumerated; only then are the codes found among the
vertex family's own (:func:`~choqlat.moebius.vertex_table`), which checks
every other key in file order, and the capacity's table sits on that
family: from file to score no label set is made, the Moebius forms of
``--cross-check`` included, since they read the family's codes. The label
view is built only by what reads labels: the payload writers here, a read
by label or iteration of ``values``, and ``mobius`` output.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import repeat
from operator import eq, getitem, itemgetter, or_

from .bipolar import BipolarCapacity, BipolarProfile
from .birkhoff import DownsetLattice, _lattice_family, _pair_code, _refuse_overlaps, _vertex_code
from .birkhoff import verify_distributive
from .errors import BaseMismatch, ContradictoryValue, FileFormatError, SizeLimitExceeded
from .interpolation import Profile, _profile_values
from .kary import ReferenceScale, _grid, _levels, build_kary_base, downset_to_node, grid_shape
from .moebius import FileTable, GeneralizedCapacity
from .poset import DOWNSET_CAP, Poset
from .rationals import _ratio, _shown, as_fraction

# Poset files with more elements, and grid headers whose base (n chains of
# k-1 elements) would have more, are refused before anything is built. The
# order itself is one int OR per cover (a chain of 8000 builds in 0.08 s and
# 30 MB), but an explicit lattice is checked with one mask step per pair of
# elements (a chain of 1024 verifies in about 2 s in a cold CLI).
GRID_ELEMENT_CAP = 1024


def _not_finite(literal: str):
    raise ValueError(f"{literal} is not a finite number")


def load_json(handle):
    """The JSON text of the file ``handle`` as ``json.load`` reads it, with
    number literals read exactly (:func:`~choqlat.rationals.as_fraction`,
    within its bounds) and the strings of each list of strings swapped, as
    its object is parsed, for one object per distinct text. A label file
    then holds its distinct labels once, not once per occurrence; the
    result is equal to ``json.load``'s, so no read or error can change. A
    list is taken as one of strings by its first item, so that a grid
    file's nodes cost one type check each."""
    seen: dict[str, str] = {}

    def intern(obj: dict) -> dict:
        for name, value in obj.items():
            if type(value) is list and value and type(value[0]) is str:
                obj[name] = [seen.setdefault(x, x) if type(x) is str else x for x in value]
        return obj

    return json.load(handle, parse_float=as_fraction, parse_constant=_not_finite,
                     object_hook=intern)


def _require(obj, key: str, where: str):
    if not isinstance(obj, dict) or key not in obj:
        raise FileFormatError(f"missing {key!r} in {where}", field=key)
    return obj[key]


def _label_list(value, where: str) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise FileFormatError(f"{where} must be a list of strings", field=where)
    return value


def _parse_value(raw, where: str) -> tuple[int, int]:
    """A file value read once by :func:`~choqlat.rationals._ratio` to its
    (numerator, positive denominator) pair in lowest terms; a value it
    refuses is a :class:`~choqlat.errors.FileFormatError` on ``where``."""
    try:
        return _ratio(raw)
    except (TypeError, ValueError) as exc:
        raise FileFormatError(f"bad value in {where}: {exc}", field=where) from None


def _entry_list(obj, what: str) -> list:
    entries = _require(obj, "values", f"{what} file")
    if not isinstance(entries, list):
        raise FileFormatError("values must be a list", field="values")
    return entries


def _read_entries(entries: list, what: str, names: tuple[str, ...], key) -> FileTable:
    """Values of a capacity file's ``entries`` in file order, each keyed by
    ``key(entry, where)``, which reads the entry's ``names`` fields to its
    vertex code, and read once (:func:`_parse_value`) to its pair in lowest
    terms; the first bad entry is named. Two entries for one vertex agree
    exactly when their pairs are equal, and a clash names the entry. No
    ``Fraction`` is made."""
    where = f"{what} entry"
    table = FileTable()
    for entry in entries:
        vertex = key(entry, where)
        value = _parse_value(_require(entry, "value", where), "value")
        if table.setdefault(vertex, value) != value:
            fields = {name: entry[name] for name in names}
            shown = ", ".join(repr(v) for v in fields.values())
            label = f"({shown})" if len(names) == 2 else f"{names[0]} {shown}"
            raise ContradictoryValue(f"two different values for {label}", **fields)
    return table


def _rows(table: dict, fields) -> list[dict]:
    """Entries of a capacity file: each vertex's ``fields``, then its value."""
    return [{**fields(vertex), "value": str(v)} for vertex, v in table.items()]


def _labels(entry, name: str, where: str) -> frozenset:
    return frozenset(_label_list(_require(entry, name, where), name))


# posets and lattices


def parse_poset(obj) -> Poset:
    elements = _label_list(_require(obj, "elements", "poset file"), "elements")
    if len(elements) > GRID_ELEMENT_CAP:
        raise SizeLimitExceeded.over(f"poset has {len(elements)} elements", GRID_ELEMENT_CAP)
    covers_raw = _require(obj, "covers", "poset file")
    if not isinstance(covers_raw, list):
        raise FileFormatError("covers must be a list of [lower, upper] pairs", field="covers")
    covers = []
    for entry in covers_raw:
        if not isinstance(entry, list) or len(entry) != 2 or not all(
            isinstance(label, str) for label in entry
        ):
            raise FileFormatError(
                f"bad cover entry {entry!r}, expected [lower, upper]", field="covers"
            )
        covers.append((entry[0], entry[1]))
    return Poset(elements, covers)


def poset_payload(p: Poset) -> dict:
    return {
        "elements": list(p.elements),
        "covers": sorted([lower, upper] for lower, upper in p.covers),
    }


def parse_lattice(obj) -> tuple[DownsetLattice, dict | None]:
    """Lattice file: a poset tagged with its role.

    ``join_irreducibles`` (the default) reads the poset as the base of the
    downset form; ``explicit_lattice`` reads it as the full element poset
    and converts through :func:`verify_distributive`. The second return
    value is the element dictionary for explicit inputs, else ``None``.
    """
    role = obj.get("role", "join_irreducibles") if isinstance(obj, dict) else None
    base = parse_poset(obj)
    if role == "join_irreducibles":
        return DownsetLattice(base), None
    if role == "explicit_lattice":
        form = verify_distributive(base)
        return form.lattice, {x: sorted(d) for x, d in form.eta_map.items()}
    raise FileFormatError(f"unknown lattice role {role!r}", field="role")


def lattice_payload(lattice: DownsetLattice) -> dict:
    payload = poset_payload(lattice.base)
    payload["role"] = "join_irreducibles"
    return payload


# capacities and profiles over an explicit lattice


def _label_capacity(obj, what: str, names: tuple[str, ...], capacity):
    """A capacity file keyed by label sets, unsigned or signed by its ``names``.

    Each entry is keyed by its vertex's code
    (:func:`~choqlat.birkhoff._vertex_code`), or by its labels where it
    names one outside the base. Every lattice element needs its own entry,
    and a signed file a pair (A, ∅) for each element A. So once the entries
    are read, the base's downsets are counted up to their number
    (:func:`~choqlat.birkhoff._lattice_family`): one more makes the file
    short, refused before its lattice is enumerated. Otherwise the counted
    family is kept with the lattice, which is enumerated once, and the
    capacity's vertex family checks every key it does not hold, in file
    order.
    """
    lattice, _ = parse_lattice(_require(obj, "lattice", f"{what} file"))

    def key(entry, where: str):
        parts = tuple(_labels(entry, name, where) for name in names)
        try:
            return _vertex_code(lattice.base, parts)
        except KeyError:  # a label outside the base: kept as the labels
            return parts if len(parts) == 2 else parts[0]

    table = _read_entries(_entry_list(obj, what), what, names, key)
    if len(table) < DOWNSET_CAP:
        try:
            _lattice_family(lattice, len(table))
        except SizeLimitExceeded:
            raise BaseMismatch(f"only {len(table)} entries for a larger lattice") from None
    return capacity(lattice, table)


def parse_capacity(obj) -> GeneralizedCapacity:
    return _label_capacity(obj, "capacity", ("downset",), GeneralizedCapacity)


def capacity_payload(capacity: GeneralizedCapacity) -> dict:
    return {
        "lattice": lattice_payload(capacity.lattice),
        "values": _rows(capacity.values, lambda d: {"downset": sorted(d)}),
    }


def _profile_entries(obj, base: Poset, signed: bool = False) -> tuple:
    """The base, pairs, keys and sizes of a profile file's values: each
    value read once (:func:`_parse_value`) to its pair in lowest terms, as
    a capacity file's are, and the pairs checked as the profile checks them
    (:func:`~choqlat.interpolation._profile_values`), with no ``Fraction`` made."""
    values = _require(obj, "values", "profile file")
    if not isinstance(values, dict):
        raise FileFormatError("values must be a label-to-number object", field="values")
    pairs = [_parse_value(raw, label) for label, raw in values.items()]
    return base, *_profile_values(base, values, signed, pairs)


def parse_profile(obj, base: Poset) -> Profile:
    return Profile._from_checked(*_profile_entries(obj, base))


def parse_bipolar_profile(obj, base: Poset) -> BipolarProfile:
    return BipolarProfile._from_checked(*_profile_entries(obj, base, signed=True))


def profile_payload(profile: Profile | BipolarProfile) -> dict:
    return {"values": {label: str(v) for label, v in profile.values.items()}}


def parse_bipolar_capacity(obj) -> BipolarCapacity:
    return _label_capacity(obj, "bipolar capacity", ("pos", "neg"), BipolarCapacity)


def bipolar_capacity_payload(capacity: BipolarCapacity) -> dict:
    return {
        "lattice": lattice_payload(capacity.lattice),
        "values": _rows(capacity.values, lambda p: {"pos": sorted(p.pos), "neg": sorted(p.neg)}),
    }


# grid (chain-product) capacities keyed by grid points


def _is_int(x) -> bool:
    """JSON integer; ``bool`` subclasses ``int``, but ``true`` is no number."""
    return isinstance(x, int) and not isinstance(x, bool)


def _grid_header(obj, where: str) -> tuple[int, int]:
    """(k, n) of a grid file, refused before anything is built when the
    base or its lattice of k**n nodes would be over budget."""
    k = _require(obj, "k", where)
    n = _require(obj, "n", where)
    if not (_is_int(k) and _is_int(n)):
        raise FileFormatError(f"k and n must be integers in {where}", field="k")
    if k >= 2 and n >= 1:
        if (k - 1) * n > GRID_ELEMENT_CAP:
            raise SizeLimitExceeded.over(
                f"grid base has (k-1)*n = {(k - 1) * n} elements", GRID_ELEMENT_CAP
            )
        if k**n > DOWNSET_CAP:
            raise SizeLimitExceeded.over(f"grid lattice has {k}**{n} nodes", DOWNSET_CAP)
    return k, n


def _node(codes: tuple, name: str, entry, where: str) -> int:
    """The grid point in the field ``name``, checked for shape and range, as
    the sum of its criteria's ``codes`` at its levels: its downset's bit
    code for the grid's prefix codes (:func:`~choqlat.kary._grid`)."""
    node = _require(entry, name, where)
    if not (isinstance(node, list) and len(node) == len(codes) and all(map(_is_int, node))):
        raise FileFormatError(f"{name} must be a list of {len(codes)} integers", field=name)
    if min(node) < 0 or max(node) >= len(codes[0]):
        _levels(node, len(codes[0]))  # raises, naming the first coordinate out of range
    return sum(map(getitem, codes, node))


def _grid_entries(entries: list, names: tuple[str, ...], codes: tuple) -> FileTable | None:
    """The table of a grid file's ``entries``, read in whole-list passes,
    or ``None`` where any entry would fail the per-entry loop or is not
    plain JSON (a coordinate of an ``int`` subclass, say), so that the loop
    reads the file and names its first bad entry. Never raises.

    ``codes`` holds, for each field of ``names``, each criterion's codes by
    level; a vertex's code is the OR of its coordinates' codes. Each point
    field is checked by coordinate column, and a column is coded by one
    ``itemgetter`` call on its criterion's table, which gives the column's
    codes as one tuple (one code alone, for a file of one entry). When
    every value is a string, each distinct text is read once by
    :func:`~choqlat.rationals._ratio` and its entries share that pair: a
    per-file read, not a cache. Any other values are read one by one,
    since ``1`` and ``true`` are equal keys. An entry repeating a vertex
    must carry an equal pair.
    """
    if set(map(type, entries)) != {dict}:
        return None
    try:
        points = [list(map(itemgetter(name), entries)) for name in names]
        values = list(map(itemgetter("value"), entries))
    except KeyError:
        return None
    vertices = repeat(0, len(entries))
    for nodes, criteria in zip(points, codes):
        if set(map(type, nodes)) != {list} or set(map(len, nodes)) != {len(criteria)}:
            return None
        for column, by_level in zip(zip(*nodes), criteria):
            if set(map(type, column)) != {int} or min(column) < 0 or max(column) >= len(by_level):
                return None
            coded = itemgetter(*column)(by_level)  # one index gives its item alone
            vertices = map(or_, vertices, coded if len(column) > 1 else (coded,))
    vertices = list(vertices)
    try:
        if set(map(type, values)) == {str}:
            read = {text: _ratio(text) for text in set(values)}
            pairs = list(map(read.__getitem__, values))
        else:
            pairs = list(map(_ratio, values))
    except (TypeError, ValueError):
        return None
    table = FileTable(zip(vertices, pairs))
    if len(table) < len(pairs) and not all(map(eq, map(table.__getitem__, vertices), pairs)):
        return None
    return table


def _grid_capacity(obj, what: str, names: tuple[str, ...], capacity):
    """(k, n, capacity) of a grid file, unsigned or signed by its ``names``.

    Nodes are read as codes through one table per field: the grid's prefix
    codes, shifted by :func:`~choqlat.birkhoff._pair_code` for ``neg``, so a
    signed pair is keyed by its pair code, as the vertex families code it.
    The whole-list pass (:func:`_grid_entries`) reads the file over those
    tables; only where it declines does the per-entry loop
    (:func:`_read_entries`) read it over the same ones. No vertex is
    enumerated until every entry is read and checked: an overlapping pair
    (:func:`~choqlat.birkhoff._refuse_overlaps`) is refused first, then a
    file naming fewer distinct nodes than its grid has vertices, k**n nodes
    or (2k-1)**n disjoint pairs, unless that count is over ``DOWNSET_CAP``,
    which the vertex family refuses. Only then are the codes found among
    the family's own (:func:`~choqlat.moebius.vertex_table`).
    """
    k, n = _grid_header(obj, f"{what} file")
    lattice = DownsetLattice(build_kary_base(k, n))
    prefixes, width = lattice.derived(_grid)[2], len(lattice.base)
    codes, signed = (prefixes,), len(names) == 2
    if signed:
        codes += (tuple(tuple(_pair_code(0, code, width) for code in c) for c in prefixes),)
    # the parts' codes sit in disjoint bits, so their sum is the pair code
    key = lambda e, where: sum(_node(c, name, e, where) for name, c in zip(names, codes))
    entries = _entry_list(obj, what)
    table = _grid_entries(entries, names, codes)
    if table is None:
        table = _read_entries(entries, what, names, key)
    if signed:
        _refuse_overlaps(lattice, table)
    # per criterion: level 0, or one of k-1 levels on one of the named sides
    count = (len(names) * (k - 1) + 1) ** n
    if len(table) < count <= DOWNSET_CAP:
        raise BaseMismatch(f"missing values for {count - len(table)} of the {count} vertices")
    return k, n, capacity(lattice, table)


def parse_kary_capacity(obj) -> tuple[int, int, GeneralizedCapacity]:
    return _grid_capacity(obj, "grid capacity", ("node",), GeneralizedCapacity)


def kary_capacity_payload(capacity: GeneralizedCapacity) -> dict:
    k, n = grid_shape(capacity.lattice.base)
    return {
        "k": k,
        "n": n,
        "values": _rows(capacity.values, lambda d: {"node": list(downset_to_node(d, n))}),
    }


def parse_bipolar_kary_capacity(obj) -> tuple[int, int, BipolarCapacity]:
    return _grid_capacity(obj, "grid bipolar capacity", ("pos", "neg"), BipolarCapacity)


def bipolar_kary_capacity_payload(capacity: BipolarCapacity) -> dict:
    k, n = grid_shape(capacity.base)
    node = lambda part: list(downset_to_node(part, n))
    return {
        "k": k,
        "n": n,
        "values": _rows(capacity.values, lambda p: {"pos": node(p.pos), "neg": node(p.neg)}),
    }


def parse_point(text: str) -> list[Fraction]:
    """Comma-separated point coordinates; every coordinate must be a number."""
    parts = [part.strip() for part in text.split(",")]
    if not all(parts):
        raise FileFormatError(f"empty coordinate in point {_shown(repr(text))}", field="point")
    return [Fraction(*_parse_value(part, "point")) for part in parts]


def parse_scale(obj, symmetric: bool = False) -> ReferenceScale:
    levels = _require(obj, "levels", "scale file")
    if not isinstance(levels, list):
        raise FileFormatError("levels must be a list", field="levels")
    return ReferenceScale(
        tuple(Fraction(*_parse_value(raw, "levels")) for raw in levels), symmetric=symmetric
    )


def scale_payload(scale: ReferenceScale) -> dict:
    return {"levels": [str(v) for v in scale.levels]}
