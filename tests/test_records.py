"""Pins on the six frozen records: ``Tile``, ``BirkhoffForm``,
``ChainDecomposition``, ``Evaluation``, ``ReferenceScale`` and
``LevelIndexing``. Each is built by position, by keyword and with its
defaults, refuses assignment and deletion, equals and hashes by its fields
only against a record of its own class, and matches by position. Importing
the package or its CLI loads none of ``dataclasses``, ``inspect``,
``argparse``, ``gettext`` and ``locale``."""

import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import choqlat as cq

SRC = Path(__file__).resolve().parent.parent / "src"
# one element: every frozenset in a repr has at most one member, so reprs
# do not depend on the string hash seed
POINT = cq.DownsetLattice(cq.Poset(["a"]))
HALF = (Fraction(1, 2), Fraction(1, 2))
CHAIN = (frozenset(), frozenset({"a"}))
BIRKHOFF = cq.verify_distributive(cq.explicit_poset(POINT))

# record class -> the values of its fields, in order
FIELDS = {
    cq.Tile: (POINT, frozenset({"a"}), frozenset()),
    cq.BirkhoffForm: (BIRKHOFF.lattice, BIRKHOFF.eta_map),
    cq.ChainDecomposition: (POINT.base, ("a",), CHAIN, HALF),
    cq.Evaluation: (Fraction(1, 8), ("a",), CHAIN, HALF, None),
    cq.ReferenceScale: ((Fraction(0), Fraction(1, 2), Fraction(1)), False),
    cq.LevelIndexing: ((1, 2), (Fraction(1, 2), Fraction(1)), (2, 1)),
}
NAMES = {
    cq.Tile: ("lattice", "positive", "negative"),
    cq.BirkhoffForm: ("lattice", "eta_map"),
    cq.ChainDecomposition: ("base", "order", "chain", "weights"),
    cq.Evaluation: ("value", "order", "chain", "weights", "tile"),
    cq.ReferenceScale: ("levels", "symmetric"),
    cq.LevelIndexing: ("indices", "residues", "order"),
}
RECORDS = list(FIELDS)
ids = [cls.__name__ for cls in RECORDS]


def made(cls):
    return cls(*FIELDS[cls])


def built():
    """The records as the package's own functions make them, some with
    fields still to be built on first read."""
    profile = cq.Profile(POINT.base, {"a": "0.50"})
    capacity = cq.GeneralizedCapacity(POINT, {x: Fraction(len(x), 4) for x in POINT.elements})
    scale = cq.ReferenceScale(("0", "0.50", "1"))
    return [
        cq.tile(POINT, {"a"}),
        cq.verify_distributive(cq.explicit_poset(POINT)),
        cq.triangulate(profile),
        cq.evaluate(capacity, profile),
        scale,
        cq.locate_point(["0.75", "1"], scale),
    ]


@pytest.mark.parametrize("cls", RECORDS, ids=ids)
def test_keyword_and_positional_construction_agree(cls):
    record = made(cls)
    assert cls(**dict(zip(NAMES[cls], FIELDS[cls]))) == record
    assert tuple(getattr(record, name) for name in NAMES[cls]) == FIELDS[cls]
    assert cls.__match_args__ == NAMES[cls]


def test_positional_patterns():
    match made(cq.LevelIndexing), made(cq.Evaluation):
        case cq.LevelIndexing(indices, _, order), cq.Evaluation(value, _, _, _, tile):
            assert (indices, order, value, tile) == ((1, 2), (2, 1), Fraction(1, 8), None)
        case _:
            pytest.fail("no positional match")


def test_defaults():
    value, order, chain, weights, _ = FIELDS[cq.Evaluation]
    assert cq.Evaluation(value, order, chain, weights).tile is None
    assert cq.Evaluation(value, order, weights=weights, chain=chain).tile is None
    assert cq.Evaluation(value, order, chain, weights, frozenset()).tile == frozenset()
    assert not cq.ReferenceScale(("0", "1")).symmetric
    assert cq.ReferenceScale(levels=("-1", "0", "1"), symmetric=True).k == 2


@pytest.mark.parametrize("cls", RECORDS, ids=ids)
def test_bad_arguments_are_type_errors(cls):
    values, names = FIELDS[cls], NAMES[cls]
    for args, kwargs in [
        ((), {}),
        ((*values, None), {}),
        (values, {names[0]: values[0]}),
        (values, {"nope": 1}),
    ]:
        with pytest.raises(TypeError):
            cls(*args, **kwargs)


@pytest.mark.parametrize("cls", RECORDS, ids=ids)
def test_fields_are_frozen(cls):
    for record in (made(cls), built()[RECORDS.index(cls)]):
        for name in (*NAMES[cls], "extra"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)


@pytest.mark.parametrize("cls", RECORDS, ids=ids)
def test_equal_fields_equal_records(cls):
    first, second = made(cls), made(cls)
    assert first == second and not first != second
    if cls is cq.BirkhoffForm:
        # its eta_map is a dict, so the record is unhashable, as its fields are
        with pytest.raises(TypeError):
            hash(first)
    else:
        assert hash(first) == hash(second)
        assert len({first, second}) == 1


@pytest.mark.parametrize("cls", RECORDS, ids=ids)
def test_built_records_equal_their_fields(cls):
    record = built()[RECORDS.index(cls)]
    fields = tuple(getattr(record, name) for name in NAMES[cls])
    assert record == cls(*fields)
    if cls is not cq.BirkhoffForm:
        assert hash(record) == hash(cls(*fields))


@pytest.mark.parametrize("cls", RECORDS, ids=ids)
def test_records_of_other_classes_differ(cls):
    record = made(cls)
    subclass = type("Sub", (cls,), {})
    others = [FIELDS[cls], list(FIELDS[cls]), subclass(*FIELDS[cls])]
    others += [made(other) for other in RECORDS if other is not cls]
    for other in others:
        assert record != other and other != record
    assert record.__eq__(FIELDS[cls]) is NotImplemented
    assert subclass(*FIELDS[cls]) == subclass(*FIELDS[cls])


def test_reprs():
    assert [repr(made(cq.Tile)), repr(made(cq.LevelIndexing)), repr(made(cq.BirkhoffForm))] == [
        "Tile(lattice=DownsetLattice(base=Poset(1 elements, 0 covers)),"
        " positive=frozenset({'a'}), negative=frozenset())",
        "LevelIndexing(indices=(1, 2), residues=(Fraction(1, 2), Fraction(1, 1)), order=(2, 1))",
        "BirkhoffForm(lattice=DownsetLattice(base=Poset(1 elements, 0 covers)),"
        " eta_map={'{a}': frozenset({'{a}'}), '{}': frozenset()})",
    ]


def test_tile_keeps_its_cached_elements():
    record = cq.tile(POINT, {"a"})
    assert record.elements is record.elements
    assert "elements" in vars(record)


@pytest.mark.parametrize("module", ["choqlat.cli", "choqlat"])
def test_import_path_stays_light(module):
    """A fresh interpreter with no site hook, so nothing preloads or masks
    a module: importing the package or its CLI loads none of
    ``dataclasses``, ``inspect``, ``argparse``, ``gettext`` and ``locale``."""
    heavy = {"dataclasses", "inspect", "argparse", "gettext", "locale"}
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); import {module};"
        f" print(sorted({heavy!r} & set(sys.modules)))"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
