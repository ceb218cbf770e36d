"""Pins on the holders of exact values: capacities and their value tables,
both profile kinds, the chain records and the reference scale. Each keeps
its repr, and a copy, deep copy or pickle of it equals the original whether
it was taken before or after the fields built on first read were read."""

import copy
import pickle
from fractions import Fraction

import pytest

import choqlat as cq

GRID = cq.DownsetLattice(cq.build_kary_base(3, 2))
UNSIGNED = {"c1l1": "0.50", "c1l2": "1/10", "c2l1": "0.3", "c2l2": "2/10"}
SIGNED = {"c1l1": "0.50", "c1l2": "1/10", "c2l1": "-0.3", "c2l2": "-2/10"}
# one element: every frozenset in a repr has at most one member, so reprs
# do not depend on the string hash seed
POINT = cq.DownsetLattice(cq.Poset(["a"]))


def capacity(lattice=GRID):
    return cq.GeneralizedCapacity(lattice, {x: Fraction(len(x), 4) for x in lattice.elements})


def bipolar_capacity(lattice=GRID):
    return cq.BipolarCapacity(
        lattice,
        {p: Fraction(len(p.pos) - len(p.neg), 4) for p in cq.admissible_vertex_pairs(lattice)},
    )


def read_records(record):
    return record.chain, record.weights


def read_monotone(capacity):
    return capacity.is_monotone


def read_values(holder):
    return holder.values


# case -> (a fresh holder, a read of every field it builds on first read)
CASES = {
    "capacity": (capacity, read_monotone),
    "transform output": (lambda: cq.moebius_transform(capacity()), read_monotone),
    "bipolar capacity": (bipolar_capacity, read_monotone),
    "value table": (lambda: capacity().values, len),
    "profile": (lambda: cq.Profile(GRID.base, UNSIGNED), read_values),
    "bipolar profile": (lambda: cq.BipolarProfile(GRID.base, SIGNED), read_values),
    "magnitude": (lambda: cq.BipolarProfile(GRID.base, SIGNED).magnitude(), read_values),
    "decomposition": (lambda: cq.triangulate(cq.Profile(GRID.base, UNSIGNED)), read_records),
    "evaluation": (
        lambda: cq.evaluate(capacity(), cq.Profile(GRID.base, UNSIGNED)),
        read_records,
    ),
    "signed evaluation": (
        lambda: cq.evaluate_bipolar(bipolar_capacity(), cq.BipolarProfile(GRID.base, SIGNED)),
        read_records,
    ),
    "scale": (lambda: cq.ReferenceScale(("0", "0.50", "1")), repr),
}


def state(holder):
    """What two holders of one kind must share to be equal: records, tables
    and scales compare by value; capacities by lattice and table, profiles
    by base and pairs, neither having an equality of its own."""
    if isinstance(holder, (cq.GeneralizedCapacity, cq.BipolarCapacity)):
        values = holder.values
        return type(holder), holder.lattice, list(values.items()), values._integers
    if isinstance(holder, (cq.Profile, cq.BipolarProfile)):
        return type(holder), holder.base, holder._pairs, list(holder.values.items())
    return type(holder), holder


def pickled(holder):
    return pickle.loads(pickle.dumps(holder))


@pytest.mark.parametrize("read_first", [False, True], ids=["unread", "read"])
@pytest.mark.parametrize(
    "copier", [copy.copy, copy.deepcopy, pickled], ids=["copy", "deepcopy", "pickle"]
)
@pytest.mark.parametrize("name", list(CASES))
def test_round_trip(name, copier, read_first):
    make, read = CASES[name]
    original = make()
    if read_first:
        read(original)
    copied = copier(original)
    assert type(copied) is type(original)
    read(copied)
    assert state(copied) == state(original)


@pytest.mark.parametrize(
    "copier", [copy.copy, copy.deepcopy, pickled], ids=["copy", "deepcopy", "pickle"]
)
def test_copied_holders_evaluate_as_the_originals(copier):
    unsigned, signed = cq.Profile(GRID.base, UNSIGNED), cq.BipolarProfile(GRID.base, SIGNED)
    plain, bipolar = capacity(), bipolar_capacity()
    assert cq.evaluate(copier(plain), copier(unsigned)) == cq.evaluate(plain, unsigned)
    assert cq.evaluate_bipolar(copier(bipolar), copier(signed)) == cq.evaluate_bipolar(
        bipolar, signed
    )
    coefficients = cq.moebius_transform(copier(plain))
    assert cq.moebius_form_eval(coefficients, unsigned) == cq.natural_extension(plain, unsigned)


def test_unbuilt_fields_survive_a_copy():
    evaluation = cq.evaluate(capacity(), cq.Profile(GRID.base, UNSIGNED))
    for copied in (copy.copy(evaluation), copy.deepcopy(evaluation), pickled(evaluation)):
        assert "chain" not in vars(copied) and "weights" not in vars(copied)
        assert read_records(copied) == read_records(evaluation)


def test_reprs():
    base = POINT.base
    dec = cq.triangulate(cq.Profile(base, {"a": "0.50"}))
    signed = cq.evaluate_bipolar(bipolar_capacity(POINT), cq.BipolarProfile(base, {"a": "-0.50"}))
    half = "(Fraction(1, 2), Fraction(1, 2))"
    assert [
        repr(capacity()),
        repr(cq.moebius_transform(capacity())),
        repr(capacity().values),
        repr(bipolar_capacity()),
        repr(cq.Profile(GRID.base, UNSIGNED)),
        repr(cq.BipolarProfile(GRID.base, SIGNED)),
        repr(cq.BipolarProfile(GRID.base, SIGNED).magnitude()),
        repr(dec),
        repr(cq.evaluate(capacity(POINT), cq.Profile(base, {"a": "0.50"}))),
        repr(signed),
        repr(cq.ReferenceScale(("0", "0.50", "1"))),
    ] == [
        "GeneralizedCapacity(on 9 elements)",
        "GeneralizedCapacity(on 9 elements)",
        "ValueTable(on 9 vertices)",
        "BipolarCapacity(on 25 signed vertices)",
        "Profile(on 4 elements)",
        "BipolarProfile(on 4 elements)",
        "Profile(on 4 elements)",
        "ChainDecomposition(base=Poset(1 elements, 0 covers), order=('a',),"
        f" chain=(frozenset(), frozenset({{'a'}})), weights={half})",
        "Evaluation(value=Fraction(1, 8), order=('a',),"
        f" chain=(frozenset(), frozenset({{'a'}})), weights={half}, tile=None)",
        "Evaluation(value=Fraction(-1, 8), order=('a',),"
        " chain=(BipolarElement(pos=frozenset(), neg=frozenset()),"
        " BipolarElement(pos=frozenset(), neg=frozenset({'a'}))),"
        f" weights={half}, tile=frozenset())",
        "ReferenceScale(levels=(Fraction(0, 1), Fraction(1, 2), Fraction(1, 1)), symmetric=False)",
    ]


def test_profile_kinds_are_apart():
    signed, unsigned = cq.BipolarProfile(GRID.base, SIGNED), cq.Profile(GRID.base, UNSIGNED)
    assert not isinstance(signed, cq.Profile)
    assert not isinstance(unsigned, cq.BipolarProfile)
    assert type(signed.magnitude()) is cq.Profile


def test_unknown_record_field():
    dec = cq.triangulate(cq.Profile(GRID.base, UNSIGNED))
    evaluation = cq.evaluate(capacity(), cq.Profile(GRID.base, UNSIGNED))
    for record in (dec, evaluation):
        with pytest.raises(AttributeError, match="object has no attribute 'nope'$"):
            record.nope
