import operator
from fractions import Fraction
from itertools import product

import random
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

import choqlat as cq
from choqlat.birkhoff import _Family, _lattice_family
from choqlat.moebius import FileTable, ValueTable, _numerators, vertex_table
from support import (
    VALUE_KINDS,
    Unscannable,
    antichain,
    capacities,
    capacity_tables,
    chain,
    exact_tables,
    lattices,
    moebius_function,
    slow_bipolar_is_monotone,
    slow_bipolar_moebius_transform,
    slow_bipolar_zeta_transform,
    slow_cover_pairs,
    slow_disjoint_element_pairs,
    slow_moebius_transform,
    slow_zeta_transform,
    wedge_poset,
)


def boolean_lattice(n: int) -> cq.DownsetLattice:
    return cq.DownsetLattice(antichain(n))


def inline_rota(elements, leq, lower, upper):
    """Independent reference recursion, kept deliberately naive."""
    if lower == upper:
        return 1
    return -sum(
        inline_rota(elements, leq, lower, mid)
        for mid in elements
        if leq(lower, mid) and leq(mid, upper) and mid != upper
    )


class TestMoebiusFunction:
    def test_chain_steps(self):
        p = chain(3)
        assert moebius_function(p, "x0", "x1") == -1
        assert moebius_function(p, "x0", "x2") == 0
        assert moebius_function(p, "x1", "x1") == 1

    def test_boolean_square_top(self):
        lattice = boolean_lattice(2)
        assert cq.lattice_moebius(lattice, frozenset(), lattice.top) == 1
        assert cq.lattice_moebius(lattice, frozenset(), frozenset({"1"})) == -1

    def test_wedge_lattice_top(self):
        lattice = cq.DownsetLattice(wedge_poset())
        assert cq.lattice_moebius(lattice, frozenset(), lattice.top) == 0

    def test_not_comparable(self):
        with pytest.raises(cq.NotComparable):
            moebius_function(wedge_poset(), "b", "a")

    def test_lattice_moebius_needs_comparable_elements(self):
        lattice = cq.DownsetLattice(wedge_poset())
        with pytest.raises(cq.NotComparable):
            cq.lattice_moebius(lattice, {"a"}, {"c"})

    def test_capacity_call(self):
        lattice = cq.DownsetLattice(wedge_poset())
        capacity = cq.GeneralizedCapacity(lattice, {d: len(d) for d in lattice.elements})
        assert capacity({"a", "c"}) == 2
        assert capacity([]) == 0
        with pytest.raises(cq.NotAnElement, match="not a lattice element"):
            capacity({"b"})

    @given(lattices(min_elements=1, max_elements=4), st.data())
    def test_matches_inline_recursion(self, lattice, data):
        x = data.draw(st.sampled_from(lattice.elements))
        lows = [y for y in lattice.elements if y <= x]
        y = data.draw(st.sampled_from(lows))
        assert cq.lattice_moebius(lattice, y, x) == inline_rota(
            lattice.elements, frozenset.issubset, y, x
        )

    @given(lattices(min_elements=1, max_elements=4))
    def test_column_sums_vanish(self, lattice):
        for x in lattice.elements:
            total = sum(
                cq.lattice_moebius(lattice, y, x)
                for y in lattice.elements
                if y <= x
            )
            assert total == (1 if x == lattice.bottom else 0)


class TestTransforms:
    def test_boolean_inclusion_exclusion(self):
        lattice = boolean_lattice(2)
        capacity = cq.GeneralizedCapacity(
            lattice,
            {
                frozenset(): 0,
                frozenset({"1"}): "0.3",
                frozenset({"2"}): "0.4",
                frozenset({"1", "2"}): 1,
            },
        )
        vector = cq.moebius_transform(capacity)
        assert vector.values == {
            frozenset(): Fraction(0),
            frozenset({"1"}): Fraction(3, 10),
            frozenset({"2"}): Fraction(2, 5),
            frozenset({"1", "2"}): Fraction(3, 10),
        }

    def test_unanimity_extremes(self):
        lattice = boolean_lattice(2)
        bottom_one = cq.unanimity(lattice, lattice.bottom)
        assert all(v == 1 for v in bottom_one.values.values())
        top_one = cq.unanimity(lattice, lattice.top)
        assert [e for e, v in top_one.values.items() if v == 1] == [lattice.top]

    @given(lattices(max_elements=4), st.data())
    def test_unanimity_has_delta_coefficients(self, lattice, data):
        if not lattice.elements:
            return
        x = data.draw(st.sampled_from(lattice.elements))
        vector = cq.moebius_transform(cq.unanimity(lattice, x))
        assert all(
            coeff == (1 if element == x else 0)
            for element, coeff in vector.values.items()
        )

    @given(st.data())
    def test_round_trip(self, data):
        lattice = data.draw(lattices(max_elements=4))
        capacity = data.draw(capacities(lattice))
        again = cq.zeta_transform(cq.moebius_transform(capacity))
        assert again.values == capacity.values

    @given(st.data())
    def test_reverse_round_trip(self, data):
        lattice = data.draw(lattices(max_elements=4))
        seed = data.draw(capacities(lattice))
        again = cq.moebius_transform(cq.zeta_transform(seed))
        assert again.values == seed.values

    @given(st.data())
    def test_linearity(self, data):
        lattice = data.draw(lattices(max_elements=4))
        g = data.draw(capacities(lattice))
        h = data.draw(capacities(lattice))
        alpha, beta = Fraction(2, 3), Fraction(-5, 7)
        mixed = cq.GeneralizedCapacity(
            lattice,
            {e: alpha * g.values[e] + beta * h.values[e] for e in lattice.elements},
        )
        mg = cq.moebius_transform(g).values
        mh = cq.moebius_transform(h).values
        mixed_vector = cq.moebius_transform(mixed).values
        assert mixed_vector == {
            e: alpha * mg[e] + beta * mh[e] for e in lattice.elements
        }

    def test_capacity_flags(self):
        lattice = boolean_lattice(2)
        capacity = cq.GeneralizedCapacity(
            lattice,
            {
                frozenset(): 0,
                frozenset({"1"}): "0.5",
                frozenset({"2"}): "0.2",
                frozenset({"1", "2"}): 1,
            },
        )
        assert capacity.is_game
        assert capacity.is_monotone
        skewed = cq.GeneralizedCapacity(
            lattice,
            {
                frozenset(): 1,
                frozenset({"1"}): 0,
                frozenset({"2"}): 0,
                frozenset({"1", "2"}): 0,
            },
        )
        assert not skewed.is_game
        assert not skewed.is_monotone

    @given(lattices(max_elements=6), st.data())
    def test_is_monotone_matches_oracle(self, lattice, data):
        capacity = cq.GeneralizedCapacity(lattice, data.draw(capacity_tables(lattice)))
        assert capacity.is_monotone == all(
            capacity.values[a] <= capacity.values[b] for a, b in slow_cover_pairs(lattice)
        )

    @pytest.mark.parametrize("signed", [False, True])
    def test_is_monotone_builds_no_plan(self, signed):
        """The check walks each vertex's lower covers through the family's
        codes, monotone tables to the end, and keeps no step plan."""
        lattice = cq.DownsetLattice(cq.build_kary_base(3, 2))
        if signed:
            values = {p: len(p.pos) - len(p.neg) for p in cq.admissible_vertex_pairs(lattice)}
            capacity = cq.BipolarCapacity(lattice, values)
        else:
            capacity = cq.GeneralizedCapacity(lattice, {d: len(d) for d in lattice.elements})
        assert capacity.is_monotone
        assert "plan" not in vars(capacity._family)

    def test_missing_values_rejected(self):
        lattice = boolean_lattice(2)
        with pytest.raises(cq.BaseMismatch):
            cq.GeneralizedCapacity(lattice, {frozenset(): 0})

    @pytest.mark.parametrize("kind", ["unsigned", "signed"])
    def test_one_vertex_under_two_keys(self, kind):
        """A table that gives one vertex under two keys is refused when the
        two values differ, as a file with such a clash is, and accepted
        when they are equal, however each is written."""
        lattice = cq.DownsetLattice(antichain(2))
        one = frozenset({"1"})
        if kind == "unsigned":
            build, vertex, key, shown = cq.GeneralizedCapacity, one, ("1",), "['1']"
            table = {x: Fraction(len(x), 3) for x in lattice.elements}
        else:
            build, vertex, key = cq.BipolarCapacity, (one, frozenset()), (("1",), ())
            shown = "(['1'], [])"
            pairs = cq.admissible_vertex_pairs(lattice)
            table = {x: Fraction(len(x.pos) - len(x.neg), 3) for x in pairs}
        assert table[vertex] == Fraction(1, 3)
        with pytest.raises(cq.ContradictoryValue, match=re.escape(shown)):
            build(lattice, {**table, key: Fraction(2, 3)})
        with pytest.raises(cq.ContradictoryValue):
            build(lattice, {key: Fraction(2, 3), **table})
        assert build(lattice, {**table, key: "2/6"}).values == build(lattice, table).values

    @pytest.mark.parametrize("bad", ["abc", True])
    def test_own_keys_still_check_values(self, bad):
        """A table keyed by the lattice's own element objects skips the key
        check, not the value check: it fails as an equal-keyed copy does."""
        lattice = boolean_lattice(2)
        own = dict.fromkeys(lattice.elements, "1/2")
        own[lattice.elements[2]] = bad
        copy = {frozenset(sorted(x)): v for x, v in own.items()}
        assert not all(map(operator.is_, copy, lattice.elements))  # the full path
        errors = []
        for table in (own, copy):
            with pytest.raises((TypeError, ValueError)) as info:
                cq.GeneralizedCapacity(lattice, table)
            errors.append((type(info.value), str(info.value)))
        assert errors[0] == errors[1]
        signed = dict.fromkeys(cq.bipolar_extension(lattice), 0)
        signed[cq.bipolar_extension(lattice)[3]] = bad
        plain = {(frozenset(sorted(p)), frozenset(sorted(n))): v for (p, n), v in signed.items()}
        errors = []
        for table in (signed, plain):
            with pytest.raises((TypeError, ValueError)) as info:
                cq.bipolar_moebius_transform(lattice, table)
            errors.append((type(info.value), str(info.value)))
        assert errors[0] == errors[1]

    def test_table_on_the_domain_positions_is_handed_over_unscanned(self):
        """A table built on the domain's own vertex family is returned before
        any key or code is looked up; a table on another family of the same
        vertices is still scanned."""
        lattice = cq.DownsetLattice(wedge_poset())
        family = lattice.derived(_lattice_family)
        family.positions = Unscannable((x, i) for i, x in enumerate(lattice.elements))
        family.codes = Unscannable((c, i) for i, c in enumerate(family.order))
        table = ValueTable(family, list(range(len(family.order))), 3)
        assert vertex_table(family, table, "elements") is table
        other = _Family(lattice, family.order, family.maxima, signed=False)
        same = ValueTable(other, list(range(len(family.order))), 3)
        assert list(same) == list(lattice.elements)
        with pytest.raises(AssertionError, match="scanned"):
            vertex_table(family, same, "elements")

    def test_keys_outside_the_position_table_get_the_key_check(self):
        """Keys of the domain, its own vertex objects or equal ones, take one
        position lookup each, and only other keys go through the family's
        key check; the values come back as numerators by position over their
        least common denominator. A positional table on the family itself
        hands over its integers unread."""
        lattice = cq.DownsetLattice(wedge_poset())
        checked, looked_up = [], []

        class Positions(dict):
            def __getitem__(self, key):
                looked_up.append(key)
                return super().__getitem__(key)

        elements = lattice.derived(_lattice_family)
        family = _Family(lattice, elements.order, elements.maxima, signed=False)
        family.positions = Positions((x, i) for i, x in enumerate(lattice.elements))

        def check(key):
            checked.append(key)
            return _Family.check(family, key)

        family.check = check

        own = {x: Fraction(i, 1 + i % 3) for i, x in enumerate(lattice.elements)}
        by_position = list(own.values())
        expected = _numerators(by_position)
        assert vertex_table(family, own, "elements")._integers == expected
        assert checked == [] and looked_up == list(own)
        looked_up.clear()
        positional = ValueTable(family, *expected)
        assert vertex_table(family, positional, "elements")._integers is positional._integers
        assert (checked, looked_up) == ([], [])
        equal = {frozenset(sorted(x)): v for x, v in reversed(own.items())}
        assert vertex_table(family, equal, "elements")._integers == expected
        assert checked == [] and len(looked_up) == len(own)
        tuples = {tuple(sorted(x)): v for x, v in own.items()}
        assert vertex_table(family, tuples, "elements")._integers == expected
        assert checked == list(tuples)
        checked.clear()
        short = dict(list(own.items())[:-1])
        with pytest.raises(cq.BaseMismatch):
            vertex_table(family, short, "elements")
        assert checked == []
        extra = {**own, ("b",): 0}
        with pytest.raises(cq.NotAnElement):
            vertex_table(family, extra, "elements")
        assert checked == [("b",)]
        checked.clear()
        looked_up.clear()
        # a file's pairs keyed by vertex code: found among the codes and
        # taken as they are, with neither the position dict nor the key check
        coded = FileTable()
        coded.update((family.order[i], v.as_integer_ratio()) for i, v in enumerate(by_position))
        assert vertex_table(family, coded, "elements")._integers == expected
        assert (checked, looked_up) == ([], [])


class TestBipolarMoebius:
    def test_single_atom_product(self):
        lattice = boolean_lattice(1)
        bottom = (frozenset(), frozenset())
        assert cq.bipolar_moebius_function(lattice, bottom, (frozenset({"1"}), frozenset())) == -1

    def test_square_product_by_hand(self):
        lattice = boolean_lattice(2)
        bottom = (frozenset(), frozenset())
        assert (
            cq.bipolar_moebius_function(
                lattice, bottom, (frozenset({"1"}), frozenset({"2"}))
            )
            == 1
        )

    def test_rejects_overlapping_pair(self):
        lattice = boolean_lattice(2)
        with pytest.raises(cq.NotInBipolarExtension):
            cq.bipolar_moebius_function(
                lattice,
                (frozenset(), frozenset()),
                (frozenset({"1"}), frozenset({"1"})),
            )

    def test_rejects_incomparable(self):
        lattice = boolean_lattice(2)
        with pytest.raises(cq.NotComparable):
            cq.bipolar_moebius_function(
                lattice,
                (frozenset({"1"}), frozenset()),
                (frozenset(), frozenset({"1"})),
            )

    @pytest.mark.parametrize(
        "base",
        [antichain(2), antichain(3), cq.build_kary_base(3, 2), wedge_poset()],
        ids=["bool2", "bool3", "grid3x2", "wedge"],
    )
    def test_product_rule_equals_recursion_everywhere(self, base):
        lattice = cq.DownsetLattice(base)
        pairs = cq.bipolar_extension(lattice)
        cache = {}
        for low in pairs:
            for up in pairs:
                if cq.bipolar_leq(low, up):
                    assert cq.bipolar_moebius_function(
                        lattice, low, up
                    ) == cq.rota_moebius(pairs, cq.bipolar_leq, low, up, cache)

    def test_unanimity_support_in_nine_element_extension(self):
        lattice = boolean_lattice(2)
        table = cq.bipolar_unanimity(lattice, (frozenset({"1"}), frozenset()))
        support = {pair for pair, value in table.items() if value == 1}
        assert support == {
            (frozenset({"1"}), frozenset()),
            (frozenset({"1", "2"}), frozenset()),
            (frozenset({"1"}), frozenset({"2"})),
        }
        assert len(table) == 9

    def test_unanimity_transform_is_delta(self):
        lattice = boolean_lattice(2)
        target = (frozenset({"1"}), frozenset({"2"}))
        table = cq.bipolar_unanimity(lattice, target)
        coefficients = cq.bipolar_moebius_transform(lattice, table)
        assert all(
            value == (1 if pair == target else 0)
            for pair, value in coefficients.items()
        )

    def test_round_trip_on_nine_elements(self):
        import random

        rng = random.Random(7)
        lattice = boolean_lattice(2)
        table = {
            pair: Fraction(rng.randint(-12, 12), 7)
            for pair in cq.bipolar_extension(lattice)
        }
        coefficients = cq.bipolar_moebius_transform(lattice, table)
        again = cq.bipolar_zeta_transform(lattice, coefficients)
        assert again == table

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_boolean_alternating_sign_formula(self, n):
        import random

        rng = random.Random(n)
        lattice = boolean_lattice(n)
        table = {
            pair: Fraction(rng.randint(-20, 20), 9)
            for pair in cq.bipolar_extension(lattice)
        }
        coefficients = cq.bipolar_moebius_transform(lattice, table)
        for (a1, a2), coeff in coefficients.items():
            expected = sum(
                (
                    (-1) ** (len(a1 - frozenset(b1)) + len(a2 - frozenset(b2)))
                    * table[(frozenset(b1), frozenset(b2))]
                    for b1 in _subsets(a1)
                    for b2 in _subsets(a2)
                ),
                Fraction(0),
            )
            assert coeff == expected

    def test_transform_requires_full_extension(self):
        lattice = boolean_lattice(2)
        with pytest.raises(cq.BaseMismatch):
            cq.bipolar_moebius_transform(lattice, {(frozenset(), frozenset()): 1})


class TestFastTransformsAgainstSlowPath:
    """The integer passes along the per-lattice step plan against the slow
    oracles (sums over everything below, or over every comparable pair
    weighted by the Moebius recursion), on posets of up to six elements and
    tables whose common denominator is 1, small, a product of coprime
    primes, or dozens of digits long."""

    @given(st.data())
    def test_unsigned_matches_slow(self, data):
        lattice = data.draw(lattices(max_elements=6))
        capacity = cq.GeneralizedCapacity(lattice, data.draw(exact_tables(lattice.elements)))
        fast = cq.moebius_transform(capacity).values
        slow = slow_moebius_transform(capacity).values
        assert list(fast.items()) == list(slow.items())
        fast = cq.zeta_transform(capacity).values
        slow = slow_zeta_transform(capacity).values
        assert list(fast.items()) == list(slow.items())

    @given(lattices(max_elements=6), st.data())
    def test_bipolar_matches_slow(self, lattice, data):
        table = data.draw(exact_tables(slow_disjoint_element_pairs(lattice)))
        fast = cq.bipolar_moebius_transform(lattice, table)
        slow = slow_bipolar_moebius_transform(lattice, table)
        assert list(fast.items()) == list(slow.items())
        fast = cq.bipolar_zeta_transform(lattice, table)
        slow = slow_bipolar_zeta_transform(lattice, table)
        assert list(fast.items()) == list(slow.items())

    @given(st.data())
    def test_zeta_inverts_moebius(self, data):
        lattice = data.draw(lattices(max_elements=6))
        capacity = cq.GeneralizedCapacity(lattice, data.draw(exact_tables(lattice.elements)))
        again = cq.zeta_transform(cq.moebius_transform(capacity))
        assert list(again.values.items()) == list(capacity.values.items())
        table = data.draw(exact_tables(slow_disjoint_element_pairs(lattice)))
        signed = cq.bipolar_zeta_transform(
            lattice, cq.bipolar_moebius_transform(lattice, table)
        )
        assert list(signed.items()) == list(table.items())

    @given(lattices(max_elements=6))
    def test_disjoint_pairs_match_double_loop(self, lattice):
        pairs = cq.bipolar_extension(lattice)
        assert pairs == slow_disjoint_element_pairs(lattice)
        assert cq.bipolar_extension(lattice) is pairs

    @given(lattices(max_elements=6))
    def test_closed_form_matches_recursion(self, lattice):
        cache = {}
        for x in lattice.elements:
            for y in lattice.elements:
                if y <= x:
                    assert cq.lattice_moebius(lattice, y, x) == cq.rota_moebius(
                        lattice.elements, frozenset.issubset, y, x, cache
                    )

    @given(lattices(max_elements=6))
    def test_bipolar_closed_form_matches_recursion(self, lattice):
        pairs = cq.bipolar_extension(lattice)
        cache = {}
        for low in pairs:
            for up in pairs:
                if cq.bipolar_leq(low, up):
                    assert cq.bipolar_moebius_function(
                        lattice, low, up
                    ) == cq.rota_moebius(pairs, cq.bipolar_leq, low, up, cache)


    def test_interleaved_and_repeated_transforms_equal_fresh_ones(self):
        """Lattices kept across calls, each running both transforms in turn,
        give what a lattice that has seen nothing else gives."""
        rng = random.Random(17)
        draw = lambda: Fraction(rng.randint(-99, 99), rng.randint(1, 40))
        kept = [cq.DownsetLattice(cq.build_kary_base(3, 2)), cq.DownsetLattice(wedge_poset())]
        for _ in range(4):
            for lattice in kept:
                values = {x: draw() for x in lattice.elements}
                got = cq.moebius_transform(cq.GeneralizedCapacity(lattice, values))
                fresh = cq.DownsetLattice(lattice.base)
                want = cq.moebius_transform(cq.GeneralizedCapacity(fresh, values))
                assert list(got.values.items()) == list(want.values.items())
                assert cq.zeta_transform(got).values == values
                table = {pair: draw() for pair in cq.bipolar_extension(lattice)}
                got = cq.bipolar_moebius_transform(lattice, table)
                fresh = cq.DownsetLattice(lattice.base)
                want = cq.bipolar_moebius_transform(fresh, table)
                assert list(got.items()) == list(want.items())
                assert cq.bipolar_zeta_transform(lattice, got) == table


WEDGE = cq.DownsetLattice(wedge_poset())
BOTTOM = cq.BipolarElement(frozenset(), frozenset())
OVERLAP = (("a",), ("a",))


def _drop_last(table: dict, count: int) -> dict:
    return dict(list(table.items())[:-count])


def _unpack_pair(key) -> None:
    pos, neg = key


def _interpreter_text(action, *args) -> str:
    """The text this interpreter gives the error of ``action(*args)``."""
    try:
        action(*args)
    except (TypeError, ValueError) as exc:
        return str(exc)
    raise AssertionError("no error")


class TestPositionalTables:
    """Capacities and coefficient tables held as integer numerators by
    position over one denominator: transform outputs against the slow
    oracles for every kind of table, with and without their ``values``
    read first, and the errors of the key check pinned word for word."""

    @pytest.mark.parametrize("kind", sorted(VALUE_KINDS))
    @given(data=st.data())
    def test_transform_outputs_match_slow(self, kind, data):
        lattice = data.draw(lattices(max_elements=6))
        capacity = cq.GeneralizedCapacity(lattice, data.draw(exact_tables(lattice.elements, kind)))
        for fast, slow in (
            (cq.moebius_transform, slow_moebius_transform),
            (cq.zeta_transform, slow_zeta_transform),
        ):
            out = fast(capacity)
            assert list(out.values.items()) == list(slow(capacity).values.items())
            assert out.is_monotone == all(
                out.values[a] <= out.values[b] for a, b in slow_cover_pairs(lattice)
            )
        again = cq.zeta_transform(cq.moebius_transform(capacity))
        assert list(again.values.items()) == list(capacity.values.items())

    @pytest.mark.parametrize("kind", sorted(VALUE_KINDS))
    @given(data=st.data())
    def test_reading_values_first_changes_nothing(self, kind, data):
        """A transform of a transform's output gives the same table whether
        or not that output's values were read first."""
        lattice = data.draw(lattices(max_elements=6))
        capacity = cq.GeneralizedCapacity(lattice, data.draw(exact_tables(lattice.elements, kind)))
        results = []
        for read in (False, True):
            vector = cq.moebius_transform(capacity)
            if read:
                vector.values
            again = cq.zeta_transform(vector)
            twice = cq.moebius_transform(cq.moebius_transform(vector))
            results.append((list(again.values.items()), list(twice.values.items())))
        assert results[0] == results[1]
        assert results[0][0] == list(capacity.values.items())

    @pytest.mark.parametrize("kind", sorted(VALUE_KINDS))
    @given(data=st.data())
    def test_values_round_trip_through_the_constructor(self, kind, data):
        lattice = data.draw(lattices(max_elements=6))
        capacity = cq.GeneralizedCapacity(lattice, data.draw(exact_tables(lattice.elements, kind)))
        for table in (capacity, cq.moebius_transform(capacity), cq.zeta_transform(capacity)):
            copy = cq.GeneralizedCapacity(lattice, table.values)
            assert list(copy.values.items()) == list(table.values.items())
            assert all(type(v) is Fraction for v in copy.values.values())
            slow = slow_moebius_transform(copy).values
            assert list(cq.moebius_transform(copy).values.items()) == list(slow.items())

    @pytest.mark.parametrize("kind", sorted(VALUE_KINDS))
    @given(data=st.data())
    def test_bipolar_transforms_match_slow(self, kind, data):
        """Any base: the whole extension as a plain table; mosaic bases: a
        capacity's own values too."""
        lattice = data.draw(lattices(max_elements=5))
        table = data.draw(exact_tables(slow_disjoint_element_pairs(lattice), kind))
        for fast, slow in (
            (cq.bipolar_moebius_transform, slow_bipolar_moebius_transform),
            (cq.bipolar_zeta_transform, slow_bipolar_zeta_transform),
        ):
            assert list(fast(lattice, table).items()) == list(slow(lattice, table).items())
        if cq.is_regular_mosaic(lattice.base):
            capacity = cq.BipolarCapacity(lattice, table)
            coefficients = cq.bipolar_moebius_transform(lattice, capacity.values)
            slow = slow_bipolar_moebius_transform(lattice, table)
            assert list(coefficients.items()) == list(slow.items())
            again = cq.bipolar_zeta_transform(lattice, coefficients)
            assert list(again.items()) == list(capacity.values.items())
        else:
            stored = {pair: table[pair] for pair in cq.admissible_vertex_pairs(lattice)}
            capacity = cq.BipolarCapacity(lattice, stored)
            with pytest.raises(cq.BaseMismatch):
                cq.bipolar_moebius_transform(lattice, capacity.values)
        assert capacity.is_monotone == slow_bipolar_is_monotone(capacity)

    @pytest.mark.parametrize(
        "build, table, error, message",
        [
            (
                "unsigned", _drop_last(dict.fromkeys(WEDGE.elements, 1), 2), cq.BaseMismatch,
                "missing values for 2 of the 5 lattice elements, e.g. ['a', 'c']",
            ),
            (
                "unsigned", {**dict.fromkeys(WEDGE.elements, 1), ("b",): 1}, cq.NotAnElement,
                "['b'] is not a downset of the base poset",
            ),
            (
                "unsigned", {**dict.fromkeys(WEDGE.elements, 1), 5: 1}, TypeError,
                _interpreter_text(frozenset, 5),
            ),
            (
                "signed", _drop_last(dict.fromkeys(cq.admissible_vertex_pairs(WEDGE), 1), 3),
                cq.BaseMismatch,
                "missing values for 3 of the 9 signed vertices in a tile, e.g. (['c'], [])",
            ),
            (
                "extension", _drop_last(dict.fromkeys(cq.bipolar_extension(WEDGE), 1), 3),
                cq.BaseMismatch,
                "missing values for 3 of the 11 pairs of the bipolar extension,"
                " e.g. (['c'], ['a'])",
            ),
            ("signed", {(("a",), ("c",)): 1}, cq.NotInTile, "(['a'], ['c']) lies in no tile"),
            ("signed", {OVERLAP: 1}, cq.NotInBipolarExtension, "parts are not disjoint: ['a']"),
            ("extension", {OVERLAP: 1}, cq.NotInBipolarExtension, "parts are not disjoint: ['a']"),
            (
                "signed", {(frozenset({"9"}), 5): 1}, cq.NotAnElement,
                "['9'] is not a downset of the base poset",
            ),
            ("extension", {"ab": 1}, cq.NotAnElement, "['b'] is not a downset of the base poset"),
            ("signed", {(frozenset(), 5): 1}, TypeError, _interpreter_text(frozenset, 5)),
            ("extension", {5: 1}, TypeError, _interpreter_text(_unpack_pair, 5)),
            (
                "signed", {(frozenset(),) * 3: 1}, ValueError,
                _interpreter_text(_unpack_pair, (frozenset(),) * 3),
            ),
            ("extension", {BOTTOM: "1/0"}, ValueError, "zero denominator in '1/0'"),
        ],
        ids=[
            "unsigned_missing", "unsigned_not_an_element", "unsigned_not_iterable",
            "signed_missing", "extension_missing", "signed_not_in_tile",
            "signed_overlap", "extension_overlap", "signed_not_an_element",
            "extension_string_key", "signed_not_iterable", "extension_not_iterable",
            "signed_triple", "extension_bad_value",
        ],
    )
    def test_key_errors_unchanged(self, build, table, error, message):
        """Each bad table fails with the class and text it always had; a
        bad key among good ones fails the same, wherever it sits."""
        full = {
            "unsigned": WEDGE.elements,
            "signed": cq.admissible_vertex_pairs(WEDGE),
            "extension": cq.bipolar_extension(WEDGE),
        }[build]
        run = {
            "unsigned": lambda t: cq.GeneralizedCapacity(WEDGE, t),
            "signed": lambda t: cq.BipolarCapacity(WEDGE, t),
            "extension": lambda t: cq.bipolar_moebius_transform(WEDGE, t),
        }[build]
        tables = [table]
        if len(table) == 1 and next(iter(table)) not in full:
            good = dict.fromkeys(full, 1)
            tables += [{**good, **table}, {**table, **good}]
        for each in tables:
            with pytest.raises(error) as info:
                run(each)
            assert str(info.value) == message
            if build == "extension":
                with pytest.raises(error) as info:
                    cq.bipolar_zeta_transform(WEDGE, each)
                assert str(info.value) == message


def _subsets(s):
    items = sorted(s)
    for mask in range(1 << len(items)):
        yield [items[i] for i in range(len(items)) if mask >> i & 1]
