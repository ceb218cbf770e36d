import operator
from fractions import Fraction
from itertools import product

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import choqlat as cq
from choqlat.moebius import vertex_table
from support import (
    antichain,
    capacities,
    capacity_tables,
    chain,
    exact_tables,
    lattices,
    moebius_function,
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

    def test_missing_values_rejected(self):
        lattice = boolean_lattice(2)
        with pytest.raises(cq.BaseMismatch):
            cq.GeneralizedCapacity(lattice, {frozenset(): 0})

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

    def test_only_own_keys_in_domain_order_skip_the_key_check(self):
        lattice = cq.DownsetLattice(wedge_poset())
        checked = []

        def vertex(key):
            checked.append(key)
            return lattice.check_element(key)

        own = {x: Fraction(i) for i, x in enumerate(lattice.elements)}
        assert vertex_table(lattice.elements, own, vertex, "elements") == own
        assert checked == []
        reordered = dict(reversed(own.items()))
        table = vertex_table(lattice.elements, reordered, vertex, "elements")
        assert list(table.items()) == list(own.items())
        assert len(checked) == len(own)
        checked.clear()
        short = dict(list(own.items())[:-1])
        with pytest.raises(cq.BaseMismatch):
            vertex_table(lattice.elements, short, vertex, "elements")
        assert len(checked) == len(short)
        checked.clear()
        extra = {**own, frozenset({"b"}): 0}
        with pytest.raises(cq.NotAnElement):
            vertex_table(lattice.elements, extra, vertex, "elements")


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


def _subsets(s):
    items = sorted(s)
    for mask in range(1 << len(items)):
        yield [items[i] for i in range(len(items)) if mask >> i & 1]
