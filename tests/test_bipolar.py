import random
from collections.abc import Mapping
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import choqlat as cq
import choqlat.bipolar
import choqlat.birkhoff
import choqlat.interpolation
from choqlat.birkhoff import _extension_family
from choqlat.bipolar import _admissible_family
from choqlat.moebius import ValueTable
from support import (
    PLAN_BASES,
    PROFILE_VALUES,
    VALUE_KINDS,
    Unscannable,
    antichain,
    bipolar_capacity_tables,
    exact_tables,
    fan,
    lattices,
    maximal_count,
    mosaic_bases,
    posets,
    profiles,
    random_bipolar_capacity,
    random_capacity,
    random_fraction,
    random_linear_extension,
    random_profile,
    random_signed_profile,
    reduce_order,
    signed_profiles,
    slow_admissible_pairs,
    slow_admissible_steps,
    slow_bipolar_cover_pairs,
    slow_bipolar_is_monotone,
    slow_bipolar_moebius_form_eval,
    slow_bipolar_moebius_transform,
    slow_bipolar_zeta_transform,
    slow_chain_value,
    slow_disjoint_element_pairs,
    slow_evaluation,
    slow_triangulate,
    tied_values,
    unit_fractions,
    wedge,
    wedge_poset,
)


def _steps_as_lists(lattice) -> tuple:
    """The admissible family's plan as the oracle gives it: (keys, lowers)
    lists of the steps that grow the positive part, then of the others,
    checked to hold one step per maximal element of each vertex."""
    family = lattice.derived(_admissible_family)
    keys, lowers = family.plan
    assert len(keys) == maximal_count(lattice.base, family.vertices)
    # a step that grows the positive part changes one of the low |base| bits
    low, order = 1 << len(lattice.base), family.order
    rising = sum(order[key] ^ order[lower] < low for key, lower in zip(keys, lowers))
    return (
        (list(keys[:rising]), list(lowers[:rising])),
        (list(keys[rising:]), list(lowers[rising:])),
    )


def pair(pos=(), neg=()):
    return cq.BipolarElement(frozenset(pos), frozenset(neg))


@pytest.fixture
def boolean2():
    return cq.DownsetLattice(antichain(2))


@pytest.fixture
def grid():
    return cq.DownsetLattice(cq.build_kary_base(3, 2))


@pytest.fixture
def wedge_lattice():
    return cq.DownsetLattice(wedge_poset())


class TestExtension:
    def test_nine_elements_for_two_atoms(self, boolean2):
        assert len(cq.bipolar_extension(boolean2)) == 9

    def test_three_to_the_n(self):
        for n in range(1, 5):
            lattice = cq.DownsetLattice(antichain(n))
            assert len(cq.bipolar_extension(lattice)) == 3 ** n

    def test_wedge_eleven_with_orphans(self, wedge_lattice):
        extension = cq.bipolar_extension(wedge_lattice)
        assert len(extension) == 11
        assert pair({"a"}, {"c"}) in extension
        assert pair({"c"}, {"a"}) in extension

    def test_single_chain(self):
        lattice = cq.DownsetLattice(cq.Poset(["j"], []))
        assert set(cq.bipolar_extension(lattice)) == {
            pair(),
            pair({"j"}),
            pair((), {"j"}),
        }

    @pytest.mark.parametrize(
        "base",
        [wedge_poset(), antichain(4), cq.build_kary_base(3, 2)],
        ids=["wedge", "antichain4", "grid3x2"],
    )
    def test_cover_pairs_match_transitive_reduction(self, base):
        extension = cq.bipolar_extension(cq.DownsetLattice(base))
        assert cq.bipolar_cover_pairs(cq.DownsetLattice(base)) == reduce_order(
            extension, cq.bipolar_leq
        )

    @given(lattices(max_elements=6))
    def test_cover_pairs_match_oracle(self, lattice):
        assert cq.bipolar_cover_pairs(lattice) == slow_bipolar_cover_pairs(lattice)

    @given(lattices(max_elements=6))
    def test_admissible_steps_match_oracle(self, lattice):
        assert _steps_as_lists(lattice) == slow_admissible_steps(lattice)

    @pytest.mark.parametrize("base", PLAN_BASES.values(), ids=PLAN_BASES.keys())
    def test_admissible_steps_match_oracle_on_larger_bases(self, base):
        lattice = cq.DownsetLattice(base)
        assert _steps_as_lists(lattice) == slow_admissible_steps(lattice)

    @given(lattices(max_elements=6))
    def test_admissible_family_is_the_extension_family_on_a_mosaic(self, lattice):
        same = lattice.derived(_admissible_family) is lattice.derived(_extension_family)
        assert same == cq.is_regular_mosaic(lattice.base)

    @pytest.mark.parametrize("base", PLAN_BASES.values(), ids=PLAN_BASES.keys())
    def test_admissible_family_is_the_extension_family_on_larger_bases(self, base):
        lattice = cq.DownsetLattice(base)
        same = lattice.derived(_admissible_family) is lattice.derived(_extension_family)
        assert same == cq.is_regular_mosaic(base)

    @given(lattices(max_elements=6))
    def test_chain_names_the_split_pairs(self, lattice):
        """Every downset, split along every tile, is found at the position
        of the pair (its part in the tile, its part outside)."""
        family = lattice.derived(_admissible_family)
        bit = lattice.base._bit
        masks = [sum(map(bit.get, d)) for d in lattice.elements]
        for positive in lattice.complemented():
            positions = family.chain(masks, sum(map(bit.get, positive)))
            assert [family.vertices[k] for k in positions] == [
                pair(d & positive, d - positive) for d in lattice.elements
            ]

    def test_cap(self, monkeypatch):
        for base, size in [(cq.build_kary_base(3, 2), 25), (wedge_poset(), 11)]:
            monkeypatch.setattr(choqlat.birkhoff, "DOWNSET_CAP", size - 1)
            with pytest.raises(cq.SizeLimitExceeded):
                cq.bipolar_extension(cq.DownsetLattice(base))
            monkeypatch.setattr(choqlat.birkhoff, "DOWNSET_CAP", size)
            assert len(cq.bipolar_extension(cq.DownsetLattice(base))) == size

    @given(lattices(max_elements=6))
    def test_count_equals_size(self, lattice):
        assert len(cq.bipolar_extension(lattice)) == len(slow_disjoint_element_pairs(lattice))

    @pytest.mark.parametrize("m", range(1, 8))
    def test_fan_has_two_per_element_less_one(self, m):
        lattice = cq.DownsetLattice(fan(m))
        pairs = cq.bipolar_extension(lattice)
        assert len(pairs) == 2 * len(lattice) - 1
        assert pairs == slow_disjoint_element_pairs(lattice)

    def test_thirteen_atom_fan(self):
        assert len(cq.bipolar_extension(cq.DownsetLattice(fan(13)))) == 16385

    def test_thirteen_bottom_wedge_is_refused(self):
        """Counted per downset, the pairs pass the cap at the downset that
        brings them to 1000403, before any pair is built."""
        with pytest.raises(cq.SizeLimitExceeded) as refused:
            cq.bipolar_extension(cq.DownsetLattice(wedge(13)))
        message = "bipolar extension has at least 1000403 pairs, over the cap 1000000"
        assert str(refused.value) == message
        assert refused.value.context == {"cap": 1000000}

    @given(lattices(max_elements=6))
    def test_admissible_pairs_match_component_filter(self, lattice):
        pairs = cq.admissible_vertex_pairs(lattice)
        assert pairs == slow_admissible_pairs(lattice)
        assert cq.admissible_vertex_pairs(lattice) is pairs

    @given(lattices(max_elements=6))
    def test_tile_union_is_union_of_tiles(self, lattice):
        covered = set()
        for member in lattice.complemented():
            covered.update(cq.tile(lattice, member).elements)
        assert cq.tile_union(lattice) == covered

    def test_join_irreducibles_are_one_signed(self, boolean2):
        assert set(cq.bipolar_join_irreducibles(boolean2)) == {
            pair({"1"}),
            pair({"2"}),
            pair((), {"1"}),
            pair((), {"2"}),
        }


class TestRegularMosaic:
    def test_antichain_is_mosaic(self):
        assert cq.is_regular_mosaic(antichain(3))

    def test_wedge_is_not(self):
        assert not cq.is_regular_mosaic(wedge_poset())

    def test_chain_product_is_mosaic(self):
        assert cq.is_regular_mosaic(cq.build_kary_base(4, 3))

    @pytest.mark.parametrize("base", mosaic_bases(), ids=lambda b: f"{len(b)}elts")
    def test_tiles_cover_extension_exactly(self, base):
        lattice = cq.DownsetLattice(base)
        extension = set(cq.bipolar_extension(lattice))
        covered = set()
        for member in lattice.complemented():
            covered.update(cq.tile(lattice, member).elements)
        assert covered == extension
        assert cq.tile_union(lattice) == covered

    def test_wedge_tiles_cover_strictly_less(self, wedge_lattice):
        extension = set(cq.bipolar_extension(wedge_lattice))
        covered = set()
        for member in wedge_lattice.complemented():
            covered.update(cq.tile(wedge_lattice, member).elements)
        assert len(covered) == 9
        assert cq.tile_union(wedge_lattice) == covered
        assert covered < extension
        assert extension - covered == {pair({"a"}, {"c"}), pair({"c"}, {"a"})}


class TestTiles:
    def test_boolean_tile_at_atom(self, boolean2):
        t = cq.tile(boolean2, {"1"})
        assert set(t.elements) == {
            pair(),
            pair({"1"}),
            pair((), {"2"}),
            pair({"1"}, {"2"}),
        }

    def test_top_tile_is_unsigned_copy(self, grid):
        t = cq.tile(grid, grid.top)
        assert set(t.elements) == {pair(d) for d in grid.elements}
        for d in grid.elements:
            assert t.phi(pair(d)) == d

    def test_bottom_tile_is_reversed_copy(self, grid):
        t = cq.tile(grid, grid.bottom)
        assert set(t.elements) == {pair((), d) for d in grid.elements}
        # as signed vertices the pointwise order reverses inclusion
        for d in grid.elements:
            for e in grid.elements:
                signed_leq = all(
                    -int(j in d) <= -int(j in e) for j in grid.base.elements
                )
                assert signed_leq == (e <= d)

    def test_not_complemented_rejected(self, wedge_lattice):
        with pytest.raises(cq.NotComplemented):
            cq.tile(wedge_lattice, {"a"})

    def test_non_downset_rejected_as_not_complemented(self, wedge_lattice):
        """One complement rule: a set that is no downset has no tile."""
        with pytest.raises(cq.NotComplemented) as info:
            cq.tile(wedge_lattice, {"b"})
        assert str(info.value) == "['b'] is not a complemented element"

    def test_unknown_label_rejected(self, wedge_lattice):
        with pytest.raises(cq.UnknownLabel):
            cq.tile(wedge_lattice, {"a", "zz"})

    def test_tiles_over_the_cap(self):
        """Tile questions on 2^25 downsets are answered on the base's masks,
        with no lattice family built (each raised SizeLimitExceeded while
        membership enumerated)."""
        lattice = cq.DownsetLattice(antichain(25))
        t = cq.tile(lattice, {"1"})
        assert t.negative == lattice.top - {"1"}
        assert t.phi(({"1"}, {"2"})) == frozenset({"1", "2"})
        assert t.phi_inverse({"1", "3"}) == pair({"1"}, {"3"})
        signed = {label: {"1": 1, "2": -1}.get(label, 0) for label in lattice.base.elements}
        assert cq.psi(lattice, {"1"}, signed) == pair({"1"}, {"2"})
        assert cq.psi_inverse(lattice, {"1"}, pair({"1"}, {"2"})) == signed
        with pytest.raises(cq.NotInTile):
            t.phi(({"2"}, ()))
        assert choqlat.birkhoff._lattice_family not in lattice._derived

    @pytest.mark.parametrize("base", [antichain(2), cq.build_kary_base(3, 2)])
    def test_phi_round_trips_over_whole_tile(self, base):
        lattice = cq.DownsetLattice(base)
        for member, other in lattice.complemented().items():
            t = cq.tile(lattice, member)
            assert (t.positive, t.negative) == (member, other)
            seen = set()
            for element in t.elements:
                unsigned = t.phi(element)
                assert t.phi_inverse(unsigned) == element
                seen.add(unsigned)
            assert seen == set(lattice.elements)  # phi is onto

    def test_phi_is_order_isomorphism(self, grid):
        for member in grid.complemented():
            t = cq.tile(grid, member)
            for a in t.elements:
                for b in t.elements:
                    assert cq.bipolar_leq(a, b) == (t.phi(a) <= t.phi(b))

    def test_phi_rejects_outside(self, boolean2):
        t = cq.tile(boolean2, {"1"})
        with pytest.raises(cq.NotInTile):
            t.phi(pair({"2"}))


class TestPsi:
    def test_zero_map_is_bottom(self, boolean2):
        assert cq.psi(boolean2, {"1"}, {"1": 0, "2": 0}) == pair()

    def test_plus_minus_example(self, boolean2):
        assert cq.psi(boolean2, {"1"}, {"1": 1, "2": -1}) == pair({"1"}, {"2"})

    def test_round_trip_over_tiles(self):
        for base in (antichain(2), cq.build_kary_base(3, 2)):
            lattice = cq.DownsetLattice(base)
            for member in lattice.complemented():
                for element in cq.tile(lattice, member).elements:
                    signed = cq.psi_inverse(lattice, member, element)
                    assert cq.psi(lattice, member, signed) == element

    def test_sign_violation(self, boolean2):
        with pytest.raises(cq.SignConstraintViolated):
            cq.psi(boolean2, {"1"}, {"1": -1, "2": 0})
        with pytest.raises(cq.SignConstraintViolated):
            cq.psi(boolean2, {"1"}, {"1": 0, "2": 2})
        with pytest.raises(cq.SignConstraintViolated, match="positive value on the negative side"):
            cq.psi(boolean2, {"1"}, {"1": 0, "2": 1})

    def test_signed_map_must_cover_the_base(self, boolean2):
        with pytest.raises(cq.BaseMismatch):
            cq.psi(boolean2, {"1"}, {"1": 1})
        with pytest.raises(cq.BaseMismatch):
            cq.psi(boolean2, {"1"}, {"1": 1, "2": 0, "3": 0})

    def test_magnitude_must_be_nonincreasing(self, grid):
        with pytest.raises(cq.NotNonincreasing):
            cq.psi(grid, grid.top, {"c1l1": 0, "c1l2": 1, "c2l1": 0, "c2l2": 0})

    def test_psi_inverse_rejects_outside(self, boolean2):
        with pytest.raises(cq.NotInTile):
            cq.psi_inverse(boolean2, {"1"}, pair({"2"}))


class TestCapacity:
    def test_domain_is_tile_union(self, wedge_lattice):
        pairs = cq.admissible_vertex_pairs(wedge_lattice)
        assert len(pairs) == 9
        assert pair({"a"}, {"c"}) not in pairs

    def test_orphan_key_rejected(self, wedge_lattice):
        values = {p: 0 for p in cq.admissible_vertex_pairs(wedge_lattice)}
        values[pair({"a"}, {"c"})] = 1
        with pytest.raises(cq.NotInTile):
            cq.BipolarCapacity(wedge_lattice, values)

    def test_call_reads_stored_vertices_only(self, wedge_lattice):
        pairs = cq.admissible_vertex_pairs(wedge_lattice)
        capacity = cq.BipolarCapacity(wedge_lattice, {p: len(p.pos) - len(p.neg) for p in pairs})
        assert capacity(({"a", "c"}, ())) == 2
        with pytest.raises(cq.NotAnElement, match="is not a stored vertex"):
            capacity(({"a"}, {"c"}))
        with pytest.raises(cq.NotAnElement) as info:
            capacity(({"a", 1}, ()))
        assert str(info.value) == "([1, 'a'], []) is not a stored vertex"

    def test_overlapping_key_rejected(self, boolean2):
        values = {p: 0 for p in cq.admissible_vertex_pairs(boolean2)}
        values[pair({"1"}, {"1"})] = 1
        with pytest.raises(cq.NotInBipolarExtension):
            cq.BipolarCapacity(boolean2, values)

    @pytest.mark.parametrize(
        "key, error",
        [
            (pair({"9"}), cq.NotAnElement),
            ((frozenset({"9"}), 5), cq.NotAnElement),  # parts are checked in order
            ((frozenset(), 5), TypeError),
            ((frozenset(), frozenset(), frozenset()), ValueError),
        ],
        ids=["not_a_downset", "bad_then_not_iterable", "not_iterable", "triple"],
    )
    def test_bad_key_rejected(self, boolean2, key, error):
        values = {p: 0 for p in cq.admissible_vertex_pairs(boolean2)}
        values[key] = 1
        with pytest.raises(error):
            cq.BipolarCapacity(boolean2, values)

    def test_missing_values_rejected(self, boolean2):
        with pytest.raises(cq.BaseMismatch):
            cq.BipolarCapacity(boolean2, {pair(): 0})

    def test_flags(self, boolean2):
        values = {
            p: Fraction(len(p.pos) - len(p.neg), 2)
            for p in cq.admissible_vertex_pairs(boolean2)
        }
        capacity = cq.BipolarCapacity(boolean2, values)
        assert capacity.is_game
        assert capacity.is_monotone
        assert capacity.check_normalized()
        values[pair({"1"})] = -5
        assert not cq.BipolarCapacity(boolean2, values).is_monotone

    @given(lattices(max_elements=5), st.data())
    def test_flags_match_the_table(self, lattice, data):
        """``is_game`` and ``check_normalized`` read numerators by position;
        they agree with the caller's table read by key, for every kind of
        value, normalized or not."""
        table = data.draw(exact_tables(cq.admissible_vertex_pairs(lattice)))
        if data.draw(st.booleans()):
            table[pair()] = data.draw(st.sampled_from((0, Fraction(0), "0/7")))
        if data.draw(st.booleans()):
            table[pair(lattice.top)] = data.draw(st.sampled_from((1, "2/2")))
            table[pair((), lattice.top)] = data.draw(st.sampled_from((-1, "-3/3")))
        capacity = cq.BipolarCapacity(lattice, table)
        value = lambda key: cq.as_fraction(table[key])
        assert capacity.is_game == (value(pair()) == 0)
        assert capacity.check_normalized() == (
            value(pair(lattice.top)) == 1 and value(pair((), lattice.top)) == -1
        )

    @given(lattices(max_elements=6), st.data())
    def test_is_monotone_matches_oracle(self, lattice, data):
        capacity = cq.BipolarCapacity(lattice, data.draw(bipolar_capacity_tables(lattice)))
        assert capacity.is_monotone == slow_bipolar_is_monotone(capacity)


class TestSelectTile:
    def test_worked_split(self, grid):
        profile = cq.BipolarProfile(
            grid.base,
            {"c1l1": "0.5", "c1l2": "0.1", "c2l1": "-0.3", "c2l2": "-0.2"},
        )
        assert cq.select_tile(profile) == frozenset({"c1l1", "c1l2"})

    def test_all_nonnegative_gives_top(self, grid):
        profile = cq.BipolarProfile(
            grid.base, {x: "0.5" for x in grid.base.elements}
        )
        assert cq.select_tile(profile) == grid.top

    def test_all_strictly_negative_gives_bottom(self, grid):
        profile = cq.BipolarProfile(
            grid.base,
            {"c1l1": "-0.5", "c1l2": "-0.1", "c2l1": "-0.3", "c2l2": "-0.2"},
        )
        assert cq.select_tile(profile) == frozenset()

    def test_zero_component_counts_as_positive(self, grid):
        profile = cq.BipolarProfile(
            grid.base, {"c1l1": 0, "c1l2": 0, "c2l1": "-0.3", "c2l2": "-0.2"}
        )
        assert cq.select_tile(profile) == frozenset({"c1l1", "c1l2"})

    def test_zeros_inside_negative_component_stay_negative(self, grid):
        profile = cq.BipolarProfile(
            grid.base, {"c1l1": "0.5", "c1l2": 0, "c2l1": "-0.3", "c2l2": 0}
        )
        assert cq.select_tile(profile) == frozenset({"c1l1", "c1l2"})

    def test_mixed_component_rejected(self, grid):
        profile = cq.BipolarProfile(
            grid.base, {"c1l1": "0.5", "c1l2": "-0.1", "c2l1": 0, "c2l2": 0}
        )
        with pytest.raises(cq.ProfileNotInAnyTile):
            cq.select_tile(profile)

    def test_non_mosaic_rejected(self):
        profile = cq.BipolarProfile(wedge_poset(), {"a": "0.5", "b": 0, "c": "-0.5"})
        with pytest.raises(cq.NotRegularMosaic):
            cq.select_tile(profile)


class TestEvaluate:
    def test_worked_instance_formula(self, grid):
        rng = random.Random(3)
        capacity = random_bipolar_capacity(rng, grid)
        profile = cq.BipolarProfile(
            grid.base,
            {"c1l1": "0.5", "c1l2": "0.1", "c2l1": "-0.3", "c2l2": "-0.2"},
        )
        evaluation = cq.evaluate_bipolar(capacity, profile)
        at = lambda p, q: capacity.values[
            pair(cq.node_to_downset(p, 3), cq.node_to_downset(q, 3))
        ]
        expected = (
            Fraction(1, 2) * at((0, 0), (0, 0))
            + Fraction(1, 5) * at((1, 0), (0, 0))
            + Fraction(1, 10) * at((1, 0), (0, 1))
            + Fraction(1, 10) * at((1, 0), (0, 2))
            + Fraction(1, 10) * at((2, 0), (0, 2))
        )
        assert evaluation.value == expected
        assert evaluation.tile == frozenset({"c1l1", "c1l2"})

    def test_nonnegative_profile_reduces_to_unsigned(self, grid):
        rng = random.Random(4)
        capacity = random_bipolar_capacity(rng, grid)
        unsigned_values = {
            d: capacity.values[pair(d)] for d in grid.elements
        }
        unsigned = cq.GeneralizedCapacity(grid, unsigned_values)
        for _ in range(25):
            magnitude = random_profile(rng, grid.base)
            signed = cq.BipolarProfile(grid.base, magnitude.values)
            assert cq.bipolar_natural_extension(capacity, signed) == cq.natural_extension(
                unsigned, magnitude
            )

    def test_equals_pullback_through_tile(self, grid):
        rng = random.Random(9)
        capacity = random_bipolar_capacity(rng, grid)
        for _ in range(25):
            profile = random_signed_profile(rng, grid.base)
            evaluation = cq.evaluate_bipolar(capacity, profile)
            positive = evaluation.tile
            negative = frozenset(grid.base.elements) - positive
            pulled = cq.GeneralizedCapacity(
                grid,
                {
                    d: capacity.values[pair(d & positive, d & negative)]
                    for d in grid.elements
                },
            )
            assert evaluation.value == cq.natural_extension(pulled, profile.magnitude())

    def test_tile_overlap_consistency(self, grid):
        rng = random.Random(6)
        capacity = random_bipolar_capacity(rng, grid)
        chain1 = frozenset({"c1l1", "c1l2"})
        chain2 = frozenset({"c2l1", "c2l2"})
        profile = cq.BipolarProfile(
            grid.base, {"c1l1": "-0.7", "c1l2": "-0.2", "c2l1": 0, "c2l2": 0}
        )
        default = cq.bipolar_natural_extension(capacity, profile)
        assert default == cq.bipolar_natural_extension(capacity, profile, tile_hint=chain2)
        assert default == cq.bipolar_natural_extension(capacity, profile, tile_hint=frozenset())

    def test_tile_hint_must_contain_profile(self, grid):
        rng = random.Random(8)
        capacity = random_bipolar_capacity(rng, grid)
        profile = cq.BipolarProfile(
            grid.base, {"c1l1": "0.5", "c1l2": "0.1", "c2l1": 0, "c2l2": 0}
        )
        with pytest.raises(cq.NotInTile):
            cq.evaluate_bipolar(capacity, profile, tile_hint=frozenset({"c2l1", "c2l2"}))
        with pytest.raises(cq.NotComplemented):
            cq.evaluate_bipolar(capacity, profile, tile_hint=frozenset({"c1l2"}))

    def test_negative_value_inside_the_hinted_tile(self, grid):
        capacity = random_bipolar_capacity(random.Random(9), grid)
        profile = cq.BipolarProfile(
            grid.base, {"c1l1": "-0.5", "c1l2": "-0.1", "c2l1": 0, "c2l2": 0}
        )
        with pytest.raises(cq.NotInTile, match="strictly negative value at 'c1l1' inside"):
            cq.evaluate_bipolar(capacity, profile, tile_hint=grid.top)

    def test_tile_hint_needs_a_mosaic(self, wedge_lattice):
        capacity = random_bipolar_capacity(random.Random(10), wedge_lattice)
        profile = cq.BipolarProfile(wedge_poset(), {"a": "0.5", "b": 0, "c": 0})
        with pytest.raises(cq.NotRegularMosaic):
            cq.evaluate_bipolar(capacity, profile, tile_hint=wedge_lattice.top)

    def test_base_mismatch(self, boolean2):
        capacity = random_bipolar_capacity(random.Random(11), boolean2)
        profile = cq.BipolarProfile(antichain(3), {"1": "0.5", "2": 0, "3": "-0.5"})
        with pytest.raises(cq.BaseMismatch):
            cq.evaluate_bipolar(capacity, profile)

    @pytest.mark.parametrize("kind", sorted(VALUE_KINDS))
    @given(data=st.data())
    def test_matches_slow_oracle(self, kind, data):
        """The signed chain path against the Fraction sort and sum of the
        magnitudes, split along the tile: signs drawn per component, values
        with ties and zeros or 30-digit denominators."""
        base = data.draw(posets(max_elements=5).filter(cq.is_regular_mosaic))
        lattice = cq.DownsetLattice(base)
        table = data.draw(exact_tables(cq.admissible_vertex_pairs(lattice), kind))
        capacity = cq.BipolarCapacity(lattice, table)
        values = PROFILE_VALUES[data.draw(st.sampled_from(sorted(PROFILE_VALUES)))]
        magnitude = data.draw(profiles(base, values))
        flipped = [c.members for c in cq.connected_components(base) if data.draw(st.booleans())]
        profile = cq.BipolarProfile(
            base,
            {j: -v if any(j in c for c in flipped) else v for j, v in magnitude.values.items()},
        )
        # a component goes negative when it carries a strictly negative value
        positive = frozenset(base.elements).difference(
            *(c for c in flipped if any(magnitude.values[j] for j in c))
        )
        expected = slow_triangulate(magnitude)
        split = tuple(pair(v & positive, v - positive) for v in expected.chain)
        assert cq.evaluate_bipolar(capacity, profile) == cq.Evaluation(
            slow_chain_value(capacity.values, split, expected.weights),
            expected.order,
            split,
            expected.weights,
            positive,
        )

    @given(data=st.data())
    def test_top_tile_is_the_lattice(self, data):
        """On the tile at the top, pairs (d, empty), a signed capacity is a
        capacity on the lattice: on a nonnegative profile the signed chain
        is the unsigned one, all positive, and gives the same value."""
        base = data.draw(posets(max_elements=5).filter(cq.is_regular_mosaic))
        lattice = cq.DownsetLattice(base)
        capacity = cq.BipolarCapacity(
            lattice, data.draw(exact_tables(cq.admissible_vertex_pairs(lattice)))
        )
        empty = frozenset()
        unsigned = cq.GeneralizedCapacity(
            lattice, {d: capacity((d, empty)) for d in lattice.elements}
        )
        values = PROFILE_VALUES[data.draw(st.sampled_from(sorted(PROFILE_VALUES)))]
        profile = data.draw(profiles(base, values))
        signed = cq.evaluate_bipolar(capacity, cq.BipolarProfile(base, profile.values))
        expected = cq.evaluate(unsigned, profile)
        assert (signed.value, signed.order, signed.weights) == (
            expected.value, expected.order, expected.weights
        )
        assert signed.tile == lattice.top
        assert signed.chain == tuple(pair(d, empty) for d in expected.chain)

    @pytest.mark.parametrize("kind", sorted(VALUE_KINDS))
    @given(data=st.data())
    def test_positional_chain_matches_slow_oracle(self, kind, data):
        """The signed chain on positions under a random tie-break and any
        tile: each vertex's bit code split by the tile's code and looked up
        among the admissible pairs, the whole record against the slow
        decomposition split along the tile."""
        base = data.draw(posets(max_elements=5).filter(cq.is_regular_mosaic))
        lattice = cq.DownsetLattice(base)
        table = data.draw(exact_tables(cq.admissible_vertex_pairs(lattice), kind))
        capacity = cq.BipolarCapacity(lattice, table)
        values = PROFILE_VALUES[data.draw(st.sampled_from(sorted(PROFILE_VALUES)))]
        magnitude = data.draw(profiles(base, values))
        # a union of components and its complement are both downsets
        negative = [c.members for c in cq.connected_components(base) if data.draw(st.booleans())]
        tile = frozenset(base.elements).difference(*negative)
        tie_break = random_linear_extension(data.draw(st.randoms()), base)
        dec = cq.triangulate(magnitude, tie_break)
        evaluation = cq.Evaluation.along(capacity, dec, tile)
        assert evaluation == slow_evaluation(
            capacity.values, slow_triangulate(magnitude, tie_break), tile
        )

    def test_non_mosaic_rejected(self, wedge_lattice):
        rng = random.Random(2)
        capacity = random_bipolar_capacity(rng, wedge_lattice)
        profile = cq.BipolarProfile(wedge_poset(), {"a": "0.5", "b": 0, "c": 0})
        with pytest.raises(cq.NotRegularMosaic):
            cq.evaluate_bipolar(capacity, profile)


class TestBicapacityChoquet:
    def test_hand_expansion(self):
        rng = random.Random(12)
        lattice = cq.DownsetLattice(antichain(2))
        capacity = random_bipolar_capacity(rng, lattice)
        scores = {"1": "0.5", "2": "-0.3"}
        expected = Fraction(1, 5) * capacity.values[pair({"1"})] + Fraction(
            3, 10
        ) * capacity.values[pair({"1"}, {"2"})]
        assert cq.bicapacity_choquet(capacity, scores) == expected

    def test_nonnegative_scores_use_positive_face(self):
        rng = random.Random(13)
        lattice = cq.DownsetLattice(antichain(3))
        capacity = random_bipolar_capacity(rng, lattice)
        scores = {"1": "0.4", "2": "0.9", "3": 0}
        one_sided = {d: capacity.values[pair(d)] for d in lattice.elements}
        assert cq.bicapacity_choquet(capacity, scores) == cq.choquet_classical(
            one_sided, scores
        )

    def test_unanimity_gives_two_sided_min(self):
        lattice = cq.DownsetLattice(antichain(3))
        target = pair({"1"}, {"3"})
        table = {
            p: int(cq.bipolar_leq(target, p))
            for p in cq.admissible_vertex_pairs(lattice)
        }
        scores = {"1": Fraction(1, 2), "2": Fraction(-1, 5), "3": Fraction(-7, 10)}
        assert cq.bicapacity_choquet(table, scores) == Fraction(1, 2)
        scores["3"] = Fraction(3, 10)  # wrong sign kills the meet
        assert cq.bicapacity_choquet(table, scores) == 0

    def test_table_missing_the_induced_pair(self):
        table = {pair(): 0, pair({"1"}): 1}
        assert cq.bicapacity_choquet(table, {"1": "0.5"}) == Fraction(1, 2)
        with pytest.raises(cq.NotAnElement, match=r"not defined at \(\[\], \['1'\]\)"):
            cq.bicapacity_choquet(table, {"1": "-0.5"})
        with pytest.raises(cq.NotAnElement, match=r"not defined at \(\[1, 'a'\], \[\]\)"):
            cq.bicapacity_choquet({}, {"a": 1, 1: 1})


class TestMoebiusFormEval:
    def test_indicator_coefficients(self, grid):
        rng = random.Random(21)
        target = pair({"c1l1"}, {"c2l1", "c2l2"})
        coefficients = {target: 1}
        for _ in range(20):
            profile = random_signed_profile(rng, grid.base)
            plus = profile.values["c1l1"]
            expected = min(
                max(plus, Fraction(0)),
                max(-profile.values["c2l1"], Fraction(0)),
                max(-profile.values["c2l2"], Fraction(0)),
            )
            assert cq.bipolar_moebius_form_eval(coefficients, profile) == expected

    def test_boolean_agrees_with_pair_integral(self):
        rng = random.Random(22)
        lattice = cq.DownsetLattice(antichain(2))
        for _ in range(30):
            capacity = random_bipolar_capacity(rng, lattice, game=True)
            coefficients = cq.bipolar_moebius_transform(lattice, capacity.values)
            scores = {
                "1": Fraction(rng.randint(-10, 10), 10),
                "2": Fraction(rng.randint(-10, 10), 10),
            }
            profile = cq.BipolarProfile(lattice.base, scores)
            assert cq.bipolar_moebius_form_eval(
                coefficients, profile
            ) == cq.bicapacity_choquet(capacity, scores)

    def test_grid_agrees_with_direct_path(self, grid):
        rng = random.Random(23)
        capacity = random_bipolar_capacity(rng, grid)
        coefficients = cq.bipolar_moebius_transform(grid, capacity.values)
        for _ in range(15):
            profile = random_signed_profile(rng, grid.base)
            assert cq.bipolar_moebius_form_eval(
                coefficients, profile
            ) == cq.bipolar_natural_extension(capacity, profile)


    @pytest.mark.parametrize("kind", sorted(VALUE_KINDS))
    @given(data=st.data())
    def test_matches_slow_oracle(self, kind, data):
        """Rank buckets over one ranking of the 2n signed parts against the
        per-coefficient minimum, for each kind of table and profiles with
        or without ties and zeros; the base need not be a mosaic."""
        lattice = data.draw(lattices(max_elements=5))
        table = data.draw(exact_tables(cq.bipolar_extension(lattice), kind))
        values = data.draw(st.sampled_from((unit_fractions, tied_values)))
        profile = data.draw(signed_profiles(lattice.base, values))
        assert cq.bipolar_moebius_form_eval(
            table, profile
        ) == slow_bipolar_moebius_form_eval(table, profile)

    @pytest.mark.parametrize("profile_kind", ["tied", "large"])
    @given(data=st.data())
    def test_tied_and_large_profiles_match_slow_oracle(self, profile_kind, data):
        """Ranks from integer sort keys over the 2n signed parts against the
        Fraction minimum per coefficient, on profiles full of ties or over
        30-digit denominators; the coefficients are a transform's output
        (zeros shared) and, on any base, a plain table."""
        lattice = data.draw(lattices(max_elements=5))
        table = data.draw(exact_tables(cq.bipolar_extension(lattice)))
        profile = data.draw(signed_profiles(lattice.base, PROFILE_VALUES[profile_kind]))
        for coefficients in (table, cq.bipolar_moebius_transform(lattice, table)):
            assert cq.bipolar_moebius_form_eval(
                coefficients, profile
            ) == slow_bipolar_moebius_form_eval(coefficients, profile)

    def test_empty_base(self):
        profile = cq.BipolarProfile(cq.Poset([], []), {})
        for value in ("-7/3", 0):
            assert cq.bipolar_moebius_form_eval({pair(): value}, profile) == Fraction(value)

    def test_outside_label_rejected(self, grid):
        profile = cq.BipolarProfile(grid.base, dict.fromkeys(grid.base.elements, "0.5"))
        message = "coefficient keys mention labels outside the base"
        for key in (pair({"zz"}), pair((), {"c1l1", "zz"})):
            for value in (0, "0", "-1/3"):  # a zero coefficient too
                for table in ({pair(): 1, key: value}, {key: value, pair({"c1l1"}): 2}, {key: value}):
                    with pytest.raises(cq.BaseMismatch) as info:
                        cq.bipolar_moebius_form_eval(table, profile)
                    assert str(info.value) == message

    def test_signed_coefficients_are_refused_by_the_unsigned_form(self, grid):
        """A capacity on signed pairs is refused by the unsigned Moebius
        form, not summed as if its pair codes were lattice elements."""
        rng = random.Random(25)
        capacity = random_bipolar_capacity(rng, grid)
        for _ in range(5):
            with pytest.raises(cq.BaseMismatch) as info:
                cq.moebius_form_eval(capacity, random_profile(rng, grid.base))
            assert str(info.value) == "coefficients are on signed pairs, not lattice elements"

    def test_unsigned_tables_are_refused_by_the_signed_form(self, grid):
        """A table on lattice elements, a capacity's or its transform's, is
        refused by the signed Moebius form with a BaseMismatch."""
        rng = random.Random(26)
        capacity = random_capacity(rng, grid)
        for table in (capacity.values, cq.moebius_transform(capacity).values):
            for _ in range(5):
                with pytest.raises(cq.BaseMismatch) as info:
                    cq.bipolar_moebius_form_eval(table, random_signed_profile(rng, grid.base))
                assert str(info.value) == "coefficients are on lattice elements, not signed pairs"

    def test_keys_may_be_any_iterables(self, grid):
        rng = random.Random(24)
        table = {p: str(random_fraction(rng)) for p in cq.bipolar_extension(grid)}
        as_tuples = {(tuple(sorted(p)), tuple(sorted(n))): v for (p, n), v in table.items()}
        profile = random_signed_profile(rng, grid.base)
        assert cq.bipolar_moebius_form_eval(
            as_tuples, profile
        ) == cq.bipolar_moebius_form_eval(table, profile)


def bases(shape: str):
    """Bases that are regular mosaics, or bases that are not."""
    mosaic = shape == "mosaic"
    return posets(min_elements=0 if mosaic else 3, max_elements=5).filter(
        lambda base: cq.is_regular_mosaic(base) == mosaic
    )


class TestPositionalBipolarTables:
    """A capacity's values and the bipolar transforms' outputs are read-only
    positional tables; each is read by position, and must give what a plain
    dict of the same values gives through the value-by-value path, and what
    the slow oracles give."""

    @pytest.mark.parametrize("shape", ["mosaic", "non-mosaic"])
    @pytest.mark.parametrize("kind", sorted(VALUE_KINDS))
    @given(data=st.data())
    def test_transforms_of_a_capacity_table(self, shape, kind, data):
        """The capacity's own table, a dict of it (its key objects) and a
        dict of fresh keys transform alike; on a non-mosaic base each is
        refused with the text a plain table missing those pairs gets."""
        lattice = cq.DownsetLattice(data.draw(bases(shape)))
        table = data.draw(exact_tables(cq.admissible_vertex_pairs(lattice), kind))
        capacity = cq.BipolarCapacity(lattice, table)
        sources = (
            capacity.values,
            dict(capacity.values),
            {(frozenset(p), frozenset(n)): v for (p, n), v in capacity.values.items()},
        )
        transforms = (
            (cq.bipolar_moebius_transform, slow_bipolar_moebius_transform),
            (cq.bipolar_zeta_transform, slow_bipolar_zeta_transform),
        )
        if shape == "mosaic":
            for fast, slow in transforms:
                expected = list(slow(lattice, table).items())
                for source in sources:
                    out = fast(lattice, source)
                    assert isinstance(out, ValueTable)
                    assert list(out.items()) == expected
            coefficients = cq.bipolar_moebius_transform(lattice, capacity.values)
            again = cq.bipolar_zeta_transform(lattice, coefficients)
            assert list(again.items()) == list(table.items())
            return
        extension = cq.bipolar_extension(lattice)
        missing = [p for p in extension if p not in table]
        message = (
            f"missing values for {len(missing)} of the {len(extension)} pairs of the"
            f" bipolar extension, e.g. {(sorted(missing[0].pos), sorted(missing[0].neg))!r}"
        )
        for fast, _ in transforms:
            for source in sources:
                with pytest.raises(cq.BaseMismatch) as info:
                    fast(lattice, source)
                assert str(info.value) == message

    @pytest.mark.parametrize("shape", ["mosaic", "non-mosaic"])
    @pytest.mark.parametrize("profile_kind", sorted(PROFILE_VALUES))
    @given(data=st.data())
    def test_signed_form_on_a_positional_table(self, shape, profile_kind, data):
        """The signed Moebius form of a transform's output, and of a
        capacity's own table, equals the form of a dict of the same values
        and the slow oracle; also for the same values as a profile on the
        antichain of the base's labels, whose bits follow another linear
        extension: a positional table is read in its own base's bit order."""
        lattice = cq.DownsetLattice(data.draw(bases(shape)))
        table = data.draw(exact_tables(cq.bipolar_extension(lattice)))
        capacity = cq.BipolarCapacity(
            lattice, {p: table[p] for p in cq.admissible_vertex_pairs(lattice)}
        )
        profile = data.draw(signed_profiles(lattice.base, PROFILE_VALUES[profile_kind]))
        antichain = cq.Poset(sorted(lattice.base.elements, reverse=True))
        on_antichain = cq.BipolarProfile(antichain, profile.values)
        for positional in (cq.bipolar_moebius_transform(lattice, table), capacity.values):
            for read in (profile, on_antichain):
                value = cq.bipolar_moebius_form_eval(positional, read)
                assert value == cq.bipolar_moebius_form_eval(dict(positional), read)
                assert value == slow_bipolar_moebius_form_eval(dict(positional), read)

    @pytest.mark.parametrize("shape", ["mosaic", "non-mosaic"])
    @given(data=st.data())
    def test_profile_over_another_base(self, shape, data):
        """A profile whose base lacks a label of the table's keys is refused
        alike by the positional and the value-by-value path."""
        lattice = cq.DownsetLattice(data.draw(bases(shape).filter(len)))
        table = cq.bipolar_moebius_transform(
            lattice, data.draw(exact_tables(cq.bipolar_extension(lattice)))
        )
        other = data.draw(posets(max_elements=len(lattice.base) - 1))
        profile = data.draw(signed_profiles(other))
        for coefficients in (table, dict(table)):
            with pytest.raises(cq.BaseMismatch) as info:
                cq.bipolar_moebius_form_eval(coefficients, profile)
            assert str(info.value) == "coefficient keys mention labels outside the base"

    def test_capacity_values_reach_the_transform_unscanned(self):
        """On a mosaic a capacity's values sit on the extension's own
        family: the capacity takes a table on it over, and the transform
        takes the capacity's values over, neither reading its position
        dict."""
        lattice = cq.DownsetLattice(cq.build_kary_base(3, 2))
        family = lattice.derived(_extension_family)
        family.positions = Unscannable((p, k) for k, p in enumerate(family.vertices))
        numerators = [(3 * k) % 7 - 3 for k in range(len(family.vertices))]
        table = ValueTable(family, numerators, 3)
        capacity = cq.BipolarCapacity(lattice, table)
        assert capacity.values is table
        coefficients = cq.bipolar_moebius_transform(lattice, capacity.values)
        plain = {p: Fraction(n, 3) for p, n in zip(family.vertices, numerators)}
        expected = slow_bipolar_moebius_transform(lattice, plain)
        assert coefficients._family is family
        got = [Fraction(n, coefficients._integers[1]) for n in coefficients._integers[0]]
        assert got == [expected[p] for p in family.vertices]

    def test_is_monotone_and_transform_walk_one_plan(self, monkeypatch):
        """On a mosaic ``is_monotone`` builds no plan, and both bipolar
        transforms read the one plan of the one family: the steps are
        planned once, by the first transform."""
        walks = []
        step_plan = choqlat.birkhoff._step_plan

        def counted(*args):
            walks.append(args)
            return step_plan(*args)

        monkeypatch.setattr(choqlat.birkhoff, "_step_plan", counted)
        lattice = cq.DownsetLattice(cq.build_kary_base(3, 2))
        capacity = random_bipolar_capacity(random.Random(18), lattice)
        assert capacity.is_monotone in (True, False)
        assert walks == []
        cq.bipolar_moebius_transform(lattice, capacity.values)
        cq.bipolar_zeta_transform(lattice, capacity.values)
        assert len(walks) == 1

    def test_non_mosaic_capacity_values_fail_the_transform(self, wedge_lattice):
        """Off a mosaic a capacity holds only the admissible pairs, not the
        whole extension the transform needs."""
        table = {p: len(p.pos) - len(p.neg) for p in cq.admissible_vertex_pairs(wedge_lattice)}
        capacity = cq.BipolarCapacity(wedge_lattice, table)
        with pytest.raises(cq.BaseMismatch, match="missing values for 2 of the 11 pairs"):
            cq.bipolar_moebius_transform(wedge_lattice, capacity.values)

    @pytest.mark.parametrize(
        "base", [cq.build_kary_base(3, 2), wedge_poset()], ids=["grid", "wedge"]
    )
    def test_values_are_read_only(self, base):
        lattice = cq.DownsetLattice(base)
        rng = random.Random(35)
        capacity = cq.GeneralizedCapacity(
            lattice, {d: random_fraction(rng) for d in lattice.elements}
        )
        extension = {p: random_fraction(rng) for p in cq.bipolar_extension(lattice)}
        tables = [
            capacity.values,
            cq.moebius_transform(capacity).values,
            random_bipolar_capacity(rng, lattice).values,
            cq.bipolar_moebius_transform(lattice, extension),
            cq.bipolar_zeta_transform(lattice, extension),
        ]
        for table in tables:
            assert isinstance(table, Mapping) and not isinstance(table, dict)
            key = next(iter(table))
            before = table[key]
            with pytest.raises(TypeError):
                table[key] = 1
            with pytest.raises(TypeError):
                del table[key]
            assert table[key] == before


class TestMagnitude:
    @given(data=st.data())
    def test_equals_a_parsed_profile(self, data):
        """The magnitude of a checked signed profile is the profile that
        parsing the sizes gives, label order included."""
        base = data.draw(posets(max_elements=6))
        kind = data.draw(st.sampled_from(sorted(PROFILE_VALUES)))
        signed = data.draw(signed_profiles(base, PROFILE_VALUES[kind]))
        magnitude = signed.magnitude()
        parsed = cq.Profile(base, {label: abs(v) for label, v in signed.values.items()})
        assert type(magnitude) is cq.Profile and magnitude.base is base
        assert list(magnitude.values.items()) == list(parsed.values.items())

    def test_one_parse_per_signed_evaluation(self, grid, monkeypatch):
        """A signed profile's values are parsed and checked once: building
        it, not evaluating it."""
        calls = []
        parse = choqlat.interpolation._profile_values

        def counted(*args, **kwargs):
            calls.append(args)
            return parse(*args, **kwargs)

        monkeypatch.setattr(choqlat.interpolation, "_profile_values", counted)
        monkeypatch.setattr(choqlat.bipolar, "_profile_values", counted)
        rng = random.Random(36)
        capacity = random_bipolar_capacity(rng, grid)
        for _ in range(5):
            profile = random_signed_profile(rng, grid.base)
            del calls[:]
            cq.evaluate_bipolar(capacity, profile)
            assert calls == []
            cq.evaluate_bipolar(capacity, cq.BipolarProfile(grid.base, profile.values))
            assert len(calls) == 1


class TestEmbedProfile:
    def test_top_is_identity(self, grid):
        rng = random.Random(31)
        profile = random_profile(rng, grid.base)
        signed = cq.embed_profile(profile, grid.top)
        assert signed.values == profile.values

    def test_bottom_is_negation(self, grid):
        rng = random.Random(32)
        profile = random_profile(rng, grid.base)
        signed = cq.embed_profile(profile, frozenset())
        assert signed.values == {x: -v for x, v in profile.values.items()}

    def test_sign_flip_on_second_chain(self, grid):
        profile = cq.Profile(
            grid.base, {"c1l1": "0.5", "c1l2": "0.1", "c2l1": "0.3", "c2l2": "0.2"}
        )
        signed = cq.embed_profile(profile, frozenset({"c1l1", "c1l2"}))
        assert signed.values == {
            "c1l1": Fraction(1, 2),
            "c1l2": Fraction(1, 10),
            "c2l1": Fraction(-3, 10),
            "c2l2": Fraction(-1, 5),
        }

    def test_magnitude_round_trip(self, grid):
        rng = random.Random(33)
        for member in (grid.top, frozenset(), frozenset({"c1l1", "c1l2"})):
            profile = random_profile(rng, grid.base)
            assert cq.embed_profile(profile, member).magnitude().values == profile.values

    def test_signed_round_trip_within_tile(self, grid):
        rng = random.Random(34)
        member = frozenset({"c1l1", "c1l2"})
        for _ in range(10):
            profile = random_signed_profile(rng, grid.base)
            try:
                tile_set = cq.select_tile(profile)
            except cq.ProfileNotInAnyTile:
                continue
            if not all((profile.values[x] >= 0) == (x in member) or profile.values[x] == 0 for x in grid.base.elements):
                continue
            assert cq.embed_profile(profile.magnitude(), member).values == profile.values

    def test_rejects_non_complemented(self, wedge_lattice):
        profile = cq.Profile(wedge_poset(), {"a": "0.5", "b": 0, "c": 0})
        with pytest.raises(cq.NotComplemented):
            cq.embed_profile(profile, frozenset({"a"}))
