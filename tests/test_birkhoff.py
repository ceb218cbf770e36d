import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

import choqlat as cq
import choqlat.birkhoff
from choqlat.bipolar import _admissible_family
from choqlat.birkhoff import _extension_family, _lattice_family
from choqlat.poset import _downsets
from support import (
    PLAN_BASES,
    antichain,
    chain,
    explicit_orders,
    fan,
    lattices,
    maximal_count,
    parallel_chains,
    posets,
    slow_cover_pairs,
    slow_is_downset,
    slow_step_plan,
    slow_verify_distributive,
    wedge_poset,
)


@pytest.fixture
def wedge_lattice():
    return cq.DownsetLattice(wedge_poset())


class TestAccessors:
    def test_eta_is_identity_on_elements(self, wedge_lattice):
        assert wedge_lattice.check_element({"a", "c"}) == frozenset({"a", "c"})
        assert wedge_lattice.check_element(wedge_lattice.bottom) == frozenset()
        assert wedge_lattice.check_element(wedge_lattice.top) == frozenset({"a", "b", "c"})

    def test_eta_rejects_non_downsets(self, wedge_lattice):
        with pytest.raises(cq.NotAnElement):
            wedge_lattice.check_element({"b"})

    def test_membership(self, wedge_lattice):
        assert {"a", "c"} in wedge_lattice
        assert {"b"} not in wedge_lattice
        # no frozenset can be made of these: not a member, not an error
        assert [["a"]] not in wedge_lattice
        assert 5 not in wedge_lattice

    def test_join_meet_examples(self, wedge_lattice):
        assert wedge_lattice.join({"a"}, {"c"}) == frozenset({"a", "c"})
        assert wedge_lattice.meet({"a"}, {"c"}) == frozenset()

    @given(lattices(), st.data())
    def test_leq_is_inclusion(self, lattice, data):
        pick = st.sampled_from(lattice.elements)
        x, y = data.draw(pick), data.draw(pick)
        assert lattice.leq(x, y) is (x <= y)
        assert lattice.leq(sorted(x), list(y)) is (x <= y)  # any label iterables
        assert lattice.leq(lattice.meet(x, y), x) and lattice.leq(x, lattice.join(x, y))

    def test_equal_on_the_base_and_not_to_other_objects(self, wedge_lattice):
        base = wedge_lattice.base
        same = cq.DownsetLattice(cq.Poset(list(reversed(base.elements)), base.covers))
        assert wedge_lattice == same and hash(wedge_lattice) == hash(same)
        assert wedge_lattice != cq.DownsetLattice(cq.Poset(["a"]))
        assert wedge_lattice.__eq__(wedge_lattice.base) is NotImplemented
        assert wedge_lattice != wedge_lattice.base and wedge_lattice != wedge_lattice.elements

    @given(lattices(min_elements=1), st.data())
    def test_lattice_laws(self, lattice, data):
        pick = st.sampled_from(lattice.elements)
        x, y, z = data.draw(pick), data.draw(pick), data.draw(pick)
        assert lattice.join(x, lattice.bottom) == x
        assert lattice.meet(x, x) == x
        assert lattice.join(x, lattice.meet(x, y)) == x
        assert lattice.meet(x, lattice.join(x, y)) == x
        assert lattice.meet(x, lattice.join(y, z)) == lattice.join(
            lattice.meet(x, y), lattice.meet(x, z)
        )

    def test_join_irreducibles_are_principal(self, wedge_lattice):
        assert set(wedge_lattice.join_irreducibles) == {
            frozenset({"a"}),
            frozenset({"c"}),
            frozenset({"a", "b", "c"}),
        }

    @given(lattices())
    def test_cover_pairs_add_one_element(self, lattice):
        for lower, upper in lattice.cover_pairs():
            assert lower < upper
            assert len(upper - lower) == 1
            assert upper in lattice

    @given(lattices(max_elements=6))
    def test_cover_pairs_match_oracle(self, lattice):
        assert lattice.cover_pairs() == slow_cover_pairs(lattice)


class TestMembershipThroughCodes:
    """``check_element``, ``in`` and a capacity's call read a label set
    through its code, and raise what they raised on label sets."""

    @pytest.mark.parametrize(
        "x, shown",
        [
            ({"zz"}, "['zz']"),
            ({"a", "zz"}, "['a', 'zz']"),
            ({"b"}, "['b']"),
            ({1}, "[1]"),
            # labels that do not compare with each other are listed by str
            ({"a", 1}, "[1, 'a']"),
        ],
        ids=["unknown-label", "known-and-unknown", "not-a-downset", "not-a-string", "mixed"],
    )
    def test_label_sets_that_are_not_elements(self, wedge_lattice, x, shown):
        capacity = cq.GeneralizedCapacity(wedge_lattice, {d: 0 for d in wedge_lattice.elements})
        assert x not in wedge_lattice
        with pytest.raises(cq.NotAnElement) as info:
            wedge_lattice.check_element(x)
        assert str(info.value) == f"{shown} is not a downset of the base poset"
        with pytest.raises(cq.NotAnElement) as info:
            capacity(x)
        assert str(info.value) == f"{shown} is not a lattice element"

    @pytest.mark.parametrize(
        "x", [5, None, [["a"]], [{"a"}]], ids=["int", "none", "list-label", "set-label"]
    )
    def test_inputs_that_are_not_label_sets(self, wedge_lattice, x):
        with pytest.raises(TypeError) as expected:
            frozenset(x)
        capacity = cq.GeneralizedCapacity(wedge_lattice, {d: 0 for d in wedge_lattice.elements})
        assert x not in wedge_lattice
        for read in (wedge_lattice.check_element, capacity):
            with pytest.raises(TypeError) as info:
                read(x)
            assert str(info.value) == str(expected.value)

    def test_size_and_membership_leave_the_label_view_unbuilt(self):
        lattice = cq.DownsetLattice(parallel_chains(128))
        assert len(lattice) == 129 * 129
        member = {"a0000", "a0001", "b0000"}
        assert lattice.check_element(member) == frozenset(member)
        assert {"a0001"} not in lattice
        assert "elements" not in lattice.__dict__


class TestMembershipOnTheBase:
    """Membership is the base's mask rule, :func:`is_downset`: no question
    about one element enumerates the lattice."""

    @given(posets(max_elements=6), st.data())
    def test_matches_oracle(self, p, data):
        lattice = cq.DownsetLattice(p)
        members = data.draw(st.sets(st.sampled_from(p.elements))) if p.elements else set()
        assert (members in lattice) is slow_is_downset(p, members)
        assert (members | {"zz"}) not in lattice
        assert "elements" not in lattice.__dict__

    @pytest.mark.parametrize(
        "base, x, expected",
        [
            (antichain(25), {"1", "25"}, True),
            (antichain(25), {"zz"}, False),
            (antichain(25), {"1", 1}, False),
            (antichain(25), [["1"]], False),
            (fan(25), {"a01"}, False),
            (fan(25), {"o", "a01"}, True),
        ],
        ids=["downset", "unknown-label", "mixed", "unhashable", "not-a-downset", "fan-downset"],
    )
    def test_answers_over_the_cap(self, base, x, expected):
        lattice = cq.DownsetLattice(base)
        assert (x in lattice) is expected
        assert _lattice_family not in lattice._derived

    def test_element_calls_over_the_cap(self):
        """Element operations on 2^25 downsets answer without the family
        (each one raised SizeLimitExceeded while membership enumerated)."""
        lattice = cq.DownsetLattice(antichain(25))
        assert lattice.check_element({"1"}) == frozenset({"1"})
        assert lattice.join({"1"}, {"2"}) == frozenset({"1", "2"})
        assert lattice.meet({"1", "2"}, {"2", "3"}) == frozenset({"2"})
        assert cq.lattice_moebius(lattice, (), {"1", "2"}) == 1
        assert cq.bipolar_moebius_function(lattice, ((), ()), ({"1"}, {"2"})) == 1
        with pytest.raises(cq.NotAnElement):
            lattice.join({"1"}, {"zz"})
        assert _lattice_family not in lattice._derived


def _plan(lattice, build) -> tuple:
    """The (keys, lowers) arrays of a family's plan, as the oracle gives
    them, checked to hold one step per maximal element of each vertex."""
    family = lattice.derived(build)
    keys, lowers = family.plan
    assert len(keys) == maximal_count(lattice.base, family.vertices)
    return keys, lowers


class TestStepPlans:
    """The one walk over a family's code table against the plan built with
    sides, drop tables and packed position keys: the same arrays."""

    @given(lattices(max_elements=6))
    def test_match_oracle(self, lattice):
        assert _plan(lattice, _lattice_family) == slow_step_plan(lattice, 1)
        assert _plan(lattice, _extension_family) == slow_step_plan(lattice, 2)

    @pytest.mark.parametrize("base", PLAN_BASES.values(), ids=PLAN_BASES.keys())
    def test_match_oracle_on_larger_bases(self, base):
        lattice = cq.DownsetLattice(base)
        assert _plan(lattice, _lattice_family) == slow_step_plan(lattice, 1)
        assert _plan(lattice, _extension_family) == slow_step_plan(lattice, 2)


class TestChainLookup:
    @given(lattices(max_elements=6))
    def test_unsplit_chain_reads_the_code_table(self, lattice):
        """Without a tile, each family looks a code up in its code table."""
        for build in (_lattice_family, _extension_family, _admissible_family):
            codes = lattice.derived(build).codes
            assert lattice.derived(build).chain(codes) == list(codes.values())


class TestComplemented:
    def test_boolean_everything_complemented(self):
        lattice = cq.DownsetLattice(antichain(3))
        table = lattice.complemented()
        assert len(table) == len(lattice)
        for element, other in table.items():
            assert element | other == lattice.top
            assert not element & other

    def test_wedge_only_bottom_and_top(self, wedge_lattice):
        assert wedge_lattice.complemented() == {
            frozenset(): frozenset({"a", "b", "c"}),
            frozenset({"a", "b", "c"}): frozenset(),
        }

    def test_chain_product_has_two_power_n(self):
        lattice = cq.DownsetLattice(cq.build_kary_base(3, 2))
        assert len(lattice.complemented()) == 4
        lattice = cq.DownsetLattice(cq.build_kary_base(4, 3))
        assert len(lattice.complemented()) == 8

    @given(lattices())
    def test_complements_are_complements_and_unique(self, lattice):
        table = lattice.complemented()
        for element, other in table.items():
            assert lattice.meet(element, other) == lattice.bottom
            assert lattice.join(element, other) == lattice.top
            rivals = [
                z
                for z in lattice.elements
                if lattice.meet(element, z) == lattice.bottom
                and lattice.join(element, z) == lattice.top
            ]
            assert rivals == [other]


def explicit_wedge_lattice():
    return cq.Poset(
        ["bot", "a", "c", "ac", "top"],
        [("bot", "a"), ("bot", "c"), ("a", "ac"), ("c", "ac"), ("ac", "top")],
    )


def pentagon():
    return cq.Poset(
        ["bot", "x", "y", "z", "top"],
        [("bot", "x"), ("x", "top"), ("bot", "y"), ("y", "z"), ("z", "top")],
    )


def diamond_m3():
    return cq.Poset(
        ["bot", "a", "b", "c", "top"],
        [("bot", "a"), ("bot", "b"), ("bot", "c"), ("a", "top"), ("b", "top"), ("c", "top")],
    )


class TestVerifyDistributive:
    def test_explicit_wedge_lattice(self):
        form = cq.verify_distributive(explicit_wedge_lattice())
        base = form.lattice.base
        assert set(base.elements) == {"a", "c", "top"}
        assert base.covers == frozenset({("a", "top"), ("c", "top")})
        assert form.eta_map["ac"] == frozenset({"a", "c"})
        assert form.eta_map["bot"] == frozenset()
        assert form.eta_map["top"] == frozenset({"a", "c", "top"})

    def test_boolean_square(self):
        square = cq.Poset(
            ["bot", "a", "b", "top"],
            [("bot", "a"), ("bot", "b"), ("a", "top"), ("b", "top")],
        )
        form = cq.verify_distributive(square)
        assert form.lattice.base.covers == frozenset()
        assert set(form.lattice.base.elements) == {"a", "b"}

    def test_singleton(self):
        form = cq.verify_distributive(cq.Poset(["only"], []))
        assert len(form.lattice) == 1

    def test_pentagon_rejected(self):
        with pytest.raises(cq.NotDistributive):
            cq.verify_distributive(pentagon())

    def test_diamond_rejected(self):
        with pytest.raises(cq.NotDistributive):
            cq.verify_distributive(diamond_m3())

    def test_non_lattice_rejected(self):
        with pytest.raises(cq.NotALattice):
            cq.verify_distributive(antichain(2))
        with pytest.raises(cq.NotALattice):
            cq.verify_distributive(wedge_poset())

    @given(explicit_orders())
    def test_matches_bound_scan_oracle(self, explicit):
        """The same form, or the same error class, text and context, as
        scanning every ordered pair's common bounds."""
        try:
            expected = slow_verify_distributive(explicit)
        except (cq.NotALattice, cq.NotDistributive) as error:
            with pytest.raises(type(error)) as caught:
                cq.verify_distributive(explicit)
            assert str(caught.value) == str(error)
            assert caught.value.context == error.context
        else:
            assert cq.verify_distributive(explicit) == expected

    def test_long_chain_is_fast(self):
        """A 200-element explicit chain (the pairwise bound scan took about
        a minute) becomes the downsets of a 199-element chain."""
        started = time.perf_counter()
        form = cq.verify_distributive(chain(200))
        assert time.perf_counter() - started < 2
        assert form.lattice.base == cq.Poset(
            [f"x{i}" for i in range(1, 200)],
            [(f"x{i}", f"x{i + 1}") for i in range(1, 199)],
        )
        assert form.eta_map["x199"] == frozenset(form.lattice.base.elements)

    def test_one_enumeration(self, monkeypatch):
        """The join-irreducible poset's downsets, counted to check the size,
        are the returned lattice's family: enumerated once."""
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return _downsets(*args, **kwargs)

        monkeypatch.setattr(choqlat.birkhoff, "_downsets", counted)
        for explicit, size in [(chain(1024), 1024), (cq.explicit_poset(cq.DownsetLattice(fan(3))), 9)]:
            calls.clear()
            lattice = cq.verify_distributive(explicit).lattice
            read = len(lattice), lattice.elements, lattice.cover_pairs(), lattice.complemented()
            assert len(calls) == 1
            fresh = cq.DownsetLattice(lattice.base)
            assert read == (size, fresh.elements, fresh.cover_pairs(), fresh.complemented())

    @given(lattices(min_elements=0, max_elements=4))
    def test_round_trip_through_explicit_form(self, lattice):
        label = lambda d: "{" + ",".join(sorted(d)) + "}"
        form = cq.verify_distributive(cq.explicit_poset(lattice, label))
        expected = cq.Poset(
            [label(lattice.principal(j)) for j in lattice.base.elements],
            [
                (label(lattice.principal(lo)), label(lattice.principal(hi)))
                for lo, hi in lattice.base.covers
            ],
        )
        assert form.lattice.base == expected
