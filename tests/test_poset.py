import pytest
from hypothesis import given
from hypothesis import strategies as st

import choqlat as cq
from support import (
    antichain,
    chain,
    parallel_chains,
    posets,
    reduce_order,
    slow_all_downsets,
    slow_below,
    slow_components,
    slow_is_downset,
    slow_restrict,
    wedge_poset,
)


class TestValidation:
    def test_wedge_poset(self):
        p = wedge_poset()
        assert p.leq("a", "b")
        assert p.leq("c", "b")
        assert not p.leq("a", "c")
        assert p.leq("a", "a")

    def test_singleton(self):
        p = cq.Poset(["a"], [])
        assert p.elements == ("a",)
        assert p.leq("a", "a")

    def test_two_cycle_rejected(self):
        with pytest.raises(cq.CycleDetected):
            cq.Poset(["a", "b"], [("a", "b"), ("b", "a")])

    def test_self_cover_rejected(self):
        with pytest.raises(cq.CycleDetected):
            cq.Poset(["a"], [("a", "a")])

    def test_longer_cycle_rejected(self):
        with pytest.raises(cq.CycleDetected):
            cq.Poset(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])

    def test_unknown_label_rejected(self):
        with pytest.raises(cq.UnknownLabel):
            cq.Poset(["a"], [("a", "z")])
        with pytest.raises(cq.UnknownLabel):
            cq.Poset(["a", "b"], [(["a"], "b")])

    def test_label_must_be_a_string(self):
        with pytest.raises(cq.UnknownLabel, match="labels must be strings"):
            cq.Poset(["a", 1], [])

    def test_query_on_an_unknown_label(self):
        with pytest.raises(cq.UnknownLabel, match="unknown label 'z'"):
            wedge_poset().leq("a", "z")

    def test_duplicate_label_rejected(self):
        with pytest.raises(cq.DuplicateLabel):
            cq.Poset(["a", "a"], [])

    def test_redundant_cover_rejected(self):
        with pytest.raises(cq.RedundantCover):
            cq.Poset(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])

    @given(posets(min_elements=1), st.data())
    def test_redundant_covers_match_oracle(self, p, data):
        """Pairs added to a valid poset's covers are implied exactly when
        something lies between their ends; the error names the smallest
        implied cover."""
        below = slow_below(p)
        comparable = sorted(
            (a, b) for a in p.elements for b in p.elements if a != b and a in below[b]
        )
        extra = data.draw(st.lists(st.sampled_from(comparable), max_size=3)) if comparable else []
        covers = p.covers | set(extra)
        implied = sorted(
            (a, b) for a, b in covers
            if any(c not in (a, b) and a in below[c] and c in below[b] for c in p.elements)
        )
        if not implied:
            assert cq.Poset(p.elements, covers) == p
            return
        with pytest.raises(cq.RedundantCover) as caught:
            cq.Poset(p.elements, covers)
        assert caught.value.context == dict(zip(("lower", "upper"), implied[0]))

    @given(posets())
    def test_below_and_leq_match_oracle(self, p):
        below = slow_below(p)
        for x in p.elements:
            assert p.below(x) == below[x]
            for y in p.elements:
                assert p.leq(x, y) == (x in below[y])

    def test_equality_ignores_input_order(self):
        p = cq.Poset(["b", "a"], [("a", "b")])
        q = cq.Poset(["a", "b"], [("a", "b")])
        assert p == q
        assert hash(p) == hash(q)

    def test_a_poset_is_not_equal_to_a_non_poset(self):
        p = cq.Poset(["a", "b"], [("a", "b")])
        assert p.__eq__((p.elements, p.covers)) is NotImplemented
        assert p != (p.elements, p.covers) and p != "ab" and p != None  # noqa: E711


class TestDownsets:
    def test_wedge_downsets(self):
        family = cq.all_downsets(wedge_poset())
        assert family == [
            frozenset(),
            frozenset({"a"}),
            frozenset({"c"}),
            frozenset({"a", "c"}),
            frozenset({"a", "b", "c"}),
        ]

    def test_antichain_counts(self):
        for n in range(5):
            assert len(cq.all_downsets(antichain(n))) == 2 ** n

    def test_chain_counts(self):
        for m in range(5):
            assert len(cq.all_downsets(chain(m))) == m + 1

    def test_three_chain_is_prefixes(self):
        p = chain(3)
        assert cq.all_downsets(p) == [
            frozenset(),
            frozenset({"x0"}),
            frozenset({"x0", "x1"}),
            frozenset({"x0", "x1", "x2"}),
        ]

    def test_cap_enforced(self):
        with pytest.raises(cq.SizeLimitExceeded):
            cq.all_downsets(antichain(8), max_count=10)

    def test_cap_below_the_empty_family(self):
        with pytest.raises(cq.SizeLimitExceeded, match="exceeds cap 0"):
            cq.all_downsets(wedge_poset(), max_count=0)

    @given(posets(max_elements=7))
    def test_matches_label_oracle(self, p):
        """The codes-first enumeration gives the label sets, in the order,
        of the enumeration that grew and sorted label sets."""
        assert cq.all_downsets(p) == slow_all_downsets(p)

    @pytest.mark.parametrize(
        "p",
        [
            cq.build_kary_base(2, 11),
            cq.Poset(["x", "y", "z"], [("z", "y"), ("y", "x")]),
            antichain(12),
            wedge_poset(),
            cq.build_kary_base(3, 3),
            cq.build_kary_base(4, 2),
            parallel_chains(6),
            antichain(6),
        ],
        ids=[
            "grid2x11", "chain-zyx", "antichain12", "wedge",
            "grid3x3", "grid4x2", "chains6x2", "antichain6",
        ],
    )
    def test_label_order_is_not_bit_order(self, p):
        """Bases whose labels sort apart from their linear extension, and
        bases with many downsets of one size, which only the key's code
        part orders: the canonical order is read on labels, not on bits."""
        assert cq.all_downsets(p) == slow_all_downsets(p)

    @given(posets(max_elements=5))
    def test_cap_refused_as_the_oracle_refuses(self, p):
        def outcome(enumerate, cap):
            try:
                return enumerate(p, max_count=cap)
            except cq.SizeLimitExceeded as error:
                return str(error), error.context

        for cap in range(len(slow_all_downsets(p)) + 1):
            assert outcome(cq.all_downsets, cap) == outcome(slow_all_downsets, cap)

    @given(posets())
    def test_all_outputs_are_downsets(self, p):
        family = cq.all_downsets(p)
        assert len(set(family)) == len(family)
        for downset in family:
            assert cq.is_downset(p, downset)

    @given(posets(max_elements=6), st.data())
    def test_is_downset_matches_oracle(self, p, data):
        members = data.draw(st.sets(st.sampled_from(p.elements))) if p.elements else set()
        assert cq.is_downset(p, members) == slow_is_downset(p, members)

    @given(posets(max_elements=4))
    def test_canonical_order(self, p):
        family = cq.all_downsets(p)
        assert family == sorted(family, key=cq.downset_key)

    @given(posets(max_elements=4))
    def test_count_matches_bruteforce(self, p):
        from itertools import combinations

        brute = 0
        for size in range(len(p.elements) + 1):
            for combo in combinations(p.elements, size):
                if cq.is_downset(p, combo):
                    brute += 1
        assert len(cq.all_downsets(p)) == brute


class TestComponents:
    def test_wedge_single_component(self):
        comps = cq.connected_components(wedge_poset())
        assert len(comps) == 1
        assert comps[0].minimals == frozenset({"a", "c"})

    def test_antichain_components(self):
        comps = cq.connected_components(antichain(4))
        assert len(comps) == 4
        assert all(len(c.minimals) == 1 for c in comps)

    def test_disjoint_chains(self):
        p = cq.Poset(["a1", "a2", "b1", "b2"], [("a1", "a2"), ("b1", "b2")])
        comps = cq.connected_components(p)
        assert len(comps) == 2
        assert comps[0].members == frozenset({"a1", "a2"})
        assert comps[0].minimals == frozenset({"a1"})

    def test_kept_with_the_poset(self):
        p = cq.Poset(["b1", "a2", "a1"], [("a1", "a2")])
        q = cq.Poset(["a1", "a2", "b1"], [("a1", "a2")])
        first = cq.connected_components(p)
        assert cq.connected_components(p) is first
        assert p == q and hash(p) == hash(q) == hash((p.elements, p.covers))
        assert cq.connected_components(q) == first
        assert p != cq.Poset(["a1", "a2", "b1"], [])

    @given(posets(max_elements=7))
    def test_components_match_oracle(self, p):
        assert cq.connected_components(p) == slow_components(p)

    @given(posets())
    def test_components_partition(self, p):
        comps = cq.connected_components(p)
        everything = [x for c in comps for x in c.members]
        assert sorted(everything) == sorted(p.elements)


class TestLinearExtension:
    def test_wedge(self):
        assert cq.linear_extension(wedge_poset()) == ("a", "c", "b")

    def test_antichain_lexicographic(self):
        p = cq.Poset(["z", "x", "y"], [])
        assert cq.linear_extension(p) == ("x", "y", "z")

    def test_chain_forced(self):
        p = cq.Poset(["2", "0", "1"], [("0", "1"), ("1", "2")])
        assert cq.linear_extension(p) == ("0", "1", "2")

    @given(posets())
    def test_refines_order(self, p):
        order = cq.linear_extension(p)
        position = {x: i for i, x in enumerate(order)}
        assert sorted(order) == list(p.elements)
        for x in p.elements:
            for y in p.elements:
                if p.leq(x, y):
                    assert position[x] <= position[y]


class TestRestrictAndReduce:
    @given(posets())
    def test_reduce_recovers_covers(self, p):
        covers = reduce_order(p.elements, p.leq)
        assert set(covers) == set(p.covers)

    def test_restrict_recomputes_covers(self):
        p = chain(3)
        sub = p.restrict(["x0", "x2"])
        assert sub.covers == frozenset({("x0", "x2")})

    @given(posets(min_elements=1))
    def test_restrict_preserves_order(self, p):
        keep = p.elements[::2]
        sub = p.restrict(keep)
        for x in keep:
            for y in keep:
                assert sub.leq(x, y) == p.leq(x, y)

    @given(posets(max_elements=7), st.data())
    def test_restrict_matches_reduction(self, p, data):
        members = data.draw(st.sets(st.sampled_from(p.elements))) if p.elements else set()
        assert p.restrict(members) == slow_restrict(p, members)
