import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import choqlat as cq
import choqlat.rationals
from choqlat.interpolation import _sort_keys
from choqlat.rationals import MAX_DENOMINATOR_BITS, _common_denominator
from support import (
    PROFILE_VALUES,
    VALUE_KINDS,
    antichain,
    capacities,
    chain,
    decimal_unit_fractions,
    exact_tables,
    lattices,
    long_denominator_values,
    nonincreasing,
    posets,
    profiles,
    random_linear_extension,
    random_profile,
    slow_chain_value,
    slow_evaluation,
    slow_moebius_form_eval,
    slow_triangulate,
    tied_values,
    unit_fractions,
    unreduced_texts,
    values_unread,
    wedge_poset,
)


@pytest.fixture
def grid_base():
    return cq.build_kary_base(3, 2)


@pytest.fixture
def worked_profile(grid_base):
    return cq.Profile(
        grid_base, {"c1l1": "0.5", "c1l2": "0.1", "c2l1": "0.3", "c2l2": "0.2"}
    )


class TestProfileValidation:
    def test_out_of_range(self, grid_base):
        with pytest.raises(cq.ValueOutOfRange):
            cq.Profile(grid_base, {"c1l1": 2, "c1l2": 0, "c2l1": 0, "c2l2": 0})

    def test_increasing_rejected(self, grid_base):
        with pytest.raises(cq.NotNonincreasing):
            cq.Profile(grid_base, {"c1l1": 0, "c1l2": "0.5", "c2l1": 0, "c2l2": 0})

    def test_coverage_required(self, grid_base):
        with pytest.raises(cq.BaseMismatch):
            cq.Profile(grid_base, {"c1l1": 1})

    def test_boundaries_allowed(self, grid_base):
        profile = cq.Profile(grid_base, {"c1l1": 1, "c1l2": 1, "c2l1": 0, "c2l2": 0})
        assert profile("c1l2") == 1
        signed = cq.BipolarProfile(
            grid_base, {"c1l1": -1, "c1l2": 1, "c2l1": "-1/3", "c2l2": "1/3"}
        )
        assert signed("c1l1") == -1

    @pytest.mark.parametrize(
        "cls, changes, error, message",
        [
            (cq.Profile, {"c1l1": "3/2"}, cq.ValueOutOfRange,
             "profile value 3/2 at 'c1l1' is outside [0, 1]"),
            (cq.Profile, {"c2l2": "-1/3"}, cq.ValueOutOfRange,
             "profile value -1/3 at 'c2l2' is outside [0, 1]"),
            (cq.Profile, {"c1l2": "0.5"}, cq.NotNonincreasing,
             "profile increases along 'c1l1' < 'c1l2'"),
            (cq.BipolarProfile, {"c1l1": "-3/2"}, cq.ValueOutOfRange,
             "signed value -3/2 at 'c1l1' is outside [-1, 1]"),
            (cq.BipolarProfile, {"c2l1": "1.25"}, cq.ValueOutOfRange,
             "signed value 5/4 at 'c2l1' is outside [-1, 1]"),
            (cq.BipolarProfile, {"c2l1": "1/3", "c2l2": "-1/2"}, cq.NotNonincreasing,
             "|values| increase along 'c2l1' < 'c2l2'"),
        ],
    )
    def test_error_texts(self, grid_base, cls, changes, error, message):
        values = {**dict.fromkeys(grid_base.elements, 0), **changes}
        with pytest.raises(error) as info:
            cls(grid_base, values)
        assert str(info.value) == message


class TestTriangulate:
    def test_worked_instance(self, worked_profile):
        dec = cq.triangulate(worked_profile)
        assert dec.order == ("c1l1", "c2l1", "c2l2", "c1l2")
        assert [cq.downset_to_node(v, 2) for v in dec.chain] == [
            (0, 0),
            (1, 0),
            (1, 1),
            (1, 2),
            (2, 2),
        ]
        assert dec.weights == (
            Fraction(1, 2),
            Fraction(1, 5),
            Fraction(1, 10),
            Fraction(1, 10),
            Fraction(1, 10),
        )

    def test_constant_one(self, grid_base):
        profile = cq.Profile(grid_base, {x: 1 for x in grid_base.elements})
        dec = cq.triangulate(profile)
        assert dec.weights[0] == 0
        assert dec.weights[-1] == 1
        assert all(w == 0 for w in dec.weights[1:-1])

    def test_constant_zero(self, grid_base):
        profile = cq.Profile(grid_base, {x: 0 for x in grid_base.elements})
        dec = cq.triangulate(profile)
        assert dec.weights[0] == 1
        assert all(w == 0 for w in dec.weights[1:])

    @given(st.data())
    def test_reconstruction(self, data):
        base = data.draw(posets())
        profile = data.draw(profiles(base))
        dec = cq.triangulate(profile)
        assert dec.reconstruct() == profile.values
        assert sum(dec.weights) == 1
        assert all(w >= 0 for w in dec.weights)

    @given(st.data())
    def test_chain_is_nested_downsets(self, data):
        base = data.draw(posets())
        profile = data.draw(profiles(base))
        dec = cq.triangulate(profile)
        for lower, upper in zip(dec.chain, dec.chain[1:]):
            assert lower < upper
            assert cq.is_downset(base, upper)

    @pytest.mark.parametrize("kind", sorted(VALUE_KINDS))
    @given(data=st.data())
    def test_matches_slow_oracle(self, kind, data):
        """Integer sort keys, cross-product weights and the integer sum
        against the Fraction sort and sum, for each kind of table and of
        profile values (ties and zeros, 30-digit denominators), under the
        default and a random tie-break, on bases down to the empty one."""
        lattice = data.draw(lattices(max_elements=6))
        capacity = cq.GeneralizedCapacity(lattice, data.draw(exact_tables(lattice.elements, kind)))
        values = PROFILE_VALUES[data.draw(st.sampled_from(sorted(PROFILE_VALUES)))]
        profile = data.draw(profiles(lattice.base, values))
        expected = slow_triangulate(profile)
        value = slow_chain_value(capacity.values, expected.chain, expected.weights)
        assert cq.evaluate(capacity, profile) == cq.Evaluation(
            value, expected.order, expected.chain, expected.weights
        )
        tie_break = random_linear_extension(data.draw(st.randoms()), lattice.base)
        dec = cq.triangulate(profile, tie_break)
        assert dec == slow_triangulate(profile, tie_break)
        # positions read off the chain's frozensets, not off the decomposition's masks
        positions = {x: i for i, x in enumerate(lattice.elements)}
        assert capacity._family.chain(dec._masks) == list(map(positions.__getitem__, dec.chain))
        assert cq.Evaluation.along(capacity, dec).value == value

    def test_empty_base(self):
        lattice = cq.DownsetLattice(cq.Poset([], []))
        profile = cq.Profile(lattice.base, {})
        dec = cq.triangulate(profile)
        assert (dec.order, dec.chain, dec.weights) == ((), (frozenset(),), (1,))
        capacity = cq.GeneralizedCapacity(lattice, {frozenset(): "-7/3"})
        assert cq.natural_extension(capacity, profile) == Fraction(-7, 3)

    def test_bad_tie_break_rejected(self, grid_base, worked_profile):
        with pytest.raises(
            cq.NotNonincreasing,
            match="^tie_break does not refine the base order at 'c1l1' < 'c1l2'$",
        ):
            cq.triangulate(worked_profile, tie_break=("c1l2", "c1l1", "c2l1", "c2l2"))
        for short in (("c1l1",), ("c1l1", "c1l2", "c2l1", "c2l2", "c2l2"), ()):
            with pytest.raises(
                cq.BaseMismatch, match="^tie_break must enumerate the base poset exactly$"
            ):
                cq.triangulate(worked_profile, tie_break=short)


class TestUnreadValues:
    """A capacity holds integer numerators by position, whether scaled from
    a caller's table or made by a transform: the transform and the chain
    path read those and never read a value of the table."""

    @pytest.mark.parametrize("kind", sorted(VALUE_KINDS))
    @given(data=st.data())
    def test_transform_output(self, kind, data):
        lattice = data.draw(lattices(max_elements=6))
        table = data.draw(exact_tables(lattice.elements, kind))
        capacity = cq.GeneralizedCapacity(lattice, table)
        transformed = data.draw(st.booleans())
        values = PROFILE_VALUES[data.draw(st.sampled_from(sorted(PROFILE_VALUES)))]
        profile = data.draw(profiles(lattice.base, values))
        with values_unread():
            if transformed:
                capacity = cq.zeta_transform(capacity)
            evaluation = cq.evaluate(capacity, profile)
            value = cq.natural_extension(capacity, profile)
        assert evaluation == slow_evaluation(capacity.values, slow_triangulate(profile))
        assert value == evaluation.value


class TestSortKeys:
    def test_adjacent_large_denominators(self):
        above = Fraction(10**300, 10**300 + 1)
        below = Fraction(10**300 - 1, 10**300)
        assert below < above
        values = {"a": above, "b": below, "c": above, "d": below, "o": Fraction(1), "z": Fraction(0)}
        pairs = {label: v.as_integer_ratio() for label, v in values.items()}
        # the same values with their integers scaled up, by a different factor for "c"
        scaled = {label: (n * 7, d * 7) for label, (n, d) in pairs.items()}
        scaled["c"] = (above.numerator * 3, above.denominator * 3)
        for keys in map(_sort_keys, (list(pairs.values()), list(scaled.values()))):
            keys = dict(zip(values, keys))  # the keys come by position
            assert keys["o"] > keys["a"] == keys["c"] > keys["b"] == keys["d"] > keys["z"]
        profile = cq.Profile(antichain(2), {"1": below, "2": above})
        assert cq.triangulate(profile).order == ("2", "1")

    def test_long_chain_of_large_denominators(self):
        """128 distinct 300-digit denominators along a chain: the integer
        path equals the Fraction sort and sum exactly."""
        rng = random.Random(41)
        denominators: set = set()
        while len(denominators) < 128:
            denominators.add(rng.randrange(10**299, 10**300))
        values = sorted((Fraction(rng.randrange(d + 1), d) for d in denominators), reverse=True)
        base = chain(128)
        profile = cq.Profile(base, dict(zip(cq.linear_extension(base), values)))
        lattice = cq.DownsetLattice(base)
        capacity = cq.GeneralizedCapacity(
            lattice,
            {d: Fraction(rng.randint(-10**40, 10**40), rng.randint(1, 10**30)) for d in lattice.elements},
        )
        expected = slow_triangulate(profile)
        assert cq.triangulate(profile) == expected
        assert cq.natural_extension(capacity, profile) == slow_chain_value(
            capacity.values, expected.chain, expected.weights
        )


class TestCommonDenominatorBudget:
    """Every sum over values of many long denominators is refused before
    their least common denominator is computed: the bit lengths of the
    distinct denominators bound its size."""

    def test_the_cap_is_on_the_summed_bit_lengths(self, monkeypatch):
        monkeypatch.setattr(choqlat.rationals, "MAX_DENOMINATOR_BITS", 5)
        # 3 and 5 take 2 + 3 bits
        assert _common_denominator({3, 5}) == 15
        with pytest.raises(cq.SizeLimitExceeded) as refused:
            _common_denominator({3, 5, 7})
        assert refused.value.context == {"cap": 5}

    def test_long_denominators_on_every_path(self):
        # 200 distinct 490-digit denominators: 325,000 bits, over the cap
        m = 200
        base = chain(m)
        values = long_denominator_values([f"x{i}" for i in range(m)])
        assert sum(int(v.split("/")[1]).bit_length() for v in values.values()) > (
            MAX_DENOMINATOR_BITS
        )
        lattice = cq.DownsetLattice(base)
        capacity = cq.GeneralizedCapacity(
            lattice, {d: Fraction(len(d), m) for d in lattice.elements}
        )
        profile = cq.Profile(base, values)
        for evaluation in (cq.natural_extension, cq.moebius_form_eval):
            with pytest.raises(cq.SizeLimitExceeded):
                evaluation(capacity, profile)
        pairs = cq.admissible_vertex_pairs(lattice)
        signed = cq.BipolarCapacity(lattice, {x: Fraction(len(x.pos) - len(x.neg), m) for x in pairs})
        signed_profile = cq.BipolarProfile(base, values)
        with pytest.raises(cq.SizeLimitExceeded):
            cq.bipolar_natural_extension(signed, signed_profile)
        with pytest.raises(cq.SizeLimitExceeded):
            cq.bipolar_moebius_form_eval(signed.values, signed_profile)
        # the same denominators as values of either capacity kind
        for kind, vertices in [
            (cq.GeneralizedCapacity, lattice.elements),
            (cq.BipolarCapacity, cq.admissible_vertex_pairs(lattice)),
        ]:
            table = {x: Fraction(1, 10**489 + 2 * k + 1) for k, x in enumerate(vertices)}
            with pytest.raises(cq.SizeLimitExceeded):
                kind(lattice, table)

    @pytest.mark.parametrize("shared", [False, True])
    def test_under_the_cap_the_value_is_exact(self, shared):
        """100 such denominators (162,500 bits), or 200 values over one
        of them, which counts once: summed exactly."""
        m = 200 if shared else 100
        base = chain(m)
        lattice = cq.DownsetLattice(base)
        capacity = cq.GeneralizedCapacity(
            lattice, {d: Fraction(len(d), m) for d in lattice.elements}
        )
        labels = [f"x{i}" for i in range(m)]
        if shared:
            q = 10**489 + 1
            values = {label: f"{(m - i) * q // (m + 1)}/{q}" for i, label in enumerate(labels)}
        else:
            values = long_denominator_values(labels)
        profile = cq.Profile(base, values)
        expected = sum(profile.values.values()) / m
        assert cq.natural_extension(capacity, profile) == expected
        assert cq.moebius_form_eval(cq.moebius_transform(capacity), profile) == expected

    @pytest.mark.parametrize("rule", ["zero", "one", "step"])
    def test_only_the_levels_a_sum_reads_are_scaled(self, rule):
        """The 200 long denominators of the refused case, against capacities
        that step at most once along the chain: each sum reads at most one
        level, so it is exact on both paths."""
        m = 200
        base = chain(m)
        lattice = cq.DownsetLattice(base)
        value = {"zero": lambda d: 0, "one": lambda d: 1, "step": lambda d: int(bool(d))}[rule]
        capacity = cq.GeneralizedCapacity(lattice, {d: value(d) for d in lattice.elements})
        profile = cq.Profile(base, long_denominator_values([f"x{i}" for i in range(m)]))
        expected = {"zero": 0, "one": 1, "step": profile("x0")}[rule]
        assert cq.natural_extension(capacity, profile) == expected
        assert cq.moebius_form_eval(cq.moebius_transform(capacity), profile) == expected

    @pytest.mark.parametrize("step", [False, True])
    def test_only_the_levels_a_signed_sum_reads_are_scaled(self, step):
        """A zero bipolar capacity, or one that is 1 on every pair with a
        positive side and -1 on every pair with a negative side, under the
        fully negative profile of the long denominators: exact on both
        paths."""
        m = 200
        base = chain(m)
        lattice = cq.DownsetLattice(base)
        pairs = cq.admissible_vertex_pairs(lattice)
        assert len(pairs) == 2 * m + 1
        table = {x: (bool(x.pos) - bool(x.neg)) * step for x in pairs}
        capacity = cq.BipolarCapacity(lattice, table)
        values = long_denominator_values([f"x{i}" for i in range(m)])
        profile = cq.BipolarProfile(base, {label: f"-{v}" for label, v in values.items()})
        expected = profile("x0") if step else 0
        assert cq.bipolar_natural_extension(capacity, profile) == expected
        coefficients = cq.bipolar_moebius_transform(lattice, capacity.values)
        assert cq.bipolar_moebius_form_eval(coefficients, profile) == expected


class TestNaturalExtension:
    def test_worked_instance_formula(self, grid_base, worked_profile):
        lattice = cq.DownsetLattice(grid_base)
        rng = random.Random(11)
        capacity = cq.GeneralizedCapacity(
            lattice, {d: Fraction(rng.randint(-20, 20), 7) for d in lattice.elements}
        )
        node = lambda i, j: capacity.values[cq.node_to_downset((i, j), 3)]
        expected = (
            Fraction(1, 2) * node(0, 0)
            + Fraction(1, 5) * node(1, 0)
            + Fraction(1, 10) * node(1, 1)
            + Fraction(1, 10) * node(1, 2)
            + Fraction(1, 10) * node(2, 2)
        )
        assert cq.natural_extension(capacity, worked_profile) == expected

    @given(st.data())
    def test_interpolates_vertices(self, data):
        lattice = data.draw(lattices(max_elements=4))
        capacity = data.draw(capacities(lattice))
        for element in lattice.elements:
            indicator = cq.Profile(
                lattice.base,
                {x: int(x in element) for x in lattice.base.elements},
            )
            assert cq.natural_extension(capacity, indicator) == capacity.values[element]

    @given(st.data())
    def test_additive_capacity_gives_weighted_sum(self, data):
        base = data.draw(posets(min_elements=1, max_elements=5))
        lattice = cq.DownsetLattice(base)
        weights = {
            j: data.draw(st.fractions(min_value=-2, max_value=2, max_denominator=6))
            for j in base.elements
        }
        additive = cq.GeneralizedCapacity(
            lattice,
            {d: sum((weights[j] for j in d), Fraction(0)) for d in lattice.elements},
        )
        profile = data.draw(profiles(base))
        expected = sum(
            (weights[j] * profile.values[j] for j in base.elements), Fraction(0)
        )
        assert cq.natural_extension(additive, profile) == expected

    @given(st.data())
    def test_unanimity_gives_min(self, data):
        lattice = data.draw(lattices(min_elements=1, max_elements=5))
        x = data.draw(st.sampled_from(lattice.elements))
        profile = data.draw(profiles(lattice.base))
        expected = min((profile.values[j] for j in x), default=Fraction(1))
        assert cq.natural_extension(cq.unanimity(lattice, x), profile) == expected

    def test_base_mismatch(self, grid_base, worked_profile):
        lattice = cq.DownsetLattice(antichain(2))
        capacity = cq.GeneralizedCapacity(
            lattice, {d: 0 for d in lattice.elements}
        )
        with pytest.raises(cq.BaseMismatch):
            cq.natural_extension(capacity, worked_profile)

    def test_tie_break_invariance(self):
        rng = random.Random(23)
        for _ in range(60):
            base = cq.build_kary_base(rng.randint(2, 3), rng.randint(1, 3))
            lattice = cq.DownsetLattice(base)
            capacity = cq.GeneralizedCapacity(
                lattice, {d: Fraction(rng.randint(-9, 9), 4) for d in lattice.elements}
            )
            profile = random_profile(rng, base, denominator=3)  # coarse grid forces ties
            reference = cq.natural_extension(capacity, profile)
            for _ in range(4):
                dec = cq.triangulate(
                    profile, tie_break=random_linear_extension(rng, base)
                )
                value = sum(
                    (w * capacity.values[v] for v, w in zip(dec.chain, dec.weights)),
                    Fraction(0),
                )
                assert value == reference


class TestChoquetClassical:
    def test_unanimity_pair(self):
        capacity = _boolean_capacity(3, lambda s: int({"1", "3"} <= s))
        assert cq.choquet_classical(capacity, {"1": "0.5", "2": "0.2", "3": "0.7"}) == Fraction(1, 2)

    def test_constant_scores_idempotent(self):
        capacity = _boolean_capacity(3, lambda s: Fraction(len(s), 3))
        assert cq.choquet_classical(capacity, {"1": "0.4", "2": "0.4", "3": "0.4"}) == Fraction(2, 5)

    def test_max_capacity_gives_max(self):
        capacity = _boolean_capacity(3, lambda s: int(bool(s)))
        assert cq.choquet_classical(capacity, {"1": "0.1", "2": "0.9", "3": "0.4"}) == Fraction(9, 10)

    def test_scores_above_one_are_homogeneous(self):
        capacity = _boolean_capacity(2, lambda s: Fraction(len(s) ** 2, 4))
        small = cq.choquet_classical(capacity, {"1": "0.6", "2": "0.3"})
        large = cq.choquet_classical(capacity, {"1": "1.2", "2": "0.6"})
        assert large == 2 * small

    def test_negative_rejected(self):
        capacity = _boolean_capacity(2, lambda s: 0)
        with pytest.raises(cq.NegativeScore):
            cq.choquet_classical(capacity, {"1": "-0.1", "2": 0})

    def test_mapping_missing_a_prefix_set(self):
        capacity = {frozenset(): 0, frozenset({"2"}): 1}
        with pytest.raises(cq.NotAnElement, match=r"not defined on \['1', '2'\]"):
            cq.choquet_classical(capacity, {"1": "0.5", "2": "0.7"})

    def test_score_keys_of_mixed_types(self):
        # ties break on the keys' text, and a missing set names its keys by text
        assert cq.choquet_classical(len, {"a": 1, 1: 1}) == 2
        assert cq.choquet_classical(len, {"a": 2, 1: 1, "b": 1}) == 4
        with pytest.raises(cq.NotAnElement, match=r"not defined on \[1, 'a'\]"):
            cq.choquet_classical({frozenset(): 0}, {"a": 2, 1: 2})

    @given(st.data())
    def test_boolean_reduction_of_natural_extension(self, data):
        n = data.draw(st.integers(min_value=1, max_value=4))
        base = antichain(n)
        lattice = cq.DownsetLattice(base)
        game = data.draw(capacities(lattice, game=True))
        profile = data.draw(profiles(base))
        assert cq.natural_extension(game, profile) == cq.choquet_classical(
            game.values, profile.values
        )


def _boolean_capacity(n, rule):
    table = {}
    for downset in cq.all_downsets(antichain(n)):
        table[downset] = rule(set(downset))
    return table


class TestZeroOneMaxmin:
    def test_top_unanimity_is_min(self, grid_base, worked_profile):
        lattice = cq.DownsetLattice(grid_base)
        top = cq.unanimity(lattice, lattice.top)
        assert cq.zero_one_maxmin(top, worked_profile) == Fraction(1, 10)

    def test_constant_one_returns_one(self, grid_base, worked_profile):
        lattice = cq.DownsetLattice(grid_base)
        ones = cq.GeneralizedCapacity(lattice, {d: 1 for d in lattice.elements})
        assert cq.zero_one_maxmin(ones, worked_profile) == 1
        assert cq.natural_extension(ones, worked_profile) == 1

    def test_constant_zero_returns_zero(self, grid_base, worked_profile):
        lattice = cq.DownsetLattice(grid_base)
        zeros = cq.GeneralizedCapacity(lattice, {d: 0 for d in lattice.elements})
        assert cq.zero_one_maxmin(zeros, worked_profile) == 0

    def test_base_mismatch(self, worked_profile):
        lattice = cq.DownsetLattice(antichain(2))
        with pytest.raises(cq.BaseMismatch):
            cq.zero_one_maxmin(cq.unanimity(lattice, lattice.top), worked_profile)

    def test_wedge_pair_against_natural_extension(self):
        base = wedge_poset()
        lattice = cq.DownsetLattice(base)
        functional = cq.unanimity(lattice, frozenset({"a", "c"}))
        rng = random.Random(5)
        for _ in range(100):
            profile = random_profile(rng, base)
            value = cq.zero_one_maxmin(functional, profile)
            assert value == min(profile.values["a"], profile.values["c"])
            assert value == cq.natural_extension(functional, profile)

    def test_rejects_non_zero_one(self, grid_base):
        lattice = cq.DownsetLattice(grid_base)
        halves = cq.GeneralizedCapacity(lattice, {d: "0.5" for d in lattice.elements})
        profile = cq.Profile(grid_base, {x: 0 for x in grid_base.elements})
        with pytest.raises(cq.NotZeroOne):
            cq.zero_one_maxmin(halves, profile)

    def test_rejects_non_monotone(self, grid_base):
        lattice = cq.DownsetLattice(grid_base)
        values = {d: 0 for d in lattice.elements}
        values[frozenset()] = 1
        bad = cq.GeneralizedCapacity(lattice, values)
        profile = cq.Profile(grid_base, {x: 0 for x in grid_base.elements})
        with pytest.raises(cq.NotMonotone):
            cq.zero_one_maxmin(bad, profile)


class TestMoebiusFormEval:
    def test_boolean_hand_sum(self):
        lattice = cq.DownsetLattice(antichain(2))
        vector = cq.GeneralizedCapacity(
            lattice,
            {
                frozenset(): 0,
                frozenset({"1"}): "0.3",
                frozenset({"2"}): "0.4",
                frozenset({"1", "2"}): "0.3",
            },
        )
        profile = cq.Profile(antichain(2), {"1": "0.5", "2": "0.2"})
        assert cq.moebius_form_eval(vector, profile) == Fraction(29, 100)
        capacity = cq.zeta_transform(vector)
        assert cq.choquet_classical(capacity.values, profile.values) == Fraction(29, 100)

    @given(st.data())
    def test_indicator_coefficients_give_min(self, data):
        lattice = data.draw(lattices(min_elements=1, max_elements=5))
        x = data.draw(st.sampled_from(lattice.elements))
        vector = cq.GeneralizedCapacity(
            lattice, {e: int(e == x) for e in lattice.elements}
        )
        profile = data.draw(profiles(lattice.base))
        expected = min((profile.values[j] for j in x), default=Fraction(1))
        assert cq.moebius_form_eval(vector, profile) == expected

    @given(st.data())
    def test_agrees_with_natural_extension(self, data):
        lattice = data.draw(lattices(max_elements=4))
        capacity = data.draw(capacities(lattice))
        profile = data.draw(profiles(lattice.base))
        assert cq.moebius_form_eval(
            cq.moebius_transform(capacity), profile
        ) == cq.natural_extension(capacity, profile)

    @pytest.mark.parametrize("kind", sorted(VALUE_KINDS))
    @given(data=st.data())
    def test_matches_slow_oracle(self, kind, data):
        """Rank buckets against the per-coefficient minimum, for each kind of
        table (all zero, integer, small, coprime, huge denominators, mixed)
        and profiles with or without ties and zeros."""
        lattice = data.draw(lattices(max_elements=6))
        vector = cq.GeneralizedCapacity(lattice, data.draw(exact_tables(lattice.elements, kind)))
        values = data.draw(st.sampled_from((unit_fractions, tied_values)))
        profile = data.draw(profiles(lattice.base, values))
        assert cq.moebius_form_eval(vector, profile) == slow_moebius_form_eval(vector, profile)

    @pytest.mark.parametrize("profile_kind", ["tied", "large"])
    @given(data=st.data())
    def test_tied_and_large_profiles_match_slow_oracle(self, profile_kind, data):
        """Ranks from integer sort keys against the Fraction minimum per
        coefficient, on profiles full of ties or over 30-digit denominators,
        with a transform's output read by position as the coefficients."""
        lattice = data.draw(lattices(max_elements=6))
        capacity = cq.GeneralizedCapacity(lattice, data.draw(exact_tables(lattice.elements)))
        vector = cq.moebius_transform(capacity)
        profile = data.draw(profiles(lattice.base, PROFILE_VALUES[profile_kind]))
        value = cq.moebius_form_eval(vector, profile)
        assert value == slow_moebius_form_eval(vector, profile)
        assert value == cq.natural_extension(capacity, profile)

    def test_empty_base(self):
        lattice = cq.DownsetLattice(cq.Poset([], []))
        profile = cq.Profile(lattice.base, {})
        for value in ("-7/3", 0):
            vector = cq.GeneralizedCapacity(lattice, {frozenset(): value})
            assert cq.moebius_form_eval(vector, profile) == Fraction(value)

    def test_base_mismatch(self, worked_profile):
        lattice = cq.DownsetLattice(antichain(2))
        coefficients = cq.GeneralizedCapacity(lattice, {d: 1 for d in lattice.elements})
        with pytest.raises(cq.BaseMismatch):
            cq.moebius_form_eval(coefficients, worked_profile)


GRID = cq.DownsetLattice(cq.build_kary_base(3, 2))
# the same scales written with scaled-up integers and signed zeros
SCALES = [
    (("0", "1/2", "1"), ("-0/3", "50e-2", "1.00"), False),
    (("-1", "-1/2", "0", "1/2", "1"), ("-2/2", "-0.50", "+0.0", "5e-1", "10/10"), True),
]



class TestUnreducedText:
    """Values written with their integers scaled up ("2/4", "0.50", "50e-2")
    or as signed zeros ("-0/7", "+0.0") are kept as the pairs they were
    written as; every Fraction that comes out equals the one the reduced
    values give, and scoring never builds a profile's ``values``."""

    @staticmethod
    def _assert_same_values(read, exact):
        """``.values`` is the base-ordered dict of reduced Fractions."""
        assert list(read.values) == list(read.base.elements)
        assert all(type(v) is Fraction for v in read.values.values())
        assert list(read.values.items()) == list(exact.values.items())

    @given(data=st.data())
    def test_unsigned_profile(self, data):
        base = GRID.base
        values = nonincreasing(base, {j: data.draw(decimal_unit_fractions) for j in base.elements})
        text = {j: data.draw(unreduced_texts(v)) for j, v in values.items()}
        read, exact = cq.Profile(base, text), cq.Profile(base, values)
        capacity = data.draw(capacities(GRID))
        evaluation = cq.evaluate(capacity, read)
        expected = cq.evaluate(capacity, exact)
        assert evaluation.value == expected.value == cq.natural_extension(capacity, read)
        assert (evaluation.order, evaluation.chain) == (expected.order, expected.chain)
        assert evaluation.weights == expected.weights
        assert all(type(w) is Fraction for w in evaluation.weights)
        assert cq.triangulate(read) == cq.triangulate(exact) == slow_triangulate(exact)
        dual = cq.moebius_form_eval(cq.moebius_transform(capacity), read)
        assert dual == evaluation.value
        assert "values" not in vars(read)
        self._assert_same_values(read, exact)

    @given(data=st.data())
    def test_signed_profile(self, data):
        base = GRID.base
        magnitude = nonincreasing(
            base, {j: data.draw(decimal_unit_fractions) for j in base.elements}
        )
        # one sign per criterion, so the profile lies in a tile
        signs = {c: data.draw(st.sampled_from((1, -1))) for c in (1, 2)}
        values = {j: signs[cq.label_parts(j)[0]] * v for j, v in magnitude.items()}
        text = {j: data.draw(unreduced_texts(v)) for j, v in values.items()}
        read, exact = cq.BipolarProfile(base, text), cq.BipolarProfile(base, values)
        capacity = cq.BipolarCapacity(
            GRID, data.draw(exact_tables(cq.admissible_vertex_pairs(GRID), "small"))
        )
        evaluation = cq.evaluate_bipolar(capacity, read)
        expected = cq.evaluate_bipolar(capacity, exact)
        assert evaluation.value == expected.value
        assert (evaluation.tile, evaluation.chain) == (expected.tile, expected.chain)
        assert evaluation.weights == expected.weights
        coefficients = cq.bipolar_moebius_transform(GRID, capacity.values)
        assert cq.bipolar_moebius_form_eval(coefficients, read) == evaluation.value
        assert cq.bipolar_moebius_form_eval(dict(coefficients), read) == evaluation.value
        assert "values" not in vars(read)
        self._assert_same_values(read.magnitude(), exact.magnitude())
        self._assert_same_values(read, exact)

    @pytest.mark.parametrize("exact_levels, text_levels, symmetric", SCALES)
    @given(data=st.data())
    def test_points(self, exact_levels, text_levels, symmetric, data):
        exact_scale = cq.ReferenceScale(exact_levels, symmetric=symmetric)
        scale = cq.ReferenceScale(text_levels, symmetric=symmetric)
        assert scale == exact_scale
        assert all(type(v) is Fraction for v in scale.levels)
        sign = st.sampled_from((1, -1) if symmetric else (1,))
        point = [data.draw(sign) * data.draw(decimal_unit_fractions) for _ in range(2)]
        text = [data.draw(unreduced_texts(v)) for v in point]
        if symmetric:
            capacity = cq.BipolarCapacity(
                GRID, data.draw(exact_tables(cq.admissible_vertex_pairs(GRID), "small"))
            )
            score, locate, staircase = (
                cq.interpolate_signed_point, cq.locate_signed_point, cq.bipolar_level_profile
            )
        else:
            capacity = data.draw(capacities(GRID))
            score, locate, staircase = cq.interpolate_point, cq.locate_point, cq.level_profile
        assert score(capacity, text, scale) == score(capacity, point, exact_scale)
        assert locate(text, scale) == locate(point, exact_scale)
        *located, profile = staircase(text, scale)
        *expected, exact = staircase(point, exact_scale)
        assert located == expected
        self._assert_same_values(profile, exact)
