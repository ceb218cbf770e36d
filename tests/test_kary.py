import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import choqlat as cq
import choqlat.kary
from support import (
    VALUE_KINDS,
    exact_tables,
    random_bipolar_capacity,
    random_capacity,
    random_profile,
    random_signed_profile,
    slow_chain_value,
    slow_evaluation,
    slow_locate_coordinates,
    slow_triangulate,
    values_unread,
)


@pytest.fixture
def grid32():
    return cq.DownsetLattice(cq.build_kary_base(3, 2))


@pytest.fixture
def scale3():
    return cq.ReferenceScale(("0", "0.5", "1"))


@pytest.fixture
def symmetric5():
    return cq.ReferenceScale(("-1", "-0.5", "0", "0.5", "1"), symmetric=True)


class TestBase:
    def test_three_by_two(self):
        base = cq.build_kary_base(3, 2)
        assert set(base.elements) == {"c1l1", "c1l2", "c2l1", "c2l2"}
        assert len(cq.connected_components(base)) == 2
        assert base.leq("c1l1", "c1l2")
        assert not base.leq("c1l1", "c2l1")

    def test_two_levels_is_antichain(self):
        base = cq.build_kary_base(2, 3)
        assert base.covers == frozenset()
        assert len(base.elements) == 3

    def test_element_count(self):
        assert len(cq.build_kary_base(4, 3).elements) == 9

    def test_bad_dimensions(self):
        with pytest.raises(cq.InvalidDimensions):
            cq.build_kary_base(1, 2)
        with pytest.raises(cq.InvalidDimensions):
            cq.build_kary_base(3, 0)

    def test_node_round_trip(self):
        k, n = 4, 3
        base = cq.build_kary_base(k, n)
        lattice = cq.DownsetLattice(base)
        assert len(lattice) == k ** n
        for downset in lattice.elements:
            node = cq.downset_to_node(downset, n)
            assert cq.node_to_downset(node, k) == downset

    def test_grid_shape(self):
        assert cq.grid_shape(cq.build_kary_base(3, 2)) == (3, 2)
        with pytest.raises(cq.InvalidDimensions):
            cq.grid_shape(cq.Poset(["a"], []))

    @pytest.mark.parametrize("labels", [["c100000l1"], ["c1l1", "c2l2"], ["c1l3", "c2l1"]])
    def test_grid_shape_counts_before_building(self, monkeypatch, labels):
        def build(k, n):
            raise AssertionError(f"built a ({k}, {n}) grid for a base of the wrong size")

        monkeypatch.setattr(choqlat.kary, "build_kary_base", build)
        with pytest.raises(cq.InvalidDimensions, match="not a chain product"):
            cq.grid_shape(cq.Poset(labels))

    @pytest.mark.parametrize("label", ["c²l1", "c١l1", "c1l²", "c1l١"])
    def test_non_ascii_digits_rejected(self, label):
        with pytest.raises(cq.InvalidDimensions, match="does not encode a grid level"):
            cq.label_parts(label)

    def test_non_ascii_label_rejected_when_scoring(self, scale3):
        lattice = cq.DownsetLattice(cq.Poset(["c²l1"], []))
        capacity = cq.GeneralizedCapacity(lattice, {d: 0 for d in lattice.elements})
        with pytest.raises(cq.InvalidDimensions, match="does not encode a grid level"):
            cq.interpolate_point(capacity, ["1/2"], cq.ReferenceScale(("0", "1")))

    def test_node_out_of_range(self):
        # -1 is checked as a level, never read as the last prefix code
        for node, text in [((3, 0), "3 of criterion 1"), ((0, -1), "-1 of criterion 2")]:
            with pytest.raises(cq.InvalidDimensions, match=f"^node coordinate {text} outside"):
                cq.node_to_downset(node, 3)


class TestKaryChoquet:
    def test_worked_instance_report(self, grid32):
        rng = random.Random(0)
        capacity = random_capacity(rng, grid32)
        profile = cq.Profile(
            grid32.base, {"c1l1": "0.5", "c1l2": "0.1", "c2l1": "0.3", "c2l2": "0.2"}
        )
        evaluation = cq.evaluate(capacity, profile)
        steps = cq.grid_steps(evaluation, 2)
        assert steps.levels == (1, 1, 2, 2)
        assert steps.criteria == (1, 2, 2, 1)
        assert steps.nodes == ((0, 0), (1, 0), (1, 1), (1, 2), (2, 2))
        assert evaluation.weights == (
            Fraction(1, 2),
            Fraction(1, 5),
            Fraction(1, 10),
            Fraction(1, 10),
            Fraction(1, 10),
        )
        assert evaluation.value == cq.natural_extension(capacity, profile)

    def test_grid_steps_rejects_too_few_criteria(self, grid32):
        profile = cq.Profile(grid32.base, {x: "0.5" for x in grid32.base.elements})
        evaluation = cq.evaluate(random_capacity(random.Random(4), grid32), profile)
        with pytest.raises(cq.InvalidDimensions):
            cq.grid_steps(evaluation, 1)

    def test_constant_one_profile_hits_top(self, grid32):
        rng = random.Random(1)
        capacity = random_capacity(rng, grid32, game=True)
        profile = cq.Profile(grid32.base, {x: 1 for x in grid32.base.elements})
        assert cq.natural_extension(capacity, profile) == capacity.values[grid32.top]

    def test_sorted_pass_is_nonincreasing(self, grid32):
        rng = random.Random(2)
        for _ in range(20):
            profile = random_profile(rng, grid32.base)
            steps = cq.grid_steps(cq.evaluate(random_capacity(rng, grid32), profile), 2)
            run = [
                profile.values[cq.level_label(c, l)]
                for l, c in zip(steps.levels, steps.criteria)
            ]
            assert run == sorted(run, reverse=True)

    def test_agrees_with_moebius_form(self, grid32):
        rng = random.Random(3)
        for _ in range(20):
            capacity = random_capacity(rng, grid32)
            profile = random_profile(rng, grid32.base)
            assert cq.natural_extension(capacity, profile) == cq.moebius_form_eval(
                cq.moebius_transform(capacity), profile
            )


class TestLevelProfile:
    def test_interior_point(self, scale3):
        indexing, profile = cq.level_profile(["0.7", "0.1"], scale3)
        assert indexing.indices == (2, 1)
        assert indexing.residues == (Fraction(2, 5), Fraction(1, 5))
        assert indexing.prefix_size == 1
        assert profile.values == {
            "c1l1": 1,
            "c1l2": Fraction(2, 5),
            "c2l1": Fraction(1, 5),
            "c2l2": 0,
        }

    def test_boundary_rule_at_interior_node(self, scale3):
        indexing, _ = cq.level_profile(["0.5", "0"], scale3)
        assert indexing.indices == (1, 1)
        assert indexing.residues == (Fraction(1), Fraction(0))

    def test_top_coordinate_fills_chain(self, scale3):
        _, profile = cq.level_profile(["1", "0"], scale3)
        assert profile.values["c1l1"] == 1
        assert profile.values["c1l2"] == 1

    def test_out_of_scale(self, scale3):
        with pytest.raises(cq.OutOfScale):
            cq.level_profile(["1.2", "0"], scale3)
        with pytest.raises(cq.OutOfScale):
            cq.level_profile(["0.5", "-0.1"], scale3)

    def test_residue_order_breaks_ties_by_criterion(self, scale3):
        indexing, _ = cq.level_profile(["0.7", "0.7"], scale3)
        assert indexing.order == (1, 2)


class TestScaleValidation:
    def test_strictly_increasing_required(self):
        with pytest.raises(cq.InvalidDimensions, match="^scale levels must be strictly increasing$"):
            cq.ReferenceScale(("0", "0"))

    def test_one_level_scale(self):
        with pytest.raises(cq.InvalidDimensions, match="^a scale needs at least two levels$"):
            cq.ReferenceScale(("0",))

    def test_symmetric_needs_odd_count(self):
        with pytest.raises(cq.InvalidDimensions, match="^symmetric scales have an odd level count$"):
            cq.ReferenceScale(("-1", "0", "0.5", "1"), symmetric=True)

    def test_symmetric_needs_zero_centre(self):
        with pytest.raises(cq.InvalidDimensions, match="^symmetric scales are centred on 0$"):
            cq.ReferenceScale(("-2", "-1", "1", "2", "3"), symmetric=True)

    def test_signed_index_access(self, symmetric5):
        assert symmetric5.k == 3
        assert symmetric5.rho(0) == 0
        assert symmetric5.rho(-2) == -1
        assert symmetric5.rho(2) == 1

    def test_rho_outside_the_scale(self, scale3, symmetric5):
        for scale, index in [(scale3, 3), (scale3, -1), (symmetric5, -3), (symmetric5, 3)]:
            with pytest.raises(cq.OutOfScale, match="outside the scale"):
                scale.rho(index)


class TestPointInterpolation:
    def test_hand_formula(self, grid32, scale3):
        rng = random.Random(4)
        capacity = random_capacity(rng, grid32)
        at = lambda node: capacity.values[cq.node_to_downset(node, 3)]
        expected = (
            Fraction(3, 5) * at((1, 0))
            + Fraction(1, 5) * at((2, 0))
            + Fraction(1, 5) * at((2, 1))
        )
        assert cq.interpolate_point(capacity, ["0.7", "0.1"], scale3) == expected

    def test_exact_at_every_mesh_node(self, grid32, scale3):
        rng = random.Random(5)
        capacity = random_capacity(rng, grid32)
        for i in (0, 1, 2):
            for j in (0, 1, 2):
                point = [scale3.levels[i], scale3.levels[j]]
                assert cq.interpolate_point(capacity, point, scale3) == capacity.values[
                    cq.node_to_downset((i, j), 3)
                ]

    def test_agrees_with_staircase_and_chain(self, grid32, scale3):
        rng = random.Random(6)
        for _ in range(40):
            capacity = random_capacity(rng, grid32)
            point = [Fraction(rng.randint(0, 20), 20) for _ in range(2)]
            direct = cq.interpolate_point(capacity, point, scale3)
            _, staircase = cq.level_profile(point, scale3)
            assert direct == cq.natural_extension(capacity, staircase)

    def test_scale_shape_checked(self, grid32):
        wrong = cq.ReferenceScale(("0", "0.3", "0.6", "1"))
        with pytest.raises(cq.InvalidDimensions):
            cq.interpolate_point(
                cq.GeneralizedCapacity(grid32, {d: 0 for d in grid32.elements}),
                ["0.5", "0.5"],
                wrong,
            )

    def test_grid_base_built_once_per_lattice(self, monkeypatch, scale3, symmetric5):
        rng = random.Random(19)
        lattice = cq.DownsetLattice(cq.build_kary_base(3, 2))
        unsigned = random_capacity(rng, lattice)
        signed = random_bipolar_capacity(rng, lattice)
        points = [[Fraction(rng.randint(0, 20), 20) for _ in range(2)] for _ in range(10)]
        signed_points = [[2 * x - 1 for x in point] for point in points]
        expected = [
            cq.natural_extension(unsigned, cq.level_profile(point, scale3)[1])
            for point in points
        ] + [
            cq.bipolar_natural_extension(signed, cq.bipolar_level_profile(point, symmetric5)[2])
            for point in signed_points
        ]
        builds = []
        original = cq.kary.build_kary_base
        monkeypatch.setattr(
            cq.kary, "build_kary_base", lambda k, n: builds.append((k, n)) or original(k, n)
        )
        got = [cq.interpolate_point(unsigned, point, scale3) for point in points] + [
            cq.interpolate_signed_point(signed, point, symmetric5) for point in signed_points
        ]
        assert got == expected
        assert len(builds) <= 1


class TestSignedGrid:
    def test_worked_instance_report(self, grid32):
        rng = random.Random(10)
        capacity = random_bipolar_capacity(rng, grid32)
        profile = cq.BipolarProfile(
            grid32.base,
            {"c1l1": "0.5", "c1l2": "0.1", "c2l1": "-0.3", "c2l2": "-0.2"},
        )
        evaluation = cq.evaluate_bipolar(capacity, profile)
        steps = cq.grid_steps(evaluation, 2)
        assert steps.positive_criteria == frozenset({1})
        assert steps.nodes == (
            ((0, 0), (0, 0)),
            ((1, 0), (0, 0)),
            ((1, 0), (0, 1)),
            ((1, 0), (0, 2)),
            ((2, 0), (0, 2)),
        )
        assert evaluation.weights == (
            Fraction(1, 2),
            Fraction(1, 5),
            Fraction(1, 10),
            Fraction(1, 10),
            Fraction(1, 10),
        )

    def test_nonnegative_profile_matches_unsigned(self, grid32):
        rng = random.Random(11)
        capacity = random_bipolar_capacity(rng, grid32)
        unsigned = cq.GeneralizedCapacity(
            grid32,
            {d: capacity.values[cq.BipolarElement(d, frozenset())] for d in grid32.elements},
        )
        for _ in range(10):
            magnitude = random_profile(rng, grid32.base)
            signed = cq.BipolarProfile(grid32.base, magnitude.values)
            assert cq.bipolar_natural_extension(capacity, signed) == cq.natural_extension(
                unsigned, magnitude
            )

    def test_agrees_with_moebius_form(self, grid32):
        rng = random.Random(12)
        capacity = random_bipolar_capacity(rng, grid32)
        coefficients = cq.bipolar_moebius_transform(grid32, capacity.values)
        for _ in range(10):
            profile = random_signed_profile(rng, grid32.base)
            assert cq.bipolar_natural_extension(
                capacity, profile
            ) == cq.bipolar_moebius_form_eval(coefficients, profile)


class TestSignedPoints:
    def test_bipolar_location(self, symmetric5):
        positive, indexing, profile = cq.bipolar_level_profile(["0.7", "-0.1"], symmetric5)
        assert positive == frozenset({1})
        assert indexing.indices == (2, 1)
        assert indexing.residues == (Fraction(2, 5), Fraction(1, 5))
        assert profile.values == {
            "c1l1": 1,
            "c1l2": Fraction(2, 5),
            "c2l1": Fraction(-1, 5),
            "c2l2": 0,
        }
        rng = random.Random(18)
        capacity = random_bipolar_capacity(
            rng, cq.DownsetLattice(cq.build_kary_base(3, 2))
        )
        assert cq.interpolate_signed_point(
            capacity, ["0.7", "-0.1"], symmetric5
        ) == cq.bipolar_natural_extension(capacity, profile)

    def test_signed_point_agrees_with_chain_path(self, symmetric5):
        rng = random.Random(13)
        lattice = cq.DownsetLattice(cq.build_kary_base(3, 2))
        for _ in range(40):
            capacity = random_bipolar_capacity(rng, lattice)
            point = [Fraction(rng.randint(-20, 20), 20) for _ in range(2)]
            direct = cq.interpolate_signed_point(capacity, point, symmetric5)
            _, _, profile = cq.bipolar_level_profile(point, symmetric5)
            assert direct == cq.bipolar_natural_extension(capacity, profile)

    def test_nonnegative_point_reduces_to_unsigned(self, symmetric5, scale3):
        rng = random.Random(14)
        lattice = cq.DownsetLattice(cq.build_kary_base(3, 2))
        capacity = random_bipolar_capacity(rng, lattice)
        unsigned = cq.GeneralizedCapacity(
            lattice,
            {d: capacity.values[cq.BipolarElement(d, frozenset())] for d in lattice.elements},
        )
        for _ in range(15):
            point = [Fraction(rng.randint(0, 20), 20) for _ in range(2)]
            assert cq.interpolate_signed_point(
                capacity, point, symmetric5
            ) == cq.interpolate_point(unsigned, point, scale3)

    def test_exact_at_signed_mesh_nodes(self, symmetric5):
        rng = random.Random(15)
        lattice = cq.DownsetLattice(cq.build_kary_base(3, 2))
        capacity = random_bipolar_capacity(rng, lattice)
        point = ["0.5", "-1"]
        assert cq.interpolate_signed_point(capacity, point, symmetric5) == capacity.values[
            cq.BipolarElement(
                cq.node_to_downset((1, 0), 3), cq.node_to_downset((0, 2), 3)
            )
        ]

    def test_out_of_scale(self, symmetric5):
        lattice = cq.DownsetLattice(cq.build_kary_base(3, 2))
        capacity = cq.BipolarCapacity(
            lattice, {p: 0 for p in cq.admissible_vertex_pairs(lattice)}
        )
        with pytest.raises(cq.OutOfScale):
            cq.interpolate_signed_point(capacity, ["-1.5", "0"], symmetric5)


def _sides(size, low, high):
    """``size`` distinct increasing levels strictly between low and high."""
    inner = st.fractions(min_value=low, max_value=high, max_denominator=40)
    return st.lists(
        inner.filter(lambda v: low < v < high), min_size=size, max_size=size, unique=True
    ).map(sorted)


def _points(n, levels):
    """Points on the scale: mesh nodes and cell interiors."""
    coordinate = st.one_of(
        st.sampled_from(levels),
        st.fractions(min_value=levels[0], max_value=levels[-1], max_denominator=60),
    )
    return st.lists(coordinate, min_size=n, max_size=n)


class TestCornerSweepOracle:
    """The corner sweep against the Fraction sort and sum of the point's
    staircase profile, on random scales, points and tables of every value
    kind."""

    @given(data=st.data())
    def test_unsigned(self, data):
        k, n = data.draw(st.integers(2, 4)), data.draw(st.integers(1, 3))
        levels = [Fraction(0), *data.draw(_sides(k - 2, 0, 1)), Fraction(1)]
        scale = cq.ReferenceScale(tuple(levels))
        lattice = cq.DownsetLattice(cq.build_kary_base(k, n))
        capacity = cq.GeneralizedCapacity(lattice, data.draw(exact_tables(lattice.elements)))
        point = data.draw(_points(n, levels))
        _, staircase = cq.level_profile(point, scale)
        expected = slow_triangulate(staircase)
        assert cq.interpolate_point(capacity, point, scale) == slow_chain_value(
            capacity.values, expected.chain, expected.weights
        )

    @given(data=st.data())
    def test_signed(self, data):
        k, n = data.draw(st.integers(2, 3)), data.draw(st.integers(1, 3))
        levels = [
            *data.draw(_sides(k - 1, -2, 0)), Fraction(0), *data.draw(_sides(k - 1, 0, 2))
        ]
        scale = cq.ReferenceScale(tuple(levels), symmetric=True)
        lattice = cq.DownsetLattice(cq.build_kary_base(k, n))
        table = data.draw(exact_tables(cq.admissible_vertex_pairs(lattice)))
        capacity = cq.BipolarCapacity(lattice, table)
        point = data.draw(_points(n, levels))
        positive, _, profile = cq.bipolar_level_profile(point, scale)
        tile = frozenset(cq.level_label(i, l) for i in positive for l in range(1, k))
        expected = slow_triangulate(profile.magnitude())
        split = [cq.BipolarElement(v & tile, v - tile) for v in expected.chain]
        assert cq.interpolate_signed_point(capacity, point, scale) == slow_chain_value(
            capacity.values, split, expected.weights
        )


class TestPositionalCornerSweep:
    """Both corner sweeps on corner bit codes and integer residue gaps, and
    the staircase evaluation they are checked against, for each kind of
    vertex table: the point value and the whole staircase record against
    the Fraction sort and sum. Unsigned tables are transform outputs, and
    neither the transform nor either path reads a value of them."""

    @pytest.mark.parametrize("kind", sorted(VALUE_KINDS))
    @given(data=st.data())
    def test_unsigned(self, kind, data):
        k, n = data.draw(st.integers(2, 4)), data.draw(st.integers(1, 3))
        levels = [Fraction(0), *data.draw(_sides(k - 2, 0, 1)), Fraction(1)]
        scale = cq.ReferenceScale(tuple(levels))
        lattice = cq.DownsetLattice(cq.build_kary_base(k, n))
        coefficients = cq.GeneralizedCapacity(lattice, data.draw(exact_tables(lattice.elements, kind)))
        point = data.draw(_points(n, levels))
        _, staircase = cq.level_profile(point, scale)
        with values_unread():
            capacity = cq.zeta_transform(coefficients)
            value = cq.interpolate_point(capacity, point, scale)
            evaluation = cq.evaluate(capacity, staircase)
        expected = slow_evaluation(capacity.values, slow_triangulate(staircase))
        assert evaluation == expected
        assert value == expected.value

    @pytest.mark.parametrize("kind", sorted(VALUE_KINDS))
    @given(data=st.data())
    def test_signed(self, kind, data):
        k, n = data.draw(st.integers(2, 3)), data.draw(st.integers(1, 3))
        levels = [
            *data.draw(_sides(k - 1, -2, 0)), Fraction(0), *data.draw(_sides(k - 1, 0, 2))
        ]
        scale = cq.ReferenceScale(tuple(levels), symmetric=True)
        lattice = cq.DownsetLattice(cq.build_kary_base(k, n))
        table = data.draw(exact_tables(cq.admissible_vertex_pairs(lattice), kind))
        capacity = cq.BipolarCapacity(lattice, table)
        point = data.draw(_points(n, levels))
        positive, _, profile = cq.bipolar_level_profile(point, scale)
        tile = frozenset(cq.level_label(i, l) for i in positive for l in range(1, k))
        expected = slow_evaluation(capacity.values, slow_triangulate(profile.magnitude()), tile)
        assert cq.evaluate_bipolar(capacity, profile) == expected
        assert cq.interpolate_signed_point(capacity, point, scale) == expected.value


class TestRefusals:
    """The point locators and both sweeps refuse a scale or a point of the
    wrong shape."""

    def test_locators_check_the_scale_kind(self, scale3, symmetric5):
        with pytest.raises(cq.InvalidDimensions, match="expects a one-sided scale"):
            cq.locate_point(["0.5"], symmetric5)
        with pytest.raises(cq.InvalidDimensions, match="needs a symmetric scale"):
            cq.locate_signed_point(["0.5"], scale3)

    def test_point_with_the_wrong_coordinate_count(self, grid32, scale3, symmetric5):
        rng = random.Random(31)
        with pytest.raises(cq.InvalidDimensions, match="point has 3 coordinates, grid has 2"):
            cq.interpolate_point(random_capacity(rng, grid32), ["0", "0.5", "1"], scale3)
        capacity = random_bipolar_capacity(rng, grid32)
        with pytest.raises(cq.InvalidDimensions, match="point has 1 coordinates, grid has 2"):
            cq.interpolate_signed_point(capacity, ["-0.5"], symmetric5)
        # a long signed point is refused before its tile is summed
        with pytest.raises(cq.InvalidDimensions, match="point has 3 coordinates, grid has 2"):
            cq.interpolate_signed_point(capacity, ["0.5", "-0.5", "0.5"], symmetric5)

    def test_signed_sweep_checks_the_scale(self, grid32, scale3):
        capacity = random_bipolar_capacity(random.Random(37), grid32)
        wide = cq.ReferenceScale(("-1", "-0.5", "-0.25", "0", "0.25", "0.5", "1"), symmetric=True)
        for scale in (scale3, wide):
            with pytest.raises(cq.InvalidDimensions, match="symmetric scale with 3 levels"):
                cq.interpolate_signed_point(capacity, ["0.5", "0.5"], scale)


class TestGridTable:
    """The prefix codes both corner sweeps read, and the sweeps against the
    staircase on grids wide enough that the label sort puts ``c10l1``
    before ``c2l1``, so bit order is not criterion order."""

    @pytest.mark.parametrize(
        "k, n", [(k, n) for k in (2, 3, 4) for n in (1, 2, 3, 4)] + [(5, 3), (6, 5), (2, 11)]
    )
    def test_prefixes_are_principal_downsets(self, k, n):
        base = cq.build_kary_base(k, n)
        got_k, got_n, prefixes = cq.DownsetLattice(base).derived(choqlat.kary._grid)
        assert (got_k, got_n) == (k, n)
        assert len(prefixes) == n
        for i, prefix in enumerate(prefixes, start=1):
            assert len(prefix) == k and prefix[0] == 0
            for l in range(1, k):
                assert prefix[l] == base._down[cq.level_label(i, l)]
                assert prefix[l] == sum(base._bit[cq.level_label(i, j)] for j in range(1, l + 1))

    def test_bit_order_is_not_criterion_order(self):
        base = cq.build_kary_base(2, 11)
        assert base._bit["c10l1"] < base._bit["c2l1"]

    def test_wide_unsigned_sweep_matches_staircase(self):
        rng = random.Random(23)
        lattice = cq.DownsetLattice(cq.build_kary_base(2, 11))
        capacity = random_capacity(rng, lattice)
        scale = cq.ReferenceScale(("0", "1"))
        for _ in range(20):
            point = [Fraction(rng.randint(0, 20), 20) for _ in range(11)]
            _, staircase = cq.level_profile(point, scale)
            assert cq.interpolate_point(capacity, point, scale) == cq.natural_extension(
                capacity, staircase
            )

    def test_wide_signed_sweep_matches_staircase(self):
        rng = random.Random(29)
        lattice = cq.DownsetLattice(cq.build_kary_base(2, 10))
        capacity = random_bipolar_capacity(rng, lattice)
        scale = cq.ReferenceScale(("-1", "0", "1"), symmetric=True)
        for _ in range(20):
            point = [Fraction(rng.randint(-20, 20), 20) for _ in range(10)]
            _, _, staircase = cq.bipolar_level_profile(point, scale)
            assert cq.interpolate_signed_point(
                capacity, point, scale
            ) == cq.bipolar_natural_extension(capacity, staircase)


class TestStaircaseCheck:
    """The staircase goes through the profile's one check: its pairs, sort
    keys and sizes are those the public constructor makes of its values,
    on 11 criteria too, where the label sort puts ``c10l1`` before
    ``c2l1``, so bit order is not label order."""

    @staticmethod
    def expected(indexing, k: int, negated=frozenset()) -> dict:
        """1 below each criterion's level index, its residue at it, 0 above;
        negated on the criteria in ``negated``."""
        values = {}
        for i, (index, residue) in enumerate(zip(indexing.indices, indexing.residues), start=1):
            sign = -1 if i in negated else 1
            for l in range(1, k):
                level = 1 if l < index else residue if l == index else 0
                values[cq.level_label(i, l)] = sign * level
        return values

    @staticmethod
    def held(profile) -> tuple:
        return profile._pairs, profile._keys, profile._sizes

    @pytest.mark.parametrize("n", [2, 11], ids=["grid32", "eleven_criteria"])
    def test_unsigned(self, scale3, n):
        rng = random.Random(n)
        for _ in range(30):
            point = [Fraction(rng.randint(0, 8), 8) for _ in range(n)]
            indexing, staircase = cq.level_profile(point, scale3)
            expected = self.expected(indexing, 3)
            assert staircase.values == expected
            # criterion order is label order; on 11 criteria it is not bit order
            assert (list(staircase.base._topo) == list(expected)) == (n == 2)
            built = cq.Profile(staircase.base, staircase.values)
            assert self.held(staircase) == self.held(built)

    @pytest.mark.parametrize("n", [2, 11], ids=["grid32", "eleven_criteria"])
    def test_signed(self, symmetric5, n):
        rng = random.Random(n + 1)
        for _ in range(30):
            point = [Fraction(rng.randint(-8, 8), 8) for _ in range(n)]
            positive, indexing, staircase = cq.bipolar_level_profile(point, symmetric5)
            negated = frozenset(range(1, n + 1)) - positive
            assert staircase.values == self.expected(indexing, 3, negated)
            built = cq.BipolarProfile(staircase.base, staircase.values)
            assert self.held(staircase) == self.held(built)


class TestTwoLevelCollapse:
    def test_unsigned_matches_classical(self):
        rng = random.Random(16)
        for n in (1, 2, 3, 4):
            base = cq.build_kary_base(2, n)
            lattice = cq.DownsetLattice(base)
            for _ in range(10):
                game = random_capacity(rng, lattice, game=True)
                profile = random_profile(rng, base)
                assert cq.natural_extension(game, profile) == cq.choquet_classical(
                    game.values, profile.values
                )

    def test_signed_matches_pair_integral(self):
        rng = random.Random(17)
        for n in (1, 2, 3):
            base = cq.build_kary_base(2, n)
            lattice = cq.DownsetLattice(base)
            for _ in range(10):
                capacity = random_bipolar_capacity(rng, lattice, game=True)
                profile = random_signed_profile(rng, base)
                assert cq.bipolar_natural_extension(
                    capacity, profile
                ) == cq.bicapacity_choquet(capacity, profile.values)


# 30-digit denominators, and the smallest step off an anchor at that size
HUGE = 10**30
scale_values = st.one_of(
    st.fractions(min_value=-3, max_value=3, max_denominator=40),
    st.builds(Fraction, st.integers(-3 * HUGE, 3 * HUGE), st.integers(1, HUGE)),
)


def _located(point, scale, locate):
    try:
        return locate(point, scale)
    except cq.ChoqlatError as exc:
        return type(exc), str(exc)


class TestLocationOracle:
    """Point location on integers against the Fraction comparisons it
    replaced: the same indexing and positive set, or the same error text.
    The corner sweep and the staircase share the location, so the dual
    path cannot catch a fault here."""

    @given(data=st.data(), symmetric=st.booleans())
    def test_matches_fraction_location(self, data, symmetric):
        size = data.draw(st.integers(1, 3))
        if symmetric:
            side = st.lists(
                scale_values.map(abs).filter(bool), min_size=size, max_size=size, unique=True
            ).map(sorted)
            levels = [-v for v in reversed(data.draw(side))] + [Fraction(0)] + data.draw(side)
        else:
            levels = sorted(
                data.draw(st.lists(scale_values, min_size=size + 1, max_size=size + 1, unique=True))
            )
        scale = cq.ReferenceScale(tuple(levels), symmetric=symmetric)
        low, high = levels[0], levels[-1]
        hair = Fraction(1, data.draw(st.sampled_from((7, HUGE, HUGE * 3 + 1))))
        edges = [*levels, Fraction(0), low - hair, low + hair, high - hair, high + hair]
        inside = st.fractions(min_value=0, max_value=1, max_denominator=HUGE)
        coordinate = st.one_of(
            st.sampled_from(edges), inside.map(lambda t: low + (high - low) * t)
        )
        for point in ([], data.draw(st.lists(coordinate, min_size=1, max_size=4))):
            assert _located(point, scale, cq.kary._locate_coordinates) == _located(
                point, scale, slow_locate_coordinates
            )
