"""Positional profiles against the label-keyed path they replaced.

Profiles hold one (numerator, denominator) pair, its size and one sort key
per base bit position. The oracle in ``support`` holds the pairs in a label
dict, as the package did before, and sorts, tiles and checks tile hints by
label; points are located against the Fraction comparisons that location
on integer pairs replaced. The two must give the same pairs, order, chain,
weights, value, tile and level indexing, or the same error (class, code,
text and context). The Moebius forms rank the pairs themselves, so a profile whose
stored keys are wrong still gets its reference value from them. Checks
along the covers name the same cover under every hash seed.
"""

import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import choqlat as cq
from choqlat.bipolar import _checked_tile
from choqlat.fileio import parse_bipolar_profile
from choqlat.interpolation import _sort_keys
from choqlat.kary import _locate_coordinates, bipolar_level_profile
from support import (
    mosaic_bases,
    nonincreasing,
    posets,
    random_bipolar_capacity,
    random_capacity,
    random_linear_extension,
    slow_checked_tile,
    slow_evaluation,
    slow_keyed_triangulate,
    slow_locate_coordinates,
    slow_profile_values,
    slow_select_tile,
    tied_values,
    unit_fractions,
    unreduced_texts,
    wedge_poset,
)


def outcome(call, *args):
    """``call(*args)``, or its error as class, code, text and context."""
    try:
        return "ok", call(*args)
    except cq.ChoqlatError as exc:
        return type(exc), exc.code, str(exc), exc.context


@st.composite
def bases(draw, mosaic=False):
    """Random posets (regular mosaics only when ``mosaic``), mixed mosaics
    and small grids, now and then one of eleven or twelve levels: bit
    orders that follow label order and some that do not."""
    kind = draw(st.sampled_from(("random", "mosaic", "grid")))
    if kind == "grid":
        # past ten levels "c1l10" sorts before "c1l2"
        if draw(st.integers(0, 9)) == 9:
            return cq.build_kary_base(*draw(st.sampled_from(((11, 1), (12, 2)))))
        return cq.build_kary_base(draw(st.integers(2, 4)), draw(st.integers(1, 3)))
    if kind == "mosaic":
        return draw(st.sampled_from(mosaic_bases() + ([] if mosaic else [wedge_poset()])))
    drawn = posets(max_elements=6)
    return draw(drawn.filter(cq.is_regular_mosaic) if mosaic else drawn)


# ties and zeros, and unit values
profile_values = st.one_of(tied_values, unit_fractions)


@st.composite
def raw_profiles(draw, base: cq.Poset, signed: bool) -> dict:
    """Values by label, mostly of a nonincreasing shape, signed at random
    when ``signed``, some written as unreduced text, in base order, bit
    order or shuffled; now and then a value out of range, a label missing
    or one too many."""
    raw = {label: draw(profile_values) for label in base.elements}
    if draw(st.integers(0, 3)) < 3:
        raw = nonincreasing(base, raw)
    if signed:
        raw = {label: v if draw(st.booleans()) else -v for label, v in raw.items()}
    if raw and draw(st.integers(0, 9)) == 9:
        outside = st.sampled_from((Fraction(-1, 2), Fraction(3, 2), Fraction(-3, 2)))
        raw[draw(st.sampled_from(sorted(raw)))] = draw(outside)
    values = {
        label: draw(unreduced_texts(v)) if draw(st.booleans()) else v for label, v in raw.items()
    }
    order = draw(st.sampled_from(("base", "bits", "shuffled")))
    labels = list(base._topo if order == "bits" else base.elements)
    if order == "shuffled":
        labels = draw(st.permutations(labels))
    if labels and draw(st.integers(0, 9)) == 9:
        del labels[draw(st.integers(0, len(labels) - 1))]
    values = {label: values[label] for label in labels}
    if draw(st.integers(0, 9)) == 9:
        values["zz"] = 0
    return values


def _keyed(profile) -> dict:
    """A profile's stored pairs by label."""
    return dict(zip(profile.base._topo, profile._pairs))


def _tie_break(data, base: cq.Poset):
    """None, a random linear extension, or any permutation of the labels."""
    kind = data.draw(st.sampled_from(("none", "extension", "any")))
    if kind == "none":
        return None
    rng = random.Random(data.draw(st.integers(0, 2**16)))
    if kind == "extension":
        return random_linear_extension(rng, base)
    return tuple(data.draw(st.permutations(base.elements)))


def _decomposition(base: cq.Poset, order, levels) -> cq.ChainDecomposition:
    """The public record of a slow (order, levels) triangulation."""
    values = [Fraction(n, d) for n, d in levels]
    chain = tuple(frozenset(order[:i]) for i in range(len(order) + 1))
    weights = tuple(a - b for a, b in zip([Fraction(1), *values], [*values, Fraction(0)]))
    return cq.ChainDecomposition(base, order, chain, weights)


def _oracle_sizes(base: cq.Poset, values) -> list:
    """The sizes of the oracle's checked pairs, by base bit position."""
    pairs = slow_profile_values(base, values, signed=True)
    return [(abs(n), d) for n, d in map(pairs.__getitem__, base._topo)]


class TestHeldSizes:
    """Each producer of a signed profile hands over the sizes of its values,
    and the magnitude holds them as they are, copying nothing."""

    @given(data=st.data())
    def test_read_profiles(self, data):
        base = data.draw(bases())
        values = data.draw(raw_profiles(base, signed=True))
        made = outcome(cq.BipolarProfile, base, values)
        if made[0] != "ok":
            return
        for profile in (made[1], parse_bipolar_profile({"values": values}, base)):
            assert profile.magnitude()._pairs is profile._sizes
            assert profile._sizes == _oracle_sizes(base, values)

    @pytest.mark.parametrize("point", [["-1/3", "1/2"], ["0", "-1"], ["0.7", "-0.2"]])
    def test_staircase(self, point):
        scale = cq.ReferenceScale(("-1", "-0.5", "0", "0.5", "1"), symmetric=True)
        _, _, profile = bipolar_level_profile(point, scale)
        assert profile.magnitude()._pairs is profile._sizes
        # the corner sweep reads the residues unreduced; the staircase reduces them
        sizes = [Fraction(n, d) for n, d in profile._sizes]
        assert sizes == [Fraction(n, d) for n, d in _oracle_sizes(profile.base, profile.values)]


class TestPositionalOracle:
    @given(data=st.data())
    def test_unsigned(self, data):
        base = data.draw(bases())
        values = data.draw(raw_profiles(base, signed=False))
        made = outcome(cq.Profile, base, values)
        expected = outcome(slow_profile_values, base, values)
        if made[0] != "ok":
            assert made == expected
            return
        profile = made[1]
        assert _keyed(profile) == expected[1]
        assert list(profile.values.items()) == [
            (label, Fraction(n, d)) for label, (n, d) in expected[1].items()
        ]
        tie_break = _tie_break(data, base)
        made = outcome(cq.triangulate, profile, tie_break)
        slow = outcome(slow_keyed_triangulate, base, expected[1], tie_break)
        if made[0] != "ok":
            assert made == slow
            return
        dec, (order, masks, levels) = made[1], slow[1]
        assert (dec.order, dec._masks, dec._levels) == (order, masks, levels)
        assert dec == _decomposition(base, order, levels)
        rng = random.Random(data.draw(st.integers(0, 2**16)))
        capacity = random_capacity(rng, cq.DownsetLattice(base))
        reference = slow_evaluation(capacity.values, _decomposition(base, order, levels))
        assert cq.Evaluation.along(capacity, dec) == reference

    @given(data=st.data())
    def test_signed(self, data):
        base = data.draw(bases(mosaic=data.draw(st.booleans())))
        values = data.draw(raw_profiles(base, signed=True))
        made = outcome(cq.BipolarProfile, base, values)
        expected = outcome(slow_profile_values, base, values, True)
        if made[0] != "ok":
            assert made == expected
            return
        profile, pairs = made[1], expected[1]
        assert _keyed(profile) == pairs
        sizes = {label: (abs(n), d) for label, (n, d) in pairs.items()}
        magnitude = profile.magnitude()
        assert _keyed(magnitude) == sizes
        assert magnitude._keys == _sort_keys([sizes[label] for label in base._topo])
        tile = outcome(cq.select_tile, profile)
        assert tile == outcome(slow_select_tile, base, pairs)
        if tile[0] != "ok":
            return
        order, _, levels = slow_keyed_triangulate(base, sizes)
        capacity = random_bipolar_capacity(
            random.Random(data.draw(st.integers(0, 2**16))), cq.DownsetLattice(base)
        )
        reference = slow_evaluation(capacity.values, _decomposition(base, order, levels), tile[1])
        assert cq.evaluate_bipolar(capacity, profile) == reference

    @given(data=st.data(), symmetric=st.booleans())
    def test_points(self, data, symmetric):
        k = data.draw(st.integers(2, 4))
        inner = st.lists(unit_fractions.filter(bool), min_size=k - 1, max_size=k - 1, unique=True)
        side = sorted(data.draw(inner))
        below = [-v for v in reversed(side)] if symmetric else []
        levels = [*below, Fraction(0), *side]
        scale = cq.ReferenceScale(levels, symmetric=symmetric)
        low = -1 if symmetric else 0
        coordinate = st.one_of(
            st.sampled_from(levels),
            st.fractions(min_value=low, max_value=1, max_denominator=30),
            st.sampled_from((Fraction(low - 1), Fraction(3, 2))),
        )
        # now and then no coordinate at all
        size = data.draw(st.integers(0, 9)) > 0
        point = data.draw(st.lists(coordinate, min_size=size, max_size=4))
        point = [data.draw(unreduced_texts(v)) if data.draw(st.booleans()) else v for v in point]
        made = outcome(_locate_coordinates, point, scale)
        assert made == outcome(slow_locate_coordinates, point, scale)
        if made[0] == "ok":
            indexing = made[1][1]
            assert indexing.residues == tuple(Fraction(n, d) for n, d in indexing._residues)

    @given(data=st.data())
    def test_tile_hint(self, data):
        """A hint is tested on the masks select_tile reads: two mask tests
        name the fault the label walk named, class, text and context."""
        base = data.draw(bases(mosaic=data.draw(st.booleans())))
        made = outcome(cq.BipolarProfile, base, data.draw(raw_profiles(base, signed=True)))
        if made[0] != "ok":
            return
        parts = cq.connected_components(base)
        hint = frozenset().union(*[part.members for part in parts if data.draw(st.booleans())])
        if base.elements and data.draw(st.integers(0, 4)) == 0:  # not always complemented
            hint = data.draw(st.frozensets(st.sampled_from(base.elements)))
        assert outcome(_checked_tile, made[1], hint) == outcome(slow_checked_tile, made[1], hint)


class TestKeysAreTheChainPathsAlone:
    """Both Moebius forms rank the profile's pairs themselves: corrupting
    the stored sort keys changes the chain path's order, not their value."""

    @pytest.mark.parametrize("seed", range(6))
    def test_corrupted_keys(self, seed):
        rng = random.Random(seed)
        base = rng.choice(mosaic_bases())
        lattice = cq.DownsetLattice(base)
        raw = {label: Fraction(rng.randint(0, 40), 40) for label in base.elements}
        clean = cq.Profile(base, nonincreasing(base, raw))
        capacity = random_capacity(rng, lattice)
        signs = {label: rng.choice((1, -1)) for label in base.elements}
        for component in cq.connected_components(base):
            sign = rng.choice((1, -1))
            signs.update(dict.fromkeys(component.members, sign))
        signed_clean = cq.BipolarProfile(
            base, {label: signs[label] * v for label, v in clean.values.items()}
        )
        bipolar = random_bipolar_capacity(rng, lattice)
        reference = cq.natural_extension(capacity, clean)
        signed_reference = cq.bipolar_natural_extension(bipolar, signed_clean)
        coefficients = cq.moebius_transform(capacity)
        signed_coefficients = cq.bipolar_moebius_transform(lattice, bipolar.values)
        reversed_keys, zero_keys = (lambda keys: keys[::-1]), (lambda keys: [0] * len(keys))
        for corrupt in (reversed_keys, zero_keys, lambda keys: [-k for k in keys]):
            profile = cq.Profile._from_checked(
                base, clean._pairs, corrupt(clean._keys), clean._sizes
            )
            signed = cq.BipolarProfile._from_checked(
                base, signed_clean._pairs, corrupt(signed_clean._keys), signed_clean._sizes
            )
            assert cq.moebius_form_eval(coefficients, profile) == reference
            assert cq.bipolar_moebius_form_eval(signed_coefficients, signed) == signed_reference
            plain = dict(signed_coefficients)
            assert cq.bipolar_moebius_form_eval(plain, signed) == signed_reference

    def test_the_chain_path_reads_the_keys(self):
        base = cq.build_kary_base(3, 2)
        clean = cq.Profile(base, {"c1l1": "0.9", "c1l2": "0.6", "c2l1": "0.8", "c2l2": "0.1"})
        corrupted = cq.Profile._from_checked(base, clean._pairs, clean._keys[::-1], clean._sizes)
        assert cq.triangulate(clean).order == ("c1l1", "c2l1", "c1l2", "c2l2")
        assert cq.triangulate(corrupted).order != cq.triangulate(clean).order


CHILD = """
import choqlat as cq
base = cq.Poset(list("abcdef"), [("a", "b"), ("c", "d"), ("e", "f")])
rising = {"a": "0.1", "b": "0.5", "c": "0.1", "d": "0.5", "e": "0.1", "f": "0.5"}
lattice = cq.DownsetLattice(base)
calls = [
    lambda: cq.Profile(base, rising),
    lambda: cq.BipolarProfile(base, rising),
    lambda: cq.triangulate(cq.Profile(base, dict.fromkeys(base.elements, 0)), "bdface"),
    lambda: cq.psi(lattice, base.elements, {"a": 0, "b": 1, "c": 0, "d": 1, "e": 0, "f": 1}),
]
for call in calls:
    try:
        call()
    except cq.NotNonincreasing as exc:
        print(exc, exc.context)
"""


def test_the_same_cover_is_named_under_every_hash_seed():
    """Checks along the covers read them in label order: the smallest
    failing cover is named whatever order the covers' frozenset hashes to
    (the seeds 0 and 3 named different covers when the checks walked it)."""
    src = os.path.dirname(os.path.dirname(cq.__file__))
    runs = []
    for seed in ("0", "3"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-c", CHILD], env=env, capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0, done.stderr
        runs.append(done.stdout)
    assert runs[0] == runs[1]
    assert runs[0].splitlines() == [
        "profile increases along 'a' < 'b' {'lower': 'a', 'upper': 'b'}",
        "|values| increase along 'a' < 'b' {'lower': 'a', 'upper': 'b'}",
        "tie_break does not refine the base order at 'a' < 'b' {}",
        "|values| increase along 'a' < 'b' {'lower': 'a', 'upper': 'b'}",
    ]
