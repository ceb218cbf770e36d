import io
import itertools
import json
import random
import re
from decimal import Decimal
from fractions import Fraction
from math import gcd
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import choqlat as cq
from choqlat import birkhoff, cli, fileio, kary, moebius, rationals
from support import (
    SLOW_CAPACITY_READERS,
    antichain,
    capacity_files,
    random_bipolar_capacity,
    random_capacity,
    run_bounded,
    slow_as_fraction,
    wedge_poset,
)

MAX_DIGITS, MAX_EXPONENT = rationals.MAX_DIGITS, rationals.MAX_EXPONENT
GRID_KINDS = ("grid capacity", "grid bipolar capacity")
# exits 0 when as_fraction refuses argv[1] with a ValueError
REFUSES = """
import sys, choqlat as cq
try:
    cq.as_fraction(sys.argv[1])
except ValueError:
    pass
else:
    raise SystemExit("read")
"""


def chain_payload(n: int) -> dict:
    """Poset file of an n-element chain, written without building it."""
    labels = [f"x{i}" for i in range(n)]
    return {"elements": labels, "covers": [list(cover) for cover in zip(labels, labels[1:])]}
# characters of p/q and decimal text, and pieces only Fraction or Decimal read
TOKENS = (
    "+", "-", "0", "1", "7", "9", ".", "/", "e", "E", " ", "_", "²", "١", "inf", "nan", "Infinity",
    "sNaN", "Inf", "５", "__", "_1",
)
DIGITS = st.text("0123456789", max_size=5)


@st.composite
def number_texts(draw):
    """Plain-shaped strings at the grammar's and the guards' edges, some
    with one stray token put in."""
    whole = draw(
        st.one_of(DIGITS, st.integers(MAX_DIGITS - 2, MAX_DIGITS + 1).map(lambda size: "1" * size))
    )
    if draw(st.booleans()):
        body = f"{whole}/{draw(DIGITS)}"
    else:
        body = whole + draw(st.sampled_from(("", "."))) + draw(DIGITS)
        if draw(st.booleans()):
            exponent = draw(
                st.one_of(
                    st.integers(-12, 12),
                    st.sampled_from((MAX_EXPONENT - 1, MAX_EXPONENT, MAX_EXPONENT + 1)),
                )
            )
            sign = draw(st.sampled_from(("", "+", "-")))
            body += draw(st.sampled_from(("e", "E"))) + sign + str(exponent)
    pad = st.sampled_from(("", " ", "\t\n"))
    text = draw(pad) + draw(st.sampled_from(("", "+", "-"))) + body + draw(pad)
    if draw(st.booleans()):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(TOKENS)) + text[at:]
    return text


def _outcome(parse, raw):
    try:
        value = parse(raw)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)
    return type(value), value


def _value_outcome(parse, raw):
    """The value ``parse`` reads from ``raw``, or its exception class and text."""
    try:
        return "value", parse(raw)
    except (TypeError, ValueError, OverflowError) as exc:
        return type(exc), str(exc)


def _read_ratio(raw) -> Fraction:
    numerator, denominator = rationals._ratio(raw)
    assert type(numerator) is int and type(denominator) is int and denominator > 0
    return Fraction(numerator, denominator)


# plain text: ASCII p/q or decimal digits, with no underscore, inner space
# or non-finite word, whose value int alone reads from its digits
PLAIN = re.compile(
    r"(?P<sign>[+-]?)(?:(?P<p>\d+)/(?P<q>\d+)"
    r"|(?=\.?\d)(?P<whole>\d*)(?:\.(?P<fraction>\d*))?(?:[eE](?P<exponent>[+-]?\d+))?)",
    re.ASCII,
)


def _integer_pair(match: re.Match) -> tuple[int, int]:
    """The lowest-terms pair of a ``PLAIN`` match, made with int alone."""
    if match["q"] is not None:
        numerator, denominator = int(match["p"]), int(match["q"])
    else:
        fraction = match["fraction"] or ""
        exponent = int(match["exponent"] or 0) - len(fraction)
        numerator = int(match["whole"] + fraction) * 10 ** max(exponent, 0)
        denominator = 10 ** max(-exponent, 0)
    if match["sign"] == "-":
        numerator = -numerator
    common = gcd(numerator, denominator)
    return numerator // common, denominator // common


class TestValueParsing:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("3/10", Fraction(3, 10)),
            ("0.3", Fraction(3, 10)),
            (0.3, Fraction(3, 10)),
            ("3e-2", Fraction(3, 100)),
            (-2, Fraction(-2)),
            ("-1/2", Fraction(-1, 2)),
        ],
    )
    def test_accepted_forms(self, raw, expected):
        assert cq.as_fraction(raw) == expected

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            cq.as_fraction("three tenths")
        with pytest.raises(TypeError):
            cq.as_fraction(None)
        with pytest.raises(ValueError):
            cq.as_fraction("1/0")

    @pytest.mark.parametrize(
        "raw", ["inf", "-inf", "Infinity", "nan", "sNaN", "1e-9999999", "1e-99999999999", "1E+1001"]
    )
    def test_rejects_non_finite_and_huge_exponents(self, raw, tmp_path):
        """Read in a child under a wall bound, so that a reader which lost its
        exponent bound fails here instead of stalling the suite."""
        done = run_bounded(("-c", REFUSES, raw), tmp_path, 10, 500000)
        assert done.returncode == 0, done.stderr

    @pytest.mark.parametrize(
        "raw", [float("inf"), float("-inf"), float("nan"), Decimal("Infinity"), Decimal("-Infinity"),
                Decimal("NaN"), Decimal("sNaN")]
    )
    def test_non_finite_floats_and_decimals_read_as_strings_do(self, raw):
        """A float or Decimal that is not finite fails as a string that is
        not finite does: a ``ValueError`` with the same wording."""
        for read in (cq.as_fraction, rationals._ratio):
            with pytest.raises(ValueError) as info:
                read(raw)
            assert str(info.value) == f"{raw!r} is not a finite number"

    def test_rejects_overlong_strings(self):
        digits = "1" * rationals.MAX_DIGITS
        assert cq.as_fraction(digits) == int(digits)
        with pytest.raises(ValueError):
            cq.as_fraction(digits + "1")

    def test_exponent_bound_is_inclusive(self):
        bound = rationals.MAX_EXPONENT
        assert cq.as_fraction(f"1e{bound}") == 10**bound
        assert cq.as_fraction(f"2.5E-{bound}") == Fraction(25, 10 ** (bound + 1))
        assert cq.as_fraction(f"1e_{bound}") == 10**bound

    @pytest.mark.parametrize("raw", ["1e_2000", "1e+_2000", "1e-_2000", "1e2000_", "1E_-2_000"])
    def test_underscored_exponents_are_bounded(self, raw):
        """``Decimal`` reads an exponent with its underscores dropped, where
        ``int`` refuses a leading or trailing one; the bound reads it as
        ``Decimal`` does."""
        for read in (cq.as_fraction, rationals._ratio):
            with pytest.raises(ValueError, match="^exponent beyond 1000 in "):
                read(raw)


class TestParserOracle:
    """``as_fraction`` and the pair reader ``_ratio`` under it against the
    Fraction-regex parser they replaced: the same Fraction (from the pair,
    for ``_ratio``), or the same exception class and text."""

    @given(st.one_of(number_texts(), st.lists(st.sampled_from(TOKENS), max_size=10).map("".join)))
    def test_strings(self, raw):
        assert _outcome(cq.as_fraction, raw) == _outcome(slow_as_fraction, raw)

    @given(st.one_of(number_texts(), st.lists(st.sampled_from(TOKENS), max_size=10).map("".join)))
    def test_strings_to_pairs(self, raw):
        assert _value_outcome(_read_ratio, raw) == _value_outcome(slow_as_fraction, raw)

    @pytest.mark.parametrize(
        "raw",
        [
            ".", "e5", "1e", "+.5e-3", "5.", "-0", " 3/4 ", "3 / 4", "", "  ", "-", "+-1",
            "1/0", "0/0", "-7/0", "1_000", "1.5/2", "1/2e3", "1e5.0", "5.e3", ".e3", "²", "1١",
            "١/2", "Inf", "-nan", "1e1001", "1E-1000", "0x10", "1/", "/2", "1/+2", "1/-2",
            "1/ 2", "1 /2", "1e+-5", "1e--5", "1e 5", "- 1", "1.2.3", "1/2/3",
            "3/4", "-3/4", "1E+9", "١", "inf",
            # the unstripped reads' edges: exponent texts at and past the
            # checked width, p/q texts at the int branch's guards, lengths at
            # MAX_DIGITS, padding that strip and Decimal drop alike and that
            # int refuses ("\x1c"), and padding past MAX_DIGITS
            "1e999", "1e-999", "1e+99", "1e+999", "1e1000", "1e_99", "1e9_9",
            "+3/4", "-0/7", "+/4", "03/04", "1/٢", "3/²", "²/3", "1e5/3", "sNaN",
            "1/" + "7" * (MAX_DIGITS - 2), "1/" + "7" * (MAX_DIGITS - 1),
            "0." + "5" * (MAX_DIGITS - 2), "0." + "5" * (MAX_DIGITS - 1),
            "\xa00.35\xa0", "\x1c7/12\x1c", "\u300035e-2\u3000", "\xa01e999", "1/2\u3000",
            "1/3e1001\x1c", "\x1c1e1001\x1c", " " * MAX_DIGITS + "1/2",
            "\xa0" + "1" * MAX_DIGITS + "\xa0",
        ],
    )
    def test_pinned_strings(self, raw):
        assert _outcome(cq.as_fraction, raw) == _outcome(slow_as_fraction, raw)
        assert _value_outcome(_read_ratio, raw) == _value_outcome(slow_as_fraction, raw)

    @pytest.mark.parametrize(
        "raw,pair", [("7/12", (7, 12)), ("-1/2", (-1, 2)), ("0.35", (7, 20)), ("35e-2", (7, 20))]
    )
    def test_common_forms_take_the_fast_path(self, raw, pair, monkeypatch):
        """The profile and point texts the benchmark scores go straight to
        their parser: not stripped (``Fraction`` reads only stripped text)
        and no exponent check."""

        class Unstripped(str):
            def strip(self, chars=None):
                raise AssertionError(f"{raw!r} was stripped")

        def checked(*args):
            raise AssertionError(f"{raw!r} had its exponent checked")

        monkeypatch.setattr(rationals, "_check_exponent", checked)
        assert rationals._ratio(raw) == rationals._ratio(Unstripped(raw)) == pair

    class Text(str):
        pass

    class Whole(int):
        pass

    class Exact(Fraction):
        pass

    @pytest.mark.parametrize(
        "raw",
        [True, False, 0, -3, Whole(4), Text("0.25"), Exact(1, 3), Fraction(-2, 7),
         Decimal("0.1"), Decimal("NaN"), 0.3, -1e-7, None, [], b"1"],
    )
    def test_other_types(self, raw):
        assert _outcome(cq.as_fraction, raw) == _outcome(slow_as_fraction, raw)

    @pytest.mark.parametrize(
        "raw",
        [True, False, 0, -3, Whole(4), Text("0.25"), Text("2/4"), Exact(1, 3), Fraction(-2, 7),
         Decimal("0.1"), Decimal("1.50"), Decimal("NaN"), Decimal("-Infinity"), 0.3, -1e-7,
         -0.0, 1e400, float("nan"), None, [], b"1"],
    )
    def test_other_types_to_pairs(self, raw):
        assert _value_outcome(_read_ratio, raw) == _value_outcome(slow_as_fraction, raw)

    @pytest.mark.parametrize(
        "raw,pair",
        [
            ("2/4", (1, 2)), ("0.50", (1, 2)), ("50e-2", (1, 2)), ("5E+1", (50, 1)),
            ("-0/7", (0, 1)), ("+0.0", (0, 1)), (" -.250 ", (-1, 4)), ("007", (7, 1)),
            (Fraction(2, 4), (1, 2)), (Decimal("0.50"), (1, 2)), (0.5, (1, 2)), (-0.0, (0, 1)),
            ("-6/4", (-3, 2)), ("٢/٤", (1, 2)),
        ],
    )
    def test_plain_strings_keep_their_integers(self, raw, pair):
        """A string keeps its integers only up to their common factor: every
        value, a plain string included, gives the pair of its Fraction, in
        lowest terms."""
        assert rationals._ratio(raw) == pair

    @given(
        st.one_of(
            number_texts(),
            st.lists(st.sampled_from(TOKENS), max_size=10).map("".join),
            st.fractions(),
            st.integers(),
            st.floats(),
        )
    )
    def test_pairs_are_in_lowest_terms(self, raw):
        try:
            numerator, denominator = rationals._ratio(raw)
        except ValueError:
            return
        assert gcd(numerator, denominator) == 1 and denominator > 0

    @pytest.mark.parametrize(
        "raw,plain",
        [
            ("3/4", True), ("-3/4", True), ("+.5e-3", True), ("5.", True), ("1E+9", True),
            ("3 / 4", False), ("1_000", False), ("١", False), ("inf", False), (".", False),
        ],
    )
    def test_which_strings_read_on_integers(self, raw, plain):
        """Plain text reads to the pair int makes of its digits; any other
        string is read, or refused, as Fraction and Decimal read it."""
        match = PLAIN.fullmatch(raw)
        assert (match is not None) is plain
        if plain:
            assert rationals._ratio(raw) == _integer_pair(match)
        else:
            assert _value_outcome(_read_ratio, raw) == _value_outcome(slow_as_fraction, raw)


class TestPosetFiles:
    def test_round_trip(self):
        p = wedge_poset()
        assert fileio.parse_poset(fileio.poset_payload(p)) == p

    def test_payload_shape(self):
        payload = fileio.poset_payload(wedge_poset())
        assert payload == {
            "elements": ["a", "b", "c"],
            "covers": [["a", "b"], ["c", "b"]],
        }

    def test_missing_key(self):
        with pytest.raises(cq.FileFormatError):
            fileio.parse_poset({"elements": ["a"]})

    def test_bad_cover_entry(self):
        with pytest.raises(cq.FileFormatError):
            fileio.parse_poset({"elements": ["a"], "covers": [["a"]]})

    def test_element_budget(self, monkeypatch):
        """A chain of GRID_ELEMENT_CAP elements still parses; a longer
        element list is refused before any Poset is built."""
        cap = fileio.GRID_ELEMENT_CAP
        assert len(fileio.parse_poset(chain_payload(cap)).elements) == cap

        def no_poset(*args):
            raise AssertionError("a Poset was built")

        monkeypatch.setattr(fileio, "Poset", no_poset)
        for n in (cap + 1, 8000):
            with pytest.raises(cq.SizeLimitExceeded) as info:
                fileio.parse_poset(chain_payload(n))
            assert str(info.value) == f"poset has {n} elements, over the cap {cap}"
            assert info.value.context == {"cap": cap}
            with pytest.raises(cq.SizeLimitExceeded):
                fileio.parse_lattice({**chain_payload(n), "role": "join_irreducibles"})


class TestLatticeFiles:
    def test_default_role_is_base(self):
        lattice, eta = fileio.parse_lattice(fileio.poset_payload(wedge_poset()))
        assert eta is None
        assert lattice.base == wedge_poset()

    def test_explicit_role_converts(self):
        payload = fileio.poset_payload(
            cq.Poset(
                ["bot", "a", "c", "ac", "top"],
                [("bot", "a"), ("bot", "c"), ("a", "ac"), ("c", "ac"), ("ac", "top")],
            )
        )
        payload["role"] = "explicit_lattice"
        lattice, eta = fileio.parse_lattice(payload)
        assert set(lattice.base.elements) == {"a", "c", "top"}
        assert eta["ac"] == ["a", "c"]

    def test_unknown_role(self):
        payload = fileio.poset_payload(wedge_poset())
        payload["role"] = "mystery"
        with pytest.raises(cq.FileFormatError):
            fileio.parse_lattice(payload)


class TestCapacityFiles:
    def test_round_trip(self):
        rng = random.Random(1)
        lattice = cq.DownsetLattice(wedge_poset())
        capacity = random_capacity(rng, lattice)
        parsed = fileio.parse_capacity(fileio.capacity_payload(capacity))
        assert parsed.values == capacity.values
        assert parsed.lattice == capacity.lattice

    def test_agreeing_duplicates_tolerated(self):
        payload = {
            "lattice": fileio.poset_payload(antichain(1)),
            "values": [
                {"downset": [], "value": "0"},
                {"downset": ["1"], "value": "1/2"},
                {"downset": ["1"], "value": "0.5"},
            ],
        }
        assert fileio.parse_capacity(payload).values[frozenset({"1"})] == Fraction(1, 2)

    def test_contradiction_rejected(self):
        payload = {
            "lattice": fileio.poset_payload(antichain(1)),
            "values": [
                {"downset": [], "value": "0"},
                {"downset": ["1"], "value": "1/2"},
                {"downset": ["1"], "value": "1/3"},
            ],
        }
        with pytest.raises(cq.ContradictoryValue):
            fileio.parse_capacity(payload)

    def test_bad_value_string(self):
        payload = {
            "lattice": fileio.poset_payload(antichain(1)),
            "values": [{"downset": [], "value": "zero"}],
        }
        with pytest.raises(cq.FileFormatError):
            fileio.parse_capacity(payload)


class TestProfileFiles:
    def test_round_trip(self):
        base = wedge_poset()
        profile = cq.Profile(base, {"a": "0.5", "b": "0.25", "c": "0.5"})
        parsed = fileio.parse_profile(fileio.profile_payload(profile), base)
        assert parsed.values == profile.values

    def test_signed_round_trip(self):
        base = antichain(2)
        profile = cq.BipolarProfile(base, {"1": "-0.5", "2": "0.25"})
        parsed = fileio.parse_bipolar_profile(
            fileio.profile_payload(profile), base
        )
        assert parsed.values == profile.values


class TestBipolarCapacityFiles:
    def test_round_trip(self):
        rng = random.Random(2)
        lattice = cq.DownsetLattice(antichain(2))
        capacity = random_bipolar_capacity(rng, lattice)
        parsed = fileio.parse_bipolar_capacity(
            fileio.bipolar_capacity_payload(capacity)
        )
        assert parsed.values == capacity.values

    def test_contradiction_rejected(self):
        lattice = cq.DownsetLattice(antichain(1))
        capacity = cq.BipolarCapacity(
            lattice, {p: 0 for p in cq.admissible_vertex_pairs(lattice)}
        )
        payload = fileio.bipolar_capacity_payload(capacity)
        payload["values"].append({"pos": ["1"], "neg": [], "value": "7"})
        with pytest.raises(cq.ContradictoryValue):
            fileio.parse_bipolar_capacity(payload)


class TestShortLabelFiles:
    """A capacity file keyed by label sets needs an entry for each lattice
    element (a signed one at each (A, {})): the base's downsets are counted
    up to the entries, so a short file is refused before its lattice is
    enumerated, and a full one enumerates it once."""

    @pytest.mark.parametrize(
        "signed, entry",
        [
            (False, {"downset": []}),
            (False, {"downset": ["zz"]}),
            (True, {"pos": [], "neg": []}),
            (True, {"pos": ["1"], "neg": ["1"]}),
        ],
        ids=["unsigned", "unsigned_bad_key", "signed", "signed_overlapping_pair"],
    )
    def test_short_file_refused_before_its_lattice(self, monkeypatch, signed, entry):
        # 17 atoms: 2**17 elements; a bad key is reported only after the count
        bounds = count_only(monkeypatch)
        payload = {
            "lattice": fileio.poset_payload(antichain(17)),
            "values": [{**entry, "value": "0"}],
        }
        parse = fileio.parse_bipolar_capacity if signed else fileio.parse_capacity
        with pytest.raises(cq.BaseMismatch, match="^only 1 entries for a larger lattice$"):
            parse(payload)
        assert bounds == [1]  # counted up to the one entry, never enumerated

    @pytest.mark.parametrize("signed", [False, True])
    @pytest.mark.parametrize("role", ["join_irreducibles", "explicit_lattice"])
    def test_full_file_enumerates_its_lattice_once(self, monkeypatch, signed, role):
        rng = random.Random(3)
        lattice = cq.DownsetLattice(wedge_poset())
        header = fileio.poset_payload(lattice.base)
        if role == "explicit_lattice":  # counted once, by the distributivity check
            explicit = cq.explicit_poset(lattice)
            lattice = cq.verify_distributive(explicit).lattice
            header = {**fileio.poset_payload(explicit), "role": role}
        if signed:
            capacity = random_bipolar_capacity(rng, lattice)
            payload = fileio.bipolar_capacity_payload(capacity)
        else:
            capacity = random_capacity(rng, lattice)
            payload = fileio.capacity_payload(capacity)
        calls = []
        count = birkhoff._downsets
        monkeypatch.setattr(
            birkhoff, "_downsets", lambda *a, count=count, **k: calls.append(a) or count(*a, **k)
        )
        parse = fileio.parse_bipolar_capacity if signed else fileio.parse_capacity
        parsed = parse({**payload, "lattice": header})
        assert parsed.values == capacity.values
        assert len(calls) == 1

class TestLabelFilesOnCodes:
    """A label-format file is keyed by vertex codes, as a grid file is: it
    goes from file to score, with or without the Moebius form of
    ``--cross-check``, with no label view built (no family's ``positions``
    or ``vertices``, no lattice's ``elements``); what reads labels builds
    the view on demand and reads what a label-keyed capacity reads."""

    # a fan under "a" and a chain "d" < "e": a regular mosaic of two components
    BASE = cq.Poset(["a", "b", "c", "d", "e"], [("a", "b"), ("a", "c"), ("d", "e")])
    PROFILE = {"a": "9/10", "b": "1/2", "c": "3/10", "d": "7/10", "e": "1/5"}
    SIGNED = {**PROFILE, "d": "-7/10", "e": "-1/5"}

    @staticmethod
    def view_built(capacity) -> bool:
        families = [f for f in capacity.lattice._derived.values() if type(f) is birkhoff._Family]
        assert capacity._family in families
        held = {name for f in families for name in vars(f)} | set(vars(capacity.lattice))
        return bool(held & {"positions", "vertices", "elements"})

    def capacities(self):
        rng = random.Random(30)
        unsigned = random_capacity(rng, cq.DownsetLattice(self.BASE))
        signed = random_bipolar_capacity(rng, cq.DownsetLattice(self.BASE))
        return {
            unsigned: lambda: fileio.parse_capacity(fileio.capacity_payload(unsigned)),
            signed: lambda: fileio.parse_bipolar_capacity(fileio.bipolar_capacity_payload(signed)),
        }

    def test_scored_on_codes_and_the_label_view_built_on_demand(self):
        (unsigned, parse), (signed, parse_signed) = self.capacities().items()
        scores = [
            lambda c: cq.natural_extension(c, cq.Profile(c.lattice.base, self.PROFILE)),
            lambda c: cq.moebius_form_eval(
                cq.moebius_transform(c), cq.Profile(c.lattice.base, self.PROFILE)
            ),
        ]
        signed_scores = [
            lambda c: cq.evaluate_bipolar(c, cq.BipolarProfile(c.base, self.SIGNED)).value,
            lambda c: cq.bipolar_moebius_form_eval(
                cq.bipolar_moebius_transform(c.lattice, c.values),
                cq.BipolarProfile(c.base, self.SIGNED),
            ),
        ]
        for labelled, read, calls in ((unsigned, parse, scores), (signed, parse_signed, signed_scores)):
            parsed = read()
            assert [score(parsed) for score in calls] == [score(labelled) for score in calls]
            assert parsed.values._integers == labelled.values._integers
            assert not self.view_built(parsed)
        element = unsigned.lattice.elements[len(unsigned.lattice) // 2]
        pair = next(p for p in signed.values if p.pos and p.neg)
        reads = [
            (unsigned, parse, lambda c: c.values[element]),
            (unsigned, parse, lambda c: list(c.values.items())),
            (unsigned, parse, lambda c: list(cq.moebius_transform(c).values.items())),
            (signed, parse_signed, lambda c: c.values[pair]),
            (signed, parse_signed, lambda c: list(c.values.items())),
            (
                signed,
                parse_signed,
                lambda c: list(cq.bipolar_moebius_transform(c.lattice, c.values).items()),
            ),
        ]
        for labelled, read, reading in reads:
            parsed = read()
            assert reading(parsed) == reading(labelled)
            assert self.view_built(parsed)

    @pytest.mark.parametrize(
        "bad",
        [
            {"downset": ["b"]},
            {"downset": ["zz"]},
            {"pos": ["a"], "neg": ["c"]},
            {"pos": ["c"], "neg": ["a"]},
            {"pos": ["a"], "neg": ["a"]},
            {"pos": ["zz"], "neg": ["c"]},
        ],
        ids=["not_a_downset", "unknown", "no_tile", "no_tile_reversed", "overlap", "pos_unknown"],
    )
    def test_a_key_no_vertex_is_refused_as_its_labels(self, bad):
        """A file's key that its vertex family does not hold, read back from
        its code to its labels (or kept as labels), fails as the same key
        given as label sets to the capacity: class, text and context."""
        lattice = cq.DownsetLattice(wedge_poset())  # two bottoms: some pairs lie in no tile
        if "downset" in bad:
            capacity, parse = cq.GeneralizedCapacity, fileio.parse_capacity
            rows = fileio.capacity_payload(capacity(lattice, dict.fromkeys(lattice.elements, 0)))
            key = frozenset(bad["downset"])
        else:
            capacity, parse = cq.BipolarCapacity, fileio.parse_bipolar_capacity
            pairs = cq.admissible_vertex_pairs(lattice)
            rows = fileio.bipolar_capacity_payload(capacity(lattice, dict.fromkeys(pairs, 0)))
            key = (frozenset(bad["pos"]), frozenset(bad["neg"]))
        with pytest.raises(cq.ChoqlatError) as expected:
            capacity(lattice, {key: 0})
        for at in (0, len(rows["values"])):
            payload = {**rows, "values": list(rows["values"])}
            payload["values"].insert(at, {**bad, "value": "0"})
            with pytest.raises(cq.ChoqlatError) as info:
                parse(payload)
            assert type(info.value) is type(expected.value)
            assert (str(info.value), info.value.context) == (
                str(expected.value),
                expected.value.context,
            )

    def test_cli_scores_without_the_label_view(self, monkeypatch, tmp_path, capsys):
        """``choquet eval`` and ``bipolar eval``, with and without
        ``--cross-check``, build no label set of the lattice; ``mobius``
        output does."""
        (unsigned, _), (signed, _) = self.capacities().items()
        files = {}
        for name, payload in [
            ("capacity", fileio.capacity_payload(unsigned)),
            ("signed", fileio.bipolar_capacity_payload(signed)),
            ("profile", {"values": self.PROFILE}),
            ("signed-profile", {"values": self.SIGNED}),
        ]:
            files[name] = tmp_path / f"{name}.json"
            files[name].write_text(json.dumps(payload))
        built, label_sets = [], birkhoff._label_sets
        monkeypatch.setattr(
            birkhoff, "_label_sets", lambda *a: built.append(a) or label_sets(*a)
        )
        runs = [
            (["choquet", "eval", "--capacity", files["capacity"], "--profile", files["profile"]], False),
            (
                ["bipolar", "eval", "--capacity", files["signed"], "--profile", files["signed-profile"]],
                False,
            ),
            (["mobius", "--capacity", files["capacity"]], True),
            (["mobius", "--bipolar-capacity", files["signed"]], True),
        ]
        for argv, view in runs:
            for check in ([], ["--cross-check"]) if not view else ([],):
                built.clear()
                assert cli.main([*map(str, argv), *check]) == 0
                out = json.loads(capsys.readouterr().out)
                assert out.get("cross_check", {"agrees": True})["agrees"] is True
                assert bool(built) is view

    def test_loader_keeps_one_object_per_label(self):
        """``load_json`` reads what ``json.load`` reads, number literals as
        ``Fraction``s, with every string of a list of strings one object
        per text; other lists are left as they are."""
        text = '{"lattice": {"elements": ["ab", "cd"]}, "values": [{"downset": ["cd", "ab"], ' \
               '"value": 0.5}, {"downset": ["ab"], "node": [1, "ab"], "value": "ab"}]}'
        obj = fileio.load_json(io.StringIO(text))
        assert obj == json.loads(text, parse_float=Fraction)
        a, b = obj["lattice"]["elements"]
        first, second = obj["values"]
        assert first["downset"][0] is b and first["downset"][1] is a and second["downset"][0] is a
        assert second["node"][1] is not a
        with pytest.raises(ValueError, match="^NaN is not a finite number$"):
            fileio.load_json(io.StringIO('{"values": [NaN]}'))


class TestGridFiles:
    def test_round_trip(self):
        rng = random.Random(3)
        lattice = cq.DownsetLattice(cq.build_kary_base(3, 2))
        capacity = random_capacity(rng, lattice)
        k, n, parsed = fileio.parse_kary_capacity(fileio.kary_capacity_payload(capacity))
        assert (k, n) == (3, 2)
        assert parsed.values == capacity.values

    def test_signed_round_trip(self):
        rng = random.Random(4)
        lattice = cq.DownsetLattice(cq.build_kary_base(3, 2))
        capacity = random_bipolar_capacity(rng, lattice)
        k, n, parsed = fileio.parse_bipolar_kary_capacity(
            fileio.bipolar_kary_capacity_payload(capacity)
        )
        assert (k, n) == (3, 2)
        assert parsed.values == capacity.values

    def test_node_length_checked(self):
        payload = {"k": 3, "n": 2, "values": [{"node": [1], "value": "0"}]}
        with pytest.raises(cq.FileFormatError):
            fileio.parse_kary_capacity(payload)

    @pytest.mark.parametrize(
        "payload",
        [
            {"k": True, "n": 2, "values": [{"node": [0, 0], "value": "0"}]},
            {"k": 3, "n": True, "values": [{"node": [0], "value": "0"}]},
        ],
    )
    def test_boolean_header_rejected(self, payload):
        with pytest.raises(cq.FileFormatError):
            fileio.parse_kary_capacity(payload)
        with pytest.raises(cq.FileFormatError):
            fileio.parse_bipolar_kary_capacity(payload)

    def test_boolean_node_rejected(self):
        payload = {"k": 3, "n": 2, "values": [{"node": [True, 0], "value": "0"}]}
        with pytest.raises(cq.FileFormatError):
            fileio.parse_kary_capacity(payload)

    @pytest.mark.parametrize(
        "k,n",
        [
            (fileio.GRID_ELEMENT_CAP + 2, 1),
            (200000, 1),
            (2, 10**30),
            (3, 13),
            (1001, 2),
        ],
    )
    def test_header_over_budget_rejected(self, k, n):
        """The base's (k-1)*n elements are checked first, then the k**n
        nodes; each refusal names its count and its cap, whole."""
        if (k - 1) * n > fileio.GRID_ELEMENT_CAP:
            cap = fileio.GRID_ELEMENT_CAP
            message = f"grid base has (k-1)*n = {(k - 1) * n} elements, over the cap {cap}"
        else:
            cap = fileio.DOWNSET_CAP
            message = f"grid lattice has {k}**{n} nodes, over the cap {cap}"
        payload = {"k": k, "n": n, "values": []}
        for parse in (fileio.parse_kary_capacity, fileio.parse_bipolar_kary_capacity):
            with pytest.raises(cq.SizeLimitExceeded) as refused:
                parse(payload)
            assert str(refused.value) == message
            assert refused.value.context == {"cap": cap}

    def test_largest_headers_in_use_still_parse(self):
        grid = cq.DownsetLattice(cq.build_kary_base(6, 5))
        zero = cq.GeneralizedCapacity(grid, {x: 0 for x in grid.elements})
        k, n, parsed = fileio.parse_kary_capacity(fileio.kary_capacity_payload(zero))
        assert (k, n, len(parsed.values)) == (6, 5, 7776)
        signed = cq.DownsetLattice(cq.build_kary_base(4, 4))
        pairs = cq.admissible_vertex_pairs(signed)
        payload = fileio.bipolar_kary_capacity_payload(
            cq.BipolarCapacity(signed, {pair: 0 for pair in pairs})
        )
        k, n, parsed = fileio.parse_bipolar_kary_capacity(payload)
        assert (k, n, len(parsed.values)) == (4, 4, 2401)
        longest = fileio.GRID_ELEMENT_CAP + 1
        entries = [{"node": [i], "value": "0"} for i in range(longest)]
        k, n, _ = fileio.parse_kary_capacity({"k": longest, "n": 1, "values": entries})
        assert (k, n) == (longest, 1)


def grid_rows(rng: random.Random, k: int, n: int, signed: bool) -> list[dict]:
    """Every entry of a random grid file, shuffled, a few given twice."""
    nodes = list(itertools.product(range(k), repeat=n))
    value = lambda: f"{rng.randint(-20, 20)}/{rng.randint(1, 9)}"
    if signed:
        rows = [
            {"pos": list(a), "neg": list(b), "value": value()}
            for a in nodes
            for b in nodes
            if not any(x and y for x, y in zip(a, b))
        ]
    else:
        rows = [{"node": list(a), "value": value()} for a in nodes]
    rows += rng.sample(rows, min(3, len(rows)))
    rng.shuffle(rows)
    return rows


def refuse_enumeration(*args, **kwargs):
    raise AssertionError("a vertex family was enumerated")


def refuse_fraction(*args, **kwargs):
    raise AssertionError("a file value was made a Fraction")


def count_only(monkeypatch) -> list:
    """Let ``birkhoff._downsets`` count a family up to a bound and refuse an
    enumeration; the bounds it was given are returned, appended as it runs."""
    bounds, count = [], birkhoff._downsets

    def counted(base, max_count=None):
        if max_count is None:
            refuse_enumeration()
        bounds.append(max_count)
        return count(base, max_count)

    monkeypatch.setattr(birkhoff, "_downsets", counted)
    return bounds


class TestGridReader:
    """Grid files are read as the grid's prefix codes, checked against the
    label path (``node_to_downset``), and refused before any vertex is
    enumerated when an entry is bad or the file is short."""

    @pytest.mark.parametrize("signed", [False, True])
    def test_matches_label_keys(self, signed):
        rng = random.Random(23 + signed)
        parse = fileio.parse_bipolar_kary_capacity if signed else fileio.parse_kary_capacity
        for _ in range(25):
            k, n = rng.randint(2, 5), rng.randint(1, 3)
            rows = grid_rows(rng, k, n, signed)
            label = lambda node: cq.node_to_downset(node, k)
            lattice = cq.DownsetLattice(cq.build_kary_base(k, n))
            if signed:
                pair = lambda r: cq.BipolarElement(label(r["pos"]), label(r["neg"]))
                keyed = {pair(r): r["value"] for r in rows}
                expected = cq.BipolarCapacity(lattice, keyed)
            else:
                expected = cq.GeneralizedCapacity(
                    lattice, {label(r["node"]): r["value"] for r in rows}
                )
            got_k, got_n, parsed = parse({"k": k, "n": n, "values": rows})
            assert (got_k, got_n) == (k, n)
            assert parsed.values == expected.values

    @pytest.mark.parametrize("signed", [False, True])
    def test_entries_keyed_by_codes_and_read_to_pairs(self, monkeypatch, signed):
        k, n = (4, 4) if signed else (6, 5)
        lattice = cq.DownsetLattice(cq.build_kary_base(k, n))
        if signed:
            pairs = cq.admissible_vertex_pairs(lattice)
            zero = cq.BipolarCapacity(lattice, dict.fromkeys(pairs, 0))
            payload = fileio.bipolar_kary_capacity_payload(zero)
        else:
            zero = cq.GeneralizedCapacity(lattice, dict.fromkeys(lattice.elements, 0))
            payload = fileio.kary_capacity_payload(zero)
        payload["values"][-1]["value"] = "-6/4"
        labels, tables = [], []
        level_label, vertex_table = kary.level_label, moebius.vertex_table
        monkeypatch.setattr(kary, "level_label", lambda *a: labels.append(a) or level_label(*a))
        monkeypatch.setattr(
            moebius, "vertex_table", lambda *a: tables.append(a[1]) or vertex_table(*a)
        )
        monkeypatch.setattr(fileio, "Fraction", refuse_fraction)
        parse = fileio.parse_bipolar_kary_capacity if signed else fileio.parse_kary_capacity
        _, _, parsed = parse(payload)
        # labels are made for the base alone, never per entry
        assert len(labels) <= 10 * (k - 1) * n < len(payload["values"])
        (entries,) = tables
        assert type(entries) is moebius.FileTable
        # one vertex code per entry, code(neg) << |base| | code(pos) when signed
        assert sorted(entries) == sorted(parsed._family.codes)
        *zeros, last = entries.values()
        assert set(zeros) == {(0, 1)} and last == (-3, 2)
        assert parsed.values._integers == ([0] * (len(zeros)) + [-3], 2)

    def test_grid_files_score_on_codes_and_build_the_label_view_on_demand(self):
        """A grid file and a signed grid file go from file to score on codes
        alone: after a profile, a signed profile, a point and a signed point
        are scored, and the Moebius form of each capacity's transform is
        taken (the dual path of ``--cross-check``), no vertex family holds
        its label view (``positions``, ``vertices``) and no lattice its
        ``elements``. Label reads,
        iteration, ``capacity(x)`` and the payload writers build the view
        on demand (``len`` does not), and every read gives the ``Fraction``s
        of a capacity built from a label-keyed table."""
        rng = random.Random(27)
        k, n = 3, 3
        unsigned = random_capacity(rng, cq.DownsetLattice(cq.build_kary_base(k, n)))
        signed = random_bipolar_capacity(rng, cq.DownsetLattice(cq.build_kary_base(k, n)))
        files = {
            unsigned: (fileio.parse_kary_capacity, fileio.kary_capacity_payload(unsigned)),
            signed: (fileio.parse_bipolar_kary_capacity, fileio.bipolar_kary_capacity_payload(signed)),
        }
        parse = lambda labelled: files[labelled][0](files[labelled][1])[2]

        def view_built(capacity) -> bool:
            families = [f for f in capacity.lattice._derived.values() if type(f) is birkhoff._Family]
            assert capacity._family in families
            held = {name for f in families for name in vars(f)} | set(vars(capacity.lattice))
            return bool(held & {"positions", "vertices", "elements"})

        base = unsigned.lattice.base
        # nonincreasing along each criterion's chain, criterion 2 negative
        levels = {label: kary.label_parts(label) for label in base.elements}
        profile = {j: Fraction(max(0, 10 - 3 * l - i), 10) for j, (i, l) in levels.items()}
        signed_profile = {j: v * (-1 if levels[j][0] == 2 else 1) for j, v in profile.items()}
        scale = kary.ReferenceScale(["0", "1/3", "1"])
        signed_scale = kary.ReferenceScale(["-1", "-1/3", "0", "1/3", "1"], symmetric=True)
        scores = {
            unsigned: [
                lambda c: cq.natural_extension(c, cq.Profile(c.lattice.base, profile)),
                lambda c: kary.interpolate_point(c, ["0.2", "1/2", "0.9"], scale),
                lambda c: cq.moebius_form_eval(
                    cq.moebius_transform(c), cq.Profile(c.lattice.base, profile)
                ),
            ],
            signed: [
                lambda c: cq.evaluate_bipolar(c, cq.BipolarProfile(c.base, signed_profile)).value,
                lambda c: kary.interpolate_signed_point(c, ["-0.2", "1/2", "0"], signed_scale),
                lambda c: cq.bipolar_moebius_form_eval(
                    cq.bipolar_moebius_transform(c.lattice, c.values),
                    cq.BipolarProfile(c.base, signed_profile),
                ),
            ],
        }
        for labelled, calls in scores.items():
            parsed = parse(labelled)
            assert [score(parsed) for score in calls] == [score(labelled) for score in calls]
            assert parsed.values._integers == labelled.values._integers
            assert len(parsed.values) == len(labelled.values)
            assert not view_built(parsed)
        element = unsigned.lattice.elements[len(unsigned.lattice) // 2]
        pair = next(p for p in signed.values if p.pos and p.neg)
        reads = {
            unsigned: [
                lambda c: c.values[frozenset(sorted(element))],
                lambda c: list(c.values.items()),
                lambda c: c(sorted(element)),
                fileio.kary_capacity_payload,
            ],
            signed: [
                lambda c: c.values[(frozenset(pair.pos), frozenset(pair.neg))],
                lambda c: list(c.values.items()),
                lambda c: c((sorted(pair.pos), sorted(pair.neg))),
                fileio.bipolar_kary_capacity_payload,
            ],
        }
        for labelled, calls in reads.items():
            for read in calls:
                parsed = parse(labelled)
                assert read(parsed) == read(labelled)
                assert view_built(parsed)


    @pytest.mark.parametrize(
        "header, entries, missing, count",
        [
            ({"k": 10, "n": 6}, [], 10**6, 10**6),
            ({"k": 3, "n": 2}, [{"node": [2, 1], "value": "1"}] * 2, 8, 9),
            ({"k": 4, "n": 7, "signed": True}, [], 7**7, 7**7),
            (
                {"k": 3, "n": 2, "signed": True},
                [
                    {"pos": [1, 0], "neg": [0, 2], "value": "-1"},
                    {"pos": [0, 0], "neg": [0, 0], "value": "0"},
                ],
                23,
                25,
            ),
        ],
    )
    def test_short_file_refused_before_any_vertex(
        self, monkeypatch, header, entries, missing, count
    ):
        monkeypatch.setattr(birkhoff, "_downsets", refuse_enumeration)
        signed = header.pop("signed", False)
        parse = fileio.parse_bipolar_kary_capacity if signed else fileio.parse_kary_capacity
        text = f"missing values for {missing} of the {count} vertices"
        with pytest.raises(cq.BaseMismatch, match=text):
            parse({**header, "values": entries})

    def test_signed_count_over_the_cap_refused_as_before(self):
        # (2k-1)**n = 7**8 pairs: the extension's own size refusal, not a short file
        with pytest.raises(cq.SizeLimitExceeded, match="bipolar extension has at least"):
            fileio.parse_bipolar_kary_capacity({"k": 4, "n": 8, "values": []})

    @pytest.mark.parametrize(
        "bad, error, text",
        [
            ({"node": [0] * 5, "value": "0"}, cq.FileFormatError, "node must be a list of 6"),
            ({"node": [0] * 5 + [-1], "value": "0"}, cq.InvalidDimensions, "-1 of criterion 6"),
            ({"node": [0] * 5 + [10], "value": "0"}, cq.InvalidDimensions, "outside 0..9"),
            ({"node": [0] * 6, "value": "x"}, cq.FileFormatError, "bad value in value"),
            ({"node": [0] * 6, "value": "1"}, cq.ContradictoryValue, "two different values"),
            ({"value": "0"}, cq.FileFormatError, "missing 'node' in grid capacity entry"),
        ],
    )
    def test_malformed_entry_reported_before_any_vertex(self, monkeypatch, bad, error, text):
        monkeypatch.setattr(birkhoff, "_downsets", refuse_enumeration)
        entries = [{"node": [0] * 6, "value": "0"}, bad]
        with pytest.raises(error, match=text):
            fileio.parse_kary_capacity({"k": 10, "n": 6, "values": entries})

    def test_overlapping_pair_reported_before_any_vertex(self, monkeypatch):
        monkeypatch.setattr(birkhoff, "_downsets", refuse_enumeration)
        entries = [{"pos": [2, 0, 0], "neg": [1, 3, 0], "value": "0"}]
        with pytest.raises(cq.NotInBipolarExtension, match=r"not disjoint: \['c1l1'\]") as info:
            fileio.parse_bipolar_kary_capacity({"k": 4, "n": 3, "values": entries})
        assert info.value.context == {"overlap": ["c1l1"]}

    @pytest.mark.parametrize("coordinate", [-1, 3, 10**30])
    def test_coordinate_out_of_range(self, coordinate):
        text = f"^node coordinate {coordinate} of criterion 2 outside 0..2$"
        for payload, parse in [
            ({"node": [1, coordinate]}, fileio.parse_kary_capacity),
            ({"pos": [1, 0], "neg": [0, coordinate]}, fileio.parse_bipolar_kary_capacity),
        ]:
            with pytest.raises(cq.InvalidDimensions, match=text):
                parse({"k": 3, "n": 2, "values": [{**payload, "value": "0"}]})

    @pytest.mark.parametrize(
        "parse, keys",
        [
            (fileio.parse_kary_capacity, [{"node": [0]}, {"node": [1]}]),
            (
                fileio.parse_bipolar_kary_capacity,
                [{"pos": [0], "neg": [0]}, {"pos": [1], "neg": [0]}],
            ),
        ],
    )
    def test_boolean_value_after_an_equal_int_refused(self, parse, keys):
        # 1 == True: values keyed by themselves would read true as 1
        rows = [{**keys[0], "value": 1}, {**keys[1], "value": True}]
        with pytest.raises(cq.FileFormatError, match="^bad value in value: booleans are not"):
            parse({"k": 2, "n": 1, "values": rows})

    @pytest.mark.parametrize(
        "first, then, error, text",
        [
            ({"value": "x"}, {"node": [0, 9]}, cq.FileFormatError, "bad value in value"),
            ({"node": [0, 9]}, {"value": "x"}, cq.InvalidDimensions, "9 of criterion 2"),
        ],
    )
    def test_first_bad_entry_named(self, first, then, error, text):
        rows = [{"node": [0, 0], "value": "0", **first}, {"node": [1, 0], "value": "0", **then}]
        with pytest.raises(error, match=text):
            fileio.parse_kary_capacity({"k": 3, "n": 2, "values": rows})

    @settings(max_examples=100)
    @given(capacity_files(kinds=GRID_KINDS, faults=("short", "agree", "overlap")))
    def test_whole_list_pass_reads_every_fault_free_file(self, file):
        """Files with no bad entry, short ones, repeats that agree and
        overlapping pairs included, are read by the whole-list pass, and
        read as the per-entry loop reads them."""
        kind, payload = file
        assume(payload["values"])
        tables, whole = [], fileio._grid_entries
        with mock.patch.object(fileio, "_grid_entries", lambda *a: tables.append(whole(*a))):
            loop = file_outcome(FILE_READERS[kind], payload)
        assert [type(table) for table in tables] == [moebius.FileTable]
        with mock.patch.object(fileio, "_grid_entries", lambda *a: tables[0]):
            assert file_outcome(FILE_READERS[kind], payload) == loop

    @pytest.mark.parametrize("kind", GRID_KINDS)
    @pytest.mark.parametrize("k, n", [(2, 1), (3, 2)])
    @pytest.mark.parametrize("size", [0, 1, 2])
    def test_files_of_few_entries_read_as_the_loop_reads_them(self, kind, k, n, size):
        """Files of 0, 1 and 2 entries: with one entry, a column's codes
        come back from their one lookup as one code, not a tuple of them.
        The whole-list pass never raises; it reads every file that has an
        entry, and each file reads as the per-entry loop reads it."""
        rows = grid_rows(random.Random(k + n), k, n, kind == GRID_KINDS[1])
        payload = {"k": k, "n": n, "values": rows[:size]}
        tables, whole = [], fileio._grid_entries
        with mock.patch.object(fileio, "_grid_entries", lambda *a: tables.append(whole(*a))):
            loop = file_outcome(FILE_READERS[kind], payload)
        assert [type(table) for table in tables] == [moebius.FileTable if size else type(None)]
        with mock.patch.object(fileio, "_grid_entries", lambda *a: tables[0]):
            assert file_outcome(FILE_READERS[kind], payload) == loop


ONE_ATOM = fileio.poset_payload(antichain(1))
FILE_READERS = {
    "capacity": fileio.parse_capacity,
    "bipolar capacity": fileio.parse_bipolar_capacity,
    "grid capacity": fileio.parse_kary_capacity,
    "grid bipolar capacity": fileio.parse_bipolar_kary_capacity,
}


def file_outcome(read, payload):
    """What reading ``payload`` gives: the error's class, code, text and
    context, or the capacity's shape, vertices and integers."""
    try:
        result = read(payload)
    except cq.ChoqlatError as exc:
        return type(exc), exc.code, str(exc), exc.context
    *shape, capacity = result if isinstance(result, tuple) else (result,)
    return shape, list(capacity.values), capacity.values._integers


class TestValuesReadOnce:
    """Capacity files read each value once, to a pair in lowest terms keyed
    by the vertex (by its code in a grid file), and give what the Fraction
    path gave (``SLOW_CAPACITY_READERS``): the same integers over the same
    denominator, or the same error first."""

    @settings(max_examples=200)
    @given(capacity_files())
    def test_reads_as_the_fraction_path(self, file):
        kind, payload = file
        expected = file_outcome(SLOW_CAPACITY_READERS[kind], payload)
        assert file_outcome(FILE_READERS[kind], payload) == expected

    @pytest.mark.parametrize(
        "kind, header, keys",
        [
            ("capacity", {"lattice": ONE_ATOM}, [{"downset": []}, {"downset": ["1"]}]),
            (
                "bipolar capacity",
                {"lattice": ONE_ATOM},
                [{"pos": [], "neg": []}, {"pos": ["1"], "neg": []}, {"pos": [], "neg": ["1"]}],
            ),
            ("grid capacity", {"k": 2, "n": 1}, [{"node": [0]}, {"node": [1]}]),
            (
                "grid bipolar capacity",
                {"k": 2, "n": 1},
                [{"pos": [0], "neg": [0]}, {"pos": [1], "neg": [0]}, {"pos": [0], "neg": [1]}],
            ),
        ],
    )
    def test_spellings_of_one_value_share_its_reduced_denominator(self, kind, header, keys):
        rows = [{**key, "value": text} for key, text in zip(keys, ("2/4", "0.50", " 50e-2 "))]
        rows.append({**keys[0], "value": Fraction(1, 2)})  # agreeing, in another spelling
        result = FILE_READERS[kind]({**header, "values": rows})
        capacity = result[-1] if isinstance(result, tuple) else result
        assert capacity.values._integers == ([1] * len(keys), 2)

    def test_denominator_cap_counts_reduced_denominators(self):
        # 256 values of 1/2, each written over its own 1650-bit denominator:
        # unreduced, their bit lengths would sum past the cap
        scales = [10**497 + i for i in range(256)]
        assert sum((2 * m).bit_length() for m in scales) > rationals.MAX_DENOMINATOR_BITS
        nodes = itertools.product(range(2), repeat=8)
        rows = [{"node": list(node), "value": f"{m}/{2 * m}"} for node, m in zip(nodes, scales)]
        _, _, capacity = fileio.parse_kary_capacity({"k": 2, "n": 8, "values": rows})
        assert capacity.values._integers == ([1] * 256, 2)
        # in lowest terms they are refused, as the Fraction path refuses them
        for row, m in zip(rows, scales):
            row["value"] = f"1/{2 * m}"
        payload = {"k": 2, "n": 8, "values": rows}
        expected = file_outcome(SLOW_CAPACITY_READERS["grid capacity"], payload)
        assert expected[0] is cq.SizeLimitExceeded
        assert file_outcome(fileio.parse_kary_capacity, payload) == expected


class TestScaleFiles:
    @given(st.lists(number_texts(), min_size=1, max_size=3))
    def test_points_and_levels_read_as_the_fraction_path(self, texts):
        """A point's coordinates and a scale's levels, each read once to a
        reduced pair, are the ``Fraction``s of the slow reader, and a bad
        one fails with its text and the field."""
        parts = [text.strip() for text in texts]
        assume(all(parts))
        # a point's coordinates are stripped from its text, a level is read whole
        for field, parse, raw, build in [
            ("point", lambda: fileio.parse_point(",".join(texts)), parts, list),
            ("levels", lambda: fileio.parse_scale({"levels": texts}).levels, texts, tuple),
        ]:
            try:
                expected = build(map(slow_as_fraction, raw))
            except (TypeError, ValueError) as exc:
                expected = (f"bad value in {field}: {exc}", {"field": field})
            try:
                got = parse()
                assert all(type(value) is Fraction for value in got)
            except cq.FileFormatError as exc:
                got = (str(exc), exc.context)
            except cq.InvalidDimensions:  # not increasing: the scale's own check
                assert field == "levels"
                continue
            assert got == expected

    def test_round_trip(self):
        scale = cq.ReferenceScale(("0", "0.5", "1"))
        parsed = fileio.parse_scale(fileio.scale_payload(scale))
        assert parsed.levels == scale.levels

    def test_symmetric_round_trip(self):
        scale = cq.ReferenceScale(("-1", "-0.5", "0", "0.5", "1"), symmetric=True)
        payload = fileio.scale_payload(scale)
        parsed = fileio.parse_scale(payload, symmetric=True)
        assert parsed.levels == scale.levels
        assert parsed.k == 3
