import io
import json
import os
import random
import subprocess
import sys
import time
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import choqlat as cq
from choqlat import birkhoff, cli, fileio
from choqlat.cli import main
from choqlat.rationals import MAX_DENOMINATOR_BITS, _shown
from support import (
    antichain,
    long_denominator_values,
    oracle_read,
    random_bipolar_capacity,
    random_capacity,
    wedge,
    wedge_poset,
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def wedge_file(tmp_path):
    return write(tmp_path, "wedge.json", fileio.poset_payload(wedge_poset()))


def grid_capacity_path(tmp_path):
    base = cq.build_kary_base(3, 2)
    lattice = cq.DownsetLattice(base)
    values = {}
    for d in lattice.elements:
        i, j = cq.downset_to_node(d, 2)
        values[d] = Fraction(3 * i + 2 * j, 12)
    capacity = cq.GeneralizedCapacity(lattice, values)
    return write(tmp_path, "grid_capacity.json", fileio.kary_capacity_payload(capacity))


@pytest.fixture
def grid_capacity_file(tmp_path):
    return grid_capacity_path(tmp_path)


def choquet_files(tmp_path):
    rng = random.Random(1)
    base = wedge_poset()
    lattice = cq.DownsetLattice(base)
    capacity = random_capacity(rng, lattice)
    cpath = write(tmp_path, "capacity.json", fileio.capacity_payload(capacity))
    profile = cq.Profile(base, {"a": "0.9", "b": "0.2", "c": "0.5"})
    ppath = write(tmp_path, "profile.json", fileio.profile_payload(profile))
    return capacity, profile, cpath, ppath


def bipolar_files(tmp_path):
    rng = random.Random(2)
    base = cq.build_kary_base(3, 2)
    lattice = cq.DownsetLattice(base)
    capacity = random_bipolar_capacity(rng, lattice)
    cpath = write(tmp_path, "bipolar.json", fileio.bipolar_capacity_payload(capacity))
    profile = cq.BipolarProfile(
        base, {"c1l1": "0.5", "c1l2": "0.1", "c2l1": "-0.3", "c2l2": "-0.2"}
    )
    ppath = write(tmp_path, "signed_profile.json", fileio.profile_payload(profile))
    return capacity, profile, cpath, ppath


def bipolar_grid_capacity_path(tmp_path, seed):
    rng = random.Random(seed)
    lattice = cq.DownsetLattice(cq.build_kary_base(3, 2))
    capacity = random_bipolar_capacity(rng, lattice)
    return write(
        tmp_path, "grid_bipolar.json", fileio.bipolar_kary_capacity_payload(capacity)
    )


class TestPosetCommands:
    def test_check_ok(self, capsys, wedge_file):
        code, payload = run_json(capsys, "poset", "check", wedge_file)
        assert code == 0
        assert payload["ok"] is True
        assert payload["element_count"] == 3
        assert payload["linear_extension"] == ["a", "c", "b"]

    def test_check_rejects_cycle(self, capsys, tmp_path):
        path = write(
            tmp_path, "cycle.json", {"elements": ["a", "b"], "covers": [["a", "b"], ["b", "a"]]}
        )
        code, payload = run_json(capsys, "poset", "check", path)
        assert code == 2
        assert payload["error"]["code"] == "cycle_detected"
        assert payload["error"]["file"] == path

    def test_redundant_cover_error_is_stable(self, tmp_path):
        """Under any hash seed, the error names the smallest implied cover
        (covers were once checked in set order)."""
        labels = [f"x{i:03d}" for i in range(40)]
        skips = [[labels[i], labels[i + 2]] for i in range(0, 40, 5)]
        covers = [[a, b] for a, b in zip(labels, labels[1:])] + skips[::-1]
        path = write(tmp_path, "skips.json", {"elements": labels, "covers": covers})
        src = str(Path(cq.__file__).resolve().parents[1])
        outputs = []
        for seed in ("1", "2"):
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
            proc = subprocess.run(
                [sys.executable, "-m", "choqlat.cli", "poset", "check", path],
                capture_output=True, text=True, env=env, timeout=60,
            )
            assert proc.returncode == 2
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
        error = json.loads(outputs[0])["error"]
        assert error["code"] == "redundant_cover"
        assert (error["lower"], error["upper"]) == ("x000", "x002")

    def test_check_dot(self, capsys, wedge_file):
        code, out = run(capsys, "poset", "check", wedge_file, "--dot")
        assert code == 0
        assert out.startswith("digraph")
        assert '"a" -> "b";' in out

    def test_bad_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, payload = run_json(capsys, "poset", "check", str(path))
        assert code == 2
        assert payload["error"]["code"] == "file_format"

    def test_missing_file(self, capsys, tmp_path):
        code, payload = run_json(capsys, "poset", "check", str(tmp_path / "nope.json"))
        assert code == 2
        assert payload["error"]["code"] == "file_format"

    @pytest.mark.parametrize("n", [fileio.GRID_ELEMENT_CAP + 1, 8000])
    @pytest.mark.parametrize(
        "command", [("poset", "check"), ("lattice", "verify"), ("bipolar", "enumerate")]
    )
    def test_long_chain_exits_fast(self, capsys, tmp_path, command, n):
        """A poset or join_irreducibles lattice file over the element budget
        exits 2 before the order is built (an 8000 chain took 45 s and
        1.35 GB to build)."""
        labels = [f"x{i}" for i in range(n)]
        covers = [list(cover) for cover in zip(labels, labels[1:])]
        path = write(
            tmp_path,
            "chain.json",
            {"role": "join_irreducibles", "elements": labels, "covers": covers},
        )
        started = time.perf_counter()
        code, payload = run_json(capsys, *command, path)
        assert time.perf_counter() - started < 1
        assert code == 2
        assert payload["error"]["code"] == "size_limit_exceeded"
        assert payload["error"]["cap"] == fileio.GRID_ELEMENT_CAP


class TestLatticeVerify:
    def test_explicit_lattice(self, capsys, tmp_path):
        payload = fileio.poset_payload(
            cq.Poset(
                ["bot", "a", "c", "ac", "top"],
                [("bot", "a"), ("bot", "c"), ("a", "ac"), ("c", "ac"), ("ac", "top")],
            )
        )
        payload["role"] = "explicit_lattice"
        path = write(tmp_path, "lattice.json", payload)
        code, result = run_json(capsys, "lattice", "verify", path)
        assert code == 0
        assert result["distributive"] is True
        assert result["element_count"] == 5
        assert result["eta"]["ac"] == ["a", "c"]

    def test_pentagon_rejected(self, capsys, tmp_path):
        payload = fileio.poset_payload(
            cq.Poset(
                ["bot", "x", "y", "z", "top"],
                [("bot", "x"), ("x", "top"), ("bot", "y"), ("y", "z"), ("z", "top")],
            )
        )
        payload["role"] = "explicit_lattice"
        path = write(tmp_path, "pentagon.json", payload)
        code, result = run_json(capsys, "lattice", "verify", path)
        assert code == 2
        assert result["error"]["code"] == "not_distributive"


class TestMosaicCheck:
    def test_wedge_is_not_a_mosaic(self, capsys, wedge_file):
        code, payload = run_json(capsys, "mosaic", "check", wedge_file)
        assert code == 0
        assert payload["regular_mosaic"] is False
        assert payload["witness_component_bottoms"] == ["a", "c"]

    def test_antichain_is_a_mosaic(self, capsys, tmp_path):
        path = write(tmp_path, "anti.json", fileio.poset_payload(antichain(3)))
        code, payload = run_json(capsys, "mosaic", "check", path)
        assert code == 0
        assert payload["regular_mosaic"] is True
        assert payload["witness_component_bottoms"] is None


class TestChoquetEval:
    def test_value_and_cross_check(self, capsys, tmp_path):
        capacity, profile, cpath, ppath = choquet_files(tmp_path)
        code, payload = run_json(
            capsys, "choquet", "eval", "--capacity", cpath, "--profile", ppath, "--cross-check"
        )
        assert code == 0
        assert Fraction(payload["value"]) == cq.natural_extension(capacity, profile)
        assert payload["cross_check"]["agrees"] is True

    def test_decomposition_reconstructs_profile(self, capsys, tmp_path):
        capacity, profile, cpath, ppath = choquet_files(tmp_path)
        code, payload = run_json(
            capsys, "choquet", "eval", "--capacity", cpath, "--profile", ppath, "--decomposition"
        )
        assert code == 0
        dec = payload["decomposition"]
        rebuilt = {x: 0.0 for x in profile.values}
        for vertex, weight in zip(dec["chain"], dec["weights"]):
            for label in vertex:
                rebuilt[label] += float(Fraction(weight))
        for label, value in profile.values.items():
            assert abs(rebuilt[label] - float(value)) <= 1e-12

    def test_profile_must_match_base(self, capsys, tmp_path):
        _, _, cpath, _ = choquet_files(tmp_path)
        bad = write(tmp_path, "bad_profile.json", {"values": {"a": 1}})
        code, payload = run_json(
            capsys, "choquet", "eval", "--capacity", cpath, "--profile", bad
        )
        assert code == 2
        assert payload["error"]["code"] == "base_mismatch"


class TestBipolarCommands:
    def test_eval_with_tile_and_cross_check(self, capsys, tmp_path):
        capacity, profile, cpath, ppath = bipolar_files(tmp_path)
        code, payload = run_json(
            capsys,
            "bipolar", "eval",
            "--capacity", cpath,
            "--profile", ppath,
            "--decomposition",
            "--cross-check",
        )
        assert code == 0
        assert payload["tile"] == ["c1l1", "c1l2"]
        assert Fraction(payload["value"]) == cq.bipolar_natural_extension(capacity, profile)
        assert payload["cross_check"]["agrees"] is True
        assert len(payload["decomposition"]["chain"]) == 5

    def test_require_normalized_flag(self, capsys, tmp_path):
        _, _, cpath, ppath = bipolar_files(tmp_path)
        code, payload = run_json(
            capsys,
            "bipolar", "eval",
            "--capacity", cpath,
            "--profile", ppath,
            "--require-normalized",
        )
        assert code == 2
        assert payload["error"]["code"] == "not_normalized"

    def test_diagnostics_flag_non_game(self, capsys, tmp_path):
        base = antichain(1)
        lattice = cq.DownsetLattice(base)
        capacity = cq.GeneralizedCapacity(
            lattice, {frozenset(): 1, frozenset({"1"}): 0}
        )
        cpath = write(tmp_path, "odd.json", fileio.capacity_payload(capacity))
        ppath = write(tmp_path, "p.json", {"values": {"1": "0.5"}})
        code, payload = run_json(
            capsys, "choquet", "eval", "--capacity", cpath, "--profile", ppath
        )
        assert code == 0
        assert payload["diagnostics"] == [
            "capacity does not vanish at the bottom vertex",
            "capacity is not monotone",
        ]

    def test_enumerate_counts(self, capsys, tmp_path, wedge_file):
        code, payload = run_json(capsys, "bipolar", "enumerate", wedge_file)
        assert code == 0
        assert payload["count"] == 11
        assert payload["tile_union_count"] == 9
        assert payload["regular_mosaic"] is False
        assert {"pos": ["a"], "neg": ["c"]} in payload["elements"]

    def test_enumerate_dot(self, capsys, wedge_file):
        code, out = run(capsys, "bipolar", "enumerate", wedge_file, "--dot")
        assert code == 0
        assert out.startswith("digraph")
        assert "->" in out


class TestKaryAndLevels:
    def test_kary_eval(self, capsys, tmp_path, grid_capacity_file):
        ppath = write(
            tmp_path,
            "profile.json",
            {"values": {"c1l1": "0.5", "c1l2": "0.1", "c2l1": "0.3", "c2l2": "0.2"}},
        )
        code, payload = run_json(
            capsys,
            "kary", "eval",
            "--capacity", grid_capacity_file,
            "--profile", ppath,
            "--decomposition",
            "--cross-check",
        )
        assert code == 0
        assert payload["decomposition"]["nodes"] == [
            [0, 0], [1, 0], [1, 1], [1, 2], [2, 2]
        ]
        assert payload["decomposition"]["weights"] == ["1/2", "1/5", "1/10", "1/10", "1/10"]
        assert payload["cross_check"]["agrees"] is True

    def test_kary_eval_bipolar(self, capsys, tmp_path):
        cpath = bipolar_grid_capacity_path(tmp_path, 3)
        ppath = write(
            tmp_path,
            "signed.json",
            {"values": {"c1l1": "0.5", "c1l2": "0.1", "c2l1": "-0.3", "c2l2": "-0.2"}},
        )
        code, payload = run_json(
            capsys,
            "kary", "eval", "--bipolar",
            "--capacity", cpath,
            "--profile", ppath,
            "--cross-check",
        )
        assert code == 0
        assert payload["positive_criteria"] == [1]
        assert payload["cross_check"]["agrees"] is True

    @pytest.mark.parametrize("signed", [False, True])
    def test_kary_eval_builds_no_step_plan(self, capsys, monkeypatch, tmp_path, signed):
        """The monotonicity note walks the covers itself: a grid eval builds
        no step plan, unless ``--cross-check`` takes the Moebius form."""
        plans, step_plan = [], birkhoff._step_plan
        monkeypatch.setattr(birkhoff, "_step_plan", lambda *a: plans.append(a) or step_plan(*a))
        if signed:
            cpath, flags = bipolar_grid_capacity_path(tmp_path, 3), ["--bipolar"]
            values = {"c1l1": "0.5", "c1l2": "0.1", "c2l1": "-0.3", "c2l2": "-0.2"}
        else:
            cpath, flags = grid_capacity_path(tmp_path), []
            values = {"c1l1": "0.5", "c1l2": "0.1", "c2l1": "0.3", "c2l2": "0.2"}
        ppath = write(tmp_path, "profile.json", {"values": values})
        argv = ["kary", "eval", *flags, "--capacity", cpath, "--profile", ppath]
        code, payload = run_json(capsys, *argv)
        assert code == 0
        assert ("capacity is not monotone" in payload["diagnostics"]) is signed
        assert plans == []
        code, payload = run_json(capsys, *argv, "--cross-check")
        assert code == 0 and payload["cross_check"]["agrees"] is True
        assert len(plans) == 1

    def test_levels_eval(self, capsys, tmp_path, grid_capacity_file):
        spath = write(tmp_path, "scale.json", {"levels": ["0", "0.5", "1"]})
        code, payload = run_json(
            capsys,
            "levels", "eval",
            "--scale", spath,
            "--capacity", grid_capacity_file,
            "--point", "0.7,0.1",
        )
        assert code == 0
        assert payload["value"] == "23/60"
        assert payload["level_indices"] == [2, 1]
        assert payload["cross_check"]["agrees"] is True

    def test_levels_eval_bipolar(self, capsys, tmp_path):
        cpath = bipolar_grid_capacity_path(tmp_path, 4)
        spath = write(tmp_path, "sym.json", {"levels": ["-1", "-0.5", "0", "0.5", "1"]})
        code, payload = run_json(
            capsys,
            "levels", "eval", "--bipolar",
            "--scale", spath,
            "--capacity", cpath,
            "--point", "0.7,-0.1",
        )
        assert code == 0
        assert payload["positive_criteria"] == [1]
        assert payload["cross_check"]["agrees"] is True

    def test_boolean_grid_header_is_a_file_format_error(self, capsys, tmp_path):
        cpath = write(
            tmp_path,
            "grid_bool.json",
            {"k": True, "n": 2, "values": [{"node": [0, 0], "value": "0"}]},
        )
        ppath = write(tmp_path, "profile.json", {"values": {"c1l1": "0.5"}})
        code, payload = run_json(
            capsys, "kary", "eval", "--capacity", cpath, "--profile", ppath
        )
        assert code == 2
        assert payload["error"]["code"] == "file_format"

    def test_point_out_of_scale(self, capsys, tmp_path, grid_capacity_file):
        spath = write(tmp_path, "scale.json", {"levels": ["0", "0.5", "1"]})
        code, payload = run_json(
            capsys,
            "levels", "eval",
            "--scale", spath,
            "--capacity", grid_capacity_file,
            "--point", "1.5,0",
        )
        assert code == 2
        assert payload["error"]["code"] == "out_of_scale"


def golden_argv(tmp_path, name):
    """Command line of one golden case, on the fixtures of the tests above."""
    unsigned_grid = {"c1l1": "0.5", "c1l2": "0.1", "c2l1": "0.3", "c2l2": "0.2"}
    signed_grid = {"c1l1": "0.5", "c1l2": "0.1", "c2l1": "-0.3", "c2l2": "-0.2"}
    report = ["--decomposition", "--cross-check"]
    if name == "choquet":
        _, _, cpath, ppath = choquet_files(tmp_path)
        return ["choquet", "eval", "--capacity", cpath, "--profile", ppath, *report]
    if name == "bipolar":
        _, _, cpath, ppath = bipolar_files(tmp_path)
        return ["bipolar", "eval", "--capacity", cpath, "--profile", ppath, *report]
    if name == "kary":
        ppath = write(tmp_path, "profile.json", {"values": unsigned_grid})
        cpath = grid_capacity_path(tmp_path)
        return ["kary", "eval", "--capacity", cpath, "--profile", ppath, *report]
    if name == "kary_bipolar":
        ppath = write(tmp_path, "signed.json", {"values": signed_grid})
        cpath = bipolar_grid_capacity_path(tmp_path, 3)
        return ["kary", "eval", "--bipolar", "--capacity", cpath, "--profile", ppath, *report]
    if name == "mobius":
        _, _, cpath, _ = choquet_files(tmp_path)
        return ["mobius", "--capacity", cpath]
    if name == "mobius_bipolar":
        _, _, cpath, _ = bipolar_files(tmp_path)
        return ["mobius", "--bipolar-capacity", cpath]
    if name in ("bipolar_enumerate", "bipolar_enumerate_dot"):
        path = write(tmp_path, "wedge.json", fileio.poset_payload(wedge_poset()))
        return ["bipolar", "enumerate", path, *(["--dot"] if name.endswith("dot") else [])]
    if name == "selftest":
        return ["selftest"]
    if name == "levels":
        spath = write(tmp_path, "scale.json", {"levels": ["0", "0.5", "1"]})
        cpath = grid_capacity_path(tmp_path)
        return ["levels", "eval", "--scale", spath, "--capacity", cpath, "--point", "0.7,0.1"]
    spath = write(tmp_path, "sym.json", {"levels": ["-1", "-0.5", "0", "0.5", "1"]})
    cpath = bipolar_grid_capacity_path(tmp_path, 4)
    return [
        "levels", "eval", "--bipolar",
        "--scale", spath, "--capacity", cpath, "--point", "0.7,-0.1",
    ]


GOLDEN = Path(__file__).parent / "golden"
GOLDEN_CASES = ["choquet", "bipolar", "kary", "kary_bipolar", "levels", "levels_bipolar"]
# the command kinds with no dual path: Moebius tables, the extension, selftest
TABLE_CASES = ["mobius", "mobius_bipolar", "bipolar_enumerate", "bipolar_enumerate_dot", "selftest"]
WRONG = Fraction(99)


def wrong_value(*args, **kwargs):
    return WRONG


def wrong_evaluation(*args, **kwargs):
    return SimpleNamespace(value=WRONG)


# golden case -> (dual-path function the CLI calls, stand-in, path names in the message)
DUAL_PATHS = {
    "choquet": ("moebius_form_eval", wrong_value, ("moebius", "direct")),
    "bipolar": ("bipolar_moebius_form_eval", wrong_value, ("moebius", "direct")),
    "kary": ("moebius_form_eval", wrong_value, ("moebius", "direct")),
    "kary_bipolar": ("bipolar_moebius_form_eval", wrong_value, ("moebius", "direct")),
    "levels": ("evaluate", wrong_evaluation, ("staircase", "point")),
    "levels_bipolar": ("evaluate_bipolar", wrong_evaluation, ("staircase", "point")),
}


class TestGoldenOutput:
    @pytest.mark.parametrize("name", GOLDEN_CASES + TABLE_CASES)
    def test_stdout_is_pinned(self, capsys, tmp_path, name):
        code, out = run(capsys, *golden_argv(tmp_path, name))
        assert code == 0
        assert out == (GOLDEN / f"{name}.out").read_text(encoding="utf-8")

    @pytest.mark.parametrize("name", GOLDEN_CASES)
    def test_dual_path_disagreement_exits_3(self, capsys, tmp_path, monkeypatch, name):
        target, stand_in, (dual_path, direct_path) = DUAL_PATHS[name]
        monkeypatch.setattr(f"choqlat.cli.{target}", stand_in)
        direct = json.loads((GOLDEN / f"{name}.out").read_text(encoding="utf-8"))["value"]
        code, payload = run_json(capsys, *golden_argv(tmp_path, name))
        assert code == 3
        assert payload == {
            "error": {
                "code": "cross_check_failed",
                "message": f"{dual_path} path gives {WRONG}, {direct_path} path gives {direct}",
            }
        }

    @pytest.mark.parametrize("name", ["levels", "levels_bipolar"])
    def test_broken_corner_sweep_exits_3(self, capsys, tmp_path, monkeypatch, name):
        """The point path and its cross-check share only the chain reader
        (the vertex family's lookup and the capacity's chain sum), not the
        corner sweep: a wrong corner sweep is caught by the generic
        extension of the staircase profile."""
        monkeypatch.setattr("choqlat.kary._corner_sweep", wrong_value)
        dual = json.loads((GOLDEN / f"{name}.out").read_text(encoding="utf-8"))["value"]
        code, payload = run_json(capsys, *golden_argv(tmp_path, name))
        assert code == 3
        assert payload == {
            "error": {
                "code": "cross_check_failed",
                "message": f"staircase path gives {dual}, point path gives {WRONG}",
            }
        }


# capacity file format of a golden case -> fields naming one of its entries
ENTRY_FIELDS = {
    "choquet": ["downset"],
    "bipolar": ["pos", "neg"],
    "kary": ["node"],
    "kary_bipolar": ["pos", "neg"],
}


class TestInputBoundary:
    @pytest.mark.parametrize("name", list(ENTRY_FIELDS))
    def test_contradictory_duplicate_names_the_entry(self, capsys, tmp_path, name):
        fields = ENTRY_FIELDS[name]
        argv = golden_argv(tmp_path, name)
        cpath = Path(argv[argv.index("--capacity") + 1])
        capacity = json.loads(cpath.read_text(encoding="utf-8"))
        clash = {**capacity["values"][1], "value": str(WRONG)}
        assert capacity["values"][1]["value"] != clash["value"]
        capacity["values"].append(clash)
        cpath.write_text(json.dumps(capacity), encoding="utf-8")
        code, payload = run_json(capsys, *argv)
        assert code == 2
        assert payload["error"]["code"] == "contradictory_value"
        assert {f: payload["error"].get(f) for f in fields} == {f: clash[f] for f in fields}

    @pytest.mark.parametrize("bipolar", [False, True])
    def test_grid_values_must_be_a_list(self, capsys, tmp_path, bipolar):
        cpath = write(tmp_path, "grid.json", {"k": 3, "n": 2, "values": 5})
        ppath = write(tmp_path, "profile.json", {"values": {"c1l1": "0.5"}})
        flags = ["--bipolar"] if bipolar else []
        code, payload = run_json(
            capsys, "kary", "eval", *flags, "--capacity", cpath, "--profile", ppath
        )
        assert code == 2
        assert payload["error"]["code"] == "file_format"
        assert payload["error"]["field"] == "values"

    def test_cover_label_must_be_a_string(self, capsys, tmp_path):
        path = write(tmp_path, "poset.json", {"elements": ["a", "b"], "covers": [[["a"], "b"]]})
        code, payload = run_json(capsys, "poset", "check", path)
        assert code == 2
        assert payload["error"]["code"] == "file_format"
        assert payload["error"]["field"] == "covers"

    @pytest.mark.parametrize(
        "field, poset",
        [
            ("elements", {"elements": ["a", 1], "covers": []}),
            ("covers", {"elements": ["a"], "covers": 5}),
        ],
    )
    def test_poset_fields_must_be_lists(self, capsys, tmp_path, field, poset):
        code, payload = run_json(capsys, "poset", "check", write(tmp_path, "poset.json", poset))
        assert code == 2
        assert payload["error"]["code"] == "file_format"
        assert payload["error"]["field"] == field

    def test_profile_values_must_be_an_object(self, capsys, tmp_path):
        _, _, cpath, _ = choquet_files(tmp_path)
        ppath = write(tmp_path, "list_profile.json", {"values": ["0.5", "0", "0"]})
        code, payload = run_json(capsys, "choquet", "eval", "--capacity", cpath, "--profile", ppath)
        assert code == 2
        assert payload["error"]["code"] == "file_format"
        assert payload["error"]["field"] == "values"

    def test_scale_levels_must_be_a_list(self, capsys, tmp_path, grid_capacity_file):
        spath = write(tmp_path, "scale.json", {"levels": "0,0.5,1"})
        argv = ["levels", "eval", "--scale", spath, "--capacity", grid_capacity_file]
        code, payload = run_json(capsys, *argv, "--point=0.5,0.2")
        assert code == 2
        assert payload["error"]["code"] == "file_format"
        assert payload["error"]["field"] == "levels"

    @pytest.mark.parametrize("point", ["abc,0.2", "0.5,,0.2", "0.5,0.2,"])
    def test_point_coordinates_must_parse(self, capsys, tmp_path, grid_capacity_file, point):
        spath = write(tmp_path, "scale.json", {"levels": ["0", "0.5", "1"]})
        code, payload = run_json(
            capsys,
            "levels", "eval",
            "--scale", spath,
            "--capacity", grid_capacity_file,
            f"--point={point}",
        )
        assert code == 2
        assert payload["error"]["code"] == "file_format"
        assert payload["error"]["field"] == "point"

    @pytest.mark.parametrize("bipolar", [False, True])
    @pytest.mark.parametrize("header", [{"k": 200000, "n": 1}, {"k": 3, "n": 10**40}])
    def test_grid_header_over_budget_exits_fast(self, capsys, tmp_path, bipolar, header):
        cpath = write(tmp_path, "grid.json", {**header, "values": []})
        ppath = write(tmp_path, "profile.json", {"values": {"c1l1": "0.5"}})
        flags = ["--bipolar"] if bipolar else []
        started = time.perf_counter()
        code, payload = run_json(
            capsys, "kary", "eval", *flags, "--capacity", cpath, "--profile", ppath
        )
        assert time.perf_counter() - started < 1
        assert code == 2
        assert payload["error"]["code"] == "size_limit_exceeded"

    @pytest.mark.parametrize("command", ["enumerate", "eval"])
    def test_bipolar_extension_over_budget_exits_fast(self, capsys, tmp_path, command):
        lattice = fileio.lattice_payload(cq.DownsetLattice(antichain(16)))
        if command == "enumerate":
            argv = ["bipolar", "enumerate", write(tmp_path, "lattice.json", lattice)]
        else:
            # 13 atoms: 3**13 signed pairs, over the budget, and a file with a
            # value at each (A, {}), so it is not refused as short first
            small = cq.DownsetLattice(antichain(13))
            lattice = fileio.lattice_payload(small)
            values = [{"pos": sorted(a), "neg": [], "value": "0"} for a in small.elements]
            cpath = write(tmp_path, "capacity.json", {"lattice": lattice, "values": values})
            ppath = write(tmp_path, "profile.json", {"values": {"1": "0.5"}})
            argv = ["bipolar", "eval", "--capacity", cpath, "--profile", ppath]
        started = time.perf_counter()
        code, payload = run_json(capsys, *argv)
        assert time.perf_counter() - started < 2
        assert code == 2
        assert payload["error"]["code"] == "size_limit_exceeded"

    @pytest.mark.parametrize("command", ["choquet", "bipolar"])
    def test_short_label_capacity_exits_fast(self, capsys, tmp_path, monkeypatch, command):
        """17 atoms give 2**17 lattice elements; a file with no values is
        refused as short before its lattice is enumerated."""

        bounds, count = [], birkhoff._downsets

        def counted(base, max_count=None):
            # a count up to the entries, never an enumeration
            assert max_count is not None, "the lattice was enumerated"
            bounds.append(max_count)
            return count(base, max_count)

        monkeypatch.setattr(birkhoff, "_downsets", counted)
        lattice = fileio.lattice_payload(cq.DownsetLattice(antichain(17)))
        cpath = write(tmp_path, "capacity.json", {"lattice": lattice, "values": []})
        ppath = write(tmp_path, "profile.json", {"values": {"1": "0.5"}})
        started = time.perf_counter()
        code, payload = run_json(capsys, command, "eval", "--capacity", cpath, "--profile", ppath)
        assert time.perf_counter() - started < 0.5
        assert code == 2
        assert payload["error"] == {
            "code": "base_mismatch",
            "message": "only 0 entries for a larger lattice",
            "file": cpath,
        }
        assert bounds == [0]

    def test_thirteen_bottom_wedge_exits_2(self, capsys, tmp_path):
        lattice = fileio.lattice_payload(cq.DownsetLattice(wedge(13)))
        code, payload = run_json(
            capsys, "bipolar", "enumerate", write(tmp_path, "wedge.json", lattice)
        )
        assert code == 2
        assert payload["error"]["code"] == "size_limit_exceeded"

    @pytest.mark.parametrize("dot", [False, True], ids=["json", "dot"])
    def test_enumerate_output_over_the_label_budget_exits_2(
        self, capsys, monkeypatch, wedge_file, dot
    ):
        """``bipolar enumerate`` counts the labels it would print before it
        builds its output: each part of each pair, and with --dot each part
        of both ends of every cover. At the cap it prints; one label under
        the count, it exits 2 and names the cap."""
        lattice = cq.DownsetLattice(wedge_poset())
        size = lambda pairs: sum(len(pos) + len(neg) for pos, neg in pairs)
        labels = size(cq.bipolar_extension(lattice))
        if dot:
            labels += sum(size(edge) for edge in cq.bipolar_cover_pairs(lattice))
        argv = ["bipolar", "enumerate", wedge_file, *(["--dot"] if dot else [])]
        monkeypatch.setattr(cli, "OUTPUT_LABEL_CAP", labels)
        assert run(capsys, *argv)[0] == 0
        monkeypatch.setattr(cli, "OUTPUT_LABEL_CAP", labels - 1)
        code, payload = run_json(capsys, *argv)
        assert code == 2
        assert payload["error"] == {
            "code": "size_limit_exceeded",
            "message": f"the output would print at least {labels} labels,"
            f" over the cap {labels - 1}",
            "cap": labels - 1,
        }

    @pytest.mark.parametrize(
        "text",
        ["[" * 100000, '{"elements": [' + "1" * 5000 + "]}", b"\xff\xfe"],
        ids=["deep_nesting", "long_integer", "bad_utf8"],
    )
    def test_unreadable_json_is_a_file_format_error(self, capsys, tmp_path, text):
        path = tmp_path / "poset.json"
        if isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text)
        code, payload = run_json(capsys, "poset", "check", str(path))
        assert code == 2
        assert payload["error"]["code"] == "file_format"

    @pytest.mark.parametrize(
        "argv",
        [
            ["levels", "eval", "--scale", "s.json", "--capacity", "c.json", "--point", "-0.3,0.2"],
            ["choquet", "eval", "--capacity", "c.json"],
            ["no-such-command"],
            [],
            ["poset"],
            ["choquet", "eval", "--cap", "c.json", "--profile", "p.json"],
            ["choquet", "eval", "--capacity", "c.json", "--profile"],
            ["poset", "check", "a.json", "--dot=yes"],
            ["poset", "check", "a.json", "b.json"],
            ["selftest", "--bogus"],
            ["--dot", "poset", "check", "a.json"],
        ],
        ids=[
            "negative_point_as_flag",
            "missing_profile",
            "unknown_command",
            "empty_argv",
            "missing_command_word",
            "abbreviated_option",
            "option_without_value",
            "flag_given_a_value",
            "extra_word",
            "unknown_option",
            "option_before_command",
        ],
    )
    def test_bad_arguments_are_a_usage_error(self, capsys, argv):
        code, payload = run_json(capsys, *argv)
        assert code == 2
        assert payload["error"]["code"] == "usage"

    def test_help_still_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--help"])
        assert exit_info.value.code == 0
        assert "usage: choqlat" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [["-h"], ["kary", "-h"], ["kary", "eval", "--bipolar", "-h"], ["selftest", "--help"]],
    )
    def test_help_lists_every_command(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: choqlat poset check file [--dot]\n")
        assert all(f"choqlat {words}" in out for words in cli.COMMANDS)

    def test_unexpected_error_is_an_internal_error(self, capsys, monkeypatch):
        def broken(args):
            raise RuntimeError("boom")

        monkeypatch.setattr("choqlat.cli.cmd_selftest", broken)
        code = main(["selftest"])
        captured = capsys.readouterr()
        assert code == 1
        assert json.loads(captured.out) == {
            "error": {"code": "internal_error", "message": "RuntimeError: boom"}
        }
        assert "Traceback" in captured.err
        assert captured.err.rstrip().endswith("RuntimeError: boom")

    def test_render_failure_is_an_internal_error(self, capsys, monkeypatch):
        """A handler's result that cannot be rendered ends like any other
        defect: exit 1 and a JSON body, not an exception out of ``main``."""

        class Unprintable:
            def __str__(self):
                raise RuntimeError("cannot render")

        monkeypatch.setattr("choqlat.cli.cmd_selftest", lambda args: {"x": Unprintable()})
        code = main(["selftest"])
        captured = capsys.readouterr()
        assert code == 1
        assert json.loads(captured.out) == {
            "error": {"code": "internal_error", "message": "RuntimeError: cannot render"}
        }
        assert captured.err.rstrip().endswith("RuntimeError: cannot render")

    def test_interrupt_is_not_caught(self, monkeypatch):
        def interrupted(args):
            raise KeyboardInterrupt

        monkeypatch.setattr("choqlat.cli.cmd_selftest", interrupted)
        with pytest.raises(KeyboardInterrupt):
            main(["selftest"])

    @pytest.mark.parametrize("point", ["inf,0.2", "0.5,-Infinity", "1e-99999999999,0.2"])
    def test_point_must_be_finite_and_bounded(self, capsys, tmp_path, grid_capacity_file, point):
        spath = write(tmp_path, "scale.json", {"levels": ["0", "0.5", "1"]})
        started = time.perf_counter()
        code, payload = run_json(
            capsys,
            "levels", "eval",
            "--scale", spath,
            "--capacity", grid_capacity_file,
            f"--point={point}",
        )
        assert time.perf_counter() - started < 1
        assert code == 2
        assert payload["error"]["code"] == "file_format"
        assert payload["error"]["field"] == "point"


class TestMobius:
    def test_unsigned_coefficients(self, capsys, tmp_path):
        base = antichain(2)
        lattice = cq.DownsetLattice(base)
        capacity = cq.GeneralizedCapacity(
            lattice,
            {
                frozenset(): 0,
                frozenset({"1"}): "0.3",
                frozenset({"2"}): "0.4",
                frozenset({"1", "2"}): 1,
            },
        )
        cpath = write(tmp_path, "capacity.json", fileio.capacity_payload(capacity))
        code, payload = run_json(capsys, "mobius", "--capacity", cpath)
        assert code == 0
        table = {tuple(entry["downset"]): entry["value"] for entry in payload["coefficients"]}
        assert table[("1", "2")] == "3/10"

    def test_requires_exactly_one_input(self, capsys):
        for inputs in ([], ["--capacity", "a.json", "--bipolar-capacity", "b.json"]):
            code, payload = run_json(capsys, "mobius", *inputs)
            assert code == 2
            assert payload["error"]["code"] == "usage"
            assert payload["error"]["message"] == (
                "provide exactly one of --capacity / --bipolar-capacity"
            )

    def test_bipolar_capacity_off_a_mosaic_exits_2(self, capsys, tmp_path):
        capacity = random_bipolar_capacity(random.Random(3), cq.DownsetLattice(wedge_poset()))
        path = write(tmp_path, "wedge_bipolar.json", fileio.bipolar_capacity_payload(capacity))
        code, payload = run_json(capsys, "mobius", "--bipolar-capacity", path)
        assert code == 2
        assert payload["error"]["code"] == "not_regular_mosaic"


class TestSelftest:
    def test_selftest_passes(self, capsys):
        code, payload = run_json(capsys, "selftest")
        assert code == 0
        assert payload["all_ok"] is True
        assert all(check["ok"] for check in payload["checks"])


def cut(text: str) -> str:
    """How an error message quotes a rendering longer than 64 characters."""
    return f"{text[:24]}... ({len(text)} characters)"


class TestBoundedMessages:
    """A value quoted in an error message is cut to its first 24 characters
    and its length once its rendering passes 64 characters, so no message
    grows with the value; codes and context fields are unchanged, and a
    shorter rendering is quoted whole."""

    def test_limit(self):
        assert _shown("7" * 64) == "7" * 64
        assert _shown("7" * 65) == "7" * 24 + "... (65 characters)"

    def test_profile_value(self, capsys, tmp_path):
        _, _, cpath, _ = choquet_files(tmp_path)
        ppath = write(tmp_path, "big.json", {"values": {"a": "1e400", "b": "0", "c": "0"}})
        code, payload = run_json(
            capsys, "choquet", "eval", "--capacity", cpath, "--profile", ppath
        )
        assert code == 2
        assert payload["error"] == {
            "code": "value_out_of_range",
            "message": f"profile value {cut(str(10**400))} at 'a' is outside [0, 1]",
            "label": "a",
            "file": ppath,
        }
        assert len(payload["error"]["message"]) < 100

    def test_short_value_is_quoted_whole(self, capsys, tmp_path):
        _, _, cpath, _ = choquet_files(tmp_path)
        ppath = write(tmp_path, "two.json", {"values": {"a": "2", "b": "0", "c": "0"}})
        code, payload = run_json(
            capsys, "choquet", "eval", "--capacity", cpath, "--profile", ppath
        )
        assert code == 2
        assert payload["error"]["message"] == "profile value 2 at 'a' is outside [0, 1]"

    def test_point_coordinate(self, capsys, tmp_path, grid_capacity_file):
        spath = write(tmp_path, "scale.json", {"levels": ["0", "0.5", "1"]})
        coordinate = "-1/" + "9" * 900
        code, payload = run_json(
            capsys,
            "levels", "eval",
            "--scale", spath,
            "--capacity", grid_capacity_file,
            f"--point={coordinate},0.2",
        )
        assert code == 2
        assert payload["error"] == {
            "code": "out_of_scale",
            "message": f"coordinate {cut(coordinate)} of criterion 1 outside [0, 1]",
            "criterion": 1,
        }

    def test_point_text(self, capsys):
        point = "," + "1" * 5000
        code, payload = run_json(
            capsys,
            "levels", "eval",
            "--scale", "s.json",
            "--capacity", "c.json",
            f"--point={point}",
        )
        assert code == 2
        assert payload["error"] == {
            "code": "file_format",
            "message": f"empty coordinate in point {cut(repr(point))}",
            "field": "point",
        }

    def test_signed_profile_value(self):
        with pytest.raises(cq.ValueOutOfRange) as info:
            cq.BipolarProfile(wedge_poset(), {"a": "-1e400", "b": "0", "c": "0"})
        assert str(info.value) == f"signed value {cut(str(-(10**400)))} at 'a' is outside [-1, 1]"

    def test_negative_score(self):
        score = "-" + "9" * 100
        with pytest.raises(cq.NegativeScore) as info:
            cq.choquet_classical(lambda subset: 1, {"a": score})
        assert str(info.value) == f"score {cut(score)} at 'a' is negative"
        assert info.value.context == {"label": "a"}

    def test_not_zero_one(self):
        lattice = cq.DownsetLattice(antichain(1))
        big = 10**100
        functional = cq.GeneralizedCapacity(lattice, {frozenset(): 0, frozenset({"1"}): big})
        profile = cq.Profile(lattice.base, {"1": "0.5"})
        with pytest.raises(cq.NotZeroOne) as info:
            cq.zero_one_maxmin(functional, profile)
        assert str(info.value) == f"value {cut(str(big))} at ['1'] is not 0 or 1"

    @pytest.mark.parametrize(
        "raw, message",
        [
            ("1" * 500 + "/0", "zero denominator in {}"),
            ("x" * 500, "cannot parse {} as a rational"),
            (" " * 2000 + "nan", "{} is not a finite number"),
            ("1" * 900 + "e2000", "exponent beyond 1000 in {}"),
        ],
        ids=["zero_denominator", "unparsable", "not_finite", "exponent"],
    )
    def test_number_text(self, raw, message):
        with pytest.raises(ValueError) as info:
            cq.as_fraction(raw)
        assert str(info.value) == message.format(cut(repr(raw)))


def chain_capacity_file(tmp_path, m: int) -> str:
    """A capacity i/m on the i-th downset of a chain of ``m`` elements."""
    labels = [f"x{i:02d}" for i in range(m)]
    lattice = {"elements": labels, "covers": [[a, b] for a, b in zip(labels, labels[1:])]}
    values = [{"downset": labels[:i], "value": f"{i}/{m}"} for i in range(m + 1)]
    return write(tmp_path, "chain.json", {"lattice": lattice, "values": values})


class TestLargeExactValues:
    """Every exact value the CLI prints goes through one rendering: a
    numerator or denominator past the interpreter's int-to-string limit
    exits 2 with ``size_limit_exceeded``, and a value past the double range
    prints its exact text with ``float`` null."""

    def test_too_many_digits(self, capsys, tmp_path):
        # 12 values of 490-digit denominators, nearly coprime: the value's
        # denominator has several thousand digits
        labels = [f"x{i:02d}" for i in range(12)]
        denominators = [10**489 + 2 * k + 1 for k in range(12)]
        values = {
            label: f"{q // (k + 2)}/{q}" for k, (label, q) in enumerate(zip(labels, denominators))
        }
        ppath = write(tmp_path, "profile.json", {"values": values})
        assert os.path.getsize(ppath) < 12_000
        code, payload = run_json(
            capsys, "choquet", "eval", "--capacity", chain_capacity_file(tmp_path, 12),
            "--profile", ppath,
        )
        assert code == 2
        assert payload["error"]["code"] == "size_limit_exceeded"
        assert payload["error"]["cap"] == sys.get_int_max_str_digits()

    @pytest.mark.parametrize("report", [[], ["--cross-check"]])
    def test_common_denominator_over_the_budget(self, capsys, tmp_path, report):
        """200 values of distinct 490-digit denominators, in a profile or in
        a capacity: their common denominator could reach 325,000 bits, and
        the sum is refused before it is computed."""
        m = 200
        labels = [f"x{i:02d}" for i in range(m)]
        values = long_denominator_values(labels)
        cpath = chain_capacity_file(tmp_path, m)
        ppath = write(tmp_path, "profile.json", {"values": values})
        code, payload = run_json(
            capsys, "choquet", "eval", "--capacity", cpath, "--profile", ppath, *report
        )
        assert code == 2
        assert payload["error"]["code"] == "size_limit_exceeded"
        assert payload["error"]["cap"] == MAX_DENOMINATOR_BITS
        capacity = json.loads(Path(cpath).read_text(encoding="utf-8"))
        for entry, value in zip(capacity["values"], ["0", *reversed(values.values())]):
            entry["value"] = value
        cpath = write(tmp_path, "capacity.json", capacity)
        code, payload = run_json(capsys, "mobius", "--capacity", cpath)
        assert code == 2
        assert payload["error"]["code"] == "size_limit_exceeded"

    def test_moebius_coefficients_with_too_many_digits(self, capsys, tmp_path):
        lattice = cq.DownsetLattice(antichain(4))
        values = {d: f"1/{10**490 + 2 * k + 1}" for k, d in enumerate(lattice.elements)}
        capacity = cq.GeneralizedCapacity(lattice, values)
        cpath = write(tmp_path, "capacity.json", fileio.capacity_payload(capacity))
        code, payload = run_json(capsys, "mobius", "--capacity", cpath)
        assert code == 2
        assert payload["error"]["code"] == "size_limit_exceeded"

    def test_too_large_for_a_float(self, capsys, tmp_path):
        values = [
            {"node": [i, j], "value": "1e400" if (i, j) == (1, 1) else "0"}
            for i in range(2) for j in range(2)
        ]
        cpath = write(tmp_path, "grid.json", {"k": 2, "n": 2, "values": values})
        ppath = write(tmp_path, "profile.json", {"values": {"c1l1": "0.5", "c2l1": "0.3"}})
        code, payload = run_json(
            capsys, "kary", "eval", "--capacity", cpath, "--profile", ppath, "--cross-check"
        )
        assert code == 0
        assert payload["value"] == str(3 * 10**399)
        assert payload["float"] is None
        assert payload["cross_check"]["value"] == payload["value"]

    def test_a_float_in_range_is_printed(self, capsys, tmp_path):
        _, _, cpath, ppath = choquet_files(tmp_path)
        code, payload = run_json(capsys, "choquet", "eval", "--capacity", cpath, "--profile", ppath)
        assert code == 0
        assert payload["float"] == float(Fraction(payload["value"]))


def write_text(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestJsonNumberLiterals:
    """A JSON number literal is read by the bounded string reader, so it
    keeps its exact decimal value and obeys the same limits as a string;
    the non-finite literals are not JSON numbers at all."""

    def profile_run(self, capsys, tmp_path, literal):
        _, _, cpath, _ = choquet_files(tmp_path)
        ppath = write_text(
            tmp_path, "literal.json", f'{{"values": {{"a": {literal}, "b": 0, "c": 0}}}}'
        )
        return run_json(capsys, "choquet", "eval", "--capacity", cpath, "--profile", ppath)

    def test_huge_literal_in_a_profile_is_out_of_range(self, capsys, tmp_path):
        code, payload = self.profile_run(capsys, tmp_path, "1e400")
        assert code == 2
        assert payload["error"]["code"] == "value_out_of_range"
        assert payload["error"]["label"] == "a"

    @pytest.mark.parametrize(
        "literal", ["1e2000", "Infinity", "-Infinity", "NaN", '"1e_2000"', '"1e-_2000"']
    )
    def test_unbounded_literals_are_file_format_errors(self, capsys, tmp_path, literal):
        code, payload = self.profile_run(capsys, tmp_path, literal)
        assert code == 2
        assert payload["error"]["code"] == "file_format"

    @pytest.mark.parametrize(
        "literal, value",
        [("1e-400", Fraction(1, 10**400)), ("0.30000000000000001", Fraction(30000000000000001, 10**17))],
    )
    def test_literals_read_exactly(self, tmp_path, literal, value):
        path = write_text(tmp_path, "exact.json", f'{{"values": {{"a": {literal}, "b": 0, "c": 0}}}}')
        assert cli._load(path, fileio.parse_profile, wedge_poset()).values["a"] == value

    def test_huge_literal_in_a_capacity_loads_exactly(self, capsys, tmp_path):
        cells = ", ".join(
            f'{{"node": [{i}, {j}], "value": {"1e400" if (i, j) == (1, 1) else 0}}}'
            for i in range(2) for j in range(2)
        )
        cpath = write_text(tmp_path, "grid.json", f'{{"k": 2, "n": 2, "values": [{cells}]}}')
        _, _, capacity = cli._load(cpath, fileio.parse_kary_capacity)
        assert capacity.values[capacity.lattice.top] == 10**400
        ppath = write(tmp_path, "profile.json", {"values": {"c1l1": "1", "c2l1": "1"}})
        code, payload = run_json(capsys, "kary", "eval", "--capacity", cpath, "--profile", ppath)
        assert code == 0
        assert payload["value"] == str(10**400)
        assert payload["float"] is None


# the words of generated argvs: the option names of every command, alone and
# with "=", values, help, unknown and abbreviated options, and the command
# words themselves
OPTION_NAMES = sorted({a for _, arguments in cli.COMMANDS.values() for a in arguments} - {"file"})
VALUE_WORDS = ["a.json", "-0.3", "-5"]
# The reader, like argparse on Python 3.11, takes "-0.3,0.2" after an option
# for an option, not a value; the word joins the pool only where the running
# argparse reads it so too.
if oracle_read(["levels", "eval", "--scale", "s", "--capacity", "c", "--point", "-0.3,0.2"]) == (
    "error"
):
    VALUE_WORDS.append("-0.3,0.2")
STRAY_WORDS = [
    *OPTION_NAMES,
    *(f"{name}=b.json" for name in OPTION_NAMES),
    *VALUE_WORDS,
    "-h",
    "--help",
    "--help=x",
    "--bogus",
    "--bogus=1",
    "--cap",
    "--cross",
    *sorted({word for words in cli.COMMANDS for word in words.split()}),
]

RARELY = st.sampled_from([False] * 3 + [True])


@st.composite
def argv_lists(draw):
    """An argv near a valid one: a command's words, then usually each of its
    arguments (the file, a flag, or an option given a value once or twice,
    after it or after "="), in any order.
    Now and then a few stray words or help join them, a command word is
    lost, or a stray word comes before or between the command words."""
    words = draw(st.sampled_from(list(cli.COMMANDS))).split()
    _, arguments = cli.COMMANDS[" ".join(words)]
    pieces = []
    for name, kind in arguments.items():
        if kind in (cli.FLAG, cli.VALUE) and draw(st.booleans()):
            continue
        if kind in (cli.FILE, cli.REQUIRED) and draw(RARELY):
            continue
        if kind == cli.FLAG:
            pieces.append([name])
        elif kind == cli.FILE:
            pieces.append([draw(st.sampled_from(VALUE_WORDS))])
        else:  # given once or twice
            for value in draw(st.lists(st.sampled_from(VALUE_WORDS), min_size=1, max_size=2)):
                pieces.append(draw(st.sampled_from([[name, value], [f"{name}={value}"]])))
    if draw(RARELY):
        pieces += [[word] for word in draw(st.lists(st.sampled_from(STRAY_WORDS), max_size=3))]
    if draw(RARELY):
        pieces.append([draw(st.sampled_from(["-h", "--help"]))])
    if draw(RARELY):
        del words[draw(st.integers(0, len(words) - 1))]
    if draw(RARELY):
        words.insert(draw(st.integers(0, len(words))), draw(st.sampled_from(STRAY_WORDS)))
    return words + [word for piece in draw(st.permutations(pieces)) for word in piece]


class TestArgumentReader:
    @settings(max_examples=500, deadline=None)
    @given(argv_lists())
    def test_reader_matches_the_old_parser(self, argv):
        """Where argparse accepted an argv, the reader gives the same handler
        and values; where argparse refused it, the CLI exits 2 with code
        ``usage``; where argparse printed help, so does the CLI."""
        expected = oracle_read(argv)
        out = io.StringIO()
        try:
            with redirect_stdout(out):
                got = main(argv) if expected == "error" else cli.read_argv(argv)
        except SystemExit as exit:
            assert exit.code == 0
            assert out.getvalue().startswith("usage: choqlat ")
            got = "help"
        if expected == "error":
            assert got == 2
            assert json.loads(out.getvalue())["error"]["code"] == "usage"
        elif expected == "help":
            assert got == "help"
        else:
            assert (got[0], vars(got[1])) == expected

    @pytest.mark.parametrize(
        "argv, handler, values",
        [
            (
                ["levels", "eval", "--point", "-0.3", "--scale=s.json", "--capacity", "c.json",
                 "--capacity=d.json", "--bipolar", "--bipolar"],
                "cmd_levels_eval",
                {"scale": "s.json", "capacity": "d.json", "point": "-0.3", "bipolar": True},
            ),
            (["poset", "check", "--dot", "-5"], "cmd_poset_check", {"file": "-5", "dot": True}),
            (
                ["mobius", "--capacity=a=b"],
                "cmd_mobius",
                {"capacity": "a=b", "bipolar_capacity": None},
            ),
            (["selftest"], "cmd_selftest", {}),
        ],
        ids=["repeats_and_equals", "negative_number_file", "value_with_equals", "no_arguments"],
    )
    def test_reads_the_grammar(self, argv, handler, values):
        name, args = cli.read_argv(argv)
        assert name == handler
        assert vars(args) == values

    def test_handlers_are_looked_up_when_they_run(self, capsys, monkeypatch):
        assert all(callable(getattr(cli, name)) for name, _ in cli.COMMANDS.values())
        monkeypatch.setattr(cli, "cmd_selftest", lambda args: {"stand_in": vars(args)})
        code, payload = run_json(capsys, "selftest")
        assert (code, payload) == (0, {"stand_in": {}})
