"""Input-boundary cases, each run as a child under its own wall and address
bounds (:func:`run_bounded`). A row of :data:`ROWS` gives its files (name ->
JSON payload, or text as it is), the CLI's argv (or ``-c`` and a script),
its exit code, the fields of its JSON stdout by dotted path, its wall bound
in seconds and its address bound in KB. A new budget gets a row here."""

import functools
import itertools
import json
import os
import resource
import subprocess
import sys
from fractions import Fraction

import pytest
from support import chain, fan, long_denominator_values, parallel_chains

import choqlat as cq
from choqlat.fileio import lattice_payload, poset_payload
from choqlat.kary import level_label


def run_bounded(argv, cwd, wall_s: float, limit_kb: int) -> subprocess.CompletedProcess:
    """``python argv`` in ``cwd`` with the package on its path, its address space
    capped at ``limit_kb`` KB on the child only, and killed after ``wall_s`` s."""
    cap = lambda: resource.setrlimit(resource.RLIMIT_AS, (limit_kb * 1024,) * 2)
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cq.__file__))}
    return subprocess.run([sys.executable, *argv], cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=wall_s, preexec_fn=cap)


def evaluate(command: str, capacity: str, *flags) -> tuple:
    return (command, "eval", "--capacity", capacity, "--profile", "profile.json", *flags)


def grid76() -> dict:
    nodes = itertools.product(range(7), repeat=6)
    values = [{"node": list(node), "value": str(Fraction(sum(node), 36))} for node in nodes]
    levels = itertools.product(range(1, 7), repeat=2)
    profile = {level_label(i, l): str(Fraction(max(0, 10 - l - i), 10)) for i, l in levels}
    return {"grid76.json": {"k": 7, "n": 6, "values": values}, "profile.json": {"values": profile}}


def grid76_bad_last_value() -> dict:
    files = grid76()
    files["grid76.json"]["values"][-1]["value"] = "1/0"
    return files


def chains128() -> dict:
    base = parallel_chains(128)
    a, b = base.elements[:128], base.elements[128:]
    values = [{"downset": [*a[:i], *b[:j]], "value": f"{(i + 1) * (j + 1) - 1}/16640"}
              for i, j in itertools.product(range(129), repeat=2)]
    profile = {x: f"{128 - i}/129" for i, x in enumerate(a)}
    profile.update({x: f"{128 - i}/258" for i, x in enumerate(b)})
    capacity = {"lattice": poset_payload(base), "values": values}
    return {"chains128.json": capacity, "profile.json": {"values": profile}}


def exponent(literal: str) -> tuple:
    """Files, argv, exit and fields of a profile of ``literal`` (JSON text)."""
    values = [{"downset": [], "value": "0"}, {"downset": ["a"], "value": "1"}]
    capacity = {"lattice": poset_payload(cq.Poset(["a"])), "values": values}
    files = {"capacity.json": capacity, "profile.json": f'{{"values": {{"a": {literal}}}}}'}
    text = literal.strip('"')
    where = "bad value in a" if text != literal else "profile.json is not valid JSON"
    message = f"{where}: exponent beyond 1000 in {text!r}"
    fields = {"error.code": "file_format", "error.message": message}
    return (lambda: files), evaluate("choquet", "capacity.json"), 2, fields


def chain1024(value) -> dict:
    base = chain(1024)
    labels = base._topo  # bottom first
    values = [{"downset": labels[:i], "value": value(i)} for i in range(1025)]
    capacity = {"lattice": poset_payload(base), "values": values}
    return {"chain1024.json": capacity, "profile.json": {"values": long_denominator_values(labels)}}


# 2^40 downsets: each operation is decided on the base's masks, with none enumerated
ELEMENT_OPERATIONS = """
import choqlat as cq
atoms = [f"x{i:02d}" for i in range(40)]
lattice = cq.DownsetLattice(cq.Poset(atoms))
assert {"x00", "x39"} in lattice and {"zz"} not in lattice
assert lattice.join({"x00"}, {"x01"}) == {"x00", "x01"}
assert cq.tile(lattice, {"x00"}).negative == lattice.top - {"x00"}
signed = {x: {"x00": 1, "x01": -1}.get(x, 0) for x in atoms}
assert cq.psi(lattice, {"x00"}, signed) == ({"x00"}, {"x01"})
assert cq.lattice_moebius(lattice, (), {"x00", "x01", "x02"}) == -1
"""
GRID76, CHAINS128 = evaluate("kary", "grid76.json"), evaluate("choquet", "chains128.json")
CHAIN1024 = evaluate("choquet", "chain1024.json", "--cross-check")
LIMIT, AGREE = {"error.code": "size_limit_exceeded"}, {"cross_check.agrees": True}
CHAINS256 = lambda: {"c.json": lattice_payload(cq.DownsetLattice(parallel_chains(256)))}
ROWS = {
    # 65537 disjoint pairs, built per downset (an |L|^2 scan takes minutes)
    "fan15": (lambda: {"f.json": lattice_payload(cq.DownsetLattice(fan(15)))},
              ("bipolar", "enumerate", "f.json"), 0, {"count": 65537}, 60, 300000),
    # over the element budget, refused before its order is built (45 s, 1.35 GB)
    "chain8000": (lambda: {"c.json": poset_payload(chain(8000))}, ("poset", "check", "c.json"),
                  2, LIMIT, 20, 100000),
    # at the budget: one mask step per pair of elements (a bound scan took hours)
    "explicit-chain1024": (
        lambda: {"c.json": {"role": "explicit_lattice", **poset_payload(chain(1024))}},
        ("lattice", "verify", "c.json"), 0, {"element_count": 1024}, 60, 200000),
    # 67,502,592 labels to print, refused on the pairs' codes; 66049 downsets, counted as codes
    "chains256-enumerate": (CHAINS256, ("bipolar", "enumerate", "c.json"), 2, LIMIT, 15, 500000),
    "chains256-verify": (CHAINS256, ("lattice", "verify", "c.json"), 0, {"element_count": 66049},
                         15, 500000),
    # names none of its 10**6 nodes: short before its lattice is built (14 s, 1.6 GB)
    "grid-short": (
        lambda: {"g.json": '{"k": 10, "n": 6, "values": []}', "profile.json": {"values": {}}},
        evaluate("kary", "g.json"), 2, {"error.code": "base_mismatch"}, 10, 500000),
    # 117649 grid nodes (5.6 MB), 16641 label entries (17.6 MB): both paths read codes
    "grid76": (grid76, GRID76, 0, {"value": "14/45"}, 30, 180000),
    "grid76-cross-check": (grid76, (*GRID76, "--cross-check"), 0,
                           {"value": "14/45", "cross_check.value": "14/45", **AGREE}, 30, 150000),
    # the whole-list pass declines on the last value, then the per-entry loop reads every entry
    # (0.75-0.84 s, 1.06-1.29 s beside two busy cores, 86-91 MB VmPeak)
    "grid76-last-value-bad": (grid76_bad_last_value, GRID76, 2,
                              {"error.code": "file_format",
                               "error.message": "bad value in value: zero denominator in '1/0'"},
                              3, 180000),
    # labels interned as the file is parsed: 60 MB VmPeak (196 MB with one str per occurrence)
    "chains128": (chains128, CHAINS128, 0, {"value": "9467/44720"}, 30, 120000),
    "chains128-cross-check": (chains128, (*CHAINS128, "--cross-check"), 0,
                              {"value": "9467/44720", "cross_check.value": "9467/44720", **AGREE},
                              30, 120000),
    # exponents bounded as Decimal reads them, in strings and in json.load's literals
    "exponent-1e-_4000000": (*exponent('"1e-_4000000"'), 10, 500000),
    "exponent-1e_4000000": (*exponent('"1e_4000000"'), 10, 500000),
    "exponent-1e-4000000": (*exponent("1e-4000000"), 10, 500000),
    "exponent-1e4000000": (*exponent("1e4000000"), 10, 500000),
    "element-operations": (dict, ("-c", ELEMENT_OPERATIONS), 0, {}, 10, 500000),
    # a common denominator of up to 1,658,612 bits is refused before it is computed
    # (over 20 s); a capacity with one step scales one level's denominator only
    "common-denominator": (lambda: chain1024(lambda i: f"{i}/1024"), CHAIN1024, 2, LIMIT,
                           10, 150000),
    "common-denominator-one-step": (lambda: chain1024(lambda i: str(int(i > 0))), CHAIN1024,
                                    0, AGREE, 10, 150000),
}


@pytest.mark.parametrize("files, argv, code, expect, wall_s, limit_kb", ROWS.values(), ids=ROWS)
def test_boundary(files, argv, code, expect, wall_s, limit_kb, tmp_path):
    for name, payload in files().items():
        text = payload if isinstance(payload, str) else json.dumps(payload, separators=(",", ":"))
        (tmp_path / name).write_text(text)
    argv = argv if argv[0] == "-c" else ("-m", "choqlat.cli", *argv)
    done = run_bounded(argv, tmp_path, wall_s, limit_kb)
    assert done.returncode == code, done.stderr
    out = json.loads(done.stdout) if expect else {}
    assert {p: functools.reduce(dict.__getitem__, p.split("."), out) for p in expect} == expect, out
