"""cli-cold: one fresh ``python -m choqlat.cli`` process per op.

Set-up writes the op files into a work directory inside the checkout and
works out every expected answer with the reference. Ops run one child at a
time, with ``PYTHONPATH=src`` because the package is not installed. Each
cycle runs the ten valid op kinds once and one invalid file, which must
exit 2 with its stable error ``code``.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import reference as ref

HERE = Path(__file__).resolve().parent
OP_TIMEOUT_S = 60
VARIANTS = 4

# A regular mosaic with four components: a diamond, two chains and a point.
BASE = (
    list("abcdefghij"),
    [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d"), ("e", "f"), ("f", "g"), ("i", "j")],
)
# One component with two bottoms (p and r), so not a regular mosaic.
WEDGE = (list("pqrst"), [("p", "q"), ("r", "q"), ("s", "t")])
# Downsets of {x < y, z, w}: a 12-element distributive lattice.
SMALL_BASE = (["w", "x", "y", "z"], [("x", "y")])
PENTAGON = (
    ["0", "a", "b", "c", "1"],
    [("0", "a"), ("a", "b"), ("b", "1"), ("0", "c"), ("c", "1")],
)
GRID = (5, 3)
SIGNED_GRID = (4, 3)
LEVELS = ["0", "0.2", "9/20", "0.7", "1"]
SIGNED_LEVELS = ["-1", "-0.6", "-1/4", "0", "1/5", "1/2", "1"]

# Inputs that break the program today and are kept out of every timed mix:
# one such op stalls the run or exhausts the machine's memory.
EXCLUDED = [
    {
        "input": 'profile value "1e-99999999999"',
        "reason": "as_fraction runs for more than 30 s on it, stalling the run",
    },
    {
        "input": "grid capacity header k=200000",
        "reason": "building the chain's order is quadratic and ends in MemoryError",
    },
]
# Fails today (exit 1 with a traceback); timed only with --known-defects.
KNOWN_DEFECT = {
    "input": "JSON number 1e400 in a profile",
    "reason": "uncaught OverflowError, exit 1 instead of exit 2 with a stable code",
}


def child_env() -> dict:
    """Environment of a CLI child: the package from ``src``, and bytecode
    cached as for an installed package, whatever the caller's setting."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    return {**env, "PYTHONPATH": "src"}


def _poset(labels, covers):
    return {"elements": list(labels), "covers": [list(c) for c in covers]}


def _value(expected, agrees=False):
    def check(payload):
        if Fraction(payload["value"]) != expected:
            return f"got {payload['value']}, expected {expected}"
        if agrees and payload["cross_check"]["agrees"] is not True:
            return "staircase cross-check disagrees"
        return None

    return 0, check


def _fields(expected):
    def check(payload):
        wrong = {k: payload.get(k) for k, v in expected.items() if payload.get(k) != v}
        return f"unexpected fields {wrong}" if wrong else None

    return 0, check


def _poset_check(labels, covers):
    def check(payload):
        order = payload.get("linear_extension", [])
        rank = {x: i for i, x in enumerate(order)}
        if (
            payload.get("ok") is not True
            or payload.get("element_count") != len(labels)
            or payload.get("cover_count") != len(covers)
            or len(payload.get("components", [])) != len(ref.components(labels, covers))
            or sorted(order) != sorted(labels)
            or any(rank[lo] > rank[up] for lo, up in covers)
        ):
            return f"wrong poset report {payload}"
        return None

    return 0, check


def _error(code):
    def check(payload):
        got = payload.get("error", {}).get("code")
        return None if got == code else f"error code {got!r}, expected {code!r}"

    return 2, check


def build_files(rng):
    """Every op file's text, and the ops: (name, argv, (exit code, check))."""
    files: dict[str, str] = {}
    k, n = GRID
    grid_coefficients = ref.grid_moebius(rng, k, n, principals=8, joins=8)
    grid_table = ref.zeta(grid_coefficients, [ref.node_set(x) for x in ref.grid_nodes(k, n)])
    files["grid.json"] = json.dumps({
        "k": k,
        "n": n,
        "values": [
            {"node": list(node), "value": ref.render(grid_table[ref.node_set(node)], rng)}
            for node in ref.grid_nodes(k, n)
        ],
    })
    entries = json.loads(files["grid.json"])
    entries["values"].pop(rng.randrange(len(entries["values"])))
    files["missing.json"] = json.dumps(entries)

    sk, sn = SIGNED_GRID
    signed_coefficients = ref.signed_grid_moebius(rng, sk, sn, count=16)
    nodes = list(ref.signed_grid_nodes(sk, sn))
    signed_table = ref.signed_zeta(
        signed_coefficients, [(ref.node_set(p), ref.node_set(q)) for p, q in nodes]
    )
    files["signed_grid.json"] = json.dumps({
        "k": sk,
        "n": sn,
        "values": [
            {
                "pos": list(p),
                "neg": list(q),
                "value": ref.render(signed_table[(ref.node_set(p), ref.node_set(q))], rng),
            }
            for p, q in nodes
        ],
    })
    files["scale.json"] = json.dumps({"levels": LEVELS})
    files["signed_scale.json"] = json.dumps({"levels": SIGNED_LEVELS})

    labels, covers = BASE
    elements = ref.downsets(labels, covers)
    coefficients = ref.poset_moebius(rng, elements, 20)
    table = ref.zeta(coefficients, elements)
    capacity = {
        "lattice": _poset(labels, covers),
        "values": [{"downset": sorted(d), "value": ref.render(v, rng)} for d, v in table.items()],
    }
    files["capacity.json"] = json.dumps(capacity)
    first = capacity["values"][1]
    capacity["values"].append(
        {"downset": first["downset"], "value": str(Fraction(first["value"]) + 1)}
    )
    files["contradictory.json"] = json.dumps(capacity)

    pairs = ref.admissible_pairs(labels, covers)
    pair_coefficients = ref.signed_poset_moebius(rng, pairs, 24)
    pair_table = ref.signed_zeta(pair_coefficients, pairs)
    files["signed_capacity.json"] = json.dumps({
        "lattice": _poset(labels, covers),
        "values": [
            {"pos": sorted(p), "neg": sorted(q), "value": ref.render(v, rng)}
            for (p, q), v in pair_table.items()
        ],
    })
    files["poset.json"] = json.dumps(_poset(labels, covers))
    files["wedge.json"] = json.dumps(_poset(*WEDGE))
    small = ref.downsets(*SMALL_BASE)
    name = {d: "d_" + "".join(sorted(d)) for d in small}
    files["lattice.json"] = json.dumps({
        "role": "explicit_lattice",
        "elements": [name[d] for d in small],
        "covers": [
            [name[a], name[b]] for a in small for b in small if a < b and len(b) == len(a) + 1
        ],
    })
    files["pentagon.json"] = json.dumps({"role": "explicit_lattice", **_poset(*PENTAGON)})
    files["cycle.json"] = json.dumps(_poset("abc", [("a", "b"), ("b", "c"), ("c", "a")]))
    files["redundant.json"] = json.dumps(_poset("abc", [("a", "b"), ("b", "c"), ("a", "c")]))
    files["broken.json"] = files["poset.json"][:-7]

    valid = []
    components = len(ref.components(labels, covers))
    for i in range(VARIANTS):
        profile = ref.poset_profile(rng, labels, covers)
        signed = ref.poset_profile(
            rng, labels, covers, [rng.choice((1, -1)) for _ in range(components)]
        )
        grid_profile = ref.grid_profile(rng, k, n)
        signed_grid_profile = ref.grid_profile(
            rng, sk, sn, [rng.choice((1, -1)) for _ in range(sn)]
        )
        for name, values in (
            (f"profile{i}.json", profile),
            (f"signed_profile{i}.json", signed),
            (f"grid_profile{i}.json", grid_profile),
            (f"signed_grid_profile{i}.json", signed_grid_profile),
        ):
            files[name] = json.dumps({"values": {j: ref.render(v, rng) for j, v in values.items()}})
        point = [ref.unit_value(rng) for _ in range(n)]
        signed_point = [rng.choice((1, -1)) * ref.unit_value(rng) for _ in range(sn)]
        point_value = ref.form_value(
            grid_coefficients, ref.point_profile(point, [Fraction(v) for v in LEVELS])
        )
        signed_point_value = ref.signed_form_value(
            signed_coefficients,
            ref.signed_point_profile(signed_point, [Fraction(v) for v in SIGNED_LEVELS]),
        )
        valid.append([
            ("choquet eval",
             ["choquet", "eval", "--capacity", "capacity.json", "--profile", f"profile{i}.json"],
             _value(ref.form_value(coefficients, profile))),
            ("kary eval",
             ["kary", "eval", "--capacity", "grid.json", "--profile", f"grid_profile{i}.json"],
             _value(ref.form_value(grid_coefficients, grid_profile))),
            ("kary eval --bipolar",
             ["kary", "eval", "--bipolar", "--capacity", "signed_grid.json",
              "--profile", f"signed_grid_profile{i}.json"],
             _value(ref.signed_form_value(signed_coefficients, signed_grid_profile))),
            ("bipolar eval",
             ["bipolar", "eval", "--capacity", "signed_capacity.json",
              "--profile", f"signed_profile{i}.json"],
             _value(ref.signed_form_value(pair_coefficients, signed))),
            ("levels eval",
             ["levels", "eval", "--scale", "scale.json", "--capacity", "grid.json",
              "--point=" + ",".join(ref.render(v, rng) for v in point)],
             _value(point_value, agrees=True)),
            ("levels eval --bipolar",
             ["levels", "eval", "--bipolar", "--scale", "signed_scale.json",
              "--capacity", "signed_grid.json",
              "--point=" + ",".join(ref.render(v, rng) for v in signed_point)],
             _value(signed_point_value, agrees=True)),
            ("poset check", ["poset", "check", "poset.json"], _poset_check(labels, covers)),
            ("mosaic check", ["mosaic", "check", "wedge.json" if i % 2 else "poset.json"],
             _fields({"regular_mosaic": i % 2 == 0})),
            ("lattice verify", ["lattice", "verify", "lattice.json"],
             _fields({"distributive": True, "element_count": len(small)})),
            ("selftest", ["selftest"], _fields({"all_ok": True})),
        ])

    values = json.loads(files["grid_profile0.json"])["values"]
    files["out_of_range.json"] = json.dumps({"values": {**values, "c1l1": "1.5"}})
    files["increasing.json"] = json.dumps({"values": {**values, "c2l1": "0", "c2l2": "1/2"}})
    overflow = json.dumps({"values": {**values, "c1l1": "OVERFLOW"}})
    files["overflow.json"] = overflow.replace('"OVERFLOW"', "1e400")
    grid_eval = ["kary", "eval", "--capacity", "grid.json", "--profile"]
    invalid = [
        ("cycle", ["poset", "check", "cycle.json"], _error("cycle_detected")),
        ("redundant cover", ["poset", "check", "redundant.json"], _error("redundant_cover")),
        ("out of range", grid_eval + ["out_of_range.json"], _error("value_out_of_range")),
        ("increasing", grid_eval + ["increasing.json"], _error("not_nonincreasing")),
        ("contradictory",
         ["choquet", "eval", "--capacity", "contradictory.json", "--profile", "profile0.json"],
         _error("contradictory_value")),
        ("missing value",
         ["kary", "eval", "--capacity", "missing.json", "--profile", "grid_profile0.json"],
         _error("base_mismatch")),
        ("broken json", ["poset", "check", "broken.json"], _error("file_format")),
        ("pentagon", ["lattice", "verify", "pentagon.json"], _error("not_distributive")),
        ("out of scale",
         ["levels", "eval", "--scale", "scale.json", "--capacity", "grid.json",
          "--point", "1.5,0.2,0.3"],
         _error("out_of_scale")),
    ]
    known_defect = ("1e400", grid_eval + ["overflow.json"], _error("file_format"))
    return files, valid, invalid, known_defect


class CliCold:
    def __init__(self, rng, root: Path, known_defects: bool = False):
        self.seed = rng.randrange(2 ** 32)
        self.root = root
        self.known_defects = known_defects
        self.workdir = Path(tempfile.mkdtemp(prefix=".bench-work-", dir=root))
        self.env = child_env()
        self.traced = False
        self.child_traces: list[dict] = []

    def setup(self):
        """Generate the op files and expected answers, and write the files."""
        files, self.valid, self.invalid, self.known_defect = build_files(random.Random(self.seed))
        for name, text in files.items():
            (self.workdir / name).write_text(text, encoding="utf-8")

    def _argv(self, argv):
        prefix = os.path.relpath(self.workdir, self.root)
        return [os.path.join(prefix, a) if a.endswith(".json") else a for a in argv]

    def _run(self, argv):
        if self.traced:
            trace = os.path.relpath(self.workdir / "trace.json", self.root)
            command = [sys.executable, os.path.relpath(HERE / "cli_child.py", self.root), trace]
        else:
            command = [sys.executable, "-m", "choqlat.cli"]
        return subprocess.run(
            command + self._argv(argv),
            cwd=self.root,
            env=self.env,
            stdin=subprocess.DEVNULL,
            capture_output=True,
            text=True,
            timeout=OP_TIMEOUT_S,
        )

    def _check(self, name, expectation, proc):
        code, check = expectation
        trace = self.workdir / "trace.json"
        if self.traced and trace.exists():
            self.child_traces.append(json.loads(trace.read_text(encoding="utf-8")))
            trace.unlink()
        if "Traceback" in proc.stderr:
            last = proc.stderr.strip().splitlines()[-1]
            return f"{name}: traceback, exit {proc.returncode}: {last}"
        if proc.returncode != code:
            return f"{name}: exit {proc.returncode}, expected {code}"
        try:
            payload = json.loads(proc.stdout)
        except ValueError:
            return f"{name}: output is not JSON"
        message = check(payload)
        return f"{name}: {message}" if message else None

    def cycle(self, index):
        ops = list(self.valid[index % VARIANTS])
        ops.append(self.invalid[index % len(self.invalid)])
        if self.known_defects:
            ops.append(self.known_defect)
        return [
            (
                name,
                lambda argv=argv: self._run(argv),
                lambda proc, name=name, expected=expectation: self._check(name, expected, proc),
            )
            for name, argv, expectation in ops
        ]

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)
