"""The benchmark's span tracer (bench/tracing.py) still finds every name it
patches, and puts the originals back."""

import importlib
import sys
from pathlib import Path

import pytest

import choqlat as cq
from choqlat import moebius

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_install_patches_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as checked out
    import tracing

    init = moebius.GeneralizedCapacity.__dict__["__init__"]
    transform = moebius.moebius_transform
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        lattice = cq.DownsetLattice(cq.Poset(["a"]))
        cq.GeneralizedCapacity(lattice, {frozenset(): 0, frozenset({"a"}): 1})
    finally:
        restore()
    assert tracer.stats["moebius.capacity_build"][0] == 1
    assert moebius.GeneralizedCapacity.__dict__["__init__"] is init
    assert moebius.moebius_transform is transform and cq.moebius_transform is transform



def test_chain_spans_fire(monkeypatch):
    """An unsigned and a signed evaluation each pass through the module
    level triangulate, so both record the span and the chain length size
    that the benchmark's per-layer metrics read."""
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    import tracing

    base = cq.build_kary_base(3, 2)
    lattice = cq.DownsetLattice(base)
    capacity = cq.GeneralizedCapacity(lattice, {x: len(x) for x in lattice.elements})
    signed = cq.BipolarCapacity(
        lattice, {p: len(p.pos) - len(p.neg) for p in cq.admissible_vertex_pairs(lattice)}
    )
    calls = [
        lambda: cq.natural_extension(
            capacity, cq.Profile(base, {"c1l1": "1/2", "c1l2": "1/4", "c2l1": "1/3", "c2l2": 0})
        ),
        # criterion 2 negative: the chain splits along a tile
        lambda: cq.evaluate_bipolar(
            signed,
            cq.BipolarProfile(base, {"c1l1": "1/2", "c1l2": "1/4", "c2l1": "-1/3", "c2l2": 0}),
        ),
    ]
    for call in calls:
        tracer = tracing.Tracer()
        restore = tracing.install(tracer)
        try:
            call()
        finally:
            restore()
        assert tracer.stats["interpolation.triangulate"][0] == 1
        assert tracer.sizes["interpolation.chain_length"] == 5


def _tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    import tracing

    return tracing


def _target(module_name: str, attribute: str):
    """What a ``TARGETS`` entry names: a module attribute, or a member in a
    class's own ``__dict__``."""
    module = importlib.import_module(module_name)
    owner_name, _, member = attribute.rpartition(".")
    if owner_name:
        return getattr(module, owner_name).__dict__[member]
    return getattr(module, attribute)


def test_every_target_resolves_and_is_restored(monkeypatch):
    tracing = _tracing(monkeypatch)
    names = [(module, attribute) for module, attribute, _, _ in tracing.TARGETS]
    originals = [_target(*name) for name in names]
    restore = tracing.install(tracing.Tracer())
    try:
        patched = [_target(*name) for name in names]
    finally:
        restore()
    assert [name for name, p, o in zip(names, patched, originals) if p is o] == []
    assert all(_target(*name) is o for name, o in zip(names, originals))


BASE = cq.build_kary_base(3, 2)
GRID = cq.DownsetLattice(BASE)
UNSIGNED = {"c1l1": "1/2", "c1l2": "1/4", "c2l1": "1/3", "c2l2": 0}
SIGNED = {"c1l1": "1/2", "c1l2": "1/4", "c2l1": "-1/3", "c2l2": 0}
TABLE = {x: len(x) for x in GRID.elements}
SIGNED_TABLE = {p: len(p.pos) - len(p.neg) for p in cq.admissible_vertex_pairs(GRID)}
# the spans of the profile and capacity constructors and of the transforms
BUILD_SPANS = [
    "interpolation.profile",
    "bipolar.profile",
    "moebius.capacity_build",
    "bipolar.capacity_build",
    "moebius.transform",
    "moebius.bipolar_transform",
]


@pytest.mark.parametrize(
    "build, spans",
    [
        (lambda: cq.Profile(BASE, UNSIGNED), {"interpolation.profile": 1}),
        (lambda: cq.BipolarProfile(BASE, SIGNED), {"bipolar.profile": 1}),
        (cq.BipolarProfile(BASE, SIGNED).magnitude, {}),
        (lambda: cq.GeneralizedCapacity(GRID, TABLE), {"moebius.capacity_build": 1}),
        (lambda: cq.BipolarCapacity(GRID, SIGNED_TABLE), {"bipolar.capacity_build": 1}),
        # a transform's output is built by the public constructor
        (
            lambda: cq.moebius_transform(cq.GeneralizedCapacity(GRID, TABLE)),
            {"moebius.capacity_build": 2, "moebius.transform": 1},
        ),
        (
            lambda: cq.zeta_transform(cq.GeneralizedCapacity(GRID, TABLE)),
            {"moebius.capacity_build": 2},
        ),
        (
            lambda: cq.bipolar_moebius_transform(GRID, SIGNED_TABLE),
            {"moebius.bipolar_transform": 1},
        ),
    ],
    ids=[
        "profile",
        "bipolar_profile",
        "magnitude",
        "capacity",
        "bipolar_capacity",
        "moebius_transform",
        "zeta_transform",
        "bipolar_moebius_transform",
    ],
)
def test_each_build_records_its_own_span(monkeypatch, build, spans):
    tracing = _tracing(monkeypatch)
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        build()
    finally:
        restore()
    recorded = {name: tracer.stats[name][0] for name in BUILD_SPANS if tracer.stats[name][0]}
    assert recorded == spans
