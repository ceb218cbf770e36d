"""The benchmark's span tracer (bench/tracing.py) still finds every name it
patches, and puts the originals back."""

import sys
from pathlib import Path

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
