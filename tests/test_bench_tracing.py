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
