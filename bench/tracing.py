"""Span tracing from outside the program.

``install`` swaps attributes of the ``choqlat`` modules for timing wrappers:
a function is replaced in every ``choqlat`` module that holds it (so calls
between modules are seen too), a method or cached property on its class.
Each span adds its duration to its parent, so a layer's self time is its
span time minus the time of the spans it caused. Counters record calls
without timing, and observers keep the largest structure sizes seen.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from functools import cached_property

# (module, attribute, span name, kind): "span" times the call, "count" only
# counts it. An attribute "Class.member" is patched on the class.
TARGETS = [
    ("choqlat.rationals", "as_fraction", "rationals.as_fraction", "count"),
    ("choqlat.birkhoff", "DownsetLattice.elements", "birkhoff.enumerate", "span"),
    ("choqlat.moebius", "GeneralizedCapacity.__init__", "moebius.capacity_build", "span"),
    ("choqlat.moebius", "moebius_transform", "moebius.transform", "span"),
    ("choqlat.moebius", "bipolar_moebius_transform", "moebius.bipolar_transform", "span"),
    ("choqlat.moebius", "rota_moebius", "moebius.rota", "count"),
    ("choqlat.interpolation", "Profile.__init__", "interpolation.profile", "span"),
    ("choqlat.interpolation", "triangulate", "interpolation.triangulate", "span"),
    ("choqlat.interpolation", "natural_extension", "interpolation.natural_extension", "span"),
    ("choqlat.interpolation", "moebius_form_eval", "interpolation.moebius_form_eval", "span"),
    ("choqlat.bipolar", "BipolarProfile.__init__", "bipolar.profile", "span"),
    ("choqlat.bipolar", "select_tile", "bipolar.select_tile", "span"),
    ("choqlat.bipolar", "evaluate_bipolar", "bipolar.evaluate", "span"),
    ("choqlat.bipolar", "admissible_vertex_pairs", "bipolar.admissible_pairs", "span"),
    ("choqlat.bipolar", "BipolarCapacity.__init__", "bipolar.capacity_build", "span"),
    ("choqlat.bipolar", "bipolar_moebius_form_eval", "bipolar.moebius_form_eval", "span"),
    ("choqlat.kary", "build_kary_base", "kary.build_base", "count"),
    ("choqlat.kary", "grid_shape", "kary.grid_shape", "span"),
    ("choqlat.kary", "locate_point", "kary.locate_point", "span"),
    ("choqlat.kary", "bipolar_level_profile", "kary.bipolar_level_profile", "span"),
    ("choqlat.kary", "interpolate_point", "kary.interpolate_point", "span"),
    ("choqlat.kary", "interpolate_signed_point", "kary.interpolate_signed_point", "span"),
]

# Every parse_* function of fileio is one span, every cmd_* of cli another.
PREFIX_TARGETS = [
    ("choqlat.fileio", "parse_", "fileio.parse"),
    ("choqlat.cli", "cmd_", "cli.handler"),
]


def _chain_length(decomposition):
    return len(decomposition.chain)


def _denominator_bits(value):
    return value.denominator.bit_length()


# span name -> (size name, measure of the span's result)
OBSERVERS = {
    "birkhoff.enumerate": ("birkhoff.lattice_size", len),
    "bipolar.admissible_pairs": ("bipolar.extension_size", len),
    "interpolation.triangulate": ("interpolation.chain_length", _chain_length),
    "rationals.as_fraction": ("rationals.max_denominator_bits", _denominator_bits),
}


class Tracer:
    """Aggregated spans: per name, calls, total ns and ns of child spans."""

    def __init__(self):
        self.stats: dict[str, list[int]] = {}
        self.sizes: dict[str, int] = {}
        self._open: list[int] = []

    def wrap(self, name: str, fn, kind: str = "span"):
        stats = self.stats.setdefault(name, [0, 0, 0])
        observer = OBSERVERS.get(name)
        sizes, open_spans, clock = self.sizes, self._open, time.perf_counter_ns

        def keep(result):
            size_name, measure = observer
            size = measure(result)
            if size > sizes.get(size_name, 0):
                sizes[size_name] = size

        if kind == "count":

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                stats[0] += 1
                result = fn(*args, **kwargs)
                if observer:
                    keep(result)
                return result

            return counted

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            open_spans.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += open_spans.pop()
                if open_spans:
                    open_spans[-1] += elapsed
            if observer:
                keep(result)
            return result

        return timed

    def snapshot(self) -> dict:
        return {"stats": {k: list(v) for k, v in self.stats.items()}, "sizes": dict(self.sizes)}


def difference(after: dict, before: dict) -> dict:
    """Spans recorded between two snapshots; sizes are the later maxima."""
    stats = {}
    for name, values in after["stats"].items():
        earlier = before["stats"].get(name, [0, 0, 0])
        stats[name] = [a - b for a, b in zip(values, earlier)]
    return {"stats": stats, "sizes": dict(after["sizes"])}


def _replace_everywhere(original, replacement, undo: list) -> None:
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "choqlat" or name.startswith("choqlat.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                undo.append((module, attr, value))
                setattr(module, attr, replacement)


def install(tracer: Tracer):
    """Patch every target; returns a function that restores the originals."""
    undo: list = []
    for module_name, attribute, span, kind in TARGETS:
        module = importlib.import_module(module_name)
        owner_name, _, member = attribute.rpartition(".")
        if not owner_name:
            original = getattr(module, attribute)
            _replace_everywhere(original, tracer.wrap(span, original, kind), undo)
            continue
        owner = getattr(module, owner_name)
        original = owner.__dict__[member]
        if isinstance(original, cached_property):
            replacement = cached_property(tracer.wrap(span, original.func, kind))
            replacement.__set_name__(owner, member)
        else:
            replacement = tracer.wrap(span, original, kind)
        undo.append((owner, member, original))
        setattr(owner, member, replacement)
    for module_name, prefix, span in PREFIX_TARGETS:
        module = importlib.import_module(module_name)
        for attr, value in list(vars(module).items()):
            if attr.startswith(prefix) and callable(value):
                _replace_everywhere(value, tracer.wrap(span, value), undo)

    def restore():
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)

    return restore
