"""cross-check: dual-path verification, one fresh capacity per op.

Set-up enumerates three lattices once: the (k=5, n=3) grid, the Boolean
lattice on 8 atoms, and the (k=4, n=3) grid whose bipolar extension has 343
pairs. Each op builds a capacity from a value table, takes its Moebius
transform, evaluates one profile directly and through the Moebius form, and
requires both to equal the reference value.
"""

from __future__ import annotations

from choqlat import bipolar, birkhoff, interpolation, kary, moebius, poset

import reference as ref

VARIANTS = 24  # value tables per instance, cycled through
BOOLEAN_ATOMS = [f"x{i}" for i in range(1, 9)]


class CrossCheck:
    def __init__(self, rng):
        grid = (ref.grid_labels(5, 3), ref.grid_covers(5, 3))
        boolean = (BOOLEAN_ATOMS, [])
        signed_grid = (ref.grid_labels(4, 3), ref.grid_covers(4, 3))
        self.instances = [
            ("grid-5-3", False, self._unsigned_variants(rng, *grid)),
            ("boolean-8", False, self._unsigned_variants(rng, *boolean)),
            ("bipolar-grid-4-3", True, self._signed_variants(rng, *signed_grid)),
        ]

    @staticmethod
    def _unsigned_variants(rng, labels, covers):
        elements = ref.downsets(labels, covers)
        out = []
        for _ in range(VARIANTS):
            coefficients = ref.poset_moebius(rng, elements, 16)
            profile = ref.poset_profile(rng, labels, covers)
            out.append((
                ref.zeta(coefficients, elements),
                {j: ref.render(v, rng) for j, v in profile.items()},
                ref.form_value(coefficients, profile),
            ))
        return out

    @staticmethod
    def _signed_variants(rng, labels, covers):
        pairs = ref.admissible_pairs(labels, covers)
        count = len(ref.components(labels, covers))
        out = []
        for _ in range(VARIANTS):
            coefficients = ref.signed_poset_moebius(rng, pairs, 24)
            profile = ref.poset_profile(
                rng, labels, covers, [rng.choice((1, -1)) for _ in range(count)]
            )
            out.append((
                ref.signed_zeta(coefficients, pairs),
                {j: ref.render(v, rng) for j, v in profile.items()},
                ref.signed_form_value(coefficients, profile),
            ))
        return out

    def setup(self):
        """Enumerate the three lattices the ops build capacities on."""
        self.lattices = [
            birkhoff.DownsetLattice(kary.build_kary_base(5, 3)),
            birkhoff.DownsetLattice(poset.Poset(BOOLEAN_ATOMS)),
            birkhoff.DownsetLattice(kary.build_kary_base(4, 3)),
        ]
        for lattice in self.lattices:
            lattice.elements

    @staticmethod
    def _unsigned(lattice, table, values):
        capacity = moebius.GeneralizedCapacity(lattice, table)
        vector = moebius.moebius_transform(capacity)
        profile = interpolation.Profile(lattice.base, values)
        return (
            interpolation.natural_extension(capacity, profile),
            interpolation.moebius_form_eval(vector, profile),
        )

    @staticmethod
    def _signed(lattice, table, values):
        capacity = bipolar.BipolarCapacity(lattice, table)
        coefficients = moebius.bipolar_moebius_transform(lattice, capacity.values)
        profile = bipolar.BipolarProfile(lattice.base, values)
        return (
            bipolar.evaluate_bipolar(capacity, profile).value,
            bipolar.bipolar_moebius_form_eval(coefficients, profile),
        )

    def cycle(self, index):
        ops = []
        for lattice, (name, signed, variants) in zip(self.lattices, self.instances):
            table, values, expected = variants[index % VARIANTS]
            run = self._signed if signed else self._unsigned
            ops.append((
                name,
                lambda run=run, lattice=lattice, table=table, values=values: run(
                    lattice, table, values
                ),
                lambda result, name=name, expected=expected: _verdict(name, result, expected),
            ))
        return ops

    def close(self):
        pass


def _verdict(name, result, expected):
    direct, dual = result
    if direct != dual:
        return f"{name}: dual-path mismatch, direct {direct}, Moebius form {dual}"
    if direct != expected:
        return f"{name}: got {direct}, expected {expected}"
    return None
