"""Randomised agreement sweep between independent evaluation paths.

Every value the library produces has a second route: chain decomposition vs
Moebius form, corner sweep vs the natural extension of the staircase
profile, signed chain vs pair-table integral. This script hammers those
pairs with random instances and reports counts and timing; any
disagreement is a bug and exits nonzero. Like a long-running caller, it
keeps one lattice per grid across instances, so the transforms run on the
step plans cached with each lattice, and its values carry denominators
from 1 to over a dozen digits.

    python scripts/dual_path_sweep.py --instances 300 --seed 7
"""

import argparse
import random
import sys
import time
from fractions import Fraction

import choqlat as cq

GRIDS = [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3)]
DENOMINATORS = (1, 2, 3, 7, 12, 60, 97, 1024, 10**9 + 7, 3**40)


def random_fraction(rng, low=-2, high=2):
    denominator = rng.choice(DENOMINATORS)
    return Fraction(rng.randint(low * denominator, high * denominator), denominator)


def random_profile(rng, base):
    raw = {x: Fraction(rng.randint(0, 10), 10) for x in base.elements}
    return cq.Profile(
        base,
        {
            j: max(raw[x] for x in base.elements if base.leq(j, x))
            for j in base.elements
        },
    )


def random_signed_profile(rng, base):
    magnitude = random_profile(rng, base)
    signed = dict(magnitude.values)
    for component in cq.connected_components(base):
        if rng.random() < 0.5:
            for label in component.members:
                signed[label] = -signed[label]
    return cq.BipolarProfile(base, signed)


def sweep(instances, seed):
    rng = random.Random(seed)
    mismatches = 0
    started = time.perf_counter()
    lattices = [cq.DownsetLattice(cq.build_kary_base(k, n)) for k, n in GRIDS]

    for i in range(instances):
        k, n = GRIDS[i % len(GRIDS)]
        lattice = lattices[i % len(GRIDS)]
        base = lattice.base

        capacity = cq.GeneralizedCapacity(
            lattice, {d: random_fraction(rng) for d in lattice.elements}
        )
        profile = random_profile(rng, base)
        direct = cq.natural_extension(capacity, profile)
        dual = cq.moebius_form_eval(cq.moebius_transform(capacity), profile)
        mismatches += direct != dual

        scale = cq.ReferenceScale(
            tuple(Fraction(j, k - 1) for j in range(k))
        )
        point = [Fraction(rng.randint(0, 24), 24) for _ in range(n)]
        corner = cq.interpolate_point(capacity, point, scale)
        _, staircase = cq.level_profile(point, scale)
        mismatches += corner != cq.natural_extension(capacity, staircase)

        bipolar = cq.BipolarCapacity(
            lattice,
            {p: random_fraction(rng) for p in cq.admissible_vertex_pairs(lattice)},
        )
        signed = random_signed_profile(rng, base)
        chain_value = cq.bipolar_natural_extension(bipolar, signed)
        coefficients = cq.bipolar_moebius_transform(lattice, bipolar.values)
        mismatches += chain_value != cq.bipolar_moebius_form_eval(coefficients, signed)

    elapsed = time.perf_counter() - started
    print(
        f"{instances} instances x 3 path pairs on grids {GRIDS}: "
        f"{mismatches} mismatches in {elapsed:.2f}s"
    )
    return mismatches


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--instances", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    return 1 if sweep(args.instances, args.seed) else 0


if __name__ == "__main__":
    sys.exit(main())
