"""Randomised agreement sweep between independent evaluation paths.

Every value the library produces has a second route: chain decomposition vs
Moebius form, corner sweep vs the natural extension of the staircase
profile, signed chain vs pair-table integral, signed corner sweep vs the
signed natural extension of the signed staircase profile. This script
hammers those pairs with random instances and reports counts and timing; any
disagreement is a bug and exits nonzero. Like a long-running caller, it
keeps one lattice per grid across instances, so the transforms run on the
step plans cached with each lattice, and its values carry denominators
from 1 to over a dozen digits. About half of the profile values and point
coordinates reach the library as text (p/q, decimal or exponent form, with
or without surrounding spaces, half of it not in lowest terms: "2/4",
"0.50", "50e-2", "-0/3"), so both paths start from the number reader and
run on the integer pairs it reduces to lowest terms; every parsed value must
equal the Fraction it was rendered from.
Each signed dual value is computed twice, from the capacity's positional
table and from a plain dict copy of it (the value-by-value path of the
transform and of the Moebius form); the two must agree. Both capacities of
each grid instance are also written as grid files, their values rendered
the same way, and read back by the file reader, which must give them back.
Besides the grids, the instances cycle through small regular mosaics whose
components have mixed shapes (a diamond, a fan, chains, a point), some with
labels whose order is not the bit order of the base's linear extension;
those run the two profile path pairs, unsigned and signed.

    python scripts/dual_path_sweep.py --instances 300 --seed 7
"""

import argparse
import random
import sys
import time
from fractions import Fraction

import choqlat as cq
from choqlat import fileio

GRIDS = [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3)]
# regular mosaics: (labels, covers) with one bottom per component
MOSAICS = [
    # a diamond, two chains and a point, in label order
    (
        "abcdefghij",
        [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d"), ("e", "f"), ("f", "g"), ("i", "j")],
    ),
    # a diamond, a chain and a point, each component's labels descending up the order
    ("abcdmyz", [("d", "c"), ("d", "b"), ("c", "a"), ("b", "a"), ("z", "y")]),
    # a fan under one bottom, a chain and a point
    ("onmlkeq", [("o", "n"), ("o", "m"), ("o", "l"), ("k", "e")]),
]
DENOMINATORS = (1, 2, 3, 7, 12, 60, 97, 1024, 10**9 + 7, 3**40)


def random_fraction(rng, low=-2, high=2):
    denominator = rng.choice(DENOMINATORS)
    return Fraction(rng.randint(low * denominator, high * denominator), denominator)


def render(rng, value):
    """``value`` itself half of the time, else text for it: p/q, or a
    decimal or exponent form when its denominator divides a power of ten,
    with spaces around it at random. Half of the texts are not in lowest
    terms: p/q with both sides scaled up, a decimal with trailing zeros or
    an exponent form with its digits shifted ("2/4", "0.50", "50e-2"); a
    zero is written "-0" as often as "0"."""
    if rng.random() < 0.5:
        return value
    sign = "-" if value < 0 or (not value and rng.random() < 0.5) else ""
    size = abs(value)
    digits = next((d for d in range(7) if 10**d % size.denominator == 0), None)
    form = 0 if digits is None else rng.randrange(3)
    up = rng.choice((0, rng.randint(1, 3)))
    if form == 0:
        text = f"{size.numerator * (up + 1)}/{size.denominator * (up + 1)}"
    else:
        places = digits + up
        scaled = size.numerator * 10**places // size.denominator
        if form == 1:
            text = f"{scaled}e-{places}"
        else:
            whole, rest = divmod(scaled, 10**places)
            text = f"{whole}." + (f"{rest:0{places}d}" if places else "")
    return rng.choice(("", " ", "  ")) + sign + text + rng.choice(("", " "))


def round_trip(rng, capacity, payload, parse) -> bool:
    """True when ``capacity``, written as a grid file by ``payload`` with
    each value rendered, does not come back from ``parse``."""
    obj = payload(capacity)
    for row in obj["values"]:
        row["value"] = render(rng, Fraction(row["value"]))
    _, _, parsed = parse(obj)
    return parsed.values != capacity.values


def random_values(rng, base):
    raw = {x: Fraction(rng.randint(0, 10), 10) for x in base.elements}
    return {
        j: max(raw[x] for x in base.elements if base.leq(j, x))
        for j in base.elements
    }


def random_signed_values(rng, base):
    signed = random_values(rng, base)
    for component in cq.connected_components(base):
        if rng.random() < 0.5:
            for label in component.members:
                signed[label] = -signed[label]
    return signed


def sweep(instances, seed):
    rng = random.Random(seed)
    mismatches = 0
    started = time.perf_counter()
    bases = [cq.build_kary_base(k, n) for k, n in GRIDS]
    bases += [cq.Poset(labels, covers) for labels, covers in MOSAICS]
    lattices = [cq.DownsetLattice(base) for base in bases]

    for i in range(instances):
        lattice = lattices[i % len(lattices)]
        base = lattice.base
        grid = i % len(lattices) < len(GRIDS)

        capacity = cq.GeneralizedCapacity(
            lattice, {d: random_fraction(rng) for d in lattice.elements}
        )
        if grid:
            mismatches += round_trip(
                rng, capacity, fileio.kary_capacity_payload, fileio.parse_kary_capacity
            )
        values = random_values(rng, base)
        profile = cq.Profile(base, {j: render(rng, v) for j, v in values.items()})
        mismatches += profile.values != values
        direct = cq.natural_extension(capacity, profile)
        dual = cq.moebius_form_eval(cq.moebius_transform(capacity), profile)
        mismatches += direct != dual

        if grid:
            mismatches += points(rng, capacity, GRIDS[i % len(lattices)])

        bipolar = cq.BipolarCapacity(
            lattice,
            {p: random_fraction(rng) for p in cq.admissible_vertex_pairs(lattice)},
        )
        if grid:
            payload = fileio.bipolar_kary_capacity_payload
            mismatches += round_trip(rng, bipolar, payload, fileio.parse_bipolar_kary_capacity)
        values = random_signed_values(rng, base)
        signed = cq.BipolarProfile(base, {j: render(rng, v) for j, v in values.items()})
        mismatches += signed.values != values
        chain_value = cq.bipolar_natural_extension(bipolar, signed)
        coefficients = cq.bipolar_moebius_transform(lattice, bipolar.values)
        dual = cq.bipolar_moebius_form_eval(coefficients, signed)
        mismatches += chain_value != dual
        plain = cq.bipolar_moebius_transform(lattice, dict(bipolar.values))
        mismatches += dual != cq.bipolar_moebius_form_eval(dict(plain), signed)

        if grid:
            mismatches += signed_points(rng, bipolar, GRIDS[i % len(lattices)])

    elapsed = time.perf_counter() - started
    print(
        f"{instances} instances x 5 path pairs and 2 grid file round trips on grids {GRIDS}"
        f" and {len(MOSAICS)} mosaics (2 path pairs each):"
        f" {mismatches} mismatches in {elapsed:.2f}s"
    )
    return mismatches


def points(rng, capacity, grid) -> int:
    """Mismatches of an unsigned point: its text read back, and the corner
    sweep against the natural extension of its staircase profile."""
    k, n = grid
    mismatches = 0
    scale = cq.ReferenceScale(tuple(Fraction(j, k - 1) for j in range(k)))
    exact = [Fraction(rng.randint(0, 24), 24) for _ in range(n)]
    point = [render(rng, v) for v in exact]
    mismatches += [cq.as_fraction(v) for v in point] != exact
    corner = cq.interpolate_point(capacity, point, scale)
    _, staircase = cq.level_profile(point, scale)
    return mismatches + (corner != cq.natural_extension(capacity, staircase))


def signed_points(rng, bipolar, grid) -> int:
    """Mismatches of a signed point, as :func:`points` counts them, on the
    symmetric scale."""
    k, n = grid
    mismatches = 0
    symmetric = cq.ReferenceScale(
        tuple(Fraction(j, k - 1) for j in range(1 - k, k)), symmetric=True
    )
    exact = [Fraction(rng.randint(-24, 24), 24) for _ in range(n)]
    point = [render(rng, v) for v in exact]
    mismatches += [cq.as_fraction(v) for v in point] != exact
    corner = cq.interpolate_signed_point(bipolar, point, symmetric)
    _, _, staircase = cq.bipolar_level_profile(point, symmetric)
    return mismatches + (corner != cq.bipolar_natural_extension(bipolar, staircase))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--instances", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    return 1 if sweep(args.instances, args.seed) else 0


if __name__ == "__main__":
    sys.exit(main())
