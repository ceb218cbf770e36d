"""End-to-end acceptance checks.

Every test prints one [PASS]/[FAIL] line (run pytest with -s to see them all)
and asserts the same condition, so the suite doubles as a checklist. All
comparisons are exact rational equality unless a numeric tolerance is part
of the stated bound.
"""

import random
import time
from fractions import Fraction

import choqlat as cq
from support import (
    antichain,
    mosaic_bases,
    random_bipolar_capacity,
    random_capacity,
    random_linear_extension,
    random_monotone01,
    random_poset,
    random_profile,
    random_signed_profile,
    wedge_poset,
)

GRID = cq.build_kary_base(3, 2)
GRID_LATTICE = cq.DownsetLattice(GRID)

WORKED_UNSIGNED = {"c1l1": "0.5", "c1l2": "0.1", "c2l1": "0.3", "c2l2": "0.2"}
WORKED_SIGNED = {"c1l1": "0.5", "c1l2": "0.1", "c2l1": "-0.3", "c2l2": "-0.2"}


def _line(ok: bool, label: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}")
    return ok


def test_criterion_1_golden_unsigned_decomposition():
    profile = cq.Profile(GRID, WORKED_UNSIGNED)
    dec = cq.triangulate(profile)
    nodes = [cq.downset_to_node(v, 2) for v in dec.chain]
    structural = (
        nodes == [(0, 0), (1, 0), (1, 1), (1, 2), (2, 2)]
        and dec.weights
        == (
            Fraction(1, 2),
            Fraction(1, 5),
            Fraction(1, 10),
            Fraction(1, 10),
            Fraction(1, 10),
        )
    )
    cq.triangulate(profile)  # warm up before timing
    best = min(
        (lambda start: (cq.triangulate(profile), time.perf_counter() - start)[1])(
            time.perf_counter()
        )
        for _ in range(5)
    )
    timed = best < 0.001
    ok = _line(
        structural and timed,
        f"criterion 1: golden unsigned decomposition (best {best * 1e6:.0f} us)",
    )
    assert ok


def test_criterion_2_golden_signed_decomposition():
    rng = random.Random(2024)
    capacity = random_bipolar_capacity(rng, GRID_LATTICE)
    profile = cq.BipolarProfile(GRID, WORKED_SIGNED)
    evaluation = cq.evaluate_bipolar(capacity, profile)
    nodes = [
        (cq.downset_to_node(p, 2), cq.downset_to_node(q, 2)) for p, q in evaluation.chain
    ]
    ok = _line(
        evaluation.tile == frozenset({"c1l1", "c1l2"})
        and nodes
        == [
            ((0, 0), (0, 0)),
            ((1, 0), (0, 0)),
            ((1, 0), (0, 1)),
            ((1, 0), (0, 2)),
            ((2, 0), (0, 2)),
        ]
        and evaluation.weights
        == (
            Fraction(1, 2),
            Fraction(1, 5),
            Fraction(1, 10),
            Fraction(1, 10),
            Fraction(1, 10),
        ),
        "criterion 2: golden signed decomposition (tile = criterion 1)",
    )
    assert ok


def test_criterion_3_structure_counts():
    wedge = wedge_poset()
    lattice = cq.DownsetLattice(wedge)
    extension = set(cq.bipolar_extension(lattice))
    covered: set = set()
    for member in lattice.complemented():
        covered.update(cq.tile(lattice, member).elements)
    orphan_a = cq.BipolarElement(frozenset({"a"}), frozenset({"c"}))
    orphan_c = cq.BipolarElement(frozenset({"c"}), frozenset({"a"}))
    wedge_ok = (
        not cq.is_regular_mosaic(wedge)
        and len(extension) == 11
        and orphan_a in extension
        and orphan_c in extension
        and len(covered) == 9
        and covered < extension
    )

    mosaic_ok = True
    shapes = [antichain(n) for n in (1, 2, 3, 4)]
    shapes += [
        cq.build_kary_base(k, n)
        for k in (2, 3, 4)
        for n in (1, 2, 3)
    ]
    for base in shapes:
        lat = cq.DownsetLattice(base)
        full = set(cq.bipolar_extension(lat))
        union: set = set()
        for member in lat.complemented():
            union.update(cq.tile(lat, member).elements)
        mosaic_ok = mosaic_ok and cq.is_regular_mosaic(base) and union == full

    ok = _line(
        wedge_ok and mosaic_ok,
        "criterion 3: tile-union structure (strict for the wedge, exact for grids)",
    )
    assert ok


def _unsigned_instance_pool():
    return [
        antichain(1),
        antichain(2),
        antichain(3),
        antichain(4),
        cq.build_kary_base(3, 2),
        cq.build_kary_base(4, 2),
        cq.build_kary_base(2, 3),
        cq.build_kary_base(3, 3),
        cq.build_kary_base(4, 3),
        wedge_poset(),
    ]


def test_criterion_4_oracle_equivalences():
    started = time.perf_counter()
    rng = random.Random(4)

    unsigned_pool = _unsigned_instance_pool()
    unsigned_ok = True
    for i in range(200):
        base = unsigned_pool[i % len(unsigned_pool)]
        lattice = cq.DownsetLattice(base)
        capacity = random_capacity(rng, lattice)
        profile = random_profile(rng, base)
        direct = cq.natural_extension(capacity, profile)
        dual = cq.moebius_form_eval(cq.moebius_transform(capacity), profile)
        unsigned_ok = unsigned_ok and direct == dual

    signed_pool = mosaic_bases()
    signed_ok = True
    for i in range(200):
        base = signed_pool[i % len(signed_pool)]
        lattice = cq.DownsetLattice(base)
        capacity = random_bipolar_capacity(rng, lattice)
        profile = random_signed_profile(rng, base)
        direct = cq.bipolar_natural_extension(capacity, profile)
        coefficients = cq.bipolar_moebius_transform(lattice, capacity.values)
        signed_ok = signed_ok and direct == cq.bipolar_moebius_form_eval(
            coefficients, profile
        )

    maxmin_ok = True
    for i in range(200):
        base = random_poset(rng, rng.randint(0, 4))
        lattice = cq.DownsetLattice(base)
        functional = random_monotone01(rng, lattice)
        profile = random_profile(rng, base)
        maxmin_ok = maxmin_ok and cq.zero_one_maxmin(
            functional, profile
        ) == cq.natural_extension(functional, profile)

    elapsed = time.perf_counter() - started
    ok = _line(
        unsigned_ok and signed_ok and maxmin_ok and elapsed < 30,
        f"criterion 4: 3x200 oracle equivalences, exact ({elapsed:.1f}s < 30s)",
    )
    assert ok


def test_criterion_5_reductions():
    rng = random.Random(5)

    classical_ok = True
    for n in (1, 2, 3, 4):
        base = cq.build_kary_base(2, n)
        lattice = cq.DownsetLattice(base)
        for _ in range(25):
            game = random_capacity(rng, lattice, game=True)
            profile = random_profile(rng, base)
            classical_ok = classical_ok and cq.natural_extension(
                game, profile
            ) == cq.choquet_classical(game.values, profile.values)

    pair_ok = True
    for n in (1, 2, 3, 4):
        base = cq.build_kary_base(2, n)
        lattice = cq.DownsetLattice(base)
        for _ in range(25):
            capacity = random_bipolar_capacity(rng, lattice, game=True)
            profile = random_signed_profile(rng, base)
            via_chain = cq.bipolar_natural_extension(capacity, profile)
            via_pairs = cq.bicapacity_choquet(capacity, profile.values)
            pair_ok = pair_ok and via_chain == via_pairs

    boolean_ok = True
    for n in (1, 2, 3, 4):
        base = antichain(n)
        lattice = cq.DownsetLattice(base)
        for _ in range(25):
            capacity = random_bipolar_capacity(rng, lattice, game=True)
            profile = random_signed_profile(rng, base)
            boolean_ok = boolean_ok and cq.bipolar_natural_extension(
                capacity, profile
            ) == cq.bicapacity_choquet(capacity, profile.values)

    ok = _line(
        classical_ok and pair_ok and boolean_ok,
        "criterion 5: two-level and Boolean-base reductions, exact",
    )
    assert ok


def test_criterion_6_interpolation_identities():
    rng = random.Random(6)

    scales = {
        2: cq.ReferenceScale((0, "0.5")),
        3: cq.ReferenceScale((0, "0.5", 1)),
        4: cq.ReferenceScale((0, "0.25", "0.75", 1)),
    }
    grids = [(2, 2), (3, 2), (4, 2), (3, 3), (2, 4)]
    point_ok = True
    worst = 0.0
    for i in range(1000):
        k, n = grids[i % len(grids)]
        scale = scales[k]
        lattice = cq.DownsetLattice(cq.build_kary_base(k, n))
        capacity = random_capacity(rng, lattice)
        low, high = scale.levels[0], scale.levels[-1]
        point = [
            low + (high - low) * Fraction(rng.randint(0, 24), 24) for _ in range(n)
        ]
        direct = cq.interpolate_point(capacity, point, scale)
        _, staircase = cq.level_profile(point, scale)
        dual = cq.natural_extension(capacity, staircase)
        point_ok = point_ok and direct == dual
        worst = max(worst, abs(float(direct - dual)))

    symmetric = {
        2: cq.ReferenceScale(("-0.5", 0, "0.5"), symmetric=True),
        3: cq.ReferenceScale((-1, "-0.5", 0, "0.5", 1), symmetric=True),
        4: cq.ReferenceScale((-1, "-0.75", "-0.25", 0, "0.25", "0.75", 1), symmetric=True),
    }
    signed_ok = True
    for i in range(1000):
        k, n = grids[i % len(grids)]
        scale = symmetric[k]
        lattice = cq.DownsetLattice(cq.build_kary_base(k, n))
        capacity = random_bipolar_capacity(rng, lattice)
        low, high = scale.rho(-(k - 1)), scale.rho(k - 1)
        point = [
            low + (high - low) * Fraction(rng.randint(0, 24), 24) for _ in range(n)
        ]
        direct = cq.interpolate_signed_point(capacity, point, scale)
        _, _, induced = cq.bipolar_level_profile(point, scale)
        dual = cq.bipolar_natural_extension(capacity, induced)
        signed_ok = signed_ok and direct == dual
        worst = max(worst, abs(float(direct - dual)))

    ok = _line(
        point_ok and signed_ok and worst <= 1e-12,
        f"criterion 6: 2x1000 point-scoring identities (worst gap {worst:.1e})",
    )
    assert ok


def test_criterion_7_moebius_correctness():
    bases = {
        "two atoms": antichain(2),
        "three atoms": antichain(3),
        "3x2 grid": cq.build_kary_base(3, 2),
        "wedge": wedge_poset(),
    }
    product_ok = True
    for base in bases.values():
        lattice = cq.DownsetLattice(base)
        pairs = cq.bipolar_extension(lattice)
        cache: dict = {}
        for low in pairs:
            for up in pairs:
                if cq.bipolar_leq(low, up):
                    product_ok = product_ok and cq.bipolar_moebius_function(
                        lattice, low, up
                    ) == cq.rota_moebius(pairs, cq.bipolar_leq, low, up, cache)

    rng = random.Random(7)
    round_trip_ok = True
    for base in bases.values():
        lattice = cq.DownsetLattice(base)
        for _ in range(10):
            capacity = random_capacity(rng, lattice)
            again = cq.zeta_transform(cq.moebius_transform(capacity))
            round_trip_ok = round_trip_ok and again.values == capacity.values
        table = {
            pair: Fraction(rng.randint(-24, 24), 12)
            for pair in cq.bipolar_extension(lattice)
        }
        back = cq.bipolar_zeta_transform(
            lattice, cq.bipolar_moebius_transform(lattice, table)
        )
        round_trip_ok = round_trip_ok and back == table

    ok = _line(
        product_ok and round_trip_ok,
        "criterion 7: product rule vs recursion on all pairs; transforms invert exactly",
    )
    assert ok


def test_criterion_8_extension_properties():
    rng = random.Random(8)
    pool = _unsigned_instance_pool()

    vertex_ok = True
    for base in pool:
        lattice = cq.DownsetLattice(base)
        capacity = random_capacity(rng, lattice)
        for element in lattice.elements:
            indicator = cq.Profile(
                base, {x: int(x in element) for x in base.elements}
            )
            vertex_ok = vertex_ok and cq.natural_extension(
                capacity, indicator
            ) == capacity.values[element]

    tie_cases = 0
    tie_ok = True
    attempts = 0
    while tie_cases < 100:
        attempts += 1
        base = pool[attempts % len(pool)]
        if len(base.elements) < 2:
            continue
        lattice = cq.DownsetLattice(base)
        capacity = random_capacity(rng, lattice)
        profile = random_profile(rng, base, denominator=3)  # coarse values force ties
        if len(set(profile.values.values())) == len(profile.values):
            continue
        tie_cases += 1
        reference = cq.natural_extension(capacity, profile)
        for _ in range(3):
            dec = cq.triangulate(profile, tie_break=random_linear_extension(rng, base))
            value = sum(
                (w * capacity.values[v] for v, w in zip(dec.chain, dec.weights)),
                Fraction(0),
            )
            tie_ok = tie_ok and value == reference

    simplex_ok = True
    for _ in range(50):
        base = pool[rng.randrange(len(pool))]
        lattice = cq.DownsetLattice(base)
        game = random_capacity(rng, lattice, game=True)
        skeleton = cq.triangulate(random_profile(rng, base))
        m = len(skeleton.order)
        cuts = sorted(rng.randint(0, 12) for _ in range(2 * m))
        shares = [Fraction(c, 24) for c in cuts]
        left = [b - a for a, b in zip([Fraction(0)] + shares, shares + [Fraction(1, 2)])]
        f_weights, g_weights = left[:m], left[m : 2 * m]
        f_vals = {x: Fraction(0) for x in base.elements}
        g_vals = {x: Fraction(0) for x in base.elements}
        for vertex, fw, gw in zip(skeleton.chain[1:], f_weights, g_weights):
            for label in vertex:
                f_vals[label] += fw
                g_vals[label] += gw
        f = cq.Profile(base, f_vals)
        g = cq.Profile(base, g_vals)
        total = cq.Profile(base, {x: f_vals[x] + g_vals[x] for x in base.elements})
        simplex_ok = simplex_ok and cq.natural_extension(game, total) == cq.natural_extension(
            game, f
        ) + cq.natural_extension(game, g)

    linear_ok = True
    for _ in range(50):
        base = pool[rng.randrange(len(pool))]
        lattice = cq.DownsetLattice(base)
        first = random_capacity(rng, lattice)
        second = random_capacity(rng, lattice)
        alpha, beta = Fraction(rng.randint(-6, 6), 3), Fraction(rng.randint(-6, 6), 3)
        mixed = cq.GeneralizedCapacity(
            lattice,
            {
                e: alpha * first.values[e] + beta * second.values[e]
                for e in lattice.elements
            },
        )
        profile = random_profile(rng, base)
        linear_ok = linear_ok and cq.natural_extension(
            mixed, profile
        ) == alpha * cq.natural_extension(first, profile) + beta * cq.natural_extension(
            second, profile
        )

    ok = _line(
        vertex_ok and tie_ok and simplex_ok and linear_ok,
        "criterion 8: vertex interpolation, 100 tie cases, shared-simplex additivity,"
        " linearity in the functional",
    )
    assert ok
