"""Walkthrough of one small instance: two criteria, three reference levels.

Builds the chain-product base, scores a mixed option both through the
generic chain decomposition and through the closed point-scoring formulas,
then repeats the exercise with a signed profile. Run it from the repo root:

    python scripts/demo_reference_levels.py
"""

from fractions import Fraction

import choqlat as cq


def show_decomposition(evaluation, n):
    for node, weight in zip(cq.grid_steps(evaluation, n).nodes, evaluation.weights):
        print(f"    {node}  weight {weight}")


def main():
    base = cq.build_kary_base(3, 2)
    lattice = cq.DownsetLattice(base)

    # capacity read off the grid nodes: 3*level1 + 2*level2 twelfths
    values = {}
    for downset in lattice.elements:
        i, j = cq.downset_to_node(downset, 2)
        values[downset] = Fraction(3 * i + 2 * j, 12)
    capacity = cq.GeneralizedCapacity(lattice, values)

    profile = cq.Profile(
        base, {"c1l1": "0.5", "c1l2": "0.1", "c2l1": "0.3", "c2l2": "0.2"}
    )
    print("unsigned profile:", dict(profile.values))
    evaluation = cq.evaluate(capacity, profile)
    print("  chain and weights:")
    show_decomposition(evaluation, 2)
    dual = cq.moebius_form_eval(cq.moebius_transform(capacity), profile)
    print(f"  extension value {evaluation.value}  (moebius dual path {dual})")

    print()
    signed = cq.BipolarProfile(
        base, {"c1l1": "0.5", "c1l2": "0.1", "c2l1": "-0.3", "c2l2": "-0.2"}
    )
    bipolar_values = {
        pair: Fraction(
            3 * cq.downset_to_node(pair.pos, 2)[0]
            + 2 * cq.downset_to_node(pair.pos, 2)[1]
            - 2 * cq.downset_to_node(pair.neg, 2)[0]
            - cq.downset_to_node(pair.neg, 2)[1],
            12,
        )
        for pair in cq.admissible_vertex_pairs(lattice)
    }
    bipolar = cq.BipolarCapacity(lattice, bipolar_values)
    evaluation = cq.evaluate_bipolar(bipolar, signed)
    print("signed profile:", dict(signed.values))
    print("  tile (positive side):", sorted(evaluation.tile))
    print("  chain and weights:")
    show_decomposition(evaluation, 2)
    print(f"  extension value {evaluation.value}")

    print()
    scale = cq.ReferenceScale(("0", "0.5", "1"))
    point = ["0.7", "0.1"]
    corner = cq.interpolate_point(capacity, point, scale)
    indexing, staircase = cq.level_profile(point, scale)
    print(f"point {point} on scale {[str(v) for v in scale.levels]}:")
    print(f"  level indices {indexing.indices}, residues {[str(z) for z in indexing.residues]}")
    print(f"  corner sweep {corner}, staircase chain {cq.natural_extension(capacity, staircase)}")


if __name__ == "__main__":
    main()
