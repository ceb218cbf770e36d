"""Command line interface: validation, evaluation and diagram emission.

Commands print machine-readable JSON on stdout (Graphviz text with --dot).
Exit codes: 0 ok, 2 validation failure, 3 internal invariant breach (a
cross-check disagreement or a failed selftest).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import fileio
from .bipolar import (
    BipolarCapacity,
    BipolarElement,
    BipolarProfile,
    bipolar_cover_pairs,
    bipolar_extension,
    bipolar_join_irreducibles,
    bipolar_leq,
    bipolar_moebius_form_eval,
    evaluate_bipolar,
    is_regular_mosaic,
    tile,
)
from .birkhoff import DownsetLattice
from .errors import ChoqlatError, FileFormatError, NotNormalized, NotRegularMosaic
from .interpolation import Profile, moebius_form_eval, natural_extension, triangulate
from .kary import (
    bipolar_kary_choquet,
    bipolar_level_profile,
    build_kary_base,
    interpolate_point,
    interpolate_signed_point,
    kary_choquet,
    level_profile,
    staircase_eval,
)
from .moebius import (
    GeneralizedCapacity,
    bipolar_moebius_function,
    bipolar_moebius_transform,
    moebius_transform,
    rota_moebius,
)
from .poset import Poset, connected_components, linear_extension


class CrossCheckFailure(Exception):
    """Two evaluation paths disagreed; the build's invariants are broken."""


def _print_json(payload) -> None:
    sys.stdout.write(json.dumps(payload, indent=2, default=str) + "\n")


def _load(path, parse, *extra):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            obj = json.load(handle)
    except OSError as exc:
        raise FileFormatError(f"cannot read {path}: {exc}", file=str(path)) from None
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path} is not valid JSON: {exc}", file=str(path)) from None
    try:
        return parse(obj, *extra)
    except ChoqlatError as exc:
        exc.context.setdefault("file", str(path))
        raise


def _set_text(members) -> str:
    return "{" + ",".join(sorted(members)) + "}"


def _pair_text(pair) -> str:
    return f"({_set_text(pair[0])},{_set_text(pair[1])})"


def _dot(name, nodes, edges, label) -> str:
    lines = [f"digraph {json.dumps(name)} {{", "  rankdir=BT;"]
    lines += [f"  {json.dumps(label(node))};" for node in nodes]
    lines += [f"  {json.dumps(label(lo))} -> {json.dumps(label(up))};" for lo, up in edges]
    lines.append("}")
    return "\n".join(lines) + "\n"


def _value_payload(value: Fraction) -> dict:
    return {"value": str(value), "float": float(value)}


def _capacity_diagnostics(capacity) -> list[str]:
    notes = []
    if not capacity.is_game:
        notes.append("capacity does not vanish at the bottom vertex")
    if not capacity.is_monotone:
        notes.append("capacity is not monotone")
    return notes


# command handlers


def cmd_poset_check(args):
    p = _load(args.file, fileio.parse_poset)
    if args.dot:
        return _dot("poset", p.elements, sorted(p.covers), lambda x: x)
    return {
        "ok": True,
        "element_count": len(p.elements),
        "cover_count": len(p.covers),
        "components": [
            {"members": sorted(c.members), "minimals": sorted(c.minimals)}
            for c in connected_components(p)
        ],
        "linear_extension": list(linear_extension(p)),
    }


def cmd_lattice_verify(args):
    lattice, eta = _load(args.file, fileio.parse_lattice)
    payload = {
        "distributive": True,
        "element_count": len(lattice),
        "base": fileio.poset_payload(lattice.base),
    }
    if eta is not None:
        payload["eta"] = eta
    return payload


def cmd_mosaic_check(args):
    base = _load(args.file, fileio.parse_poset)
    components = connected_components(base)
    witness = next(
        (sorted(c.minimals) for c in components if len(c.minimals) != 1), None
    )
    return {
        "regular_mosaic": witness is None,
        "witness_component_bottoms": witness,
        "components": [
            {"members": sorted(c.members), "minimals": sorted(c.minimals)}
            for c in components
        ],
    }


def cmd_mobius(args):
    if bool(args.capacity) == bool(args.bipolar_capacity):
        raise FileFormatError("provide exactly one of --capacity / --bipolar-capacity")
    if args.capacity:
        capacity = _load(args.capacity, fileio.parse_capacity)
        vector = moebius_transform(capacity)
        return {
            "coefficients": [
                {"downset": sorted(d), "value": str(v)}
                for d, v in vector.coefficients.items()
            ]
        }
    capacity = _load(args.bipolar_capacity, fileio.parse_bipolar_capacity)
    if not is_regular_mosaic(capacity.base):
        raise NotRegularMosaic(
            "the bipolar transform needs values on the whole extension"
        )
    coefficients = bipolar_moebius_transform(capacity.lattice, capacity.values)
    return {
        "coefficients": [
            {"pos": sorted(p), "neg": sorted(q), "value": str(v)}
            for (p, q), v in coefficients.items()
        ]
    }


def cmd_choquet_eval(args):
    capacity = _load(args.capacity, fileio.parse_capacity)
    profile = _load(args.profile, fileio.parse_profile, capacity.lattice.base)
    dec = triangulate(profile)
    value = sum(
        (w * capacity.values[v] for v, w in zip(dec.chain, dec.weights)), Fraction(0)
    )
    payload = _value_payload(value)
    payload["diagnostics"] = _capacity_diagnostics(capacity)
    if args.decomposition:
        payload["decomposition"] = {
            "order": list(dec.order),
            "chain": [sorted(v) for v in dec.chain],
            "weights": [str(w) for w in dec.weights],
        }
    if args.cross_check:
        dual = moebius_form_eval(moebius_transform(capacity), profile)
        payload["cross_check"] = {
            "method": "moebius_form",
            "value": str(dual),
            "agrees": dual == value,
        }
        if dual != value:
            raise CrossCheckFailure(
                f"moebius path gives {dual}, direct path gives {value}"
            )
    return payload


def cmd_bipolar_eval(args):
    capacity = _load(args.capacity, fileio.parse_bipolar_capacity)
    if args.require_normalized and not capacity.check_normalized():
        raise NotNormalized("capacity is not 1 at (top, bottom) and -1 at (bottom, top)")
    profile = _load(args.profile, fileio.parse_bipolar_profile, capacity.base)
    evaluation = evaluate_bipolar(capacity, profile)
    payload = _value_payload(evaluation.value)
    payload["tile"] = sorted(evaluation.tile)
    payload["diagnostics"] = _capacity_diagnostics(capacity)
    if args.decomposition:
        payload["decomposition"] = {
            "order": list(evaluation.order),
            "chain": [
                {"pos": sorted(p), "neg": sorted(q)} for p, q in evaluation.chain
            ],
            "weights": [str(w) for w in evaluation.weights],
        }
    if args.cross_check:
        coefficients = bipolar_moebius_transform(capacity.lattice, capacity.values)
        dual = bipolar_moebius_form_eval(coefficients, profile)
        payload["cross_check"] = {
            "method": "bipolar_moebius_form",
            "value": str(dual),
            "agrees": dual == evaluation.value,
        }
        if dual != evaluation.value:
            raise CrossCheckFailure(
                f"moebius path gives {dual}, direct path gives {evaluation.value}"
            )
    return payload


def cmd_bipolar_enumerate(args):
    lattice, _ = _load(args.file, fileio.parse_lattice)
    extension = bipolar_extension(lattice)
    if args.dot:
        edges = bipolar_cover_pairs(lattice.base, extension)
        return _dot("bipolar_extension", extension, edges, _pair_text)
    tiles = lattice.complemented()
    covered: set = set()
    for member in tiles:
        covered.update(tile(lattice, member).elements)
    return {
        "count": len(extension),
        "elements": [{"pos": sorted(p), "neg": sorted(q)} for p, q in extension],
        "join_irreducibles": [
            {"pos": sorted(p), "neg": sorted(q)}
            for p, q in bipolar_join_irreducibles(lattice)
        ],
        "regular_mosaic": is_regular_mosaic(lattice.base),
        "tile_count": len(tiles),
        "tile_union_count": len(covered),
    }


def cmd_kary_eval(args):
    if args.bipolar:
        _, _, capacity = _load(args.capacity, fileio.parse_bipolar_kary_capacity)
        profile = _load(args.profile, fileio.parse_bipolar_profile, capacity.base)
        evaluation = bipolar_kary_choquet(capacity, profile)
        payload = _value_payload(evaluation.value)
        payload["positive_criteria"] = sorted(evaluation.positive_criteria)
        payload["diagnostics"] = _capacity_diagnostics(capacity)
        if args.decomposition:
            payload["decomposition"] = {
                "levels": list(evaluation.levels),
                "criteria": list(evaluation.criteria),
                "nodes": [
                    {"pos": list(p), "neg": list(q)} for p, q in evaluation.nodes
                ],
                "weights": [str(w) for w in evaluation.weights],
            }
        if args.cross_check:
            coefficients = bipolar_moebius_transform(capacity.lattice, capacity.values)
            dual = bipolar_moebius_form_eval(coefficients, profile)
            payload["cross_check"] = {
                "method": "bipolar_moebius_form",
                "value": str(dual),
                "agrees": dual == evaluation.value,
            }
            if dual != evaluation.value:
                raise CrossCheckFailure(
                    f"moebius path gives {dual}, direct path gives {evaluation.value}"
                )
        return payload
    _, _, capacity = _load(args.capacity, fileio.parse_kary_capacity)
    profile = _load(args.profile, fileio.parse_profile, capacity.lattice.base)
    evaluation = kary_choquet(capacity, profile)
    payload = _value_payload(evaluation.value)
    payload["diagnostics"] = _capacity_diagnostics(capacity)
    if args.decomposition:
        payload["decomposition"] = {
            "levels": list(evaluation.levels),
            "criteria": list(evaluation.criteria),
            "nodes": [list(node) for node in evaluation.nodes],
            "weights": [str(w) for w in evaluation.weights],
        }
    if args.cross_check:
        dual = moebius_form_eval(moebius_transform(capacity), profile)
        payload["cross_check"] = {
            "method": "moebius_form",
            "value": str(dual),
            "agrees": dual == evaluation.value,
        }
        if dual != evaluation.value:
            raise CrossCheckFailure(
                f"moebius path gives {dual}, direct path gives {evaluation.value}"
            )
    return payload


def cmd_levels_eval(args):
    point = [part.strip() for part in args.point.split(",") if part.strip()]
    if args.bipolar:
        _, _, capacity = _load(args.capacity, fileio.parse_bipolar_kary_capacity)
        scale = _load(args.scale, fileio.parse_scale, True)
        value = interpolate_signed_point(capacity, point, scale)
        positive, indexing, profile = bipolar_level_profile(point, scale)
        dual = bipolar_kary_choquet(capacity, profile).value
        payload = _value_payload(value)
        payload["positive_criteria"] = sorted(positive)
    else:
        _, _, capacity = _load(args.capacity, fileio.parse_kary_capacity)
        scale = _load(args.scale, fileio.parse_scale, False)
        value = interpolate_point(capacity, point, scale)
        indexing, profile = level_profile(point, scale)
        dual = staircase_eval(capacity, profile)
        payload = _value_payload(value)
    payload["level_indices"] = list(indexing.indices)
    payload["residues"] = [str(z) for z in indexing.residues]
    payload["cross_check"] = {
        "method": "staircase",
        "value": str(dual),
        "agrees": dual == value,
    }
    if dual != value:
        raise CrossCheckFailure(f"staircase path gives {dual}, point path gives {value}")
    return payload


# bundled selftest instances


def _grid_capacity() -> GeneralizedCapacity:
    from .kary import downset_to_node

    base = build_kary_base(3, 2)
    lattice = DownsetLattice(base)
    values = {}
    for d in lattice.elements:
        i, j = downset_to_node(d, 2)
        values[d] = Fraction(3 * i + 2 * j, 12)
    return GeneralizedCapacity(lattice, values)


def _grid_bipolar_capacity() -> BipolarCapacity:
    from .bipolar import admissible_vertex_pairs
    from .kary import downset_to_node

    base = build_kary_base(3, 2)
    lattice = DownsetLattice(base)
    values = {}
    for pair in admissible_vertex_pairs(lattice):
        pi, pj = downset_to_node(pair.pos, 2)
        ni, nj = downset_to_node(pair.neg, 2)
        values[pair] = Fraction(3 * pi + 2 * pj - 2 * ni - nj, 12)
    return BipolarCapacity(lattice, values)


def _selftest_checks() -> list[dict]:
    checks = []

    def record(name, ok, detail=None):
        entry = {"name": name, "ok": bool(ok)}
        if detail is not None:
            entry["detail"] = detail
        checks.append(entry)

    from .kary import downset_to_node

    base = build_kary_base(3, 2)
    capacity = _grid_capacity()
    profile = Profile(
        base, {"c1l1": "0.5", "c1l2": "0.1", "c2l1": "0.3", "c2l2": "0.2"}
    )
    dec = triangulate(profile)
    nodes = [downset_to_node(v, 2) for v in dec.chain]
    record(
        "grid triangulation golden",
        nodes == [(0, 0), (1, 0), (1, 1), (1, 2), (2, 2)]
        and list(dec.weights)
        == [Fraction(1, 2), Fraction(1, 5), Fraction(1, 10), Fraction(1, 10), Fraction(1, 10)],
        {"nodes": nodes, "weights": [str(w) for w in dec.weights]},
    )

    direct = natural_extension(capacity, profile)
    dual = moebius_form_eval(moebius_transform(capacity), profile)
    record("dual path agreement", direct == dual, {"direct": str(direct), "moebius": str(dual)})

    bipolar_capacity = _grid_bipolar_capacity()
    signed = BipolarProfile(
        base, {"c1l1": "0.5", "c1l2": "0.1", "c2l1": "-0.3", "c2l2": "-0.2"}
    )
    evaluation = evaluate_bipolar(bipolar_capacity, signed)
    pair_nodes = [
        (downset_to_node(p, 2), downset_to_node(q, 2)) for p, q in evaluation.chain
    ]
    record(
        "signed tile golden",
        sorted({c for label in evaluation.tile for c in [int(label[1])]}) == [1]
        and pair_nodes
        == [
            ((0, 0), (0, 0)),
            ((1, 0), (0, 0)),
            ((1, 0), (0, 1)),
            ((1, 0), (0, 2)),
            ((2, 0), (0, 2)),
        ]
        and list(evaluation.weights)
        == [Fraction(1, 2), Fraction(1, 5), Fraction(1, 10), Fraction(1, 10), Fraction(1, 10)],
        {"nodes": [str(p) for p in pair_nodes]},
    )

    coefficients = bipolar_moebius_transform(
        bipolar_capacity.lattice, bipolar_capacity.values
    )
    signed_dual = bipolar_moebius_form_eval(coefficients, signed)
    record(
        "signed dual path agreement",
        signed_dual == evaluation.value,
        {"direct": str(evaluation.value), "moebius": str(signed_dual)},
    )

    wedge = Poset(["a", "b", "c"], [("a", "b"), ("c", "b")])
    lattice = DownsetLattice(wedge)
    extension = bipolar_extension(lattice)
    tiles = lattice.complemented()
    covered: set = set()
    for member in tiles:
        covered.update(tile(lattice, member).elements)
    record(
        "wedge extension counts",
        len(extension) == 11
        and BipolarElement(frozenset({"a"}), frozenset({"c"})) in extension
        and BipolarElement(frozenset({"c"}), frozenset({"a"})) in extension
        and len(covered) == 9
        and not is_regular_mosaic(wedge),
        {"extension": len(extension), "tile_union": len(covered)},
    )

    boolean = DownsetLattice(Poset(["1", "2"], []))
    pairs = bipolar_extension(boolean)
    cache: dict = {}
    product_ok = all(
        bipolar_moebius_function(boolean, low, up)
        == rota_moebius(pairs, bipolar_leq, low, up, cache)
        for low in pairs
        for up in pairs
        if bipolar_leq(low, up)
    )
    record("product rule equals recursion", product_ok)

    scale = fileio.parse_scale({"levels": ["0", "0.5", "1"]})
    point_value = interpolate_point(capacity, ["0.7", "0.1"], scale)
    _, staircase = level_profile(["0.7", "0.1"], scale)
    record(
        "point scoring two ways",
        point_value == staircase_eval(capacity, staircase)
        and point_value == Fraction(23, 60),
        {"value": str(point_value)},
    )

    return checks


def cmd_selftest(args):
    checks = _selftest_checks()
    all_ok = all(c["ok"] for c in checks)
    return {"checks": checks, "all_ok": all_ok, "_exit_code": 0 if all_ok else 3}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="choqlat",
        description=(
            "Vertex-functional interpolation on distributive lattices:"
            " validation, evaluation and Hasse diagrams."
        ),
    )
    groups = parser.add_subparsers(dest="group", required=True, metavar="command")

    poset_group = groups.add_parser("poset", help="poset file operations")
    poset_sub = poset_group.add_subparsers(dest="command", required=True)
    poset_check = poset_sub.add_parser("check", help="validate a poset file")
    poset_check.add_argument("file")
    poset_check.add_argument("--dot", action="store_true", help="emit a Graphviz Hasse diagram")
    poset_check.set_defaults(handler=cmd_poset_check)

    lattice_group = groups.add_parser("lattice", help="lattice file operations")
    lattice_sub = lattice_group.add_subparsers(dest="command", required=True)
    lattice_verify = lattice_sub.add_parser(
        "verify", help="check distributivity and extract the base poset"
    )
    lattice_verify.add_argument("file")
    lattice_verify.set_defaults(handler=cmd_lattice_verify)

    mosaic_group = groups.add_parser("mosaic", help="mosaic structure checks")
    mosaic_sub = mosaic_group.add_subparsers(dest="command", required=True)
    mosaic_check = mosaic_sub.add_parser(
        "check", help="is the bipolar extension a union of tiles?"
    )
    mosaic_check.add_argument("file")
    mosaic_check.set_defaults(handler=cmd_mosaic_check)

    mobius = groups.add_parser("mobius", help="Moebius coefficients of a capacity")
    mobius.add_argument("--capacity")
    mobius.add_argument("--bipolar-capacity")
    mobius.set_defaults(handler=cmd_mobius)

    choquet_group = groups.add_parser("choquet", help="unsigned evaluation")
    choquet_sub = choquet_group.add_subparsers(dest="command", required=True)
    choquet_eval = choquet_sub.add_parser("eval", help="extension value of a profile")
    choquet_eval.add_argument("--capacity", required=True)
    choquet_eval.add_argument("--profile", required=True)
    choquet_eval.add_argument("--decomposition", action="store_true")
    choquet_eval.add_argument("--cross-check", action="store_true")
    choquet_eval.set_defaults(handler=cmd_choquet_eval)

    bipolar_group = groups.add_parser("bipolar", help="signed structure and evaluation")
    bipolar_sub = bipolar_group.add_subparsers(dest="command", required=True)
    bipolar_eval = bipolar_sub.add_parser("eval", help="signed extension value")
    bipolar_eval.add_argument("--capacity", required=True)
    bipolar_eval.add_argument("--profile", required=True)
    bipolar_eval.add_argument("--decomposition", action="store_true")
    bipolar_eval.add_argument("--cross-check", action="store_true")
    bipolar_eval.add_argument(
        "--require-normalized",
        action="store_true",
        help="reject capacities that are not 1/-1 at the extreme vertices",
    )
    bipolar_eval.set_defaults(handler=cmd_bipolar_eval)
    bipolar_enumerate = bipolar_sub.add_parser(
        "enumerate", help="list the bipolar extension"
    )
    bipolar_enumerate.add_argument("file")
    bipolar_enumerate.add_argument("--dot", action="store_true")
    bipolar_enumerate.set_defaults(handler=cmd_bipolar_enumerate)

    kary_group = groups.add_parser("kary", help="chain-product (grid) evaluation")
    kary_sub = kary_group.add_subparsers(dest="command", required=True)
    kary_eval = kary_sub.add_parser("eval", help="grid capacity against a profile")
    kary_eval.add_argument("--capacity", required=True)
    kary_eval.add_argument("--profile", required=True)
    kary_eval.add_argument("--bipolar", action="store_true")
    kary_eval.add_argument("--decomposition", action="store_true")
    kary_eval.add_argument("--cross-check", action="store_true")
    kary_eval.set_defaults(handler=cmd_kary_eval)

    levels_group = groups.add_parser("levels", help="reference-level point scoring")
    levels_sub = levels_group.add_subparsers(dest="command", required=True)
    levels_eval = levels_sub.add_parser("eval", help="score a point of the score space")
    levels_eval.add_argument("--scale", required=True)
    levels_eval.add_argument("--capacity", required=True)
    levels_eval.add_argument("--point", required=True, help="comma-separated coordinates")
    levels_eval.add_argument("--bipolar", action="store_true")
    levels_eval.set_defaults(handler=cmd_levels_eval)

    selftest = groups.add_parser("selftest", help="run the bundled golden instances")
    selftest.set_defaults(handler=cmd_selftest)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        result = args.handler(args)
    except CrossCheckFailure as exc:
        _print_json({"error": {"code": "cross_check_failed", "message": str(exc)}})
        return 3
    except ChoqlatError as exc:
        error = {"code": exc.code, "message": str(exc)}
        error.update({k: v for k, v in exc.context.items()})
        _print_json({"error": error})
        return 2
    if isinstance(result, str):
        sys.stdout.write(result)
        return 0
    code = result.pop("_exit_code", 0)
    _print_json(result)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
