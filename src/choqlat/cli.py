"""Command line interface: validation, evaluation and diagram emission.

Commands print machine-readable JSON on stdout (Graphviz text with --dot).
Exit codes: 0 ok, 2 bad input or arguments, 3 internal invariant breach (a
cross-check disagreement or a failed selftest), 1 any other failure (code
``internal_error``, traceback on stderr).
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from itertools import chain
from types import SimpleNamespace

from . import fileio
from .bipolar import (
    BipolarCapacity,
    admissible_vertex_pairs,
    bipolar_join_irreducibles,
    bipolar_moebius_form_eval,
    embed_profile,
    evaluate_bipolar,
    is_regular_mosaic,
    tile_union,
)
from .birkhoff import BipolarElement, DownsetLattice, _extension_family, bipolar_extension
from .errors import (
    ChoqlatError,
    FileFormatError,
    NotNormalized,
    NotRegularMosaic,
    SizeLimitExceeded,
)
from .interpolation import Evaluation, Profile, evaluate, moebius_form_eval
from .kary import (
    GridSteps,
    bipolar_level_profile,
    build_kary_base,
    downset_to_node,
    grid_steps,
    interpolate_point,
    interpolate_signed_point,
    level_profile,
)
from .moebius import (
    GeneralizedCapacity,
    bipolar_moebius_transform,
    bipolar_zeta_transform,
    moebius_transform,
)
from .poset import Poset, connected_components, linear_extension


# most label strings one output may print: two chains of 128 elements print
# 8,487,168 in `bipolar enumerate`, two chains of 256 print 67,502,592
OUTPUT_LABEL_CAP = 1 << 24


class CrossCheckFailure(Exception):
    """Two evaluation paths disagreed; the build's invariants are broken."""


class UsageError(ChoqlatError):
    """Bad arguments end like a bad input file: a JSON error and exit 2."""

    code = "usage"


def _print_json(payload) -> None:
    sys.stdout.write(json.dumps(payload, indent=2, default=str) + "\n")


def _load(path, parse, *extra):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            obj = fileio.load_json(handle)
    except OSError as exc:
        raise FileFormatError(f"cannot read {path}: {exc}", file=str(path)) from None
    except (ValueError, RecursionError) as exc:
        # bad JSON or UTF-8, an integer over the digit limit, a number literal
        # out of bounds or not finite, too deep nesting
        raise FileFormatError(f"{path} is not valid JSON: {exc}", file=str(path)) from None
    try:
        return parse(obj, *extra)
    except ChoqlatError as exc:
        exc.context.setdefault("file", str(path))
        raise


def _pair_text(pair) -> str:
    pos, neg = (",".join(sorted(part)) for part in pair)
    return f"({{{pos}}},{{{neg}}})"


def _dot(name, nodes, edges, label) -> str:
    lines = [f"digraph {json.dumps(name)} {{", "  rankdir=BT;"]
    lines += [f"  {json.dumps(label(node))};" for node in nodes]
    lines += [f"  {json.dumps(label(lo))} -> {json.dumps(label(up))};" for lo, up in edges]
    lines.append("}")
    return "\n".join(lines) + "\n"


def _exact(value: Fraction) -> str:
    """``value`` as the CLI prints every exact value, refused when its
    numerator or denominator has more digits than the interpreter's
    int-to-string limit."""
    try:
        return str(value)
    except ValueError:
        cap = sys.get_int_max_str_digits()
        raise SizeLimitExceeded(
            f"exact value has a numerator or denominator over {cap} digits", cap=cap
        ) from None


def _value_payload(value: Fraction) -> dict:
    try:
        approximation = float(value)
    except OverflowError:
        approximation = None  # JSON has no infinity
    return {"value": _exact(value), "float": approximation}


def _capacity_diagnostics(capacity) -> list[str]:
    notes = []
    if not capacity.is_game:
        notes.append("capacity does not vanish at the bottom vertex")
    if not capacity.is_monotone:
        notes.append("capacity is not monotone")
    return notes


def _dual_value(capacity, profile) -> Fraction:
    """The Moebius-form value of ``profile``, bipolar for bipolar capacities."""
    if isinstance(capacity, BipolarCapacity):
        coefficients = bipolar_moebius_transform(capacity.lattice, capacity.values)
        return bipolar_moebius_form_eval(coefficients, profile)
    return moebius_form_eval(moebius_transform(capacity), profile)


def _cross_check(payload, method, direct, dual, paths=("moebius", "direct")) -> dict:
    """Record the dual value in ``payload``; a disagreement is fatal."""
    shown = _exact(dual)
    payload["cross_check"] = {"method": method, "value": shown, "agrees": dual == direct}
    if dual != direct:
        raise CrossCheckFailure(
            f"{paths[0]} path gives {shown}, {paths[1]} path gives {_exact(direct)}"
        )
    return payload


def _pair_payload(pair, render=sorted) -> dict:
    pos, neg = pair
    return {"pos": render(pos), "neg": render(neg)}


def _eval_payload(
    args, capacity, profile, evaluation: Evaluation, steps: GridSteps | None = None
) -> dict:
    """Render an evaluation: value, tile, diagnostics, then the decomposition
    (as grid steps when ``steps`` is given) and the cross-check on request."""
    signed = evaluation.tile is not None
    vertex = _pair_payload if signed else (lambda v, render: render(v))
    payload = _value_payload(evaluation.value)
    if signed and steps is not None:
        payload["positive_criteria"] = sorted(steps.positive_criteria)
    elif signed:
        payload["tile"] = sorted(evaluation.tile)
    payload["diagnostics"] = _capacity_diagnostics(capacity)
    if args.decomposition:
        if steps is None:
            report = {
                "order": list(evaluation.order),
                "chain": [vertex(v, sorted) for v in evaluation.chain],
            }
        else:
            report = {
                "levels": list(steps.levels),
                "criteria": list(steps.criteria),
                "nodes": [vertex(v, list) for v in steps.nodes],
            }
        report["weights"] = [_exact(w) for w in evaluation.weights]
        payload["decomposition"] = report
    if args.cross_check:
        method = "bipolar_moebius_form" if signed else "moebius_form"
        _cross_check(payload, method, evaluation.value, _dual_value(capacity, profile))
    return payload


def _components_payload(components) -> list[dict]:
    return [{"members": sorted(c.members), "minimals": sorted(c.minimals)} for c in components]


# command handlers


def cmd_poset_check(args):
    p = _load(args.file, fileio.parse_poset)
    if args.dot:
        return _dot("poset", p.elements, sorted(p.covers), lambda x: x)
    return {
        "ok": True,
        "element_count": len(p.elements),
        "cover_count": len(p.covers),
        "components": _components_payload(connected_components(p)),
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
        "components": _components_payload(components),
    }


def cmd_mobius(args):
    if bool(args.capacity) == bool(args.bipolar_capacity):
        raise UsageError("provide exactly one of --capacity / --bipolar-capacity")
    if args.capacity:
        table = moebius_transform(_load(args.capacity, fileio.parse_capacity)).values
        coefficients = [{"downset": sorted(d), "value": _exact(v)} for d, v in table.items()]
        return {"coefficients": coefficients}
    capacity = _load(args.bipolar_capacity, fileio.parse_bipolar_capacity)
    if not is_regular_mosaic(capacity.base):
        raise NotRegularMosaic(
            "the bipolar transform needs values on the whole extension"
        )
    table = bipolar_moebius_transform(capacity.lattice, capacity.values)
    coefficients = [{**_pair_payload(pair), "value": _exact(v)} for pair, v in table.items()]
    return {"coefficients": coefficients}


def cmd_choquet_eval(args):
    capacity = _load(args.capacity, fileio.parse_capacity)
    profile = _load(args.profile, fileio.parse_profile, capacity.lattice.base)
    return _eval_payload(args, capacity, profile, evaluate(capacity, profile))


def cmd_bipolar_eval(args):
    capacity = _load(args.capacity, fileio.parse_bipolar_capacity)
    if args.require_normalized and not capacity.check_normalized():
        raise NotNormalized("capacity is not 1 at (top, bottom) and -1 at (bottom, top)")
    profile = _load(args.profile, fileio.parse_bipolar_profile, capacity.base)
    return _eval_payload(args, capacity, profile, evaluate_bipolar(capacity, profile))


def cmd_bipolar_enumerate(args):
    lattice, _ = _load(args.file, fileio.parse_lattice)
    # the labels the output prints, counted on the pair codes before any pair
    # is built: each part of each pair, with --dot of both ends of each cover
    family = lattice.derived(_extension_family)
    labels = sum(map(int.bit_count, family.order))
    if args.dot and labels <= OUTPUT_LABEL_CAP:
        keys, lowers = family.plan
        labels += sum(family.order[k].bit_count() for k in chain(keys, lowers))
    if labels > OUTPUT_LABEL_CAP:
        what = f"the output would print at least {labels} labels"
        raise SizeLimitExceeded.over(what, OUTPUT_LABEL_CAP)
    if args.dot:
        return _dot("bipolar_extension", family.vertices, family.covers(), _pair_text)
    return {
        "count": len(family.vertices),
        "elements": [_pair_payload(pair) for pair in family.vertices],
        "join_irreducibles": [_pair_payload(j) for j in bipolar_join_irreducibles(lattice)],
        "regular_mosaic": is_regular_mosaic(lattice.base),
        "tile_count": len(lattice.complemented()),
        "tile_union_count": len(tile_union(lattice)),
    }


def cmd_kary_eval(args):
    if args.bipolar:
        _, n, capacity = _load(args.capacity, fileio.parse_bipolar_kary_capacity)
        profile = _load(args.profile, fileio.parse_bipolar_profile, capacity.base)
        evaluation = evaluate_bipolar(capacity, profile)
    else:
        _, n, capacity = _load(args.capacity, fileio.parse_kary_capacity)
        profile = _load(args.profile, fileio.parse_profile, capacity.lattice.base)
        evaluation = evaluate(capacity, profile)
    return _eval_payload(args, capacity, profile, evaluation, grid_steps(evaluation, n))


def cmd_levels_eval(args):
    point = fileio.parse_point(args.point)
    parse = fileio.parse_bipolar_kary_capacity if args.bipolar else fileio.parse_kary_capacity
    _, _, capacity = _load(args.capacity, parse)
    scale = _load(args.scale, fileio.parse_scale, args.bipolar)
    if args.bipolar:
        value = interpolate_signed_point(capacity, point, scale)
        positive, indexing, profile = bipolar_level_profile(point, scale)
        dual = evaluate_bipolar(capacity, profile).value
        payload = {**_value_payload(value), "positive_criteria": sorted(positive)}
    else:
        value = interpolate_point(capacity, point, scale)
        indexing, profile = level_profile(point, scale)
        dual = evaluate(capacity, profile).value
        payload = _value_payload(value)
    payload["level_indices"] = list(indexing.indices)
    payload["residues"] = [_exact(z) for z in indexing.residues]
    return _cross_check(payload, "staircase", value, dual, ("staircase", "point"))


# bundled selftest instances


def _grid_capacities() -> tuple[GeneralizedCapacity, BipolarCapacity]:
    """Bipolar capacity on the (3, 2) grid, (3 p1 + 2 p2 - 2 n1 - n2) / 12 at
    the node pair (p, n), and its restriction to the positive side."""
    lattice = DownsetLattice(build_kary_base(3, 2))
    values = {}
    for pair in admissible_vertex_pairs(lattice):
        pi, pj = downset_to_node(pair.pos, 2)
        ni, nj = downset_to_node(pair.neg, 2)
        values[pair] = Fraction(3 * pi + 2 * pj - 2 * ni - nj, 12)
    unsigned = {d: values[BipolarElement(d, frozenset())] for d in lattice.elements}
    return GeneralizedCapacity(lattice, unsigned), BipolarCapacity(lattice, values)


def cmd_selftest(args):
    checks = []

    def record(name, ok, detail=None):
        entry = {"name": name, "ok": bool(ok)}
        if detail is not None:
            entry["detail"] = detail
        checks.append(entry)

    golden_nodes = [(0, 0), (1, 0), (1, 1), (1, 2), (2, 2)]
    golden_weights = [
        Fraction(1, 2), Fraction(1, 5), Fraction(1, 10), Fraction(1, 10), Fraction(1, 10)
    ]
    capacity, bipolar_capacity = _grid_capacities()
    profile = Profile(
        capacity.lattice.base, {"c1l1": "0.5", "c1l2": "0.1", "c2l1": "0.3", "c2l2": "0.2"}
    )
    evaluation = evaluate(capacity, profile)
    nodes = list(grid_steps(evaluation, 2).nodes)
    record(
        "grid triangulation golden",
        nodes == golden_nodes and list(evaluation.weights) == golden_weights,
        {"nodes": nodes, "weights": [str(w) for w in evaluation.weights]},
    )

    dual = _dual_value(capacity, profile)
    record(
        "dual path agreement",
        evaluation.value == dual,
        {"direct": str(evaluation.value), "moebius": str(dual)},
    )

    # the same profile with criterion 2 negated: the chain splits along the tile
    signed = embed_profile(profile, {"c1l1", "c1l2"})
    evaluation = evaluate_bipolar(bipolar_capacity, signed)
    steps = grid_steps(evaluation, 2)
    record(
        "signed tile golden",
        steps.positive_criteria == {1}
        and list(steps.nodes) == [((i, 0), (0, j)) for i, j in golden_nodes]
        and list(evaluation.weights) == golden_weights,
        {"nodes": [str(p) for p in steps.nodes]},
    )

    signed_dual = _dual_value(bipolar_capacity, signed)
    record(
        "signed dual path agreement",
        signed_dual == evaluation.value,
        {"direct": str(evaluation.value), "moebius": str(signed_dual)},
    )

    wedge = Poset(["a", "b", "c"], [("a", "b"), ("c", "b")])
    lattice = DownsetLattice(wedge)
    extension = bipolar_extension(lattice)
    covered = tile_union(lattice)
    record(
        "wedge extension counts",
        len(extension) == 11
        and BipolarElement(frozenset({"a"}), frozenset({"c"})) in extension
        and BipolarElement(frozenset({"c"}), frozenset({"a"})) in extension
        and len(covered) == 9
        and not is_regular_mosaic(wedge),
        {"extension": len(extension), "tile_union": len(covered)},
    )

    grid = bipolar_capacity.lattice
    coefficients = bipolar_moebius_transform(grid, bipolar_capacity.values)
    record(
        "bipolar transforms invert",
        bipolar_zeta_transform(grid, coefficients) == bipolar_capacity.values,
    )

    scale = fileio.parse_scale({"levels": ["0", "0.5", "1"]})
    point_value = interpolate_point(capacity, ["0.7", "0.1"], scale)
    _, staircase = level_profile(["0.7", "0.1"], scale)
    record(
        "point scoring two ways",
        point_value == evaluate(capacity, staircase).value
        and point_value == Fraction(23, 60),
        {"value": str(point_value)},
    )

    all_ok = all(c["ok"] for c in checks)
    return {"checks": checks, "all_ok": all_ok, "_exit_code": 0 if all_ok else 3}


# command words -> (handler name, arguments); the handler is looked up when it
# runs. An argument's kind is also its usage: the positional file, a flag, an
# option that may be given a value, or one that must be.
FILE, FLAG, VALUE, REQUIRED = "{}", "[{}]", "[{} {}]", "{} {}"
_EVAL = {"--capacity": REQUIRED, "--profile": REQUIRED, "--decomposition": FLAG,
         "--cross-check": FLAG}
_LEVELS = {"--scale": REQUIRED, "--capacity": REQUIRED, "--point": REQUIRED, "--bipolar": FLAG}
COMMANDS = {
    "poset check": ("cmd_poset_check", {"file": FILE, "--dot": FLAG}),
    "lattice verify": ("cmd_lattice_verify", {"file": FILE}),
    "mosaic check": ("cmd_mosaic_check", {"file": FILE}),
    "mobius": ("cmd_mobius", {"--capacity": VALUE, "--bipolar-capacity": VALUE}),
    "choquet eval": ("cmd_choquet_eval", _EVAL),
    "bipolar eval": ("cmd_bipolar_eval", {**_EVAL, "--require-normalized": FLAG}),
    "bipolar enumerate": ("cmd_bipolar_enumerate", {"file": FILE, "--dot": FLAG}),
    "kary eval": ("cmd_kary_eval", {**_EVAL, "--bipolar": FLAG}),
    "levels eval": ("cmd_levels_eval", _LEVELS),
    "selftest": ("cmd_selftest", {}),
}
_HELP = {"-h": FLAG, "--help": FLAG}
_negative_number = re.compile(r"^-\d+$|^-\d*\.\d+$").match


def _usage() -> str:
    lines = []
    for words, (_, arguments) in COMMANDS.items():
        shown = [kind.format(name, name[2:].upper()) for name, kind in arguments.items()]
        lines.append(" ".join(["choqlat", words, *shown]))
    return "usage: " + "\n       ".join(lines) + "\n"


def _is_option(word: str, known: dict) -> bool:
    """A word of two or more characters starting with ``-`` is an option when
    it names one of ``known`` (alone or before ``=``), else unless it is a
    negative number or holds a space."""
    return word[:1] == "-" and len(word) > 1 and (
        word.partition("=")[0] in known or not (_negative_number(word) or " " in word)
    )


def read_argv(argv) -> tuple[str, SimpleNamespace]:
    """The handler name and arguments of ``argv``: the command words, then
    options and the file in any order. A value follows its option or its
    ``=``, and a repeated option keeps its last value. Words are read from
    left to right, as argparse reads them: help or a malformed option ends
    the reading at once, while an unknown or extra word, like a missing one,
    is refused at the end."""
    rest, words, spec, known, values, unknown = list(argv), [], None, _HELP, {}, []
    while rest:
        word = rest.pop(0)
        option, eq, value = word.partition("=")
        if not _is_option(word, known):
            if spec is None:  # the next command word
                prefix = " ".join([*words, ""])
                choices = [c.split()[len(words)] for c in COMMANDS if c.startswith(prefix)]
                if word not in choices:
                    shown = ", ".join(map(repr, dict.fromkeys(choices)))
                    raise UsageError(f"invalid choice: {word!r} (choose from {shown})")
                words.append(word)
                spec = COMMANDS.get(" ".join(words))
                known = {**_HELP, **spec[1]} if spec else known
            elif "file" in known and "file" not in values:
                values["file"] = word
            else:
                unknown.append(word)
        elif option not in known:
            unknown.append(word)
        elif known[option] != FLAG:
            if not eq:
                if not rest or _is_option(rest[0], known):
                    raise UsageError(f"argument {option}: expected one argument")
                value = rest.pop(0)
            values[option] = value
        elif eq:
            raise UsageError(f"argument {option}: ignored explicit argument {value!r}")
        elif option in _HELP:
            sys.stdout.write(_usage())
            raise SystemExit(0)
        else:
            values[option] = True
    # argv without its command words misses the command
    name, arguments = spec or (None, {"command": FILE})
    missing = [a for a, kind in arguments.items() if kind in (FILE, REQUIRED) and a not in values]
    if missing:
        raise UsageError(f"the following arguments are required: {', '.join(missing)}")
    if unknown:
        raise UsageError(f"unrecognized arguments: {' '.join(unknown)}")
    values = {**{a: False if kind == FLAG else None for a, kind in arguments.items()}, **values}
    return name, SimpleNamespace(**{a.lstrip("-").replace("-", "_"): v for a, v in values.items()})


def main(argv=None) -> int:
    try:
        name, args = read_argv(sys.argv[1:] if argv is None else argv)
        result = globals()[name](args)
        # rendering fails like the handler: every run ends with a JSON body
        if isinstance(result, str):
            sys.stdout.write(result)
            return 0
        code = result.pop("_exit_code", 0)
        _print_json(result)
        return code
    except CrossCheckFailure as exc:
        _print_json({"error": {"code": "cross_check_failed", "message": str(exc)}})
        return 3
    except ChoqlatError as exc:
        _print_json({"error": {"code": exc.code, "message": str(exc), **exc.context}})
        return 2
    except Exception as exc:
        # any other failure is a defect: a stable code on stdout, the
        # traceback on stderr, and the exit status an uncaught error gives
        import traceback

        traceback.print_exc()
        message = f"{type(exc).__name__}: {exc}"
        _print_json({"error": {"code": "internal_error", "message": message}})
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
