"""Independent correctness reference for the benchmark.

Nothing here imports ``choqlat``. Capacities are generated as sparse Moebius
sums with small denominators, their value tables are the zeta sums of those
coefficients, and every expected answer is the Moebius form

    unsigned:  sum over A of m(A) * min over j in A of f(j)
    signed:    sum over (A, B) of m(A, B) * min(min f+ over A, min f- over B)

with the empty minimum equal to 1. Lattice elements are frozensets of base
labels (downsets), and signed elements are (pos, neg) pairs of them.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

ONE = Fraction(1)
ZERO = Fraction(0)


# grids: n chains of k-1 levels, labels c<criterion>l<level>


def grid_labels(k: int, n: int) -> list[str]:
    return [f"c{i}l{l}" for i in range(1, n + 1) for l in range(1, k)]


def grid_covers(k: int, n: int) -> list[tuple[str, str]]:
    return [(f"c{i}l{l}", f"c{i}l{l + 1}") for i in range(1, n + 1) for l in range(1, k - 1)]


def node_set(node) -> frozenset:
    """Downset of the grid base dominated by a grid point."""
    return frozenset(f"c{i}l{l}" for i, level in enumerate(node, 1) for l in range(1, level + 1))


def grid_nodes(k: int, n: int):
    return itertools.product(range(k), repeat=n)


def signed_grid_nodes(k: int, n: int):
    """(pos, neg) grid-point pairs with disjoint criterion supports: the whole
    bipolar extension of a chain product."""
    for pos in grid_nodes(k, n):
        support = [i for i, level in enumerate(pos) if level]
        for neg in grid_nodes(k, n):
            if all(neg[i] == 0 for i in support):
                yield pos, neg


# general finite posets given by labels and covers


def downsets(labels, covers) -> list[frozenset]:
    """Every downset, by brute force over subsets (small posets only)."""
    lowers = {x: {lo for lo, up in covers if up == x} for x in labels}
    out = []
    for size in range(len(labels) + 1):
        for subset in itertools.combinations(sorted(labels), size):
            members = set(subset)
            if all(lowers[x] <= members for x in members):
                out.append(frozenset(members))
    return out


def components(labels, covers) -> list[frozenset]:
    parent = {x: x for x in labels}

    def root(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for lo, up in covers:
        parent[root(lo)] = root(up)
    groups: dict = {}
    for x in labels:
        groups.setdefault(root(x), set()).add(x)
    return [frozenset(g) for g in groups.values()]


def admissible_pairs(labels, covers) -> list[tuple[frozenset, frozenset]]:
    """Disjoint downset pairs whose supports meet disjoint components."""
    comp = {x: i for i, group in enumerate(components(labels, covers)) for x in group}
    elements = downsets(labels, covers)
    return [
        (p, q)
        for p in elements
        for q in elements
        if not ({comp[x] for x in p} & {comp[x] for x in q})
    ]


# value tables and expected values


def zeta(coefficients: dict, elements) -> dict:
    """Value at x: the sum of the coefficients of elements below x."""
    return {
        x: sum((m for a, m in coefficients.items() if a <= x), ZERO) for x in elements
    }


def signed_zeta(coefficients: dict, pairs) -> dict:
    return {
        (x, y): sum((m for (a, b), m in coefficients.items() if a <= x and b <= y), ZERO)
        for x, y in pairs
    }


def form_value(coefficients: dict, profile: dict) -> Fraction:
    """Moebius-form value of an unsigned profile (label -> Fraction)."""
    return sum(
        (m * min((profile[j] for j in a), default=ONE) for a, m in coefficients.items()),
        ZERO,
    )


def signed_form_value(coefficients: dict, profile: dict) -> Fraction:
    """Moebius-form value of a signed profile, through its two parts."""
    plus = {j: max(v, ZERO) for j, v in profile.items()}
    minus = {j: max(-v, ZERO) for j, v in profile.items()}
    total = ZERO
    for (a, b), m in coefficients.items():
        total += m * min(
            min((plus[j] for j in a), default=ONE),
            min((minus[j] for j in b), default=ONE),
        )
    return total


# seeded generators

_DENOMINATORS = (2, 3, 4, 5, 6, 8, 10, 12)


def small_fraction(rng, low: int = 1, high: int = 6) -> Fraction:
    return Fraction(rng.randint(low, high), rng.choice(_DENOMINATORS))


def grid_moebius(rng, k: int, n: int, principals: int, joins: int) -> dict:
    """Sparse unsigned coefficients on principal downsets of the grid base
    and on joins of two of them."""
    coefficients: dict = {}
    while len(coefficients) < principals:
        node = [0] * n
        node[rng.randrange(n)] = rng.randint(1, k - 1)
        coefficients[node_set(node)] = small_fraction(rng)
    while len(coefficients) < principals + joins:
        node = [0] * n
        for i in rng.sample(range(n), 2):
            node[i] = rng.randint(1, k - 1)
        coefficients[node_set(node)] = small_fraction(rng, -3, 6)
    return coefficients


def signed_grid_moebius(rng, k: int, n: int, count: int) -> dict:
    """Sparse signed coefficients on pairs of principal downsets (or one
    empty side) over disjoint criteria."""
    coefficients: dict = {}
    while len(coefficients) < count:
        i, j = rng.sample(range(n), 2)
        pos, neg = [0] * n, [0] * n
        shape = rng.randrange(3)
        if shape != 1:
            pos[i] = rng.randint(1, k - 1)
        if shape != 0:
            neg[j] = rng.randint(1, k - 1)
        sign = -1 if shape == 1 else rng.choice((1, 1, -1))
        coefficients[(node_set(pos), node_set(neg))] = sign * small_fraction(rng)
    return coefficients


def poset_moebius(rng, elements, count: int) -> dict:
    """Sparse unsigned coefficients on nonempty downsets of a poset."""
    nonempty = [d for d in elements if d]
    return {d: small_fraction(rng, -2, 6) for d in rng.sample(nonempty, count)}


def signed_poset_moebius(rng, pairs, count: int) -> dict:
    nonempty = [p for p in pairs if p[0] or p[1]]
    return {p: small_fraction(rng, -4, 6) for p in rng.sample(nonempty, count)}


# request text: rationals written the ways users write them


def render(value: Fraction, rng) -> str:
    """Text for an exact rational: a decimal, scientific or p/q form."""
    sign = "-" if value < 0 else ""
    value = abs(value)
    digits = next((d for d in range(7) if 10 ** d % value.denominator == 0), None)
    form = rng.randrange(3)
    if digits is not None and form == 0:
        return sign + _decimal(value)
    if digits is not None and form == 1:
        return f"{sign}{value.numerator * 10 ** digits // value.denominator}e-{digits}"
    return f"{sign}{value.numerator}/{value.denominator}"


def _decimal(value: Fraction) -> str:
    whole, rest = divmod(value.numerator, value.denominator)
    digits = ""
    while rest:
        rest *= 10
        digit, rest = divmod(rest, value.denominator)
        digits += str(digit)
    return f"{whole}.{digits}" if digits else str(whole)


def unit_value(rng) -> Fraction:
    """A value in [0, 1] with a small denominator."""
    q = rng.choice((10, 100, 1000, 3, 6, 7, 12, 20))
    return Fraction(rng.randint(0, q), q)


def chain_values(rng, length: int) -> list[Fraction]:
    """Nonincreasing values in [0, 1] along one chain."""
    return sorted((unit_value(rng) for _ in range(length)), reverse=True)


def grid_profile(rng, k: int, n: int, signs=None) -> dict:
    """Exact profile on the grid base, nonincreasing (in size) per chain.

    ``signs`` gives each criterion a sign for signed profiles."""
    out = {}
    for i in range(1, n + 1):
        sign = 1 if signs is None else signs[i - 1]
        for l, v in enumerate(chain_values(rng, k - 1), 1):
            out[f"c{i}l{l}"] = sign * v
    return out


def poset_profile(rng, labels, covers, signs=None) -> dict:
    """Exact profile on a general poset: sizes nonincreasing along covers,
    one sign per component for signed profiles."""
    lowers = {x: [lo for lo, up in covers if up == x] for x in labels}
    sizes: dict = {}
    pending = list(labels)
    while pending:
        x = next(x for x in pending if all(lo in sizes for lo in lowers[x]))
        pending.remove(x)
        sizes[x] = min([unit_value(rng)] + [sizes[lo] for lo in lowers[x]])
    if signs is None:
        return sizes
    sign = {x: signs[i] for i, group in enumerate(components(labels, covers)) for x in group}
    return {x: sign[x] * v for x, v in sizes.items()}


# score points against a reference scale


def staircase(value: Fraction, anchors) -> list[Fraction]:
    """Per-level staircase of one coordinate: level l reads how far the
    value has climbed from anchor l-1 to anchor l, clamped to [0, 1]."""
    return [
        min(ONE, max(ZERO, (value - low) / (high - low)))
        for low, high in zip(anchors, anchors[1:])
    ]


def point_profile(point, levels) -> dict:
    """Staircase profile of an unsigned point on a one-sided scale."""
    out = {}
    for i, value in enumerate(point, 1):
        for l, v in enumerate(staircase(value, levels), 1):
            out[f"c{i}l{l}"] = v
    return out


def signed_point_profile(point, levels) -> dict:
    """Signed staircase profile on a symmetric scale: each coordinate climbs
    the side of the scale its sign points to."""
    middle = len(levels) // 2
    positive = levels[middle:]
    negative = [-v for v in reversed(levels[: middle + 1])]
    out = {}
    for i, value in enumerate(point, 1):
        side, sign = (positive, 1) if value >= 0 else (negative, -1)
        for l, v in enumerate(staircase(abs(value), side), 1):
            out[f"c{i}l{l}"] = sign * v
    return out
