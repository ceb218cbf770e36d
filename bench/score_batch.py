"""score-batch: warm library scoring of string-valued requests.

Set-up parses an unsigned grid capacity (k=6, n=5, |L|=7776) and a bipolar
grid capacity (k=4, n=4, 2401 signed vertices) from JSON text. The timed
loop then scores requests in a fixed pattern: half unsigned profiles, a
quarter signed profiles, an eighth unsigned and an eighth signed score
points. Every answer is compared with the Moebius form of the sparse
coefficients the capacities were generated from.
"""

from __future__ import annotations

import json
from fractions import Fraction

from choqlat import bipolar, fileio, interpolation, kary

import reference as ref

GRID = (6, 5)
SIGNED_GRID = (4, 4)
LEVELS = ("0", "3/20", "0.3", "1/2", "0.75", "1")
SIGNED_LEVELS = ("-1", "-1/2", "-0.2", "0", "0.3", "13/20", "1")
KINDS = {"U": "profile", "S": "signed profile", "P": "point", "Q": "signed point"}
PATTERN = "USUPUSUQ"
POOL = 256  # requests of each kind, cycled through


class ScoreBatch:
    def __init__(self, rng):
        k, n = GRID
        self.coefficients = ref.grid_moebius(rng, k, n, principals=24, joins=24)
        table = ref.zeta(
            self.coefficients, [ref.node_set(node) for node in ref.grid_nodes(k, n)]
        )
        self.payload = json.dumps({
            "k": k,
            "n": n,
            "values": [
                {"node": list(node), "value": ref.render(table[ref.node_set(node)], rng)}
                for node in ref.grid_nodes(k, n)
            ],
        })
        sk, sn = SIGNED_GRID
        self.signed_coefficients = ref.signed_grid_moebius(rng, sk, sn, count=32)
        nodes = list(ref.signed_grid_nodes(sk, sn))
        signed_table = ref.signed_zeta(
            self.signed_coefficients, [(ref.node_set(p), ref.node_set(q)) for p, q in nodes]
        )
        self.signed_payload = json.dumps({
            "k": sk,
            "n": sn,
            "values": [
                {
                    "pos": list(p),
                    "neg": list(q),
                    "value": ref.render(signed_table[(ref.node_set(p), ref.node_set(q))], rng),
                }
                for p, q in nodes
            ],
        })
        self.requests = {kind: [self._request(kind, rng) for _ in range(POOL)] for kind in "USPQ"}

    def _request(self, kind, rng):
        """(text input, expected value) of one request."""
        k, n = GRID if kind in "UP" else SIGNED_GRID
        signs = [rng.choice((1, -1)) for _ in range(n)]
        if kind == "U":
            profile = ref.grid_profile(rng, k, n)
            return {j: ref.render(v, rng) for j, v in profile.items()}, ref.form_value(
                self.coefficients, profile
            )
        if kind == "S":
            profile = ref.grid_profile(rng, k, n, signs)
            return {j: ref.render(v, rng) for j, v in profile.items()}, ref.signed_form_value(
                self.signed_coefficients, profile
            )
        point = [ref.unit_value(rng) for _ in range(n)]
        if kind == "P":
            levels = [Fraction(v) for v in LEVELS]
            expected = ref.form_value(self.coefficients, ref.point_profile(point, levels))
        else:
            point = [s * v for s, v in zip(signs, point)]
            levels = [Fraction(v) for v in SIGNED_LEVELS]
            expected = ref.signed_form_value(
                self.signed_coefficients, ref.signed_point_profile(point, levels)
            )
        return [ref.render(v, rng) for v in point], expected

    def setup(self):
        """Parse both capacities and both scales, as a scoring service would."""
        _, _, self.capacity = fileio.parse_kary_capacity(json.loads(self.payload))
        _, _, self.signed_capacity = fileio.parse_bipolar_kary_capacity(
            json.loads(self.signed_payload)
        )
        self.scale = fileio.parse_scale({"levels": list(LEVELS)})
        self.signed_scale = fileio.parse_scale({"levels": list(SIGNED_LEVELS)}, True)

    def _score(self, kind, request):
        if kind == "U":
            return interpolation.natural_extension(
                self.capacity, interpolation.Profile(self.capacity.lattice.base, request)
            )
        if kind == "S":
            return bipolar.evaluate_bipolar(
                self.signed_capacity, bipolar.BipolarProfile(self.signed_capacity.base, request)
            ).value
        if kind == "P":
            return kary.interpolate_point(self.capacity, request, self.scale)
        return kary.interpolate_signed_point(self.signed_capacity, request, self.signed_scale)

    def cycle(self, index):
        """One pass over the pattern: (kind, call, check) triples."""
        ops, seen = [], {}
        for kind in PATTERN:
            nth = seen[kind] = seen.get(kind, -1) + 1
            request, expected = self.requests[kind][
                (index * PATTERN.count(kind) + nth) % POOL
            ]
            ops.append((
                KINDS[kind],
                lambda kind=kind, request=request: self._score(kind, request),
                lambda value, kind=kind, expected=expected: None
                if value == expected
                else f"{KINDS[kind]}: got {value}, expected {expected}",
            ))
        return ops

    def close(self):
        pass
