"""Bounded-exhaustive checks of the structural facts behind the cycle search.

Each check scans an explicitly bounded region, reports the bounds it
actually used, and returns either a clean verdict or a re-checkable
counterexample. Reports serialize to a stable JSON form (fixed top-level
field order, sorted keys inside), so identical bounds give identical bytes.

A theorem3 counterexample names the first member outside U, V and W,
or else the missing V. solve_power_difference returns its two solution
sets as a pair, (2^p - 3^q = 1, 3^q - 2^p = 1), in the order the
gersonides report lists them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from heronian.core import (
    Triangle,
    _check_bound,
    decompose,
    heron_area,
    perfect_square_root,
)
from heronian.cycles import find_cycles
from heronian.enumeration import (
    _kernel_join,
    deficient_triangles,
    equable_triangles,
    triangles_with_perimeter,  # unused here; the benchmark tracer wraps this name
)
from heronian.necklace import TRIANGLE_FOR_SYMBOL

__all__ = [
    "TheoremReport",
    "VERDICT_COUNTEREXAMPLE",
    "VERDICT_VERIFIED",
    "check_equable_census",
    "check_factorization_cases",
    "check_gersonides",
    "check_lemma2",
    "check_lemma3",
    "check_theorem1",
    "check_theorem1_divisibility",
    "check_theorem2",
    "check_theorem3",
    "solve_power_difference",
]

VERDICT_VERIFIED = "verified-within-bounds"
VERDICT_COUNTEREXAMPLE = "counterexample"

# The only triangles that can sit in a sociable cycle with perimeter
# exceeding area, and the three triangles all cycles are built from.
DEFICIENT_CANDIDATES = (
    Triangle(3, 4, 5),
    Triangle(5, 5, 8),
    Triangle(3, 25, 26),
    Triangle(3, 865, 866),
)
CYCLE_TRIANGLES = tuple(TRIANGLE_FOR_SYMBOL.values())  # U, V, W


def _normalize(value):
    """Sort dict keys recursively so serialized reports are byte-stable."""
    if isinstance(value, dict):
        return {k: _normalize(value[k]) for k in sorted(value)}
    if isinstance(value, (list, tuple)):
        return [_normalize(v) for v in value]
    return value


def _triangle_witness(t: Triangle) -> dict:
    d = decompose(t)
    area = heron_area(t)
    return {
        "a": t.a,
        "b": t.b,
        "c": t.c,
        "perimeter": t.perimeter,
        "area": area,
        "x": d.x,
        "y": d.y,
        "z": d.z,
    }


@dataclass
class TheoremReport:
    """Outcome of one bounded check."""

    claim: str
    bounds: dict
    verdict: str
    witnesses: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.verdict == VERDICT_VERIFIED

    def to_dict(self) -> dict:
        """The report as one JSON object: fixed field order, sorted keys inside."""
        return {
            "claim": self.claim,
            "bounds": _normalize(self.bounds),
            "verdict": self.verdict,
            "witnesses": _normalize(self.witnesses),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), separators=(",", ":"))


def check_lemma2(p_max: int) -> TheoremReport:
    """Perimeter divides squared area for even-area Heronian triangles.

    Cycle members always have even area (their area is another member's
    perimeter, and Heronian perimeters are even), so the even-area
    hypothesis is what matters downstream. For every such triangle with
    perimeter <= p_max this confirms area^2 / perimeter = x*y*z / 2
    exactly, x*y*z being even.
    """
    _check_bound("p_max", p_max)
    bounds = {"p_max": p_max}
    checked = even_area = 0
    # the join's rows carry the gaps and the exact area, so no Triangle is
    # built and heron_area's cache is left alone
    for s, x, y, z, area in _kernel_join(6, p_max + 1, None):
        checked += 1
        if area % 2:
            continue
        even_area += 1
        p, xyz = 2 * s, x * y * z
        if xyz % 2 or (area * area) % p or (area * area) // p != xyz // 2:
            witness = _triangle_witness(Triangle(x + y, x + z, y + z))
            witness["area_squared_over_perimeter_integral"] = (area * area) % p == 0
            return TheoremReport("lemma2", bounds, VERDICT_COUNTEREXAMPLE, [witness])
    summary = {"triangles_checked": checked, "even_area_checked": even_area}
    return TheoremReport("lemma2", bounds, VERDICT_VERIFIED, [summary])


def check_theorem1_divisibility(x: int, y: int, z: int, n: int) -> bool:
    """Does z divide 2^(2^n) * (x+y)^(2^n - 1)?

    Computed modulo z, with n first capped at z.bit_length().bit_length(),
    past which the answer no longer changes. So it costs O(log log z)
    multiplications mod z however large n is, and never builds 2^n.
    """
    for name, value in (("x", x), ("y", y), ("z", z), ("n", n)):
        _check_bound(name, value)
    # past the cap 2^n - 1 >= z.bit_length() exceeds every exponent in z's
    # factorization, so z divides iff each prime of z divides 2*(x+y)
    e = 2 ** min(n, z.bit_length().bit_length())
    return pow(2, e, z) * pow(x + y, e - 1, z) % z == 0


def check_theorem1(x: int, y: int, z: int, n: int) -> TheoremReport:
    """The theorem 1 divisibility query at one point, as a report.

    Verified when z divides 2^(2^n) * (x+y)^(2^n - 1); the one witness
    repeats the point with the answer.
    """
    point = {"x": x, "y": y, "z": z, "n": n}
    divides = check_theorem1_divisibility(x, y, z, n)
    verdict = VERDICT_VERIFIED if divides else VERDICT_COUNTEREXAMPLE
    return TheoremReport("theorem1", point, verdict, [dict(point, divides=divides)])


def check_lemma3(p_max: int) -> TheoremReport:
    """Deficient Heronian triangles have gap coordinates x <= 3, y <= 9.

    Scans every Heronian triangle with perimeter <= p_max whose
    perimeter exceeds its area (the deficiency inequality itself bounds
    that search region; see enumeration._not_abundant) and checks the
    coordinate bounds hold for each one.
    """
    _check_bound("p_max", p_max)
    bounds = {"p_max": p_max}
    checked = 0
    for t in deficient_triangles(p_max):
        checked += 1
        d = decompose(t)
        if d.x > 3 or d.y > 9:
            return TheoremReport(
                "lemma3", bounds, VERDICT_COUNTEREXAMPLE, [_triangle_witness(t)]
            )
    summary = {"deficient_triangles_checked": checked}
    return TheoremReport("lemma3", bounds, VERDICT_VERIFIED, [summary])


def check_theorem2(n: int, p_max: int) -> TheoremReport:
    """The cycle-eligible deficient triangles are among four known ones.

    Enumerates every Heronian triangle with perimeter <= p_max that has
    perimeter > area, even area, gap coordinates x <= 3 and y <= 9, and
    z dividing 2^(2^n) * (x+y)^(2^n - 1). The verdict is verified when
    every survivor is one of (3,4,5), (5,5,8), (3,25,26), (3,865,866);
    the survivors themselves are reported as witnesses.
    """
    _check_bound("n", n)
    _check_bound("p_max", p_max)
    bounds = {"n": n, "p_max": p_max}
    expected = set(DEFICIENT_CANDIDATES)
    survivors = []
    for t in deficient_triangles(p_max):
        d = decompose(t)
        # x <= 3 and y <= 9 are tested, not assumed, so that the
        # survivors do not rest on lemma 3 (the region's scan reaches y = 12)
        if d.x > 3 or d.y > 9 or heron_area(t) % 2:
            continue
        if check_theorem1_divisibility(d.x, d.y, d.z, n):
            survivors.append(t)
    verdict = VERDICT_VERIFIED if set(survivors) <= expected else VERDICT_COUNTEREXAMPLE
    witnesses = [_triangle_witness(t) for t in survivors]
    return TheoremReport("theorem2", bounds, verdict, witnesses)


def solve_power_difference(exp_max: int) -> tuple[set, set]:
    """Scan all exponents up to exp_max for 2^p - 3^q = +/-1, exactly.

    Returns (pow2_minus_pow3, pow3_minus_pow2), each pair in its
    equation's reading order: (p, q) with 2^p - 3^q = 1, and (q, p)
    with 3^q - 2^p = 1.

    2^p and 3^q rise together, one multiply each per step, so memory
    stays O(exp_max) bits. 3^q is the least power of 3 above 2^p, so
    the only power of 3 that can be 2^p + 1 is 3^q, and the only one
    that can be 2^p - 1 is 3^(q-1). As 2^(p+1) < 2 * 3^q < 3^(q+1), q
    moves at most one step per p, and q <= p stays within exp_max
    wherever a solution is recorded.
    """
    _check_bound("exp_max", exp_max)
    two_minus_three = set()
    three_minus_two = set()
    pow2, q, pow3, below = 1, 1, 3, 1  # 2^p, q, 3^q, 3^(q-1)
    for p in range(exp_max + 1):
        if pow3 <= pow2:
            q, below, pow3 = q + 1, pow3, 3 * pow3
        if below == pow2 - 1:
            two_minus_three.add((p, q - 1))
        if pow3 == pow2 + 1:
            three_minus_two.add((q, p))
        pow2 *= 2
    return two_minus_three, three_minus_two


def _difference_of_squares(product: int, offset: int) -> list[tuple[int, int]]:
    """Positive (z, area) with (2z + offset)^2 - area^2 == product, for
    product >= 1 and offset >= 0, in ascending z.

    The scan over z <= (product + 1) // 4 is complete: u = 2z + offset
    and the area are (d + e)/2 and (e - d)/2 for the factor pair
    d = u - area, e = u + area of d * e = product, with 1 <= d < e. As
    (d - 1)(e - 1) >= 0, 2z <= u <= (1 + product)/2.
    """
    return [(z, area) for z in range(1, (product + 1) // 4 + 1)
            if (area := perfect_square_root((2 * z + offset) ** 2 - product))]


def check_factorization_cases() -> TheoremReport:
    """Re-verify the three factor-pair eliminations for small gap pairs.

    x = y = 2 needs 16 = (2z+4-area)(2z+4+area): no positive solution.
    x = 1, y = 4 needs 25 = (2z+5-area)(2z+5+area): exactly z = 4 with
    area 12, the (5, 5, 8) triangle. x = y = 1 needs z(z+2) = area^2,
    i.e. (2z+2)^2 - (2 area)^2 = 4: only the excluded z = 0.
    """
    case_16 = _difference_of_squares(16, 4)
    case_25 = _difference_of_squares(25, 5)
    # z(z+2) = area^2 means (2z+2)^2 - (2 area)^2 = 4; halve the area back
    case_adjacent = [(z, twice // 2) for z, twice in _difference_of_squares(4, 2)]
    witnesses = [
        {"case": "product-16", "solutions": [list(s) for s in case_16]},
        {"case": "product-25", "solutions": [list(s) for s in case_25]},
        {"case": "adjacent-squares", "solutions": [list(s) for s in case_adjacent]},
    ]
    expected = not case_16 and case_25 == [(4, 12)] and not case_adjacent
    verdict = VERDICT_VERIFIED if expected else VERDICT_COUNTEREXAMPLE
    return TheoremReport("factorization-cases", {}, verdict, witnesses)


def check_theorem3(p_max: int, n_max: int) -> TheoremReport:
    """Every sociable cycle uses only the three known triangles.

    For each length n <= n_max, enumerates all n-sociable cycles with
    member perimeters <= p_max and checks that every member is one of
    (9,12,15), (3,25,26), (9,10,17) and that every cycle contains
    (3,25,26), the unique deficient cycle member.
    """
    _check_bound("p_max", p_max)
    _check_bound("n_max", n_max)
    bounds = {"p_max": p_max, "n_max": n_max}
    allowed = set(CYCLE_TRIANGLES)
    must_contain = TRIANGLE_FOR_SYMBOL["V"]
    counts = []
    for n in range(1, n_max + 1):
        cycles = find_cycles(n, p_max)
        for cycle in cycles:
            stray = [t for t in cycle.members if t not in allowed]
            if stray or must_contain not in cycle.members:
                fault, t = (("unexpected_member", stray[0]) if stray
                            else ("missing_member", must_contain))
                witness = {"n": n, "cycle": [list(m.sides) for m in cycle.members],
                           fault: list(t.sides)}
                return TheoremReport("theorem3", bounds, VERDICT_COUNTEREXAMPLE, [witness])
        counts.append({"n": n, "cycles": len(cycles)})
    return TheoremReport("theorem3", bounds, VERDICT_VERIFIED, counts)


def check_equable_census() -> TheoremReport:
    """The area-equals-perimeter census matches the five known triangles."""
    expected = [
        Triangle(5, 12, 13),
        Triangle(6, 8, 10),
        Triangle(6, 25, 29),
        Triangle(7, 15, 20),
        Triangle(9, 10, 17),
    ]
    found = equable_triangles()
    verdict = VERDICT_VERIFIED if found == sorted(expected) else VERDICT_COUNTEREXAMPLE
    witnesses = [_triangle_witness(t) for t in found]
    return TheoremReport("equable-five", {}, verdict, witnesses)


def check_gersonides(exp_max: int) -> TheoremReport:
    """The exponent scan finds exactly the four classical solutions."""
    solutions = solve_power_difference(exp_max)
    ok = solutions == ({(1, 0), (2, 1)}, {(1, 1), (2, 3)})
    witnesses = [{"equation": equation, "solutions": sorted(list(s) for s in found)}
                 for equation, found in zip(("2^p-3^q=1", "3^q-2^p=1"), solutions)]
    verdict = VERDICT_VERIFIED if ok else VERDICT_COUNTEREXAMPLE
    return TheoremReport("gersonides", {"exp_max": exp_max}, verdict, witnesses)
