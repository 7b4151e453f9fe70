import random

import pytest

from oracles import naive_triangle_scan, perimeter_scan_oracle, trial_division_factorize

from heronian.core import (
    Classification,
    Triangle,
    classify,
    decompose,
    heron_area,
    perfect_square_root,
)
from heronian.enumeration import (
    _MR_CERTIFIED_BELOW,
    _factorize,
    area_perimeter_bound,
    deficient_triangles,
    equable_triangles,
    triangles_in_perimeter_range,
    triangles_with_area,
    triangles_with_perimeter,
)


def sides(triangles):
    return [t.sides for t in triangles]


def test_perimeter_known_values():
    assert triangles_with_perimeter(6) == []
    assert sides(triangles_with_perimeter(12)) == [(3, 4, 5)]
    assert Triangle(3, 25, 26) in triangles_with_perimeter(54)
    assert sides(triangles_with_perimeter(36)) == [
        (9, 10, 17),
        (9, 12, 15),
        (10, 10, 16),
        (10, 13, 13),
    ]


def test_perimeter_odd_is_empty():
    for p in range(3, 400, 2):
        assert triangles_with_perimeter(p) == []


def test_perimeter_matches_naive_scan():
    by_perimeter = {}
    for a, b, c, _area in naive_triangle_scan(260):
        by_perimeter.setdefault(a + b + c, []).append((a, b, c))
    for p in range(3, 261):
        assert sides(triangles_with_perimeter(p)) == by_perimeter.get(p, [])


def test_perimeter_matches_scan_oracle():
    # every p below 1500, odd and tiny ones included, then a seeded
    # sample of larger even perimeters
    sample = random.Random(6).sample(range(3000, 6001, 2), 4)
    for p in [*range(-4, 1500), *sample]:
        assert sides(triangles_with_perimeter(p)) == perimeter_scan_oracle(p), p


def test_range_join_matches_naive_scan():
    expected = sorted((a + b + c, a, b, c) for a, b, c, _area in naive_triangle_scan(200))
    got = [(t.perimeter, *t.sides) for t in triangles_in_perimeter_range(0, 201)]
    assert got == expected


def test_range_join_matches_per_perimeter_scan():
    per_perimeter = {p: triangles_with_perimeter(p) for p in range(-2, 420)}
    bounds = [(lo, hi) for lo in (-2, 0, 1, 5, 6, 11, 12, 13, 36, 37, 99)
              for hi in (-1, 0, 6, 7, 12, 13, 36, 37, 54, 55, 100, 101, 419)]
    bounds += [(p, p + 1) for p in range(0, 120)]  # single perimeters
    for lo, hi in bounds:
        expected = [t for p in range(lo, hi) for t in per_perimeter[p]]
        assert triangles_in_perimeter_range(lo, hi) == expected, (lo, hi)
    assert triangles_in_perimeter_range(100, 100) == []
    assert triangles_in_perimeter_range(200, 100) == []


def test_range_join_splits_into_adjacent_subranges():
    whole = triangles_in_perimeter_range(1, 601)
    for cuts in ([1, 601], [1, 300, 601], [1, 12, 13, 37, 250, 251, 600, 601],
                 list(range(1, 601, 40)) + [601]):
        parts = [t for lo, hi in zip(cuts, cuts[1:])
                 for t in triangles_in_perimeter_range(lo, hi)]
        assert parts == whole, cuts


def test_capped_range_join_matches_naive_scan():
    scan = sorted((a + b + c, a, b, c, area) for a, b, c, area in naive_triangle_scan(200))
    for area_max in (-3, 0, 1, 5, 6, 24, 36, 60, 84, 150, 336, 1000, 1680, 10**6):
        for lo, hi in ((0, 201), (1, 201), (13, 100), (37, 55), (100, 201), (150, 151)):
            expected = [(p, a, b, c) for p, a, b, c, area in scan
                        if lo <= p < hi and area <= area_max]
            got = [(t.perimeter, *t.sides)
                   for t in triangles_in_perimeter_range(lo, hi, area_max=area_max)]
            assert got == expected, (lo, hi, area_max)


def per_area_vertices(p_max):
    """Triangles with perimeter and area <= p_max, one area query at a time."""
    return {t for area in range(1, p_max + 1) for t in triangles_with_area(area)
            if t.perimeter <= p_max}


@pytest.mark.parametrize("p_max", [1, 35, 36, 100, 999, 2000, 4750])
def test_capped_range_join_matches_per_area_vertices(p_max):
    # with lo > 0 the z scan of the small u starts at s_lo - u, not ceil(u/2)
    vertices = sorted(per_area_vertices(p_max), key=lambda t: (t.perimeter, t.sides))
    for lo in (0, 1, 12, p_max // 3, p_max // 2, p_max - 100, p_max):
        expected = [t for t in vertices if t.perimeter >= lo]
        assert triangles_in_perimeter_range(lo, p_max + 1, area_max=p_max) == expected, lo


def test_factorize_matches_trial_division():
    rng = random.Random(2024)
    numbers = [rng.randint(1, 10**12) for _ in range(200)] + list(range(1, 2000))
    for n in numbers:
        assert _factorize(n) == trial_division_factorize(n), n


HARD_FACTORIZATIONS = {
    # semiprimes with both factors near 10^6
    999_983 * 1_000_003: {999_983: 1, 1_000_003: 1},
    1_000_003 * 1_000_033: {1_000_003: 1, 1_000_033: 1},
    # prime squares and cubes above 10^6
    1_000_003**2: {1_000_003: 2},
    1_000_033**3: {1_000_033: 3},
    999_983**3 * 1_000_003: {999_983: 3, 1_000_003: 1},
    # Carmichael numbers; the last three are Chernick's (6k+1)(12k+1)(18k+1),
    # every factor above the trial-division limit of 1000
    561: {3: 1, 11: 1, 17: 1},
    41_041: {7: 1, 11: 1, 13: 1, 41: 1},
    9_624_742_921: {1171: 1, 2341: 1, 3511: 1},
    11_346_205_609: {1237: 1, 2473: 1, 3709: 1},
    21_515_221_081: {1531: 1, 3061: 1, 4591: 1},
    # strong pseudoprimes to base 2; the last two have every factor above
    # 1000, and the last passes every base up to 31, so only 37 rejects it
    2047: {23: 1, 89: 1},
    3_215_031_751: {151: 1, 751: 1, 28351: 1},
    25_326_001: {2251: 1, 11251: 1},
    3_825_123_056_546_413_051: {149491: 1, 747451: 1, 34233211: 1},
    # primes far beyond trial division, below the certification bound
    1_000_000_000_000_000_003: {1_000_000_000_000_000_003: 1},
    2**61 - 1: {2**61 - 1: 1},
}


@pytest.mark.parametrize("n", sorted(HARD_FACTORIZATIONS))
def test_factorize_hard_cases(n):
    expected = HARD_FACTORIZATIONS[n]
    assert _factorize(n) == expected
    if n < 10**13:
        assert trial_division_factorize(n) == expected


def test_factorize_composites_above_the_bound():
    # composite, so Miller-Rabin rejects them and Pollard rho splits them
    assert _factorize(10_000_019 * (2**61 - 1) * (2**31 - 1)) == {
        10_000_019: 1, 2**61 - 1: 1, 2**31 - 1: 1}
    assert _factorize(2**100) == {2: 100}
    assert 10_000_019 * (2**61 - 1) * (2**31 - 1) > _MR_CERTIFIED_BELOW


def test_factorize_refuses_an_uncertifiable_prime():
    # 2^89 - 1 is prime; the bound itself is a strong pseudoprime to
    # every base up to 41 (1287836182261 * 2575672364521)
    for n in (2**89 - 1, _MR_CERTIFIED_BELOW, 6 * (2**89 - 1)):
        with pytest.raises(ValueError, match=str(_MR_CERTIFIED_BELOW)):
            _factorize(n)
        with pytest.raises(ValueError):
            triangles_with_area(n)


def test_area_known_values():
    assert sides(triangles_with_area(36)) == [(3, 25, 26), (9, 10, 17)]
    assert sides(triangles_with_area(54)) == [(9, 12, 15)]
    assert triangles_with_area(68) == []
    assert sides(triangles_with_area(1734)) == [(51, 68, 85)]
    assert sides(triangles_with_area(204)) == [(17, 25, 26)]


def test_area_results_have_that_area():
    for area in range(1, 220):
        for t in triangles_with_area(area):
            assert heron_area(t) == area


def test_area_matches_perimeter_enumeration_small():
    # Independent route: collect triangles from the perimeter enumerator
    # over every even perimeter up to the provable bound 2*area^2, then
    # filter by area. Full cross-oracle is affordable for areas <= 16.
    a_max = 16
    by_area = {}
    for p in range(4, area_perimeter_bound(a_max) + 1, 2):
        for t in triangles_with_perimeter(p):
            by_area.setdefault(heron_area(t), []).append(t)
    for area in range(1, a_max + 1):
        assert triangles_with_area(area) == sorted(by_area.get(area, []))


def test_area_and_perimeter_enumerators_agree_bidirectionally():
    # area -> perimeter: each reported triangle shows up when queried by
    # its own perimeter
    for area in range(1, 201):
        for t in triangles_with_area(area):
            assert t in triangles_with_perimeter(t.perimeter)
    # perimeter -> area: nothing with a small area is missed
    for p in range(4, 601, 2):
        for t in triangles_with_perimeter(p):
            area = heron_area(t)
            if area <= 200:
                assert t in triangles_with_area(area)


def test_area_divisor_scan_skips_nothing():
    # Rescan the whole (x, y) rectangle by increments rather than by
    # divisors and confirm the same triangles fall out: every skipped
    # pair either fails the divisibility or has a non-square discriminant.
    for area in (36, 54, 60, 84, 210, 840, 1734):
        a2 = area * area
        expected = []
        x = 1
        while 3 * x**4 <= a2:
            y = x
            while x * y * y * (x + 2 * y) <= a2:
                if a2 % (x * y) == 0:
                    target = a2 // (x * y)
                    root = perfect_square_root((x + y) * (x + y) + 4 * target)
                    if root is not None and (root - x - y) % 2 == 0:
                        z = (root - x - y) // 2
                        if z >= y:
                            expected.append(Triangle(x + y, x + z, y + z))
                y += 1
            x += 1
        assert triangles_with_area(area) == sorted(expected)


def test_equable_census():
    expected = [(5, 12, 13), (6, 8, 10), (6, 25, 29), (7, 15, 20), (9, 10, 17)]
    result = equable_triangles()
    assert sides(result) == expected
    assert len(result) == 5
    for t in result:
        assert heron_area(t) == t.perimeter


def test_deficient_contains_the_candidates():
    result = deficient_triangles(2000)
    for expected in [(3, 4, 5), (5, 5, 8), (3, 25, 26), (3, 865, 866)]:
        assert Triangle(*expected) in result


def test_deficient_below_smallest_triangle_is_empty():
    assert deficient_triangles(11) == []


def test_deficient_properties():
    for t in deficient_triangles(2000):
        area = heron_area(t)
        assert area is not None and t.perimeter > area
        d = decompose(t)
        assert 4 * (d.x + d.y + d.z) > d.x * d.y * d.z
        assert d.x <= 3 and d.y <= 9


def test_deficient_matches_naive_scan():
    expected = [
        (a, b, c)
        for a, b, c, area in naive_triangle_scan(400)
        if a + b + c > area
    ]
    assert sides(deficient_triangles(400)) == expected


def test_enumerators_return_consistent_triangles():
    for p in range(4, 301, 2):
        for t in triangles_with_perimeter(p):
            assert t.perimeter == p
            assert t.perimeter % 2 == 0
            area = heron_area(t)
            assert area is not None
            classify(t)  # must not raise
    for t in deficient_triangles(300):
        assert classify(t) is Classification.DEFICIENT
    for t in equable_triangles():
        assert classify(t) is Classification.EQUABLE
