import math
import random
import tracemalloc
from array import array

import pytest

from oracles import (
    area_divisor_oracle,
    naive_integer_area,
    naive_triangle_scan,
    perimeter_scan_oracle,
    trial_division_factorize,
)

from heronian import enumeration
from heronian.core import (
    Classification,
    Triangle,
    classify,
    decompose,
    heron_area,
    perfect_square_root,
)
from heronian.enumeration import (
    _MEMO_ENTRIES,
    _MR_CERTIFIED_BELOW,
    _area_memo,
    _factorize,
    _kernel_join,
    _not_abundant,
    _packed,
    _parity_hashes,
    _perimeter_memo,
    _unpacked,
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


CAPPED_JOIN_AREA_MAXES = (-3, 0, 1, 5, 6, 24, 36, 60, 84, 150, 336, 1000, 1680, 10**6)
CAPPED_JOIN_RANGES = ((0, 201), (1, 201), (13, 100), (37, 55), (100, 201), (150, 151))


# (s, x, y, z, area) of the naive scan, sorted by (perimeter, a, b, c)
NAIVE_ROWS_200 = [
    ((a + b + c) // 2, (a + b - c) // 2, (a + c - b) // 2, (b + c - a) // 2, area)
    for _, a, b, c, area in sorted((a + b + c, a, b, c, area)
                                   for a, b, c, area in naive_triangle_scan(200))]


def naive_join_rows(lo, hi, area_max, s_step):
    """The naive scan's rows as _kernel_join(lo, hi, area_max, s_step) should return them."""
    return [row for row in NAIVE_ROWS_200
            if lo <= 2 * row[0] < hi and row[4] <= area_max and row[0] % s_step == 0]


def assert_join_matches_naive_scan():
    for area_max in CAPPED_JOIN_AREA_MAXES:
        for lo, hi in CAPPED_JOIN_RANGES:
            # the cycle core's join probes only semiperimeters divisible by 3
            for s_step in (1, 3):
                rows = _kernel_join(lo, hi, area_max, s_step=s_step)
                assert rows == naive_join_rows(lo, hi, area_max, s_step), (lo, hi, area_max)
                for s, x, y, z, area in rows:
                    assert naive_integer_area(x + y, x + z, y + z) == area


def test_capped_range_join_matches_naive_scan():
    assert_join_matches_naive_scan()
    for area_max in CAPPED_JOIN_AREA_MAXES:
        for lo, hi in CAPPED_JOIN_RANGES:
            expected = [(x + y, x + z, y + z)
                        for _, x, y, z, _ in naive_join_rows(lo, hi, area_max, 1)]
            got = triangles_in_perimeter_range(lo, hi, area_max=area_max)
            assert sides(got) == expected, (lo, hi, area_max)


def test_join_soundness_rests_on_the_exact_check(monkeypatch):
    # with every parity hash 0, every probe matches every pair, so only the
    # perfect-square test separates triangles from the rest
    monkeypatch.setattr(enumeration, "_parity_hashes", lambda n: [0] * (n + 1))
    assert_join_matches_naive_scan()
    assert _kernel_join(0, 201, None) == naive_join_rows(0, 201, 10**6, 1)


def test_parity_hash_matches_square_products():
    # the premise of the join's completeness: a*b*c*d square => equal hashes
    h = _parity_hashes(60 * 60 * 3 * 3)
    rng = random.Random(8)
    for _ in range(2000):
        p, q, r, t = (rng.randint(1, 60) for _ in range(4))
        i, j, k, m = (rng.randint(1, 3) for _ in range(4))
        a, b, c, d = p * q * i * i, r * t * j * j, p * r * k * k, q * t * m * m
        assert math.isqrt(a * b * c * d) ** 2 == a * b * c * d
        assert h[a] ^ h[b] == h[c] ^ h[d], (a, b, c, d)
    assert h[0] == h[1] == 0
    assert all(h[k * k] == 0 for k in range(1, 142))
    words = {h[p] for p in (2, 3, 5, 7, 11, 13, 19997)}
    assert len(words) == 7 and 0 not in words and max(words) < 2**60


def per_area_vertices(p_max):
    """Triangles with perimeter and area <= p_max, one oracle area query at
    a time."""
    return {Triangle(*abc) for area in range(1, p_max + 1)
            for abc in area_divisor_oracle(area) if sum(abc) <= p_max}


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
    # both are odd, so no triangle has them as area: answered unfactorized
    for n in (2**89 - 1, _MR_CERTIFIED_BELOW):
        assert triangles_with_area(n) == []
        with pytest.raises(ValueError, match=str(_MR_CERTIFIED_BELOW)):
            triangles_with_area(6 * n)


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
    # Independent route: collect every triangle up to the provable
    # perimeter bound 2*area^2 from one range enumeration, then filter
    # by area.
    a_max = 40
    by_area = {}
    for t in triangles_in_perimeter_range(4, area_perimeter_bound(a_max) + 1):
        by_area.setdefault(heron_area(t), []).append(t)
    for area in range(1, a_max + 1):
        assert triangles_with_area(area) == sorted(by_area.get(area, []))


def test_every_heronian_area_is_a_multiple_of_6():
    # the premise that lets triangles_with_area and the cycle core skip
    # every other area
    assert all(area % 6 == 0 for *_, area in naive_triangle_scan(200))
    triangles = triangles_in_perimeter_range(0, 3001)
    assert len(triangles) > 1000
    assert all(naive_integer_area(*t.sides) % 6 == 0 for t in triangles)


def _smooth_areas(count, limit, seed):
    """Seeded products of primes <= 13 below limit, log-uniform in size."""
    rng = random.Random(seed)
    areas = []
    for _ in range(count):
        cap, n = 10 ** rng.uniform(2, math.log10(limit)), 1
        while True:
            p = rng.choice((2, 3, 5, 7, 11, 13))
            if n * p > cap:
                break
            n *= p
        areas.append(n)
    return areas


@pytest.mark.parametrize(
    "areas",
    [
        range(1, 501),
        _smooth_areas(30, 10**8, seed=6),
        # the slowest area queries seen in the query-mix benchmark
        [3926677979280, 2129436760360],
    ],
    ids=["1-500", "smooth", "smooth-tail"],
)
def test_area_matches_divisor_oracle(areas):
    for area in areas:
        assert sides(triangles_with_area(area)) == area_divisor_oracle(area), area


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


def test_equable_region_is_equable_without_a_heron_check():
    # every integer z >= y of this region is equable with no square-root
    # test, since x*y*z = 4s gives area^2 = s*x*y*z = (2s)^2; pin that here
    region = []
    for x in range(1, 13):
        for y in range(x, 13):
            if 5 <= x * y <= 12 and 4 * (x + y) % (x * y - 4) == 0:
                z = 4 * (x + y) // (x * y - 4)
                if z >= y:
                    t = Triangle(x + y, x + z, y + z)
                    assert x * y * z == 4 * (x + y + z)
                    assert heron_area(t) == t.perimeter
                    region.append(t)
    assert sorted(region) == equable_triangles()


@pytest.mark.parametrize("p_max", [0, 11, 12, 60, 400])
def test_not_abundant_region_matches_the_naive_scan(p_max):
    expected = []
    for a, b, c, area in naive_triangle_scan(p_max):
        s = (a + b + c) // 2
        if area <= 2 * s:
            expected.append((s - c, s - b, s - a))
    assert list(_not_abundant(p_max)) == sorted(expected)


def test_not_abundant_equality_cases_stop_at_perimeter_60():
    equal = [Triangle(x + y, x + z, y + z) for x, y, z in _not_abundant(2000)
             if x * y * z == 4 * (x + y + z)]
    assert sorted(equal) == equable_triangles()


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


def test_memo_hits_equal_the_misses_and_the_oracles():
    # A^2 = s*x*y*z >= s*z >= s^2/3 (z, the largest gap, is >= s/3), so an
    # area A has perimeter <= 2*sqrt(3)*A < 210 for A <= 60
    naive = naive_triangle_scan(210)
    for area in (6, 12, 24, 30, 36, 42, 48, 54, 60, 840, 1734, 5040):
        _area_memo.cache_clear()
        miss = triangles_with_area(area)
        hit = triangles_with_area(area)
        assert _area_memo.cache_info()[:2] == (1, 1)  # (hits, misses)
        assert hit == miss
        assert sides(hit) == area_divisor_oracle(area), area
        if area <= 60:
            assert sides(hit) == [(a, b, c) for a, b, c, n in naive if n == area], area
    for p in (12, 36, 54, 120, 168, 210, 1200, 2916):
        _perimeter_memo.cache_clear()
        miss = triangles_with_perimeter(p)
        hit = triangles_with_perimeter(p)
        assert _perimeter_memo.cache_info()[:2] == (1, 1)
        assert hit == miss
        assert sides(hit) == perimeter_scan_oracle(p), p
        if p <= 210:
            assert sides(hit) == [(a, b, c) for a, b, c, _ in naive if a + b + c == p], p


def test_a_caller_that_changes_its_list_changes_no_later_answer():
    for query, arg in ((triangles_with_area, 36), (triangles_with_perimeter, 36)):
        first = query(arg)
        expected = list(first)
        first.append(Triangle(3, 4, 5))
        first.reverse()
        second = query(arg)
        assert second == expected
        assert second is not query(arg)  # a fresh list on every call
        second.clear()
        assert query(arg) == expected


def test_kept_answers_do_not_serve_values_that_hash_like_their_key():
    assert sides(triangles_with_area(6)) == [(3, 4, 5)]
    assert sides(triangles_with_perimeter(12)) == [(3, 4, 5)]
    before = (_area_memo.cache_info(), _perimeter_memo.cache_info())
    for query, arg in ((triangles_with_area, 6.0), (triangles_with_area, True),
                       (triangles_with_perimeter, 12.0), (triangles_with_perimeter, True)):
        with pytest.raises(TypeError, match="plain integer"):
            query(arg)
    assert (_area_memo.cache_info(), _perimeter_memo.cache_info()) == before


def test_an_uncertifiable_area_raises_on_every_call():
    area = 6 * _MR_CERTIFIED_BELOW
    for _ in range(2):
        with pytest.raises(ValueError, match=str(_MR_CERTIFIED_BELOW)):
            triangles_with_area(area)


def test_packing_keeps_sides_of_2_to_the_63_and_shares_the_empty_answer():
    assert _packed([(3, 4, 5)]).typecode == "i"
    assert _packed([(3, 4, 5), (3 * 2**29, 4 * 2**29, 5 * 2**29)]).typecode == "q"
    k = 2**62  # (3k, 4k, 5k) has area 6k^2 and sides from 3 * 2^62 > 2^63
    big = (3 * k, 4 * k, 5 * k)
    for triples in ([(3, 4, 5), big], [(3, 4, 5), (2**31, 2**31, 2**31)]):
        assert sides(_unpacked(_packed(triples))) == triples
    for _ in range(2):  # the miss, then the hit
        found = triangles_with_area(6 * k * k)
        assert Triangle(*big) in found
        assert all(heron_area(t) == 6 * k * k for t in found)
    assert type(_area_memo(6 * k * k)) is tuple
    empty = [p for p in range(4, 100, 2) if not triangles_with_perimeter(p)]
    assert len(empty) > 2
    assert len({id(_perimeter_memo(p)) for p in empty}) == 1


def test_memo_entries_are_bounded():
    assert _area_memo.cache_info().maxsize == _MEMO_ENTRIES
    assert _perimeter_memo.cache_info().maxsize == _MEMO_ENTRIES
    _area_memo.cache_clear()
    for k in range(1, _MEMO_ENTRIES + 101):
        triangles_with_area(6 * k)
    info = _area_memo.cache_info()
    assert (info.misses, info.currsize) == (_MEMO_ENTRIES + 100, _MEMO_ENTRIES)
    assert sides(triangles_with_area(6)) == [(3, 4, 5)]  # evicted, so found again
    assert _area_memo.cache_info().misses == _MEMO_ENTRIES + 101


def test_perimeter_memo_filled_to_3000_retains_under_1_mb(monkeypatch):
    # the scans run untraced first: traced, their temporaries take about
    # 20 s, and none of them outlives its call
    rows = {p: list(enumeration._perimeter_triangles(p)) for p in range(4, 3001, 2)}
    monkeypatch.setattr(enumeration, "_perimeter_triangles", rows.__getitem__)
    _perimeter_memo.cache_clear()
    tracemalloc.start()
    try:
        for p in range(4, 3001, 2):
            triangles_with_perimeter(p)
        retained, _ = tracemalloc.get_traced_memory()
        _perimeter_memo.cache_clear()  # nothing kept through the stand-in outlives the test
        released, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    flat_sides = 3 * array("i").itemsize * sum(map(len, rows.values()))
    assert flat_sides < retained < 1e6  # about 0.56 MB on Python 3.11
    assert released < 0.01 * retained
