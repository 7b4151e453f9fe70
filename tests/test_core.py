import math
import random
from functools import partial

import pytest

from heronian import catalog, cycles, enumeration, necklace, verify
from heronian.core import (
    Classification,
    SxyzDecomposition,
    Triangle,
    _classify,
    classify,
    decompose,
    heron_area,
    is_heronian,
    isqrt,
    perfect_square_root,
    recompose,
)
from heronian.catalog import CatalogRecord
from heronian.cycles import (
    ChainDirection,
    ConcreteCycle,
    predecessors,
    successors,
    trace_chain,
)


def test_isqrt_small_values():
    assert isqrt(0) == 0
    assert isqrt(1) == 1
    assert isqrt(2) == 1
    assert isqrt(3) == 1
    assert isqrt(4) == 2
    assert isqrt(2916) == 54          # 54*54, squared area of (9,12,15)
    assert isqrt(1498176) == 1224     # 1224*1224, squared area of (3,865,866)


def test_isqrt_rejects_negative():
    with pytest.raises(ValueError):
        isqrt(-1)


def test_isqrt_floor_property_random():
    rng = random.Random(20260808)
    for _ in range(1_000_000):
        n = rng.getrandbits(rng.randint(1, 128))
        r = isqrt(n)
        assert r * r <= n < (r + 1) * (r + 1)


def test_isqrt_matches_stdlib_near_squares():
    for k in range(1, 2000):
        for n in (k * k - 1, k * k, k * k + 1):
            assert isqrt(n) == math.isqrt(n)


def test_perfect_square_root():
    assert perfect_square_root(0) == 0
    assert perfect_square_root(144) == 12
    assert perfect_square_root(145) is None
    assert perfect_square_root(-4) is None
    big = (3**80 + 7) ** 2
    assert perfect_square_root(big) == 3**80 + 7
    assert perfect_square_root(big + 1) is None


def test_perfect_square_root_agrees_with_direct_check():
    rng = random.Random(11)
    for _ in range(20000):
        n = rng.randrange(0, 10**12)
        r = math.isqrt(n)
        expected = r if r * r == n else None
        assert perfect_square_root(n) == expected


def test_perfect_square_root_agrees_with_isqrt_below_2_16():
    for n in range(1 << 16):
        r = math.isqrt(n)
        assert perfect_square_root(n) == (r if r * r == n else None)


def test_perfect_square_root_near_squares_of_every_bit_length():
    rng = random.Random(400)
    for bits in range(1, 401):
        k = rng.getrandbits(bits) | (1 << (bits - 1))  # exactly `bits` bits
        assert perfect_square_root(k * k) == k
        assert perfect_square_root(k * k + 1) is None
        assert perfect_square_root(k * k - 1) is (0 if k == 1 else None)
        assert perfect_square_root(-k) is None
        assert perfect_square_root(-k * k) is None


def test_perfect_square_root_rejects_non_squares_with_square_residues():
    # non-squares that are squares mod 256 and mod 3465 = 9*5*7*11, so no
    # residue filter on those moduli could reject them; the root must
    sq256 = {r * r % 256 for r in range(256)}
    sq3465 = {r * r % 3465 for r in range(3465)}
    rng = random.Random(3465)
    found = 0
    for bits in (8, 16, 24, 40, 64, 90, 128, 400):
        for _ in range(1000):
            n = rng.getrandbits(bits)
            if n % 256 in sq256 and n % 3465 in sq3465 and math.isqrt(n) ** 2 != n:
                assert perfect_square_root(n) is None
                found += 1
    for k in range(1, 200):  # k^2 shifted by a multiple of both moduli
        n = k * k + 256 * 3465
        if math.isqrt(n) ** 2 != n:
            assert perfect_square_root(n) is None
            found += 1
    assert found > 200


def test_heron_area_cache_is_bounded():
    maxsize = heron_area.cache_info().maxsize
    assert maxsize == 4096
    for n in range(1, maxsize + 1000):  # more distinct triangles than it holds
        heron_area(Triangle(n, n + 1, n + 1))
        assert heron_area.cache_info().currsize <= maxsize
    hits = heron_area.cache_info().hits
    heron_area(Triangle(maxsize, maxsize + 1, maxsize + 1))  # recent, so still cached
    assert heron_area.cache_info().hits == hits + 1
    heron_area.cache_clear()


def test_triangle_normalizes_side_order():
    t = Triangle(15, 9, 12)
    assert t.sides == (9, 12, 15)
    assert t == Triangle(9, 12, 15)
    assert t.perimeter == 36


def test_triangle_rejects_bad_input():
    with pytest.raises(ValueError):
        Triangle(1, 2, 3)  # degenerate
    with pytest.raises(ValueError):
        Triangle(1, 1, 5)
    with pytest.raises(ValueError):
        Triangle(0, 1, 1)
    with pytest.raises(ValueError):
        Triangle(-3, 4, 5)
    with pytest.raises(TypeError):
        Triangle(3.0, 4, 5)
    with pytest.raises(TypeError):
        Triangle(True, 4, 5)


def test_triangle_ordering_is_lexicographic():
    assert Triangle(9, 10, 17) < Triangle(9, 12, 15) < Triangle(10, 10, 16)
    assert Triangle(3, 25, 26) < Triangle(9, 10, 17)


def test_heron_area_known_values():
    assert heron_area(Triangle(5, 12, 13)) == 30
    assert heron_area(Triangle(9, 12, 15)) == 54
    assert heron_area(Triangle(3, 865, 866)) == 1224
    assert heron_area(Triangle(1, 1, 1)) is None  # odd perimeter
    assert heron_area(Triangle(2, 3, 4)) is None  # odd perimeter
    assert heron_area(Triangle(2, 3, 3)) is None  # even perimeter, irrational area
    assert is_heronian(Triangle(3, 4, 5))
    assert not is_heronian(Triangle(5, 5, 5))


def test_decompose_known_values():
    assert decompose(Triangle(3, 25, 26)) == SxyzDecomposition(27, 1, 2, 24)
    assert decompose(Triangle(5, 5, 8)) == SxyzDecomposition(9, 1, 4, 4)
    assert decompose(Triangle(3, 4, 5)) == SxyzDecomposition(6, 1, 2, 3)


def test_decompose_rejects_odd_perimeter():
    with pytest.raises(ValueError):
        decompose(Triangle(1, 1, 1))


def test_decompose_recompose_roundtrip():
    for sides in [(3, 4, 5), (3, 25, 26), (9, 10, 17), (10, 10, 16), (2, 3, 3)]:
        t = Triangle(*sides)
        if t.perimeter % 2 == 0:
            assert recompose(decompose(t)) == t


def test_decomposition_validates_invariants():
    with pytest.raises(ValueError):
        SxyzDecomposition(10, 3, 2, 5)  # not sorted
    with pytest.raises(ValueError):
        SxyzDecomposition(11, 1, 2, 3)  # s != x+y+z


def test_decomposition_product_is_squared_area():
    # scan all even-perimeter triangles up to perimeter 120
    for p in range(4, 121, 2):
        for a in range(1, p):
            for b in range(a, p):
                c = p - a - b
                if c < b or a + b <= c:
                    continue
                t = Triangle(a, b, c)
                d = decompose(t)
                s = p // 2
                direct = s * (s - a) * (s - b) * (s - c)
                assert d.product == direct
                area = heron_area(t)
                if area is not None:
                    assert area * area == d.product


def test_classify_known_values():
    assert classify(Triangle(9, 10, 17)) is Classification.EQUABLE
    assert classify(Triangle(3, 25, 26)) is Classification.DEFICIENT
    assert classify(Triangle(9, 12, 15)) is Classification.ABUNDANT


def test_plain_classify_is_the_enum_value():
    # a grid through area == perimeter and perimeter +/- 1
    for perimeter in range(1, 60):
        for area in range(1, 120):
            assert _classify(area, perimeter) is Classification.compare(area, perimeter).value
    assert {_classify(a, 12) for a in (11, 12, 13)} == {c.value for c in Classification}


def test_classify_rejects_non_heronian():
    with pytest.raises(ValueError):
        classify(Triangle(5, 5, 5))


@pytest.mark.parametrize("entry", [
    classify,
    successors,
    predecessors,
    lambda t: trace_chain(t, ChainDirection.SUCCESSOR, 1),
    lambda t: ConcreteCycle((t,)),
    CatalogRecord.from_triangle,
], ids=["classify", "successors", "predecessors", "trace_chain", "ConcreteCycle",
        "CatalogRecord.from_triangle"])
@pytest.mark.parametrize("t", [Triangle(2, 3, 4), Triangle(2, 3, 3)],
                         ids=["odd-perimeter", "sxyz-8"])
def test_every_entry_point_refuses_a_non_heronian_triangle(entry, t):
    with pytest.raises(ValueError, match="is not Heronian"):
        entry(t)


# Every entry point that takes a count, bound or budget, with valid values
# for each such argument: core._check_bound refuses each one alone.
BOUNDED_ENTRY_POINTS = {
    "closed_walks": (cycles.closed_walks, {"n": 2, "p_max": 100}),
    "find_cycles": (cycles.find_cycles, {"n": 2, "p_max": 100}),
    "amicable_pairs": (cycles.amicable_pairs, {"p_max": 100}),
    "trace_chain": (partial(trace_chain, Triangle(3, 4, 5), ChainDirection.SUCCESSOR),
                    {"max_steps": 1}),
    "enumerate_words": (necklace.enumerate_words, {"n": 4}),
    "count_words": (necklace.count_words, {"n": 4}),
    "build": (catalog.build, {"p_max": 100, "workers": 1}),
    "check_lemma2": (verify.check_lemma2, {"p_max": 100}),
    "check_lemma3": (verify.check_lemma3, {"p_max": 100}),
    "check_theorem1": (verify.check_theorem1, {"x": 1, "y": 2, "z": 864, "n": 2}),
    "check_theorem1_divisibility": (verify.check_theorem1_divisibility,
                                    {"x": 1, "y": 2, "z": 864, "n": 2}),
    "check_theorem2": (verify.check_theorem2, {"n": 2, "p_max": 100}),
    "check_theorem3": (verify.check_theorem3, {"p_max": 100, "n_max": 2}),
    "solve_power_difference": (verify.solve_power_difference, {"exp_max": 8}),
    "check_gersonides": (verify.check_gersonides, {"exp_max": 8}),
}
BOUNDED_ARGUMENTS = [pytest.param(entry, name, id=f"{entry}-{name}")
                     for entry, (_, kwargs) in BOUNDED_ENTRY_POINTS.items() for name in kwargs]


@pytest.mark.parametrize("entry, name", BOUNDED_ARGUMENTS)
@pytest.mark.parametrize("bad, error, message", [
    (2.0, TypeError, "must be a plain integer"),
    (0, ValueError, "must be at least 1"),
], ids=["float", "zero"])
def test_every_count_and_bound_is_refused_by_name(entry, name, bad, error, message):
    fn, kwargs = BOUNDED_ENTRY_POINTS[entry]
    with pytest.raises(error, match=f"^{name} {message}"):
        fn(**dict(kwargs, **{name: bad}))


@pytest.mark.parametrize("call, name", [
    (lambda: enumeration.triangles_with_perimeter(12.0), "p"),
    (lambda: enumeration.triangles_with_perimeter(13.0), "p"),
    (lambda: enumeration.triangles_with_perimeter(True), "p"),
    (lambda: enumeration.triangles_with_area(6.0), "area"),
    (lambda: enumeration.triangles_with_area(7.0), "area"),
    (lambda: enumeration.triangles_with_area(True), "area"),
    (lambda: necklace.replacement_family(4.0), "n"),
    (lambda: necklace.replacement_family(True), "n"),
    (lambda: enumeration.triangles_in_perimeter_range(0.0, 100), "lo"),
    (lambda: enumeration.triangles_in_perimeter_range(0, 100.0), "hi"),
    (lambda: enumeration.triangles_in_perimeter_range(0, 100, 50.0), "area_max"),
    (lambda: enumeration.deficient_triangles(100.0), "p_max"),
    (lambda: catalog.build(100).query_by_perimeter(12.0), "p"),
    (lambda: catalog.build(100).query_by_perimeter(True), "p"),
    (lambda: catalog.build(100).query_by_area(6.0), "area"),
    (lambda: catalog.build(100).query_by_area(True), "area"),
], ids=["perimeter-12.0", "perimeter-13.0", "perimeter-True", "area-6.0", "area-7.0",
        "area-True", "replacement_family-4.0", "replacement_family-True", "range-lo-0.0",
        "range-hi-100.0", "range-area_max-50.0", "deficient-100.0", "query_by_perimeter-12.0",
        "query_by_perimeter-True", "query_by_area-6.0", "query_by_area-True"])
def test_enumerators_refuse_a_non_int_by_name(call, name):
    with pytest.raises(TypeError, match=f"^{name} must be a plain integer"):
        call()
