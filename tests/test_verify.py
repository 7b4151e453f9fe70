import time
import tracemalloc
from types import SimpleNamespace

import pytest

from oracles import difference_of_squares_oracle, power_difference_oracle

from heronian.core import Classification, Triangle, classify, decompose, heron_area
from heronian.verify import (
    VERDICT_COUNTEREXAMPLE,
    VERDICT_VERIFIED,
    _difference_of_squares,
    check_equable_census,
    check_factorization_cases,
    check_gersonides,
    check_lemma2,
    check_lemma3,
    check_theorem1_divisibility,
    check_theorem2,
    check_theorem3,
    solve_power_difference,
)


def test_divisibility_known_values():
    assert check_theorem1_divisibility(1, 2, 24, 2)   # 2^4 * 3^3 = 432 = 18 * 24
    assert not check_theorem1_divisibility(1, 2, 864, 2)
    assert check_theorem1_divisibility(1, 2, 864, 3)  # 864 = 2^5 * 3^3 needs 2^8
    assert check_theorem1_divisibility(1, 4, 4, 1)    # 4 | 2^2 * 5


def test_divisibility_rejects_bad_input():
    with pytest.raises(ValueError):
        check_theorem1_divisibility(0, 2, 3, 1)
    with pytest.raises(ValueError):
        check_theorem1_divisibility(1, 2, 3, 0)


def test_divisibility_modular_matches_full_computation():
    for x in range(1, 7):
        for y in range(x, 12 - x + 1):
            for n in range(1, 7):
                full_power = 2 ** (2**n) * (x + y) ** (2**n - 1)
                for z in range(1, 1001):
                    assert check_theorem1_divisibility(x, y, z, n) == (
                        full_power % z == 0
                    )


def test_divisibility_is_cheap_for_large_n():
    # the power itself has ~2^200 bits; the modular route must not build it
    assert check_theorem1_divisibility(1, 2, 864, 200)


def test_divisibility_is_constant_time_past_the_cap():
    # 2^(10^9) alone has 10^9 bits; past n = z.bit_length().bit_length() the
    # answer is fixed, so n = 10^9 answers at once, as n = 5 does for z <= 1000
    start = time.perf_counter()
    assert check_theorem1_divisibility(1, 2, 864, 10**9)
    assert time.perf_counter() - start < 1.0
    for x, y in ((1, 2), (1, 4), (2, 3), (3, 9)):
        for z in range(1, 1001):
            assert check_theorem1_divisibility(x, y, z, 10**9) == (
                check_theorem1_divisibility(x, y, z, 5)
            )


def test_lemma2_verified_and_witnesses():
    report = check_lemma2(500)
    assert report.verdict == VERDICT_VERIFIED
    assert report.witnesses[0]["triangles_checked"] > 0

    # spot-check the certified identity area^2 / p = x*y*z / 2
    for sides, expected in [((9, 12, 15), 81), ((3, 25, 26), 24), ((5, 12, 13), 30)]:
        t = Triangle(*sides)
        area = heron_area(t)
        d = decompose(t)
        assert area * area // t.perimeter == expected == d.x * d.y * d.z // 2


def test_lemma2_leaves_area_cache_alone():
    heron_area.cache_clear()  # earlier tests may have cached these triangles
    report = check_lemma2(600)
    assert report.witnesses[0]["triangles_checked"] == 1723
    assert heron_area.cache_info().currsize == 0


def test_lemma3_verified():
    report = check_lemma3(2000)
    assert report.verdict == VERDICT_VERIFIED
    assert report.bounds == {"p_max": 2000}
    assert report.witnesses[0]["deficient_triangles_checked"] >= 4


def test_theorem2_survivors():
    expected_all = {(3, 4, 5), (5, 5, 8), (3, 25, 26), (3, 865, 866)}

    report = check_theorem2(3, 2000)
    assert report.verdict == VERDICT_VERIFIED
    survivors = {(w["a"], w["b"], w["c"]) for w in report.witnesses}
    assert survivors == expected_all

    # at n=2 the largest candidate fails the divisibility and drops out
    report = check_theorem2(2, 2000)
    assert report.verdict == VERDICT_VERIFIED
    survivors = {(w["a"], w["b"], w["c"]) for w in report.witnesses}
    assert survivors == expected_all - {(3, 865, 866)}

    # a small bound simply cuts the big candidate off
    report = check_theorem2(2, 100)
    survivors = {(w["a"], w["b"], w["c"]) for w in report.witnesses}
    assert survivors <= {(3, 4, 5), (5, 5, 8), (3, 25, 26)}


def test_theorem2_survivors_are_deficient_heronian():
    report = check_theorem2(3, 2000)
    for w in report.witnesses:
        t = Triangle(w["a"], w["b"], w["c"])
        assert heron_area(t) is not None
        assert classify(t) is Classification.DEFICIENT


@pytest.mark.parametrize("check", [
    lambda: check_lemma2(0),
    lambda: check_lemma2(-1),
    lambda: check_lemma3(0),
    lambda: check_theorem2(3, 0),
    lambda: check_theorem3(0, 8),
    lambda: check_theorem3(1000, 0),
], ids=["lemma2-p0", "lemma2-p-1", "lemma3-p0", "theorem2-p0", "theorem3-p0", "theorem3-n0"])
def test_empty_bound_is_refused(check):
    # a bound that admits nothing would report verified after checking nothing
    with pytest.raises(ValueError):
        check()


def test_power_difference_solutions():
    sols = solve_power_difference(64)
    assert sols == ({(1, 0), (2, 1)}, {(1, 1), (2, 3)})
    # all solutions already live at tiny exponents
    assert solve_power_difference(4) == sols


def test_power_difference_matches_the_dict_scan():
    for exp_max in range(1, 301):
        assert solve_power_difference(exp_max) == power_difference_oracle(exp_max)


def _peak_bytes(scan, exp_max):
    tracemalloc.start()
    try:
        scan(exp_max)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_power_difference_memory_is_linear():
    # the scan holds 2^p and 3^q, under 3 KB at exp_max 4000; a dict of every
    # 3^q holds O(exp_max^2) bits, 2.1 MB here
    bound = 64 * 1024
    assert _peak_bytes(solve_power_difference, 4000) < bound
    assert _peak_bytes(power_difference_oracle, 4000) > bound


def test_power_difference_drives_the_largest_candidate():
    # the 3^2 - 2^3 = 1 solution corresponds to the gap value
    # z = 2^5 * 3^3 = 864 of the (3, 865, 866) triangle
    assert 2**5 * 3**3 == 864
    assert decompose(Triangle(3, 865, 866)).z == 864


def test_factorization_cases():
    report = check_factorization_cases()
    assert report.verdict == VERDICT_VERIFIED
    by_case = {w["case"]: w["solutions"] for w in report.witnesses}
    assert by_case["product-16"] == []
    assert by_case["product-25"] == [[4, 12]]
    assert by_case["adjacent-squares"] == []


def test_difference_of_squares_scan_equals_the_factor_pairs():
    for product in range(1, 500):
        for offset in range(12):
            got = _difference_of_squares(product, offset)
            expected = difference_of_squares_oracle(product, offset)
            assert set(got) == set(expected), (product, offset)
            assert got == sorted(got)


def test_theorem3_verified():
    report = check_theorem3(1000, 8)
    assert report.verdict == VERDICT_VERIFIED
    counts = {w["n"]: w["cycles"] for w in report.witnesses}
    assert counts[2] == 1
    assert counts[3] == 1
    assert counts[5] == 2


U, V, W = Triangle(9, 12, 15), Triangle(3, 25, 26), Triangle(9, 10, 17)
STRAY = Triangle(13, 14, 15)


@pytest.mark.parametrize("members, witness", [
    ((V, U, STRAY), {"unexpected_member": [13, 14, 15]}),
    ((U, W), {"missing_member": [3, 25, 26]}),
], ids=["stray-member", "missing-member"])
def test_theorem3_reports_counterexample(monkeypatch, members, witness):
    # stand-ins for cycles a faulty search could return; the real search
    # finds none, so only a patched find_cycles reaches these branches
    cycle = SimpleNamespace(members=members)
    monkeypatch.setattr("heronian.verify.find_cycles", lambda n, p_max: [cycle])
    report = check_theorem3(1000, 8)
    assert report.verdict == VERDICT_COUNTEREXAMPLE
    assert not report.ok
    cycle_sides = [list(t.sides) for t in members]
    assert report.witnesses == [dict(witness, n=1, cycle=cycle_sides)]


def test_theorem3_witness_names_the_first_stray_before_a_missing_v(monkeypatch):
    # (U, STRAY, (5, 5, 8)) has two members outside U, V, W and lacks V
    members = (U, STRAY, Triangle(5, 5, 8))
    monkeypatch.setattr("heronian.verify.find_cycles",
                        lambda n, p_max: [SimpleNamespace(members=members)])
    [witness] = check_theorem3(1000, 8).witnesses
    assert witness["unexpected_member"] == [13, 14, 15]
    assert "missing_member" not in witness


def test_lemma3_reports_counterexample(monkeypatch):
    # (13, 14, 15) has gaps (6, 7, 8), so x = 6 > 3
    monkeypatch.setattr("heronian.verify.deficient_triangles", lambda p_max: [STRAY])
    report = check_lemma3(2000)
    assert report.verdict == VERDICT_COUNTEREXAMPLE
    assert not report.ok
    assert [(w["a"], w["b"], w["c"], w["x"]) for w in report.witnesses] == [(13, 14, 15, 6)]


def test_equable_and_gersonides_reports():
    assert check_equable_census().verdict == VERDICT_VERIFIED
    assert check_gersonides(64).verdict == VERDICT_VERIFIED


def test_gersonides_witnesses_label_each_solution_set_with_its_equation():
    assert check_gersonides(64).witnesses == [
        {"equation": "2^p-3^q=1", "solutions": [[1, 0], [2, 1]]},
        {"equation": "3^q-2^p=1", "solutions": [[1, 1], [2, 3]]},
    ]


def test_report_serialization_is_stable():
    a = check_factorization_cases().to_json()
    b = check_factorization_cases().to_json()
    assert a == b
    assert a == (
        '{"claim":"factorization-cases","bounds":{},'
        '"verdict":"verified-within-bounds","witnesses":['
        '{"case":"product-16","solutions":[]},'
        '{"case":"product-25","solutions":[[4,12]]},'
        '{"case":"adjacent-squares","solutions":[]}]}'
    )
    r1 = check_lemma2(200).to_json()
    r2 = check_lemma2(200).to_json()
    assert r1 == r2
