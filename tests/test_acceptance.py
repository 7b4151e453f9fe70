"""End-to-end acceptance suite.

One test per acceptance criterion; each prints a single PASS line once
its assertions (exact values plus any stated time budget) hold, so a
verbose run doubles as a checklist. Run with `pytest tests/test_acceptance.py -v -s`.
"""

import json
import time

from oracles import naive_triangle_scan, words_oracle

from heronian.catalog import build, save
from heronian.core import Triangle, heron_area
from heronian.cycles import ChainDirection, ChainEnd, ConcreteCycle, find_cycles, trace_chain
from heronian.enumeration import equable_triangles, triangles_with_area
from heronian.necklace import enumerate_words, expand
from heronian.verify import (
    VERDICT_VERIFIED,
    check_factorization_cases,
    check_lemma2,
    check_lemma3,
    check_theorem2,
    solve_power_difference,
)
import heronian.cli as cli

U = Triangle(9, 12, 15)
V = Triangle(3, 25, 26)
W = Triangle(9, 10, 17)


def timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


def test_criterion_1_equable_census():
    result, elapsed = timed(equable_triangles)
    assert [t.sides for t in result] == [
        (5, 12, 13),
        (6, 8, 10),
        (6, 25, 29),
        (7, 15, 20),
        (9, 10, 17),
    ]
    assert elapsed < 1.0
    print(f"ACCEPTANCE 1 equable census: PASS ({elapsed:.3f}s)")


def test_criterion_2_amicable_uniqueness():
    cycles, elapsed = timed(find_cycles, 2, 10000)
    assert cycles == [ConcreteCycle((U, V))]
    assert heron_area(U) == 54 == V.perimeter
    assert heron_area(V) == 36 == U.perimeter
    assert elapsed < 30.0
    print(f"ACCEPTANCE 2 amicable uniqueness: PASS ({elapsed:.2f}s)")


def test_criterion_3_area_lookups():
    start = time.perf_counter()
    assert [t.sides for t in triangles_with_area(36)] == [(3, 25, 26), (9, 10, 17)]
    assert [t.sides for t in triangles_with_area(54)] == [(9, 12, 15)]
    assert triangles_with_area(68) == []
    assert [t.sides for t in triangles_with_area(1734)] == [(51, 68, 85)]
    assert [t.sides for t in triangles_with_area(204)] == [(17, 25, 26)]
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"ACCEPTANCE 3 area lookups: PASS ({elapsed:.3f}s)")


def test_criterion_4_deficient_filter():
    report, elapsed = timed(check_theorem2, 3, 2000)
    assert report.verdict == VERDICT_VERIFIED
    survivors = {(w["a"], w["b"], w["c"]) for w in report.witnesses}
    assert survivors == {(3, 4, 5), (5, 5, 8), (3, 25, 26), (3, 865, 866)}
    assert elapsed < 10.0
    print(f"ACCEPTANCE 4 cycle-eligible deficient filter: PASS ({elapsed:.2f}s)")


def test_criterion_5_dead_end_chains():
    traces = trace_chain(Triangle(3, 865, 866), ChainDirection.PREDECESSOR, 10)
    assert len(traces) == 1
    assert traces[0].end is ChainEnd.DEAD_END
    assert traces[0].num_steps == 2
    assert traces[0].members == (
        Triangle(3, 865, 866),
        Triangle(51, 68, 85),
        Triangle(17, 25, 26),
    )
    for start in (Triangle(5, 5, 8), Triangle(3, 4, 5)):
        traces = trace_chain(start, ChainDirection.SUCCESSOR, 10)
        assert len(traces) == 1
        assert traces[0].end is ChainEnd.DEAD_END
        assert traces[0].num_steps <= 2
    print("ACCEPTANCE 5 dead-end chains: PASS")


def test_criterion_6_words_equal_graph_search():
    start = time.perf_counter()
    counts = {}
    for n in range(2, 9):
        from_words = {expand(w) for w in enumerate_words(n)}
        from_graph = set(find_cycles(n, 1000))
        assert from_words == from_graph
        counts[n] = len(from_graph)
    assert [counts[n] for n in (2, 3, 4, 5, 6)] == [1, 1, 2, 2, 4]
    # independent confirmation of the counts past the hand-built family
    for n in (6, 7, 8):
        assert counts[n] == len(words_oracle(n))
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"ACCEPTANCE 6 symbolic/concrete equivalence: PASS ({elapsed:.2f}s)")


def test_criterion_7_lemma_suite():
    r2 = check_lemma2(500)
    assert r2.verdict == VERDICT_VERIFIED
    r3 = check_lemma3(2000)
    assert r3.verdict == VERDICT_VERIFIED
    rf = check_factorization_cases()
    assert rf.verdict == VERDICT_VERIFIED
    by_case = {w["case"]: w["solutions"] for w in rf.witnesses}
    assert by_case["product-25"] == [[4, 12]]
    assert by_case["product-16"] == []
    assert by_case["adjacent-squares"] == []
    print("ACCEPTANCE 7 lemma suite: PASS")


def test_criterion_8_power_difference_desk_check():
    sols, elapsed = timed(solve_power_difference, 64)
    assert sols == ({(1, 0), (2, 1)}, {(1, 1), (2, 3)})
    assert elapsed < 1.0
    print(f"ACCEPTANCE 8 power-difference desk check: PASS ({elapsed:.3f}s)")


def test_criterion_9_oracle_equivalence():
    cat = build(300)
    expected = [
        (a, b, c, a + b + c, area) for a, b, c, area in naive_triangle_scan(300)
    ]
    got = [(r.a, r.b, r.c, r.perimeter, r.area) for r in sorted(cat.records)]
    assert got == sorted(expected)
    for area in range(1, 151):
        catalog_filter = sorted(
            r.triangle() for r in cat.records if r.area == area
        )
        assert triangles_with_area(area) == catalog_filter
    print("ACCEPTANCE 9 oracle equivalence: PASS")


def _normalized_catalog_lines(path):
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    header.pop("built_at")
    return [json.dumps(header, sort_keys=True)] + lines[1:]


def _run_json(argv, capsys):
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def test_criterion_10_determinism(tmp_path, capsys):
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    save(build(500), p1)
    save(build(500), p2)
    assert _normalized_catalog_lines(p1) == _normalized_catalog_lines(p2)

    commands = [
        ["enumerate", "--area", "36", "--format", "json"],
        ["cycles", "--n", "5", "--symbolic", "--format", "json"],
        ["cycles", "--n", "4", "--concrete", "--p-max", "200", "--format", "json"],
        ["verify", "--claim", "equable-five", "--format", "json"],
        ["verify", "--claim", "gersonides", "--format", "json"],
        ["verify", "--claim", "theorem2", "--n", "3", "--p-max", "2000", "--format", "json"],
        ["catalog", "info", "--in", str(p1), "--format", "json"],
    ]
    for argv in commands:
        assert _run_json(argv, capsys) == _run_json(argv, capsys)
    print("ACCEPTANCE 10 determinism: PASS")
