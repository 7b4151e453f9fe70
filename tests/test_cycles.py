import random

import pytest

from oracles import area_divisor_oracle, perimeter_scan_oracle, trace_chain_oracle

from heronian.core import Classification, Triangle, classify, heron_area
from heronian.cycles import (
    ChainDirection,
    ChainEnd,
    ConcreteCycle,
    amicable_pairs,
    canonical_rotation,
    closed_walks,
    find_cycles,
    predecessors,
    successors,
    trace_chain,
    _cycle_core,
)
from heronian.enumeration import (
    equable_triangles,
    triangles_with_area,
    triangles_with_perimeter,
)

U = Triangle(9, 12, 15)
V = Triangle(3, 25, 26)
W = Triangle(9, 10, 17)


def test_successors_known_values():
    assert V in successors(U)
    assert successors(Triangle(5, 5, 8)) == [Triangle(3, 4, 5)]
    assert successors(Triangle(3, 4, 5)) == []


def test_predecessors_known_values():
    assert predecessors(Triangle(3, 865, 866)) == [Triangle(51, 68, 85)]
    assert predecessors(Triangle(51, 68, 85)) == [Triangle(17, 25, 26)]
    assert predecessors(Triangle(17, 25, 26)) == []


def test_successors_rejects_non_heronian():
    with pytest.raises(ValueError):
        successors(Triangle(5, 5, 5))
    with pytest.raises(ValueError):
        predecessors(Triangle(5, 5, 5))


def test_adjointness_up_to_perimeter_200():
    triangles = []
    for p in range(4, 201, 2):
        triangles.extend(triangles_with_perimeter(p))
    succ = {t: set(successors(t)) for t in triangles}
    pred = {t: set(predecessors(t)) for t in triangles}
    for t in triangles:
        for u in triangles:
            assert (u in succ[t]) == (t in pred[u])


def test_trace_chain_dead_end_from_largest_candidate():
    traces = trace_chain(Triangle(3, 865, 866), ChainDirection.PREDECESSOR, 10)
    assert len(traces) == 1
    trace = traces[0]
    assert trace.end is ChainEnd.DEAD_END
    assert trace.num_steps == 2
    assert trace.members == (
        Triangle(3, 865, 866),
        Triangle(51, 68, 85),
        Triangle(17, 25, 26),
    )
    # linking values predecessor-ward are the perimeters along the path
    assert [link for _, link in trace.steps] == [1734, 204, 68]


def test_trace_chain_successor_dead_ends():
    traces = trace_chain(Triangle(5, 5, 8), ChainDirection.SUCCESSOR, 10)
    assert len(traces) == 1
    assert traces[0].end is ChainEnd.DEAD_END
    assert traces[0].num_steps == 1
    assert traces[0].members == (Triangle(5, 5, 8), Triangle(3, 4, 5))

    traces = trace_chain(Triangle(3, 4, 5), ChainDirection.SUCCESSOR, 10)
    assert len(traces) == 1
    assert traces[0].end is ChainEnd.DEAD_END
    assert traces[0].num_steps == 0


def test_trace_chain_self_loop_closes_immediately():
    traces = trace_chain(W, ChainDirection.SUCCESSOR, 3)
    first = traces[0]
    assert first.end is ChainEnd.CYCLE_CLOSED
    assert first.members == (W, W)
    assert first.num_steps == 1
    # every branch terminates with one of the three endings
    assert {t.end for t in traces} <= set(ChainEnd)


def test_trace_chain_bound_hit():
    traces = trace_chain(U, ChainDirection.SUCCESSOR, 1)
    assert any(t.end is ChainEnd.BOUND_HIT for t in traces)
    for t in traces:
        assert t.num_steps <= 1


def library_traces(sides, direction, max_steps):
    return [
        (tuple((t.sides, link) for t, link in trace.steps), trace.end.value)
        for trace in trace_chain(Triangle(*sides), direction, max_steps)
    ]


def test_predecessor_traces_match_recursive_oracle():
    # whole traces in order: steps, links and ends, so a branch visited
    # out of turn fails as surely as a wrong link
    starts = [t for p in range(301) for t in perimeter_scan_oracle(p)]
    count = 0
    for sides in starts:
        for max_steps in range(1, 5):
            expected = trace_chain_oracle(sides, False, max_steps)
            assert library_traces(sides, ChainDirection.PREDECESSOR, max_steps) == expected
            count += len(expected)
    assert count == 7084


def test_successor_traces_match_recursive_oracle():
    # one step only: the oracle's O(p^2) scan of each successor's area
    # explodes at two
    starts = [t for p in range(79) for t in perimeter_scan_oracle(p)]
    count = 0
    for sides in starts:
        expected = trace_chain_oracle(sides, True, 1)
        assert library_traces(sides, ChainDirection.SUCCESSOR, 1) == expected
        count += len(expected)
    assert count == 266


def test_concrete_cycle_validation():
    cycle = ConcreteCycle((U, V))
    assert cycle.members == (V, U)  # canonical rotation puts the least first
    with pytest.raises(ValueError):
        ConcreteCycle((U, U))  # broken link
    with pytest.raises(ValueError):
        ConcreteCycle((W,))  # all equable
    with pytest.raises(ValueError):
        ConcreteCycle(())


def test_concrete_cycle_rotations_are_equal():
    assert ConcreteCycle((U, V, W)) == ConcreteCycle((W, U, V)) == ConcreteCycle((V, W, U))


def test_canonical_rotation():
    assert canonical_rotation((U, V)) == (V, U)
    assert canonical_rotation((W, U, V)) == (V, W, U)


def brute_rotation(members):
    return min(members[i:] + members[:i] for i in range(len(members)))


def test_canonical_rotation_matches_brute_force():
    rng = random.Random(5204)
    triangles = sorted(equable_triangles() + [U, V, W])
    for n in range(1, 23):
        for _ in range(40):
            digits = tuple(rng.randrange(3) for _ in range(n))  # minima repeat
            word = "".join(rng.choice("UVW") for _ in range(n))
            tris = tuple(rng.choice(triangles[:3]) for _ in range(n))
            for members in (digits, word, tris):
                assert canonical_rotation(members) == brute_rotation(members)
    for members in ("UVUV", "WUVWUV", (1, 0, 1, 0, 0), (V, U, V, U), (2, 2, 2)):
        assert canonical_rotation(members) == brute_rotation(members)


def test_find_cycles_amicable_pair():
    cycles = find_cycles(2, 100)
    assert cycles == [ConcreteCycle((U, V))]
    u, v = cycles[0].members[1], cycles[0].members[0]
    assert (u, v) == (U, V)
    assert heron_area(u) == 54 == v.perimeter
    assert heron_area(v) == 36 == u.perimeter


def test_find_cycles_length_one_is_empty():
    assert find_cycles(1, 100) == []


@pytest.mark.parametrize("p_max", [0, -1])
@pytest.mark.parametrize("search", [
    lambda p_max: closed_walks(2, p_max),
    lambda p_max: find_cycles(2, p_max),
    amicable_pairs,
], ids=["closed_walks", "find_cycles", "amicable_pairs"])
def test_empty_cycle_bound_is_refused(search, p_max):
    # a bound that admits no triangle would answer "no cycles" unsearched
    with pytest.raises(ValueError, match="p_max must be at least 1"):
        search(p_max)


def test_find_cycles_five():
    cycles = find_cycles(5, 100)
    assert len(cycles) == 2
    expected = {
        ConcreteCycle((U, V, W, W, W)),
        ConcreteCycle((U, V, U, V, W)),
    }
    assert set(cycles) == expected


def test_amicable_pairs_bounds():
    assert amicable_pairs(50) == []  # the pair needs perimeter 54
    assert amicable_pairs(100) == [ConcreteCycle((U, V))]
    assert amicable_pairs(10000) == [ConcreteCycle((U, V))]


def test_every_cycle_contains_a_deficient_member():
    for n in range(1, 8):
        for cycle in find_cycles(n, 300):
            kinds = {classify(t) for t in cycle.members}
            assert Classification.DEFICIENT in kinds


def test_every_cycle_member_divides_area_squared_by_perimeter():
    for n in range(1, 8):
        for cycle in find_cycles(n, 300):
            for t in cycle.members:
                area = heron_area(t)
                assert (area * area) % t.perimeter == 0


def test_no_two_returned_cycles_are_rotations():
    for n in (2, 4, 6):
        cycles = find_cycles(n, 300)
        seen = set()
        for cycle in cycles:
            for i in range(len(cycle.members)):
                rotation = cycle.members[i:] + cycle.members[:i]
                assert rotation not in seen
            seen.add(cycle.members)


def test_discarded_walks_are_exactly_the_constant_equable_loops():
    # the raw search keeps all-equable walks; the only ones possible are
    # an equable triangle repeated n times, since the five equable
    # perimeters are pairwise distinct
    for n in (1, 2, 3, 5):
        walks = set(closed_walks(n, 100))
        kept = {c.members for c in find_cycles(n, 100)}
        discarded = walks - kept
        expected = {(e,) * n for e in equable_triangles()}
        assert discarded == expected


def test_long_walks_do_not_hit_the_recursion_limit():
    # at p_max 30 the core is two equable self-loops, so the only length-1200
    # closed walks are constant and none is a sociable cycle
    assert closed_walks(1200, 30) == [(Triangle(5, 12, 13),) * 1200,
                                      (Triangle(6, 8, 10),) * 1200]
    assert find_cycles(1200, 30) == []


def test_cycle_members_satisfy_vertex_bounds():
    for cycle in find_cycles(6, 200):
        for t in cycle.members:
            assert t.perimeter <= 200
            assert heron_area(t) <= 200


def test_successor_membership_matches_enumerators():
    assert successors(U) == triangles_with_perimeter(54)
    assert predecessors(V) == triangles_with_area(54)


def per_area_core(p_max):
    """The recurrent core as built before the capped join: one oracle area
    query per area up to p_max, then the greatest subset in which every vertex
    has a successor and a predecessor."""
    alive = {Triangle(*abc) for area in range(1, p_max + 1)
             for abc in area_divisor_oracle(area) if sum(abc) <= p_max}
    while True:
        perimeters = {t.perimeter for t in alive}
        areas = {heron_area(t) for t in alive}
        kept = {t for t in alive if heron_area(t) in perimeters and t.perimeter in areas}
        if kept == alive:
            break
        alive = kept
    succ = {t: tuple(sorted(u for u in alive if u.perimeter == heron_area(t)))
            for t in alive}
    return tuple(sorted(alive)), succ


@pytest.mark.parametrize("p_max", [1, 35, 36, 100, 999, 1732, 2000, 4750])
def test_cycle_core_matches_per_area_core(p_max):
    _cycle_core.cache_clear()
    assert _cycle_core(p_max) == per_area_core(p_max)


def test_cold_core_builds_triangles_only_for_its_vertices(monkeypatch):
    built = []

    def counting_triangle(*sides):
        built.append(sides)
        return Triangle(*sides)

    monkeypatch.setattr("heronian.cycles.Triangle", counting_triangle)
    _cycle_core.cache_clear()
    try:
        core, _ = _cycle_core(4750)
    finally:
        _cycle_core.cache_clear()  # no core built through the wrapper outlives the test
    assert len(core) == 8
    assert len(built) == len(core)


def test_cold_core_leaves_heron_area_cache_alone():
    # the join's rows carry each vertex's area, so the core needs no heron_area
    _cycle_core.cache_clear()
    before = heron_area.cache_info()
    _cycle_core(2000)
    assert heron_area.cache_info() == before  # no call at all: no hit, no miss
