import functools
import random

import pytest

from oracles import (
    area_divisor_oracle,
    closed_walks_brute_oracle,
    closed_walks_oracle,
    perimeter_scan_oracle,
    trace_chain_oracle,
)

from heronian import cycles
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
    _least_rotation_walks,
)
from heronian.enumeration import (
    _kernel_join,
    _perimeter_triangles,
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


def test_trace_chain_takes_a_direction_by_its_value():
    # predecessor-ward from (3, 4, 5) lists the triangles of area 12, while
    # successor-ward dead-ends at once, so a value read as the other
    # direction would give other traces
    start = Triangle(3, 4, 5)
    for direction in ChainDirection:
        traces = trace_chain(start, direction.value, 2)
        assert traces == trace_chain(start, direction, 2)
        assert {t.direction for t in traces} == {direction}
    assert trace_chain(start, "successor", 2) != trace_chain(start, "predecessor", 2)
    with pytest.raises(ValueError):
        trace_chain(start, "sideways", 2)


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


def count_neighbour_queries(monkeypatch):
    """Perimeters whose triangles trace_chain lists in full, and those it
    only asks for a first triangle, through counting wrappers."""
    listed, probed = [], []

    def listing(p):
        listed.append(p)
        return triangles_with_perimeter(p)

    def probing(p):
        probed.append(p)
        return _perimeter_triangles(p)

    monkeypatch.setattr("heronian.cycles.triangles_with_perimeter", listing)
    monkeypatch.setattr("heronian.cycles._perimeter_triangles", probing)
    return listed, probed


def test_successor_leaves_with_link_divisible_by_12_are_not_queried(monkeypatch):
    # a leaf link A with 12 | A has the 3-4-5 triangle (A/4, A/3, 5A/12) of
    # perimeter A, so U's successors at 54 (areas 36, 90, 126, 108) leave
    # only the two links that are 6 mod 12 to query, and those only for a
    # first triangle
    expected = trace_chain_oracle(U.sides, True, 1)
    listed, probed = count_neighbour_queries(monkeypatch)
    assert library_traces(U.sides, ChainDirection.SUCCESSOR, 1) == expected
    assert listed == [54]
    assert probed == [90, 126]


@functools.cache
def listed_sides(p):
    return [t.sides for t in triangles_with_perimeter(p)]


@pytest.mark.parametrize("p_max, max_steps, step", [
    (40, 2, perimeter_scan_oracle),
    # past these bounds the scans of the leaves' links take minutes, so the
    # referee walks the full listings, which test_enumeration checks
    # against the scan: every leaf is decided as the full listing decides it
    (120, 1, listed_sides),
    (50, 2, listed_sides),
], ids=["scan-40-2", "listing-120-1", "listing-50-2"])
def test_successor_leaves_are_never_listed(monkeypatch, p_max, max_steps, step):
    starts = [t for p in range(p_max + 1) for t in perimeter_scan_oracle(p)]
    expected = [trace for sides in starts
                for trace in trace_chain_oracle(sides, True, max_steps, step)]
    listed, probed = count_neighbour_queries(monkeypatch)
    assert [trace for sides in starts
            for trace in library_traces(sides, ChainDirection.SUCCESSOR, max_steps)] == expected
    # every distinct link within the budget is listed once per start's
    # call; a leaf at the bound is only probed, and only when its link is
    # not a multiple of 12
    inner = {(steps[0][0], steps[k - 1][1]) for steps, end in expected
             for k in range(1, min(len(steps) - (end == "cycle-closed"), max_steps) + 1)}
    leaves = [steps[-1][1] for steps, end in expected
              if end != "cycle-closed" and len(steps) > max_steps]
    assert sorted(listed) == sorted(link for _, link in inner)
    assert sorted(probed) == sorted(link for link in leaves if link % 12)


def test_predecessor_links_are_listed_once_per_call(monkeypatch):
    # branches meet the same perimeter again and again: each call lists
    # every distinct link once, and the traces still equal the oracle's
    starts = [t for p in range(301) for t in perimeter_scan_oracle(p)]
    listed = []

    def listing(area):
        listed.append(area)
        return triangles_with_area(area)

    monkeypatch.setattr("heronian.cycles.triangles_with_area", listing)
    repeats = 0
    for sides in starts:
        for max_steps in (2, 4, 6):
            expected = trace_chain_oracle(sides, False, max_steps)
            del listed[:]
            assert library_traces(sides, ChainDirection.PREDECESSOR, max_steps) == expected
            links = {steps[k][1] for steps, end in expected
                     for k in range(len(steps) - (end == "cycle-closed"))}
            assert sorted(listed) == sorted(links), (sides, max_steps)
            visits = sum(len(steps) - (end == "cycle-closed") for steps, end in expected)
            repeats += visits - len(links)
    assert repeats > 0  # the oracle's walk lists some link more than once


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


def test_canonical_rotation_of_an_empty_sequence_is_itself():
    assert canonical_rotation(()) == ()
    assert canonical_rotation("") == ""


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


@pytest.mark.parametrize("p_max", [54, 200, 2000, 10000])
def test_find_cycles_are_the_walks_that_are_not_all_equable(p_max):
    # the generator's least rotations, in its order, with only the
    # all-equable walks left out
    equable = set(equable_triangles())
    for n in range(1, 13):
        walks = [w for w in closed_walks(n, p_max) if not set(w) <= equable]
        assert [c.members for c in find_cycles(n, p_max)] == walks, (n, p_max)


@pytest.mark.parametrize("p_max", [54, 200, 2000, 10000])
def test_find_cycles_equal_the_public_constructor_on_rotated_walks(p_max):
    # the public constructor re-derives each least rotation from a rotated
    # walk, so the walks find_cycles keeps as built must already be one
    for n in range(1, 13):
        walks = [w for w in closed_walks(n, p_max)
                 if not all(heron_area(t) == t.perimeter for t in w)]
        assert find_cycles(n, p_max) == [ConcreteCycle(w[1:] + w[:1]) for w in walks], (n, p_max)


def test_find_cycles_refuses_a_broken_walk_from_the_generator(monkeypatch):
    # the link check still runs on walks the generator yields
    monkeypatch.setattr(cycles, "_least_rotation_walks", lambda succ, n: iter([(V, V)]))
    with pytest.raises(ValueError, match="broken link"):
        find_cycles(2, 100)


@pytest.mark.parametrize("call", [
    lambda: closed_walks(2.0, 100),
    lambda: closed_walks(2, 100.0),
    lambda: find_cycles(2.0, 100),
    lambda: find_cycles(2, 100.0),
    lambda: amicable_pairs(100.0),
], ids=["walks-n", "walks-p_max", "cycles-n", "cycles-p_max", "amicable-p_max"])
def test_cycle_searches_refuse_a_non_int_length_or_bound(call):
    with pytest.raises(TypeError, match=r"^(n|p_max) must be a plain integer"):
        call()


@pytest.mark.parametrize("max_steps", [2.5, 2.0, "2", True])
def test_trace_chain_refuses_a_non_int_budget(max_steps):
    for direction in ChainDirection:
        with pytest.raises(TypeError, match="^max_steps must be a plain integer"):
            trace_chain(Triangle(3, 4, 5), direction, max_steps)


def test_long_walks_do_not_hit_the_recursion_limit():
    # at p_max 30 the core is two equable self-loops, so the only length-1200
    # closed walks are constant and none is a sociable cycle
    assert closed_walks(1200, 30) == [(Triangle(5, 12, 13),) * 1200,
                                      (Triangle(6, 8, 10),) * 1200]
    assert find_cycles(1200, 30) == []


def test_least_rotation_walks_match_brute_force_on_random_graphs():
    rng = random.Random(2100)
    for i in range(300):
        vertices = sorted(rng.sample(range(10), rng.randint(1, 5)))
        succ = {v: tuple(u for u in vertices if rng.random() < 0.5) for v in vertices}
        n = 1 + i % 7
        walks = list(_least_rotation_walks(succ, n))
        assert walks == closed_walks_brute_oracle(succ, n), (succ, n)
        assert walks == closed_walks_oracle(succ, n), (succ, n)


def test_least_rotation_walks_do_not_recurse():
    # 5000 levels would exceed the default recursion limit of 1000
    assert list(_least_rotation_walks({0: (0,)}, 5000)) == [(0,) * 5000]


@pytest.mark.parametrize("p_max", [30, 54, 200, 1732, 2000, 10000])
def test_closed_walks_match_the_anchor_search(p_max):
    _, succ = _cycle_core(p_max)
    for n in range(1, 13):
        assert closed_walks(n, p_max) == closed_walks_oracle(succ, n), (n, p_max)


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


def cold_core(p_max):
    """_cycle_core(p_max) joined from scratch: the LRU cleared and the
    stored largest core reset, so nothing is derived."""
    cycles._largest_core = (0, [])
    _cycle_core.cache_clear()
    return _cycle_core(p_max)


@pytest.mark.parametrize("p_max", [1, 35, 36, 100, 999, 1732, 2000, 4750])
def test_cycle_core_matches_per_area_core(p_max):
    assert cold_core(p_max) == per_area_core(p_max)


@pytest.mark.parametrize("p_max", [1, 35, 36, 100, 999, 1732, 2000, 4750])
def test_derived_cycle_core_matches_per_area_core(p_max):
    cold_core(4750)
    _cycle_core.cache_clear()
    assert _cycle_core(p_max) == per_area_core(p_max)
    assert cycles._largest_core[0] == 4750  # derived from the stored core, not joined


# the 16 query-mix cycle bounds, and the edges of the core's growth
CORE_BOUNDS = list(range(1000, 5000, 250)) + [1, 35, 36, 54, 1732, 10000]


def test_derived_cores_equal_cold_cores_in_any_order():
    cold = {p_max: cold_core(p_max) for p_max in CORE_BOUNDS}
    shuffled = random.Random(2026).sample(CORE_BOUNDS, len(CORE_BOUNDS))
    for order in (sorted(CORE_BOUNDS), sorted(CORE_BOUNDS, reverse=True), shuffled):
        cycles._largest_core = (0, [])
        for p_max in order:
            _cycle_core.cache_clear()  # every call builds, joined or derived
            assert _cycle_core(p_max) == cold[p_max], (order, p_max)


def test_derived_core_trims_what_the_box_leaves_open(monkeypatch):
    # the stored core's 8 rows stay closed in every box up to 10000, so only
    # a stored superset shows the derived trim at work: the join's raw rows
    # at P* cut by box(P) are the rows at P, which trim to core(P)
    cold = {p_max: cold_core(p_max) for p_max in CORE_BOUNDS if p_max <= 4750}
    monkeypatch.setattr(cycles, "_largest_core", (4750, _kernel_join(0, 4751, 4750, s_step=3)))
    for p_max, core in cold.items():
        _cycle_core.cache_clear()
        assert _cycle_core(p_max) == core, p_max


def test_kernel_join_runs_only_for_a_new_largest_bound(monkeypatch):
    joined = []

    def counting_join(*args, **kwargs):
        joined.append(args[1] - 1)  # hi = p_max + 1
        return _kernel_join(*args, **kwargs)

    monkeypatch.setattr("heronian.cycles._kernel_join", counting_join)
    monkeypatch.setattr(cycles, "_largest_core", (0, []))
    for p_max in sorted(CORE_BOUNDS, reverse=True):
        _cycle_core.cache_clear()
        _cycle_core(p_max)
    assert joined == [10000]

    joined.clear()
    monkeypatch.setattr(cycles, "_largest_core", (0, []))
    for p_max in sorted(CORE_BOUNDS) + sorted(CORE_BOUNDS):
        _cycle_core.cache_clear()
        _cycle_core(p_max)
    assert joined == sorted(CORE_BOUNDS)  # once per new maximum, never again


def count_triangles_built(monkeypatch, p_max):
    """Triangles that _cycle_core(p_max) builds, counted through a wrapper
    that is gone again before the test ends."""
    built = []

    def counting_triangle(*sides):
        built.append(sides)
        return Triangle(*sides)

    monkeypatch.setattr("heronian.cycles.Triangle", counting_triangle)
    _cycle_core.cache_clear()
    try:
        core, _ = _cycle_core(p_max)
    finally:
        _cycle_core.cache_clear()  # no core built through the wrapper outlives the test
    return core, built


def test_cold_core_builds_triangles_only_for_its_vertices(monkeypatch):
    monkeypatch.setattr(cycles, "_largest_core", (0, []))
    core, built = count_triangles_built(monkeypatch, 4750)
    assert len(core) == 8
    assert len(built) == len(core)


def test_derived_core_builds_triangles_only_for_its_vertices(monkeypatch):
    cold_core(10000)
    core, built = count_triangles_built(monkeypatch, 4750)
    assert cycles._largest_core[0] == 10000
    assert len(core) == 8
    assert len(built) == len(core)


def test_cold_core_leaves_heron_area_cache_alone():
    # the join's rows carry each vertex's area, so the core needs no heron_area
    before = heron_area.cache_info()
    cold_core(2000)
    assert heron_area.cache_info() == before  # no call at all: no hit, no miss


def test_derived_core_leaves_heron_area_cache_alone():
    cold_core(4750)
    _cycle_core.cache_clear()
    before = heron_area.cache_info()
    _cycle_core(2000)
    assert cycles._largest_core[0] == 4750
    assert heron_area.cache_info() == before
