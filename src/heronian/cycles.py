"""Sociable cycles of Heronian triangles.

Triangles are linked by the successor relation "area of one equals
perimeter of the next". An n-sociable cycle is a closed walk of length n
under that relation (members may repeat) that is not made of equable
triangles only, considered up to rotation. The relation is directed, so
rotation is the only equivalence; reversal is not. One predicate,
_all_equable (every member's area equals its perimeter), makes that
"equable only" test for both ConcreteCycle and find_cycles.

One generator, _least_rotation_walks, lists the closed walks of any
small ordered graph one rotation class at a time, as least rotations in
ascending order. It serves both listings: closed_walks over the cycle
core's triangles, and necklace.enumerate_words over the U/V/W graph.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache

from heronian.core import Triangle, _area, _check_bound, heron_area
from heronian.enumeration import (
    _kernel_join,
    _perimeter_triangles,
    triangles_with_area,
    triangles_with_perimeter,
)

__all__ = [
    "ChainDirection",
    "ChainEnd",
    "ChainTrace",
    "ConcreteCycle",
    "amicable_pairs",
    "canonical_rotation",
    "closed_walks",
    "find_cycles",
    "predecessors",
    "successors",
    "trace_chain",
]


def canonical_rotation(members: tuple | str) -> tuple | str:
    """Lexicographically least rotation of a tuple or a string; an empty
    one is its own least rotation."""
    if not members:
        return members
    least = min(members)  # the least rotation starts at an occurrence of it
    return min(members[i:] + members[:i] for i, m in enumerate(members) if m == least)


def _all_equable(members) -> bool:
    """Whether every member's area equals its perimeter, which makes a
    closed walk no sociable cycle."""
    return all(heron_area(t) == t.perimeter for t in members)


def _check_links(members: tuple) -> None:
    """ValueError unless each member's area is the next one's perimeter,
    the last linking back to the first."""
    for t, nxt in zip(members, members[1:] + members[:1]):
        if (area := _area(t)) != nxt.perimeter:
            raise ValueError(f"broken link: area {area} of {t} != perimeter "
                             f"{nxt.perimeter} of {nxt}")


@dataclass(frozen=True)
class ConcreteCycle:
    """An n-sociable cycle, stored in canonical rotation.

    Construction checks the cyclic linking (each member's area is the
    next member's perimeter), rejects all-equable member lists, and
    normalizes to the lexicographically least rotation.
    """

    members: tuple[Triangle, ...]

    def __post_init__(self) -> None:
        members = tuple(self.members)
        if not members:
            raise ValueError("a cycle needs at least one member")
        _check_links(members)
        if _all_equable(members):
            raise ValueError("all members are equable; not a sociable cycle")
        object.__setattr__(self, "members", canonical_rotation(members))

    @classmethod
    def _from_walk(cls, walk: tuple[Triangle, ...]) -> ConcreteCycle:
        """The cycle of a closed walk that is already its least rotation
        and not all-equable, as find_cycles has it from closed_walks: the
        link check still runs, the rotation and equable tests do not."""
        _check_links(walk)
        cycle = object.__new__(cls)
        object.__setattr__(cycle, "members", walk)
        return cycle

    def __len__(self) -> int:
        return len(self.members)

    def __str__(self) -> str:
        return "[" + ", ".join(str(t) for t in self.members) + "]"


class ChainDirection(enum.Enum):
    SUCCESSOR = "successor"
    PREDECESSOR = "predecessor"


class ChainEnd(enum.Enum):
    DEAD_END = "dead-end"        # the next step has no triangles at all
    CYCLE_CLOSED = "cycle-closed"  # the next step revisits a path member
    BOUND_HIT = "bound-hit"      # step budget exhausted with steps remaining


@dataclass(frozen=True)
class ChainTrace:
    """One root-to-leaf path of a chain exploration.

    Each step pairs a triangle with its linking value: the triangle's
    area when walking successor-ward, its perimeter predecessor-ward.
    The last step's linking value is the query that dead-ended, closed
    the cycle, or was left unexplored at the bound.
    """

    direction: ChainDirection
    steps: tuple[tuple[Triangle, int], ...]
    end: ChainEnd

    @property
    def members(self) -> tuple[Triangle, ...]:
        return tuple(t for t, _ in self.steps)

    @property
    def num_steps(self) -> int:
        """Transitions taken from the starting triangle."""
        return len(self.steps) - 1


def successors(t: Triangle) -> list[Triangle]:
    """Triangles whose perimeter equals the area of t."""
    return triangles_with_perimeter(_area(t))


def predecessors(t: Triangle) -> list[Triangle]:
    """Triangles whose area equals the perimeter of t."""
    _area(t)  # refuses a triangle that is not Heronian
    return triangles_with_area(t.perimeter)


def trace_chain(
    start: Triangle, direction: ChainDirection | str, max_steps: int
) -> tuple[ChainTrace, ...]:
    """Follow the linking relation from a triangle, up to max_steps hops.

    A step's link is the query for its neighbours: its area, whose
    triangles_with_perimeter are its successors, or its perimeter, whose
    triangles_with_area are its predecessors. One explicit stack walks
    the branches; the result is one ChainTrace per root-to-leaf path, in
    depth-first order with branches sorted by side triple. A path ends
    dead-end when the next step is empty, cycle-closed when it would
    revisit one of its own members (the revisited member is appended as
    the final step), and bound-hit when the budget runs out first. A
    successor-ward leaf at the bound only asks whether a neighbour
    exists, so it lists none: it is bound-hit at once when its link is a
    multiple of 12, as one is always there, else at the first triangle
    with that perimeter, and dead-end only when there is none.

    Branches meet the same links again and again, so a dict local to the
    call keeps each link's neighbour list: every distinct link is listed
    once per call, and the dict goes with the call. Across calls the two
    listings answer a repeated link from their own bounded memos
    (enumeration._area_memo and _perimeter_memo: 2048 packed answers
    each, at most 2048 x (200 + 12n) bytes for a largest answer of n
    triangles).
    """
    if type(max_steps) is not int or max_steps < 1:  # one test on the common path
        _check_bound("max_steps", max_steps)
    area = _area(start)
    if not isinstance(direction, ChainDirection):  # a member skips the ~1 us enum call
        direction = ChainDirection(direction)  # its value; ValueError for any other
    forward = direction is ChainDirection.SUCCESSOR
    neighbours = triangles_with_perimeter if forward else triangles_with_area
    listed: dict[int, list[Triangle]] = {}  # link -> neighbours(link), this call only
    traces: list[ChainTrace] = []
    stack = [(((start, area if forward else start.perimeter),), None)]
    while stack:
        steps, end = stack.pop()
        if end is None:
            link = steps[-1][1]
            if forward and len(steps) > max_steps:
                # (A/4, A/3, 5A/12) is a Heronian 3-4-5 triangle with perimeter A
                found = link % 12 == 0 or next(_perimeter_triangles(link), None) is not None
                end = ChainEnd.BOUND_HIT if found else ChainEnd.DEAD_END
            else:
                if link in listed:
                    nxt = listed[link]
                else:
                    nxt = listed[link] = neighbours(link)
                if not nxt:
                    end = ChainEnd.DEAD_END
                elif len(steps) > max_steps:
                    end = ChainEnd.BOUND_HIT
                else:  # reversed, so the first branch is popped first
                    members = {t for t, _ in steps}
                    stack.extend(
                        (steps + ((u, heron_area(u) if forward else u.perimeter),),
                         ChainEnd.CYCLE_CLOSED if u in members else None)
                        for u in reversed(nxt)
                    )
                    continue
        traces.append(ChainTrace(direction, steps, end))
    return tuple(traces)


# (bound, trimmed rows) of the largest core joined so far; every smaller
# core is derived from these rows (see _cycle_core).
_largest_core: tuple[int, list[tuple[int, int, int, int, int]]] = (0, [])


@lru_cache(maxsize=8)
def _cycle_core(p_max: int) -> tuple[tuple[Triangle, ...], dict]:
    """Recurrent core of the successor graph on triangles with
    perimeter <= p_max and area <= p_max.

    The candidates are the (s, x, y, z, area) rows of one area-capped
    kernel join over perimeters 0..p_max, which finds every triangle in
    both bounds at once instead of querying each area up to p_max. The
    join only probes perimeters that are multiples of 6: a core vertex's
    perimeter is its predecessor's area, and every Heronian area is a
    multiple of 6 (proof at enumeration._kernel_join), so any other
    vertex would be trimmed for want of a predecessor. Rows are kept
    while their area is some kept row's perimeter (a successor) and
    their perimeter some kept row's area (a predecessor): the greatest
    set in which every vertex has both, so no vertex on a closed walk is
    lost. Triangles are built only for the kept rows, and the rows'
    exact areas leave heron_area's cache alone.

    Cores nest, so only a bound above every bound joined so far pays for
    a join; any other core is trimmed from the largest core's rows. For
    P <= P*, with box(P) the rows of perimeter <= P and area <= P,
    core(P) = trim(core(P*) & box(P)):
    - the join's rows at P are exactly the rows at P* in box(P), in the
      same (perimeter, a, b, c) order;
    - core(P) is a closed subset (every row has a successor and a
      predecessor among them) of rows(P), a subset of rows(P*), so it
      lies in core(P*), the greatest closed subset of rows(P*); hence
      core(P) lies in core(P*) & box(P);
    - trimming keeps every closed subset of the set it starts from, so
      core(P) as well, and ends in a closed subset of rows(P), which
      lies in core(P); so the two are equal.
    """
    global _largest_core
    bound, largest = _largest_core
    if p_max <= bound:
        kept = [row for row in largest if 2 * row[0] <= p_max and row[4] <= p_max]
    else:
        kept = _kernel_join(0, p_max + 1, p_max, s_step=3)
    rows = None
    while kept != rows:
        rows = kept
        perimeters = {2 * row[0] for row in rows}
        areas = {row[4] for row in rows}
        kept = [row for row in rows if row[4] in perimeters and 2 * row[0] in areas]
    if p_max > bound:
        _largest_core = (p_max, rows)

    vertices = sorted((Triangle(x + y, x + z, y + z), area) for _, x, y, z, area in rows)
    by_perimeter: dict[int, list[Triangle]] = {}
    for t, _ in vertices:
        by_perimeter.setdefault(t.perimeter, []).append(t)
    succ = {t: tuple(by_perimeter[area]) for t, area in vertices}
    return tuple(succ), succ


def _least_rotation_walks(succ: dict, n: int):
    """Yield each rotation class of length-n closed walks in the graph
    succ, as its least rotation (a tuple), in ascending order.

    succ maps every vertex to a tuple or string of its successors, keys
    and successors alike in ascending order. This is the
    Fredricksen-Kessler-Maiorana prenecklace search restricted to paths,
    i.e. FKM with the non-edges as forbidden substrings (cf. Ruskey and
    Sawada, "Generating necklaces and strings with forbidden
    substrings", 2000). A prefix
    with period p takes next any successor u of its last vertex with
    u >= the entry p places back; u equal to that entry keeps p, a
    larger u makes p the new prefix length. A full prefix is yielded
    when p divides n and its last vertex links to its first.

    Why this is every class exactly once, least rotation first:
    - unrestricted, the search visits every prenecklace once, in
      lexicographic order, and a full prenecklace is a necklace (the
      least rotation of its class) exactly when p divides n;
    - a class's least rotation is a closed walk exactly when the class
      is, and every prefix of a walk is a path, so cutting the branches
      that are not paths loses no such necklace;
    - the closing link completes the path to a closed walk.

    One explicit stack of (vertex, period, position) and one walk buffer
    carry the search, so n is not bounded by the recursion limit.
    """
    walk = [None] * n
    # successors pushed in descending order, so the least one is popped first
    descending = {v: nxt[::-1] for v, nxt in succ.items()}
    stack = [(v, 1, 0) for v in reversed(succ)]
    while stack:
        v, p, i = stack.pop()
        walk[i] = v
        i += 1
        if i < n:
            floor = walk[i - p]
            for u in descending[v]:
                if u >= floor:
                    stack.append((u, p if u == floor else i + 1, i))
        elif n % p == 0 and walk[0] in succ[v]:
            yield tuple(walk)


def closed_walks(n: int, p_max: int) -> list[tuple[Triangle, ...]]:
    """All length-n closed walks of the successor graph, one canonical
    rotation per rotation class, members bounded by p_max in perimeter,
    in ascending order.

    This is the raw search result: all-equable walks (the constant walk
    on an equable triangle) are still included; find_cycles filters
    them out.
    """
    _check_bound("n", n)
    _check_bound("p_max", p_max)
    return list(_least_rotation_walks(_cycle_core(p_max)[1], n))


def find_cycles(n: int, p_max: int) -> list[ConcreteCycle]:
    """All n-sociable cycles whose members have perimeter <= p_max.

    Any member's area equals another member's perimeter, so members of
    such cycles automatically have area <= p_max as well; the search
    over that finite vertex set is therefore complete. The cycles are
    closed_walks' least rotations, in its ascending order, less the
    all-equable walks; each keeps its walk as built, after the link
    check.
    """
    return [ConcreteCycle._from_walk(walk) for walk in closed_walks(n, p_max)
            if not _all_equable(walk)]


def amicable_pairs(p_max: int) -> list[ConcreteCycle]:
    """2-sociable cycles: pairs where each one's area is the other's perimeter."""
    return find_cycles(2, p_max)
