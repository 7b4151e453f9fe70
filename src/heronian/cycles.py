"""Sociable cycles of Heronian triangles.

Triangles are linked by the successor relation "area of one equals
perimeter of the next". An n-sociable cycle is a closed walk of length n
under that relation (members may repeat) that is not made of equable
triangles only, considered up to rotation. The relation is directed, so
rotation is the only equivalence; reversal is not.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache

from heronian.core import Classification, Triangle, classify, heron_area
from heronian.enumeration import (
    _kernel_join,
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
    """Lexicographically least rotation of a tuple or a string."""
    least = min(members)  # the least rotation starts at an occurrence of it
    return min(members[i:] + members[:i] for i, m in enumerate(members) if m == least)


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
        n = len(members)
        for i, t in enumerate(members):
            area = heron_area(t)
            if area is None:
                raise ValueError(f"{t} is not Heronian")
            nxt = members[(i + 1) % n]
            if area != nxt.perimeter:
                raise ValueError(
                    f"broken link: area {area} of {t} != perimeter "
                    f"{nxt.perimeter} of {nxt}"
                )
        if all(classify(t) is Classification.EQUABLE for t in members):
            raise ValueError("all members are equable; not a sociable cycle")
        object.__setattr__(self, "members", canonical_rotation(members))

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
    area = heron_area(t)
    if area is None:
        raise ValueError(f"{t} is not Heronian")
    return triangles_with_perimeter(area)


def predecessors(t: Triangle) -> list[Triangle]:
    """Triangles whose area equals the perimeter of t."""
    if heron_area(t) is None:
        raise ValueError(f"{t} is not Heronian")
    return triangles_with_area(t.perimeter)


def trace_chain(
    start: Triangle, direction: ChainDirection, max_steps: int
) -> tuple[ChainTrace, ...]:
    """Follow the linking relation from a triangle, up to max_steps hops.

    A step's link is the query for its neighbours: its area, whose
    triangles_with_perimeter are its successors, or its perimeter, whose
    triangles_with_area are its predecessors. One explicit stack walks
    the branches; the result is one ChainTrace per root-to-leaf path, in
    depth-first order with branches sorted by side triple. A path ends
    dead-end when the next step is empty, cycle-closed when it would
    revisit one of its own members (the revisited member is appended as
    the final step), and bound-hit when the budget runs out first.
    """
    if max_steps < 1:
        raise ValueError("max_steps must be at least 1")
    area = heron_area(start)
    if area is None:
        raise ValueError(f"{start} is not Heronian")
    forward = direction is ChainDirection.SUCCESSOR
    neighbours = triangles_with_perimeter if forward else triangles_with_area
    traces: list[ChainTrace] = []
    stack = [(((start, area if forward else start.perimeter),), None)]
    while stack:
        steps, end = stack.pop()
        if end is None:
            nxt = neighbours(steps[-1][1])
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
    """
    rows, kept = None, _kernel_join(0, p_max + 1, p_max, s_step=3)
    while kept != rows:
        rows = kept
        perimeters = {2 * row[0] for row in rows}
        areas = {row[4] for row in rows}
        kept = [row for row in rows if row[4] in perimeters and 2 * row[0] in areas]

    vertices = sorted((Triangle(x + y, x + z, y + z), area) for _, x, y, z, area in rows)
    by_perimeter: dict[int, list[Triangle]] = {}
    for t, _ in vertices:
        by_perimeter.setdefault(t.perimeter, []).append(t)
    succ = {t: tuple(by_perimeter[area]) for t, area in vertices}
    return tuple(succ), succ


def closed_walks(n: int, p_max: int) -> list[tuple[Triangle, ...]]:
    """All length-n closed walks of the successor graph, one canonical
    rotation per rotation class, members bounded by p_max in perimeter.

    This is the raw search result: all-equable walks (the constant walk
    on an equable triangle) are still included; find_cycles filters
    them out.
    """
    if n < 1:
        raise ValueError("cycle length must be at least 1")
    if p_max < 1:
        raise ValueError("p_max must be at least 1")
    core, succ = _cycle_core(p_max)
    found: set[tuple[Triangle, ...]] = set()
    for v0 in core:
        stack = [(v0,)]  # an explicit stack, so n is not bounded by the recursion limit
        while stack:
            path = stack.pop()
            if len(path) == n:
                if v0 in succ[path[-1]]:
                    found.add(canonical_rotation(path))
            else:  # v0 is the minimal member of any walk it anchors
                stack.extend(path + (u,) for u in succ[path[-1]] if u >= v0)
    return sorted(found)


def find_cycles(n: int, p_max: int) -> list[ConcreteCycle]:
    """All n-sociable cycles whose members have perimeter <= p_max.

    Any member's area equals another member's perimeter, so members of
    such cycles automatically have area <= p_max as well; the search
    over that finite vertex set is therefore complete. Results are
    deduplicated under rotation and sorted.
    """
    cycles = []
    for walk in closed_walks(n, p_max):
        if all(classify(t) is Classification.EQUABLE for t in walk):
            continue
        cycles.append(ConcreteCycle(walk))
    return cycles


def amicable_pairs(p_max: int) -> list[ConcreteCycle]:
    """2-sociable cycles: pairs where each one's area is the other's perimeter."""
    return find_cycles(2, p_max)
