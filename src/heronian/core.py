"""Exact integer arithmetic for triangles with integer sides.

Everything here runs on plain Python integers. A triangle is reported as
Heronian (integer area) only when the squared area s*x*y*z is a perfect
square, so there are no floating-point false positives at any input
size. That predicate is math.isqrt and a multiply back, decided by
perfect_square_root everywhere but in the two divisor loops of
enumeration, _perimeter_triangles and triangles_with_area: they test
millions of candidates, so each spells the same two steps inline rather
than pay a Python call per candidate. heron_area keeps the areas of the
last 4096 triangles it was asked about. The package's other bounded
memos are enumeration's _area_memo and _perimeter_memo, each the last
2048 answers of triangles_with_area or triangles_with_perimeter with the
sides packed flat, at most 2048 x (200 + 12n) bytes for a largest kept
answer of n triangles (see enumeration).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from math import isqrt  # exact; re-exported as heronian.isqrt

__all__ = [
    "Classification",
    "SxyzDecomposition",
    "Triangle",
    "classify",
    "decompose",
    "heron_area",
    "is_heronian",
    "isqrt",
    "perfect_square_root",
    "recompose",
]


def perfect_square_root(n: int) -> int | None:
    """Exact square root of n, or None when n is not a perfect square."""
    if n < 0:
        return None
    r = isqrt(n)
    return r if r * r == n else None


@dataclass(frozen=True, order=True)
class Triangle:
    """Integer-sided triangle, sides normalized to a <= b <= c.

    Construction rejects non-integer sides, non-positive sides and
    degenerate triples (a + b <= c). Ordering and equality use the
    sorted side tuple, so deduplication is well defined.
    """

    a: int
    b: int
    c: int

    def __post_init__(self) -> None:
        sides = (self.a, self.b, self.c)
        if not all(type(v) is int for v in sides):
            raise TypeError(f"sides must be plain integers, got {sides!r}")
        a, b, c = sorted(sides)
        if a < 1:
            raise ValueError(f"sides must be positive, got {sides}")
        if a + b <= c:
            raise ValueError(f"degenerate or impossible side triple {sides}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    @property
    def perimeter(self) -> int:
        return self.a + self.b + self.c

    @property
    def sides(self) -> tuple[int, int, int]:
        return (self.a, self.b, self.c)

    def __str__(self) -> str:
        return f"({self.a}, {self.b}, {self.c})"


@dataclass(frozen=True, order=True)
class SxyzDecomposition:
    """Semiperimeter coordinates (s, x, y, z) of an even-perimeter triangle.

    x, y, z are the gaps between the semiperimeter and the sides, sorted
    so x <= y <= z. They satisfy s = x + y + z, the sides are recovered
    as the pairwise sums, and s*x*y*z is the squared area.
    """

    s: int
    x: int
    y: int
    z: int

    def __post_init__(self) -> None:
        if not (1 <= self.x <= self.y <= self.z):
            raise ValueError(f"need 1 <= x <= y <= z, got {self}")
        if self.s != self.x + self.y + self.z:
            raise ValueError(f"s must equal x + y + z, got {self}")

    @property
    def product(self) -> int:
        """s*x*y*z, the squared area when the source triangle is Heronian."""
        return self.s * self.x * self.y * self.z


class Classification(enum.Enum):
    """How a Heronian triangle's area compares to its perimeter."""

    EQUABLE = "equable"      # area == perimeter
    DEFICIENT = "deficient"  # perimeter > area
    ABUNDANT = "abundant"    # area > perimeter

    @classmethod
    def compare(cls, area: int, perimeter: int) -> Classification:
        """Classify a known area against its perimeter."""
        return cls(_classify(area, perimeter))


_EQUABLE, _DEFICIENT, _ABUNDANT = (c.value for c in Classification)


def _classify(area: int, perimeter: int) -> str:
    """Classification.compare(area, perimeter).value, the same str object.

    Plain comparisons: on Python 3.11 an enum's .value is a Python-level
    descriptor, which costs more than the rest of this per catalog record.
    """
    if area == perimeter:
        return _EQUABLE
    return _DEFICIENT if perimeter > area else _ABUNDANT


@lru_cache(maxsize=4096)
def heron_area(t: Triangle) -> int | None:
    """Exact integer area of t, or None when t is not Heronian.

    An odd perimeter means the semiperimeter is not an integer and the
    area cannot be one either, so those return None immediately.
    """
    p = t.perimeter
    if p % 2:
        return None
    s = p // 2
    return perfect_square_root(s * (s - t.a) * (s - t.b) * (s - t.c))


def is_heronian(t: Triangle) -> bool:
    return heron_area(t) is not None


def _check_int(name: str, value) -> None:
    """TypeError naming the argument unless value is a plain int."""
    if type(value) is not int:
        raise TypeError(f"{name} must be a plain integer, got {type(value).__name__}")


def _check_bound(name: str, value) -> None:
    """The one refusal of a count, bound or budget: TypeError naming a
    non-int, ValueError for a value below 1."""
    _check_int(name, value)
    if value < 1:
        raise ValueError(f"{name} must be at least 1")


def _area(t: Triangle) -> int:
    """heron_area(t), or ValueError for a triangle that is not Heronian.

    The one guard of every entry point that needs a Heronian triangle.
    """
    area = heron_area(t)
    if area is None:
        raise ValueError(f"{t} is not Heronian")
    return area


def decompose(t: Triangle) -> SxyzDecomposition:
    """Rewrite t in (s, x, y, z) coordinates.

    Only defined for even perimeters; an odd perimeter cannot belong to
    a Heronian triangle and raises ValueError.
    """
    p = t.perimeter
    if p % 2:
        raise ValueError(f"odd perimeter {p}: {t} cannot be Heronian")
    s = p // 2
    return SxyzDecomposition(s, s - t.c, s - t.b, s - t.a)


def recompose(d: SxyzDecomposition) -> Triangle:
    """Inverse of decompose: sides are the pairwise sums of x, y, z."""
    return Triangle(d.x + d.y, d.x + d.z, d.y + d.z)


def classify(t: Triangle) -> Classification:
    """Compare area and perimeter of a Heronian triangle.

    Raises ValueError for non-Heronian input.
    """
    return Classification.compare(_area(t), t.perimeter)
