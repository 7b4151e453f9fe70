"""Exact integer arithmetic for triangles with integer sides.

Everything here runs on plain Python integers. A triangle is reported as
Heronian (integer area) only when the squared area factors exactly, so
there are no floating-point false positives at any input size.
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


# Residue tables: a square must land on a square residue modulo 256 and
# modulo 3465 = 9*5*7*11. Together they reject ~98.6% of non-squares
# before the full-precision isqrt runs.
_SQ_MOD_256 = bytearray(256)
for _r in range(256):
    _SQ_MOD_256[(_r * _r) & 255] = 1
_SQ_MOD_3465 = bytearray(3465)
for _r in range(3465):
    _SQ_MOD_3465[(_r * _r) % 3465] = 1
del _r


def perfect_square_root(n: int) -> int | None:
    """Exact square root of n, or None when n is not a perfect square."""
    if n < 0:
        return None
    if not _SQ_MOD_256[n & 255] or not _SQ_MOD_3465[n % 3465]:
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
        if area == perimeter:
            return cls.EQUABLE
        if perimeter > area:
            return cls.DEFICIENT
        return cls.ABUNDANT


@lru_cache(maxsize=None)
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
    area = heron_area(t)
    if area is None:
        raise ValueError(f"{t} has no integer area")
    return Classification.compare(area, t.perimeter)
