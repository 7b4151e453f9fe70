"""Exhaustive enumeration of Heronian triangles.

All searches run in the gap coordinates (x, y, z) with x <= y <= z: a
triangle with semiperimeter s = x + y + z has sides (x+y, x+z, y+z) and
squared area s*x*y*z. The perimeter enumerator scans every triple with a
fixed sum; the range enumerator joins gap pairs on squarefree kernels,
so all perimeters below P together cost O(P^2), as one perimeter does
for the scan; the area enumerator only visits divisor pairs of the
squared area, which keeps it fast even for large areas. Every enumerator
returns a sorted list (the range enumerator by perimeter first, the
others lexicographically), so output is deterministic.
"""

from __future__ import annotations

from math import gcd

from heronian.core import (
    _SQ_MOD_256,
    _SQ_MOD_3465,
    Triangle,
    heron_area,
    isqrt,
    perfect_square_root,
)

__all__ = [
    "area_perimeter_bound",
    "deficient_triangles",
    "equable_triangles",
    "triangles_in_perimeter_range",
    "triangles_with_area",
    "triangles_with_perimeter",
]


def area_perimeter_bound(area: int) -> int:
    """Largest perimeter any Heronian triangle of the given area can have.

    From s*x*y*z = area^2 and x*y*z >= 1 we get s <= area^2, so the
    perimeter is at most 2*area^2. Coarse but provable, which is what
    makes brute-force cross-checks against the perimeter enumerator
    terminating.
    """
    return 2 * area * area


def triangles_with_perimeter(p: int) -> list[Triangle]:
    """All Heronian triangles with perimeter p, sorted by side triple.

    Odd perimeters have no Heronian triangles (the semiperimeter would
    not be an integer) and give an empty list.
    """
    if p < 3 or p % 2:
        return []
    s = p // 2
    found = []
    sq256, sq3465 = _SQ_MOD_256, _SQ_MOD_3465  # hoisted: this loop is hot
    for x in range(1, s // 3 + 1):
        sx = s * x
        rem = s - x
        for y in range(x, rem // 2 + 1):
            z = rem - y
            v = sx * y * z
            if sq256[v & 255] and sq3465[v % 3465]:
                r = isqrt(v)
                if r * r == v:
                    found.append(Triangle(x + y, x + z, y + z))
    found.sort()
    return found


def _squarefree_kernels(n: int) -> list[int]:
    """ker[m] = m divided by its largest square divisor, for 0 <= m <= n."""
    ker = list(range(n + 1))
    for i in range(2, isqrt(n) + 1):
        sq = i * i
        for m in range(sq, n + 1, sq):
            while ker[m] % sq == 0:
                ker[m] //= sq
    return ker


def triangles_in_perimeter_range(lo: int, hi: int) -> list[Triangle]:
    """All Heronian triangles with lo <= perimeter < hi, sorted by
    (perimeter, a, b, c).

    Squarefree-kernel join, O(P^2) for the whole range instead of the
    O(P^3) of calling triangles_with_perimeter for each perimeter. The
    squarefree kernel ker(m) is m with every square factor divided out,
    so m*n is a square exactly when ker(m) == ker(n). With u = x + y the
    squared area is (x*y) * (z*(u+z)); for each u the pairs
    x <= y = u - x are grouped by ker(x*y), then every z in range probes
    that table, and a pair matches z only if y <= z. The kernel of a
    product comes from the factors': ker(m*n) = km*kn / gcd(km, kn)^2.
    """
    s_lo, s_hi = (lo + 1) // 2, (hi + 1) // 2  # lo <= 2s < hi
    if s_hi <= s_lo:
        return []
    ker = _squarefree_kernels(s_hi)
    # one packed int per hit: (s, a, b) in base K = s_hi, as a, b < s < s_hi
    K = s_hi
    keys = []
    u = 2
    while u + (u + 1) // 2 < s_hi:  # smallest s for this u is u + ceil(u/2)
        z_lo = max((u + 1) // 2, s_lo - u)
        z_hi = s_hi - u  # exclusive
        if z_lo < z_hi:
            pairs: dict[int, list[int]] = {}
            for x in range(1, u // 2 + 1):
                kx, ky = ker[x], ker[u - x]
                g = gcd(kx, ky)
                pairs.setdefault(kx * ky // (g * g), []).append(x)
            for z in range(z_lo, z_hi):
                kz, ks = ker[z], ker[u + z]
                g = gcd(kz, ks)
                xs = pairs.get(kz * ks // (g * g))
                if xs:
                    s = u + z
                    for x in xs:
                        if u - x <= z:  # y <= z
                            keys.append((s * K + u) * K + x + z)
        u += 1
    keys.sort()
    found = []
    for key in keys:
        sa, b = divmod(key, K)
        s, a = divmod(sa, K)
        found.append(Triangle(a, b, 2 * s - a - b))
    return found


def _factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division; plenty at desk scale."""
    factors: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def _divisors(factors: dict[int, int]) -> list[int]:
    divs = [1]
    for p, e in factors.items():
        divs = [d * p**k for d in divs for k in range(e + 1)]
    divs.sort()
    return divs


def triangles_with_area(area: int) -> list[Triangle]:
    """All Heronian triangles with exactly the given area, sorted.

    Divisor-triple search: for each divisor pair (x, y) of area^2 the
    remaining gap must solve z^2 + (x+y)z - area^2/(x*y) = 0, so z
    exists exactly when the discriminant is a perfect square and the
    positive root is an integer >= y. The loop bounds come from
    s*x*y*z = area^2 with x <= y <= z: x satisfies 3*x^4 <= area^2 and
    y satisfies x*y*y*(x + 2*y) <= area^2, so the scan is finite and
    provably complete.
    """
    if area < 1:
        return []
    a2 = area * area
    # divisors of area^2, from the factorization of area with doubled exponents
    divisors = _divisors({p: 2 * e for p, e in _factorize(area).items()})
    found = []
    for x in divisors:
        if 3 * x**4 > a2:
            break
        rest = a2 // x
        for y in divisors:
            if y < x:
                continue
            if x * y * y * (x + 2 * y) > a2:
                break
            if rest % y:
                continue
            target = rest // y  # z * (z + x + y) must equal this
            disc = (x + y) * (x + y) + 4 * target
            root = perfect_square_root(disc)
            if root is None or (root - x - y) % 2:
                continue
            z = (root - x - y) // 2
            if z >= y:
                found.append(Triangle(x + y, x + z, y + z))
    found.sort()
    return found


def equable_triangles() -> list[Triangle]:
    """The Heronian triangles whose area equals their perimeter.

    Equability in gap coordinates reads x*y*z = 4*(x+y+z). Since
    x <= y <= z forces 4*(x+y+z) <= 12*z, any solution has x*y <= 12,
    and for x*y > 4 the third gap is pinned to z = 4*(x+y)/(x*y - 4)
    (for x*y <= 4 the equation has no solution at all, as the left side
    stays below 4*(x+y+z)). The scan below exhausts that finite region,
    so emptiness beyond it is a consequence of the bound, not an
    assumption; the well-known count of five is asserted in tests only.
    """
    found = []
    x = 1
    while x * x <= 12:
        y = x
        while x * y <= 12:
            if x * y > 4:
                num = 4 * (x + y)
                den = x * y - 4
                if num % den == 0:
                    z = num // den
                    if z >= y:
                        t = Triangle(x + y, x + z, y + z)
                        if heron_area(t) == t.perimeter:
                            found.append(t)
            y += 1
        x += 1
    found.sort()
    return found


def deficient_triangles(p_max: int) -> list[Triangle]:
    """Heronian triangles with perimeter <= p_max and perimeter > area.

    Perimeter > area is equivalent to 4*(x+y+z) > x*y*z. With
    x <= y <= z that inequality forces x*y <= 11, and once x*y >= 5 it
    caps z below 4*(x+y)/(x*y - 4); for x*y <= 4 it holds for every z,
    so z runs to the semiperimeter cap. The region scanned is therefore
    exactly the set of deficient triples with perimeter <= p_max.
    """
    s_max = p_max // 2
    found = []
    x = 1
    while x * x <= 11:  # x*y <= 11 and y >= x
        y = x
        while x * y <= 11:
            z_hi = s_max - x - y
            q = x * y - 4
            if q > 0:
                z_hi = min(z_hi, (4 * (x + y) - 1) // q)  # z < 4(x+y)/q
            for z in range(y, z_hi + 1):
                if perfect_square_root((x + y + z) * x * y * z) is not None:
                    found.append(Triangle(x + y, x + z, y + z))
            y += 1
        x += 1
    found.sort()
    return found
