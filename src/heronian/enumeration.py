"""Exhaustive enumeration of Heronian triangles.

All searches run in the gap coordinates (x, y, z) with x <= y <= z: a
triangle with semiperimeter s = x + y + z has sides (x+y, x+z, y+z) and
squared area s*x*y*z, which is a square exactly when x*y and s*z have
the same squarefree kernel. The perimeter enumerator steps through
x*y = ker(s*z)*t^2 for each x + y; the range enumerator joins gap pairs
on their kernels, so all perimeters below P cost O(P^2), and an
optional area bound caps it, which is how the cycle core gets every
triangle with perimeter and area <= P. The area enumerator only visits
divisor pairs of the squared area, so it costs about the divisor count
of area^2; it factorizes the area by trial division below 1000, then
Miller-Rabin and Pollard rho, and refuses (ValueError) an area with a
prime factor the test cannot certify, that is one at or above
3,317,044,064,679,887,385,961,981. Every enumerator returns a sorted
list (the range enumerator by perimeter first, the others
lexicographically), so output is deterministic.
"""

from __future__ import annotations

from itertools import islice
from math import gcd

from heronian.core import (
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

    With u = x + y and z = s - u, s*x*y*z is a square exactly when
    x*y = K*t^2 with K = ker(s*z), i.e. (y - x)^2 = u^2 - 4*K*t^2. So for
    each u with z >= ceil(u/2), t runs while 4*K*t^2 <= u^2 (equality is
    x = y), one perfect-square test each; K is usually large, so few t.
    """
    if p < 3 or p % 2:
        return []
    s = p // 2
    ker = _squarefree_kernels(s)
    found = []
    for u in range(2, 2 * s // 3 + 1):  # 3u <= 2s, i.e. z >= ceil(u/2)
        z = s - u
        g = gcd(ker[s], ker[z])
        k4 = 4 * (ker[s] * ker[z] // (g * g))  # 4 * ker(s*z)
        u2 = u * u
        t = 1
        while k4 * t * t <= u2:
            d = perfect_square_root(u2 - k4 * t * t)  # y - x
            if d is not None and u + d <= 2 * z:  # y <= z
                found.append(Triangle(u, z + (u - d) // 2, z + (u + d) // 2))
            t += 1
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


def triangles_in_perimeter_range(
    lo: int, hi: int, area_max: int | None = None
) -> list[Triangle]:
    """All Heronian triangles with lo <= perimeter < hi, sorted by
    (perimeter, a, b, c); with area_max, only those of area <= area_max.

    Squarefree-kernel join, O(P^2) for the whole range. The
    squarefree kernel ker(m) is m with every square factor divided out,
    so m*n is a square exactly when ker(m) == ker(n). With u = x + y the
    squared area is (x*y) * (z*(u+z)); for each u the pairs
    x <= y = u - x are grouped by ker(x*y), then every z in range probes
    that table, and a pair matches z only if y <= z. The kernel of a
    product comes from the factors': ker(m*n) = km*kn / gcd(km, kn)^2.

    The area bound caps z once per u: x*y >= u - 1, so a triangle of
    area <= area_max has (u-1)*z*(u+z) <= area_max^2. That cap shrinks
    as u grows, so the scan ends once it falls below ceil(u/2), the
    smallest z any u allows; each hit's area is then checked exactly.
    """
    s_lo, s_hi = (lo + 1) // 2, (hi + 1) // 2  # lo <= 2s < hi
    if s_hi <= s_lo or (area_max is not None and area_max < 1):
        return []
    a2 = None if area_max is None else area_max * area_max
    ker = _squarefree_kernels(s_hi)
    # one packed int per hit: (s, a, b) in base K = s_hi, as a, b < s < s_hi
    K = s_hi
    keys = []
    u = 2
    while u + (u + 1) // 2 < s_hi:  # smallest s for this u is u + ceil(u/2)
        z_lo = max((u + 1) // 2, s_lo - u)
        z_hi = s_hi - u  # exclusive
        if a2 is not None:
            # largest z with z*(u+z) <= a2 // (u-1)
            z_cap = (isqrt(u * u + 4 * (a2 // (u - 1))) - u) // 2
            if z_cap < (u + 1) // 2:
                break
            z_hi = min(z_hi, z_cap + 1)
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
                        if u - x <= z and (a2 is None or s * x * (u - x) * z <= a2):
                            keys.append((s * K + u) * K + x + z)
        u += 1
    keys.sort()
    found = []
    for key in keys:
        sa, b = divmod(key, K)
        s, a = divmod(sa, K)
        found.append(Triangle(a, b, 2 * s - a - b))
    return found


# Miller-Rabin with the prime bases up to 41 has no strong pseudoprime
# below this bound (Sorenson and Webster, 2015), so below it a number
# that passes is prime; the bound itself is the first pseudoprime.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_CERTIFIED_BELOW = 3_317_044_064_679_887_385_961_981


def _passes_miller_rabin(n: int) -> bool:
    """Strong probable-prime test of an odd n > 41 to every base in _MR_BASES."""
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_brent(n: int) -> int:
    """A proper divisor of the odd composite n, by Brent's variant of
    Pollard's rho on x -> x^2 + c, trying c = 1, 2, ... until one splits n.

    Differences are multiplied together in batches of m and only the
    product goes through gcd; a batch that overshoots to gcd n is
    replayed one step at a time from its start.
    """
    m = 64
    for c in range(1, n):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ValueError(f"{n} is not an odd composite")


def _factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1, as {prime: exponent}.

    Trial division removes the primes below 1000. What is left has only
    prime factors above 1000, so a cofactor below 1000^2 is prime; a
    larger one is tested with Miller-Rabin and, if composite, split by
    Pollard rho until every part is prime. The test is only a proof of
    primality below _MR_CERTIFIED_BELOW, so a cofactor at or above that
    bound which passes it is never taken as prime: ValueError instead.
    """
    factors: dict[int, int] = {}
    d = 2
    while d < 1000 and d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    parts = [n] if n > 1 else []
    while parts:
        m = parts.pop()
        if m < 1000 * 1000 or _passes_miller_rabin(m):
            if m >= _MR_CERTIFIED_BELOW:
                raise ValueError(
                    f"cannot certify the factor {m} as prime: Miller-Rabin with "
                    f"bases 2..41 is a proof only below {_MR_CERTIFIED_BELOW}"
                )
            factors[m] = factors.get(m, 0) + 1
        else:
            f = _pollard_brent(m)
            parts += [f, m // f]
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

    Raises ValueError if the area has a prime factor at or above
    3,317,044,064,679,887,385,961,981, which _factorize cannot prove
    prime.
    """
    if area < 1:
        return []
    a2 = area * area
    # divisors of area^2, from the factorization of area with doubled exponents
    divisors = _divisors({p: 2 * e for p, e in _factorize(area).items()})
    found = []
    for i, x in enumerate(divisors):
        if 3 * x**4 > a2:
            break
        rest = a2 // x
        for y in islice(divisors, i, None):  # y >= x
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
