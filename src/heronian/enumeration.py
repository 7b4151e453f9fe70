"""Exhaustive enumeration of Heronian triangles.

All searches run in the gap coordinates (x, y, z) with x <= y <= z: a
triangle with semiperimeter s = x + y + z has sides (x+y, x+z, y+z) and
squared area s*x*y*z, which is a square exactly when x*y and s*z have
the same squarefree kernel. The perimeter enumerator steps through
x*y = ker(s*z)*t^2 for each x + y. The range enumerator joins gap pairs
on a parity hash of their kernels, the XOR of one fixed word per prime
with an odd exponent: a square product has equal hashes on both sides,
so the join misses nothing, and every match is confirmed by an exact
square root, so a hash collision never reaches the output. All
perimeters below P cost O(P^2), and an optional area bound caps it,
which is how the cycle core gets every triangle with perimeter and
area <= P. The join hands the catalog, lemma2 and the cycle core rows
(s, x, y, z, area), so they re-derive nothing. Every Heronian area is a
multiple of 6, so the cycle core's join probes only perimeters that are
multiples of 6 and the area enumerator answers any other area with []
at once. The area enumerator only visits divisor pairs of the squared
area, so it costs about the divisor count of area^2; it factorizes the
area by trial division below 1000, then Miller-Rabin and Pollard rho,
and refuses (ValueError) an area with a prime factor the test cannot
certify, that is one at or above 3,317,044,064,679,887,385,961,981.
Every enumerator returns a sorted list (the range enumerator by
perimeter first, the others lexicographically), so output is
deterministic. The two perimeter enumerators emit their rows in that
order by construction, so neither sorts.

The area and perimeter queries are the links the sociable-cycle walks
follow, so a session asks the same ones again and again. Each keeps its
last 2048 answers in an lru_cache keyed by the plain int, _area_memo and
_perimeter_memo, with the sides packed flat (_packed); every call still
returns a fresh list of Triangles. An entry costs about 200 bytes plus
12 per triangle (4 bytes a side below 2^31), so a memo holds at most
2048 x (200 + 12n) bytes for a largest kept answer of n triangles: about
4.8 MB at n = 179, the most of any perimeter <= 3000, and 5.3 MB at
n = 198 (area 5,405,400).
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from functools import lru_cache
from math import gcd

from heronian.core import Triangle, _check_int, isqrt, perfect_square_root

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


# Entries each of the two query memos keeps, _perimeter_memo and
# _area_memo; both are lru_caches keyed by the plain int.
_MEMO_ENTRIES = 2048


def _packed(triples) -> array | tuple:
    """The sides of sorted side triples, laid out flat: an array('i') at
    4 bytes a side, an array('q') at 8 once a side reaches 2^31, a tuple
    once one reaches 2^63 (which neither can hold), and the one shared ()
    when there are none."""
    flat = [side for triple in triples for side in triple]
    if not flat:
        return ()
    for typecode in "iq":
        try:
            return array(typecode, flat)
        except OverflowError:
            pass
    return tuple(flat)


def _unpacked(flat: array | tuple) -> list[Triangle]:
    """A fresh list of the Triangles whose sides _packed laid out."""
    sides = iter(flat)
    return [Triangle(a, b, c) for a, b, c in zip(sides, sides, sides)]


def triangles_with_perimeter(p: int) -> list[Triangle]:
    """All Heronian triangles with perimeter p, sorted by side triple.

    Odd perimeters have no Heronian triangles (the semiperimeter would
    not be an integer) and give an empty list; a p that is not a plain
    int raises TypeError. Both tests come before the memo is read, so
    12.0 or True, which hash like 12 and 1, never reach an int's entry.
    """
    if type(p) is not int or p < 3 or p % 2:
        _check_int("p", p)
        return []
    return _unpacked(_perimeter_memo(p))


@lru_cache(maxsize=_MEMO_ENTRIES)
def _perimeter_memo(p: int) -> array | tuple:
    """_perimeter_triangles(p), packed (see _packed)."""
    return _packed(_perimeter_triangles(p))


def _perimeter_triangles(p: int):
    """Yield the side triples of the Heronian triangles with even
    perimeter p, sorted, so a caller that needs only the first stops the
    scan there.

    With u = x + y and z = s - u, s*x*y*z is a square exactly when
    x*y = K*t^2 with K = ker(s*z), i.e. (y - x)^2 = u^2 - 4*K*t^2. So for
    each u with z >= ceil(u/2), t runs while 4*K*t^2 <= u^2 (equality is
    x = y), one perfect-square test each; K is usually large, so few t.
    Sorted because a = u ascends, and b = z + (u - d)/2 rises with t as
    d = y - x shrinks.
    """
    s = p // 2
    ker = _squarefree_kernels(s)
    for u in range(2, 2 * s // 3 + 1):  # 3u <= 2s, i.e. z >= ceil(u/2)
        z = s - u
        g = gcd(ker[s], ker[z])
        k4 = 4 * (ker[s] * ker[z] // (g * g))  # 4 * ker(s*z)
        u2 = u * u
        t = 1
        while k4 * t * t <= u2:
            d2 = u2 - k4 * t * t  # (y - x)^2 when it is a square
            d = isqrt(d2)  # perfect_square_root, inline (see core)
            if d * d == d2 and u + d <= 2 * z:  # y <= z
                yield (u, z + (u - d) // 2, z + (u + d) // 2)
            t += 1


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

    The Triangles of _kernel_join's rows, O(P^2) for the whole range:
    complete because every triangle's probe matches its pair's parity
    hash, exact because each match is kept only if s*x*y*z is a perfect
    square (see _kernel_join). A bound that is not a plain int raises
    TypeError.
    """
    _check_int("lo", lo)
    _check_int("hi", hi)
    if area_max is not None:
        _check_int("area_max", area_max)
    return [Triangle(x + y, x + z, y + z) for _, x, y, z, _ in _kernel_join(lo, hi, area_max)]


_MASK64 = (1 << 64) - 1


def _prime_word(p: int) -> int:
    """A fixed 30-bit word for the prime p: the top bits of the splitmix64
    finalizer of p, so the same on every run and every platform. Thirty
    bits fit one CPython int digit, so every hash and XOR of the join
    stays a one-digit int."""
    z = (p * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) >> 34


def _parity_hashes(n: int) -> list[int]:
    """h[m] = XOR of _prime_word(p) over the primes p with an odd exponent
    in m, for 0 <= m <= n (h[0] = h[1] = 0).

    Each prime power q = p^k <= n flips p's word in every multiple of q,
    so m gets it once per factor of p. Hence h[m*n] = h[m] ^ h[n] and
    h[k*k] = 0: if m*n is a square then h[m] == h[n]. The converse can
    fail (two kernels whose words XOR alike), which only costs a check.
    """
    h = [0] * (n + 1)
    composite = bytearray(n + 1)
    for p in range(2, n + 1):
        if composite[p]:
            continue
        composite[p * p::p] = b"\1" * len(range(p * p, n + 1, p))
        w = _prime_word(p)
        q = p
        while q <= n:
            for m in range(q, n + 1, q):
                h[m] ^= w
            q *= p
    return h


def _kernel_join(
    lo: int, hi: int, area_max: int | None, s_step: int = 1
) -> list[tuple[int, int, int, int, int]]:
    """Rows (s, x, y, z, area) of the Heronian triangles with
    lo <= 2s < hi, area <= area_max (when given) and s_step | s, in gap
    coordinates x <= y <= z, sorted by (perimeter, a, b, c); the sides
    are (x+y, x+z, y+z).

    The rows come out in that order by construction, with no sort: each
    hit goes to the list of its semiperimeter s, and the lists are
    concatenated in s order. Within one s, a = u ascends in the outer
    loop and, for that u, b = x + z ascends with x in the pair lists.

    With u = x + y the squared area is (x*y) * (z*(u+z)), a square
    exactly when the two factors have the same squarefree kernel. For
    each u the pairs x <= y = u - x are grouped by the parity hash of
    x*y (_parity_hashes), and every z in range probes that table with
    the hash of z*(u+z); a pair matches z only if y <= z.
    - Complete: a square product has every prime to an even power, so
      its two factors have equal hashes and the probe finds the pair.
    - Exact: a probe that matches is kept only if s*x*y*z passes
      perfect_square_root, whose root is the area; a hash collision
      costs one test and never reaches the output.

    The area bound caps z once per u: x*y >= u - 1, so a triangle of
    area <= area_max has (u-1)*z*(u+z) <= area_max^2. That cap shrinks
    as u grows, so the scan ends once it falls below ceil(u/2), the
    smallest z any u allows; each hit's area is then checked exactly.

    The cycle core passes s_step = 3, and each u probes only the z with
    s_step | u + z. A core vertex's perimeter is the area of its
    predecessor, and every Heronian area A is a multiple of 6, so its
    semiperimeter is a multiple of 3. Proof, with A^2 = s*x*y*z and
    s = x + y + z:
    - mod 3: gaps = (1,1,2) or (1,2,2) (mod 3), in any order, give
      s*x*y*z = 2 (mod 3), which is not a square; every other residue
      pattern puts a factor of 3 in s, x, y or z; so 3 | A^2, so 3 | A;
    - mod 4: if A were odd, s, x, y and z would all be odd, and every
      choice of x, y, z = +-1 (mod 4) gives s*x*y*z = 3 (mod 4), which
      is not a square; so 2 | A.
    """
    s_lo, s_hi = (lo + 1) // 2, (hi + 1) // 2  # lo <= 2s < hi
    if s_hi <= s_lo or (area_max is not None and area_max < 1):
        return []
    a2 = None if area_max is None else area_max * area_max
    h = _parity_hashes(s_hi)
    by_s: list[list[tuple[int, int, int, int, int]]] = [[] for _ in range(s_hi)]
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
        z_lo += -(u + z_lo) % s_step  # first z with s_step | u + z
        if z_lo < z_hi:
            pairs: dict[int, list[int]] = {}
            for x in range(1, u // 2 + 1):
                pairs.setdefault(h[x] ^ h[u - x], []).append(x)
            for z in range(z_lo, z_hi, s_step):
                xs = pairs.get(h[z] ^ h[u + z])
                if xs:
                    s = u + z
                    for x in xs:
                        if u - x > z:
                            continue
                        sq = s * x * (u - x) * z
                        if a2 is not None and sq > a2:
                            continue
                        area = perfect_square_root(sq)
                        if area is not None:
                            by_s[s].append((s, x, u - x, z, area))
        u += 1
    return [row for rows in by_s for row in rows]


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

    Every Heronian area is a multiple of 6 (proof at _kernel_join), so
    any other area gets [] at once, before factorizing; one that is not
    a plain int raises TypeError.

    Divisor-triple search: for each divisor pair (x, y) of area^2 the
    remaining gap must solve z^2 + (x+y)z - area^2/(x*y) = 0, so z
    exists exactly when the discriminant is a perfect square; the
    positive root is then an integer >= y (proof in the loop). The loop
    bounds come from s*x*y*z = area^2 with x <= y <= z: x satisfies
    3*x^4 <= area^2 and y satisfies x*y*y*(x + 2*y) <= area^2, so the
    scan is finite and provably complete. That y bound is increasing in
    y, so it is found once per x, by bisecting the sorted divisors.

    Raises ValueError if the area has a prime factor at or above
    3,317,044,064,679,887,385,961,981, which _factorize cannot prove
    prime; lru_cache keeps no exception, so every such call raises. The
    type and range tests come before the memo is read, so 6.0 or True
    never reach an int's entry.
    """
    if type(area) is not int or area < 1 or area % 6:
        _check_int("area", area)
        return []
    return _unpacked(_area_memo(area))


@lru_cache(maxsize=_MEMO_ENTRIES)
def _area_memo(area: int) -> array | tuple:
    """The divisor-triple search of triangles_with_area for a positive
    multiple of 6, packed (see _packed)."""
    a2 = area * area
    # divisors of area^2, from the factorization of area with doubled exponents
    divisors = _divisors({p: 2 * e for p, e in _factorize(area).items()})
    found = []
    for i, x in enumerate(divisors):
        if 3 * x**4 > a2:
            break
        rest = a2 // x
        j = bisect_right(divisors, a2, i, key=lambda y: x * y * y * (x + 2 * y))
        for y in divisors[i:j]:  # x <= y, x*y*y*(x + 2*y) <= a2
            if rest % y:
                continue
            target = rest // y  # z * (z + x + y) must equal this
            disc = (x + y) * (x + y) + 4 * target
            root = isqrt(disc)  # perfect_square_root, inline (see core)
            # z = (root - x - y)/2 needs no further test: root^2 is (x+y)^2 mod 4,
            # so root - x - y is even; and x*y*y*(x + 2*y) <= a2 = (x+y+z)*x*y*z,
            # increasing in z with equality at z = y, so z >= y.
            if root * root == disc:
                z = (root - x - y) // 2
                found.append((x + y, x + z, y + z))
    found.sort()
    return _packed(found)


def _not_abundant(p_max: int):
    """Gap triples (x, y, z), x <= y <= z, of the Heronian triangles with
    perimeter <= p_max and area <= perimeter, in (x, y, z) order.

    Area <= perimeter reads s*x*y*z <= (2s)^2, i.e. x*y*z <= 4*(x+y+z).
    As x <= y <= z, the right side is at most 12*z, so x*y <= 12 and
    x <= 3. For x*y > 4 the inequality caps z at 4*(x+y)/(x*y - 4); for
    x*y <= 4 it holds for every z (x*y*z <= 4*z), so only the perimeter
    caps z. Each triple in this finite region is kept if s*x*y*z is a
    square, so the region is exactly the non-abundant triangles.
    """
    s_max = p_max // 2
    for x in range(1, 4):  # x*x <= x*y <= 12
        for y in range(x, 12 // x + 1):
            z_hi = s_max - x - y
            if x * y > 4:
                z_hi = min(z_hi, 4 * (x + y) // (x * y - 4))
            for z in range(y, z_hi + 1):
                if perfect_square_root((x + y + z) * x * y * z) is not None:
                    yield x, y, z


def equable_triangles() -> list[Triangle]:
    """The Heronian triangles whose area equals their perimeter: the
    equality cases x*y*z = 4*(x+y+z) of _not_abundant's region.

    Each has perimeter <= 60: equality needs x*y > 4 and then
    s = (x+y)*x*y/(x*y - 4) <= 30, largest at (x, y) = (1, 5). So the
    census is complete by that bound; the count of five is asserted in
    tests only.
    """
    return sorted(Triangle(x + y, x + z, y + z) for x, y, z in _not_abundant(60)
                  if x * y * z == 4 * (x + y + z))


def deficient_triangles(p_max: int) -> list[Triangle]:
    """Heronian triangles with perimeter <= p_max and perimeter > area:
    the strict cases x*y*z < 4*(x+y+z) of _not_abundant's region. A
    p_max that is not a plain int raises TypeError."""
    _check_int("p_max", p_max)
    return sorted(Triangle(x + y, x + z, y + z) for x, y, z in _not_abundant(p_max)
                  if x * y * z < 4 * (x + y + z))
