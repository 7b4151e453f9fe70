"""Independent brute-force oracles the tests check the package against.

Nothing here imports the package's search code paths: areas come from
Heron's product (16*area^2 over the sides, s*x*y*z over the gaps) and
stdlib math.isqrt, so agreement between these scans and the library is
meaningful.
"""

from __future__ import annotations

import math


def naive_integer_area(a: int, b: int, c: int) -> int | None:
    """Integer area of the triangle, or None, with no parity assumption.

    16*area^2 = (a+b+c)(-a+b+c)(a-b+c)(a+b-c) is integral for any
    integer sides; the area is an integer exactly when that product is
    a perfect square whose root is divisible by 4.
    """
    q = (a + b + c) * (-a + b + c) * (a - b + c) * (a + b - c)
    if q <= 0:
        return None
    r = math.isqrt(q)
    if r * r != q or r % 4:
        return None
    return r // 4


def naive_triangle_scan(p_max: int) -> list[tuple[int, int, int, int]]:
    """All (a, b, c, area) with a <= b <= c, a+b > c, perimeter <= p_max
    and integer area, by direct scan over side triples."""
    out = []
    for a in range(1, p_max // 3 + 1):
        for b in range(a, (p_max - a) // 2 + 1):
            for c in range(b, min(a + b - 1, p_max - a - b) + 1):
                area = naive_integer_area(a, b, c)
                if area is not None:
                    out.append((a, b, c, area))
    out.sort()
    return out


def perimeter_scan_oracle(p: int) -> list[tuple[int, int, int]]:
    """Sorted side triples of every Heronian triangle with perimeter p, by
    scanning the gap triples x <= y <= z with x + y + z = p/2: the O(p^2)
    loop triangles_with_perimeter used before its kernel identity."""
    if p < 3 or p % 2:
        return []
    s = p // 2
    found = []
    for x in range(1, s // 3 + 1):
        rem = s - x
        for y in range(x, rem // 2 + 1):
            z = rem - y
            v = s * x * y * z
            r = math.isqrt(v)
            if r * r == v:
                found.append((x + y, x + z, y + z))
    found.sort()
    return found


def area_divisor_oracle(area: int) -> list[tuple[int, int, int]]:
    """Sorted side triples of every Heronian triangle with the given area,
    by the divisor-pair loop triangles_with_area used before it skipped
    areas that are not multiples of 6 and bisected its y bound: every
    divisor pair x <= y of area^2 with 3*x^4 <= area^2, tested pair by
    pair against x*y*y*(x + 2*y) <= area^2, the last gap z solving
    z*(z + x + y) = area^2/(x*y)."""
    if area < 1:
        return []
    a2 = area * area
    divisors = [1]
    for p, e in trial_division_factorize(area).items():
        divisors = [d * p**k for d in divisors for k in range(2 * e + 1)]
    divisors.sort()
    found = []
    for i, x in enumerate(divisors):
        if 3 * x**4 > a2:
            break
        for y in divisors[i:]:
            if x * y * y * (x + 2 * y) > a2:
                break
            if a2 % (x * y):
                continue
            disc = (x + y) * (x + y) + 4 * (a2 // (x * y))
            root = math.isqrt(disc)
            if root * root != disc or (root - x - y) % 2:
                continue
            z = (root - x - y) // 2
            if z >= y:
                found.append((x + y, x + z, y + z))
    found.sort()
    return found


def trace_chain_oracle(
    sides: tuple[int, int, int], successor: bool, max_steps: int
) -> list[tuple[tuple[tuple[tuple[int, int, int], int], ...], str]]:
    """Every root-to-leaf chain path from the triangle with these sides,
    as (steps, end) with steps the (sides, link) pairs and end one of
    "dead-end", "cycle-closed" or "bound-hit", in depth-first order with
    branches sorted by side triple: the recursive walk trace_chain used
    before it kept an explicit stack. Successor-ward a link is the area
    and its neighbours are perimeter_scan_oracle(area); predecessor-ward
    the link is the perimeter and its neighbours area_divisor_oracle of
    it."""
    step = perimeter_scan_oracle if successor else area_divisor_oracle

    def link(t: tuple[int, int, int]) -> int:
        return naive_integer_area(*t) if successor else sum(t)

    paths = []

    def walk(path: list[tuple[int, int, int]]) -> None:
        nxt = step(link(path[-1]))
        if not nxt:
            paths.append((path, "dead-end"))
        elif len(path) - 1 >= max_steps:
            paths.append((path, "bound-hit"))
        else:
            for u in nxt:
                if u in path:
                    paths.append((path + [u], "cycle-closed"))
                else:
                    walk(path + [u])

    walk([sides])
    return [(tuple((t, link(t)) for t in path), end) for path, end in paths]


def words_oracle(n: int) -> set[str]:
    """All valid cycle words of length n, one canonical rotation each,
    by filtering all 3^n raw words."""
    import itertools

    classes = set()
    for raw in itertools.product("UVW", repeat=n):
        if "U" not in raw:
            continue
        ok = True
        for i, ch in enumerate(raw):
            if ch == "U" and raw[(i + 1) % n] != "V":
                ok = False
                break
            if ch == "V" and raw[(i - 1) % n] != "U":
                ok = False
                break
        if ok:
            word = "".join(raw)
            classes.add(min(word[i:] + word[:i] for i in range(n)))
    return classes


def block_words_oracle(n: int) -> set[str]:
    """All valid cycle words of length n, one canonical rotation each, by
    canonicalizing every length-n string of 'UV' and 'W' blocks that
    holds a UV block: the construction enumerate_words used before it
    generated gap necklaces directly."""
    classes = set()
    stack = [""]
    while stack:
        w = stack.pop()
        if len(w) == n:
            if "U" in w:
                classes.add(min(w[i:] + w[:i] for i in range(n)))
        else:
            stack.append(w + "W")
            if len(w) + 2 <= n:
                stack.append(w + "UV")
    return classes


def trial_division_factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 by trial division up to sqrt(n)."""
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
