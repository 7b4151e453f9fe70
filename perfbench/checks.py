"""Answer checks that do not trust the program's own search code.

Areas are recomputed from the product form 16*area^2 =
(a+b+c)(-a+b+c)(a-b+c)(a+b-c) with math.isqrt, as tests/oracles.py does.
Cycle and word counts come from a closed form over Lucas numbers, and
catalog answers are compared with the record lines of a catalog file
whose SHA-256 matched the recorded digest.
"""

from __future__ import annotations

import hashlib
import json
import math


def oracle_area(a: int, b: int, c: int) -> int | None:
    q = (a + b + c) * (-a + b + c) * (a - b + c) * (a + b - c)
    if q <= 0:
        return None
    r = math.isqrt(q)
    if r * r != q or r % 4:
        return None
    return r // 4


def _valid_sides(t) -> bool:
    a, b, c = t
    return 1 <= a <= b <= c < a + b


def _strictly_sorted(items) -> bool:
    return all(x < y for x, y in zip(items, items[1:]))


def word_count(n: int) -> int:
    """Cyclic words of length n over the blocks UV and W with at least one UV.

    Necklaces of length n made of blocks of length 1 and 2 number
    (1/n) * sum over d | n of phi(n/d) * L(d), L the Lucas numbers; the
    one all-W necklace is subtracted.
    """
    lucas = [2, 1]
    while len(lucas) <= n:
        lucas.append(lucas[-1] + lucas[-2])

    def phi(m: int) -> int:
        return sum(1 for k in range(1, m + 1) if math.gcd(k, m) == 1)

    return sum(phi(n // d) * lucas[d] for d in range(1, n + 1) if n % d == 0) // n - 1


def _canonical(seq) -> bool:
    return seq == min(seq[i:] + seq[:i] for i in range(len(seq)))


def check_area(area: int, answer) -> bool:
    tris = [tuple(t) for t in answer]
    return _strictly_sorted(tris) and all(
        _valid_sides(t) and oracle_area(*t) == area for t in tris)


def check_perimeter(p: int, answer) -> bool:
    tris = [tuple(t) for t in answer]
    return _strictly_sorted(tris) and all(
        _valid_sides(t) and sum(t) == p and oracle_area(*t) is not None for t in tris)


def check_trace(start, answer, max_steps: int = 6) -> bool:
    """Every path starts at start and each step is a predecessor of the last."""
    if not answer:
        return False
    for steps, end in answer:
        tris = [tuple(s[:3]) for s in steps]
        if tris[0] != tuple(start) or any(s[3] != sum(s[:3]) for s in steps):
            return False
        for prev, t in zip(tris, tris[1:]):
            if not _valid_sides(t) or oracle_area(*t) != sum(prev):
                return False
        hops = len(tris) - 1
        if end == "bound-hit" and hops != max_steps:
            return False
        if end == "cycle-closed" and tris[-1] not in tris[:-1]:
            return False
        if end == "dead-end" and hops > max_steps:
            return False
        if end not in ("bound-hit", "cycle-closed", "dead-end"):
            return False
    return True


def check_cycles(n: int, p_max: int, answer) -> bool:
    """Closed, canonical, bounded, not all equable, and as many as the words.

    Every sociable cycle is built from (9,12,15), (3,25,26) and (9,10,17),
    whose perimeters are at most 54, so for p_max >= 54 the concrete cycles
    correspond one to one with the cycle words of length n.
    """
    cycles = [tuple(tuple(t) for t in c) for c in answer]
    if not _strictly_sorted(cycles) or (p_max >= 54 and len(cycles) != word_count(n)):
        return False
    for c in cycles:
        areas = [oracle_area(*t) if _valid_sides(t) else None for t in c]
        if len(c) != n or not _canonical(c) or any(sum(t) > p_max for t in c):
            return False
        if any(areas[i] != sum(c[(i + 1) % n]) for i in range(n)):
            return False
        if all(areas[i] == sum(c[i]) for i in range(n)):
            return False
    return True


def _valid_word(w: str) -> bool:
    n = len(w)
    return ("U" in w and not set(w) - set("UVW") and all(
        (ch != "U" or w[(i + 1) % n] == "V") and (ch != "V" or w[i - 1] == "U")
        for i, ch in enumerate(w)))


def check_words(n: int, answer) -> bool:
    return (len(answer) == word_count(n) and _strictly_sorted(answer)
            and all(len(w) == n and _valid_word(w) and _canonical(w) for w in answer))


def check_query(op: str, arg, answer) -> bool:
    if op == "area":
        return check_area(arg, answer)
    if op == "perimeter":
        return check_perimeter(arg, answer)
    if op == "trace":
        return check_trace(arg, answer)
    if op == "cycles":
        return check_cycles(arg[0], arg[1], answer)
    if op == "words":
        return check_words(arg, answer)
    return False


def answers_digest(answers) -> str:
    h = hashlib.sha256()
    for answer in answers:
        h.update(json.dumps(answer, separators=(",", ":")).encode())
        h.update(b"\n")
    return h.hexdigest()


class CatalogFile:
    """The record lines of a catalog file, checked against recorded values."""

    def __init__(self, path: str, expected: dict) -> None:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        header = json.loads(lines[0]) if lines else {}
        body = "".join(line + "\n" for line in lines[1:])
        self.ok = (
            hashlib.sha256(body.encode()).hexdigest() == expected["catalog_records_sha256"]
            and len(lines) - 1 == expected["catalog_records"]
            and header.get("count") == expected["catalog_records"]
            and header.get("p_max") == expected["catalog_p_max"]
        )
        self.p_max = expected["catalog_p_max"]
        self.by_perimeter: dict[int, list] = {}
        self.by_area: dict[int, list] = {}
        if not self.ok:
            return
        for line in lines[1:]:
            r = json.loads(line)
            t = [r["a"], r["b"], r["c"]]
            if oracle_area(*t) != r["area"]:
                self.ok = False
            self.by_perimeter.setdefault(r["perimeter"], []).append(t)
            self.by_area.setdefault(r["area"], []).append(t)
        for index in (self.by_perimeter, self.by_area):
            for tris in index.values():
                tris.sort()

    def check_read(self, req: dict, answer) -> bool:
        if not self.ok:
            return False
        expected_p = [[self.by_perimeter.get(p, []), p <= self.p_max] for p in req["perimeters"]]
        expected_a = [[self.by_area.get(a, []), 2 * a * a <= self.p_max] for a in req["areas"]]
        return answer == {"perimeters": expected_p, "areas": expected_a}
