"""Symbolic cycle words over the alphabet {U, V, W}.

Every sociable cycle of Heronian triangles is a rotation class of a
word where U stands for (9, 12, 15), V for (3, 25, 26) and W for
(9, 10, 17). U and V only occur as adjacent UV pairs (cyclically), and
at least one pair must be present. Words are kept in canonical form:
the lexicographically least rotation under U < V < W, which is also the
form with the pairs written first.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from heronian.core import Triangle
from heronian.cycles import ConcreteCycle, canonical_rotation

__all__ = [
    "CycleWord",
    "TRIANGLE_FOR_SYMBOL",
    "count_words",
    "enumerate_words",
    "expand",
    "replacement_family",
]

TRIANGLE_FOR_SYMBOL = {
    "U": Triangle(9, 12, 15),
    "V": Triangle(3, 25, 26),
    "W": Triangle(9, 10, 17),
}


@dataclass(frozen=True, order=True)
class CycleWord:
    """A cyclic word over {U, V, W}, stored in canonical rotation.

    Construction validates the pairing rule (each U is cyclically
    followed by V, each V preceded by U) and requires at least one U.
    Any rotation of a valid word constructs the same CycleWord.

    The least rotation of a valid word starts with U, so no UV pair
    straddles its cut: it is valid exactly when that rotation starts
    with U and removing every UV leaves only W's.
    """

    symbols: str

    def __post_init__(self) -> None:
        w = self.symbols
        if not w:
            raise ValueError("a cycle word needs at least one symbol")
        if set(w) - set("UVW"):
            raise ValueError(f"symbols must be U, V or W, got {w!r}")
        least = canonical_rotation(w)
        if not least.startswith("U") or least.replace("UV", "").strip("W"):
            raise ValueError(f"{w!r} is not a cycle of UV and W blocks with a UV")
        object.__setattr__(self, "symbols", least)

    def __len__(self) -> int:
        return len(self.symbols)

    def __str__(self) -> str:
        return self.symbols


def _gap_necklaces(k: int, total: int) -> list[tuple[int, ...]]:
    """Every necklace of k >= 1 non-negative gaps summing to total, each
    as its lexicographically least rotation.

    FKM recursion (Fredricksen, Kessler, Maiorana): position t takes
    values from gaps[t - p] up, p being the period of the Lyndon prefix
    so far, and a full prefix is a necklace when p divides k. Since no
    entry of a necklace is below its first, the values still to place
    need at least (k - t) * gaps[1] of the remaining sum, which prunes
    the search; the last gap is whatever remains. Depth is k.
    """
    gaps = [0] * (k + 1)  # 1-based; gaps[0] is the floor for position 1
    found: list[tuple[int, ...]] = []

    def extend(t: int, p: int, rest: int) -> None:
        floor = gaps[t - p]
        if t == k:
            if rest >= floor and k % (p if rest == floor else k) == 0:
                gaps[k] = rest
                found.append(tuple(gaps[1:]))
            return
        top = rest // (k - t + 1) if t == 1 else rest - (k - t) * gaps[1]
        for v in range(floor, top + 1):
            gaps[t] = v
            extend(t + 1, p if v == floor else t, rest - v)

    extend(1, 1, total)
    return found


def enumerate_words(n: int) -> list[CycleWord]:
    """All valid cycle words of length n, one per rotation class, sorted.

    Valid words decompose uniquely into UV blocks and W blocks. With k
    UV blocks, every rotation starting on a U reads UV W^g1 ... UV W^gk,
    and as U < W a shorter run of W's compares smaller, so the least
    rotation of the word is the one whose gap sequence (g1, ..., gk) is
    least. The words are therefore exactly the necklaces of k >= 1
    non-negative gaps summing to n - 2k, generated directly rather than
    by canonicalizing every block string; each still goes through
    CycleWord's validation.
    """
    if n < 1:
        raise ValueError("word length must be at least 1")
    words = sorted(
        "".join("UV" + "W" * g for g in gaps)
        for k in range(1, n // 2 + 1)
        for gaps in _gap_necklaces(k, n - 2 * k)
    )
    return [CycleWord(w) for w in words]


def count_words(n: int) -> int:
    """Number of distinct cycle words of length n, in closed form.

    Cyclic arrangements of W and UV blocks filling n marked positions
    are counted by the Lucas number L_n; one fixed by rotation through j
    positions repeats with period gcd(j, n), so Burnside's lemma gives
    (1/n) * sum_{d | n} phi(n/d) * L_d classes, written below as the
    equal sum of L_gcd(j, n) over j. The one all-W word is subtracted.
    """
    if n < 1:
        raise ValueError("word length must be at least 1")
    lucas = [2, 1]
    while len(lucas) <= n:
        lucas.append(lucas[-1] + lucas[-2])
    return sum(lucas[gcd(j, n)] for j in range(n)) // n - 1


def replacement_family(n: int) -> list[CycleWord]:
    """The floor(n/2) cycles built by repeatedly swapping WW for UVUV.

    Starting from the single-pair cycle UV W^(n-2) and replacing a pair
    of W's with a second UV pair at each step gives the words
    (UV)^k W^(n-2k) for k = 1 .. floor(n/2), in that order. For n >= 6
    this family no longer exhausts all cycle words.
    """
    if n < 2:
        raise ValueError("need length at least 2 for the mandatory UV pair")
    return [CycleWord("UV" * k + "W" * (n - 2 * k)) for k in range(1, n // 2 + 1)]


def expand(word: CycleWord) -> ConcreteCycle:
    """Substitute the triangles for the symbols of a cycle word.

    The result always satisfies the cycle linking: U's area 54 is V's
    perimeter, and the area of V and of W is 36, the perimeter of both
    U and W, so any valid word links up.
    """
    return ConcreteCycle(tuple(TRIANGLE_FOR_SYMBOL[ch] for ch in word.symbols))
