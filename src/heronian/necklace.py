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
    """

    symbols: str

    def __post_init__(self) -> None:
        w = self.symbols
        n = len(w)
        if n < 1:
            raise ValueError("a cycle word needs at least one symbol")
        if set(w) - set("UVW"):
            raise ValueError(f"symbols must be U, V or W, got {w!r}")
        if "U" not in w:
            raise ValueError(f"{w!r} has no UV pair; all-W words are excluded")
        for i, ch in enumerate(w):
            if ch == "U" and w[(i + 1) % n] != "V":
                raise ValueError(f"U at position {i} of {w!r} is not followed by V")
            if ch == "V" and w[(i - 1) % n] != "U":
                raise ValueError(f"V at position {i} of {w!r} is not preceded by U")
        object.__setattr__(self, "symbols", canonical_rotation(w))

    def __len__(self) -> int:
        return len(self.symbols)

    def __str__(self) -> str:
        return self.symbols


def _block_words(n: int):
    """Yield every length-n string of 'UV' and 'W' blocks, iteratively."""
    stack = [""]
    while stack:
        w = stack.pop()
        if len(w) == n:
            yield w
        else:
            if len(w) + 1 <= n:
                stack.append(w + "W")
            if len(w) + 2 <= n:
                stack.append(w + "UV")


def enumerate_words(n: int) -> list[CycleWord]:
    """All valid cycle words of length n, one per rotation class, sorted.

    Valid words decompose uniquely into UV blocks and W blocks, and
    every rotation class has a representative that starts on a block
    boundary, so generating block sequences of total length n (with at
    least one UV) and deduplicating rotations is exhaustive.
    """
    if n < 1:
        raise ValueError("word length must be at least 1")
    classes = {canonical_rotation(w) for w in _block_words(n) if "U" in w}
    return sorted(CycleWord(w) for w in classes)


def count_words(n: int) -> int:
    """Number of distinct cycle words of length n."""
    return len(enumerate_words(n))


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
