"""Symbolic cycle words over the alphabet {U, V, W}.

Every sociable cycle of Heronian triangles is a rotation class of a
word where U stands for (9, 12, 15), V for (3, 25, 26) and W for
(9, 10, 17). U and V only occur as adjacent UV pairs (cyclically), and
at least one pair must be present. Words are kept in canonical form:
the lexicographically least rotation under U < V < W, which is also the
form with the pairs written first.

The words are the closed walks of the successor graph on the three
triangles: U -> V, V -> U, V -> W, W -> U and W -> W. enumerate_words
lists them with the same generator as the concrete cycles,
cycles._least_rotation_walks.
"""

from __future__ import annotations

from dataclasses import dataclass

from heronian.core import Triangle, _check_bound, _check_int
from heronian.cycles import ConcreteCycle, _least_rotation_walks, canonical_rotation
from heronian.enumeration import _divisors, _factorize

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

# The link relation on TRIANGLE_FOR_SYMBOL (area of one = perimeter of
# the next): U's area 54 is V's perimeter, and the area 36 of V and of W
# is the perimeter of U and of W.
_WORD_SUCCESSORS = {"U": "V", "V": "UW", "W": "UW"}


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
        if not isinstance(w, str):
            raise TypeError(f"symbols must be a str, got {type(w).__name__}")
        if not w:
            raise ValueError("a cycle word needs at least one symbol")
        if set(w) - set("UVW"):
            raise ValueError(f"symbols must be U, V or W, got {w!r}")
        least = canonical_rotation(w)
        _check_pairs(least, w)
        object.__setattr__(self, "symbols", least)

    @classmethod
    def _from_least(cls, least: str) -> CycleWord:
        """The word of a least rotation over {U, V, W}, as enumerate_words
        has it from the generator: the pairing rule is still checked, the
        rotation is not re-derived."""
        _check_pairs(least, least)
        word = object.__new__(cls)
        object.__setattr__(word, "symbols", least)
        return word

    def __len__(self) -> int:
        return len(self.symbols)

    def __str__(self) -> str:
        return self.symbols


def _check_pairs(least: str, w: str) -> None:
    """ValueError unless the least rotation `least` of the word w starts
    with U and leaves only W's once every UV is removed."""
    if not least.startswith("U") or least.replace("UV", "").strip("W"):
        raise ValueError(f"{w!r} is not a cycle of UV and W blocks with a UV")


def enumerate_words(n: int) -> list[CycleWord]:
    """All valid cycle words of length n, one per rotation class, sorted.

    A cyclic word is valid exactly when it is a closed walk of the
    U/V/W successor graph that holds a U: each U is followed by V, each
    V preceded by U, and W's may follow V or W. The only closed walk
    with no U is the all-W one, as V is reached only from U, and W is
    equable, so it is dropped. The generator yields each class once, as
    its least rotation, in ascending order, so each word is kept as
    built: it still passes CycleWord's pairing-rule check, and its
    rotation is not re-derived.
    """
    _check_bound("n", n)
    return [CycleWord._from_least("".join(w))
            for w in _least_rotation_walks(_WORD_SUCCESSORS, n) if "U" in w]


def count_words(n: int) -> int:
    """Number of distinct cycle words of length n, in closed form.

    Cyclic arrangements of W and UV blocks filling n marked positions
    are counted by the Lucas number L_n; one fixed by rotation through j
    positions repeats with period gcd(j, n), so Burnside's lemma gives
    (1/n) * sum_{d | n} phi(n/d) * L_d classes, over the divisors of n
    from its factorization. The one all-W word is subtracted.
    """
    _check_bound("n", n)
    factors = _factorize(n)
    total = 0
    for d in _divisors(factors):
        phi = m = n // d  # phi(m) = m * prod (1 - 1/p) over the primes p | m
        for p in factors:
            if m % p == 0:
                phi = phi // p * (p - 1)
        total += phi * _lucas(d)
    return total // n - 1


def _lucas(n: int) -> int:
    """The Lucas number L_n (L_0 = 2, L_1 = 1), by fast doubling on the
    bits of n with L_(2k) = L_k^2 - 2(-1)^k and
    L_(2k+1) = L_k * L_(k+1) - (-1)^k, so only two numbers are held."""
    lk, lk1, k = 2, 1, 0  # (L_k, L_(k+1)), k being the bits of n read so far
    for bit in bin(n)[2:]:
        sign = -1 if k % 2 else 1  # (-1)^k
        lk, lk1 = lk * lk - 2 * sign, lk * lk1 - sign
        k *= 2
        if bit == "1":
            lk, lk1 = lk1, lk + lk1
            k += 1
    return lk


def replacement_family(n: int) -> list[CycleWord]:
    """The floor(n/2) cycles built by repeatedly swapping WW for UVUV.

    Starting from the single-pair cycle UV W^(n-2) and replacing a pair
    of W's with a second UV pair at each step gives the words
    (UV)^k W^(n-2k) for k = 1 .. floor(n/2), in that order. For n >= 6
    this family no longer exhausts all cycle words.
    """
    _check_int("n", n)
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
