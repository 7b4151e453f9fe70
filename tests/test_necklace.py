import pytest

from oracles import block_words_oracle, words_oracle

from heronian.core import Triangle
from heronian.cycles import ConcreteCycle, find_cycles
from heronian.necklace import (
    CycleWord,
    count_words,
    enumerate_words,
    expand,
    replacement_family,
)


def symbols(words):
    return [w.symbols for w in words]


def test_word_validation():
    assert CycleWord("UV").symbols == "UV"
    assert CycleWord("VWU").symbols == "UVW"  # canonicalized rotation
    assert CycleWord("VU").symbols == "UV"  # the pair straddles the cut
    with pytest.raises(ValueError):
        CycleWord("WWW")  # no UV pair
    with pytest.raises(ValueError):
        CycleWord("UW")  # U not followed by V
    with pytest.raises(ValueError):
        CycleWord("UVV")  # second V not preceded by U
    for bad in ("UVU", "UWV", "VW"):  # last U before U; U before W; no U
        with pytest.raises(ValueError):
            CycleWord(bad)
    with pytest.raises(ValueError):
        CycleWord("UVX")
    with pytest.raises(ValueError):
        CycleWord("")


def test_word_rotations_compare_equal():
    assert CycleWord("UVWWW") == CycleWord("WWWUV") == CycleWord("WWUVW")
    # a rotation cutting between U and V is still the same cyclic word
    assert CycleWord("VWU") == CycleWord("UVW")


def test_enumerate_words_known_values():
    assert symbols(enumerate_words(5)) == ["UVUVW", "UVWWW"]
    assert symbols(enumerate_words(2)) == ["UV"]
    assert symbols(enumerate_words(6)) == ["UVUVUV", "UVUVWW", "UVWUVW", "UVWWWW"]
    assert enumerate_words(1) == []


def test_enumerate_words_matches_brute_force():
    for n in range(1, 13):
        assert {w.symbols for w in enumerate_words(n)} == words_oracle(n)


def test_enumerate_words_matches_block_strings():
    for n in range(1, 23):
        words = enumerate_words(n)
        assert [w.symbols for w in words] == sorted(block_words_oracle(n)), n


def test_count_words():
    assert count_words(5) == 2
    assert count_words(4) == 2
    assert count_words(6) == 4
    assert [count_words(n) for n in range(1, 9)] == [0, 1, 1, 2, 2, 4, 4, 7]
    with pytest.raises(ValueError):
        count_words(0)


def test_count_words_closed_form_matches_enumeration():
    for n in range(1, 27):
        assert count_words(n) == len(enumerate_words(n)), n


def test_rotation_closure():
    for n in range(2, 9):
        words = enumerate_words(n)
        universe = set(words)
        for w in words:
            for i in range(n):
                rotated = w.symbols[i:] + w.symbols[:i]
                assert CycleWord(rotated) in universe


def test_replacement_family_known_values():
    assert symbols(replacement_family(5)) == ["UVWWW", "UVUVW"]
    assert symbols(replacement_family(2)) == ["UV"]
    assert len(replacement_family(7)) == 3
    with pytest.raises(ValueError):
        replacement_family(1)


def test_replacement_family_sizes_and_containment():
    for n in range(2, 13):
        family = replacement_family(n)
        assert len(family) == n // 2
        assert len(set(family)) == len(family)
        universe = set(enumerate_words(n))
        assert set(family) <= universe
        # the family exhausts the words only up to length 5
        assert (set(family) == universe) == (n <= 5)


def test_expand_known_values():
    pair = expand(CycleWord("UV"))
    assert pair == ConcreteCycle((Triangle(9, 12, 15), Triangle(3, 25, 26)))
    triple = expand(CycleWord("UVW"))
    assert set(triple.members) == {
        Triangle(9, 12, 15),
        Triangle(3, 25, 26),
        Triangle(9, 10, 17),
    }
    assert expand(CycleWord("WUV")) == expand(CycleWord("UVW"))


def test_expand_is_sound_for_all_words():
    # ConcreteCycle construction re-checks every link, so a successful
    # expansion is a proof the word links up
    for n in range(2, 13):
        for w in enumerate_words(n):
            cycle = expand(w)
            assert len(cycle) == n


def test_words_and_graph_search_agree():
    for n in range(2, 9):
        from_words = {expand(w) for w in enumerate_words(n)}
        from_graph = set(find_cycles(n, 1000))
        assert from_words == from_graph
