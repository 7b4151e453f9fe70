import pytest

from oracles import block_words_oracle, count_words_oracle, words_oracle

from heronian import necklace
from heronian.core import Triangle, heron_area
from heronian.cycles import ConcreteCycle, _least_rotation_walks, find_cycles
from heronian.necklace import (
    TRIANGLE_FOR_SYMBOL,
    CycleWord,
    _WORD_SUCCESSORS,
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


@pytest.mark.parametrize("letters", [["U", "V"], ("U", "V")], ids=["list", "tuple"])
def test_word_symbols_must_be_a_str(letters):
    with pytest.raises(TypeError):
        CycleWord(letters)


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


def test_enumerate_words_are_the_generator_walks_that_hold_a_u():
    # the generator's least rotations, in its order, with only the all-W
    # walk left out
    for n in range(1, 17):
        walks = ["".join(w) for w in _least_rotation_walks(_WORD_SUCCESSORS, n)]
        assert symbols(enumerate_words(n)) == [w for w in walks if "U" in w], n


def test_enumerate_words_equal_the_public_constructor_on_rotated_words():
    # the public constructor re-derives each least rotation from a rotated
    # word, so the words enumerate_words keeps as built must already be one
    for n in range(1, 17):
        walks = ["".join(w) for w in _least_rotation_walks(_WORD_SUCCESSORS, n)]
        assert enumerate_words(n) == [CycleWord(w[1:] + w[:1]) for w in walks if "U" in w], n


@pytest.mark.parametrize("bad", ["UW", "UVV", "UVU"])
def test_enumerate_words_refuses_a_generator_word_that_breaks_the_pairs(monkeypatch, bad):
    # the pairing-rule check still runs on words the generator yields
    monkeypatch.setattr(necklace, "_least_rotation_walks", lambda succ, n: iter([tuple(bad)]))
    with pytest.raises(ValueError, match="is not a cycle of UV and W blocks"):
        enumerate_words(len(bad))


@pytest.mark.parametrize("n", [3.0, 2.5, "3", True])
def test_enumerate_words_refuses_a_non_int_length(n):
    with pytest.raises(TypeError, match="^n must be a plain integer"):
        enumerate_words(n)


@pytest.mark.parametrize("n", [4.0, 2.5, "4", True])
def test_count_words_refuses_a_non_int_length(n):
    with pytest.raises(TypeError, match="^n must be a plain integer"):
        count_words(n)


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


def test_count_words_matches_sum_over_rotations():
    for n in range(1, 2001):
        assert count_words(n) == count_words_oracle(n), n


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


def test_word_successors_are_the_link_relation_of_the_triangles():
    T = TRIANGLE_FOR_SYMBOL
    assert list(_WORD_SUCCESSORS) == sorted(T)
    for a in T:
        assert list(_WORD_SUCCESSORS[a]) == sorted(_WORD_SUCCESSORS[a])
        for b in T:
            assert (b in _WORD_SUCCESSORS[a]) == (heron_area(T[a]) == T[b].perimeter), (a, b)


def test_words_and_graph_search_agree():
    for n in range(2, 15):
        from_words = {expand(w) for w in enumerate_words(n)}
        for p_max in (1000, 1732):  # 1732 is the perimeter of (3, 865, 866)
            assert from_words == set(find_cycles(n, p_max)), (n, p_max)
