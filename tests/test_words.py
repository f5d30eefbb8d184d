from collections import Counter
from itertools import chain
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wordcomplex import words as W
from wordcomplex.complexes import build
from wordcomplex.words import (
    canonical_word_count,
    canonicalize,
    classify,
    distinct_subwords,
    enumerate_canonical_words,
    euler_direct,
    euler_recursive,
    format_word,
    fundamental_subword,
    is_decomposable,
    parse_word,
    predict_homotopy,
    reduced_form,
    subword_counts,
    subword_levels,
    subwords_in_order,
    xi,
)

from conftest import (
    HARD_WORDS,
    LONG_WORDS,
    arrow_by_scan,
    euler_by_enumeration,
    presentations_by_product,
    subwords_by_positions,
)
from reference import (
    arrow,
    arrow_chain,
    exp_presentations,
    expand,
    height,
    is_p_shifted,
    is_subword,
    left_shifted,
    p_shifted,
    right_shifted,
)


def w(text):
    return parse_word(text)


def all_words(max_len, max_alphabet=None):
    return enumerate_canonical_words(max_len, max_alphabet or max_len)


# -- parsing and canonical form ---------------------------------------------


def test_parse_and_format_round_trip():
    assert parse_word("aba") == (0, 1, 0)
    assert format_word((0, 1, 0)) == "aba"
    assert parse_word("") == ()
    with pytest.raises(ValueError):
        parse_word("aB")


def test_canonicalize():
    assert canonicalize(w("bab")) == (0, 1, 0)
    assert canonicalize(()) == ()
    assert canonicalize(w("ccac")) == (0, 0, 1, 0)


def test_canonicalize_idempotent():
    for word in all_words(5):
        assert canonicalize(word) == word
        assert canonicalize(canonicalize(word[::-1])) == canonicalize(word[::-1])


# -- reduced form ------------------------------------------------------------


def test_reduced_form_examples():
    rf = reduced_form(w("aabaabb"))
    assert rf.runs == ((0, 2), (1, 1), (0, 2), (1, 2))
    assert reduced_form(w("aaaaa")).runs == ((0, 5),)
    assert reduced_form(w("aba")).runs == ((0, 1), (1, 1), (0, 1))


def test_reduced_form_round_trip_and_errors():
    for word in all_words(6):
        rf = reduced_form(word)
        assert expand(rf) == word
        assert all(e >= 1 for e in rf.exponents)
        assert all(a != b for (a, _), (b, _) in zip(rf.runs, rf.runs[1:]))
    with pytest.raises(ValueError):
        reduced_form(())
    with pytest.raises(ValueError, match="length must match the number of runs"):
        reduced_form(w("aab")).expand_presentation((1, 1, 0))


# -- arrows ------------------------------------------------------------------


def test_arrow_examples():
    assert arrow(w("aaaa"), 0) == w("aaa")
    assert arrow(w("aba"), 1) == w("a")
    assert arrow(w("abc"), 2) == ()
    with pytest.raises(ValueError):
        arrow(w("abc"), 3)


def test_arrow_matches_scan_oracle():
    for word in all_words(6):
        for a in set(word):
            assert arrow(word, a) == arrow_by_scan(word, a)


def test_arrow_chain():
    assert arrow_chain(w("abab"), w("ab")) == w("ab")
    assert arrow_chain(w("aba"), ()) == w("aba")
    # folded by the scan oracle: aba|a = ba, then ba|b = a
    chained = arrow_by_scan(arrow_by_scan(w("aba"), 0), 1)
    assert arrow_chain(w("aba"), w("ab")) == chained == w("a")


# -- subwords ----------------------------------------------------------------


def test_distinct_subwords_examples():
    assert distinct_subwords(w("aba")) == {
        w("a"),
        w("b"),
        w("aa"),
        w("ab"),
        w("ba"),
        w("aba"),
    }
    for n in (1, 3, 5):
        assert distinct_subwords((0,) * n) == {(0,) * k for k in range(1, n + 1)}
    assert len(distinct_subwords(w("abc"))) == 7


def test_distinct_subwords_matches_position_oracle():
    for word in chain(all_words(6), all_words(8, 4)):
        assert distinct_subwords(word) == subwords_by_positions(word)
        # the automaton's walk by length lists them in cell order, unsorted
        assert subwords_in_order(word) == sorted(
            subwords_by_positions(word), key=lambda u: (len(u), u)
        )


def leftmost_end(word, u):
    """One past the end of u's leftmost embedding in word, by a greedy scan."""
    end = 0
    for a in u:
        end = word.index(a, end) + 1
    return end


def test_subword_levels_walk_the_automaton():
    # level n lists the length-n subwords in lex order; each one's prefix
    # index points at u[:-1] in the level before, and its state is where
    # its leftmost embedding ends
    words = list(all_words(8, 4)) + [w(t) for t in HARD_WORDS + LONG_WORDS]
    assert len(words) == 3_791
    for word in words:
        want = subwords_by_positions(word)
        levels = list(subword_levels(word))
        assert len(levels) == len(word), word
        before = [()]
        for n, level in enumerate(levels, 1):
            listed = [u for u, _, _ in level]
            assert listed == sorted(u for u in want if len(u) == n), word
            for u, state, p in level:
                assert before[p] == u[:-1], (word, u)
                assert state == leftmost_end(word, u), (word, u)
            before = listed
        # build numbers its cells in the order of the walk
        assert list(build(word).labels.values()) == subwords_in_order(word)


def counts_by_length(subwords, n):
    sizes = Counter(len(u) for u in subwords)
    return tuple(sizes[k] for k in range(1, n + 1))


def test_subword_counts_match_position_oracle():
    assert subword_counts(()) == ()
    for word in all_words(8, 4):
        want = counts_by_length(subwords_by_positions(word), len(word))
        assert subword_counts(word) == want, word


def test_subword_counts_closed_forms():
    for n in range(1, 21):
        assert subword_counts((0,) * n) == (1,) * n
        assert subword_counts(tuple(range(n))) == tuple(
            comb(n, k) for k in range(1, n + 1)
        )
    # abc repeated ten times: 30 letters, far beyond any enumeration
    assert sum(subword_counts(w("abc" * 10))) == 117_897_839


# random words past the exhaustive bounds; the position oracle runs only up
# to 11 letters, where it lists 2047 position subsets per word
longer_words = st.lists(st.integers(0, 3), min_size=9, max_size=13).map(tuple)


@settings(max_examples=50)
@given(longer_words)
def test_subword_counts_count_the_walked_subwords(word):
    want = counts_by_length(distinct_subwords(word), len(word))
    assert subword_counts(word) == want


@settings(max_examples=50)
@given(longer_words)
def test_euler_routes_agree_on_longer_words(word):
    assert euler_direct(word) == euler_recursive(word)
    if len(word) <= 11:
        assert euler_direct(word) == euler_by_enumeration(word)


@settings(max_examples=50)
@given(longer_words)
def test_f_vector_invariant_under_renaming_and_reversal(word):
    f = subword_counts(word)
    assert subword_counts(canonicalize(word)) == f
    assert subword_counts(word[::-1]) == f
    assert subword_counts(canonicalize(word[::-1])) == f


# -- Euler characteristics ---------------------------------------------------


def test_euler_direct_examples():
    for t in range(1, 5):
        assert euler_direct((0,) * (2 * t)) == -1
        assert euler_direct((0,) * (2 * t + 1)) == 0
    assert euler_direct(w("aba")) == -1
    for n in range(1, 13):
        want = -1 if n % 3 == 0 else 0
        assert euler_direct(tuple(i % 2 for i in range(n))) == want


def test_euler_recursive_agrees_with_direct():
    assert euler_recursive(()) == -1
    for word in all_words(7):
        assert euler_recursive(word) == euler_direct(word) == euler_by_enumeration(word)


def test_euler_recursive_agrees_with_direct_longer_words():
    # full alphabets up to length 8, two-letter words all the way to 10
    for word in all_words(8):
        assert euler_recursive(word) == euler_direct(word)
    for length in (9, 10):
        for word in enumerate_canonical_words(length, 2):
            if len(word) == length:
                assert euler_recursive(word) == euler_direct(word)


def test_euler_invariant_under_renaming_and_reversal():
    for word in all_words(6):
        assert euler_direct(word[::-1]) == euler_direct(word)
        assert euler_direct(canonicalize(word[::-1])) == euler_direct(word)


# -- classification ----------------------------------------------------------


def test_classify_examples():
    c = classify(w("ababab"))
    assert c.is_spherical and c.circular_factors == (w("aba"), w("bab"))

    c = classify(w("aaaaa"))
    assert not c.is_spherical
    assert c.spherical_prefix == w("aaaa") and c.conical_tail == w("a")

    c = classify(w("abca"))
    assert c.is_circular and c.is_spherical and len(c.circular_factors) == 1


def test_classify_empty_word():
    c = classify(())
    assert c.is_spherical and not c.is_circular and not c.is_conical
    assert c.circular_factors == ()


def test_classify_structure():
    for word in all_words(7):
        c = classify(word)
        if c.is_spherical:
            joined = tuple(a for f in c.circular_factors for a in f)
            assert joined == word
            for f in c.circular_factors:
                assert f[0] == f[-1] and f[0] not in f[1:-1]
        else:
            assert c.spherical_prefix + c.conical_tail == word
            assert classify(c.spherical_prefix).is_spherical
            assert classify(c.conical_tail).is_conical
        if c.is_circular:
            assert c.is_spherical and len(c.circular_factors) == 1
        if c.is_conical:
            assert not c.is_spherical


def test_euler_value_determined_by_sphericity():
    for word in all_words(7):
        e = euler_direct(word)
        assert e in (0, -1)
        assert (e == -1) == classify(word).is_spherical


def test_homotopy_classification_invariant_under_renaming_and_reversal():
    # conical-ness is direction-dependent by definition; the homotopy-level
    # content (sphericity, circularity, factor count) is not
    for word in all_words(6):
        c = classify(word)
        for variant in (canonicalize(word[::-1]), word[::-1]):
            d = classify(variant)
            assert (d.is_spherical, d.is_circular, len(d.circular_factors)) == (
                c.is_spherical,
                c.is_circular,
                len(c.circular_factors),
            )


# -- fundamental subword and homotopy prediction -----------------------------


def test_fundamental_subword():
    assert fundamental_subword(w("ababab")) == w("aabb")
    assert fundamental_subword(w("aaaa")) == w("aaaa")
    assert fundamental_subword(w("abbacdc")) == w("aacc")
    with pytest.raises(ValueError):
        fundamental_subword(w("aaa"))


def test_fundamental_subword_is_a_subword():
    for word in all_words(7):
        c = classify(word)
        if c.is_spherical:
            v = fundamental_subword(word)
            assert is_subword(v, word)
            assert len(v) == 2 * len(c.circular_factors)
            # squares of adjacent equal letters merge, so exponents are even
            assert all(e % 2 == 0 for e in reduced_form(v).exponents)


def test_predict_homotopy():
    assert str(predict_homotopy(w("aaaa"))) == "S^3"
    assert str(predict_homotopy(w("aaa"))) == "contractible"
    for k in range(1, 5):
        assert predict_homotopy(tuple(i % 2 for i in range(3 * k))).sphere_dim == 2 * k - 1
    with pytest.raises(ValueError):
        predict_homotopy(())


# -- enumeration and decomposition -------------------------------------------


def test_enumerate_counts():
    assert list(enumerate_canonical_words(1, 1)) == [(0,)]
    # restricted growth strings: Bell-number counts when the alphabet is free
    assert sum(1 for _ in enumerate_canonical_words(4, 4)) == 1 + 2 + 5 + 15
    assert sum(1 for u in enumerate_canonical_words(4, 2) if len(u) == 4) == 8
    with pytest.raises(ValueError, match="max_len must be at least 1"):
        next(enumerate_canonical_words(0, 3))
    with pytest.raises(ValueError, match="max_alphabet must be at least 1"):
        next(enumerate_canonical_words(3, 0))


def test_canonical_word_count_is_the_enumeration_count():
    for max_alphabet in range(1, 9):
        lengths = Counter(map(len, enumerate_canonical_words(7, max_alphabet)))
        counts = {n: canonical_word_count(n, max_alphabet) for n in range(1, 8)}
        assert counts == lengths, max_alphabet
    # Bell numbers on a free alphabet, 2^(n-1) words over two letters
    assert canonical_word_count(10, 10) == 115_975
    assert canonical_word_count(40, 2) == 2**39


def test_enumerate_is_canonical_and_deduplicates():
    seen = list(enumerate_canonical_words(5, 5))
    assert len(seen) == len(set(seen))
    assert all(word == canonicalize(word) for word in seen)
    deduped = set(enumerate_canonical_words(5, 5, dedup_reversal=True))
    for word in seen:
        assert (word in deduped) != (
            canonicalize(word[::-1]) in deduped and canonicalize(word[::-1]) != word
        )


def test_is_decomposable():
    assert is_decomposable(w("aabb")) == (w("aa"), w("bb"))
    assert is_decomposable(w("abab")) is None
    assert is_decomposable(w("abca")) is None
    assert is_decomposable(w("abc")) == (w("a"), w("bc"))


# -- exponential presentations ------------------------------------------------


def test_presentations_example():
    rf = reduced_form(w("aba"))
    assert exp_presentations(rf, w("a")) == {(1, 0, 0), (0, 0, 1)}
    assert exp_presentations(rf, w("aba")) == {(1, 1, 1)}
    rf2 = reduced_form(w("aabba"))
    assert exp_presentations(rf2, w("aaa")) == presentations_by_product(
        rf2.runs, w("aaa")
    ) == {(2, 0, 1)}


def test_presentations_match_oracle():
    for word in all_words(5):
        rf = reduced_form(word)
        for v in distinct_subwords(word):
            assert exp_presentations(rf, v) == presentations_by_product(rf.runs, v)
        assert exp_presentations(rf, word + (max(word) + 1,)) == frozenset()


def test_shifted_presentations():
    rf = reduced_form(w("aba"))
    assert left_shifted(rf, w("a")) == (1, 0, 0)
    assert right_shifted(rf, w("a")) == (0, 0, 1)
    assert left_shifted(rf, w("aba")) == (1, 1, 1)
    with pytest.raises(ValueError):
        left_shifted(rf, w("bb"))


def test_shifted_are_extremal():
    for word in all_words(6):
        rf = reduced_form(word)
        for v in distinct_subwords(word):
            presentations = exp_presentations(rf, v)
            assert left_shifted(rf, v) == max(presentations)
            assert right_shifted(rf, v) == max(presentations, key=lambda b: b[::-1])


def test_p_shifted_examples():
    rf = reduced_form(w("aba"))
    # the construction right-shifts an empty tail, keeping the left-shifted tuple
    assert p_shifted(rf, w("a"), 2) == (1, 0, 0)
    assert p_shifted(rf, w("aba"), 1) == (1, 1, 1)
    rf2 = reduced_form(w("aabba"))
    assert p_shifted(rf2, w("ab"), 2) == (1, 1, 0)


def test_p_shifted_unique_when_middle_positive():
    for word in all_words(6):
        rf = reduced_form(word)
        for v in distinct_subwords(word):
            presentations = exp_presentations(rf, v)
            for p in range(1, len(rf) + 1):
                beta = p_shifted(rf, v, p)
                assert beta in presentations
                assert is_p_shifted(rf, beta, p)
                if beta[p - 1] >= 1:
                    matches = [
                        g for g in presentations if is_p_shifted(rf, g, p)
                    ]
                    assert matches == [beta]


def test_p_shifted_extremes_recover_left_and_right():
    for word in all_words(5):
        rf = reduced_form(word)
        t = len(rf)
        for v in distinct_subwords(word):
            assert p_shifted(rf, v, t) == left_shifted(rf, v)
            assert p_shifted(rf, v, 1) == right_shifted(rf, v)


# -- xi and height ------------------------------------------------------------


def test_xi():
    assert xi(0) == 1
    assert xi(7) == 6
    for n in range(1001):
        assert xi(xi(n)) == n
    assert sorted(xi(n) for n in range(1000)) == list(range(1000))
    with pytest.raises(ValueError):
        xi(-1)


def test_height():
    rf = reduced_form(w("aabba"))
    assert height((2, 2, 1), rf, 3) == 3  # equals alpha up to t
    assert height((2, 1, 1), rf, 3) == 2
    assert height((0, 0, 0), rf, 3) == 1
    assert height((2, 1, 0), rf, 2) == 2
    with pytest.raises(ValueError):
        height((1, 1, 1), reduced_form(w("aaabb")), 2)  # odd exponent before t
    with pytest.raises(ValueError):
        height((3, 0, 0), rf, 3)  # beta above alpha
