import random

import pytest

from wordcomplex.complexes import build, join
from wordcomplex.homology import (
    boundary_matrix,
    chain_data,
    matmul,
    matrix_to_csv,
    reduced_homology,
    smith_normal_form,
)
from wordcomplex.words import enumerate_canonical_words, parse_word

from conftest import assert_unimodular, minors_gcd


def w(text):
    return parse_word(text)


def all_words(max_len):
    return enumerate_canonical_words(max_len, max_len)


# -- boundary matrices ---------------------------------------------------------


def test_boundary_matrix_examples():
    assert boundary_matrix(build(w("aa")), 1) == [[0]]
    assert boundary_matrix(build(w("aaa")), 2) == [[-1]]
    assert boundary_matrix(build(w("aba")), 0) == [[1, 1]]
    with pytest.raises(ValueError):
        boundary_matrix(build(w("aa")), 2)


def test_consecutive_boundaries_compose_to_zero():
    for word in all_words(6):
        X = build(word)
        mats = [boundary_matrix(X, n) for n in range(X.dim + 1)]
        for M, N in zip(mats, mats[1:]):
            assert all(not any(row) for row in matmul(M, N)), word


# -- Smith normal form -----------------------------------------------------------


def test_snf_trivial_cases():
    zero = smith_normal_form([[0, 0], [0, 0], [0, 0]])
    assert zero.rank == 0 and zero.diagonal == ()
    zero.check([[0, 0], [0, 0], [0, 0]])
    assert_unimodular(zero.U_inv)
    assert_unimodular(zero.V)

    eye = smith_normal_form([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert eye.diagonal == (1, 1, 1)

    empty_cols = smith_normal_form([[], []])
    assert empty_cols.rank == 0


def test_snf_known_matrix():
    cases = [
        # determinant divisors 2, 4, 624 give invariant factors 2, 2, 156
        ([[2, 4, 4], [-6, 6, 12], [10, 4, 16]], [2, 4, 624], (2, 2, 156)),
        # the pivot 2 does not divide 3, so the divisor chain needs a fix-up
        ([[2, 0], [0, 3]], [1, 6], (1, 6)),
    ]
    for M, divisors, diagonal in cases:
        snf = smith_normal_form(M)
        snf.check(M)
        assert_unimodular(snf.U_inv)
        assert_unimodular(snf.V)
        assert [minors_gcd(M, k) for k in range(1, len(M) + 1)] == divisors
        assert snf.diagonal == diagonal


def test_snf_against_minor_gcd_oracle():
    rng = random.Random(7)
    for trial in range(30):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        M = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        snf = smith_normal_form(M)
        snf.check(M)
        assert_unimodular(snf.U_inv)
        assert_unimodular(snf.V)
        product = 1
        for k in range(1, snf.rank + 1):
            product *= snf.diagonal[k - 1]
            assert product == minors_gcd(M, k), (M, snf.diagonal)
        if snf.rank < min(m, n):
            assert minors_gcd(M, snf.rank + 1) == 0


def test_snf_against_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors

    rng = random.Random(11)
    for trial in range(20):
        m = rng.randint(1, 6)
        n = rng.randint(1, 6)
        M = [[rng.randint(-20, 20) for _ in range(n)] for _ in range(m)]
        snf = smith_normal_form(M)
        snf.check(M)
        assert_unimodular(snf.U_inv)
        assert_unimodular(snf.V)
        expected = tuple(int(d) for d in invariant_factors(sympy.Matrix(M)) if d != 0)
        assert snf.diagonal == expected, M


def test_snf_certificates_on_real_boundary_matrices():
    for word in all_words(5):
        X = build(word)
        for M, snf in chain_data(X):
            snf.check(M)
            assert_unimodular(snf.U_inv)
            assert_unimodular(snf.V)


# -- homology -----------------------------------------------------------------


def test_homology_known_spaces():
    assert reduced_homology(build(w("aa"))).groups == ((0, ()), (1, ()))
    assert reduced_homology(build(w("aaa"))).is_trivial()
    assert reduced_homology(build(w("aaaa"))).sphere_dimension() == 3
    assert reduced_homology(build(w("ab"))).is_trivial()
    assert reduced_homology(build(w("aba"))).sphere_dimension() == 1


def test_homology_of_disjoint_support_join():
    X = join(build(w("aa")), build(w("bb")))
    assert reduced_homology(X).groups == reduced_homology(build(w("aabb"))).groups
    Y = join(build(w("a")), build(w("bcb")))
    assert reduced_homology(Y).groups == reduced_homology(build(w("abcb"))).groups


def test_homology_certified_and_torsion_free_small():
    for word in all_words(6):
        profile = reduced_homology(build(word), certify=True)
        assert not profile.has_torsion(), word


def test_betti_alternating_sum_is_reduced_euler():
    from wordcomplex.words import euler_direct

    for word in all_words(6):
        profile = reduced_homology(build(word))
        assert profile.reduced_euler() == euler_direct(word), word


def test_profile_accessors():
    profile = reduced_homology(build(w("aba")))
    assert profile.betti(1) == 1 and profile.betti(0) == 0
    assert profile.betti(17) == 0 and profile.torsion(17) == ()
    assert profile.total_betti == 1
    assert profile.to_json()[1] == {"dim": 1, "betti": 1, "torsion": []}


def test_matrix_csv():
    assert matrix_to_csv([[1, -2], [0, 3]]) == "1,-2\n0,3\n"
