import hashlib
import random
import re
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wordcomplex import homology
from wordcomplex.complexes import DeltaComplex, barycentric_subdivide, build
from wordcomplex.homology import (
    boundary_matrix,
    boundary_rows,
    chain_data,
    matrix_to_csv,
    reduced_homology,
    smith_normal_form,
)
from wordcomplex.verify import examine_word
from wordcomplex.words import enumerate_canonical_words, parse_word, predict_homotopy

from conftest import HARD_WORDS, assert_unimodular, dense_of, matmul, minors_gcd
from reference import (
    certified_by_products,
    columns_of,
    dense_snf,
    join,
    profile_reduced_euler,
)


def w(text):
    return parse_word(text)


def all_words(max_len):
    return enumerate_canonical_words(max_len, max_len)


# the start of the library's refusal of a nonzero block with no unit entry
REFUSAL = "^no unit entry is left"


def reduce_dense(M):
    """The reduction of a dense matrix, handed over as sparse columns."""
    return smith_normal_form(columns_of(M), len(M))


def reduce_or_dense(M):
    """The library's reduction of the dense M, its diagonal that of the
    dense routine of tests/reference.py, or that routine's reduction where
    the library refuses a block with no unit entry; and whether the library
    reduced M."""
    dense = dense_snf(M)
    try:
        snf = reduce_dense(M)
    except ArithmeticError as exc:
        assert re.match(REFUSAL, str(exc)), exc
        return dense, False
    assert snf.diagonal == dense.diagonal, M
    return snf, True


# -- boundary matrices ---------------------------------------------------------


def test_boundary_matrix_examples():
    # sparse columns {row: value}; the two faces of aa cancel
    assert boundary_matrix(build(w("aa")), 1) == [{}]
    assert boundary_matrix(build(w("aaa")), 2) == [{0: -1}]
    assert boundary_matrix(build(w("aba")), 0) == [{0: 1}, {0: 1}]
    X = build(w("aba"))
    assert boundary_matrix(X, 1) == [{}, {0: 1, 1: -1}, {0: -1, 1: 1}]
    assert [boundary_rows(X, n) for n in range(3)] == [1, 2, 3]
    with pytest.raises(ValueError):
        boundary_matrix(build(w("aa")), 2)


def test_consecutive_boundaries_compose_to_zero():
    for word in all_words(6):
        X = build(word)
        mats = [dense_of(boundary_matrix(X, n), boundary_rows(X, n)) for n in range(X.dim + 1)]
        for M, N in zip(mats, mats[1:]):
            assert all(not any(row) for row in matmul(M, N)), word


def test_boundary_maps_of_word_complexes_hold_only_signs():
    # two deletions give the same subword only within one run of equal
    # letters, whose positions are consecutive and carry alternating signs
    # that add up to 0 or +-1: check_composition's sorted signed rows serve
    # every word complex
    for word in all_words(6):
        X = build(word)
        for n in range(X.dim + 1):
            M = boundary_matrix(X, n)
            assert all(x in (1, -1) for col in M for x in col.values()), word


def composes(low, high):
    """check_composition's verdict on the pair of maps low, high."""
    try:
        homology.check_composition([(low, None), (high, None)])
    except ArithmeticError as exc:
        assert str(exc) == "consecutive boundary maps do not compose to zero"
        return False
    return True


def composes_by_products(low, high):
    """The verdict of the certificates' sparse product, one per column."""
    return all(homology._product_is(low, col, 0, {}) for col in high)


def tampered(M, rows, kind, rng):
    """A copy of the map M on rows rows with one entry changed: its sign
    flipped, moved to another row, added, or set to +-2; None if no column
    of M has room for that change."""
    M = [dict(col) for col in M]
    least = 0 if kind == "added" else 1  # entries the column must have
    most = rows if kind in ("moved", "added") else rows + 1  # and fewer than
    fit = [col for col in M if least <= len(col) < most]
    if not fit:
        return None
    col = rng.choice(fit)
    row = rng.choice([i for i in range(rows) if i not in col] or [None])
    if kind == "added":
        col[row] = rng.choice((1, -1))
        return M
    i = rng.choice(list(col))
    if kind == "flipped":
        col[i] = -col[i]
    elif kind == "moved":
        col[row] = col.pop(i)
    else:
        col[i] = rng.choice((2, -2))
    return M


def test_signed_rows_agree_with_the_products():
    pairs = []  # (low, its row count, high)
    for word in list(all_words(6)) + [w(t) for t in HARD_WORDS]:
        X = build(word)
        maps = [M for M, _ in chain_data(X)]
        for n, (low, high) in enumerate(zip(maps, maps[1:])):
            assert composes(low, high) and composes_by_products(low, high), word
            if len(word) > 6:  # a hard word
                pairs.append((low, boundary_rows(X, n), high))

    # one entry of either map of a hard word's pair tampered; a +-2 lists
    # its row twice
    rng = random.Random(34)
    trials = failed = 0
    while trials < 400:
        kind = ("flipped", "moved", "added", "set to 2")[trials % 4]
        low, rows, high = rng.choice(pairs)
        if rng.random() < 0.5:
            high = tampered(high, len(low), kind, rng)
        else:
            low = tampered(low, rows, kind, rng)
        if low is None or high is None:
            continue  # no column of that map had room
        trials += 1
        verdict = composes_by_products(low, high)
        assert composes(low, high) == verdict, (kind, trials)
        failed += not verdict
    assert 300 < failed < 400


def test_signed_rows_count_entries_other_than_signs():
    # vertices v and w, two loops a and b at v, and a triangle T with faces
    # (a, b, a), so dT = b - 2a: no word complex holds such an entry, and
    # its row is listed twice
    v, w, a, b, T = range(5)
    X = DeltaComplex({v: (), w: (), a: (v, v), b: (v, v), T: (a, b, a)}, dict(zip(range(5), "vwabT")))
    X.validate()
    data = chain_data(X)
    assert [M for M, _ in data] == [[{0: 1}, {0: 1}], [{}, {}], [{0: -2, 1: 1}]]
    homology.check_composition(data)
    assert reduced_homology(X).groups == ((1, ()), (1, ()), (0, ()))

    # da tampered to w - v: d_0 d_1 is still zero, d_1 d_2 is 2v - 2w on T
    data[1][0][0] = {0: -1, 1: 1}
    homology.check_composition(data[:2])
    with pytest.raises(ArithmeticError, match="compose to zero"):
        homology.check_composition(data[1:])
    with pytest.raises(ArithmeticError, match="compose to zero"):
        homology.check_composition(data)


# -- Smith normal form -----------------------------------------------------------


def test_snf_trivial_cases():
    zero = smith_normal_form([{}, {}], 3)
    assert zero.rank == 0 and zero.diagonal == ()
    zero.check([{}, {}])
    assert_unimodular(zero.U_inv)
    assert_unimodular(zero.V)

    eye = reduce_dense([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert eye.diagonal == (1, 1, 1)

    empty_cols = smith_normal_form([], 2)
    assert empty_cols.rank == 0 and empty_cols.shape == (2, 0)


def test_snf_known_matrix():
    # no unit entry in any of these, so the library refuses each, and the
    # dense routine of tests/reference.py is the route to its certificate
    cases = [
        ([[2]], [2], (2,)),
        # determinant divisors 2, 4, 624 give invariant factors 2, 2, 156
        ([[2, 4, 4], [-6, 6, 12], [10, 4, 16]], [2, 4, 624], (2, 2, 156)),
        # the pivot 2 does not divide 3, so the divisor chain needs a fix-up
        ([[2, 0], [0, 3]], [1, 6], (1, 6)),
        # the dense routine's transform entries are 901 bits long here
        (
            [[6, 35, 2, 12, 9], [2, 35, 0, -15, 10], [-4, 10, 12, 12, 6], [0, 9, 12, 12, 35]],
            [1, 1, 2, 8],
            (1, 1, 2, 4),
        ),
        # and it does not finish here, its entries being 174 bits long by
        # the fourth pivot, so only the divisors are checked
        (
            [
                [12, 10, 9, 2, 12, 12],
                [-4, 9, 10, 35, 12, 9],
                [9, 12, 9, 12, 9, 9],
                [6, 6, 6, 2, 0, 12],
                [35, -4, 9, -4, 6, -15],
            ],
            [1, 1, 1, 1, 36],
            None,
        ),
    ]
    for M, divisors, diagonal in cases:
        assert [minors_gcd(M, k) for k in range(1, len(M) + 1)] == divisors
        with pytest.raises(ArithmeticError, match=REFUSAL):
            reduce_dense(M)
        if diagonal is None:
            continue
        snf = dense_snf(M)
        snf.check(columns_of(M))
        assert_unimodular(snf.U_inv)
        assert_unimodular(snf.V)
        assert snf.diagonal == diagonal


def test_unit_pivots_on_rows_of_several_entries():
    # every row holds two or more unit entries, so at least the first pivot
    # row has more than its pivot entry, and that rest is added to each row
    # its column clears; the unit pivots finish each of these
    cases = [
        [[1, 1, 0], [0, 1, 1], [1, 1, 1]],
        [[1, 1, 1, 0], [0, 1, 1, -1], [-1, 1, 1, -1], [1, 1, 0, 1]],
        [[0, -1, 0, 1, 1], [1, 1, 1, 1, -1], [-1, 1, -1, 0, 1], [0, 1, 1, 1, 1]],
    ]
    for M in cases:
        snf = reduce_dense(M)
        snf.check(columns_of(M))
        assert_unimodular(snf.U_inv)
        assert_unimodular(snf.V)
        assert snf.diagonal == dense_snf(M).diagonal == (1,) * len(M), M

    # the same with a column cleared: the map above is e0 - e1, whose unit
    # pivot is row 0, and M, whose columns 0 and 1 agree, maps it to zero
    upper = smith_normal_form([{0: 1, 1: -1}], 4)
    assert upper.unit_rows == (0,)
    dense = [[1, 1, 1, 0], [0, 0, 1, 1], [1, 1, 1, 1]]
    M = columns_of(dense)
    snf = smith_normal_form(M, 3, upper)
    snf.check(M, upper)
    assert_unimodular(snf.U_inv)
    assert_unimodular(snf.V)
    assert snf.diagonal == dense_snf(dense).diagonal == (1, 1, 1)
    assert snf.V[snf.rank] == upper.U_inv[0]

    # rows of several unit entries whose unit pivots leave a block with
    # none, refused whatever its invariant factors: the last is unimodular
    refused = [
        ([[1, 1, 0], [1, 0, 1], [0, 1, 1]], (1, 1, 2)),
        ([[1, 1, 1, 0], [1, -1, 0, 1], [0, 1, -1, 1], [1, 0, 1, -1]], (1, 1, 1, 3)),
        ([[1, -1, 1, 1, 0], [-1, 1, 0, 1, 1], [1, 1, -1, 0, 1], [0, 1, 1, -1, -1]], (1, 1, 1, 1)),
    ]
    for dense, diagonal in refused:
        with pytest.raises(ArithmeticError, match=REFUSAL):
            reduce_dense(dense)
        assert dense_snf(dense).diagonal == diagonal
    dense = [[1, 1, 1, 0], [1, 1, 0, 1], [0, 0, 1, 1]]
    with pytest.raises(ArithmeticError, match=REFUSAL):
        smith_normal_form(columns_of(dense), 3, upper)
    assert dense_snf(dense).diagonal == (1, 1, 2)


def test_snf_against_minor_gcd_oracle():
    rng = random.Random(7)
    reduced = 0
    for trial in range(30):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        M = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        snf, ours = reduce_or_dense(M)
        reduced += ours
        snf.check(columns_of(M))
        assert_unimodular(snf.U_inv)
        assert_unimodular(snf.V)
        product = 1
        for k in range(1, snf.rank + 1):
            product *= snf.diagonal[k - 1]
            assert product == minors_gcd(M, k), (M, snf.diagonal)
        if snf.rank < min(m, n):
            assert minors_gcd(M, snf.rank + 1) == 0
    assert reduced == 3  # the library's own reductions, the rest refused


def test_snf_against_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors

    rng = random.Random(11)
    reduced = 0
    for trial in range(20):
        m = rng.randint(1, 6)
        n = rng.randint(1, 6)
        M = [[rng.randint(-20, 20) for _ in range(n)] for _ in range(m)]
        snf, ours = reduce_or_dense(M)
        reduced += ours
        snf.check(columns_of(M))
        assert_unimodular(snf.U_inv)
        assert_unimodular(snf.V)
        expected = tuple(int(d) for d in invariant_factors(sympy.Matrix(M)) if d != 0)
        assert snf.diagonal == expected, M
    assert reduced == 1  # the library's own reductions, the rest refused

    # entries with no +-1, and no zero matrix drawn, so the library refuses
    # every one
    entries = (0, 0, 2, -4, 6, 9, -15, 10, 35, 12)
    rng = random.Random(13)
    for trial in range(20):
        m = rng.randint(1, 6)
        n = rng.randint(1, 6)
        M = [[rng.choice(entries) for _ in range(n)] for _ in range(m)]
        snf, ours = reduce_or_dense(M)
        assert not ours, M
        snf.check(columns_of(M))
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


def test_sparse_engine_agrees_with_the_dense_routine():
    # the dense minimal-pivot routine of tests/reference.py is the second
    # route for every chain matrix of the canonical words of length <= 6
    # over 6 letters, reduced alone and top-down with clearing, each map on
    # the columns its upper map's unit pivots leave
    checked = 0
    for word in all_words(6):
        X = build(word)
        data = chain_data(X)
        for n, (M, cleared) in enumerate(data):
            m = boundary_rows(X, n)
            dense = dense_snf(dense_of(M, m)).diagonal
            assert smith_normal_form(M, m).diagonal == dense == cleared.diagonal, (word, n)
            checked += 1
        for (M, snf), (_, upper) in zip(data, data[1:]):
            # the cleared columns are the upper map's unit boundary columns,
            # placed right after the rank
            units = len(upper.unit_rows)
            assert snf.V[snf.rank : snf.rank + units] == upper.U_inv[:units], word
    assert checked == 1558


def test_chain_data_pinned():
    # every reduction of the canonical words of length <= 6 over 6 letters,
    # hashed in order: a change of pivot order, transform or clearing moves it
    digest = hashlib.sha256()
    maps = 0
    for word in all_words(6):
        for _, snf in chain_data(build(word)):
            digest.update(repr((snf.diagonal, snf.U_inv, snf.V, snf.unit_rows)).encode())
            maps += 1
    assert maps == 1558
    assert digest.hexdigest() == (
        "286596488b6ab57b44d6fcae2307e06672079c97499b85c3929c9764dbf6fe87"
    )


def test_clearing_reads_no_cleared_column():
    # each map is reduced in its own column indices with the cleared columns
    # left out: garbage there changes nothing, and V holds copies of the
    # upper map's boundary columns, so that tampering with one leaves the
    # other as it was
    for word in all_words(5):
        X = build(word)
        data = chain_data(X)
        for n, ((M, snf), (_, upper)) in enumerate(zip(data, data[1:])):
            garbage = list(M)
            for p in upper.unit_rows:
                garbage[p] = {0: 7}
            assert smith_normal_form(garbage, boundary_rows(X, n), upper) == snf, (word, n)
            for t in range(len(upper.unit_rows)):
                assert snf.V[snf.rank + t] == upper.U_inv[t], (word, n)
                assert snf.V[snf.rank + t] is not upper.U_inv[t], (word, n)


def test_certificate_rejects_a_tampered_cleared_column():
    X = build(w("abcab"))
    data = chain_data(X)
    tampered = 0
    for (M, snf), (_, upper) in zip(data, data[1:]):
        snf.check(M)
        for t, p in enumerate(upper.unit_rows):
            col = snf.V[snf.rank + t]
            assert col == upper.U_inv[t]
            if not M[p]:
                continue  # a cell with zero boundary, as aa: no tamper shows
            # drop the leading entry of one cleared column: what is left is
            # no longer a boundary, and d_n does not kill it
            x = col.pop(p)
            with pytest.raises(ArithmeticError, match="M V = U_inv D"):
                snf.check(M)
            col[p] = x
            tampered += 1
        snf.check(M)
    assert tampered


# Tamperings of the cleared columns of d_1 of abca, whose upper map d_2 has
# three unit pivots, at the cells aa, ab and ba, and rank 3. Each returns
# whether the product check of d_1 alone sees it.


def drop_the_leading_entry(M, snf, upper):
    # aa has zero boundary, so the product cannot see the entry go
    del snf.V[snf.rank][upper.unit_rows[0]]
    return False


def swap_in_another_boundary(M, snf, upper):
    # a boundary too, so d_1 kills it, but not the one cleared there
    snf.V[snf.rank] = dict(upper.U_inv[1])
    return False


def claim_a_unit_past_the_rank(M, snf, upper):
    # a fourth unit pivot, and its U_inv column, no boundary, put in place:
    # only the refusal keeps the identity from passing it
    units = len(upper.unit_rows)
    upper.unit_rows += (min(set(range(upper.shape[0])) - set(upper.unit_rows)),)
    snf.V[snf.rank + units] = dict(upper.U_inv[units])
    return True


@pytest.mark.parametrize(
    "tamper, message",
    [
        (drop_the_leading_entry, "not its boundary above"),
        (swap_in_another_boundary, "not its boundary above"),
        (claim_a_unit_past_the_rank, "more unit pivots"),
    ],
)
def test_cleared_columns_are_certified_by_identity(monkeypatch, tamper, message):
    exact = homology.chain_data

    def tampered(X):
        data = exact(X)
        (M, snf), (_, upper) = data[1], data[2]
        assert len(upper.unit_rows) == upper.rank == 3
        homology.check_certificates(data)
        if tamper(M, snf, upper):
            with pytest.raises(ArithmeticError, match="M V = U_inv D"):
                snf.check(M)
        else:
            snf.check(M)  # the product route alone passes it
        return data

    monkeypatch.setattr(homology, "chain_data", tampered)
    with pytest.raises(ArithmeticError, match=message):
        reduced_homology(build(w("abca")))
    row = examine_word(w("abca"))
    assert row.checks["boundary_squares_to_zero"] == "pass"
    assert row.checks["snf_certificates"] == "fail"
    assert any(message in note for note in row.notes)


def rp2():
    """The Delta-complex of RP^2 with two vertices v, w, three edges a, b
    (w to v) and c (a loop at w), and two triangles U = [w, w, v] with faces
    (a, b, c) and L = [w, w, v] with faces (b, a, c): a square with its
    opposite sides glued antipodally, cut along a diagonal."""
    v, w_, a, b, c, U, L = range(7)
    faces = {v: (), w_: (), a: (v, w_), b: (v, w_), c: (w_, w_), U: (a, b, c), L: (b, a, c)}
    labels = dict(zip(range(7), "vwabcUL"))
    return DeltaComplex(faces, labels, name="RP2")


def dense_chain_data(X):
    """Each boundary map of X with the dense routine's reduction of it
    alone: the route to the homology of a complex with torsion, whose
    chain_data the library refuses."""
    data = []
    for n in range(X.dim + 1):
        M = boundary_matrix(X, n)
        data.append((M, dense_snf(dense_of(M, boundary_rows(X, n)))))
    return data


def test_torsion_through_the_whole_chain():
    X = rp2()
    X.validate()
    assert X.f_vector() == (2, 3, 2)
    # d_2's unit pivot leaves the block [[2]], which the library refuses;
    # the dense routine of tests/reference.py is the route to the torsion
    with pytest.raises(ArithmeticError, match=REFUSAL):
        reduced_homology(X)
    data = dense_chain_data(X)
    assert homology.profile_of(data).groups == ((0, ()), (0, (2,)), (0, ()))
    assert [snf.diagonal for _, snf in data] == [(1,), (1,), (1, 2)]
    for n, (M, snf) in enumerate(data):
        snf.check(M)
        assert_unimodular(snf.U_inv)
        assert_unimodular(snf.V)
        if n < 2:  # the maps below it reduce alone, by unit pivots
            assert smith_normal_form(M, boundary_rows(X, n)).diagonal == snf.diagonal


def test_rp2_grading_and_subdivision():
    assert rp2().cells_by_dim == [[0, 1], [2, 3, 4], [5, 6]]
    # its labels are strings, which the subdivision sorts as they are
    S = barycentric_subdivide(rp2())
    S.validate()
    assert S.f_vector() == (7, 18, 12)
    with pytest.raises(ArithmeticError, match=REFUSAL):
        reduced_homology(S)
    assert homology.profile_of(dense_chain_data(S)).groups == ((0, ()), (0, (2,)), (0, ()))


def test_snf_of_a_mixed_matrix_refuses_the_residual():
    # a permuted unit block (rows 0, 1 at columns 3, 1) beside the non-unit
    # block [[2, 4, 4], [-6, 6, 12], [10, 4, 16]] (rows 2-4, columns 0, 2,
    # 4), coupled by r2 += 2 r0, r4 += 4 r1 and c4 += 2 c3: the unit pivots
    # clear the coupling, and the residual they leave has no unit entry, so
    # the library refuses M; the dense routine of tests/reference.py is the
    # route to its certificate
    M = [
        [0, 0, 0, 1, 2, 0],
        [0, -1, 0, 0, 0, 0],
        [2, 0, 4, 2, 8, 0],
        [-6, 0, 6, 0, 12, 0],
        [10, -4, 4, 0, 16, 0],
    ]
    with pytest.raises(ArithmeticError, match=REFUSAL):
        reduce_dense(M)
    snf = dense_snf(M)
    assert snf.diagonal == (1, 1, 2, 2, 156)
    snf.check(columns_of(M))
    assert_unimodular(snf.U_inv)
    assert_unimodular(snf.V)
    product = 1
    for k, d in enumerate(snf.diagonal, start=1):
        product *= d
        assert minors_gcd(M, k) == product


def test_snf_certificate_rejects_tampering():
    X = build(w("abcab"))
    M, m = boundary_matrix(X, 2), boundary_rows(X, 2)
    snf = smith_normal_form(M, m)
    snf.check(M)
    assert 0 < snf.rank < len(snf.V)

    tampered = smith_normal_form(M, m)
    col = tampered.V[0]  # inside the rank
    j = next(iter(col))
    assert M[j]
    col[j] *= 2
    with pytest.raises(ArithmeticError, match="M V = U_inv D"):
        tampered.check(M)

    tampered = smith_normal_form(M, m)
    col = tampered.U_inv[0]
    col[next(iter(col))] *= 2
    with pytest.raises(ArithmeticError, match="M V = U_inv D"):
        tampered.check(M)

    # a doubled kernel column still satisfies M V = U_inv D, and only the
    # determinant sees it
    tampered = smith_normal_form(M, m)
    t = tampered.rank
    tampered.V[t] = {j: 2 * x for j, x in tampered.V[t].items()}
    tampered.check(M)
    with pytest.raises(AssertionError):
        assert_unimodular(tampered.V)

    # a kernel column moved off the kernel
    tampered = smith_normal_form(M, m)
    tampered.V[t][j] = tampered.V[t].get(j, 0) + 1
    with pytest.raises(ArithmeticError, match="M V = U_inv D"):
        tampered.check(M)

    # a last invariant factor that is not positive: a zero inflates the
    # rank, and a negative one holds once its U_inv column is negated; the
    # library refuses [[2, 0], [0, 2]], so its certificate is the dense
    # routine's
    tampered = reduce_dense([[1, 0], [0, 0]])
    tampered.diagonal = (1, 0)
    with pytest.raises(ArithmeticError, match="positive"):
        tampered.check(columns_of([[1, 0], [0, 0]]))
    with pytest.raises(ArithmeticError, match=REFUSAL):
        reduce_dense([[2, 0], [0, 2]])
    tampered = dense_snf([[2, 0], [0, 2]])
    assert tampered.diagonal == (2, 2)
    tampered.diagonal = (2, -2)
    tampered.U_inv[1] = {i: -x for i, x in tampered.U_inv[1].items()}
    with pytest.raises(ArithmeticError, match="positive"):
        tampered.check(columns_of([[2, 0], [0, 2]]))

    # positive factors that do not divide each other
    tampered = dense_snf([[2, 0], [0, 2]])
    tampered.diagonal = (2, 3)
    with pytest.raises(ArithmeticError, match="divisor chain"):
        tampered.check(columns_of([[2, 0], [0, 2]]))

    # a column of V naming a column M does not have
    tampered = smith_normal_form(M, m)
    tampered.V[0][len(M)] = 1
    with pytest.raises(ArithmeticError, match="certificate shapes do not match M"):
        tampered.check(M)


def is_one_column(snf, t):
    """Whether M V[t] = d_t U_inv[t] is read as a comparison: V[t] is one
    unit entry and d_t is 1."""
    return t < snf.rank and snf.diagonal[t] == 1 and list(snf.V[t].values()) == [1]


def test_no_column_stores_a_zero():
    # a one-column product M V[t] = U_inv[t] with V[t] = {j: 1} is read as
    # M[j] == U_inv[t], which is the product only if no column stores a zero
    words = list(enumerate_canonical_words(6, 4)) + [w(t) for t in HARD_WORDS]
    assert len(words) == 272
    for word in words:
        for M, snf in chain_data(build(word)):
            assert all(all(col.values()) for col in chain(M, snf.U_inv, snf.V)), word

    # the comparison is the common case: the columns the certificates of the
    # hard words check by product, the cleared ones left out
    compared = checked = 0
    for text in HARD_WORDS:
        data = chain_data(build(w(text)))
        for n, (M, snf) in enumerate(data):
            units = len(data[n + 1][1].unit_rows) if n + 1 < len(data) else 0
            checked += len(snf.V) - units
            compared += sum(is_one_column(snf, t) for t in range(snf.rank))
    assert (compared, checked) == (3845, 3852)


@pytest.mark.parametrize("tamper", ["changed", "added", "dropped"])
def test_one_column_certificate_rejects_tampering(tamper):
    X = build(w("abcab"))
    M, m = boundary_matrix(X, 2), boundary_rows(X, 2)
    snf = smith_normal_form(M, m)
    t = next(t for t in range(snf.rank) if is_one_column(snf, t) and len(snf.U_inv[t]) < m)
    (j,) = snf.V[t]
    assert M[j] == snf.U_inv[t]
    col = snf.U_inv[t]
    i = next(iter(col))
    if tamper == "changed":
        col[i] *= 2
    elif tamper == "added":
        col[min(set(range(m)) - set(col))] = 1
    else:
        del col[i]
    assert not certified_by_products(M, snf)
    with pytest.raises(ArithmeticError, match="M V = U_inv D"):
        snf.check(M)


@st.composite
def sparse_matrices(draw):
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    entry = st.sampled_from((0, 0, 0, 0, 1, -1, 1, 2, -3))
    return [[draw(entry) for _ in range(n)] for _ in range(m)]


@settings(max_examples=200)
@given(sparse_matrices(), st.data())
def test_check_agrees_with_the_product_route(M, data):
    # the plain products of tests/reference.py are the second route, on the
    # reduction as it is and with one entry of U_inv or V changed, added or
    # dropped; where the library refuses M, the reduction is the dense
    # routine's
    cols, m = columns_of(M), len(M)
    snf, _ = reduce_or_dense(M)
    snf.check(cols)
    assert certified_by_products(cols, snf)

    side = data.draw(st.sampled_from(("U_inv", "V")))
    columns = getattr(snf, side)
    t = data.draw(st.integers(0, len(columns) - 1))
    i = data.draw(st.integers(0, (m if side == "U_inv" else len(cols)) - 1))
    old = columns[t].get(i, 0)
    x = data.draw(st.sampled_from((0, 1, -1, 2)).filter(lambda x: x != old))
    if x:
        columns[t][i] = x
    else:
        del columns[t][i]
    try:
        snf.check(cols)
    except ArithmeticError as exc:
        assert "M V = U_inv D" in str(exc)
        passed = False
    else:
        passed = True
    assert passed == certified_by_products(cols, snf)


def test_certify_rejects_boundaries_that_do_not_compose(monkeypatch):
    X = build(w("abcab"))
    assert reduced_homology(X).is_trivial()
    exact = homology.boundary_matrix

    def flipped(X, n):
        M = exact(X, n)
        if n == 2:  # one sign of d_2 flipped, at row 0 of its first column
            # there; d_2 alone still reduces, and the clearing of d_1 that
            # relies on d_1 d_2 = 0 must not be certified first
            j = next(j for j, col in enumerate(M) if 0 in col)
            M[j][0] = -M[j][0]
        return M

    monkeypatch.setattr(homology, "boundary_matrix", flipped)
    with pytest.raises(ArithmeticError, match="compose to zero"):
        reduced_homology(X)


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
        profile = reduced_homology(build(word))
        assert not profile.has_torsion(), word


@settings(max_examples=50)
@given(st.lists(st.integers(0, 3), min_size=9, max_size=12).map(tuple))
def test_homotopy_match_on_longer_words(word):
    profile = reduced_homology(build(word))
    predicted = predict_homotopy(word)
    if predicted.sphere_dim is None:
        assert profile.is_trivial(), word
    else:
        assert profile.sphere_dimension() == predicted.sphere_dim, word


def test_betti_alternating_sum_is_reduced_euler():
    from wordcomplex.words import euler_direct

    for word in all_words(6):
        profile = reduced_homology(build(word))
        assert profile_reduced_euler(profile) == euler_direct(word), word


def test_profile_accessors():
    profile = reduced_homology(build(w("aba")))
    assert profile.betti(1) == 1 and profile.betti(0) == 0
    assert profile.betti(17) == 0 and profile.torsion(17) == ()
    assert profile.total_betti == 1
    assert profile.to_json()[1] == {"dim": 1, "betti": 1, "torsion": []}


def test_matrix_csv():
    assert matrix_to_csv([{0: 1}, {0: -2, 1: 3}], 2) == "1,-2\n0,3\n"
