import copy
import json
from importlib import resources

import pytest

from wordcomplex import complexes as C
from wordcomplex.complexes import (
    Collapsing,
    DeltaComplex,
    barycentric_subdivide,
    build,
    free_pairs,
    incidence,
    is_pseudomanifold,
    is_simplicial,
    to_dot,
    to_json_dict,
)
from wordcomplex.homology import chain_data, reduced_homology
from wordcomplex.morse import (
    EMPTY,
    alternating_collapse,
    full_matching,
    matching_report,
    reduce_to_core,
)
from wordcomplex.words import (
    canonicalize,
    distinct_subwords,
    enumerate_canonical_words,
    parse_word,
    reduced_form,
)

from conftest import HARD_WORDS, collapse_all, complex_by_slicing, incidence_by_signs
from reference import (
    alt_word,
    coface_slots,
    elementary_collapse,
    empty_complex,
    is_isomorphic,
    join,
    without,
)


def w(text):
    return parse_word(text)


def all_words(max_len):
    return enumerate_canonical_words(max_len, max_len)


# -- construction -------------------------------------------------------------


def test_build_small_examples():
    X = build(w("aa"))
    assert X.f_vector() == (1, 1)
    edge = X.cells(1)[0]
    vertex = X.cells(0)[0]
    assert X.faces[edge] == (vertex, vertex)

    assert build(w("aba")).f_vector() == (2, 3, 1)
    for n in range(1, 7):
        assert build((0,) * n).f_vector() == (1,) * n


def test_build_faces_agree_with_slicing():
    # build grows each face table from its prefix's; the second route
    # slices every face out of the subword
    words = list(enumerate_canonical_words(6, 4)) + [w(t) for t in HARD_WORDS]
    assert len(words) == 272
    for word in words:
        X = build(word)
        cells_by_dim, faces, labels = complex_by_slicing(word)
        assert X.cells_by_dim == cells_by_dim, word
        assert X.labels == labels, word
        assert X.faces == faces, word


def test_build_empty_word_rejected():
    with pytest.raises(ValueError):
        build(())


def test_f_vector_counts_distinct_subwords():
    for word in all_words(6):
        X = build(word)
        by_len = {}
        for u in distinct_subwords(word):
            by_len[len(u)] = by_len.get(len(u), 0) + 1
        assert X.f_vector() == tuple(by_len[k] for k in range(1, len(word) + 1))


def test_functoriality_exhaustive():
    for word in all_words(6):
        build(word).validate()


def test_reduced_euler_matches_direct_count():
    from wordcomplex.words import euler_direct

    for word in all_words(6):
        assert build(word).reduced_euler() == euler_direct(word)


def test_f_vector_invariant_under_reversal():
    for word in all_words(7):
        assert build(word).f_vector() == build(canonicalize(word[::-1])).f_vector()


# -- incidence numbers ---------------------------------------------------------


def incidence_of(text, sigma_text, tau_text):
    X = build(w(text))
    return incidence(X, X.id_of_label[w(sigma_text)], X.id_of_label[w(tau_text)])


def test_incidence_examples():
    assert incidence_of("aa", "a", "aa") == 0  # opposite signs cancel
    assert incidence_of("aaa", "aa", "aaa") == -1
    # both of the first two deletions of aab give ab, with opposite signs
    assert incidence_of("aab", "ab", "aab") == 0
    assert incidence_of("aab", "aa", "aab") == -1


def test_incidence_matches_sign_oracle():
    for word in all_words(5):
        X = build(word)
        for n in range(1, X.dim + 1):
            for tau in X.cells(n):
                for sigma in X.cells(n - 1):
                    assert incidence(X, sigma, tau) == incidence_by_signs(X, sigma, tau)


def test_incidence_dimension_mismatch():
    X = build(w("aba"))
    top = X.id_of_label[w("aba")]
    vertex = X.id_of_label[w("a")]
    with pytest.raises(ValueError):
        incidence(X, vertex, top)


# -- join -----------------------------------------------------------------------


def test_join_f_vector_matches_concatenation():
    J = join(build(w("aa")), build(w("bb")))
    assert J.f_vector() == build(w("aabb")).f_vector() == (2, 3, 2, 1)
    J.validate()


def test_join_with_point_is_cone():
    # the complex of a+v with a fresh letter a is the cone over the complex of v
    cone = join(build(w("a")), build(w("bcb")))
    assert cone.f_vector() == build(w("abcb")).f_vector()


def test_join_unit():
    X = build(w("aba"))
    assert join(X, empty_complex()) is X
    assert join(empty_complex(), X) is X


def test_join_isomorphism_examples():
    assert is_isomorphic(build(w("aabb")), join(build(w("aa")), build(w("bb"))))
    assert is_isomorphic(build(w("abcb")), join(build(w("a")), build(w("bcb"))))


def test_join_associativity_instances():
    A, B, Z = build(w("aa")), build(w("ab")), build(w("bb"))
    left = join(join(A, B), Z)
    right = join(A, join(B, Z))
    assert left.n_cells == right.n_cells <= 200
    left.validate()
    right.validate()
    assert is_isomorphic(left, right)


# -- isomorphism -----------------------------------------------------------------


def test_isomorphism_basics():
    X = build(w("aab"))
    assert is_isomorphic(X, X)
    assert is_isomorphic(X, build(w("bba")))  # renaming
    assert not is_isomorphic(X, build(w("aba")))  # different f-vector
    # reversal gives a homeomorphism but not a boundary-respecting bijection
    assert not is_isomorphic(X, build(w("abb")))


def test_isomorphism_respects_all_faces():
    # same f-vector, different gluings
    assert not is_isomorphic(build(w("aaba")), build(w("abaa")))


# -- collapses --------------------------------------------------------------------


def test_free_pairs_examples():
    X = build(w("ab"))
    pairs = free_pairs(X)
    labels = {(X.labels[sigma], X.labels[tau]) for sigma, tau in pairs}
    assert labels == {(w("a"), w("ab")), (w("b"), w("ab"))}

    assert free_pairs(build(w("aaa"))) == []


def test_free_pairs_sort_string_labels():
    # one edge e from v to w: both its vertices are free faces of it
    X = DeltaComplex({0: (), 1: (), 2: (1, 0)}, {0: "v", 1: "w", 2: "e"})
    assert free_pairs(X) == [(0, 2), (1, 2)]


def test_free_pairs_absent_when_all_exponents_at_least_two():
    for word in all_words(7):
        if all(e >= 2 for e in reduced_form(word).exponents):
            assert free_pairs(build(word)) == []


def test_elementary_collapse():
    X = build(w("ab"))
    smaller = elementary_collapse(
        X, X.id_of_label[w("b")], X.id_of_label[w("ab")]
    )
    assert smaller.f_vector() == (1,)
    assert smaller.labels[smaller.cells(0)[0]] == w("a")


def test_elementary_collapse_rejects_invalid_pairs():
    X = build(w("aa"))
    with pytest.raises(ValueError, match=r"\(1\)"):
        elementary_collapse(X, X.id_of_label[w("a")], X.id_of_label[w("aa")])

    Y = build(w("aab"))
    with pytest.raises(ValueError, match=r"\(3\)"):
        # b is free in ab, but ab lies under the top simplex
        elementary_collapse(Y, Y.id_of_label[w("b")], Y.id_of_label[w("ab")])

    Z = build(w("abc"))
    with pytest.raises(ValueError, match=r"\(2\)"):
        # b is also a face of bc
        Z2 = without(
            Z, {Z.id_of_label[w("abc")], Z.id_of_label[w("ac")]}
        )
        elementary_collapse(Z2, Z2.id_of_label[w("b")], Z2.id_of_label[w("ab")])


def test_collapse_all_alternating_four():
    terminal = collapse_all(build(w("abab")))
    assert terminal.n_cells == 1


def removal_orders(X):
    """The (sigma, tau) id pairs that reduce_to_core and, on an alternating
    word, alternating_collapse remove from the word's complex X, in order."""
    ids = X.id_of_label
    word = X.labels[X.cells(X.dim)[0]]
    orders = []
    if word == alt_word(len(word)):
        pairs = alternating_collapse(alt_word(len(word))).pairs
        orders.append([(ids[s], ids[t]) for s, t in pairs])
    order, backwards = [], False
    for step in reduce_to_core(X).steps:
        backwards ^= step.kind == "flip"
        for s, t in step.matching.pairs if step.matching else ():
            if s != EMPTY:
                if backwards:
                    s, t = s[::-1], t[::-1]
                order.append((ids[s], ids[t]))
    orders.append(order)
    return orders


def test_collapsing_view_agrees_with_a_recount():
    # after each pair of the reduction's and the alternating collapse's
    # orders, the live slot counts equal a recount of the coface table, and
    # the free-pair test agrees with an elementary collapse on the copied
    # subcomplex of the live cells, on every live sigma under any tau of the
    # next dimension (a removed tau is in no collapse)
    checked = 0
    for word in enumerate_canonical_words(6, 3):
        X = build(word)
        slots = coface_slots(X)
        for order in removal_orders(X):
            view = Collapsing(X)
            for sigma, tau in [(None, None)] + order:
                if sigma is not None:
                    view.remove(sigma, tau)
                live = X.dim_of.keys() - view.removed
                recount = {c: sum(f in live for f, _ in slots[c]) for c in X.dim_of}
                assert view.up == recount, (word, sigma, tau)
                Y = without(X, view.removed)
                for t in X.dim_of:
                    for s in Y.cells(X.dim_of[t] - 1):
                        try:
                            elementary_collapse(Y, s, t)
                            collapses = True
                        except ValueError:
                            collapses = False
                        assert view.is_free(s, t) == collapses, (word, s, t)
                        checked += collapses
    assert checked


def test_collapse_preserves_structure():
    X = build(w("abab"))
    pairs = free_pairs(X)
    Y = elementary_collapse(X, *pairs[0])
    Y.validate()
    assert Y.n_cells == X.n_cells - 2


# -- barycentric subdivision -------------------------------------------------------


def test_subdivide_point_and_circle():
    assert barycentric_subdivide(build(w("a"))).f_vector() == (1,)
    S = barycentric_subdivide(build(w("aa")))
    assert S.f_vector() == (2, 2)
    S.validate()
    assert reduced_homology(S).groups == ((0, ()), (1, ()))


def test_subdivide_preserves_euler_and_homology():
    for word in all_words(5):
        X = build(word)
        S = barycentric_subdivide(X)
        S.validate()
        assert S.reduced_euler() == X.reduced_euler()
        assert reduced_homology(S).groups == reduced_homology(X).groups


def test_subdivision_f_vector_counts_flags():
    for d in range(6):
        by_length = [0] * (d + 1)
        for flag in C._chains(tuple(range(d + 1))):
            by_length[len(flag) - 1] += 1
        assert C.subdivision_f_vector((0,) * d + (1,)) == tuple(by_length)
    # one 11-cell alone: Fubini(12) ordered set partitions of its positions
    assert sum(C.subdivision_f_vector((0,) * 11 + (1,))) == 28_091_567_595
    for text in ("aa", "aba", "abab", "abca"):
        X = build(w(text))
        S = barycentric_subdivide(X)
        assert C.subdivision_f_vector(X.f_vector()) == S.f_vector(), text
        assert C.subdivision_f_vector(S.f_vector()) == (
            barycentric_subdivide(S).f_vector()
        ), text


def test_double_subdivision_of_dunce_hat():
    X = build(w("aaa"))
    S1 = barycentric_subdivide(X)
    assert S1.f_vector() == (3, 8, 6)
    assert not is_simplicial(S1)  # one subdivision is not enough here
    S2 = barycentric_subdivide(S1)
    S2.validate()
    assert S2.f_vector() == (17, 52, 36)
    assert is_simplicial(S2)
    assert free_pairs(S2) == []
    assert reduced_homology(S2).is_trivial()


def test_grading_is_read_off_the_face_table():
    X = DeltaComplex({0: (), 1: (), 2: (0, 1), 3: (2, 2, 2)}, dict(enumerate("vweT")))
    assert X.cells_by_dim == [[0, 1], [2], [3]]
    assert X.dim_of == {0: 0, 1: 0, 2: 1, 3: 2}
    assert DeltaComplex({}, {}).cells_by_dim == []
    # a cell with one face reads as a vertex, and validate() refuses it
    one_face = DeltaComplex({0: (), 1: (0,)}, {0: "v", 1: "e"})
    with pytest.raises(ValueError, match="cell 1 of dim 0 has 1 faces"):
        one_face.validate()
    # the labels must name exactly the cells of the face table
    for labels in ({0: "v"}, {0: "v", 1: "w", 2: "e"}, {0: "v", 2: "w"}):
        with pytest.raises(ValueError, match="labels must name exactly"):
            DeltaComplex({0: (), 1: ()}, labels)
    with pytest.raises(ValueError, match="cell labels must be unique"):
        DeltaComplex({0: (), 1: ()}, {0: "v", 1: "v"})
    # the triangle 3 above reads its edge as both 0 -> 1 and 1 -> 0 ...
    with pytest.raises(ValueError, match=r"simplicial identity fails at cell 3, i=0, j=2"):
        X.validate()
    # ... and a triangle on two vertices and an edge has faces one too low
    low = DeltaComplex({0: (), 1: (), 2: (0, 1), 3: (0, 1, 2)}, dict(enumerate("vweT")))
    with pytest.raises(ValueError, match="face of 3 has wrong dimension"):
        low.validate()


# -- recognition --------------------------------------------------------------------


def test_is_simplicial():
    assert is_simplicial(build(w("abc")))
    assert is_simplicial(build(w("ab")))
    assert not is_simplicial(build(w("aa")))
    assert not is_simplicial(build(w("aba")))  # two edges on the same vertex pair


def test_is_pseudomanifold_examples():
    assert is_pseudomanifold(build(w("aa")))
    assert not is_pseudomanifold(build(w("aba")))
    assert not is_pseudomanifold(build(w("a")))
    assert is_pseudomanifold(build(w("aabb")))
    # subdivided circle: two vertices, two edges
    assert is_pseudomanifold(barycentric_subdivide(build(w("aa"))))
    # two disjoint two-edge circles: pure, and every vertex is hit by two
    # deletion slots, but the edges are not strongly connected
    two_circles = DeltaComplex(
        {0: (), 1: (), 2: (), 3: (), 4: (1, 0), 5: (0, 1), 6: (3, 2), 7: (2, 3)},
        {c: f"c{c}" for c in range(8)},
    )
    two_circles.validate()
    assert not is_pseudomanifold(two_circles)
    # one such circle and a stray vertex: not pure
    stray = DeltaComplex(
        {0: (), 1: (), 2: (), 3: (1, 0), 4: (0, 1)},
        {c: f"c{c}" for c in range(5)},
    )
    stray.validate()
    assert not is_pseudomanifold(stray)


def test_pseudomanifold_law():
    for word in all_words(6):
        expected = all(e == 2 for e in reduced_form(word).exponents)
        assert is_pseudomanifold(build(word)) == expected, word


def test_readers_leave_a_complex_as_built():
    # a complex is its face table and never changes once built: the live
    # view and every reader keep their own state
    for text in ("aa", "aaa", "aabba", "abab", "abcab", "aabbcc"):
        word = w(text)
        X = build(word)
        before = copy.deepcopy(vars(X))
        Collapsing(X).remove(*X.cells(X.dim))
        free_pairs(X)
        is_pseudomanifold(X)
        if not any(e % 2 for e in reduced_form(word).exponents[:-1]):
            matching_report(X, full_matching(word))
        reduce_to_core(X)
        chain_data(X)
        to_dot(X)
        assert vars(X) == before, text


# -- exports ---------------------------------------------------------------------


def test_json_export_shape():
    X = build(w("aba"))
    data = to_json_dict(X, w("aba"))
    assert data["word"] == "aba"
    assert data["f_vector"] == [2, 3, 1]
    assert {c["subword"] for c in data["cells"]} == {"a", "b", "aa", "ab", "ba", "aba"}
    by_id = {c["id"]: c for c in data["cells"]}
    for entry in data["boundary"]:
        assert by_id[entry["cell"]]["dim"] == by_id[entry["target"]]["dim"] + 1


def test_dot_export_multiplicities():
    dot = to_dot(build(w("aa")))
    assert "digraph" in dot
    assert '[label="2"]' in dot  # the edge hits its vertex twice
    assert 'aa (dim 1)' in dot


def test_exports_of_letters_past_z():
    # a letter id past z has no spelling: the name falls back to repr, the
    # JSON writes no subword for any cell that holds it, the DOT its tuple
    jsonschema = pytest.importorskip("jsonschema")
    X = build((0, 26, 0))
    assert X.name == repr((0, 26, 0))
    data = to_json_dict(X)
    schema = resources.files("wordcomplex") / "schemas" / "complex.schema.json"
    jsonschema.validate(data, json.loads(schema.read_text()))
    subwords = {X.labels[c["id"]]: c["subword"] for c in data["cells"]}
    assert subwords == {
        u: None if 26 in u else "".join("ab"[a] for a in u) for u in X.labels.values()
    }
    dot = to_dot(X)
    assert 'label="(26,) (dim 0)"' in dot
    assert 'label="(0, 26, 0) (dim 2)"' in dot
    assert 'label="aa (dim 1)"' in dot
