import dataclasses
import hashlib
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wordcomplex import complexes, morse
from wordcomplex.complexes import Collapsing, DeltaComplex, build
from wordcomplex.homology import reduced_homology
from wordcomplex.morse import (
    EMPTY,
    ReductionStep,
    alt_partner,
    alternating_collapse,
    full_matching,
    is_alternating,
    matching_report,
    reduce_step,
    reduce_to_core,
    validate_collapsing_order,
)
from wordcomplex.words import (
    classify,
    distinct_subwords,
    enumerate_canonical_words,
    format_word,
    fundamental_subword,
    parse_word,
    reduced_form,
    subword_levels,
)

from conftest import (
    incidence_by_signs,
    locality_by_covers,
    reduce_to_core_by_subcomplexes,
    reversed_complex,
    skeleton_for_matching,
    upward_closed_by_search,
)
from reference import (
    alt_word,
    coface_slots,
    elementary_collapse,
    height,
    is_p_shifted,
    is_subword,
    left_shifted,
    mu,
    p_shifted,
    without,
)


def w(text):
    return parse_word(text)


def eligible_words(max_len, alphabet=None):
    """Words whose run exponents are all even except possibly the last."""
    for word in enumerate_canonical_words(max_len, alphabet or max_len):
        exponents = reduced_form(word).exponents
        if all(e % 2 == 0 for e in exponents[:-1]):
            yield word


def words_and_reversals(max_len, alphabet):
    for word in enumerate_canonical_words(max_len, alphabet):
        yield word
        yield word[::-1]


def lost_subwords(word, new):
    """The subwords of word that the shorter word no longer has."""
    return {u for u in distinct_subwords(word) if not is_subword(u, new)}


def matched_cells(matching):
    return {u for pair in matching.pairs for u in pair}


@pytest.fixture
def named_tuples(monkeypatch):
    """The tuple -> cell maps the matchings hand to their flip routine."""
    seen = []
    flip = morse._flip_matching

    def spy(word, alpha, t, named, critical):
        seen.append(named)
        return flip(word, alpha, t, named, critical)

    monkeypatch.setattr(morse, "_flip_matching", spy)
    return seen


# -- the pairing map -----------------------------------------------------------


def test_mu_worked_example():
    rf = reduced_form(w("aabba"))
    assert mu(rf, 3, (2, 1, 1)) == (2, 0, 1)  # flips the b-run exponent
    assert mu(rf, 3, (2, 0, 1)) == (2, 1, 1)


def test_mu_on_single_run():
    rf = reduced_form(w("aaa"))
    assert mu(rf, 1, (3,)) == (2,)
    assert mu(rf, 1, (0,)) == (1,)


def test_mu_rejects_unmatched_top():
    rf = reduced_form(w("aabb"))
    with pytest.raises(ValueError):
        mu(rf, 2, (2, 2))


def test_mu_rejects_non_left_shifted():
    rf = reduced_form(w("aba"))
    with pytest.raises(ValueError):
        mu(rf, 3, (0, 0, 1))  # names the same vertex as (1, 0, 0)


def test_mu_involution_and_height_preservation():
    for word in eligible_words(7):
        rf = reduced_form(word)
        t = len(rf)
        alpha = rf.exponents
        tuples = [(0,) * t] + [left_shifted(rf, v) for v in distinct_subwords(word)]
        sigma0 = sigma1 = 0
        for beta in tuples:
            if beta == alpha and alpha[-1] % 2 == 0:
                continue  # the unmatched top
            h = height(beta, rf, t)
            image = mu(rf, t, beta)
            assert mu(rf, t, image) == beta
            assert height(image, rf, t) == h
            assert abs(sum(image) - sum(beta)) == 1
            if beta[h - 1] % 2 == 0:
                sigma0 += 1
            else:
                sigma1 += 1
        assert sigma0 == sigma1  # the pairing is a bijection between the halves


# -- full matchings --------------------------------------------------------------


def test_full_matching_single_odd_run_is_perfect():
    m = full_matching(w("aaa"))
    assert m.critical == ()
    assert set(m.pairs) == {(EMPTY, w("a")), (w("aa"), w("aaa"))}


def test_full_matching_even_last_run_leaves_top():
    m = full_matching(w("aabb"))
    assert m.critical == (w("aabb"),)
    assert (EMPTY, w("a")) in m.pairs


def test_full_matching_requires_even_prefix():
    with pytest.raises(ValueError):
        full_matching(w("abb"))


def test_full_matching_pairs_have_unit_incidence():
    for word in eligible_words(7):
        X = build(word)
        m = full_matching(word)
        for s, t in m.pairs:
            if s == EMPTY:
                assert len(t) == 1
                continue
            inc = incidence_by_signs(X, X.id_of_label[s], X.id_of_label[t])
            assert abs(inc) == 1, (word, s, t)


def test_full_matching_report_and_order():
    for word in eligible_words(7):
        X = build(word)
        m = full_matching(word)
        report = matching_report(X, m)
        assert all(report.values()), (word, report)
        skeleton = skeleton_for_matching(X, m)
        checks = validate_collapsing_order(Collapsing(skeleton), m.pairs)
        assert all(c.ok for c in checks), word


def test_full_matching_tuples_are_left_shifted(named_tuples):
    # the tuples read from the last run leftward are exactly the
    # left-shifted presentations of the subwords, plus the zero tuple
    for word in eligible_words(8, 4):
        full_matching(word)
        named = named_tuples[-1]
        rf = reduced_form(word)
        assert set(named.values()) == distinct_subwords(word) | {EMPTY}, word
        assert named == {
            (0,) * len(rf) if u == EMPTY else left_shifted(rf, u): u
            for u in named.values()
        }, word


def test_flip_matching_refuses_a_flip_leaving_the_named_cells():
    word = w("aaa")
    named = {(0,): EMPTY, (1,): w("a"), (2,): w("aa"), (3,): word}
    assert morse._flip_matching(word, (3,), 1, named, ()) == full_matching(word)
    del named[(3,)]  # the partner of aa
    with pytest.raises(RuntimeError, match="names no matched cell"):
        morse._flip_matching(word, (3,), 1, named, ())


def test_flip_matching_refuses_a_flip_that_is_not_involutive(monkeypatch):
    word = w("aaa")
    named = {(0,): EMPTY, (1,): w("a"), (2,): w("aa"), (3,): word}
    skewed = {(0,): (1,), (1,): (0,), (2,): (3,), (3,): (1,)}  # (3,) goes back to (1,)
    monkeypatch.setattr(morse, "_mu_formula", lambda alpha, h, beta: skewed[beta])
    with pytest.raises(RuntimeError, match="not involutive"):
        morse._flip_matching(word, (3,), 1, named, ())


@pytest.mark.parametrize("top", [(3,), (-1,), (2, 0)])
def test_flip_matching_checks_the_bounds_of_every_named_tuple(top):
    # aa's matching leaves its top critical; a top tuple out of bounds is
    # refused whether it is named for pairing or kept critical
    word = w("aa")
    named = {(0,): EMPTY, (1,): w("a"), (2,): word}
    assert morse._flip_matching(word, (2,), 1, named, ((2,),)) == full_matching(word)
    named = {(0,): EMPTY, (1,): w("a"), top: word}
    with pytest.raises(ValueError, match="0 <= beta <= alpha"):
        morse._flip_matching(word, (2,), 1, named, ())
    with pytest.raises(ValueError, match="0 <= beta <= alpha"):
        morse._flip_matching(word, (2,), 1, named, (top,))


def test_flip_matching_refuses_a_bad_cap_or_cover():
    word = w("aa")
    named = {(0,): EMPTY, (1,): w("a"), (2,): word}
    for t in (0, 2):
        with pytest.raises(ValueError, match="index t must lie between"):
            morse._flip_matching(word, (2,), t, named, ((2,),))
    # abb: an odd exponent before the cap
    with pytest.raises(ValueError, match="exponents before index t must all be even"):
        morse._flip_matching(w("abb"), (1, 2), 2, {(0, 0): EMPTY}, ())
    # the top tuple of aa flips past alpha in _mu_formula when it is not
    # kept critical
    with pytest.raises(ValueError, match="the full tuple is unmatched"):
        morse._flip_matching(word, (2,), 1, named, ())
    # a, kept critical, is also the partner of the empty cell
    with pytest.raises(RuntimeError, match="matching does not partition the cells"):
        morse._flip_matching(word, (2,), 1, named, ((1,), (2,)))


def test_full_matching_pinned():
    # sha256 of the sorted-key JSON matchings of the eligible words of
    # length <= 8 over 4 letters, one per line, as the matching that
    # enumerated the subwords and left-shifted each one produced them
    digest = hashlib.sha256()
    for word in eligible_words(8, 4):
        data = json.dumps(full_matching(word).to_json(), sort_keys=True)
        digest.update(data.encode() + b"\n")
    assert digest.hexdigest() == (
        "5b0eb304f334836e33524bf16b9dd137a6692e16ca532823c7afb50c92ebc2d3"
    )


def test_critical_count_matches_total_reduced_betti():
    for word in eligible_words(6):
        m = full_matching(word)
        profile = reduced_homology(build(word))
        assert len(m.critical) == profile.total_betti, word


def test_naive_locality_fails_but_repaired_locality_holds():
    # In a^2 b^2 a the upper cell aba covers the lower cell aa without being
    # its partner: the literal "covers are partners or lower cells" claim is
    # false, and only the order-aware version holds.
    word = w("aabba")
    X = build(word)
    m = full_matching(word)
    lower = {s for s, _ in m.pairs}
    aa, aba, aab = w("aa"), w("aba"), w("aab")
    assert (aa, aab) in m.pairs
    covers = {
        X.labels[c]
        for c, _ in coface_slots(X)[X.id_of_label[aa]]
    }
    assert aba in covers and aba not in lower
    assert matching_report(X, m)["locality"]


def test_matching_report_locality_agrees_with_the_cover_oracle():
    # the locality read from the order's upward closure is the old
    # presentation-order locality on every eligible word
    checked = 0
    for word in eligible_words(8, 4):
        X = build(word)
        m = full_matching(word)
        assert matching_report(X, m)["locality"] == locality_by_covers(X, m), word
        checked += 1
    assert checked == 46


def tampered(word, pairs):
    m = full_matching(word)
    return build(word), morse.Matching(word, m.t, tuple(pairs), m.critical)


def test_matching_report_catches_each_tampering():
    passing = {"partition": True, "dims": True, "incidence": True, "locality": True}
    m = full_matching(w("aabba"))
    assert matching_report(build(w("aabba")), m) == passing

    # a pair dropped: the empty cell and the vertex a are left uncovered
    assert m.pairs[-1] == (EMPTY, w("a"))
    X, bad = tampered(w("aabba"), m.pairs[:-1])
    assert matching_report(X, bad) == {**passing, "partition": False}

    # pairs spanning two dimensions
    X, bad = tampered(w("aaa"), [(w("a"), w("aaa")), (EMPTY, w("aa"))])
    report = matching_report(X, bad)
    assert not report["dims"] and report["partition"]

    # (a, aa): both deletions of aa give a, with signs summing to 0
    pairs = [(w("ab"), w("aab")), (w("a"), w("aa")), (EMPTY, w("b"))]
    X, bad = tampered(w("aab"), pairs)
    assert incidence_by_signs(X, X.id_of_label[w("a")], X.id_of_label[w("aa")]) == 0
    assert matching_report(X, bad) == {**passing, "incidence": False}

    # the pairs reversed: the empty cell goes first, under every vertex
    X, bad = tampered(w("aabba"), m.pairs[::-1])
    assert matching_report(X, bad) == {**passing, "locality": False}


def test_order_check_accepts_a_pair_that_is_no_elementary_collapse():
    # the dunce hat: all three deletions of aaa give aa, with signs -1, +1,
    # -1, so the pair has unit incidence but aa is no free face of aaa
    X = build(w("aaa"))
    aa, aaa = X.id_of_label[w("aa")], X.id_of_label[w("aaa")]
    assert X.faces[aaa] == (aa, aa, aa)
    checks = validate_collapsing_order(Collapsing(X), ((w("aa"), w("aaa")),))
    assert all(c.ok for c in checks)
    with pytest.raises(ValueError, match="3 deletions of tau hit sigma"):
        elementary_collapse(X, aa, aaa)
    assert not Collapsing(X).is_free(aa, aaa)


# -- collapsing order validation ---------------------------------------------------


def test_validate_empty_order():
    assert validate_collapsing_order(Collapsing(build(w("aba"))), ()) == ()


def test_validate_rejects_foreign_cells():
    with pytest.raises(ValueError):
        validate_collapsing_order(Collapsing(build(w("aa"))), ((w("b"), w("ab")),))


def test_dimension_increasing_order_is_invalid():
    m = full_matching(w("aaa"))
    X = build(w("aaa"))
    backwards = tuple(reversed(m.pairs))
    checks = validate_collapsing_order(Collapsing(X), backwards)
    assert not all(c.ok for c in checks)
    assert not checks[0].upward_closed


def test_order_conditions_reported_per_pair():
    m = full_matching(w("aaaa"))
    X = build(w("aaaa"))
    skeleton = skeleton_for_matching(X, m)
    checks = validate_collapsing_order(Collapsing(skeleton), m.pairs)
    assert all(c.ok for c in checks)
    assert all(c.dims_ok and c.incidence_ok and c.upward_closed for c in checks)
    assert checks[-1].sigma == EMPTY  # the augmentation pair goes last


def test_validate_matches_up_set_search():
    # direct cofaces decide as the search of the whole up-set does, up to and
    # including the first failing pair, on valid and invalid orders alike;
    # each order is also tried with an earlier pair named again later, whose
    # cells must not be counted out twice
    rng = random.Random(5)
    repeats = random.Random(6)
    invalid = 0
    for word in eligible_words(7, 4):
        m = full_matching(word)
        skeleton = skeleton_for_matching(build(word), m)
        orders = [m.pairs, m.pairs[::-1]]
        for _ in range(3):
            orders.append(tuple(rng.sample(m.pairs, len(m.pairs))))
        for order in orders[:]:
            i = repeats.randrange(len(order))
            j = repeats.randrange(i + 1, len(order) + 1)
            orders.append(order[:j] + (order[i],) + order[j:])
        for k, order in enumerate(orders):
            checks = validate_collapsing_order(Collapsing(skeleton), order)
            valid = all(c.ok for c in checks)
            searched = upward_closed_by_search(skeleton, order)
            for check, up_ok in zip(checks, searched):
                assert check.upward_closed == up_ok, (word, order)
                if not check.ok:
                    break
            assert valid == all(
                c.dims_ok and c.incidence_ok and up_ok
                for c, up_ok in zip(checks, searched)
            ), (word, order)
            assert valid or k != 5, (word, order)  # m.pairs, a pair repeated
            invalid += not valid
    assert invalid  # the shuffled orders exercise failing pairs too


def test_validate_counts_collapsed_cells_as_removed():
    # with a valid prefix of the order collapsed, the rest of the pairs,
    # valid or shuffled, get the verdicts and checks they get on the
    # complex less the prefix's cells; a pair naming such a cell raises
    rng = random.Random(5)
    invalid = 0
    for word in eligible_words(7, 4):
        m = full_matching(word)
        skeleton = skeleton_for_matching(build(word), m)
        for cut in (len(m.pairs) // 3, 2 * len(m.pairs) // 3):
            done, rest = m.pairs[:cut], m.pairs[cut:]
            S = frozenset(
                skeleton.id_of_label[u] for pair in done for u in pair if u != EMPTY
            )
            less = without(skeleton, S)
            orders = [rest, rest[::-1]]
            for _ in range(3):
                orders.append(tuple(rng.sample(rest, len(rest))))
            for order in orders:
                view = Collapsing(skeleton)
                view.remove(*S)
                checks = validate_collapsing_order(view, order)
                less_checks = validate_collapsing_order(Collapsing(less), order)
                assert checks == less_checks, (word, order)
                invalid += not all(c.ok for c in checks)
            for pair in done:
                view = Collapsing(skeleton)
                view.remove(*S)
                with pytest.raises(ValueError):
                    validate_collapsing_order(view, rest + (pair,))
    assert invalid  # the shuffled orders exercise failing pairs too


# -- word reduction -----------------------------------------------------------------


def test_reduce_step_examples():
    step = reduce_step(w("abaa"))
    assert step.kind == "delete" and step.before == w("abaa")
    assert step.after == w("aaa") and step.matching.t == 1

    step = reduce_step(w("aaba"))
    assert step.kind == "delete" and step.before == w("aaba")
    assert step.after == w("aab") and step.matching.t == 2

    assert reduce_step(w("aab")) == ReductionStep("flip", w("aab"), w("baa"), None)
    assert reduce_step(w("aaa")) == ReductionStep(
        "contract", w("aaa"), w("a"), full_matching(w("aaa"))
    )
    assert reduce_step(w("aabb")) is None
    assert reduce_step(w("a")) is None


def test_reduce_step_is_none_exactly_at_the_terminal_words():
    # the terminal words are read off the classification, not the exponents
    for word in words_and_reversals(7, 4):
        step = reduce_step(word)
        terminal = len(word) == 1 or (
            classify(word).is_spherical and fundamental_subword(word) == word
        )
        assert (step is None) == terminal, word
        if terminal:
            continue
        assert step.before == word, word
        if step.kind == "flip":
            assert step.after == word[::-1] and step.matching is None, word
        elif step.kind == "contract":
            assert step.after == word[:1] and len(set(word)) == 1, word
        else:
            assert step.kind == "delete", word
            deletions = {word[:i] + word[i + 1 :] for i in range(len(word))}
            assert step.after in deletions, word


def test_reduce_step_cell_accounting():
    for word in words_and_reversals(7, 7):
        step = reduce_step(word)
        if step is None or step.kind != "delete":
            continue
        new, matching = step.after, step.matching
        removed = len(distinct_subwords(word)) - len(distinct_subwords(new))
        assert removed == 2 * len(matching.pairs), word
        assert matched_cells(matching) == lost_subwords(word, new), word


def test_reduce_step_tuples_are_p_shifted(named_tuples):
    # the tuples read outward from run p are the p-shifted presentations
    # of the lost subwords, each using run p in full
    for word in words_and_reversals(7, 4):
        step = reduce_step(word)
        if step is None or step.kind != "delete":
            continue
        new, matching = step.after, step.matching
        named = named_tuples[-1]
        rf = reduced_form(word)
        p = matching.t + 1
        lost = lost_subwords(word, new)
        assert set(named.values()) == lost, word
        assert named == {p_shifted(rf, u, p): u for u in lost}, word
        for beta in named:
            assert is_p_shifted(rf, beta, p), (word, beta)
            assert beta[p - 1] == rf.exponents[p - 1], (word, beta)


@settings(max_examples=50)
@given(st.lists(st.integers(0, 3), min_size=9, max_size=12).map(tuple))
def test_reduction_on_longer_words(word):
    step = reduce_step(word)
    if step is not None and step.kind == "delete":
        assert matched_cells(step.matching) == lost_subwords(word, step.after)
    trace = reduce_to_core(build(word))
    if classify(word).is_spherical:
        assert trace.terminal == fundamental_subword(word)
    else:
        assert len(trace.terminal) == 1


def test_reduce_to_core_spherical():
    trace = reduce_to_core(build(w("ababab")))
    assert trace.terminal == w("aabb") == fundamental_subword(w("ababab"))
    assert [s.kind for s in trace.steps] == ["delete", "delete"]


def test_reduce_to_core_stuck_core():
    trace = reduce_to_core(build(w("aaa")))
    assert trace.terminal == w("a")
    assert [s.kind for s in trace.steps] == ["contract"]

    trace = reduce_to_core(build(w("abaa")))
    assert trace.terminal == w("a")
    assert [s.kind for s in trace.steps] == ["delete", "contract"]


def test_reduce_to_core_uses_flips():
    trace = reduce_to_core(build(w("aab")))
    assert len(trace.terminal) == 1
    assert any(s.kind == "flip" for s in trace.steps)


def test_reduce_to_core_already_terminal():
    assert reduce_to_core(build(w("aabb"))).steps == ()
    assert reduce_to_core(build(w("a"))).steps == ()


def test_reduce_to_core_terminal_law():
    for word in enumerate_canonical_words(7, 7):
        trace = reduce_to_core(build(word))
        if classify(word).is_spherical:
            assert trace.terminal == fundamental_subword(word), word
        else:
            assert len(trace.terminal) == 1, word
        for step in trace.steps:
            if step.kind == "delete":
                assert len(step.after) == len(step.before) - 1
            elif step.kind == "flip":
                assert step.after == step.before[::-1]


def test_reduce_to_core_builds_nothing(monkeypatch):
    calls = []

    def counting_build(word):
        calls.append(word)
        return build(word)

    built = [build(word) for word in enumerate_canonical_words(6, 4)]
    for module in (morse, complexes):
        monkeypatch.setattr(module, "build", counting_build)
    for X in built:
        reduce_to_core(X)
    assert calls == []


def with_stray_vertex(X):
    """X with one more vertex, labelled by a letter the word does not have."""
    stray = max(X.dim_of) + 1
    return DeltaComplex(
        {**X.faces, stray: ()},
        {**X.labels, stray: w("c")},
    )


def test_reduce_to_core_rejects_a_complex_not_the_words():
    X = build(w("abab"))
    with pytest.raises(ValueError, match="one top cell"):
        reduce_to_core(without(X, X.cells(3)))  # four top cells
    # the word's complex with a stray vertex: the start check refuses it
    with pytest.raises(RuntimeError, match="not the subwords"):
        reduce_to_core(with_stray_vertex(X))


def test_reduce_to_core_refuses_a_stray_vertex_with_no_step():
    # aabb takes no step, so only the start check can see the stray vertex
    X = with_stray_vertex(build(w("aabb")))
    assert X.f_vector() == (3, 3, 2, 1)
    with pytest.raises(RuntimeError, match="not the subwords"):
        reduce_to_core(X)


def test_reduce_to_core_checks_the_survivors_of_every_step(monkeypatch):
    # a step whose matching is a valid order but whose shorter word is not
    # the one its matched cells leave: only the survivor check sees it
    step = morse.reduce_step

    def misnamed(word):
        found = step(word)
        assert found.after == w("aab")
        return dataclasses.replace(found, after=w("aba"))

    monkeypatch.setattr(morse, "reduce_step", misnamed)
    with pytest.raises(RuntimeError, match="do not leave"):
        reduce_to_core(build(w("aaba")))


def test_reduce_to_core_refuses_survivors_the_word_lacks(monkeypatch):
    # aabc keeps every subword aab keeps, and adds subwords with c, which
    # aaba lacks: the pairs' cells are still aaba's less aabc's, so only
    # the inclusion half of the survivor check sees it
    step = morse.reduce_step

    def padded(word):
        found = step(word)
        return dataclasses.replace(found, after=found.after + w("c"))

    monkeypatch.setattr(morse, "reduce_step", padded)
    with pytest.raises(RuntimeError, match="do not leave"):
        reduce_to_core(build(w("aaba")))


def test_reduce_to_core_checks_the_order_of_every_step(monkeypatch):
    # the pairs in the opposite order name the same cells, so the plan's
    # check passes, but a lower pair now goes before the cells above it
    step = morse.reduce_step

    def reordered(word):
        found = step(word)
        assert found.kind == "delete"
        pairs = found.matching.pairs[::-1]
        return dataclasses.replace(
            found, matching=dataclasses.replace(found.matching, pairs=pairs)
        )

    monkeypatch.setattr(morse, "reduce_step", reordered)
    with pytest.raises(RuntimeError, match="collapsing order invalid"):
        reduce_to_core(build(w("aaba")))


def test_the_memo_of_reduction_plans_is_bounded():
    assert morse._plan.cache_info().maxsize is not None


def test_the_order_check_runs_at_every_step_with_the_memo_warm_or_cold(monkeypatch):
    # the memo keeps what depends on the word alone; every delete or
    # contract step still checks its order on the complex in hand
    calls = []
    check = morse.validate_collapsing_order

    def counting(view, pairs):
        calls.append(view.X)
        return check(view, pairs)

    monkeypatch.setattr(morse, "validate_collapsing_order", counting)
    for word in enumerate_canonical_words(6, 3):
        X = build(word)
        morse._plan.cache_clear()
        for _ in ("cold", "warm"):
            calls.clear()
            trace = reduce_to_core(X)
            assert calls == [X] * sum(s.kind != "flip" for s in trace.steps), word
        # one plan per step and one for the terminal word, each made once
        plans = len(trace.steps) + 1
        info = morse._plan.cache_info()
        assert (info.misses, info.hits) == (plans, plans), word


def test_flip_relabelling_is_the_reversed_complex():
    def face_labels(X):
        return {
            X.labels[c]: tuple(X.labels[f] for f in faces)
            for c, faces in X.faces.items()
        }

    for word in enumerate_canonical_words(7, 4):
        flipped = reversed_complex(build(word))
        flipped.validate()
        assert face_labels(flipped) == face_labels(build(word[::-1])), word


def test_reduce_to_core_traces_pinned():
    # sha256 of the sorted-key JSON traces, one per line, as the reduction
    # that rebuilt the complex at every step produced them
    digest = hashlib.sha256()
    for word in enumerate_canonical_words(7, 4):
        trace = json.dumps(reduce_to_core(build(word)).to_json(), sort_keys=True)
        digest.update(trace.encode() + b"\n")
    assert digest.hexdigest() == (
        "b38ab0ecfc075880bacb7eef4fde156113f099819bae5b6e53b552f8e6b1a955"
    )


def test_reduce_to_core_constructs_no_complex(monkeypatch):
    calls = []
    init = DeltaComplex.__init__

    def counting_init(self, *args, **kwargs):
        calls.append(args)
        init(self, *args, **kwargs)

    built = [build(word) for word in enumerate_canonical_words(7, 4)]
    assert len(built) == 976
    monkeypatch.setattr(DeltaComplex, "__init__", counting_init)
    flips = 0
    for X in built:
        flips += sum(s.kind == "flip" for s in reduce_to_core(X).steps)
    assert calls == []
    assert flips > 100  # the flips build nothing either


def test_reduce_to_core_matches_the_subcomplex_per_step_oracle():
    for word in enumerate_canonical_words(7, 4):
        X = build(word)
        expected = reduce_to_core_by_subcomplexes(X).to_json()
        assert reduce_to_core(X).to_json() == expected, word


@settings(max_examples=50)
@given(st.lists(st.integers(0, 3), min_size=9, max_size=12).map(tuple))
def test_reduce_to_core_matches_the_oracle_on_longer_words(word):
    X = build(word)
    assert reduce_to_core(X).to_json() == reduce_to_core_by_subcomplexes(X).to_json()


# -- alternating words ----------------------------------------------------------------


def test_alt_word():
    assert alt_word(4) == w("abab")
    with pytest.raises(ValueError):
        alt_word(0)


def test_is_alternating():
    for text in ("a", "ab", "zyz", "abab"):
        assert is_alternating(w(text)), text
    for text in ("aa", "aab", "abc", "abba"):
        assert not is_alternating(w(text)), text
    with pytest.raises(ValueError, match="does not alternate"):
        alternating_collapse(w("aab"))


def test_alt_partner_rules():
    assert alt_partner((), 0, 1) == (w("a"), "R3", True)
    assert alt_partner(w("aa"), 0, 1) == (w("aab"), "R4", True)
    assert alt_partner(w("b"), 0, 1) == (w("ab"), "R1", True)
    assert alt_partner(w("aaa"), 0, 1) == (w("aaba"), "R2", True)
    assert alt_partner(w("aabb"), 0, 1) == (w("aabba"), "R3", True)
    for u in (w("c"), w("ac"), w("aabbc")):  # a third letter
        with pytest.raises(RuntimeError, match="unclassified two-letter word"):
            alt_partner(u, 0, 1)


def test_alt_partner_is_an_involution():
    for n in range(1, 9):
        for u in distinct_subwords(alt_word(n)) | {()}:
            partner, rule, is_lower = alt_partner(u, 0, 1)
            back, back_rule, back_lower = alt_partner(partner, 0, 1)
            assert back == u and back_rule == rule and back_lower != is_lower


def test_alternating_matching_critical_cells():
    # the rules leave the fundamental subword unmatched when 3 divides the
    # length, nothing otherwise
    for n in range(1, 13):
        run = alternating_collapse(alt_word(n))
        if n % 3 == 0:
            assert run.core == fundamental_subword(alt_word(n))
        else:
            assert run.core is None


def test_rule_matching_json_tags_each_pair_with_its_rule():
    for n in range(1, 13):
        run = alternating_collapse(alt_word(n))
        assert [s["rule"] for s in run.to_json()["steps"]] == list(run.rules), n


def test_alternating_collapse_runs():
    for n in range(1, 13):
        run = alternating_collapse(alt_word(n))
        if n % 3 == 0:
            expected = distinct_subwords(fundamental_subword(alt_word(n)))
            assert run.terminal_cells == frozenset(expected)
        else:
            assert run.terminal_cells == frozenset({(0,)})
        removed = len(distinct_subwords(alt_word(n))) - len(run.terminal_cells)
        assert removed == 2 * len(run.pairs)


def test_alternating_collapse_drops_cells_once(monkeypatch):
    made = []
    init = DeltaComplex.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    listed = []

    def counting(list_subwords):
        def counted(word):
            listed.append(word)
            return list_subwords(word)

        return counted

    monkeypatch.setattr(DeltaComplex, "__init__", counting_init)
    monkeypatch.setattr(complexes, "subword_levels", counting(subword_levels))
    monkeypatch.setattr(morse, "distinct_subwords", counting(distinct_subwords))
    alternating_collapse(alt_word(9))
    # the pairs are dropped from the one built complex, and the terminal
    # labels are read from its live cells: no subcomplex is made
    assert len(made) == 1
    assert made[0].name == format_word(alt_word(9))
    assert set(made[0].id_of_label) == distinct_subwords(alt_word(9))
    # the rule pairs are read off the complex's labels: the word's own
    # subwords are listed once, by build
    assert listed.count(alt_word(9)) == 1


def test_alternating_collapse_replays_as_elementary_collapses():
    for n in range(1, 13):
        run = alternating_collapse(alt_word(n))
        X = build(alt_word(n))
        for sigma, tau in run.pairs:
            ids = X.id_of_label
            X = elementary_collapse(X, ids[sigma], ids[tau])
        assert frozenset(X.id_of_label) == run.terminal_cells, n


def test_alternating_collapse_runs_pinned():
    # sha256 of the sorted-key JSON runs for n = 1..16, one per line, as the
    # collapse that rebuilt the complex after every pair produced them
    digest = hashlib.sha256()
    for n in range(1, 17):
        data = json.dumps(alternating_collapse(alt_word(n)).to_json(), sort_keys=True)
        digest.update(data.encode() + b"\n")
    assert digest.hexdigest() == (
        "60b71b889aac5a3453b312632ef5aa281f3fb895bf51e9f8aa2c959d9ab86367"
    )


def spelled_over(data, a, b):
    """A collapse run's JSON for a word over a and b, with a spelled for
    each letter a and b for each letter b; the terminal cells are
    re-sorted by their new spelling."""
    table = str.maketrans("ab", a + b)

    def spell(text):
        return text.translate(table)  # "-", the empty cell, stays

    return {
        "word": spell(data["word"]),
        "core": data["core"] and spell(data["core"]),
        "steps": [
            {**s, "sigma": spell(s["sigma"]), "tau": spell(s["tau"])}
            for s in data["steps"]
        ],
        "terminal_cells": sorted(map(spell, data["terminal_cells"])),
    }


def test_alternating_collapse_reads_the_word_in_its_own_letters():
    # the run on abab... spelled in other letters is the run on the word
    # in those letters, also when the first letter sorts after the second
    for a, b in ("ab", "ba", "cd", "zy"):
        for n in range(1, 13):
            word = w((a + b) * n)[:n]
            expected = spelled_over(alternating_collapse(alt_word(n)).to_json(), a, b)
            assert alternating_collapse(word).to_json() == expected, (a, b, n)


def test_alternating_collapse_step_rules_tagged():
    run = alternating_collapse(alt_word(6))
    assert set(run.rules) <= {"R1", "R2", "R3", "R4"}
    assert run.core == w("aabb")


# each patch breaks one check of alternating_collapse on ababab, whose core
# is aabb, while the checks before it still pass: (owner, name, patch of the
# real attribute)
BROKEN_ALTERNATING_RULES = {
    # every cell's partner is its prefix, whose partner is shorter still
    "not involutive": (morse, "alt_partner", lambda real: lambda u, a, b: (u[:-1], "R1", False)),
    # both cells of each pair claim the lower side, so the pair counts twice
    "do not partition": (
        morse, "alt_partner", lambda real: lambda u, a, b: (*real(u, a, b)[:2], True)
    ),
    # the word named as its own core, though the rules match it
    "unexpected critical cells": (morse, "fundamental_subword", lambda real: lambda u: u),
    # the core listed without the vertex b, whose partner ab it keeps
    "straddles the core": (
        morse, "distinct_subwords", lambda real: lambda u: real(u) - {w("b")}
    ),
    # no pair is ever free
    "is stuck": (Collapsing, "is_free", lambda real: lambda view, sigma, tau: False),
    # the core listed with a cell the complex lacks, which no collapse leaves
    "left": (morse, "distinct_subwords", lambda real: lambda u: real(u) | {w("z")}),
}


@pytest.mark.parametrize("message", list(BROKEN_ALTERNATING_RULES))
def test_alternating_collapse_refuses_broken_rules(monkeypatch, message):
    owner, name, patch = BROKEN_ALTERNATING_RULES[message]
    monkeypatch.setattr(owner, name, patch(getattr(owner, name)))
    with pytest.raises(RuntimeError, match=message):
        alternating_collapse(alt_word(6))


def test_trace_json_round_trip():
    trace = reduce_to_core(build(w("abaa")))
    data = trace.to_json()
    assert data["terminal"] == "a"
    assert data["steps"][0]["kind"] == "delete"
    run = alternating_collapse(alt_word(3))
    data = run.to_json()
    assert data["core"] == "aa"
    assert sorted(data["terminal_cells"]) == ["a", "aa"]
