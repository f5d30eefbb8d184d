"""Shared oracles for the test suite.

The oracles recompute expected values by the most naive route available
(position-subset enumeration, brute-force search) so the fast paths under
test are checked against something independent.
"""

from __future__ import annotations

import os
from itertools import combinations, product
from math import gcd
from pathlib import Path

from hypothesis import settings

import wordcomplex
from wordcomplex import morse
from wordcomplex.complexes import Collapsing, DeltaComplex, free_pairs
from wordcomplex.words import Word, distinct_subwords, reduced_form

from reference import coface_slots, elementary_collapse, left_shifted, without

# Property tests draw the same examples on every run and keep no example
# database, so the suite stays deterministic.
settings.register_profile(
    "deterministic", derandomize=True, database=None, deadline=None
)
settings.load_profile("deterministic")

# the words of the benchmark's homology workload, 431-943 cells each
HARD_WORDS = (
    "abababababab",
    "aabbccaabbcc",
    "aabbccddaabb",
    "abcdeedcba",
    "abcdbeabdb",
    "aabcbaadbcd",
    "abcabcabca",
    "abcdabcda",
    "abcdbcadcb",
    "abcdedcbab",
    "abcdeabcde",
)


def env_importing_the_package() -> dict[str, str]:
    """This process's environment, with the directory that holds the
    package under test first on PYTHONPATH, for a fresh interpreter."""
    src = str(Path(wordcomplex.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path)


def subwords_by_positions(word: Word) -> set[Word]:
    """Every nonempty subword via explicit position subsets."""
    out = set()
    for k in range(1, len(word) + 1):
        for positions in combinations(range(len(word)), k):
            out.add(tuple(word[i] for i in positions))
    return out


def complex_by_slicing(word: Word):
    """The cells by dimension, face table and labels of the word's complex,
    by position subsets and one slice per face: cells numbered by length,
    then in sorted order, and face i of u the subword u less its letter i."""
    cells = sorted(subwords_by_positions(word), key=lambda u: (len(u), u))
    ids = {u: c for c, u in enumerate(cells)}
    cells_by_dim = [[] for _ in word]
    for u, c in ids.items():
        cells_by_dim[len(u) - 1].append(c)
    while not cells_by_dim[-1]:
        cells_by_dim.pop()
    faces = {
        c: tuple(ids[u[:i] + u[i + 1 :]] for i in range(len(u))) if len(u) > 1 else ()
        for u, c in ids.items()
    }
    return cells_by_dim, faces, {c: u for u, c in ids.items()}


def euler_by_enumeration(word: Word) -> int:
    """Signed subword count, empty subword contributing -1."""
    total = -1
    for u in subwords_by_positions(word):
        total += (-1) ** (len(u) + 1)
    return total


def arrow_by_scan(word: Word, a: int) -> Word:
    """Suffix after the leftmost occurrence, by explicit scanning."""
    for i, x in enumerate(word):
        if x == a:
            return word[i + 1 :]
    raise ValueError("letter not in word")


def presentations_by_product(runs, v: Word) -> set[tuple[int, ...]]:
    """All exponent tuples below the run exponents whose expansion is v."""
    from itertools import product

    out = set()
    for beta in product(*[range(e + 1) for _, e in runs]):
        expansion = tuple(a for (a, _), b in zip(runs, beta) for _ in range(b))
        if expansion == v:
            out.add(beta)
    return out


def incidence_by_signs(X, sigma: int, tau: int) -> int:
    """Sum of deletion signs by direct scan of the face tuple."""
    total = 0
    for i, f in enumerate(X.faces[tau]):
        if f == sigma:
            total += (-1) ** (i + 1)
    return total


def shares_letter_at_every_split(word: Word) -> bool:
    """No split into a prefix and a suffix has disjoint letter sets."""
    return all(set(word[:i]) & set(word[i:]) for i in range(1, len(word)))


def renaming_or_reversal_of(u: Word, v: Word) -> bool:
    """True when a bijective renaming of letters takes u, or u reversed, to v."""
    return any(
        len(x) == len(v) and len(set(zip(x, v))) == len(set(x)) == len(set(v))
        for x in (u, u[::-1])
    )


def indecomposable_classes_by_brute_force(length: int) -> list[Word]:
    """One word per renaming/reversal class of indecomposable words of the
    given length, scanning all length**length strings with no canonical
    forms."""
    classes: list[Word] = []
    for word in product(range(length), repeat=length):
        if shares_letter_at_every_split(word) and not any(
            renaming_or_reversal_of(word, c) for c in classes
        ):
            classes.append(word)
    return classes


def same_classes(found: list[Word], listed: list[Word]) -> bool:
    """The pairwise inequivalent words in found name exactly the classes of
    the words in listed, each once."""
    return len(found) == len(listed) and all(
        any(renaming_or_reversal_of(u, v) for v in listed) for u in found
    )


def collapse_all(X):
    """Greedily collapse free pairs (highest dimension first) to a fixpoint."""
    while True:
        pairs = free_pairs(X)
        if not pairs:
            return X
        X = elementary_collapse(X, *pairs[-1])


def minors_gcd(M: list[list[int]], k: int) -> int:
    """Gcd of all k x k minors; d_1 ... d_k must equal it."""
    m, n = len(M), len(M[0]) if M else 0
    g = 0
    for rows in combinations(range(m), k):
        for cols in combinations(range(n), k):
            g = gcd(g, _det([[M[i][j] for j in cols] for i in rows]))
    return g


def matmul(A: list[list[int]], B: list[list[int]]) -> list[list[int]]:
    """Dense product, skipping zero entries of the left factor."""
    if not A or not B:
        return [[] for _ in A]
    n = len(B[0])
    out = [[0] * n for _ in A]
    for i, row in enumerate(A):
        acc = out[i]
        for k, a in enumerate(row):
            if a:
                brow = B[k]
                for j in range(n):
                    if brow[j]:
                        acc[j] += a * brow[j]
    return out


def dense_of(columns: list[dict[int, int]], m: int) -> list[list[int]]:
    """The dense m-row matrix with the given sparse columns."""
    return [[col.get(i, 0) for col in columns] for i in range(m)]


def dense_view(columns: list[dict[int, int]]) -> list[list[int]]:
    """The square matrix whose t-th column has the entries {row: value} of
    columns[t]; an entry outside the square fails."""
    size = len(columns)
    A = [[0] * size for _ in range(size)]
    for t, col in enumerate(columns):
        for i, x in col.items():
            assert 0 <= i < size, (t, i)
            A[i][t] = x
    return A


def assert_unimodular(columns: list[dict[int, int]]) -> None:
    """A square integer matrix, given by its sparse columns, with
    determinant +-1, so invertible over Z."""
    A = dense_view(columns)
    assert abs(_det(A)) == 1, A


def _det(M: list[list[int]]) -> int:
    """Fraction-free Gaussian elimination (Bareiss)."""
    A = [row[:] for row in M]
    n = len(A)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if not A[k][k]:
            for i in range(k + 1, n):
                if A[i][k]:
                    A[k], A[i] = A[i], A[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
        prev = A[k][k]
    return sign * A[-1][-1]


def upward_closed_by_search(X, pairs) -> list[bool]:
    """Per pair of a collapsing order, whether a depth-first search of
    sigma's whole up-set meets only cells removed earlier, sigma or tau; the
    empty sigma stands below every cell."""
    slots = coface_slots(X)
    removed: set[int] = set()
    flags = []
    for s, t in pairs:
        tid = X.id_of_label[t]
        allowed = removed | {tid}
        if not s:
            flags.append(all(c in allowed for c in X.dim_of))
        else:
            sid = X.id_of_label[s]
            allowed.add(sid)
            up_ok = True
            stack = [sid]
            seen = set(stack)
            while stack:
                c = stack.pop()
                if c not in allowed:
                    up_ok = False
                    break
                for cof, _ in slots[c]:
                    if cof not in seen:
                        seen.add(cof)
                        stack.append(cof)
            flags.append(up_ok)
            removed.add(sid)
        removed.add(tid)
    return flags


def reversed_complex(X) -> DeltaComplex:
    """The reversed word's complex from a word's, same cell ids: deletion
    position i of a d-cell becomes d - i, so labels and face tuples
    reverse."""
    return DeltaComplex(
        {c: fs[::-1] for c, fs in X.faces.items()},
        {c: u[::-1] for c, u in X.labels.items()},
    )


def skeleton_for_matching(X, matching) -> DeltaComplex:
    """X less the critical cells of a matching, as a complex of its own."""
    return without(X, (X.id_of_label[c] for c in matching.critical))


def locality_by_covers(X, matching) -> bool:
    """Every cover of a lower cell sigma is its partner, another lower cell,
    or an upper cell whose partner precedes sigma in the presentation order
    (the left-shifted tuple, zero for the empty cell); read from the covers
    of each lower cell, whatever the order of the pairs."""
    rf = reduced_form(matching.word)

    def pres(u: Word) -> tuple[int, ...]:
        return (0,) * len(rf) if not u else left_shifted(rf, u)

    lower = {s for s, _ in matching.pairs}
    lower_of = {t: s for s, t in matching.pairs}
    slots = coface_slots(X)
    for s, t in matching.pairs:
        covers = X.cells(0) if not s else [c for c, _ in slots[X.id_of_label[s]]]
        for c in covers:
            label = X.labels[c]
            if label == t or label in lower:
                continue
            partner = lower_of.get(label)
            if partner is None or not pres(partner) < pres(s):
                return False
    return True


def reduce_to_core_by_subcomplexes(X) -> morse.ReductionTrace:
    """The reduction that makes a new complex at every step: without after
    a delete or contract step, the reversed complex after a flip, each order
    checked on the complex in hand with nothing counted as collapsed."""
    word = current = X.labels[X.cells(X.dim)[0]]
    steps = []
    while (step := morse.reduce_step(current)) is not None:
        if step.kind == "flip":
            X = reversed_complex(X)
        else:
            pairs = tuple(p for p in step.matching.pairs if p[0] != morse.EMPTY)
            checks = morse.validate_collapsing_order(Collapsing(X), pairs)
            if not all(c.ok for c in checks):
                raise RuntimeError(f"collapsing order invalid for {current}")
            X = without(X, (X.id_of_label[u] for pair in pairs for u in pair))
            if set(X.id_of_label) != distinct_subwords(step.after):
                raise RuntimeError(
                    f"removed cells of {current} do not leave {step.after}"
                )
        steps.append(step)
        current = step.after
    return morse.ReductionTrace(word, tuple(steps), current)
