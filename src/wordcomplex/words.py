"""Word combinatorics: canonical forms, subwords, classification, and
exponent-tuple presentations.

A word is a tuple of small integer letters. Canonical words use letters
0, 1, 2, ... in order of first occurrence; everything downstream (complex
construction, homology, matchings) only depends on the induced partition
of positions, so canonical renaming is lossless. Distinct subwords are
listed, counted by length and signed-summed on one next-occurrence
automaton of the word. The one walk that lists them (subword_levels) goes
one length at a time, so the subwords come out in the (length, lex) order
that numbers the cells, each with the index of its prefix in the level
before; subwords_in_order and complexes.build are its two readers. The
paper's other presentation routes (every presentation of a subword, the
left-, right- and p-shifted ones, arrows and heights) are second routes of
the tests, in tests/reference.py.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

Word = tuple[int, ...]
ExpPresentation = tuple[int, ...]

_A = ord("a")


def parse_word(text: str) -> Word:
    """Parse an ASCII word over a-z into letter ids (a=0, b=1, ...)."""
    for ch in text:
        if not ("a" <= ch <= "z"):
            raise ValueError(f"invalid letter {ch!r}: words are written over a-z")
    return tuple(ord(ch) - _A for ch in text)


def format_word(word: Word) -> str:
    """Render letter ids as an ASCII string; ids must fit in a-z."""
    if any(a < 0 or a > 25 for a in word):
        raise ValueError("can only format letter ids in 0..25")
    return "".join(chr(_A + a) for a in word)


def canonicalize(word: Word) -> Word:
    """Rename letters to 0, 1, 2, ... by first occurrence."""
    table: dict[int, int] = {}
    out = []
    for a in word:
        if a not in table:
            table[a] = len(table)
        out.append(table[a])
    return tuple(out)


@dataclass(frozen=True)
class ReducedForm:
    """Run-length encoding of a word; adjacent runs carry distinct letters."""

    runs: tuple[tuple[int, int], ...]  # (letter, exponent), every exponent >= 1

    @property
    def exponents(self) -> tuple[int, ...]:
        return tuple(e for _, e in self.runs)

    def __len__(self) -> int:
        return len(self.runs)

    def expand_presentation(self, beta: ExpPresentation) -> Word:
        """The subword a_1^{b_1} ... a_t^{b_t} named by an exponent tuple."""
        if len(beta) != len(self.runs):
            raise ValueError("exponent tuple length must match the number of runs")
        return tuple(a for (a, _), b in zip(self.runs, beta) for _ in range(b))


def reduced_form(word: Word) -> ReducedForm:
    if not word:
        raise ValueError("empty word has no reduced form")
    runs: list[tuple[int, int]] = []
    for a in word:
        if runs and runs[-1][0] == a:
            runs[-1] = (a, runs[-1][1] + 1)
        else:
            runs.append((a, 1))
    return ReducedForm(tuple(runs))


def _next_occurrence(word: Word) -> list[dict[int, int]]:
    """The subsequence automaton: nxt[i][a] is the first position j >= i
    holding letter a, for i = 0..len(word). Reading a from state i moves to
    state nxt[i][a] + 1, so each distinct subword is one path from state 0,
    along its leftmost embedding."""
    nxt: list[dict[int, int]] = [{}]
    for i in range(len(word) - 1, -1, -1):
        row = dict(nxt[-1])
        row[word[i]] = i
        nxt.append(row)
    nxt.reverse()
    return nxt


def subword_levels(word: Word) -> Iterator[list[tuple[Word, int, int]]]:
    """The distinct nonempty subwords, one level per length 1, 2, ..., each
    level in lex order, as (u, state, p) triples: state is one past the end
    of u's leftmost embedding, and p is the index of u[:-1] in the level
    before (0 for a letter, whose prefix is the empty word).

    The subsequence automaton is walked one length at a time, each state's
    letters in sorted order. A subword is one path from state 0, and a level
    in lex order extends to the next level in lex order, so nothing is
    sorted, and the work is proportional to the subwords, not to the 2^n
    position subsets. Both readers take their order from this walk:
    subwords_in_order lists it, and build numbers its cells by it and grows
    each cell's faces from those of its prefix p.
    """
    moves = [  # per state: (one-letter word, next state), by letter
        [((a,), j + 1) for a, j in sorted(row.items())]
        for row in _next_occurrence(word)
    ]
    level: list[tuple[Word, int, int]] = [((), 0, 0)]
    while level := [
        (u + a, j, p) for p, (u, i, _) in enumerate(level) for a, j in moves[i]
    ]:
        yield level


def subwords_in_order(word: Word) -> list[Word]:
    """All distinct nonempty subwords, by length and then lexicographically:
    subword_levels flattened, the order in which build numbers the cells."""
    found: list[Word] = []
    for level in subword_levels(word):
        found += [u for u, _, _ in level]
    return found


def distinct_subwords(word: Word) -> frozenset[Word]:
    """All distinct nonempty subwords; these index the cells of the complex."""
    return frozenset(subwords_in_order(word))


def subword_counts(word: Word) -> tuple[int, ...]:
    """Distinct subwords by length 1..n, the f-vector of the complex.

    Counts paths of the subsequence automaton without listing them:
    cnt[i][l], the distinct length-l subwords of word[i:], is the sum over
    letters a of cnt[nxt[i][a] + 1][l - 1]. O(n^2 * alphabet).
    """
    nxt = _next_occurrence(word)
    n = len(word)
    cnt: list[list[int]] = [[]] * n + [[1]]
    for i in range(n - 1, -1, -1):
        row = [1] + [0] * (n - i)
        for j in nxt[i].values():
            for l, c in enumerate(cnt[j + 1], 1):
                row[l] += c
        cnt[i] = row
    return tuple(cnt[0][1:])


def euler_direct(word: Word) -> int:
    """Reduced Euler characteristic as a signed count of distinct subwords.

    Each subword of length l contributes (-1)^(l+1); the empty subword
    contributes -1, so the empty word itself evaluates to -1.
    """
    counts = subword_counts(word)
    return sum(c if l % 2 else -c for l, c in enumerate(counts, 1)) - 1


def euler_recursive(word: Word) -> int:
    """Reduced Euler characteristic by the arrow recursion, memoized.

    Every arrow image of a suffix is again a suffix, so memoizing on the
    suffix start index makes this O(length^2).
    """
    n = len(word)
    memo: dict[int, int] = {n: -1}

    def value(start: int) -> int:
        if start in memo:
            return memo[start]
        acc = 0
        seen: set[int] = set()
        for j in range(start, n):
            a = word[j]
            if a not in seen:
                seen.add(a)
                acc += value(j + 1)
        memo[start] = -acc - 1
        return memo[start]

    return value(0)


@dataclass(frozen=True)
class WordClassification:
    """Circular/spherical/conical structure of a word.

    A spherical word carries its unique factorization into circular words;
    a non-spherical word splits as (spherical prefix) + (conical tail).
    """

    is_circular: bool
    is_conical: bool
    is_spherical: bool
    circular_factors: tuple[Word, ...]
    spherical_prefix: Optional[Word]
    conical_tail: Optional[Word]


def classify(word: Word) -> WordClassification:
    """Greedy left-to-right factorization into circular words.

    Each factor runs from the current first letter to its next occurrence;
    if some first letter never recurs the remainder is the conical tail.
    """
    factors: list[Word] = []
    rest = word
    while rest:
        a = rest[0]
        try:
            j = rest.index(a, 1)
        except ValueError:
            break
        factors.append(rest[: j + 1])
        rest = rest[j + 1 :]
    spherical = not rest
    return WordClassification(
        is_circular=spherical and len(factors) == 1,
        is_conical=bool(word) and word[0] not in word[1:],
        is_spherical=spherical,
        circular_factors=tuple(factors) if spherical else (),
        spherical_prefix=None if spherical else word[: len(word) - len(rest)],
        conical_tail=None if spherical else rest,
    )


def fundamental_subword(word: Word) -> Word:
    """Squared first letters of the circular factors, in order."""
    cls = classify(word)
    if not cls.is_spherical:
        raise ValueError("only spherical words have a fundamental subword")
    return tuple(a for f in cls.circular_factors for a in (f[0], f[0]))


@dataclass(frozen=True)
class HomotopyType:
    sphere_dim: Optional[int]  # None for a contractible type

    def __str__(self) -> str:
        if self.sphere_dim is None:
            return "contractible"
        return f"S^{self.sphere_dim}"


def predict_homotopy(word: Word) -> HomotopyType:
    """Sphere of dimension 2q-1 for a spherical word with q circular factors,
    contractible otherwise."""
    if not word:
        raise ValueError("the empty word has no complex to classify")
    cls = classify(word)
    if cls.is_spherical:
        return HomotopyType(2 * len(cls.circular_factors) - 1)
    return HomotopyType(None)


def is_decomposable(word: Word) -> Optional[tuple[Word, Word]]:
    """Leftmost split into two factors with disjoint supports, if any."""
    for i in range(1, len(word)):
        if not (set(word[:i]) & set(word[i:])):
            return word[:i], word[i:]
    return None


def enumerate_canonical_words(
    max_len: int, max_alphabet: int, dedup_reversal: bool = False
) -> Iterator[Word]:
    """Every canonical word of length 1..max_len over at most max_alphabet
    letters, in (length, lex) order.

    With dedup_reversal, a word is skipped when the canonical form of its
    reversal is lexicographically smaller, keeping one representative per
    reversal class.
    """
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    if max_alphabet < 1:
        raise ValueError("max_alphabet must be at least 1")

    def rgs(prefix: list[int], used: int, length: int) -> Iterator[Word]:
        if len(prefix) == length:
            yield tuple(prefix)
            return
        for a in range(min(used + 1, max_alphabet)):
            prefix.append(a)
            yield from rgs(prefix, max(used, a + 1), length)
            prefix.pop()

    for length in range(1, max_len + 1):
        for w in rgs([], 0, length):
            if dedup_reversal and canonicalize(w[::-1]) < w:
                continue
            yield w


def canonical_word_count(length: int, max_alphabet: int) -> int:
    """The number of canonical words of the given length over at most
    max_alphabet letters, as enumerate_canonical_words lists them without
    dedup_reversal, by arithmetic: a canonical word is a partition of its
    positions into at most max_alphabet letters, so the count is the sum of
    the Stirling numbers of the second kind S(length, j), j <= max_alphabet."""
    k = min(length, max_alphabet)
    s = [1] + [0] * k  # S(n, j) for j = 0..k, from n = 0
    for _ in range(length):
        s = [0] + [j * s[j] + s[j - 1] for j in range(1, k + 1)]
    return sum(s)


def reversal_representative(word: Word) -> Word:
    """Canonical representative of the word up to renaming and reversal."""
    w = canonicalize(word)
    return min(w, canonicalize(w[::-1]))


def xi(n: int) -> int:
    """Parity flip: n+1 for even n, n-1 for odd n. An involution."""
    if n < 0:
        raise ValueError("xi is defined on nonnegative integers")
    return n + 1 if n % 2 == 0 else n - 1
