"""Word combinatorics: canonical forms, subwords, classification, and
exponent-tuple presentations.

A word is a tuple of small integer letters. Canonical words use letters
0, 1, 2, ... in order of first occurrence; everything downstream (complex
construction, homology, matchings) only depends on the induced partition
of positions, so canonical renaming is lossless. Distinct subwords are
listed, counted by length and signed-summed on one next-occurrence
automaton of the word.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    exponents: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "exponents", tuple(e for _, e in self.runs))

    @classmethod
    def from_word(cls, word: Word) -> "ReducedForm":
        if not word:
            raise ValueError("empty word has no reduced form")
        runs: list[tuple[int, int]] = []
        for a in word:
            if runs and runs[-1][0] == a:
                runs[-1] = (a, runs[-1][1] + 1)
            else:
                runs.append((a, 1))
        return cls(tuple(runs))

    def __len__(self) -> int:
        return len(self.runs)

    def expand(self) -> Word:
        return tuple(a for a, e in self.runs for _ in range(e))

    def expand_presentation(self, beta: ExpPresentation) -> Word:
        """The subword a_1^{b_1} ... a_t^{b_t} named by an exponent tuple."""
        if len(beta) != len(self.runs):
            raise ValueError("exponent tuple length must match the number of runs")
        return tuple(a for (a, _), b in zip(self.runs, beta) for _ in range(b))


def reduced_form(word: Word) -> ReducedForm:
    return ReducedForm.from_word(word)


def arrow(word: Word, a: int) -> Word:
    """Suffix of the word strictly after the leftmost occurrence of a."""
    try:
        i = word.index(a)
    except ValueError:
        raise ValueError(f"letter {a} does not occur in the word") from None
    return word[i + 1 :]


def arrow_chain(word: Word, v: Word) -> Word:
    """Left fold of arrow over the letters of v."""
    for a in v:
        word = arrow(word, a)
    return word


def is_subword(u: Word, w: Word) -> bool:
    """True when u embeds in w as a subsequence (greedy two-pointer)."""
    i = 0
    for a in w:
        if i < len(u) and u[i] == a:
            i += 1
    return i == len(u)


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


def distinct_subwords(word: Word) -> frozenset[Word]:
    """All distinct nonempty subwords; these index the cells of the complex.

    A depth-first walk of the subsequence automaton meets each subword
    once, so the work is proportional to the subwords, not to the 2^n
    position subsets.
    """
    nxt = _next_occurrence(word)
    found: list[Word] = []
    stack: list[tuple[Word, int]] = [((), 0)]
    while stack:
        prefix, i = stack.pop()
        for a, j in nxt[i].items():
            u = prefix + (a,)
            found.append(u)
            stack.append((u, j + 1))
    return frozenset(found)


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

    word: Word
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
        word=word,
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
    kind: str  # "contractible" or "sphere"
    sphere_dim: Optional[int] = None

    @classmethod
    def contractible(cls) -> "HomotopyType":
        return cls("contractible")

    @classmethod
    def sphere(cls, dim: int) -> "HomotopyType":
        return cls("sphere", dim)

    def __str__(self) -> str:
        if self.kind == "sphere":
            return f"S^{self.sphere_dim}"
        return "contractible"


def predict_homotopy(word: Word) -> HomotopyType:
    """Sphere of dimension 2q-1 for a spherical word with q circular factors,
    contractible otherwise."""
    if not word:
        raise ValueError("the empty word has no complex to classify")
    cls = classify(word)
    if cls.is_spherical:
        return HomotopyType.sphere(2 * len(cls.circular_factors) - 1)
    return HomotopyType.contractible()


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


def reversal_representative(word: Word) -> Word:
    """Canonical representative of the word up to renaming and reversal."""
    w = canonicalize(word)
    return min(w, canonicalize(w[::-1]))


# ---------------------------------------------------------------------------
# Exponential presentations of subwords


def exp_presentations(rf: ReducedForm, v: Word) -> frozenset[ExpPresentation]:
    """All exponent tuples beta <= alpha whose expansion equals v.

    Empty when v is not a subword of the expanded word.
    """
    t = len(rf.runs)
    out: set[ExpPresentation] = set()

    def rec(run: int, pos: int, acc: list[int]) -> None:
        if run == t:
            if pos == len(v):
                out.add(tuple(acc))
            return
        letter, alpha = rf.runs[run]
        take = 0
        while True:
            acc.append(take)
            rec(run + 1, pos + take, acc)
            acc.pop()
            if take == alpha or pos + take >= len(v) or v[pos + take] != letter:
                break
            take += 1

    rec(0, 0, [])
    return frozenset(out)


def left_shifted(rf: ReducedForm, v: Word) -> ExpPresentation:
    """Lex-maximal presentation of v: the greedy leftmost embedding."""
    beta = []
    pos = 0
    for letter, alpha in rf.runs:
        take = 0
        while take < alpha and pos < len(v) and v[pos] == letter:
            take += 1
            pos += 1
        beta.append(take)
    if pos != len(v):
        raise ValueError("not a subword of the given word")
    return tuple(beta)


def right_shifted(rf: ReducedForm, v: Word) -> ExpPresentation:
    """Colex-maximal presentation of v: the greedy rightmost embedding."""
    flipped = ReducedForm(tuple(reversed(rf.runs)))
    return tuple(reversed(left_shifted(flipped, v[::-1])))


def _prefix_form(rf: ReducedForm, p: int) -> ReducedForm:
    return ReducedForm(rf.runs[:p])


def _suffix_form(rf: ReducedForm, p: int) -> ReducedForm:
    return ReducedForm(rf.runs[p - 1 :])


def is_p_shifted(rf: ReducedForm, beta: ExpPresentation, p: int) -> bool:
    """Check the defining property: the first p coordinates are left-shifted
    for their own expansion and the coordinates from p on are right-shifted."""
    t = len(rf.runs)
    if not 1 <= p <= t or len(beta) != t:
        raise ValueError("index p must lie between 1 and the number of runs")
    head, tail = beta[:p], beta[p - 1 :]
    head_rf, tail_rf = _prefix_form(rf, p), _suffix_form(rf, p)
    return head == left_shifted(head_rf, head_rf.expand_presentation(head)) and (
        tail == right_shifted(tail_rf, tail_rf.expand_presentation(tail))
    )


def p_shifted(rf: ReducedForm, v: Word, p: int) -> ExpPresentation:
    """Deterministic p-shifted presentation of v.

    Start from the left-shifted presentation (whose first p coordinates are
    automatically left-shifted for their own expansion) and right-shift the
    coordinates from p on. When the result has beta_p >= 1 it is the unique
    p-shifted presentation; when beta_p = 0 it is this construction's
    representative.
    """
    t = len(rf.runs)
    if not 1 <= p <= t:
        raise ValueError("index p must lie between 1 and the number of runs")
    beta = list(left_shifted(rf, v))
    tail_rf = _suffix_form(rf, p)
    tail = right_shifted(tail_rf, tail_rf.expand_presentation(tuple(beta[p - 1 :])))
    beta[p - 1 :] = tail
    result = tuple(beta)
    if not is_p_shifted(rf, result, p):
        raise RuntimeError(f"p-shift construction failed for {rf.runs}, {v}, p={p}")
    return result


def xi(n: int) -> int:
    """Parity flip: n+1 for even n, n-1 for odd n. An involution."""
    if n < 0:
        raise ValueError("xi is defined on nonnegative integers")
    return n + 1 if n % 2 == 0 else n - 1


def height(beta: ExpPresentation, rf: ReducedForm, t: int) -> int:
    """Minimal index k in 1..t with beta_k <= alpha_k - 1, else t.

    Requires alpha_1, ..., alpha_{t-1} even and beta <= alpha coordinatewise.
    """
    alpha = rf.exponents
    if not 1 <= t <= len(alpha):
        raise ValueError("index t must lie between 1 and the number of runs")
    if any(alpha[i] % 2 for i in range(t - 1)):
        raise ValueError("exponents before index t must all be even")
    if len(beta) != len(alpha) or any(
        b < 0 or b > a for b, a in zip(beta, alpha)
    ):
        raise ValueError("beta must satisfy 0 <= beta <= alpha coordinatewise")
    for k in range(t):
        if beta[k] <= alpha[k] - 1:
            return k + 1
    return t
