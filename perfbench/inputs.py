"""Seeded inputs of the benchmark's workloads.

Every workload is a closed loop of one caller that repeats the same round
of operations. The seed renames letters and orders the round; it never
changes how much work a round is. Renaming keeps the alphabetical order of
the letters a word uses, so the sorted cell order, the boundary matrices
and therefore the cost of every operation are the same for every seed,
and run-to-run spread measures the machine, not the draw.
"""

from __future__ import annotations

import random
import string

DEFAULT_SEED = 1

WORKLOADS = ("sweep", "hard_homology", "long_analyze")

# verify.sweep over every canonical word of length <= 7 on <= 4 letters:
# 976 words, one sweep call per operation.
SWEEP_BOUNDS = (7, 4)

# `wordcomplex homology --json`: a few hundred to about a thousand cells,
# spheres and contractible words over 2-5 letters. Each class appears once.
HARD_WORDS = (
    "abababababab",  # 608 cells, S^7, 2 letters
    "aabbccaabbcc",  # 620 cells, S^11, 3 letters
    "aabbccddaabb",  # 704 cells, S^11, 4 letters
    "abcdeedcba",  # 682 cells, S^1, 5 letters
    "abcdbeabdb",  # 752 cells, S^3, 5 letters
    "aabcbaadbcd",  # 824 cells, S^7, 4 letters
    "abcabcabca",  # 599 cells, contractible, 3 letters
    "abcdabcda",  # 431 cells, contractible, 4 letters
    "abcdbcadcb",  # 779 cells, contractible, 4 letters
    "abcdedcbab",  # 745 cells, contractible, 5 letters
    "abcdeabcde",  # 943 cells, contractible, 5 letters
)

# `wordcomplex analyze --json --force` on 14-18 letters, three kinds by the
# share of the 2^n - 1 position masks that yield a new subword. Four words
# of similar cost sit in the middle, so the median operation is not one
# word's few samples.
LONG_WORDS = (
    "aaaaaaaaaaaaaaaa",  # power of one letter: 16 of 65,535 masks
    "aaaaaaaaaaaaaaaaaa",  # power of one letter: 18 of 262,143 masks
    "aabbaabbaabbaabb",  # repetitive: 1,968 of 65,535 masks
    "aabbccaabbccaabb",  # repetitive: 4,980 of 65,535 masks
    "abababababababab",  # repetitive: 4,179 of 65,535 masks
    "abcabcabcabcabca",  # repetitive: 23,248 of 65,535 masks
    "aabbaabbaabbaabbaa",  # repetitive: 4,754 of 262,143 masks
    "abcdefghijklmn",  # distinct letters: 16,383 of 16,383 masks
    "abcdefghijklmnop",  # distinct letters: 65,535 of 65,535 masks
)


def rename(word: str, rng: random.Random) -> str:
    """Map the word's letters to a random set of letters, keeping their order."""
    used = sorted(set(word))
    target = sorted(rng.sample(string.ascii_lowercase, len(used)))
    table = dict(zip(used, target))
    return "".join(table[c] for c in word)


def round_words(workload: str, seed: int) -> list[str]:
    """The words of one round, renamed and ordered by the seed."""
    base = {"hard_homology": HARD_WORDS, "long_analyze": LONG_WORDS}[workload]
    rng = random.Random(seed)
    out = [rename(w, rng) for w in base]
    rng.shuffle(out)
    return out
