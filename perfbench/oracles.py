"""Correctness oracles, computed apart from the program.

Nothing here imports `wordcomplex`: words are plain strings and outputs are
the JSON the program prints. Each checker returns a list of problems; an
empty list means the output is right. The benchmark runs them after the
timed region.
"""

from __future__ import annotations

import itertools
from functools import lru_cache


@lru_cache(maxsize=None)
def f_vector(word: str) -> tuple[int, ...]:
    """Distinct nonempty subwords counted by length, by brute force.

    The set of subwords of w + c is the set of w plus every one of them
    extended by c, so the closure below enumerates every distinct subword
    exactly once.
    """
    found = {""}
    for c in word:
        found |= {u + c for u in found}
    counts = [0] * len(word)
    for u in found:
        if u:
            counts[len(u) - 1] += 1
    return tuple(counts)


def reduced_euler(word: str) -> int:
    """The signed count of distinct subwords, the empty one counting -1."""
    return sum((-1) ** d * f for d, f in enumerate(f_vector(word))) - 1


def predicted(word: str) -> str:
    """The paper's theorem: S^(2q-1) when the word splits greedily into q
    factors that each start and end with the same letter, else contractible."""
    q = 0
    i = 0
    while i < len(word):
        j = word.find(word[i], i + 1)
        if j < 0:
            return "contractible"
        q += 1
        i = j + 1
    return f"S^{2 * q - 1}"


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind by its recurrence."""
    row = [1] + [0] * k  # S(0, j)
    for _ in range(n):
        row = [0] + [j * row[j] + row[j - 1] for j in range(1, k + 1)]
    return row[k]


def canonical_word_count(max_len: int, alphabet: int) -> int:
    return sum(
        stirling2(n, k) for n in range(1, max_len + 1) for k in range(1, alphabet + 1)
    )


@lru_cache(maxsize=None)
def canonical_words(max_len: int, alphabet: int) -> tuple[str, ...]:
    """Words whose letters first occur in the order a, b, c, ..., in
    (length, lexicographic) order, by filtering every string."""
    out = []
    letters = "abcdefghijklmnopqrstuvwxyz"[:alphabet]
    for n in range(1, max_len + 1):
        for w in itertools.product(letters, repeat=n):
            firsts = "".join(dict.fromkeys(w))
            if firsts == letters[: len(firsts)]:
                out.append("".join(w))
    return tuple(out)


def homology_problems(groups: list[dict], prediction: str) -> list[str]:
    """The theorem as a property: no torsion, and either every group is zero
    or there is one Z in an odd dimension, agreeing with the prediction."""
    problems = []
    if any(g["torsion"] for g in groups):
        problems.append("torsion in reduced homology")
    free = [(g["dim"], g["betti"]) for g in groups if g["betti"]]
    if not free:
        seen = "contractible"
    elif len(free) == 1 and free[0][1] == 1 and free[0][0] % 2 == 1:
        seen = f"S^{free[0][0]}"
    else:
        seen = f"homology {free}"
    if seen != prediction:
        problems.append(f"homology reads {seen}, the theorem says {prediction}")
    return problems


def check_homology(word: str, payload: dict) -> list[str]:
    """`wordcomplex homology --json` on one word."""
    problems = []
    if payload.get("word") != word:
        problems.append(f"word {payload.get('word')!r} is not {word!r}")
    groups = payload.get("groups", [])
    if [g["dim"] for g in groups] != list(range(len(word))):
        problems.append("groups do not cover dimensions 0..n-1")
    if payload.get("predicted") != predicted(word):
        problems.append(f"predicted {payload.get('predicted')} is not {predicted(word)}")
    problems += homology_problems(groups, predicted(word))
    euler = sum((-1) ** g["dim"] * g["betti"] for g in groups)
    if euler != reduced_euler(word):
        problems.append(f"Euler characteristic {euler} is not {reduced_euler(word)}")
    return problems


def check_analyze(word: str, payload: dict) -> list[str]:
    """`wordcomplex analyze --json` on one word."""
    want = {
        "word": word,
        "length": len(word),
        "support": len(set(word)),
        "f_vector": list(f_vector(word)),
        "euler": reduced_euler(word),
        "homotopy": predicted(word),
    }
    problems = [
        f"{key} reads {payload.get(key)!r}, expected {value!r}"
        for key, value in want.items()
        if payload.get(key) != value
    ]
    spherical = predicted(word) != "contractible"
    if payload.get("classification", {}).get("spherical") != spherical:
        problems.append("spherical flag disagrees with the factorization")
    if want["euler"] != (-1 if spherical else 0):
        problems.append("Euler characteristic disagrees with the theorem")
    return problems


def check_sweep(report: dict, max_len: int, alphabet: int) -> list[str]:
    """`verify.sweep(max_len, alphabet)` as its JSON report."""
    problems = []
    rows = report.get("rows", [])
    count = canonical_word_count(max_len, alphabet)
    if report.get("words") != count or len(rows) != count:
        problems.append(f"{len(rows)} rows, {count} canonical words")
    if tuple(r["word"] for r in rows) != canonical_words(max_len, alphabet):
        problems.append("rows are not the canonical words in order")
    if not report.get("ok") or report.get("failures"):
        problems.append(f"sweep reports failures {report.get('failures')}")
    for r in rows:
        w = r["word"]
        bad = [c for c, v in r["checks"].items() if v not in ("pass", "skip")]
        if bad:
            problems.append(f"{w}: checks {bad} failed")
        if tuple(r["f_vector"]) != f_vector(w):
            problems.append(f"{w}: f-vector {r['f_vector']} is not {list(f_vector(w))}")
        if r["euler"] != reduced_euler(w):
            problems.append(f"{w}: Euler characteristic {r['euler']}")
        if r["predicted"] != predicted(w):
            problems.append(f"{w}: predicted {r['predicted']}")
        problems += [f"{w}: {p}" for p in homology_problems(r["homology"], predicted(w))]
    return problems

