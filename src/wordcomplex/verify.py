"""Exhaustive desk-scale verification sweeps.

Every canonical word within the bounds is pushed through all independent
computation routes, and every cross-check lands in a deterministic report:
failures are data, not exceptions, so a single run surfaces every witness.
The cross-checks are the table LAWS; one that raises ValueError,
RuntimeError or ArithmeticError fails, and its message becomes a note.
The words are independent, so a large sweep examines them in a pool of
forked worker processes, one per CPU the process may run on, and merges
the rows back in canonical order: the report does not depend on how many
workers there were.
"""

from __future__ import annotations

import csv
import io
import os
from dataclasses import dataclass
from functools import cached_property

from . import complexes, homology, morse, words
from .words import Word, format_word

PASS, FAIL, SKIP = "pass", "fail", "skip"


@dataclass(frozen=True)
class WordReport:
    """One row of a sweep report; its fields are the row's keys in
    report.json, in the order of sweep.schema.json."""

    word: str
    f_vector: tuple[int, ...]
    euler: int
    spherical: bool
    circular: bool
    factors: int
    predicted: str
    homology: tuple[tuple[int, tuple[int, ...]], ...]  # HomologyProfile.groups
    checks: dict[str, str]
    notes: tuple[str, ...]


# The leading columns of report.csv; one column per law of LAWS follows.
CSV_FIELDS = ("word", "f_vector", "euler", "spherical", "circular", "factors", "predicted")


def _csv_cell(value):
    if isinstance(value, tuple):  # the f-vector
        return " ".join(str(x) for x in value)
    return int(value) if isinstance(value, bool) else value


@dataclass(frozen=True)
class SweepReport:
    max_len: int
    max_alphabet: int
    rows: tuple[WordReport, ...]
    failures: tuple[tuple[str, str], ...]

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "max_len": self.max_len,
            "max_alphabet": self.max_alphabet,
            "words": len(self.rows),
            "ok": self.ok,
            "failures": [{"word": w, "check": c} for w, c in self.failures],
            "rows": [
                {**vars(r), "homology": homology.HomologyProfile(r.homology).to_json()}
                for r in self.rows
            ],
        }

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(CSV_FIELDS + CHECK_NAMES)
        for r in self.rows:
            writer.writerow(
                [_csv_cell(getattr(r, name)) for name in CSV_FIELDS]
                + [r.checks[name] for name in CHECK_NAMES]
            )
        return out.getvalue()


class _Word:
    """One word, the values its laws share, each computed once, and the
    verdicts and notes so far. Each method is a law of LAWS. The chain data
    and its profile are computed by the first law that reads them, so an
    error there fails each law that reads them, not the sweep."""

    def __init__(self, word: Word):
        self.word = word
        self.X = X = complexes.build(word)
        self.cls = cls = words.classify(word)
        self.predicted = words.predict_homotopy(word)
        self.exponents = words.reduced_form(word).exponents
        self.eulers = (
            words.euler_direct(word),
            words.euler_recursive(word),
            X.reduced_euler(),
            -1 if cls.is_spherical else 0,
        )
        self.checks: dict[str, str] = {}
        self.notes: list[str] = []

    @cached_property
    def data(self) -> list[tuple[list[homology.Column], homology.SmithNormalForm]]:
        return homology.chain_data(self.X)

    @cached_property
    def profile(self) -> homology.HomologyProfile:
        return homology.profile_of(self.data)

    def valid(self) -> bool:
        self.X.validate()
        return True

    def eulers_agree(self) -> bool:
        if len(set(self.eulers)) == 1:
            return True
        self.notes.append(
            "euler: direct {}, recursive {}, f-vector {}, theorem {}".format(*self.eulers)
        )
        return False

    def composes(self) -> bool:
        homology.check_composition(self.data)
        return True

    def certified(self) -> bool:
        if self.checks[_COMPOSITION] == FAIL:  # the certificates rely on it
            return False
        homology.check_certificates(self.data)
        return True

    def matches_prediction(self) -> bool:
        if self.predicted.sphere_dim is None:
            return self.profile.is_trivial()
        return self.profile.sphere_dimension() == self.predicted.sphere_dim

    def h1(self) -> bool:
        want = 1 if self.cls.is_circular else 0
        return self.profile.betti(1) == want and not self.profile.torsion(1)

    def matching_valid(self) -> bool | None:
        if not all(e % 2 == 0 for e in self.exponents[:-1]):
            return None
        matching = morse.full_matching(self.word)
        rep = morse.matching_report(self.X, matching)
        # the critical cells must sit in the degrees of the Betti numbers,
        # which the homology computes with no matching
        betti = [n for n, (b, _) in enumerate(self.profile.groups) for _ in range(b)]
        dims = sorted(len(c) - 1 for c in matching.critical)
        ok = all(rep.values()) and dims == betti
        if not ok:
            self.notes.append(f"matching {rep}, critical in dimensions {dims}, Betti in {betti}")
        return ok

    def reduces_to_core(self) -> bool:
        terminal = morse.reduce_to_core(self.X).terminal
        if self.cls.is_spherical:
            return terminal == words.fundamental_subword(self.word)
        return len(terminal) == 1

    def pseudomanifold(self) -> bool:
        want = all(e == 2 for e in self.exponents)
        return complexes.is_pseudomanifold(self.X) == want

    def no_free_pair(self) -> bool | None:
        if not all(e >= 2 for e in self.exponents):
            return None
        return not complexes.free_pairs(self.X)


# The laws in report order; each returns True (pass), False (fail) or None
# (skip: the law does not apply to the word).
_COMPOSITION = "boundary_squares_to_zero"
LAWS = (
    ("functoriality", _Word.valid),
    ("euler_agreement", _Word.eulers_agree),
    (_COMPOSITION, _Word.composes),
    ("snf_certificates", _Word.certified),
    ("torsion_free", lambda w: not w.profile.has_torsion()),
    ("homotopy_match", _Word.matches_prediction),
    ("h1_law", _Word.h1),
    ("matching_law", _Word.matching_valid),
    ("reduction_law", _Word.reduces_to_core),
    ("pseudomanifold_law", _Word.pseudomanifold),
    ("free_pair_law", _Word.no_free_pair),
)
CHECK_NAMES = tuple(name for name, _ in LAWS)


def examine_word(word: Word) -> WordReport:
    """Run every law of LAWS on one word, in report order. A law that
    raises ValueError, RuntimeError or ArithmeticError (the errors
    `cli.main` turns into exit 1) fails, and its message becomes a note,
    once: a shared value that raises fails every law that reads it. The
    row's homology is then empty."""
    w = _Word(word)
    for name, law in LAWS:
        try:
            ok = law(w)
        except (ValueError, RuntimeError, ArithmeticError) as exc:
            ok = False
            if str(exc) not in w.notes:
                w.notes.append(str(exc))
        w.checks[name] = SKIP if ok is None else PASS if ok else FAIL
    profile = vars(w).get("profile")  # absent when it raised
    return WordReport(
        format_word(word), w.X.f_vector(), w.eulers[0], w.cls.is_spherical,
        w.cls.is_circular, len(w.cls.circular_factors), str(w.predicted),
        profile.groups if profile else (), w.checks, tuple(w.notes),
    )


# Fewest words a sweep hands to a worker pool; see `sweep`.
POOL_MIN_WORDS = 100
# Chunks of words per worker. The words grow longer, and slower, in
# canonical order, so the last chunks must be small enough to share out;
# sweep(7, 4) took 0.96 s with 16, against 1.01 s with 4 and 1.05 s with
# 64 (forked pool, median of 7).
CHUNKS_PER_WORKER = 16


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def sweep(max_len: int, max_alphabet: int, dedup_reversal: bool = False) -> SweepReport:
    """Examine every canonical word within the bounds, in canonical order.

    With more than one usable CPU and at least POOL_MIN_WORDS words, the
    words are examined by one forked worker process per CPU; otherwise,
    or where the platform cannot fork, in this process (`taskset -c 0`
    forces that). Either way the rows come back in canonical order, so
    the report is the same. Forking the pool costs about 0.01 s, so it
    pays from a few dozen words a worker: on a 2-core host (Python 3.11,
    medians of 7 to 9 interleaved runs), sweep(5, 4), 74 words, took
    0.05-0.06 s either way, sweep(7, 2), 127 words, 0.15 s in-process
    against 0.10 s pooled, and sweep(6, 4), 261 words, 0.32 s against
    0.20 s; hence a threshold a little above the tie. sweep(7, 4), 976
    words, took 2.1 s against 1.1 s.

    The workers inherit this process as it stands: the imported modules,
    any function patched in them and the caller's main module, with
    nothing imported or run again. Forking copies only the calling
    thread, and a lock that another thread held at the fork stays held in
    the worker, so call `sweep` from a process's only thread, as the CLI
    does. The pool adds no thread before it forks: Python 3.11 starts
    every worker before the pool's manager thread. No worker outlives the
    call, whether it returns or raises.
    """
    todo = list(words.enumerate_canonical_words(max_len, max_alphabet, dedup_reversal))
    workers = usable_cpus()
    if workers == 1 or len(todo) < POOL_MIN_WORDS or not hasattr(os, "fork"):
        rows = [examine_word(w) for w in todo]
    else:
        # imported here only: `cli` imports this module for every command
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        fork = multiprocessing.get_context("fork")
        chunksize = max(1, len(todo) // (CHUNKS_PER_WORKER * workers))
        with ProcessPoolExecutor(workers, mp_context=fork) as pool:
            rows = list(pool.map(examine_word, todo, chunksize=chunksize))
    failures = [
        (row.word, name)
        for row in rows
        for name in CHECK_NAMES
        if row.checks.get(name) == FAIL
    ]
    return SweepReport(max_len, max_alphabet, tuple(rows), tuple(failures))


# ---------------------------------------------------------------------------
# The published tables of indecomposable words


TABLE_LENGTH_AT_MOST_4 = (
    "a",
    "aa",
    "aaa",
    "aba",
    "aaaa",
    "abaa",
    "abab",
    "abba",
    "abca",
)

TABLE_LENGTH_5 = (
    "aaaaa",
    "abaaa",
    "aabaa",
    "ababb",
    "abbab",
    "abbba",
    "abbaa",
    "ababa",
    "abcaa",
    "abaca",
    "abacb",
    "abbca",
    "abcda",
)


@dataclass(frozen=True)
class TablesReport:
    found_le_4: tuple[str, ...]
    found_5: tuple[str, ...]
    ok_le_4: bool
    ok_5: bool
    unlisted_5: tuple[str, ...]  # enumerated classes absent from the table
    missing_5: tuple[str, ...]  # table entries the enumeration never finds

    @property
    def ok(self) -> bool:
        return self.ok_le_4 and self.ok_5

    def to_json(self) -> dict:
        return {
            "length_at_most_4": {
                "count": len(self.found_le_4),
                "expected_count": len(TABLE_LENGTH_AT_MOST_4),
                "words": list(self.found_le_4),
                "ok": self.ok_le_4,
            },
            "length_5": {
                "count": len(self.found_5),
                "expected_count": len(TABLE_LENGTH_5),
                "words": list(self.found_5),
                "ok": self.ok_5,
                "unlisted": list(self.unlisted_5),
                "missing": list(self.missing_5),
            },
            "ok": self.ok,
        }


def _reversal_reps(texts: tuple[str, ...]) -> set[Word]:
    return {words.reversal_representative(words.parse_word(t)) for t in texts}


def check_tables() -> TablesReport:
    """Compare the enumerated indecomposable words, up to renaming and
    reversal, against the published tables.

    The exhaustive enumeration finds 15 classes of length 5, two more than
    the published list of 13: abcab and abcba are indecomposable (the first
    and last letters force every split to share a letter) yet appear in
    neither the table nor any reversal class of its entries. The report
    carries the difference so the discrepancy is visible, not silently
    absorbed.
    """
    # a canonical word of length <= 4 uses at most 4 letters, so the one
    # enumeration lists the shorter words as a (4, 4) enumeration would
    found = [
        w
        for w in words.enumerate_canonical_words(5, 5, dedup_reversal=True)
        if words.is_decomposable(w) is None
    ]
    found_le_4 = tuple(w for w in found if len(w) <= 4)
    found_5 = tuple(w for w in found if len(w) == 5)
    # every enumerated word is already its own reversal representative
    table_5 = _reversal_reps(TABLE_LENGTH_5)
    unlisted = tuple(format_word(w) for w in sorted(set(found_5) - table_5))
    missing = tuple(format_word(w) for w in sorted(table_5 - set(found_5)))
    return TablesReport(
        tuple(format_word(w) for w in found_le_4),
        tuple(format_word(w) for w in found_5),
        set(found_le_4) == _reversal_reps(TABLE_LENGTH_AT_MOST_4)
        and len(found_le_4) == len(TABLE_LENGTH_AT_MOST_4),
        not unlisted and not missing and len(found_5) == len(TABLE_LENGTH_5),
        unlisted,
        missing,
    )
