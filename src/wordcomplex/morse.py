"""Collapsing matchings on word complexes.

Simplices are named by exponent tuples over the reduced form, generated
directly on the lattice of tuples below the run exponents: a run may use
fewer than all its letters only when the nearest used run towards the
anchor has another letter. Read from the last run leftward, this gives the
lex-maximal (left-shifted) tuple of each distinct subword once, and the
zero tuple names the formal empty cell of the augmented complex. For a
word whose run exponents are even before the last run, the pairing flips
the exponent at the tuple's height (the first run not used in full), and
matches everything except the top simplex when the last exponent is even.
The empty cell pairs with the first vertex, so a perfect matching means
trivial reduced homology.

Word reduction deletes one letter from the run p after the first odd
exponent; the deleted simplices are exactly those whose p-shifted tuple
uses run p in full, read outward from p in both directions, and the same
flip capped at the odd run matches them among themselves. Iterating, with
a reversal when only the last run is odd, drives every word to its
fundamental subword or to a single letter. Deletion only loses subwords
and reversal only relabels, so the reduction reads the word's built complex,
uncopied, through one live view (complexes.Collapsing) from which each
step's order check removes the matched cells: see reduce_to_core.

An alternating word, with a its first letter and b its second, collapses
by explicit rules instead (alt_partner): for every block prefix
p = (a^2 b^2)^k and every tail s, R1 pairs p+b+s with p+ab+s, R2 p+a^3+s
with p+a^2ba+s, R3 p with p+a, and R4 p+a^2 with p+a^2b. A rule applies
only when both of its cells are simplices of the word's complex, and
exactly the fundamental subword stays unmatched when 3 divides the length,
nothing otherwise. The rule pairs are read off the labels of the word's
complex and run as elementary collapses on a live view of it, by its
free-pair test: see alternating_collapse.

A valid removal order is an acyclic matching with unit incidence, which
reduces the chain complex (algebraic Morse theory), and not a sequence of
elementary collapses: see validate_collapsing_order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import gt, ne
from typing import Optional

from .complexes import Collapsing, DeltaComplex, build, incidence
from .words import (
    ExpPresentation,
    Word,
    distinct_subwords,
    format_word,
    fundamental_subword,
    reduced_form,
    xi,
)

EMPTY: Word = ()


def _word_name(u: Word) -> str:
    return format_word(u) if u else "-"


def _pairs_json(pairs: tuple[tuple[Word, Word], ...], rules: tuple[str, ...]) -> list:
    return [
        {"sigma": _word_name(s), "tau": _word_name(t), "dim": len(s) - 1, "rule": rule}
        for (s, t), rule in zip(pairs, rules)
    ]


@dataclass(frozen=True)
class Matching:
    """Dimension-adjacent pairing of simplices, plus unmatched critical ones.

    Pairs are (sigma, tau) subwords with tau one letter longer; sigma may be
    the empty tuple standing for the augmentation cell below every vertex.
    Pairs and critical cells together partition the simplices and the empty
    cell.
    """

    word: Word
    t: int  # run index the pairing flips at (1-based cap)
    # In removal order: the dimension of sigma never increases. Constructors
    # sort by descending dimension and then by the presentation tuple of
    # sigma; the tie-break matters, since a cell covering sigma can be the
    # partner of another same-dimension pair.
    pairs: tuple[tuple[Word, Word], ...]
    critical: tuple[Word, ...]

    def to_json(self) -> dict:
        return {
            "word": format_word(self.word),
            "pairs": _pairs_json(self.pairs, ("mu",) * len(self.pairs)),
            "critical": [_word_name(c) for c in self.critical],
        }


def _mu_formula(
    alpha: tuple[int, ...], h: int, beta: ExpPresentation
) -> ExpPresentation:
    """Flip the exponent at height h of beta; fill earlier runs in full."""
    flipped = xi(beta[h - 1])
    if flipped > alpha[h - 1]:
        raise ValueError("the full tuple is unmatched when the last exponent is even")
    return alpha[: h - 1] + (flipped,) + beta[h:]


def _outward(
    runs: tuple[tuple[int, int], ...], near: Optional[int]
) -> list[tuple[ExpPresentation, Word]]:
    """Exponent tuples over runs listed outward from an anchor: a run may use
    fewer than all its letters only when the nearest used run between it and
    the anchor (letter near, None while no run is used) has another letter.

    Each tuple comes with its letters, spelled in the order the runs are
    listed and grown with the tuple, so no tuple is expanded afterwards."""
    partial = [((), (), near)]
    for a, e in runs:
        blocks = [(a,) * b for b in range(e + 1)]
        partial = [
            (beta + (b,), letters + blocks[b], a if b else last)
            for beta, letters, last in partial
            for b in (range(e + 1) if a != last else (e,))
        ]
    return [(beta, letters) for beta, letters, _ in partial]


def _flip_matching(
    word: Word, alpha: tuple[int, ...], t: int, named: dict, critical: tuple
) -> Matching:
    """Pair the named cells (tuple -> cell) by the flip at their height,
    capped at run t. A lower tuple must flip to a named tuple and back, and
    the pairs and the critical tuples must cover every named tuple. Pairs
    come in removal order.

    The height of a tuple is the first run k <= t it does not use in full,
    else t. Each named tuple, critical ones included, is checked once
    against 0 <= beta <= alpha, and the first t - 1 exponents once for all
    of them; a flip image is itself named, so it is checked in its turn."""
    if not 1 <= t <= len(alpha):
        raise ValueError("index t must lie between 1 and the number of runs")
    if any(e % 2 for e in alpha[: t - 1]):
        raise ValueError("exponents before index t must all be even")

    def height_of(beta: ExpPresentation) -> int:
        for k in range(t - 1):
            if beta[k] < alpha[k]:
                return k + 1
        return t

    lower = []  # (-len(sigma), tuple, sigma, tau): removal order; tuples are unique
    for beta, u in named.items():
        if len(beta) != len(alpha) or min(beta) < 0 or any(map(gt, beta, alpha)):
            raise ValueError("beta must satisfy 0 <= beta <= alpha coordinatewise")
        if beta in critical:
            continue
        h = height_of(beta)
        if beta[h - 1] % 2:
            continue  # upper side of its pair
        tau_beta = _mu_formula(alpha, h, beta)
        tau = named.get(tau_beta)
        if tau is None:
            raise RuntimeError(f"flip of {beta} names no matched cell of {word}")
        if _mu_formula(alpha, height_of(tau_beta), tau_beta) != beta:
            raise RuntimeError(f"matching is not involutive at {beta}")
        lower.append((-len(u), beta, u, tau))
    if 2 * len(lower) + len(critical) != len(named):
        raise RuntimeError(f"matching does not partition the cells of {word}")
    lower.sort()
    pairs = tuple((u, tau) for _, _, u, tau in lower)
    return Matching(word, t, pairs, tuple(named[c] for c in critical))


def full_matching(word: Word) -> Matching:
    """Match every simplex (and the empty cell) of the word's complex.

    Needs all run exponents except possibly the last to be even. The cells
    are named by their left-shifted tuples, read from the last run leftward;
    the zero tuple names the empty cell. When the last exponent is odd the
    matching is perfect; when it is even exactly the top simplex is left
    critical.
    """
    rf = reduced_form(word)
    alpha = rf.exponents
    if any(e % 2 for e in alpha[:-1]):
        raise ValueError("all run exponents before the last must be even")
    named = {
        reading[::-1]: letters[::-1]
        for reading, letters in _outward(rf.runs[::-1], None)
    }
    critical = (alpha,) if alpha[-1] % 2 == 0 else ()
    return _flip_matching(word, alpha, len(rf), named, critical)


# ---------------------------------------------------------------------------
# Matching validity


def matching_report(X: DeltaComplex, matching: Matching) -> dict[str, bool]:
    """Partition, dimension adjacency, unit incidence and coface locality
    of a matching on X.

    The pairs and critical cells must name the cells of X and the empty
    cell, each once. The other keys are read from one order check on a view
    of X with the critical cells removed (incidence on the dimension-
    adjacent pairs, locality as upward closure), so the order is valid
    exactly when all three hold. A pair naming a critical cell or a cell
    outside X raises ValueError.

    Locality: each cover c of a lower cell sigma is its partner, a lower
    cell, or an upper cell whose partner precedes sigma in the presentation
    order (in a^2 b^2 a the upper cell aba covers the lower cell aa). For a
    dimension-adjacent partition sorted by (-dim, left-shifted tuple of
    sigma), as full_matching makes, upward closure implies it, since c was
    removed before sigma:
    - c is not critical: only the top cell can be, when every exponent is
      even, and its facets drop one letter of a run j of at least two, so
      their tuples alpha - e_j are odd at their height: upper cells.
    - If c is the upper cell of an earlier pair (rho, c), rho has the
      dimension of sigma and differs from it, so the sort puts rho first.
    """
    named = [u for pair in matching.pairs for u in pair] + list(matching.critical)
    once = len(set(named)) == len(named)
    critical = {X.id_of_label.get(c) for c in matching.critical} - {None}
    view = Collapsing(X)
    view.remove(*critical)
    checks = validate_collapsing_order(view, matching.pairs)
    return {
        "partition": once and set(named) == X.id_of_label.keys() | {EMPTY},
        "dims": all(c.dims_ok for c in checks),
        "incidence": all(c.incidence_ok for c in checks if c.dims_ok),
        "locality": all(c.upward_closed for c in checks),
    }


@dataclass(frozen=True)
class PairCheck:
    sigma: Word
    tau: Word
    dims_ok: bool
    incidence_ok: bool
    upward_closed: bool

    @property
    def ok(self) -> bool:
        return self.dims_ok and self.incidence_ok and self.upward_closed


def validate_collapsing_order(
    view: Collapsing, pairs: tuple[tuple[Word, Word], ...]
) -> tuple[PairCheck, ...]:
    """Check a removal order pair by pair on a partly collapsed complex:
    adjacent dimensions, incidence +-1, and everything above sigma already
    removed; the order is valid when every pair's check is ok. The empty
    tuple is accepted as a sigma: the augmentation cell, below every cell
    with incidence one against each vertex. Each pair's cells are removed
    from the view at its turn, whatever its verdict; a pair naming a cell
    the view has removed already, or a cell outside its complex, raises
    before any is.

    A valid order is an acyclic matching with unit incidence, not a
    sequence of elementary collapses: sigma may be a face of tau more than
    once. The dunce hat aaa passes with (aa, aaa), though all three
    deletions of aaa give aa, so that pair is no elementary collapse.

    Only direct cofaces are inspected, through the view's live slot counts:
    those of sigma must all belong to tau, and tau must have none when it
    covers sigma. While every earlier pair has passed, the removed cells
    are closed upwards, so this decides the same as a search of sigma's
    whole up-set, up to and including the first failing pair.
    """
    X, up, removed = view.X, view.up, view.removed
    ids, dim_of, faces = X.id_of_label, X.dim_of, X.faces
    resolved = []  # per pair: sigma's id (None for the empty cell), tau's id
    for s, t in pairs:
        sid = None if s == EMPTY else ids.get(s)
        tid = ids.get(t)
        absent = tid is None or sid is None and s != EMPTY
        if absent or tid in removed or sid in removed:
            raise ValueError(f"pair ({s}, {t}) names cells outside the live complex")
        resolved.append((sid, tid))
    checks = []
    for (s, t), (sid, tid) in zip(pairs, resolved):
        if sid is None:
            dims_ok = inc_ok = dim_of[tid] == 0
            up_ok = dim_of.keys() - removed <= {tid}
            view.remove(tid)
        else:
            dims_ok = dim_of[sid] == dim_of[tid] - 1
            hits = faces[tid].count(sid)  # the deletions of tau that give sigma
            # one hit is incidence +-1; more may cancel or add up
            inc_ok = dims_ok and (
                hits == 1 or hits > 1 and abs(incidence(X, sid, tid)) == 1
            )
            live_hits = 0 if tid in removed else hits
            up_ok = up[sid] == live_hits and (not hits or up[tid] == 0)
            view.remove(sid, tid)
        checks.append(PairCheck(s, t, dims_ok, inc_ok, up_ok))
    return tuple(checks)


# ---------------------------------------------------------------------------
# Word reduction


@dataclass(frozen=True)
class ReductionStep:
    kind: str  # "delete", "flip", or "contract"
    before: Word
    after: Word
    matching: Optional[Matching]


def reduce_step(word: Word) -> Optional[ReductionStep]:
    """The next step of the word's reduction, None once the word is
    terminal: its own fundamental subword (every exponent even) or a single
    letter.

    When only the last of two or more runs is odd the step flips the word,
    with no matching. A single odd run of three or more letters is stuck in
    both directions; its matching (full_matching) is perfect, so the step
    contracts it to its first letter. Otherwise the step deletes one letter
    from the run p after the first odd exponent. The removed simplices are
    exactly the subwords lost by the deletion, named by the p-shifted tuples
    that use run p in full: heads read leftward from p, tails rightward,
    every head with every tail. The flip capped at the odd run matches them
    in pairs.
    """
    rf = reduced_form(word)
    alpha = rf.exponents
    odd = next((i for i, e in enumerate(alpha) if e % 2), None)
    if odd is None or len(word) == 1:
        return None
    if odd == len(rf) - 1:
        if odd:
            return ReductionStep("flip", word, word[::-1], None)
        return ReductionStep("contract", word, word[:1], full_matching(word))
    k = odd + 1  # 1-based index of the first odd run; 0-based index of p
    letter, e = rf.runs[k]
    after = rf.expand_presentation(alpha[:k] + (e - 1,) + alpha[k + 1 :])

    tails = _outward(rf.runs[k + 1 :], letter)
    named = {}
    for head, head_letters in _outward(rf.runs[k - 1 :: -1], letter):
        front = head[::-1] + (e,)
        left = head_letters[::-1] + (letter,) * e
        for tail, tail_letters in tails:
            named[front + tail] = left + tail_letters
    return ReductionStep("delete", word, after, _flip_matching(word, alpha, k, named, ()))


@dataclass(frozen=True)
class ReductionTrace:
    word: Word
    steps: tuple[ReductionStep, ...]
    terminal: Word

    def to_json(self) -> dict:
        return {
            "word": format_word(self.word),
            "terminal": format_word(self.terminal),
            "steps": [
                {
                    "kind": s.kind,
                    "before": format_word(s.before),
                    "after": format_word(s.after),
                    # the 1-based first odd run a delete step flips at
                    "run_index": s.matching.t if s.kind == "delete" else None,
                    "matching": s.matching.to_json() if s.matching else None,
                }
                for s in self.steps
            ],
        }


@lru_cache(maxsize=256)
def _plan(word: Word) -> tuple[Optional[ReductionStep], tuple[tuple[Word, Word], ...]]:
    """What reduce_to_core needs of the word alone, kept for the distinct
    words most recently reduced: the step (through the module's
    reduce_step, so a patched one is read on every miss) and its pairs
    without the empty cell. How a complex's labels are read, forwards or
    backwards, belongs to the complex, so the caller reverses the pairs.

    The plan is verified before it is returned: the pairs' cells must be
    exactly the subwords the word loses in the step, and the shorter word's
    subwords must be the word's, or it raises. A plan that raises is not
    kept. Read with the module's own reduce_step, a plan depends on its
    word alone, so what the memo holds never changes a result.

    With 256 plans the largest sweep worker peaked at 22.5 MB on
    sweep(9, 4) and 30.5 MB on sweep(14, 2), against 21.9 and 23.1 MB with
    no memo; 1024 plans saved a few percent more of reduce_to_core on
    sweep(7, 4) and took the sweep(9, 4) worker to 30 MB."""
    step = reduce_step(word)
    if step is None or step.kind == "flip":
        return step, ()
    pairs = tuple(p for p in step.matching.pairs if p[0] != EMPTY)
    before, after = distinct_subwords(word), distinct_subwords(step.after)
    if not after <= before or {u for p in pairs for u in p} != before - after:
        raise RuntimeError(f"removed cells of {word} do not leave {step.after}")
    return step, pairs


def reduce_to_core(X: DeltaComplex) -> ReductionTrace:
    """Take reduce_step's steps from the word of a built complex, read from
    its one top cell, until the word is terminal. reduce_step decides every
    step, delete, flip or contract; this routine only checks them on X.

    The terminal word is the fundamental subword of a spherical input
    (every terminal exponent even) or a single letter otherwise.

    The reduction reads X, uncopied, through one live view for the whole
    run, and makes no complex. Each step validates its matching as a
    removal order on the view (an acyclic matching with unit incidence, see
    validate_collapsing_order), which removes the matched cells. A valid
    order removes a cell only once its cofaces are gone (bar tau for
    sigma), so the live cells stay closed under faces: they form the
    subcomplex of X without the removed cells.

    A flip keeps the view and reverses how its labels are read: a plan's
    pairs name the current word's subwords, so after an odd number of flips
    they are reversed here to be looked up in X. Reversal keeps the cell ids
    and cofaces and moves deletion i of a d-cell to d - i, changing an
    incidence only by (-1)^d, so X gives each pair the reversed complex's
    verdicts.

    The labels of X must be the subwords of the word before the first step,
    so a complex not the word's fails even with no step, and those of the
    cells the view keeps live, read backwards after an odd number of flips,
    the subwords of the shorter word after each step: a second route,
    sharing nothing with the tuples.

    The start check, the view, and the order check of every pair of every
    delete or contract step run on X at every call. What depends on the
    word alone, the step and its pairs, comes from a bounded memo of plans
    (_plan), once per distinct word while it is kept. That the live labels
    are the shorter word's subwords follows by induction over the steps:
    before the first step they are the word's subwords, by the start check,
    and a flip only changes how they are read. Plans are verified, and the
    order check removes exactly their cells (it raises before it removes
    anything if a pair names a removed cell or a cell outside X), so after
    each step the live labels are the current word's subwords less the
    pairs' cells, which are the shorter word's subwords.
    """
    top = X.cells(X.dim)
    if len(top) != 1:
        raise ValueError("a word's complex has exactly one top cell")
    word = current = X.labels[top[0]]
    if X.id_of_label.keys() != distinct_subwords(word):
        raise RuntimeError(f"the cells of the complex are not the subwords of {word}")
    view = Collapsing(X)
    backwards = False  # whether the current word reads the labels of X reversed
    steps: list[ReductionStep] = []
    while True:
        step, pairs = _plan(current)
        if step is None:
            break
        if step.kind == "flip":
            backwards = not backwards
        else:
            if backwards:
                pairs = tuple((s[::-1], t[::-1]) for s, t in pairs)
            bad = [c for c in validate_collapsing_order(view, pairs) if not c.ok]
            if bad:
                raise RuntimeError(f"collapsing order invalid for {current}: {bad[:3]}")
        steps.append(step)
        current = step.after
    return ReductionTrace(word, tuple(steps), current)


# ---------------------------------------------------------------------------
# Alternating words


def is_alternating(word: Word) -> bool:
    """Whether the nonempty word uses at most two letters and no two
    neighbours are equal: abab... in its own letters."""
    return bool(word) and len(set(word)) <= 2 and all(map(ne, word, word[1:]))


def alt_partner(u: Word, a: int, b: int) -> tuple[Word, str, bool]:
    """Partner of a word over the letters a and b under the explicit
    matching rules.

    Returns (partner, rule tag, whether u is the lower side). The rules
    pair, for every block prefix p = (a^2 b^2)^k and every tail s:
    R1: p+b+s with p+ab+s, R2: p+a^3+s with p+a^2ba+s, R3: p with p+a,
    R4: p+a^2 with p+a^2b. Every word over a and b matches exactly one
    rule; in particular the empty cell pairs with the vertex a.
    """
    block = (a, a, b, b)
    k = 0
    while u[k : k + 4] == block:
        k += 4
    p, r = u[:k], u[k:]
    if r == ():
        return p + (a,), "R3", True
    if r == (a,):
        return p, "R3", False
    if r == (a, a):
        return p + (a, a, b), "R4", True
    if r == (a, a, b):
        return p + (a, a), "R4", False
    if r[0] == b:
        return p + (a,) + r, "R1", True
    if r[:2] == (a, b):
        return p + r[1:], "R1", False
    if r[:3] == (a, a, a):
        return p + (a, a, b, a) + r[3:], "R2", True
    if r[:4] == (a, a, b, a):
        return p + (a, a, a) + r[4:], "R2", False
    raise RuntimeError(f"unclassified two-letter word {u}")


@dataclass(frozen=True)
class CollapseRun:
    word: Word
    pairs: tuple[tuple[Word, Word], ...]  # in the order they collapsed
    rules: tuple[str, ...]  # the rule tag of each pair
    core: Optional[Word]  # fundamental subword when 3 divides the length
    terminal_cells: frozenset[Word]

    def to_json(self) -> dict:
        return {
            "word": format_word(self.word),
            "core": format_word(self.core) if self.core else None,
            "steps": _pairs_json(self.pairs, self.rules),
            "terminal_cells": sorted(format_word(c) for c in self.terminal_cells),
        }


def alternating_collapse(word: Word) -> CollapseRun:
    """Collapse the complex of an alternating word by elementary collapses,
    highest dimension first: to a single vertex when 3 does not divide its
    length, onto the subcomplex of the fundamental subword when it does.

    The pairs are those of the rule matching (alt_partner), with a the
    word's first letter and b its second (a again for a single letter),
    read off the labels of the word's complex: a rule applies only when
    both of its cells are simplices, the empty cell included. The rules
    must be an involution there, and leave exactly the fundamental subword
    unmatched when 3 divides the length, nothing otherwise.

    The pairs are tried in removal order: by descending dimension, then by
    sigma read with a before b, whichever letter sorts first. Every
    executed pair is checked as an elementary collapse at its turn; when 3
    divides the length the rule pairs never straddle the core subcomplex,
    so skipping the pairs inside it removes exactly the outside cells.
    The core's cells are listed by distinct_subwords(core), not read off X
    as the closure of the core cell: that list is the independent
    description of the core subcomplex that the straddle check and the
    terminal check compare the collapse against, and reading it off X
    would compare X with itself.
    """
    name = format_word(word)
    if not is_alternating(word):
        raise ValueError(f"{name} does not alternate between two letters")
    a = word[0]
    b = word[1] if len(word) > 1 else a  # a single letter has no second
    X = build(word)
    ids = X.id_of_label
    cells = ids.keys() | {EMPTY}
    matched, critical = [], []
    for u in sorted(cells, key=lambda s: (-len(s), [x != a for x in s])):
        partner, rule, is_lower = alt_partner(u, a, b)
        if partner not in cells:
            critical.append(u)
            continue
        if alt_partner(partner, a, b)[0] != u:
            raise RuntimeError(f"rules are not involutive at {u}")
        if is_lower:
            matched.append((u, partner, rule))
    if 2 * len(matched) + len(critical) != len(cells):
        raise RuntimeError(f"rules do not partition the cells of {name}")
    core = fundamental_subword(word) if len(word) % 3 == 0 else None
    if critical != ([core] if core else []):
        raise RuntimeError(f"unexpected critical cells {tuple(critical)}")

    # the base vertex survives when there is no core; it pairs only with
    # the empty cell, so no pair can straddle it
    keep = set(distinct_subwords(core)) if core else {word[:1]}
    pending = []
    for s, t, rule in matched:
        if s == EMPTY:
            continue
        if (s in keep) != (t in keep):
            raise RuntimeError(f"rule pair ({s}, {t}) straddles the core")
        if s not in keep:
            pending.append((s, t, rule))

    # A pair can only be collapsed once its cells are free, which may force
    # another pair of the same dimension to go first; scheduling greedily
    # (highest dimension first, rescanning after progress) finds the order.
    # The collapses run on the one complex, read live.
    view = Collapsing(X)
    pairs, rules = [], []
    while pending:
        waiting = []
        for s, t, rule in pending:
            sid, tid = ids[s], ids[t]
            if view.is_free(sid, tid):
                view.remove(sid, tid)
                pairs.append((s, t))
                rules.append(rule)
            else:
                waiting.append((s, t, rule))
        if len(waiting) == len(pending):
            raise RuntimeError(
                f"collapse of {name} is stuck with {len(pending)} pairs pending"
            )
        pending = waiting
    terminal = frozenset(X.labels[c] for c in X.dim_of.keys() - view.removed)
    if terminal != frozenset(keep):
        raise RuntimeError(f"collapse of {name} left {sorted(terminal)}")
    return CollapseRun(word, tuple(pairs), tuple(rules), core, terminal)
