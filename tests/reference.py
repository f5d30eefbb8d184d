"""Reference routes the tests compare the library against.

The library does not call these: the command line and the sweep reach the
paper's theorem through build, chain_data, full_matching, reduce_to_core
and examine_word. What is kept here is the second route of a law (joins
and isomorphisms for the join law, the paper's exponent presentations and
its matching involution mu, elementary collapses on copied subcomplexes)
and the small helpers those routes read. Methods of the library's classes
that only tests called are functions here, taking the instance first.
"""

from __future__ import annotations

from itertools import compress
from typing import Iterable

from wordcomplex.complexes import DeltaComplex
from wordcomplex.homology import Column, HomologyProfile, SmithNormalForm
from wordcomplex.words import ExpPresentation, ReducedForm, Word

# ---------------------------------------------------------------------------
# Words: arrows, subsequences and exponent presentations


def expand(rf: ReducedForm) -> Word:
    return tuple(a for a, e in rf.runs for _ in range(e))


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


# ---------------------------------------------------------------------------
# Morse: the matching involution on left-shifted presentations


def mu(rf: ReducedForm, t: int, beta: ExpPresentation) -> ExpPresentation:
    """The matching involution on left-shifted presentations.

    Requires the first t-1 exponents even and beta left-shifted. The image
    is again left-shifted with the same height; both are re-checked here
    because the pairing silently breaks without them.
    """
    expansion = rf.expand_presentation(beta)
    if beta != left_shifted(rf, expansion):
        raise ValueError("beta must be a left-shifted presentation")
    alpha, h = rf.exponents, height(beta, rf, t)
    # xi at the height: even exponents go up by one, odd ones down by one
    flipped = beta[h - 1] - 1 if beta[h - 1] % 2 else beta[h - 1] + 1
    if flipped > alpha[h - 1]:
        raise ValueError("the full tuple is unmatched when the last exponent is even")
    # runs before the height are used in full, runs after it as in beta
    out = tuple(
        alpha[k] if k < h - 1 else flipped if k == h - 1 else beta[k]
        for k in range(len(beta))
    )
    if out != left_shifted(rf, rf.expand_presentation(out)):
        raise RuntimeError(f"matching image {out} of {beta} is not left-shifted")
    if height(out, rf, t) != height(beta, rf, t):
        raise RuntimeError(f"matching image {out} of {beta} changed height")
    return out


def alt_word(n: int) -> Word:
    """The two-letter alternating word abab... of length n."""
    if n < 1:
        raise ValueError("alternating words have length at least 1")
    return tuple(i % 2 for i in range(n))


# ---------------------------------------------------------------------------
# Complexes: subcomplexes, elementary collapses, joins and isomorphisms


def coface_slots(X: DeltaComplex) -> dict[int, tuple[tuple[int, int], ...]]:
    """For each cell, the (coface, face index) pairs hitting it."""
    slots: dict[int, list[tuple[int, int]]] = {c: [] for c in X.dim_of}
    for c in X.dim_of:
        for i, f in enumerate(X.faces[c]):
            slots[f].append((c, i))
    return {c: tuple(sorted(v)) for c, v in slots.items()}


def without(X: DeltaComplex, removed: Iterable[int]) -> DeltaComplex:
    """Subcomplex with the given cells dropped; ids are preserved.

    The remainder must be face-closed, otherwise the face table would
    dangle and the result would not be a complex.
    """
    removed = set(removed)
    keep = [c for c in X.dim_of if c not in removed]
    for c in keep:
        for f in X.faces[c]:
            if f in removed:
                raise ValueError(
                    f"removing cells would orphan face {f} of cell {c}"
                )
    return DeltaComplex(
        {c: X.faces[c] for c in keep},
        {c: X.labels[c] for c in keep},
        name=X.name,
    )


def elementary_collapse(X: DeltaComplex, sigma: int, tau: int) -> DeltaComplex:
    """Remove a free pair; raises naming the violated condition if invalid."""
    if sigma not in X.dim_of or tau not in X.dim_of:
        raise ValueError("cells not in the complex")
    if X.dim_of[sigma] != X.dim_of[tau] - 1:
        raise ValueError("collapse condition (1) fails: dimensions not adjacent")
    hits = [i for i, f in enumerate(X.faces[tau]) if f == sigma]
    if len(hits) != 1:
        raise ValueError(
            f"collapse condition (1) fails: {len(hits)} deletions of tau hit sigma"
        )
    slots = coface_slots(X)
    others = [s for s in slots[sigma] if s[0] != tau]
    if others:
        raise ValueError(
            "collapse condition (2) fails: sigma is a face of another cell"
        )
    if slots[tau]:
        raise ValueError("collapse condition (3) fails: tau is not maximal")
    return without(X, {sigma, tau})


def empty_complex() -> DeltaComplex:
    return DeltaComplex({}, {}, name="empty")


def _label_key(label):
    """Deterministic sort key over join labels: ints, tuples and None."""
    if label is None:
        return (0,)
    if isinstance(label, int):
        return (1, label)
    return (2, tuple(_label_key(x) for x in label))


def join(X: DeltaComplex, Y: DeltaComplex) -> DeltaComplex:
    """Join of two complexes: cells are pairs graded by i + j + 1.

    Internally each factor is augmented with a formal empty cell so that
    faces lying entirely inside one factor exist; pairs with an empty side
    appear in the public cell list as copies of the other factor's cells,
    and the doubly empty pair is dropped. Each cell is labelled by the pair
    of its factors' labels, None marking the empty side.
    """
    if X.n_cells == 0:
        return Y
    if Y.n_cells == 0:
        return X

    # key: (x id or None, y id or None), None marking the formal empty cell
    keys = []
    for x in X.dim_of:
        keys.append((x, None))
    for y in Y.dim_of:
        keys.append((None, y))
    for x in X.dim_of:
        for y in Y.dim_of:
            keys.append((x, y))

    def pair_dim(key) -> int:
        x, y = key
        dx = X.dim_of[x] if x is not None else -1
        dy = Y.dim_of[y] if y is not None else -1
        return dx + dy + 1

    def pair_label(key):
        x, y = key
        return (
            X.labels[x] if x is not None else None,
            Y.labels[y] if y is not None else None,
        )

    keys.sort(key=lambda k: (pair_dim(k), _label_key(pair_label(k))))
    ids = {k: i for i, k in enumerate(keys)}
    labels = {}
    faces = {}
    for k in keys:
        c = ids[k]
        d = pair_dim(k)
        labels[c] = pair_label(k)
        if d == 0:
            faces[c] = ()
            continue
        x, y = k
        dx = X.dim_of[x] if x is not None else -1
        fs = []
        for pos in range(d + 1):
            if pos <= dx:
                nx = X.faces[x][pos] if dx >= 1 else None
                fs.append(ids[(nx, y)])
            else:
                dy = Y.dim_of[y]
                ny = Y.faces[y][pos - dx - 1] if dy >= 1 else None
                fs.append(ids[(x, ny)])
        faces[c] = tuple(fs)
    name = f"({X.name})*({Y.name})"
    return DeltaComplex(faces, labels, name=name)


def _refine_colors(X: DeltaComplex, Y: DeltaComplex) -> tuple[dict, dict]:
    """Joint color refinement on face structure; isomorphisms preserve colors."""
    colX = {c: X.dim_of[c] for c in X.dim_of}
    colY = {c: Y.dim_of[c] for c in Y.dim_of}
    for _ in range(X.n_cells + 1):
        table: dict[object, int] = {}

        def recolor(Z, col):
            new = {}
            for c in Z.dim_of:
                sig = (col[c], tuple(col[f] for f in Z.faces[c]))
                if sig not in table:
                    table[sig] = len(table)
                new[c] = table[sig]
            return new

        newX, newY = recolor(X, colX), recolor(Y, colY)
        if len(set(newX.values())) == len(set(colX.values())) and len(
            set(newY.values())
        ) == len(set(colY.values())):
            return newX, newY
        colX, colY = newX, newY
    return colX, colY


def is_isomorphic(X: DeltaComplex, Y: DeltaComplex) -> bool:
    """Search for dimension-preserving bijections commuting with every face
    map; commuting with single deletions suffices since they compose to all
    boundary maps."""
    if X.f_vector() != Y.f_vector():
        return False
    colX, colY = _refine_colors(X, Y)

    def counts(col):
        out: dict[int, int] = {}
        for v in col.values():
            out[v] = out.get(v, 0) + 1
        return out

    if counts(colX) != counts(colY):
        return False

    candidates = {c: [d for d in Y.dim_of if colY[d] == colX[c]] for c in X.dim_of}
    # assign from the top dimension down; assigning a cell forces its faces
    order = sorted(X.dim_of, key=lambda c: (-X.dim_of[c], len(candidates[c])))
    assignment: dict[int, int] = {}
    used: set[int] = set()

    def propagate(c: int, d: int, trail: list[int]) -> bool:
        if c in assignment:
            return assignment[c] == d
        if d in used:
            return False
        assignment[c] = d
        used.add(d)
        trail.append(c)
        for i, f in enumerate(X.faces[c]):
            if not propagate(f, Y.faces[d][i], trail):
                return False
        return True

    def undo(trail: list[int]) -> None:
        for c in trail:
            used.discard(assignment.pop(c))

    def search(idx: int) -> bool:
        while idx < len(order) and order[idx] in assignment:
            idx += 1
        if idx == len(order):
            return True
        c = order[idx]
        for d in candidates[c]:
            trail: list[int] = []
            if propagate(c, d, trail):
                if search(idx + 1):
                    return True
            undo(trail)
        return False

    return search(0)


# ---------------------------------------------------------------------------
# Homology


def profile_reduced_euler(p: HomologyProfile) -> int:
    return sum((-1) ** n * b for n, (b, _) in enumerate(p.groups))


def product_is(columns: list[Column], coeffs: Column, d: int, want: Column) -> bool:
    """Whether the sum of x * columns[j] over the entries j: x of coeffs is
    d * want, by accumulation alone, whatever the shape of coeffs."""
    acc = {i: -d * x for i, x in want.items()}
    for j, x in coeffs.items():
        for i, a in columns[j].items():
            acc[i] = acc.get(i, 0) + x * a
    return not any(acc.values())


def certified_by_products(M: list[Column], snf: SmithNormalForm) -> bool:
    """Whether M V = U_inv D holds on every column of V by plain products:
    d_t U_inv[t] within the rank, zero past it."""
    rank = snf.rank
    return all(
        product_is(M, v, snf.diagonal[t], snf.U_inv[t]) if t < rank else product_is(M, v, 0, {})
        for t, v in enumerate(snf.V)
    )


# A dense minimal-pivot Smith normal form, the second route of the sparse
# engine on matrices it is known to finish: on a block with no unit entry
# its entries can grow so fast that it does not finish in practice.

Matrix = list[list[int]]


def identity_matrix(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def columns_of(M: Matrix) -> list[Column]:
    """The sparse columns {row: value} of the dense M."""
    index = range(len(M[0]) if M else 0)
    columns: list[Column] = [{} for _ in index]
    for i, row in enumerate(M):
        for j in compress(index, row):
            columns[j][i] = row[j]
    return columns


def dense_snf(M: Matrix) -> SmithNormalForm:
    """Diagonalize a dense block by the minimal-absolute-value pivot, which
    limits entry growth."""
    m = len(M)
    n = len(M[0]) if M else 0
    A = [row[:] for row in M]
    U_inv = identity_matrix(m)
    V = identity_matrix(n)

    def swap_rows(i, j):
        if i == j:
            return
        A[i], A[j] = A[j], A[i]
        for row in U_inv:  # column swap on the inverse
            row[i], row[j] = row[j], row[i]

    def swap_cols(i, j):
        if i == j:
            return
        for row in A:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, q):
        # row dst += q * row src; inverse gets the opposite column operation
        if not q:
            return
        As, Ad = A[src], A[dst]
        for k in range(n):
            if As[k]:
                Ad[k] += q * As[k]
        for row in U_inv:
            if row[dst]:
                row[src] -= q * row[dst]

    def add_col(src, dst, q):
        if not q:
            return
        for row in A:
            if row[src]:
                row[dst] += q * row[src]
        for row in V:
            if row[src]:
                row[dst] += q * row[src]

    def negate_row(i):
        A[i] = [-x for x in A[i]]
        for row in U_inv:
            row[i] = -row[i]

    def find_pivot(s):
        best = None
        for i in range(s, m):
            row = A[i]
            for j in range(s, n):
                x = row[j]
                if x and (best is None or abs(x) < best[0]):
                    best = (abs(x), i, j)
                    if best[0] == 1:
                        return best
        return best

    s = 0
    while s < min(m, n):
        best = find_pivot(s)
        if best is None:
            break
        swap_rows(s, best[1])
        swap_cols(s, best[2])
        dirty = True
        while dirty:
            dirty = False
            for i in range(s + 1, m):
                if A[i][s]:
                    add_row(s, i, -(A[i][s] // A[s][s]))
                    if A[i][s]:  # nonzero remainder: smaller pivot available
                        swap_rows(s, i)
                        dirty = True
            for j in range(s + 1, n):
                if A[s][j]:
                    add_col(s, j, -(A[s][j] // A[s][s]))
                    if A[s][j]:
                        swap_cols(s, j)
                        dirty = True
            if dirty or abs(A[s][s]) == 1:
                continue  # a unit pivot divides every entry
            # pivot must divide the remaining block for the divisor chain
            for i in range(s + 1, m):
                row = A[i]
                if any(row[j] % A[s][s] for j in range(s + 1, n)):
                    add_row(i, s, 1)
                    dirty = True
                    break
        if A[s][s] < 0:
            negate_row(s)
        s += 1

    diagonal = tuple(A[i][i] for i in range(s))
    return SmithNormalForm(
        (m, n), diagonal, columns_of(U_inv), columns_of(V)
    )
