"""Exact integral homology of finite complexes via Smith normal form.

All arithmetic is on Python integers, so entry growth is harmless.

The reduction is sparse elimination by unit pivots, after Dumas, Saunders
and Villard, "On efficient sparse integer matrix Smith normal form
computations" (JSC 2001). The matrix is held as rows of {column: value}
with a column -> rows index. Each step takes a +-1 entry from the row with
the fewest entries, clears its column by row operations and its row by
column operations. The block left when no unit entry remains, if any, is
finished by the dense minimal-pivot routine alone, and its transforms are
folded back. No boundary map of a word complex has left such a block yet:
every matrix of the words of length <= 8 over 4 letters, and of the
benchmark's hard words, reduces by unit pivots alone.

The inverse of the row transform and the column transform are kept as
sparse columns, giving one certificate identity, M V = U_inv D, checked
column by column by a sparse product, like the vanishing of consecutive
boundary maps: cheap enough for every matrix a sweep produces. Both
transforms are products of swaps, negations and integer additions of one
line to another, so they are unimodular by construction; the tests prove
it again by determinant.

Reduced homology is realized by an augmentation row of ones at dimension
zero rather than by special-casing connectivity.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import compress

from .complexes import DeltaComplex, deletion_sign

Matrix = list[list[int]]
Column = dict[int, int]  # index -> nonzero entry


def identity_matrix(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def boundary_matrix(X: DeltaComplex, n: int) -> Matrix:
    """Incidence matrix from n-cells to (n-1)-cells; n = 0 gives the
    augmentation row of ones."""
    if n < 0 or n > X.dim:
        raise ValueError(f"boundary index {n} out of range 0..{X.dim}")
    cols = X.cells(n)
    if n == 0:
        return [[1] * len(cols)]
    rows = {c: i for i, c in enumerate(X.cells(n - 1))}
    M = [[0] * len(cols) for _ in rows]
    for j, tau in enumerate(cols):
        for i, f in enumerate(X.faces[tau]):
            M[rows[f]][j] += deletion_sign(i)
    return M


def _sparse_columns(M: Matrix) -> list[Column]:
    """The nonzero entries of each column of M."""
    index = range(len(M[0]) if M else 0)
    columns: list[Column] = [{} for _ in index]
    for i, row in enumerate(M):
        for j in compress(index, row):
            columns[j][i] = row[j]
    return columns


def _combine(columns: list[Column], coeffs: Column) -> Column:
    """The sum of x * columns[j] over the entries j: x of coeffs."""
    if len(coeffs) == 1:
        [(j, x)] = coeffs.items()
        return {i: x * a for i, a in columns[j].items()}
    acc: Column = {}
    get = acc.get
    for j, x in coeffs.items():
        for i, a in columns[j].items():
            acc[i] = get(i, 0) + x * a
    return {i: y for i, y in acc.items() if y}


def _add_multiple(dst: Column, q: int, src: Column) -> None:
    """dst += q * src, dropping the entries that cancel."""
    for i, x in src.items():
        y = dst.get(i, 0) + q * x
        if y:
            dst[i] = y
        else:
            del dst[i]


def _fits(columns: list[Column], size: int) -> bool:
    """The columns form a size x size matrix."""
    used = set().union(*columns)
    return len(columns) == size and (not used or 0 <= min(used) <= max(used) < size)


@dataclass
class SmithNormalForm:
    shape: tuple[int, int]
    diagonal: tuple[int, ...]  # positive, each dividing the next
    U_inv: list[Column]  # m sparse columns
    V: list[Column]  # n sparse columns

    @property
    def rank(self) -> int:
        return len(self.diagonal)

    def check(self, M: Matrix) -> None:
        """Verify the divisibility chain and M V = U_inv D column by column:
        M times column t of V must be d_t times column t of U_inv within the
        rank, and zero past it. Raises on any failure."""
        for a, b in zip(self.diagonal, self.diagonal[1:]):
            if a <= 0 or b % a:
                raise ArithmeticError("invariant factors fail the divisor chain")
        if self.diagonal and self.diagonal[0] <= 0:
            raise ArithmeticError("invariant factors must be positive")
        m, n = self.shape
        if (
            (len(M), len(M[0]) if M else 0) != self.shape
            or not _fits(self.U_inv, m)
            or not _fits(self.V, n)
        ):
            raise ArithmeticError("certificate shapes do not match M")
        columns = _sparse_columns(M)
        for t, v in enumerate(self.V):
            d = self.diagonal[t] if t < self.rank else 0
            want = {i: d * x for i, x in self.U_inv[t].items()} if d else {}
            if _combine(columns, v) != want:
                raise ArithmeticError("certificate M V = U_inv D fails")


def smith_normal_form(M: Matrix) -> SmithNormalForm:
    """Diagonalize over the integers by unimodular row and column operations.

    Unit pivots are eliminated on sparse rows, each from the row with the
    fewest entries; a block left with no unit entry is finished by the dense
    routine and its transforms are folded into the sparse ones."""
    m = len(M)
    n = len(M[0]) if M else 0
    index = range(n)
    rows = [{j: r[j] for j in compress(index, r)} for r in M]
    where: list[set[int]] = [set() for _ in index]  # column -> rows using it
    for i, row in enumerate(rows):
        for j in row:
            where[j].add(i)
    U_inv = [{i: 1} for i in range(m)]
    V = [{j: 1} for j in index]
    pivots = []  # (row, column, +-1)
    queue = [(len(row), i) for i, row in enumerate(rows) if row]
    heapify(queue)
    while queue:
        size, p = heappop(queue)
        row = rows[p]
        if size != len(row):
            continue  # queued again when a row operation changed it
        c = None  # the unit entry with the fewest entries in its column
        for j, x in row.items():
            if (x == 1 or x == -1) and (c is None or len(where[j]) < len(where[c])):
                c = j
        if c is None:
            continue
        u = row[c]
        # r_k += q r_p clears column c; U_inv takes the inverse column operation
        for k in where[c] - {p}:
            rk = rows[k]
            q = -u * rk[c]
            for j, x in row.items():
                y = rk.get(j, 0) + q * x
                if y:
                    if j not in rk:
                        where[j].add(k)
                    rk[j] = y
                else:
                    del rk[j]
                    where[j].discard(k)
            if rk:
                heappush(queue, (len(rk), k))
            _add_multiple(U_inv[p], -q, U_inv[k])
        # c_l += q c_c clears row p and, column c being zero off the pivot
        # now, changes no other entry
        for l, x in row.items():
            where[l].discard(p)
            if l != c:
                _add_multiple(V[l], -u * x, V[c])
        rows[p] = {}
        pivots.append((p, c, u))
        if u < 0:
            U_inv[p] = {i: -x for i, x in U_inv[p].items()}

    rest_rows = [i for i, row in enumerate(rows) if row]
    rest_cols = sorted({j for i in rest_rows for j in rows[i]})
    diagonal = (1,) * len(pivots)
    if rest_rows:
        fix = _dense_snf([[rows[i].get(j, 0) for j in rest_cols] for i in rest_rows])
        diagonal += fix.diagonal
        for lines, rest, cols in ((U_inv, rest_rows, fix.U_inv), (V, rest_cols, fix.V)):
            folded = [_combine(lines, {rest[s]: x for s, x in col.items()}) for col in cols]
            for i, col in zip(rest, folded):
                lines[i] = col
    lead_rows = [p for p, _, _ in pivots] + rest_rows
    lead_cols = [c for _, c, _ in pivots] + rest_cols
    row_order = lead_rows + sorted(set(range(m)).difference(lead_rows))
    col_order = lead_cols + sorted(set(index).difference(lead_cols))
    return SmithNormalForm(
        (m, n), diagonal, [U_inv[i] for i in row_order], [V[j] for j in col_order]
    )


def _dense_snf(M: Matrix) -> SmithNormalForm:
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
        (m, n), diagonal, _sparse_columns(U_inv), _sparse_columns(V)
    )


@dataclass(frozen=True)
class HomologyProfile:
    """Reduced integral homology: per dimension a free rank and the
    invariant factors greater than one."""

    groups: tuple[tuple[int, tuple[int, ...]], ...]

    def betti(self, n: int) -> int:
        return self.groups[n][0] if 0 <= n < len(self.groups) else 0

    def torsion(self, n: int) -> tuple[int, ...]:
        return self.groups[n][1] if 0 <= n < len(self.groups) else ()

    @property
    def total_betti(self) -> int:
        return sum(b for b, _ in self.groups)

    def has_torsion(self) -> bool:
        return any(t for _, t in self.groups)

    def is_trivial(self) -> bool:
        return self.total_betti == 0 and not self.has_torsion()

    def sphere_dimension(self) -> int | None:
        """The d with homology exactly that of a d-sphere, if any."""
        if self.has_torsion() or self.total_betti != 1:
            return None
        return next(n for n, (b, _) in enumerate(self.groups) if b == 1)

    def reduced_euler(self) -> int:
        return sum((-1) ** n * b for n, (b, _) in enumerate(self.groups))

    def to_json(self) -> list[dict]:
        return [
            {"dim": n, "betti": b, "torsion": list(t)}
            for n, (b, t) in enumerate(self.groups)
        ]


def chain_data(X: DeltaComplex) -> list[tuple[Matrix, SmithNormalForm]]:
    """Boundary matrices (augmented at dimension zero) with their reductions."""
    return [
        (M, smith_normal_form(M))
        for M in (boundary_matrix(X, n) for n in range(X.dim + 1))
    ]


def reduced_homology(X: DeltaComplex, certify: bool = False) -> HomologyProfile:
    """Homology from ranks and invariant factors of adjacent boundary maps.

    With certify=True every matrix's SNF certificates are checked and the
    composition of consecutive boundary maps is verified to vanish.
    """
    data = chain_data(X)
    if certify:
        for M, snf in data:
            snf.check(M)
        columns = [_sparse_columns(M) for M, _ in data]
        for low, high in zip(columns, columns[1:]):
            if any(_combine(low, col) for col in high):
                raise ArithmeticError("consecutive boundary maps do not compose to zero")
    groups = []
    for n in range(X.dim + 1):
        f_n = len(X.cells(n))
        rank_n = data[n][1].rank
        if n < X.dim:
            nxt = data[n + 1][1]
            rank_up = nxt.rank
            torsion = tuple(d for d in nxt.diagonal if d > 1)
        else:
            rank_up, torsion = 0, ()
        groups.append((f_n - rank_n - rank_up, torsion))
    return HomologyProfile(tuple(groups))


def matrix_to_csv(M: Matrix) -> str:
    return "\n".join(",".join(str(x) for x in row) for row in M) + "\n"
