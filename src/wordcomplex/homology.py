"""Exact integral homology of finite complexes via Smith normal form.

All arithmetic is on Python integers, so entry growth is harmless.

A boundary map is built once, as sparse columns {row: value} read straight
from the face table, and those same columns feed the reduction, its
certificate and the vanishing of consecutive maps. No dense boundary
matrix is built; the CSV export writes its rows at the edge.

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

A chain complex is reduced from the top dimension down, with the clearing
(twist) of Chen and Kerber, "Persistent homology computation with a twist"
(EuroCG 2011). The first columns of the row transform's inverse of
d_{n+1}, one per unit pivot, are boundaries, so d_n maps them to zero, and
each has its leading entry at its pivot row. Swapping them in for the unit
vectors of those n-cells is a unimodular change of basis, so d_n is reduced
on its other columns alone and the cleared columns join its kernel.

The inverse of the row transform and the column transform are kept as
sparse columns, giving one certificate identity, M V = U_inv D. Every
reduction that reduced_homology or a sweep reads is checked by
check_certificates, after check_composition has checked the vanishing of
consecutive boundary maps on every column. Each column of V is checked by
a sparse product, except the cleared columns of d_n, which are certified
by identity: each must equal, entry for entry, the U_inv column of d_{n+1}
it was cleared by. That suffices. The certificate of d_{n+1}, checked by
product, gives d_{n+1} V_up[t] = d_t U_inv_up[t] with d_t > 0 for t below
its rank; d_n d_{n+1} = 0 on every column, hence on every integer
combination of columns, so d_t d_n U_inv_up[t] = d_n d_{n+1} V_up[t] = 0,
and d_n U_inv_up[t] = 0 because the integers have no zero divisors. A
column equal to U_inv_up[t] is thus one that d_n maps to zero, which is
what the product would have checked. Only the columns of U_inv_up within
its rank are so proven, so a map above with more unit pivots than its rank
is refused. SmithNormalForm.check on its own still checks every column by
product. Both transforms are products of swaps, negations and integer
additions of one line to another, so they are unimodular by construction;
the tests prove it again by determinant.

Reduced homology is realized by an augmentation row of ones at dimension
zero rather than by special-casing connectivity.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import chain, compress

from .complexes import DeltaComplex, deletion_sign

Matrix = list[list[int]]  # dense rows: the residual block and the CSV edge
Column = dict[int, int]  # index -> nonzero entry


def identity_matrix(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def boundary_rows(X: DeltaComplex, n: int) -> int:
    """The row count of boundary_matrix(X, n): the (n-1)-cells, or the one
    augmentation row at n = 0."""
    return len(X.cells_by_dim[n - 1]) if n else 1


def boundary_matrix(X: DeltaComplex, n: int) -> list[Column]:
    """Incidence map from n-cells to (n-1)-cells as sparse columns, one per
    n-cell, rows indexed by the (n-1)-cells in order; n = 0 gives the
    augmentation row of ones."""
    if n < 0 or n > X.dim:
        raise ValueError(f"boundary index {n} out of range 0..{X.dim}")
    cols = X.cells_by_dim[n]
    if n == 0:
        return [{0: 1} for _ in cols]
    row_of = {c: i for i, c in enumerate(X.cells_by_dim[n - 1])}.__getitem__
    signs = tuple(deletion_sign(i) for i in range(n + 1))
    faces = X.faces
    columns = [dict(zip(map(row_of, faces[tau]), signs)) for tau in cols]
    for j, col in enumerate(columns):
        if len(col) <= n:  # a repeated face: its signs add up
            col.clear()
            for i, x in zip(map(row_of, faces[cols[j]]), signs):
                y = col.get(i, 0) + x
                if y:
                    col[i] = y
                else:
                    del col[i]
    return columns


def _combine(columns: list[Column], coeffs: Column) -> Column:
    """The sum of x * columns[j] over the entries j: x of coeffs."""
    acc: Column = {}
    get = acc.get
    for j, x in coeffs.items():
        for i, a in columns[j].items():
            acc[i] = get(i, 0) + x * a
    return {i: y for i, y in acc.items() if y}


def _product_is(columns: list[Column], coeffs: Column, d: int, want: Column) -> bool:
    """Whether the sum of x * columns[j] over the entries j: x of coeffs is
    d * want."""
    acc = {i: -d * x for i, x in want.items()} if d else {}
    get = acc.get
    for j, x in coeffs.items():
        for i, a in columns[j].items():
            acc[i] = get(i, 0) + x * a
    return not any(acc.values())


def _add_multiple(dst: Column, q: int, src: Column) -> None:
    """dst += q * src, dropping the entries that cancel."""
    for i, x in src.items():
        y = dst.get(i, 0) + q * x
        if y:
            dst[i] = y
        else:
            del dst[i]


def _fits(columns: list[Column], rows: int) -> bool:
    """Every entry of the columns lies in rows 0..rows-1."""
    used = set().union(*columns)
    return not used or 0 <= min(used) <= max(used) < rows


@dataclass
class SmithNormalForm:
    shape: tuple[int, int]
    diagonal: tuple[int, ...]  # positive, each dividing the next
    U_inv: list[Column]  # m sparse columns
    V: list[Column]  # n sparse columns
    # the rows of the unit pivots in elimination order: U_inv[t] has its
    # leading entry at unit_rows[t], the other rows it touches being pivoted
    # later or never
    unit_rows: tuple[int, ...] = ()

    @property
    def rank(self) -> int:
        return len(self.diagonal)

    def check(self, M: list[Column], upper: "SmithNormalForm | None" = None) -> None:
        """Verify the divisibility chain and M V = U_inv D column by column,
        M given by its sparse columns: M times column t of V must be d_t
        times column t of U_inv within the rank, and zero past it. Raises on
        any failure.

        Given upper, the reduction of the map above M in chain_data, the
        columns V[rank : rank + units], units being upper's unit pivots, are
        checked by identity instead: each must equal upper.U_inv[t], which M
        maps to zero by the proof in the module docstring. That proof holds
        only once upper's certificate and the composition of M with upper's
        map have been checked, so only check_certificates passes upper."""
        if any(d <= 0 for d in self.diagonal):
            raise ArithmeticError("invariant factors must be positive")
        if any(b % a for a, b in zip(self.diagonal, self.diagonal[1:])):
            raise ArithmeticError("invariant factors fail the divisor chain")
        m, n = self.shape
        if not (
            len(M) == len(self.V) == n
            and len(self.U_inv) == m
            and _fits(M, m)
            and _fits(self.U_inv, m)
            and _fits(self.V, n)
        ):
            raise ArithmeticError("certificate shapes do not match M")
        rank = self.rank
        units = 0
        if upper is not None:
            units = len(upper.unit_rows)
            if units > upper.rank:
                raise ArithmeticError("more unit pivots above than its rank")
            if self.V[rank : rank + units] != upper.U_inv[:units]:
                raise ArithmeticError("a cleared column is not its boundary above")
        for t in chain(range(rank), range(rank + units, n)):
            d, want = (self.diagonal[t], self.U_inv[t]) if t < rank else (0, {})
            if not _product_is(M, self.V[t], d, want):
                raise ArithmeticError("certificate M V = U_inv D fails")


def smith_normal_form(M: list[Column], m: int) -> SmithNormalForm:
    """Diagonalize the m-row matrix with sparse columns M over the integers
    by unimodular row and column operations.

    Unit pivots are eliminated on sparse rows, each from the row with the
    fewest entries; a block left with no unit entry is finished by the dense
    routine and its transforms are folded into the sparse ones."""
    n = len(M)
    index = range(n)
    rows: list[Column] = [{} for _ in range(m)]
    where = [set(col) for col in M]  # column -> rows using it
    for j, col in enumerate(M):
        for i, x in col.items():
            rows[i][j] = x
    U_inv = [{i: 1} for i in range(m)]
    V = [{j: 1} for j in index]
    pivots = []  # (row, column)
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
        # every row with an entry in column c is unpivoted, its U_inv column
        # still a unit vector, so M V[c] is column c as it stands; with the
        # sign of u folded in, the diagonal entry is 1 and that column is the
        # pivot's U_inv column, the inverse of the row operations below
        U_inv[p] = {k: rows[k][c] for k in where[c]}
        # r_k += q r_p clears column c
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
        # c_l += q c_c clears row p and, column c being zero off the pivot
        # now, changes no other entry
        for l, x in row.items():
            where[l].discard(p)
            if l != c:
                _add_multiple(V[l], -u * x, V[c])
        rows[p] = {}
        pivots.append((p, c))

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
    unit_rows = tuple(p for p, _ in pivots)
    lead_rows = list(unit_rows) + rest_rows
    lead_cols = [c for _, c in pivots] + rest_cols
    row_order = lead_rows + sorted(set(range(m)).difference(lead_rows))
    col_order = lead_cols + sorted(set(index).difference(lead_cols))
    return SmithNormalForm(
        (m, n),
        diagonal,
        [U_inv[i] for i in row_order],
        [V[j] for j in col_order],
        unit_rows,
    )


def _sparse_columns(M: Matrix) -> list[Column]:
    """The nonzero entries of each column of the dense M."""
    index = range(len(M[0]) if M else 0)
    columns: list[Column] = [{} for _ in index]
    for i, row in enumerate(M):
        for j in compress(index, row):
            columns[j][i] = row[j]
    return columns


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

    def to_json(self) -> list[dict]:
        return [
            {"dim": n, "betti": b, "torsion": list(t)}
            for n, (b, t) in enumerate(self.groups)
        ]


def _cleared(M: list[Column], m: int, upper: SmithNormalForm) -> SmithNormalForm:
    """The reduction of d_n (columns M, m rows) with the cells that were the
    unit pivot rows of d_{n+1} (reduced as upper) cleared.

    In the basis of those cells' boundary columns U_inv[t] of upper and the
    unit vectors of the other cells, d_n is zero on the first part and M on
    the second, so V = [cleared columns | unit vectors] blockdiag(I, V_sub)
    with V_sub the reduction of the kept columns alone. It is unimodular:
    the cleared columns are triangular on their pivot rows with +-1 there.
    Only unit pivots are cleared, because the dense routine's fold leaves
    their columns alone."""
    units = len(upper.unit_rows)
    cleared = set(upper.unit_rows)
    kept = [j for j in range(len(M)) if j not in cleared]
    sub = smith_normal_form([M[j] for j in kept], m)
    V = [{kept[k]: x for k, x in v.items()} for v in sub.V]
    r = sub.rank
    kernel = [dict(u) for u in upper.U_inv[:units]]
    return SmithNormalForm(
        (m, len(M)), sub.diagonal, sub.U_inv, V[:r] + kernel + V[r:], sub.unit_rows
    )


def chain_data(X: DeltaComplex) -> list[tuple[list[Column], SmithNormalForm]]:
    """Boundary maps (augmented at dimension zero) with their reductions,
    computed from the top dimension down, each map with the unit pivot rows
    of the one above it cleared. The reductions are certificates only when
    consecutive maps compose to zero."""
    data = []
    upper = None
    for n in range(X.dim, -1, -1):
        M = boundary_matrix(X, n)
        m = boundary_rows(X, n)
        snf = smith_normal_form(M, m) if upper is None else _cleared(M, m, upper)
        data.append((M, snf))
        upper = snf
    return data[::-1]


def check_composition(data: list[tuple[list[Column], SmithNormalForm]]) -> None:
    """Raise unless consecutive maps of chain_data compose to zero."""
    for (low, _), (high, _) in zip(data, data[1:]):
        if not all(_product_is(low, col, 0, {}) for col in high):
            raise ArithmeticError("consecutive boundary maps do not compose to zero")


def profile_of(data: list[tuple[list[Column], SmithNormalForm]]) -> HomologyProfile:
    """Homology of chain_data: f_n, the column count of d_n, less the ranks
    of d_n and d_{n+1}, with the invariant factors of d_{n+1} above one."""
    groups = []
    for n, (M, snf) in enumerate(data):
        up = data[n + 1][1].diagonal if n + 1 < len(data) else ()
        groups.append((len(M) - snf.rank - len(up), tuple(d for d in up if d > 1)))
    return HomologyProfile(tuple(groups))


def check_certificates(data: list[tuple[list[Column], SmithNormalForm]]) -> None:
    """Raise unless every reduction of chain_data is a certificate of its
    map, checked from the top dimension down, each map's cleared columns
    by identity with the map above (see the module docstring). Run it
    after check_composition, which that identity relies on."""
    upper = None
    for M, snf in reversed(data):
        snf.check(M, upper)
        upper = snf


def reduced_homology(X: DeltaComplex) -> HomologyProfile:
    """Certified homology: chain_data, verified by check_composition, which
    the clearing relies on, and then by check_certificates, read by
    profile_of. Raises ArithmeticError on a failed check."""
    data = chain_data(X)
    check_composition(data)
    check_certificates(data)
    return profile_of(data)


def matrix_to_csv(M: list[Column], m: int) -> str:
    """The m-row matrix with sparse columns M as CSV rows."""
    rows = [[0] * len(M) for _ in range(m)]
    for j, col in enumerate(M):
        for i, x in col.items():
            rows[i][j] = x
    return "\n".join(",".join(str(x) for x in row) for row in rows) + "\n"
