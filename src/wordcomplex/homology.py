"""Exact integral homology of finite complexes via Smith normal form.

All arithmetic is on Python integers, so entry growth is harmless.

A boundary map is built once, as sparse columns {row: value} read straight
from the face table, and those same columns feed the reduction, its
certificate and the vanishing of consecutive maps. No dense boundary
matrix is built; the CSV export writes its rows at the edge.

The reduction is one elimination on sparse rows {column: value} with a
column -> rows index. Its unit phase follows Dumas, Saunders and Villard,
"On efficient sparse integer matrix Smith normal form computations" (JSC
2001): each step takes a +-1 entry u from the row p with the fewest
entries, clears its column c by row operations and its row by column
operations. The column is cleared in one pass: r_k += q r_p with
q = -u r_k[c] leaves r_k[c] + q u = r_k[c] (1 - u^2) = 0, exactly, so
r_k[c] is moved from its row into the pivot's U_inv column as it is read,
and only the rest of row p is added to r_k. On a word complex that rest
is almost always empty. Only when a row is left nonempty after the unit
pivots is the residual phase entered, on the same rows: an entry of least
absolute value is divided into its column and row with remainder, a
remainder giving the next pivot, until one stands alone; a row with an
entry it does not divide is then added to its row, for the divisor chain.
No boundary map of a word complex has left such a block yet: every matrix
of sweep(9, 4), of the 11,620 words of sweep(9, 9) with 5 or more
letters, of 2,000 sampled words of length 14 over 2 letters and of the
benchmark's hard words reduces by unit pivots alone.

A chain complex is reduced from the top dimension down, with the clearing
(twist) of Chen and Kerber, "Persistent homology computation with a twist"
(EuroCG 2011). The first columns of the row transform's inverse of
d_{n+1}, one per unit pivot, are boundaries, so d_n maps them to zero, and
each has its leading entry at its pivot row. Swapping them in for the unit
vectors of those n-cells is a unimodular change of basis, so d_n is reduced
on its other columns alone and the cleared columns join its kernel. That is
one elimination of d_n in its own column indices, which leaves the cleared
columns out and puts those U_inv columns in their place in V, right after
the rank; no sub-matrix is copied and no column renumbered.

The inverse of the row transform and the column transform are kept as
sparse columns, giving one certificate identity, M V = U_inv D. Every
reduction that reduced_homology or a sweep reads is checked by
check_certificates, after check_composition has checked the vanishing of
consecutive boundary maps on every column, one pass per pair of maps.
Each column of V is checked by a sparse product, except the cleared
columns of d_n, which are certified by identity: each must equal, entry
for entry, the U_inv column of d_{n+1} it was cleared by. That suffices.
The certificate of d_{n+1}, checked by product, gives d_{n+1} V_up[t] =
d_t U_inv_up[t] with d_t > 0 for t below its rank; d_n d_{n+1} = 0 on
every column, hence on every integer combination of columns, so
d_t d_n U_inv_up[t] = d_n d_{n+1} V_up[t] = 0, and d_n U_inv_up[t] = 0
because the integers have no zero divisors. A column equal to U_inv_up[t]
is thus one that d_n maps to zero, which is what the product would have
checked. Only the columns of U_inv_up within its rank are so proven, so a
map above with more unit pivots than its rank is refused.
SmithNormalForm.check on its own still checks every column by
product. Most columns of V within the rank are one unit entry {j: 1} with
d_t = 1, and there the product M V[t] = U_inv[t] says M[j] == U_inv[t]:
no column stores a zero, so it is read as that comparison of dicts, which
can pass only where the product would. Both transforms are products of
swaps, negations and integer additions of one line to another, so they are
unimodular by construction; the tests prove it again by determinant.

Reduced homology is realized by an augmentation row of ones at dimension
zero rather than by special-casing connectivity.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import chain

from .complexes import DeltaComplex, deletion_sign

Column = dict[int, int]  # index -> nonzero entry


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
    columns = []
    for tau in cols:
        col = {}
        for i, x in zip(map(row_of, faces[tau]), signs):
            y = col.pop(i, 0) + x  # a repeated face: its signs add up
            if y:
                col[i] = y
        columns.append(col)
    return columns


def _product_is(columns: list[Column], coeffs: Column, d: int, want: Column) -> bool:
    """Whether the sum of x * columns[j] over the entries j: x of coeffs is
    d * want. With coeffs {j: 1} and d = 1 that is columns[j] == want, read
    as a comparison: no column stores a zero, so equal maps are equal dicts."""
    if d == 1 and len(coeffs) == 1:
        ((j, x),) = coeffs.items()
        if x == 1:
            return columns[j] == want
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
        times column t of U_inv within the rank, and zero past it. A column
        V[t] = {j: 1} with d_t = 1 is that product read as the comparison
        M[j] == U_inv[t], since no column stores a zero. Raises on any
        failure.

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


def smith_normal_form(
    M: list[Column], m: int, upper: SmithNormalForm | None = None
) -> SmithNormalForm:
    """Diagonalize the m-row matrix with sparse columns M over the integers
    by unimodular row and column operations, all on the sparse rows.

    Unit pivots are eliminated first, each from the row with the fewest
    entries, its column cleared in one pass: as u * u = 1 for a unit u,
    each row's entry in the pivot column cancels exactly, so it is moved
    into the pivot's U_inv column and only the rest of the pivot row is
    added (see the module docstring). Only if a row is left is the block
    finished, by pivots of least absolute value, divided into their column
    and row with remainder until one stands alone and divides every entry
    left.

    Given upper, the reduction of the map above M in chain_data, the columns
    at upper's unit pivot rows are cleared (see the module docstring): the
    elimination never reads them, and V holds the pivot columns, then a copy
    of upper's U_inv column for each unit pivot of upper, then the other
    columns in order. That V is unimodular, the copies being triangular on
    their pivot rows with +-1 there. Only unit pivots are cleared: a
    residual pivot's U_inv column is a boundary only when its factor is 1,
    and the residual phase's row operations, run both ways between its
    rows, need not leave it triangular with +-1 on its pivot row. They touch
    no unit pivot's U_inv column, so the proofs that rest on those columns
    hold unchanged."""
    cleared = set(upper.unit_rows) if upper else set()
    # column -> rows using it, none for a cleared one
    where = [set() if j in cleared else set(col) for j, col in enumerate(M)]
    rows: list[Column] = [{} for _ in range(m)]
    for j, col in enumerate(M):
        if where[j]:
            for i, x in col.items():
                rows[i][j] = x
    U_inv = [{i: 1} for i in range(m)]
    V = {j: {j: 1} for j in range(len(M)) if j not in cleared}

    def add_rows(p: int, coeffs: Column) -> None:
        # r_k += q r_p for each k: q of coeffs, keeping where up to date; the
        # caller updates U_inv
        rp = rows[p].items()
        for k, q in coeffs.items():
            rk = rows[k]
            for j, x in rp:
                y = rk.get(j, 0) + q * x
                if y:
                    if j not in rk:
                        where[j].add(k)
                    rk[j] = y
                else:
                    del rk[j]
                    where[j].discard(k)

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
        col = where[c]
        # every row with an entry in column c is unpivoted, its U_inv column
        # still a unit vector, so M V[c] is column c as it stands; with the
        # sign of u folded in, the diagonal entry is 1 and that column is the
        # pivot's U_inv column, the inverse of the row operations below.
        # Each is read out of its row: r_k += q r_p with q = -u r_k[c]
        # cancels r_k[c] exactly, as u * u = 1, so only the rest of row p is
        # added, and for most pivots that rest is empty
        U_inv[p] = up = {k: rows[k].pop(c) for k in col}
        if row:
            add_rows(p, {k: -u * up[k] for k in col - {p}})
            # c_l += q c_c clears row p and, column c being zero off the
            # pivot now, changes no other entry
            for l, x in row.items():
                where[l].discard(p)
                _add_multiple(V[l], -u * x, V[c])
            rows[p] = {}
        for k in col:
            if rows[k]:
                heappush(queue, (len(rows[k]), k))
        col.clear()
        pivots.append((p, c))
    unit_rows = tuple(p for p, _ in pivots)
    diagonal = [1] * len(pivots)

    # The residual block. Each pass records a pivot or leaves a remainder
    # below its pivot, so the picks shrink and the passes end. A row
    # operation r_k += q r_p changes U_inv[p] by -q U_inv[k]; it touches only
    # residual rows, so no unit pivot's U_inv column changes.
    while any(rows):
        _, p, c = min((abs(x), i, j) for i, row in enumerate(rows) for j, x in row.items())
        row = rows[p]
        x = row[c]
        for k in sorted(where[c] - {p}):  # divide column c, by row operations
            q = rows[k][c] // x
            add_rows(p, {k: -q})
            _add_multiple(U_inv[p], q, U_inv[k])
        if len(where[c]) > 1:
            continue  # a remainder: pick again
        while True:  # divide row p, by column operations
            for l, y in list(row.items()):
                q = 0 if l == c else y // x
                if q:
                    _add_multiple(V[l], -q, V[c])
                    if y == q * x:
                        del row[l]
                        where[l].discard(p)
                    else:
                        row[l] = y - q * x
            if len(row) > 1:
                break  # a remainder: pick again
            k = next((k for k, rk in enumerate(rows) if any(y % x for y in rk.values())), None)
            if k is None:
                if x < 0:
                    U_inv[p] = {i: -y for i, y in U_inv[p].items()}
                diagonal.append(abs(x))
                rows[p] = {}
                where[c].discard(p)
                pivots.append((p, c))
                break
            # for the divisor chain x must divide every entry left; row k
            # holds one it does not, which leaves a remainder in row p
            add_rows(k, {p: 1})
            _add_multiple(U_inv[k], -1, U_inv[p])

    lead_rows = [p for p, _ in pivots]
    row_order = lead_rows + sorted(set(range(m)).difference(lead_rows))
    lead = [V.pop(c) for _, c in pivots]  # the rest of V stays in column order
    kernel = [dict(u) for u in upper.U_inv[: len(upper.unit_rows)]] if upper else []
    return SmithNormalForm(
        (m, len(M)),
        tuple(diagonal),
        [U_inv[i] for i in row_order],
        lead + kernel + list(V.values()),
        unit_rows,
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


def chain_data(X: DeltaComplex) -> list[tuple[list[Column], SmithNormalForm]]:
    """Boundary maps (augmented at dimension zero) with their reductions,
    computed from the top dimension down, each map by one elimination with
    the unit pivot rows of the one above it cleared. The reductions are
    certificates only when consecutive maps compose to zero."""
    data = []
    upper = None
    for n in range(X.dim, -1, -1):
        M = boundary_matrix(X, n)
        upper = smith_normal_form(M, boundary_rows(X, n), upper)
        data.append((M, upper))
    return data[::-1]


def check_composition(data: list[tuple[list[Column], SmithNormalForm]]) -> None:
    """Raise unless consecutive maps of chain_data compose to zero: the
    lower map times each column of the upper one is the sparse product
    _product_is with d = 0, the same one the certificates are read by."""
    for (low, _), (high, _) in zip(data, data[1:]):
        for col in high:
            if not _product_is(low, col, 0, {}):
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
