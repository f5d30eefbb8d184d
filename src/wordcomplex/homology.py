"""Exact integral homology of finite complexes via Smith normal form.

All arithmetic is on Python integers, so entry growth is harmless. The
reduction keeps the inverse of the row transform and the column transform,
giving one certificate identity, M V = U_inv D, which avoids a dense triple
product and so stays cheap enough to check for every matrix a sweep
produces. Both transforms are products of swaps, negations and integer
additions of one line to another, so they are unimodular by construction;
the tests prove it again by determinant.

Reduced homology is realized by an augmentation row of ones at dimension
zero rather than by special-casing connectivity.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import DeltaComplex, deletion_sign

Matrix = list[list[int]]


def identity_matrix(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def matmul(A: Matrix, B: Matrix) -> Matrix:
    """Dense product, skipping zero entries of the left factor."""
    if not A or not B:
        return [[] for _ in A]
    n = len(B[0])
    out = [[0] * n for _ in A]
    for i, row in enumerate(A):
        acc = out[i]
        for k, a in enumerate(row):
            if a:
                brow = B[k]
                for j in range(n):
                    if brow[j]:
                        acc[j] += a * brow[j]
    return out


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


@dataclass
class SmithNormalForm:
    shape: tuple[int, int]
    diagonal: tuple[int, ...]  # positive, each dividing the next
    U_inv: Matrix
    V: Matrix

    @property
    def rank(self) -> int:
        return len(self.diagonal)

    def diagonal_matrix(self) -> Matrix:
        m, n = self.shape
        D = [[0] * n for _ in range(m)]
        for i, d in enumerate(self.diagonal):
            D[i][i] = d
        return D

    def check(self, M: Matrix) -> None:
        """Verify the divisibility chain and M V = U_inv D; raises on any
        failure."""
        for a, b in zip(self.diagonal, self.diagonal[1:]):
            if a <= 0 or b % a:
                raise ArithmeticError("invariant factors fail the divisor chain")
        if self.diagonal and self.diagonal[0] <= 0:
            raise ArithmeticError("invariant factors must be positive")
        D = self.diagonal_matrix()
        if matmul(M, self.V) != matmul(self.U_inv, D):
            raise ArithmeticError("certificate M V = U_inv D fails")


def smith_normal_form(M: Matrix) -> SmithNormalForm:
    """Diagonalize over the integers by unimodular row/column operations,
    picking the minimal-absolute-value pivot to limit entry growth."""
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
    return SmithNormalForm((m, n), diagonal, U_inv, V)


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
        for (M, _), (N, _) in zip(data, data[1:]):
            prod = matmul(M, N)
            if any(any(row) for row in prod):
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
