"""Delta-complex gluing data: word complexes, collapses, subdivision, exports.

A complex is its codimension-one face table over opaque integer cell ids:
faces[c][i] is the cell obtained by deleting position i (0-based) of c.
The grading is read off the table, since a d-cell has d + 1 faces for
d >= 1 and a vertex has none. All higher boundary maps arise by composing
single deletions, which is unambiguous once the simplicial identities
d_i d_j = d_{j-1} d_i (i < j) hold; validate() checks them directly.
A word complex is built in one walk of the word's subword automaton
(words.subword_levels), which hands each subword over with its prefix's
place, so each cell's faces are read off its prefix's faces with no
subword sliced or hashed. The face table is the only incidence data a
complex keeps, and nothing changes a complex after it is built:
Collapsing, the live view of a partly collapsed complex, counts each
cell's cofaces from the face table itself.

The incidence number of a codimension-one pair is the signed count of
deletions, with position i carrying sign (-1)^(i+1) (the sign of the
order-preserving injection missing 1-based index i+1).

Every cell carries a provenance label: the subword for a word complex, or
a (cell, flag) pair for a barycentric subdivision. Labels are unique per
complex, so derived constructions stay explainable in test failures. Joins,
isomorphism search and elementary collapses on copied subcomplexes are
second routes of the tests, in tests/reference.py, and not part of the
library.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import comb
from typing import Iterable, Optional

from .words import Word, format_word, subword_levels


def _subword_text(label) -> Optional[str]:
    """The label spelled over a-z when format_word can spell it, else None:
    a word's name, a cell's subword in exports."""
    try:
        return format_word(label)
    except (TypeError, ValueError):
        return None


class DeltaComplex:
    """A face table and one label per cell. Each cell's dimension is read off
    its face count, and cells_by_dim groups the cells by dimension in the
    table's order; validate() catches a cell with one face.

    The caller hands both dicts over: the complex keeps them uncopied, and
    nothing may change them afterwards."""

    def __init__(self, faces, labels, name=""):
        self.faces: dict[int, tuple[int, ...]] = faces
        self.labels: dict[int, object] = labels
        if self.labels.keys() != self.faces.keys():
            raise ValueError("the labels must name exactly the face table's cells")
        self.name = name
        self.dim_of: dict[int, int] = {
            c: len(fs) - 1 if fs else 0 for c, fs in self.faces.items()
        }
        self.cells_by_dim: list[list[int]] = [
            [] for _ in range(max(self.dim_of.values(), default=-1) + 1)
        ]
        for c, d in self.dim_of.items():
            self.cells_by_dim[d].append(c)
        self.id_of_label: dict[object, int] = {self.labels[c]: c for c in self.labels}
        if len(self.id_of_label) != len(self.labels):
            raise ValueError("cell labels must be unique")

    # -- basic queries ------------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.cells_by_dim) - 1

    @property
    def n_cells(self) -> int:
        return sum(len(cs) for cs in self.cells_by_dim)

    def cells(self, n: Optional[int] = None) -> list[int]:
        if n is None:
            return [c for cs in self.cells_by_dim for c in cs]
        if 0 <= n <= self.dim:
            return list(self.cells_by_dim[n])
        return []

    def f_vector(self) -> tuple[int, ...]:
        return tuple(len(cs) for cs in self.cells_by_dim)

    def reduced_euler(self) -> int:
        return sum((-1) ** d * len(cs) for d, cs in enumerate(self.cells_by_dim)) - 1

    def restricted_to(self, c: int, keep: Iterable[int]) -> int:
        """Iterated face keeping only the given positions of c.

        Deleting positions in descending order keeps lower indices stable,
        so the result is independent of order by the simplicial identities.
        """
        keep = set(keep)
        for p in range(self.dim_of[c], -1, -1):
            if p not in keep:
                c = self.faces[c][p]
        return c

    def vertices_of(self, c: int) -> tuple[int, ...]:
        return tuple(
            self.restricted_to(c, (i,)) for i in range(self.dim_of[c] + 1)
        )

    # -- structural checks --------------------------------------------------

    def validate(self) -> None:
        """Check dimensions of faces and the simplicial identities."""
        for c, d in self.dim_of.items():
            fs = self.faces[c]
            if len(fs) != (d + 1 if d >= 1 else 0):
                raise ValueError(f"cell {c} of dim {d} has {len(fs)} faces")
            for f in fs:
                if self.dim_of[f] != d - 1:
                    raise ValueError(f"face of {c} has wrong dimension")
        for c, d in self.dim_of.items():
            if d < 2:
                continue
            fs = self.faces[c]
            for j in range(d + 1):
                for i in range(j):
                    if self.faces[fs[j]][i] != self.faces[fs[i]][j - 1]:
                        raise ValueError(
                            f"simplicial identity fails at cell {c}, i={i}, j={j}"
                        )

    def __repr__(self) -> str:
        tag = f" {self.name}" if self.name else ""
        return f"<DeltaComplex{tag} f={self.f_vector()}>"


# ---------------------------------------------------------------------------
# Construction from a word


def build(word: Word) -> DeltaComplex:
    """The complex whose n-cells are the distinct (n+1)-letter subwords.

    The face at deletion position i of a cell is the subword with that
    letter removed; equal subwords index a single cell, which is exactly
    the gluing. Cells are numbered in the order subword_levels walks them:
    by dimension, then lexicographically.

    Faces are grown from the prefix's faces: for u = v.a, deleting
    position i < |u| - 1 gives face_i(v).a, and deleting the last letter
    gives v. The walk hands over the place of v in the level before, so
    v's id p is an offset away. A map per letter a, from the id of x to
    that of x.a, is filled as the cells are met in dimension order, and each
    face x.a of u has dimension |u| - 2, so its entry is there when u is
    reached; a two-letter cell's first face is the letter a itself. A cell
    then costs one lookup per face in its letter's map, and no slice or
    hash of a subword.
    """
    if not word:
        raise ValueError("cannot build a complex from the empty word")
    levels = subword_levels(word)
    labels: dict[int, Word] = {c: u for c, (u, _, _) in enumerate(next(levels))}
    faces: dict[int, tuple[int, ...]] = dict.fromkeys(labels, ())
    letter = {u[0]: c for c, u in labels.items()}  # a -> id of a
    appended = {a: {} for a in letter}  # a -> {id of x: id of x.a}
    start = 0  # the id of the level before's first cell
    for level in levels:
        first = len(labels)
        for c, (u, _, p) in enumerate(level, first):
            p += start
            a = u[-1]
            grow = appended[a]
            grow[p] = c
            labels[c] = u
            fs = faces[p]
            faces[c] = (*map(grow.__getitem__, fs), p) if fs else (letter[a], p)
        start = first
    name = _subword_text(word)
    if name is None:
        name = repr(word)
    return DeltaComplex(faces, labels, name=name)


# ---------------------------------------------------------------------------
# Incidence numbers


def deletion_sign(i: int) -> int:
    """Sign of the face injection missing position i (0-based)."""
    return -1 if i % 2 == 0 else 1


def incidence(X: DeltaComplex, sigma: int, tau: int) -> int:
    """Signed count of deletions carrying tau to sigma."""
    if X.dim_of[sigma] != X.dim_of[tau] - 1:
        raise ValueError("incidence needs dim(sigma) = dim(tau) - 1")
    return sum(deletion_sign(i) for i, f in enumerate(X.faces[tau]) if f == sigma)


# ---------------------------------------------------------------------------
# Partly collapsed complexes and free pairs


class Collapsing:
    """X with the removed cells gone, read live and never copied: up[c]
    counts the deletion slots of live cells that hit c, so a live cell is
    maximal when it is 0. The counts are read from the face table once and
    lowered as cells are removed, so they hold whatever is removed."""

    def __init__(self, X: DeltaComplex):
        self.X = X
        self.removed: set[int] = set()
        self.up = dict.fromkeys(X.dim_of, 0)
        for fs in X.faces.values():
            for f in fs:
                self.up[f] += 1

    def remove(self, *cells: int) -> None:
        """Remove each cell not yet removed, so naming one twice is harmless."""
        for c in cells:
            if c not in self.removed:
                self.removed.add(c)
                for f in self.X.faces[c]:
                    self.up[f] -= 1

    def is_free(self, sigma: int, tau: int) -> bool:
        """The collapse conditions on the live cells: sigma is hit by one
        live deletion slot, a deletion of tau, and tau is maximal."""
        return (
            self.up[sigma] == 1
            and self.X.faces[tau].count(sigma) == 1
            and tau not in self.removed
            and self.up[tau] == 0
        )


def free_pairs(X: DeltaComplex) -> list[tuple[int, int]]:
    """The free pairs (sigma, tau) of X, with nothing removed, by sigma's
    dimension and label: only a maximal tau can have a free face."""
    view = Collapsing(X)
    out = [
        (sigma, tau)
        for tau, n in view.up.items()
        if n == 0
        for sigma in X.faces[tau]
        if view.is_free(sigma, tau)
    ]
    out.sort(key=lambda p: (X.dim_of[p[0]], X.labels[p[0]]))
    return out


# ---------------------------------------------------------------------------
# Barycentric subdivision


@lru_cache(maxsize=None)
def _chains(top: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """The strictly increasing chains of nonempty subsets of top that end at
    top, the flags of a cell when top is its positions: (top,), then every
    chain of a proper nonempty subset with top appended, the subsets by
    size and then in combinations order."""
    return ((top,),) + tuple(
        chain + (top,)
        for size in range(1, len(top))
        for s in combinations(top, size)
        for chain in _chains(s)
    )


def _ordered_partitions(m: int, j: int) -> int:
    """j! S(m, j): the ordered partitions of m positions into j blocks."""
    return sum((-1) ** i * comb(j, i) * (j - i) ** m for i in range(j + 1))


def subdivision_f_vector(f: tuple[int, ...]) -> tuple[int, ...]:
    """The f-vector of barycentric_subdivide(X), predicted from that of X.

    A flag of k + 1 subsets of a d-cell is an ordered partition of its d + 1
    positions into k + 1 blocks, so each d-cell yields (k+1)! S(d+1, k+1)
    cells of dimension k.
    """
    return tuple(
        sum(n * _ordered_partitions(d + 1, k + 1) for d, n in enumerate(f))
        for k in range(len(f))
    )


def barycentric_subdivide(X: DeltaComplex) -> DeltaComplex:
    """Subdivision with one cell per (cell, flag) pair.

    A flag is a chain A_0 < ... < A_n of position subsets of the cell with
    A_n full; its vertices are the barycenters of the faces spanned by the
    A_i. Deleting A_i (i < n) keeps the carrier; deleting A_n re-roots the
    flag at the face spanned by A_{n-1}, with positions renumbered inside
    that face. Realizations agree, so homology must be preserved; callers
    check that rather than assume it.
    """
    keys = []
    for c in X.dim_of:
        for flag in _chains(tuple(range(X.dim_of[c] + 1))):
            keys.append((c, flag))
    keys.sort(key=lambda k: (len(k[1]) - 1, X.labels[k[0]], k[1]))
    ids = {k: i for i, k in enumerate(keys)}
    labels = {}
    faces = {}
    for c, flag in keys:
        i = ids[(c, flag)]
        n = len(flag) - 1
        labels[i] = (X.labels[c], flag)
        if n == 0:
            faces[i] = ()
            continue
        fs = []
        for k in range(n + 1):
            if k < n:
                fs.append(ids[(c, flag[:k] + flag[k + 1 :])])
            else:
                base = flag[n - 1]
                carrier = X.restricted_to(c, base)
                rank = {p: r for r, p in enumerate(base)}
                renamed = tuple(
                    tuple(rank[p] for p in subset) for subset in flag[:n]
                )
                fs.append(ids[(carrier, renamed)])
        faces[i] = tuple(fs)
    return DeltaComplex(faces, labels, name=f"sd({X.name})")


# ---------------------------------------------------------------------------
# Recognition predicates


def is_simplicial(X: DeltaComplex) -> bool:
    """True when every cell has distinct vertices and no two cells of the
    same dimension share a vertex set."""
    seen: set[tuple[int, frozenset[int]]] = set()
    for c, d in X.dim_of.items():
        verts = X.vertices_of(c)
        if len(set(verts)) != len(verts):
            return False
        key = (d, frozenset(verts))
        if key in seen:
            return False
        seen.add(key)
    return True


def is_pseudomanifold(X: DeltaComplex) -> bool:
    """Pure top dimension d >= 1, every (d-1)-cell hit by exactly two
    deletion slots, and the top cells strongly connected through them."""
    d = X.dim
    if d < 1:
        return False
    up = Collapsing(X).up
    for c, dc in X.dim_of.items():
        if dc < d and not up[c]:
            return False  # not pure: a maximal cell below the top dimension
    if any(up[r] != 2 for r in X.cells(d - 1)):
        return False
    top = X.cells(d)
    parent = {c: c for c in top}

    def find(c):
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    first: dict[int, int] = {}  # ridge -> the first top cell met on it
    for t in top:
        for r in X.faces[t]:
            parent[find(t)] = find(first.setdefault(r, t))
    return len({find(c) for c in top}) == 1


# ---------------------------------------------------------------------------
# Exports


def to_json_dict(X: DeltaComplex, word: Optional[Word] = None) -> dict:
    cells = []
    for c in X.cells():
        subword = _subword_text(X.labels[c])
        cells.append({"id": c, "dim": X.dim_of[c], "subword": subword})
    boundary = [
        {"cell": c, "face_index": i, "target": f}
        for c in X.cells()
        for i, f in enumerate(X.faces[c])
    ]
    return {
        "word": format_word(word) if word is not None else None,
        "f_vector": list(X.f_vector()),
        "cells": cells,
        "boundary": boundary,
    }


def to_dot(X: DeltaComplex) -> str:
    """Face poset as a Hasse diagram; edge labels count deletion slots."""
    lines = ["digraph face_poset {", "  rankdir=BT;", "  node [shape=box];"]
    for c in X.cells():
        label = X.labels[c]
        text = _subword_text(label)
        if text is None:
            text = str(label)
        lines.append(f'  c{c} [label="{text} (dim {X.dim_of[c]})"];')
    for c in X.cells():
        mult: dict[int, int] = {}
        for f in X.faces[c]:
            mult[f] = mult.get(f, 0) + 1
        for f in sorted(mult):
            lines.append(f'  c{f} -> c{c} [label="{mult[f]}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
