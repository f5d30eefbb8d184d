"""Complexes of words: exact combinatorial topology of subword identifications.

Build the complex whose simplices are the distinct subwords of a word,
compute its exact integral homology, run the collapsing matchings that
certify its homotopy type, and sweep every small word to cross-check the
classification (contractible or an odd-dimensional sphere).

The package holds what the command line and the sweep run. Second routes
that only the tests compare against (joins and isomorphism search, the
paper's shifted presentations and its matching involution mu, elementary
collapses on copied subcomplexes) live in tests/reference.py.
"""

from .complexes import (
    Collapsing,
    DeltaComplex,
    barycentric_subdivide,
    build,
    free_pairs,
    incidence,
    is_pseudomanifold,
    is_simplicial,
)
from .homology import HomologyProfile, boundary_matrix, reduced_homology, smith_normal_form
from .morse import (
    Matching,
    alternating_collapse,
    full_matching,
    reduce_step,
    reduce_to_core,
    validate_collapsing_order,
)
from .verify import check_tables, sweep
from .words import (
    HomotopyType,
    ReducedForm,
    Word,
    WordClassification,
    canonicalize,
    classify,
    distinct_subwords,
    enumerate_canonical_words,
    euler_direct,
    euler_recursive,
    format_word,
    fundamental_subword,
    is_decomposable,
    parse_word,
    predict_homotopy,
    reduced_form,
    subword_counts,
    xi,
)

__version__ = "0.1.0"

__all__ = [
    "Collapsing",
    "DeltaComplex",
    "HomologyProfile",
    "HomotopyType",
    "Matching",
    "ReducedForm",
    "Word",
    "WordClassification",
    "alternating_collapse",
    "barycentric_subdivide",
    "boundary_matrix",
    "build",
    "canonicalize",
    "check_tables",
    "classify",
    "distinct_subwords",
    "enumerate_canonical_words",
    "euler_direct",
    "euler_recursive",
    "format_word",
    "free_pairs",
    "full_matching",
    "fundamental_subword",
    "incidence",
    "is_decomposable",
    "is_pseudomanifold",
    "is_simplicial",
    "parse_word",
    "predict_homotopy",
    "reduce_step",
    "reduce_to_core",
    "reduced_form",
    "reduced_homology",
    "smith_normal_form",
    "subword_counts",
    "sweep",
    "validate_collapsing_order",
    "xi",
]
