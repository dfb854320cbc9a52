"""Exact matching for red/blue bipartite graphs.

Decides whether a perfect matching with exactly t red edges exists, via an
exact determinant evaluation grid over the tight-cut block decomposition,
with an enumeration oracle and verification suites alongside.
"""

from .algebra import IntPolynomial, bareiss_det, interpolate, poly_divides
from .decomposition import (
    BraceBlock,
    Leaf,
    Split,
    achievable_sets_compose,
    decompose,
    leaves,
    split_count,
    to_dot,
)
from .errors import ExactMatchingError
from .graphs import (
    BLUE,
    RED,
    ColoredBipartiteGraph,
    band_cyclic,
    band_path,
    biwheel,
    gen_family,
    knn,
    parse_ebg,
    random_graph,
    serialize_ebg,
    validate,
    with_coloring,
)
from .matching import (
    Matching,
    allowed_edges,
    find_tight_set,
    has_perfect_matching,
    is_brace,
    is_matching_covered,
    max_matching,
)
from .solver import (
    BlockReport,
    SolveReport,
    SolverOptions,
    SolveTrace,
    bench,
    extract_witness,
    feasible_red_counts,
    pt_nonvanishing,
    pt_polynomial,
    red_count_bounds,
    solve,
)

__version__ = "0.1.0"

__all__ = [
    "BLUE",
    "RED",
    "BlockReport",
    "BraceBlock",
    "ColoredBipartiteGraph",
    "ExactMatchingError",
    "IntPolynomial",
    "Leaf",
    "Matching",
    "SolveReport",
    "SolveTrace",
    "SolverOptions",
    "Split",
    "achievable_sets_compose",
    "allowed_edges",
    "band_cyclic",
    "band_path",
    "bareiss_det",
    "bench",
    "biwheel",
    "decompose",
    "extract_witness",
    "feasible_red_counts",
    "find_tight_set",
    "gen_family",
    "has_perfect_matching",
    "interpolate",
    "is_brace",
    "is_matching_covered",
    "knn",
    "leaves",
    "max_matching",
    "parse_ebg",
    "poly_divides",
    "pt_nonvanishing",
    "pt_polynomial",
    "random_graph",
    "red_count_bounds",
    "serialize_ebg",
    "solve",
    "split_count",
    "to_dot",
    "validate",
    "with_coloring",
]
