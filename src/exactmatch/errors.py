"""Exception types shared across the package.

Every error raised by the library proper derives from ExactMatchingError so
callers (and the CLI) can distinguish domain failures from genuine bugs.
Some exceptions carry payloads: CapExceeded keeps the partial enumeration
that was produced before the cap tripped.
"""

from __future__ import annotations


class ExactMatchingError(Exception):
    """Base class for all library errors."""


# ---------------------------------------------------------------------------
# exact arithmetic


class DuplicateNode(ExactMatchingError):
    """Two interpolation points share the same abscissa."""


class NonIntegerResult(ExactMatchingError):
    """Interpolation produced a polynomial with non-integer coefficients."""


class NotSquare(ExactMatchingError):
    """Determinant of a non-square matrix was requested."""


class ZeroDivisor(ExactMatchingError):
    """Division by the zero polynomial."""


# ---------------------------------------------------------------------------
# graph building and file format


class EbgSyntaxError(ExactMatchingError):
    """Malformed line in an EBG file. Carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class BadVersion(ExactMatchingError):
    """EBG header announced a version this reader does not understand."""


class IndexOutOfRange(ExactMatchingError):
    """Edge endpoint outside 0..n-1."""


class DuplicateEdge(ExactMatchingError):
    """Repeated edge record where the graph does not allow it."""


class BadParams(ExactMatchingError):
    """Family generator called with unusable parameters."""


class BadColor(ExactMatchingError):
    """Edge color other than 0 (blue) or 1 (red)."""


# ---------------------------------------------------------------------------
# matching and decomposition


class NoPerfectMatching(ExactMatchingError):
    """Operation requires a perfect matching but the graph has none."""


class IsBrace(ExactMatchingError):
    """find_tight_set called on a brace: no tight set exists."""


class NotMatchingCovered(ExactMatchingError):
    """Operation requires a matching-covered graph."""


class UnsupportedSize(ExactMatchingError):
    """Exhaustive search refused: instance too large for the stated bound."""


class InvariantError(ExactMatchingError):
    """A result failed the library's own check: a bug, not a bad input."""


class CapExceeded(ExactMatchingError):
    """Enumeration exceeded its cap. .partial holds what was found so far."""

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial if partial is not None else []


# ---------------------------------------------------------------------------
# oracles and verification


class OracleCap(ExactMatchingError):
    """Brute-force oracle invoked beyond its guaranteed-exact size bound."""


class EdgeNotFound(ExactMatchingError):
    """Identity check referenced an edge the graph does not contain."""


class BadPrime(ExactMatchingError):
    """Modular test needs a prime exceeding the degree bound."""


class BadFamily(ExactMatchingError):
    """Support/permutation family violates a structural precondition."""


class EmptyFamily(ExactMatchingError):
    """Family operation needs at least one member."""
