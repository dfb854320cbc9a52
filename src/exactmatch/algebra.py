"""Exact integer arithmetic: dense polynomials, interpolation, determinants.

Everything here is exact. Polynomials are dense integer coefficient tuples
stored low-to-high; the zero polynomial has an EMPTY coefficient tuple and
its degree is None (never -1 -- callers must branch on None explicitly).
Determinants use fraction-free Bareiss elimination whose every division is
checked to be exact (NonIntegerResult otherwise, also under python -O).
Interpolation is Lagrange over the rationals with a single common-denominator
clearance at the end; a non-integer result is an error, not a float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Tuple

from .errors import DuplicateNode, NonIntegerResult, NotSquare, ZeroDivisor


def _exact_div(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if r:
        raise NonIntegerResult(f"inexact division {num} / {den}")
    return q


# ---------------------------------------------------------------------------
# polynomials


@dataclass(frozen=True)
class IntPolynomial:
    """Dense integer polynomial, coefficients low-to-high, no trailing zeros."""

    coeffs: Tuple[int, ...] = ()

    @staticmethod
    def of(*coeffs: int) -> "IntPolynomial":
        return IntPolynomial(_trim(coeffs))

    @staticmethod
    def from_list(coeffs: Iterable[int]) -> "IntPolynomial":
        return IntPolynomial(_trim(tuple(coeffs)))

    @property
    def degree(self) -> Optional[int]:
        """Degree, or None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial(_trim(tuple(out)))

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + (-other)

    def __mul__(self, other) -> "IntPolynomial":
        if isinstance(other, int):
            if other == 0:
                return P_ZERO
            return IntPolynomial(tuple(c * other for c in self.coeffs))
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return P_ZERO
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return IntPolynomial(tuple(out))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "IntPolynomial":
        assert k >= 0
        result = P_ONE
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def shift(self, k: int) -> "IntPolynomial":
        """Compose with a translated variable: returns p(X + k)."""
        if k == 0:
            return self
        # Horner in the shifted variable: p(X+k) built from the top down.
        result = P_ZERO
        xk = IntPolynomial.of(k, 1)
        for c in reversed(self.coeffs):
            result = result * xk + IntPolynomial.of(c)
        return result

    def __repr__(self) -> str:
        return f"IntPolynomial({list(self.coeffs)})"


def _trim(coeffs: Tuple[int, ...]) -> Tuple[int, ...]:
    n = len(coeffs)
    while n and coeffs[n - 1] == 0:
        n -= 1
    return coeffs[:n]


P_ZERO = IntPolynomial()
P_ONE = IntPolynomial((1,))
LAM = IntPolynomial((0, 1))  # the variable itself


def poly_eval(p: IntPolynomial, v: int) -> int:
    """Evaluate at an integer point (Horner)."""
    acc = 0
    for c in reversed(p.coeffs):
        acc = acc * v + c
    return acc


def poly_product(factors: Iterable[IntPolynomial]) -> IntPolynomial:
    acc = P_ONE
    for f in factors:
        acc = acc * f
    return acc


# ---------------------------------------------------------------------------
# interpolation


def interpolate(points: list[tuple[int, int]]) -> IntPolynomial:
    """Exact Lagrange interpolation through integer points.

    Builds the master polynomial prod(X - x_i) once, peels off each factor by
    synthetic division, and clears denominators with one lcm at the end.
    Raises DuplicateNode on a repeated abscissa and NonIntegerResult if the
    interpolant is not an integer polynomial.
    """
    k = len(points)
    if k == 0:
        return P_ZERO
    xs = [x for x, _ in points]
    if len(set(xs)) != k:
        raise DuplicateNode(f"repeated abscissa among {sorted(xs)}")
    if k == 1:
        return IntPolynomial.of(points[0][1])

    # master[j] = coefficient of X^j in prod_i (X - x_i), degree k
    master = [0] * (k + 1)
    master[0] = 1
    deg = 0
    for x in xs:
        master[deg + 1] = master[deg]
        for j in range(deg, 0, -1):
            master[j] = master[j - 1] - x * master[j]
        master[0] = -x * master[0]
        deg += 1

    # L_i = master / (X - x_i) by synthetic division; d_i = L_i(x_i)
    numerators = []
    denominators = []
    for x, _ in points:
        b = [0] * k
        b[k - 1] = master[k]
        for j in range(k - 2, -1, -1):
            b[j] = master[j + 1] + x * b[j + 1]
        assert master[0] + x * b[0] == 0, "synthetic division remainder"
        numerators.append(b)
        denominators.append(_poly_eval_list(b, x))

    common = 1
    for d in denominators:
        common = common * d // math.gcd(common, d)
    common = abs(common)

    acc = [0] * k
    for (_, y), li, di in zip(points, numerators, denominators):
        w = y * _exact_div(common, di)
        if w:
            for j in range(k):
                acc[j] += w * li[j]

    out = []
    for c in acc:
        q, r = divmod(c, common)
        if r != 0:
            raise NonIntegerResult(
                f"coefficient {c}/{common} is not an integer"
            )
        out.append(q)
    return IntPolynomial(_trim(tuple(out)))


def _poly_eval_list(coeffs: list[int], v: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * v + c
    return acc


# ---------------------------------------------------------------------------
# matrices and determinants


@dataclass(frozen=True)
class IntMatrix:
    """Row-major integer matrix."""

    n_rows: int
    n_cols: int
    entries: Tuple[int, ...]

    @staticmethod
    def from_rows(rows: list[list[int]]) -> "IntMatrix":
        n_rows = len(rows)
        n_cols = len(rows[0]) if rows else 0
        flat = []
        for row in rows:
            assert len(row) == n_cols, "ragged matrix"
            flat.extend(row)
        return IntMatrix(n_rows, n_cols, tuple(flat))

    def at(self, i: int, j: int) -> int:
        return self.entries[i * self.n_cols + j]

    def to_rows(self) -> list[list[int]]:
        return [
            list(self.entries[i * self.n_cols : (i + 1) * self.n_cols])
            for i in range(self.n_rows)
        ]


def bareiss_det(m: IntMatrix) -> int:
    """Exact determinant by fraction-free Bareiss elimination."""
    if m.n_rows != m.n_cols:
        raise NotSquare(f"{m.n_rows}x{m.n_cols}")
    return det_rows(m.to_rows())


def det_rows(rows: list[list[int]]) -> int:
    """Bareiss on a list-of-lists (mutated). Internal fast path.

    First nonzero pivot in the column, row swap flips the tracked sign, and
    every Bareiss division is asserted exact.
    """
    n = len(rows)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if rows[k][k] == 0:
            pivot_row = next(
                (r for r in range(k + 1, n) if rows[r][k] != 0), None
            )
            if pivot_row is None:
                return 0
            rows[k], rows[pivot_row] = rows[pivot_row], rows[k]
            sign = -sign
        pivot = rows[k][k]
        for i in range(k + 1, n):
            ri, rk = rows[i], rows[k]
            lead = ri[k]
            for j in range(k + 1, n):
                ri[j] = _exact_div(ri[j] * pivot - lead * rk[j], prev)
            ri[k] = 0
        prev = pivot
    return sign * rows[n - 1][n - 1]


def poly_det(rows: list[list[IntPolynomial]]) -> IntPolynomial:
    """Determinant of a small polynomial matrix by Leibniz expansion.

    Meant for identity checks on matrices of a handful of rows, where the
    n! term count is irrelevant and exactness is everything.
    """
    import itertools

    n = len(rows)
    for row in rows:
        if len(row) != n:
            raise NotSquare("polynomial matrix is not square")
    acc = P_ZERO
    for perm in itertools.permutations(range(n)):
        term = P_ONE
        for i, j in enumerate(perm):
            term = term * rows[i][j]
            if term.is_zero:
                break
        if term.is_zero:
            continue
        acc = acc + (term if perm_sign(perm) > 0 else -term)
    return acc


def perm_sign(perm: Iterable[int]) -> int:
    """Sign of a permutation given as a sequence of images of 0..n-1."""
    perm = list(perm)
    seen = [False] * len(perm)
    sign = 1
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        node = start
        while not seen[node]:
            seen[node] = True
            node = perm[node]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


# ---------------------------------------------------------------------------
# rational-quotient divisibility


def poly_divides(
    d: IntPolynomial, p: IntPolynomial
) -> tuple[bool, Optional[IntPolynomial], Optional[Fraction]]:
    """Does d divide p over Q?

    Returns (divides, quotient, scalar) where quotient is a primitive
    integer polynomial (content 1, positive leading coefficient) and scalar
    is the rational such that p = d * scalar * quotient. On failure the
    last two are None. d == 0 raises ZeroDivisor.
    """
    if d.is_zero:
        raise ZeroDivisor("division by the zero polynomial")
    if p.is_zero:
        return True, P_ZERO, Fraction(1)

    rem = [Fraction(c) for c in p.coeffs]
    dc = d.coeffs
    dd = len(dc) - 1
    lead = Fraction(dc[-1])
    quot = [Fraction(0)] * max(len(rem) - dd, 0)
    while len(rem) - 1 >= dd and rem:
        shift = len(rem) - 1 - dd
        factor = rem[-1] / lead
        quot[shift] = factor
        for j in range(dd + 1):
            rem[shift + j] -= factor * dc[j]
        while rem and rem[-1] == 0:
            rem.pop()
    if rem:
        return False, None, None

    if not any(quot):
        return True, P_ZERO, Fraction(1)
    denom_lcm = 1
    for c in quot:
        denom_lcm = denom_lcm * c.denominator // math.gcd(
            denom_lcm, c.denominator
        )
    ints = [int(c * denom_lcm) for c in quot]
    content = 0
    for c in ints:
        content = math.gcd(content, abs(c))
    if ints[-1] < 0:
        content = -content
    primitive = IntPolynomial(_trim(tuple(_exact_div(c, content) for c in ints)))
    return True, primitive, Fraction(content, denom_lcm)
