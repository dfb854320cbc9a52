"""Exact integer arithmetic: dense polynomials, interpolation, determinants.

Everything here is exact. Polynomials are dense integer coefficient tuples
stored low-to-high; the zero polynomial has an EMPTY coefficient tuple and
its degree is None (never -1 -- callers must branch on None explicitly).
Determinants use fraction-free Bareiss elimination whose every division is
checked to be exact (NonIntegerResult otherwise, also under python -O).
Interpolation is Lagrange over the rationals with a single common-denominator
clearance at the end; a non-integer result is an error, not a float.

The modular section works in F_p for primes p below 2^31. Residues stay in
[0, p), so a product of two is below 2^62 and a sum or difference of two
products fits numpy int64; there is no floating point and no randomness.
det_mod_batch runs division-free Gaussian elimination on a whole (B, n, n)
stack at once: each step picks the first nonzero pivot per matrix and swaps
it up with its sign (_pivot, a single comparison when no matrix needs a
swap), writes it to a pivot table, and updates row_i <- piv * row_i -
lead * row_k with one reduction, which scales the determinant by piv per
updated row. It does not track that scale inside the loop: after it,
doubling scans of the pivot table (_prefix_products) give the products of
the pivots, and one batch of modular inverses (Montgomery's trick,
inverses_mod) clears them. A zero residue is only a residue: callers that
conclude an integer is zero must first multiply enough primes to exceed a
bound on its size (certificate_primes).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Tuple

import numpy as np

from .errors import (
    BadParams, DuplicateNode, InvariantError, NonIntegerResult, NotSquare,
    ZeroDivisor,
)


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
        if k < 0:
            raise BadParams(f"polynomial power needs k >= 0, got {k}")
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
        if master[0] + x * b[0] != 0:
            raise InvariantError(f"synthetic division by X - {x} left a rest")
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
            if len(row) != n_cols:
                raise NotSquare(
                    f"ragged matrix: rows of {n_cols} and {len(row)} entries"
                )
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
    every Bareiss division is checked exact.
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


# ---------------------------------------------------------------------------
# modular arithmetic

MODULUS_CEILING = 1 << 31  # residues below it keep a*b + c*d inside int64


def is_probable_prime(m: int) -> bool:
    """Miller-Rabin with the first twelve prime bases.

    Deterministic, and exact for every m below 3.3 * 10^24, which covers
    every modulus used here by many orders of magnitude.
    """
    if m < 2:
        return False
    for small in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if m % small == 0:
            return m == small
    d, s = m - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


@functools.lru_cache(maxsize=None)
def _prime_below(m: int) -> int:
    """The largest prime strictly below m (m > 3)."""
    q = m - 1 if m % 2 == 0 else m - 2
    while not is_probable_prime(q):
        q -= 2
    return q


def certificate_primes(bound: int) -> Tuple[int, ...]:
    """The largest primes below 2^31, descending, fewest whose product > bound.

    An integer of absolute value at most bound that is divisible by every
    returned prime is zero.
    """
    primes: list[int] = []
    product = 1
    p = MODULUS_CEILING
    while product <= bound:
        p = _prime_below(p)
        primes.append(p)
        product *= p
    return tuple(primes)


def reduce_mod(a: np.ndarray, p: int) -> np.ndarray:
    """a mod p for an int64 array (a new array), in [0, p) whatever a's sign.

    a - (a // p) * p: numpy divides by a scalar far faster than it takes a
    remainder, and its floor division rounds down, so a negative entry
    lands in [0, p) too.
    """
    return a - a // p * p


def _pivot(
    a: np.ndarray, c: int, negate: np.ndarray, alive: np.ndarray
) -> None:
    """Bring each matrix's pivot for column c up to row c, in place.

    The pivot row is the first at or below c with a nonzero entry in
    column c. A swap flips negate; a matrix with no such row is cleared
    from alive. When every entry (c, c) is nonzero, that one comparison is
    the whole step.
    """
    if a[:, c, c].all():
        return
    idx = np.arange(a.shape[0])
    nonzero = a[:, c:, c] != 0
    offset = nonzero.argmax(axis=1)
    alive &= nonzero[idx, offset]
    swapped = offset != 0
    if not swapped.any():
        return
    other = c + offset
    top = a[:, c].copy()
    a[:, c] = a[idx, other]
    a[idx, other] = top
    negate ^= swapped


def _prefix_products(table: np.ndarray, p: int) -> np.ndarray:
    """Inclusive products mod p down axis 0 of a (k, B) table (a new one).

    Doubling: after the pass of span s, row i holds the product of rows
    i - 2s + 1 .. i, so ceil(log2 k) passes over the whole table do the
    work of k - 1 row-by-row products.
    """
    out = table.copy()
    span = 1
    while span < len(out):
        out[span:] = reduce_mod(out[span:] * out[:-span], p)
        span *= 2
    return out


def det_mod_batch(mats: np.ndarray, p: int) -> np.ndarray:
    """Determinants mod p of a (B, n, n) int64 stack with entries in [0, p).

    Division-free elimination, all B matrices in step. Each step brings the
    pivot of the leading column to the top (_pivot), writes it to a pivot
    table, and replaces the trailing block by piv * row_i - lead_i * top
    row, reduced once: both products are below 2^62, so the difference
    fits int64. Step k multiplies each of the n - 1 - k rows it updates by
    piv_k, so the block it leaves is P_(k+1) = piv_0 ... piv_k times the
    exact one: the true pivots are piv_k / P_k and det = P_n / (P_0 ...
    P_(n-1)), with the last 1 x 1 block as piv_(n-1) and P_0 = 1. That
    scale is cleared once after the loop, from two doubling scans of the
    table and one batch of modular inverses. A matrix with no pivot in some
    column has determinant 0. The stack is not modified. Returns B
    residues in [0, p).
    """
    batch, n = mats.shape[0], mats.shape[1]
    if n == 0:
        return np.ones(batch, dtype=np.int64)
    a = mats.copy()
    negate = np.zeros(batch, dtype=bool)
    alive = np.ones(batch, dtype=bool)
    pivots = np.ones((n + 1, batch), dtype=np.int64)  # row k + 1: piv_k
    for k in range(n - 1):
        _pivot(a, 0, negate, alive)
        pivots[k + 1] = a[:, 0, 0]
        a = reduce_mod(
            a[:, :1, :1] * a[:, 1:, 1:] - a[:, 1:, :1] * a[:, :1, 1:], p
        )
    pivots[n] = a[:, 0, 0]
    alive &= pivots[n] != 0
    prefix = _prefix_products(pivots, p)  # P_0 .. P_n
    lower = _prefix_products(prefix[:n], p)[-1]
    det = reduce_mod(prefix[n] * inverses_mod(lower, p), p)
    det[negate] = reduce_mod(p - det[negate], p)
    det[~alive] = 0
    return det


def inverses_mod(values: np.ndarray, p: int) -> np.ndarray:
    """Elementwise inverses mod p of a 1-D int64 array; a 0 stays 0.

    Montgomery's trick in Python ints: one pow and three products per
    entry, as fast as a batched Fermat power even at 370 entries.
    """
    vals = [v or 1 for v in values.tolist()]
    prefix, acc = [], 1
    for v in vals:
        prefix.append(acc)
        acc = acc * v % p
    inv = pow(acc, -1, p)
    out = [0] * len(vals)
    for i in range(len(vals) - 1, -1, -1):
        out[i] = inv * prefix[i] % p
        inv = inv * vals[i] % p
    res = np.array(out, dtype=np.int64)
    res[values == 0] = 0
    return res
