"""Exact algebraic identity checks.

Each function here is a self-contained oracle over the exact polynomial
layer: edge-cofactor expansions, block products, replacement determinants,
masked minors, kernel-built support families, bad-locus operators, row
initial forms, and fiber-geometry checks.  Nothing in this module calls the
solver; the test suite uses these as the independent side of every
cross-check.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from ..algebra import (
    IntPolynomial,
    P_ONE,
    P_ZERO,
    perm_sign,
    poly_det,
    poly_divides,
    poly_product,
)
from ..errors import (
    BadFamily,
    BadParams,
    EdgeNotFound,
    EmptyFamily,
    InvariantError,
    UnsupportedSize,
)
from ..graphs import BLUE, RED, ColoredBipartiteGraph
from ..matching import has_perfect_matching
from .core import PermutationFamily, enumerate_pms, minor_pt, subset_poly, symbolic_pt


# ---------------------------------------------------------------------------
# small polynomial helpers


def linear_form(alpha: int) -> IntPolynomial:
    """The monic linear form lam + alpha."""
    return IntPolynomial.of(alpha, 1)


def _exact_quotient(
    d: IntPolynomial, p: IntPolynomial
) -> Optional[Tuple[IntPolynomial, int]]:
    """p / d as (numerator polynomial, positive integer denominator).

    Returns None when the division is not exact over Q.
    """
    ok, prim, scal = poly_divides(d, p)
    if not ok:
        return None
    if prim is None or scal is None:
        raise InvariantError("exact division returned no quotient")
    return prim * scal.numerator, scal.denominator


def _quotient_equals(q: Tuple[IntPolynomial, int], other: IntPolynomial) -> bool:
    num, den = q
    return other * den == num


def poly_order(d: IntPolynomial, p: IntPolynomial) -> int:
    """Multiplicity of the linear factor d in the nonzero polynomial p."""
    if d.degree != 1:
        raise BadParams(f"poly_order needs a linear factor, got {d}")
    if p.is_zero:
        raise BadParams("poly_order needs a nonzero polynomial")
    order = 0
    cur = p
    while True:
        ok, prim, _ = poly_divides(d, cur)
        if not ok:
            return order
        if prim is None or prim.is_zero:
            raise InvariantError(f"{d} divides {cur} with no nonzero quotient")
        order += 1
        # content is irrelevant for divisibility by a monic linear form
        cur = prim


# ---------------------------------------------------------------------------
# edge cofactor expansion


def check_se_identity(
    g: ColoredBipartiteGraph, e: Tuple[int, int, int], t: int
) -> bool:
    """Single-edge expansion of the target polynomial.

    Removing one edge record e = (r, c, k) from g must satisfy, exactly,

        P_t(g) = P_t(g - e) + (-1)^(r+c) * (lam+r)^c * Q

    where Q is the exact-(t - k) minor polynomial of g - e with row r and
    column c deleted (computed in the original labels).  Multilinearity of
    the determinant makes this hold for every edge, superfluous or not.
    """
    record = (int(e[0]), int(e[1]), int(e[2]))
    if record not in g.edges:
        raise EdgeNotFound(f"edge {record} not present")
    r, c, k = record
    remaining = tuple(x for x in g.edges if x != record)
    h = ColoredBipartiteGraph.make(g.n, remaining, multi=g.multi)

    lhs = symbolic_pt(g, t)
    sign = -1 if (r + c) % 2 else 1
    cofactor = minor_pt(h, (r,), (c,), t - k)
    rhs = symbolic_pt(h, t) + (linear_form(r) ** c) * cofactor * sign
    return lhs == rhs


# ---------------------------------------------------------------------------
# block product


def embed_disjoint(
    g1: ColoredBipartiteGraph, g2: ColoredBipartiteGraph
) -> ColoredBipartiteGraph:
    """Disjoint placement: g1 on rows/cols 0..n1-1, g2 shifted by n1."""
    n1 = g1.n
    edges = list(g1.edges)
    edges.extend((r + n1, c + n1, k) for (r, c, k) in g2.edges)
    return ColoredBipartiteGraph.make(
        g1.n + g2.n, edges, multi=g1.multi or g2.multi
    )


def check_hall_block_product(
    g1: ColoredBipartiteGraph, g2: ColoredBipartiteGraph, t: int
) -> bool:
    """Target polynomial of a two-block graph is the convolution of blocks.

    Both block polynomials are computed in the embedded global labels, so
    the identity is exact, not merely up to relabeling.
    """
    g = embed_disjoint(g1, g2)
    n1 = g1.n
    block1 = tuple(range(n1))
    block2 = tuple(range(n1, g.n))

    lhs = symbolic_pt(g, t)
    rhs = P_ZERO
    for t1 in range(t + 1):
        p1 = minor_pt(g, block2, block2, t1)
        if p1.is_zero:
            continue
        p2 = minor_pt(g, block1, block1, t - t1)
        rhs = rhs + p1 * p2
    return lhs == rhs


# ---------------------------------------------------------------------------
# replacement determinant


def _delete_row_col(
    m: Sequence[Sequence[IntPolynomial]], i: int, j: int
) -> List[List[IntPolynomial]]:
    return [
        [cell for jj, cell in enumerate(row) if jj != j]
        for ii, row in enumerate(m)
        if ii != i
    ]


def cofactor_column(
    m: Sequence[Sequence[IntPolynomial]], c: int
) -> List[IntPolynomial]:
    """Signed cofactors of column c: entry i is (-1)^(i+c) det(minor(i, c))."""
    n = len(m)
    out = []
    for i in range(n):
        minor = poly_det(_delete_row_col(m, i, c))
        out.append(minor if (i + c) % 2 == 0 else -minor)
    return out


def check_replacement_det(
    m: Sequence[Sequence[IntPolynomial]],
    c: int,
    v: Sequence[IntPolynomial],
) -> bool:
    """v . U = det of m with column c replaced by v, via explicit cofactors.

    Also exercises the two degenerate corollaries: replacing by column c
    itself recovers det m, and replacing by any other column gives zero.
    """
    n = len(m)
    if any(len(row) != n for row in m):
        raise BadParams("matrix must be square")
    if len(v) != n or not 0 <= c < n:
        raise BadParams(f"need {n} entries and a column in 0..{n - 1}")

    u = cofactor_column(m, c)

    def replaced(vec: Sequence[IntPolynomial]) -> IntPolynomial:
        rows = [
            [vec[i] if j == c else m[i][j] for j in range(n)] for i in range(n)
        ]
        return poly_det(rows)

    def dot(vec: Sequence[IntPolynomial]) -> IntPolynomial:
        acc = P_ZERO
        for vi, ui in zip(vec, u):
            acc = acc + vi * ui
        return acc

    if dot(v) != replaced(v):
        return False
    det_m = poly_det([list(row) for row in m])
    if dot([m[i][c] for i in range(n)]) != det_m:
        return False
    for d in range(n):
        if d == c:
            continue
        if not dot([m[i][d] for i in range(n)]).is_zero:
            return False
    return True


# ---------------------------------------------------------------------------
# masked minors


@dataclass(frozen=True)
class MaskedMatrix:
    """Square matrix with cells mask[i][j] * (lam + bases[i])^exponents[j]."""

    bases: Tuple[int, ...]
    exponents: Tuple[int, ...]
    mask: Tuple[Tuple[int, ...], ...]

    @staticmethod
    def make(bases, exponents, mask) -> "MaskedMatrix":
        b = tuple(int(x) for x in bases)
        e = tuple(int(x) for x in exponents)
        mk = tuple(tuple(int(x) for x in row) for row in mask)
        m = len(b)
        if len(set(b)) != m:
            raise BadParams("bases must be distinct")
        if len(e) != m or any(e[i] >= e[i + 1] for i in range(m - 1)):
            raise BadParams("exponents must be strictly increasing, one per column")
        if len(mk) != m or any(len(row) != m for row in mk):
            raise BadParams("mask must be m x m")
        if any(x not in (0, 1) for row in mk for x in row):
            raise BadParams("mask entries must be 0/1")
        return MaskedMatrix(b, e, mk)

    @property
    def m(self) -> int:
        return len(self.bases)

    def matrix(self) -> List[List[IntPolynomial]]:
        rows = []
        for i, alpha in enumerate(self.bases):
            mu = linear_form(alpha)
            rows.append(
                [
                    mu ** self.exponents[j] if self.mask[i][j] else P_ZERO
                    for j in range(self.m)
                ]
            )
        return rows

    def support_graph(self) -> ColoredBipartiteGraph:
        edges = [
            (i, j, BLUE)
            for i in range(self.m)
            for j in range(self.m)
            if self.mask[i][j]
        ]
        return ColoredBipartiteGraph.make(self.m, edges)


def check_masked_minor(w: MaskedMatrix) -> bool:
    """det(w) is nonzero exactly when the mask's support graph has a PM.

    Holds over distinct linear-form bases with strictly increasing
    exponents; integer bases break it (see
    find_integer_mask_counterexample), which is what makes the polynomial
    statement worth checking.
    """
    det = poly_det(w.matrix())
    pm = has_perfect_matching(w.support_graph())
    return (not det.is_zero) == pm


def integer_masked_terms(
    bases: Sequence[int], exponents: Sequence[int], mask: Sequence[Sequence[int]]
) -> List[int]:
    """Nonzero signed Leibniz terms of the masked integer matrix."""
    m = len(bases)
    cells = [
        [mask[i][j] * bases[i] ** exponents[j] for j in range(m)]
        for i in range(m)
    ]
    terms = []
    for sigma in itertools.permutations(range(m)):
        prod = perm_sign(sigma)
        for i in range(m):
            prod *= cells[i][sigma[i]]
        if prod:
            terms.append(prod)
    return terms


@dataclass(frozen=True)
class IntegerMaskExample:
    bases: Tuple[int, ...]
    exponents: Tuple[int, ...]
    mask: Tuple[Tuple[int, ...], ...]
    terms: Tuple[int, ...]


def find_integer_mask_counterexample(
    bases: Sequence[int] = (2, 3, 5), exponents: Sequence[int] = (0, 1, 2)
) -> Optional[IntegerMaskExample]:
    """Exhaustive mask search for a singular-but-matchable integer matrix.

    Scans all 0/1 masks of the m x m matrix bases[i]^exponents[j], looking
    for one whose support graph has a perfect matching while the integer
    determinant is 0.  Returns the first hit in lexicographic mask order
    (all-ones first), or None.
    """
    m = len(bases)
    cell_count = m * m
    for bits in range((1 << cell_count) - 1, -1, -1):
        mask = tuple(
            tuple((bits >> (i * m + j)) & 1 for j in range(m))
            for i in range(m)
        )
        support = ColoredBipartiteGraph.make(
            m, [(i, j, BLUE) for i in range(m) for j in range(m) if mask[i][j]]
        )
        if not has_perfect_matching(support):
            continue
        terms = integer_masked_terms(bases, exponents, mask)
        if sum(terms) == 0:
            return IntegerMaskExample(
                tuple(bases), tuple(exponents), mask, tuple(terms)
            )
    return None


# ---------------------------------------------------------------------------
# support families and kernel elimination


@dataclass(frozen=True)
class SupportFamily:
    """Functionals F_e = sum_i signs[i] * coefficients[i] * (lam+bases[i])^e."""

    bases: Tuple[int, ...]
    signs: Tuple[int, ...]
    coefficients: Tuple[IntPolynomial, ...]
    exponents: Tuple[int, ...]

    @staticmethod
    def make(bases, signs, coefficients, exponents) -> "SupportFamily":
        b = tuple(int(x) for x in bases)
        s = tuple(int(x) for x in signs)
        a = tuple(coefficients)
        e = tuple(int(x) for x in exponents)
        if len(set(b)) != len(b) or not b:
            raise BadFamily("bases must be nonempty and distinct")
        if len(s) != len(b) or any(x not in (-1, 1) for x in s):
            raise BadFamily("signs must be +-1, one per base")
        if len(a) != len(b):
            raise BadFamily("one coefficient per base")
        if len(e) != len(b) or any(e[i] >= e[i + 1] for i in range(len(e) - 1)):
            raise BadFamily("exponents must be strictly increasing, one per base")
        if any(x < 0 for x in e):
            raise BadFamily("exponents must be non-negative")
        return SupportFamily(b, s, a, e)

    @property
    def m(self) -> int:
        return len(self.bases)

    def mu(self, i: int) -> IntPolynomial:
        return linear_form(self.bases[i])

    def functional(self, e: int) -> IntPolynomial:
        acc = P_ZERO
        for i in range(self.m):
            acc = acc + self.coefficients[i] * self.signs[i] * (self.mu(i) ** e)
        return acc

    def gap_determinant(self) -> IntPolynomial:
        """det of (mu_i ^ d_j) over all rows j, with gaps d_j = e_j - e_0."""
        e0 = self.exponents[0]
        rows = [
            [self.mu(i) ** (e - e0) for i in range(self.m)]
            for e in self.exponents
        ]
        return poly_det(rows)


def kernel_family(alphas, exponents, h) -> SupportFamily:
    """Build a SupportFamily whose first m-1 functionals vanish identically.

    Coefficients are the signed maximal minors of the gap matrix (the
    kernel of the truncated system), each multiplied by prod_{k != i}
    mu_k^{e_0} and by the seed quotient h.  By construction
    F_{e_j} = 0 for j <= m-2 and F_{e_{m-1}} = (prod mu_k^{e_0}) * G_D * h.
    """
    if isinstance(h, int):
        h = IntPolynomial.of(h)
    if h.is_zero:
        raise BadFamily("seed quotient must be nonzero")
    b = tuple(int(x) for x in alphas)
    e = tuple(int(x) for x in exponents)
    m = len(b)
    if m < 1 or len(set(b)) != m:
        raise BadFamily("bases must be nonempty and distinct")
    if len(e) != m:
        raise BadFamily("need one exponent per base")

    mus = [linear_form(x) for x in b]
    gaps = [x - e[0] for x in e]
    # truncated rows j = 0..m-2 of the gap matrix
    top = [[mus[i] ** d for i in range(m)] for d in gaps[:-1]]
    coeffs = []
    for i in range(m):
        minor = poly_det([[row[k] for k in range(m) if k != i] for row in top])
        tilde = minor if (m - 1 + i) % 2 == 0 else -minor
        others = poly_product(mus[k] ** e[0] for k in range(m) if k != i)
        coeffs.append(tilde * others * h)
    return SupportFamily.make(b, (1,) * m, coeffs, e)


@dataclass(frozen=True)
class GenVandermondeReport:
    m: int
    gap_det: IntPolynomial
    h_numerator: IntPolynomial
    h_denominator: int
    factorization_ok: bool
    gcd_ok: Tuple[bool, ...]
    ka_ok: Optional[bool]
    order_ok: Optional[bool]

    @property
    def all_ok(self) -> bool:
        return (
            self.factorization_ok
            and all(self.gcd_ok)
            and self.ka_ok is not False
            and self.order_ok is not False
        )


def check_gen_vandermonde(fam: SupportFamily) -> GenVandermondeReport:
    """Elimination structure of a family whose lower functionals vanish.

    Requires F_{e_j} = 0 for every j <= m-2 (BadFamily otherwise), then
    reports:
      - factorization_ok: F_{e_{m-1}} = (prod mu_k^{e_0}) * G_D * h divides
        out exactly, with h recovered as numerator/denominator;
      - gcd_ok[r]: mu_r does not divide G_D.  This is instance-dependent:
        gap patterns like (0, 1, 3) over bases 0,1,2 genuinely share a
        linear factor with a base, so the flag is reported, not asserted;
      - ka_ok (m = 2 only): nonzero coefficients force F_{e_1} != 0;
      - order_ok (m = 3 only): multiplicity of mu_1 in F_{e_2} equals
        e_0 + its multiplicity in h (meaningful when gcd_ok[0] holds).
    """
    m = fam.m
    functionals = [fam.functional(e) for e in fam.exponents]
    for j in range(m - 1):
        if not functionals[j].is_zero:
            raise BadFamily(
                f"functional at exponent {fam.exponents[j]} does not vanish"
            )

    e0 = fam.exponents[0]
    gap_det = fam.gap_determinant()
    if gap_det.is_zero:
        raise InvariantError("gap determinant of distinct bases is zero")
    base = poly_product(fam.mu(i) ** e0 for i in range(m)) * gap_det

    f_last = functionals[m - 1]
    quotient = _exact_quotient(base, f_last)
    if quotient is None:
        factorization_ok = False
        h_num, h_den = P_ZERO, 1
    else:
        factorization_ok = True
        h_num, h_den = quotient

    gcd_ok = tuple(
        not poly_divides(fam.mu(i), gap_det)[0] for i in range(m)
    )

    ka_ok: Optional[bool] = None
    if m == 2:
        degenerate = all(c.is_zero for c in fam.coefficients)
        ka_ok = True if degenerate else not f_last.is_zero

    order_ok: Optional[bool] = None
    if m == 3 and not f_last.is_zero and not h_num.is_zero:
        mu1 = fam.mu(0)
        order_ok = poly_order(mu1, f_last) == e0 + poly_order(mu1, h_num)

    return GenVandermondeReport(
        m=m,
        gap_det=gap_det,
        h_numerator=h_num,
        h_denominator=h_den,
        factorization_ok=factorization_ok,
        gcd_ok=gcd_ok,
        ka_ok=ka_ok,
        order_ok=order_ok,
    )


# ---------------------------------------------------------------------------
# bad-locus operators


def _sb2(params: Dict) -> bool:
    alpha, c = int(params["alpha"]), int(params["c"])
    w = params["w"]
    if c < 1:
        raise BadParams(f"need c >= 1, got {c}")
    mu_c = linear_form(alpha) ** c

    def operator(u: IntPolynomial, v: IntPolynomial) -> IntPolynomial:
        return u + mu_c * v

    def characterization(u: IntPolynomial, v: IntPolynomial) -> bool:
        q = _exact_quotient(mu_c, u)
        return q is not None and _quotient_equals(q, -v)

    u, v = mu_c * w, -w
    member = operator(u, v).is_zero and characterization(u, v)
    u2 = u + P_ONE
    perturbed = (not operator(u2, v).is_zero) and not characterization(u2, v)
    return member and perturbed


def _db2(params: Dict) -> bool:
    alpha, beta, c = int(params["alpha"]), int(params["beta"]), int(params["c"])
    h = params["h"]
    if alpha == beta or c < 1:
        raise BadParams(f"need alpha != beta and c >= 1: {alpha}, {beta}, {c}")
    mua_c = linear_form(alpha) ** c
    mub_c = linear_form(beta) ** c

    def operator(u1: IntPolynomial, u2: IntPolynomial) -> IntPolynomial:
        return mua_c * u1 + mub_c * u2

    def characterization(u1: IntPolynomial, u2: IntPolynomial) -> bool:
        # exists h with u1 = -mu_beta^c h and u2 = mu_alpha^c h
        q1 = _exact_quotient(mub_c, -u1)
        q2 = _exact_quotient(mua_c, u2)
        if q1 is None or q2 is None:
            return False
        return q1[0] * q2[1] == q2[0] * q1[1]

    u1, u2 = -(mub_c * h), mua_c * h
    member = operator(u1, u2).is_zero and characterization(u1, u2)
    u2p = u2 + P_ONE
    perturbed = (not operator(u1, u2p).is_zero) and not characterization(u1, u2p)
    return member and perturbed


def _sb3(params: Dict) -> bool:
    alpha = int(params["alpha"])
    c0, c1, c2 = (int(x) for x in params["c"])
    w, s = params["w"], params["s"]
    if not c0 < c1 < c2:
        raise BadParams(f"need c0 < c1 < c2, got {c0}, {c1}, {c2}")
    mu = linear_form(alpha)
    d1, d2 = c1 - c0, c2 - c0

    def operator(u0, u1, u2) -> IntPolynomial:
        return (mu ** c0) * u0 + (mu ** c1) * u1 + (mu ** c2) * u2

    def characterization(u0, u1, u2) -> bool:
        q = _exact_quotient(mu ** d1, u0)
        if q is None:
            return False
        return _quotient_equals(q, -(u1 + (mu ** (d2 - d1)) * u2))

    u0 = (mu ** d1) * w
    u2 = s
    u1 = -w - (mu ** (d2 - d1)) * s
    member = operator(u0, u1, u2).is_zero and characterization(u0, u1, u2)
    u0p = u0 + P_ONE
    perturbed = (not operator(u0p, u1, u2).is_zero) and not characterization(
        u0p, u1, u2
    )
    return member and perturbed


def _db3(params: Dict) -> bool:
    a1, a2, a3 = (int(x) for x in params["alphas"])
    c = int(params["c"])
    a, b = params["a"], params["b"]
    if len({a1, a2, a3}) != 3 or c < 1:
        raise BadParams(f"need distinct alphas and c >= 1: {a1, a2, a3}, {c}")
    m1, m2, m3 = (linear_form(x) ** c for x in (a1, a2, a3))

    def operator(u1, u2, u3) -> IntPolynomial:
        return m1 * u1 + m2 * u2 + m3 * u3

    def characterization(u1, u2, u3) -> bool:
        tail = m2 * u2 + m3 * u3
        q = _exact_quotient(m1, tail)
        return q is not None and _quotient_equals(q, -u1)

    u1 = -(a * m2 + b * m3)
    u2, u3 = a * m1, b * m1
    member = operator(u1, u2, u3).is_zero and characterization(u1, u2, u3)
    u1p = u1 + P_ONE
    perturbed = (not operator(u1p, u2, u3).is_zero) and not characterization(
        u1p, u2, u3
    )
    return member and perturbed


_BAD_LOCUS_SHAPES = {"SB2": _sb2, "DB2": _db2, "SB3": _sb3, "DB3": _db3}


def check_bad_locus(shape: str, params: Dict) -> bool:
    """Verify a vanishing characterization in both directions.

    Builds a member of the shape's zero locus from the seed polynomials in
    params (the operator must vanish and the divisibility/quotient
    characterization must hold), then perturbs one designated coefficient
    by +1 (the operator must become nonzero and the characterization must
    fail).  Shapes:

      SB2: u + mu^c v       with params alpha, c, w
      DB2: mu_a^c u1 + mu_b^c u2   with params alpha, beta, c, h
      SB3: sum mu^{c_i} u_i        with params alpha, c=(c0,c1,c2), w, s
      DB3: sum mu_{a_i}^c u_i      with params alphas=(a1,a2,a3), c, a, b
    """
    if shape not in _BAD_LOCUS_SHAPES:
        raise BadParams(f"unknown bad-locus shape {shape!r}")
    return _BAD_LOCUS_SHAPES[shape](params)


# ---------------------------------------------------------------------------
# row initial forms


def fiber_family(
    g: ColoredBipartiteGraph, t: int, cap: int = 10**6
) -> PermutationFamily:
    """The exact-t fiber of g as a permutation family."""
    members = [
        pm.assignment for pm in enumerate_pms(g, cap) if pm.red_count == t
    ]
    return PermutationFamily.make(g.n, members)


def row_initial_form(fam: PermutationFamily, r: int) -> Tuple[int, int]:
    """Lowest-order data of the family polynomial recentered at -r.

    Returns (k_min, coefficient) where k_min = min sigma(r) over the family
    and coefficient = [u^k_min] P_F(-r + u).  The coefficient is computed
    two ways -- by shifting the full polynomial and by the closed form
    sum over minimizers of sgn(sigma) * prod_{i != r} (i - r)^sigma(i) --
    and the two must agree.  When the minimizer is unique the coefficient
    is nonzero, which certifies P_F != 0.
    """
    if not fam.members:
        raise EmptyFamily("family has no members")
    if not 0 <= r < fam.n:
        raise BadParams(f"row {r} outside 0..{fam.n - 1}")

    k_min = min(sigma[r] for sigma in fam.members)
    minimizers = [sigma for sigma in fam.members if sigma[r] == k_min]

    shifted = subset_poly(fam).shift(-r)
    by_shift = shifted.coeffs[k_min] if k_min < len(shifted.coeffs) else 0

    by_closed_form = 0
    for sigma in minimizers:
        prod = perm_sign(sigma)
        for i, j in enumerate(sigma):
            if i != r:
                prod *= (i - r) ** j
        by_closed_form += prod
    if by_shift != by_closed_form:
        raise InvariantError(f"initial forms {by_shift} != {by_closed_form}")
    if len(minimizers) == 1 and (by_shift == 0 or subset_poly(fam).is_zero):
        raise InvariantError("unique minimizer gave a zero coefficient")
    return k_min, by_shift


# ---------------------------------------------------------------------------
# fiber geometry


def _red_count(sigma: Sequence[int], weights: Sequence[Sequence[int]]) -> int:
    return sum(weights[i][j] for i, j in enumerate(sigma))


def parallelogram_check(
    sigma1: Sequence[int],
    sigma2: Sequence[int],
    sigma3: Sequence[int],
    weights: Sequence[Sequence[int]],
) -> str:
    """Fourth-vertex test: P1 + P3 - P2 as a candidate permutation matrix.

    All three inputs must lie on one weight level t (BadParams otherwise).
    If the combination is a permutation matrix, its weight is checked to
    equal t (InvariantError otherwise) and "SameFiber" is returned;
    otherwise "NotPermutation".
    """
    n = len(sigma1)
    t = _red_count(sigma1, weights)
    if _red_count(sigma2, weights) != t or _red_count(sigma3, weights) != t:
        raise BadParams("inputs must share one level")

    entries = [[0] * n for _ in range(n)]
    for i in range(n):
        entries[i][sigma1[i]] += 1
        entries[i][sigma3[i]] += 1
        entries[i][sigma2[i]] -= 1

    image: List[int] = []
    for i in range(n):
        ones = [j for j in range(n) if entries[i][j] == 1]
        if len(ones) != 1 or any(x not in (0, 1) for x in entries[i]):
            return "NotPermutation"
        image.append(ones[0])
    if sorted(image) != list(range(n)):
        return "NotPermutation"
    if _red_count(image, weights) != t:
        raise InvariantError("combination left the level")
    return "SameFiber"


def affine_closure_membership(
    s: PermutationFamily, weights: Sequence[Sequence[int]]
) -> bool:
    """Is s the full exact-t level of its own support?

    True exactly when s equals every permutation through its support cells
    whose weight matches the members' common weight.  Mixed weights inside
    s immediately fail, since a single level has one weight.
    """
    if s.n > 5:
        raise UnsupportedSize("membership check is exhaustive; n <= 5 only")
    if not s.members:
        raise EmptyFamily("family has no members")

    levels = {_red_count(sigma, weights) for sigma in s.members}
    if len(levels) > 1:
        return False
    t = levels.pop()

    support = [set() for _ in range(s.n)]
    for sigma in s.members:
        for i, j in enumerate(sigma):
            support[i].add(j)

    layer = set()
    for sigma in itertools.permutations(range(s.n)):
        if all(j in support[i] for i, j in enumerate(sigma)):
            if _red_count(sigma, weights) == t:
                layer.add(sigma)
    return layer == set(s.members)
