"""Brute-force oracles: matching enumeration, fiber tables, exact target
polynomials, vanishing-subset sweeps, and the randomized modular test.

These are the reference implementations everything else is judged against.
They are written for auditability, not speed, and refuse to run past the
sizes where exhaustive enumeration is honest (CapExceeded / OracleCap).
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from ..algebra import IntPolynomial, P_ZERO, is_probable_prime, perm_sign
from ..errors import BadFamily, BadParams, BadPrime, CapExceeded, UnsupportedSize
from ..graphs import BLUE, RED, ColoredBipartiteGraph
from ..matching import Matching

DEFAULT_ENUM_CAP = 10**6


# ---------------------------------------------------------------------------
# enumeration


def enumerate_pms(
    g: ColoredBipartiteGraph, cap: int = DEFAULT_ENUM_CAP
) -> list[Matching]:
    """All perfect matchings, lexicographic by (column, color) choices.

    In a multigraph, a matched cell carrying both colors yields one matching
    per color record. Raises CapExceeded (with the partial list) past cap.
    """
    n = g.n
    out: list[Matching] = []
    assignment: list[Optional[int]] = [None] * n
    colors: list[Optional[int]] = [None] * n
    used_cols = [False] * n

    def place(row: int) -> None:
        if row == n:
            out.append(Matching(tuple(assignment), tuple(colors)))
            if len(out) > cap:
                raise CapExceeded(
                    f"more than {cap} perfect matchings", partial=out[:cap]
                )
            return
        for col in g.row_adj[row]:
            if used_cols[col]:
                continue
            used_cols[col] = True
            assignment[row] = col
            for k in g.cells[row, col]:
                colors[row] = k
                place(row + 1)
            assignment[row] = None
            colors[row] = None
            used_cols[col] = False

    place(0)
    return out


@dataclass(frozen=True)
class FiberTable:
    """How many perfect matchings hit each red count."""

    counts: dict[int, int]
    total: int


def fiber_table(g: ColoredBipartiteGraph, cap: int = DEFAULT_ENUM_CAP) -> FiberTable:
    counts: dict[int, int] = {}
    total = 0
    for m in enumerate_pms(g, cap):
        counts[m.red_count] = counts.get(m.red_count, 0) + 1
        total += 1
    return FiberTable(dict(sorted(counts.items())), total)


def red_count_set(g: ColoredBipartiteGraph, cap: int = DEFAULT_ENUM_CAP) -> set[int]:
    """The achievable red counts, by exhaustive enumeration."""
    return {m.red_count for m in enumerate_pms(g, cap)}


def red_count_set_dp(g: ColoredBipartiteGraph) -> set[int]:
    """The achievable red counts, by a DP over sets of used columns.

    Rows are placed one layer at a time. After row r, reach[mask] is an
    int bitset with bit k set when rows 0..r can be matched onto exactly
    the columns in mask using k red records. Exact at every size, with no
    cap: the work is bounded by the reachable masks (at most C(n, n/2)
    per layer) rather than by the number of matchings. It reads only
    g.n and g.edges, so it shares no code with the solver.
    """
    n = g.n
    by_row: list[list[Tuple[int, int]]] = [[] for _ in range(n)]
    for r, c, k in g.edges:
        by_row[r].append((1 << c, 1 if k == RED else 0))
    reach = {0: 1}
    for moves in by_row:
        step: dict[int, int] = {}
        for mask, counts in reach.items():
            for bit, red in moves:
                if not mask & bit:
                    step[mask | bit] = step.get(mask | bit, 0) | counts << red
        reach = step
    counts = reach.get((1 << n) - 1, 0)
    return {k for k in range(n + 1) if counts >> k & 1}


# ---------------------------------------------------------------------------
# red-count congruence


def congruence_by_walk(n: int, records) -> Tuple[int, int]:
    """(modulus, residue) with red(M) = residue (mod modulus) for every
    perfect matching M that uses only records, by a spanning walk.

    The reference for solver._congruence, in any record order: an
    adjacency list of all records, then a walk from each unplaced vertex
    in index order (rows 0..n-1, then columns n..2n-1) at potential 0
    gives p(col) - p(row) = red(e) on its tree records; the modulus is the
    gcd of every record's discrepancy red(e) - p(col) + p(row), and the
    residue is sum p(col) - sum p(row), reduced when the modulus is not 0.
    """
    adj: list[list[Tuple[int, int]]] = [[] for _ in range(2 * n)]
    for r, c, k in records:
        rho = 1 if k == RED else 0
        adj[r].append((n + c, rho))
        adj[n + c].append((r, -rho))
    pot: list[Optional[int]] = [None] * (2 * n)
    for root in range(2 * n):
        if pot[root] is not None:
            continue
        pot[root] = 0
        stack = [root]
        while stack:
            v = stack.pop()
            for w, step in adj[v]:
                if pot[w] is None:
                    pot[w] = pot[v] + step
                    stack.append(w)
    modulus = 0
    for r in range(n):
        for c, rho in adj[r]:
            modulus = math.gcd(modulus, rho - pot[c] + pot[r])
    residue = sum(pot[n:]) - sum(pot[:n])
    return modulus, residue % modulus if modulus else residue


# ---------------------------------------------------------------------------
# exact target polynomials


def minor_pt(
    g: ColoredBipartiteGraph,
    del_rows: Sequence[int] = (),
    del_cols: Sequence[int] = (),
    t: int = 0,
    cap: int = DEFAULT_ENUM_CAP,
) -> IntPolynomial:
    """Exact-red-count term of the deleted-minor determinant.

    Signs come from positions inside the minor; monomials keep the original
    labels: a matched cell (i, j) contributes (lam + i)^j. The full-graph
    case (no deletions) is the target polynomial itself.
    """
    dr, dc = set(del_rows), set(del_cols)
    rows = [r for r in range(g.n) if r not in dr]
    cols = [c for c in range(g.n) if c not in dc]
    if len(rows) != len(cols):
        raise BadParams(f"minor must be square: {len(rows)} x {len(cols)}")
    k = len(rows)
    col_pos = {c: p for p, c in enumerate(cols)}

    powers: dict[int, dict[int, IntPolynomial]] = {}

    def lam_power(i: int, j: int) -> IntPolynomial:
        by_row = powers.setdefault(i, {})
        if j not in by_row:
            by_row[j] = IntPolynomial.of(i, 1) ** j
        return by_row[j]

    acc = P_ZERO
    used = [False] * k
    perm_positions: list[int] = [0] * k
    chosen: list[Tuple[int, int, int]] = []
    count = 0

    def place(pos: int, red: int) -> None:
        nonlocal acc, count
        if red > t:
            return
        if pos == k:
            if red != t:
                return
            count += 1
            if count > cap:
                raise CapExceeded(f"more than {cap} matchings in minor")
            term = IntPolynomial.of(perm_sign(perm_positions))
            for i, j, _ in chosen:
                term = term * lam_power(i, j)
            acc = acc + term
            return
        i = rows[pos]
        for j in g.row_adj[i]:
            p = col_pos.get(j)
            if p is None or used[p]:
                continue
            used[p] = True
            perm_positions[pos] = p
            for color in g.cells[i, j]:
                chosen.append((i, j, color))
                place(pos + 1, red + (1 if color == RED else 0))
                chosen.pop()
            used[p] = False

    place(0, 0)
    return acc


def symbolic_pt(
    g: ColoredBipartiteGraph, t: int, cap: int = DEFAULT_ENUM_CAP
) -> IntPolynomial:
    """Signed sum of (lam+i)^{sigma(i)} over perfect matchings with t reds."""
    return minor_pt(g, (), (), t, cap)


# ---------------------------------------------------------------------------
# permutation families


@dataclass(frozen=True)
class PermutationFamily:
    """A set of permutations of 0..n-1, stored as image tuples."""

    n: int
    members: Tuple[Tuple[int, ...], ...]

    @staticmethod
    def make(n: int, members) -> "PermutationFamily":
        canon = tuple(sorted(set(tuple(m) for m in members)))
        for m in canon:
            if sorted(m) != list(range(n)):
                raise BadFamily(f"{m} is not a permutation of 0..{n - 1}")
        return PermutationFamily(n, canon)


def subset_poly(family: PermutationFamily) -> IntPolynomial:
    """Signed sum of the family's monomials (empty family -> zero)."""
    acc = P_ZERO
    powers: dict[Tuple[int, int], IntPolynomial] = {}
    for sigma in family.members:
        term = IntPolynomial.of(perm_sign(sigma))
        for i, j in enumerate(sigma):
            key = (i, j)
            if key not in powers:
                powers[key] = IntPolynomial.of(i, 1) ** j
            term = term * powers[key]
        acc = acc + term
    return acc


# ---------------------------------------------------------------------------
# universal vanishing-subset sweep


@dataclass(frozen=True)
class UniversalReport:
    n: int
    subsets_checked: int
    vanishing_found: int


def _signed_vectors(n: int) -> list[Tuple[int, ...]]:
    """Evaluation vector of each permutation monomial at lam = 0..n(n-1)/2.

    Every monomial has total degree exactly n(n-1)/2, so a signed subset sum
    is the zero polynomial iff its vector sum vanishes at these points.
    """
    top = n * (n - 1) // 2
    vectors = []
    for sigma in itertools.permutations(range(n)):
        s = perm_sign(sigma)
        vec = []
        for lam in range(top + 1):
            v = s
            for i, j in enumerate(sigma):
                v *= (lam + i) ** j
            vec.append(v)
        vectors.append(tuple(vec))
    return vectors


def universal_small_check(n: int) -> UniversalReport:
    """Count nonempty permutation subsets whose signed sum vanishes.

    n = 4 runs meet-in-the-middle over 2^24 subsets; anything larger is
    refused. The expected result for n <= 4 is vanishing_found == 0.
    """
    if not (1 <= n <= 4):
        raise UnsupportedSize("universal sweep implemented for n <= 4")
    vectors = _signed_vectors(n)
    width = len(vectors[0])
    p = len(vectors)

    if p <= 8:
        vanishing = 0
        for mask in range(1, 1 << p):
            total = [0] * width
            m = mask
            while m:
                b = m & -m
                idx = b.bit_length() - 1
                vec = vectors[idx]
                for q in range(width):
                    total[q] += vec[q]
                m ^= b
            if not any(total):
                vanishing += 1
        return UniversalReport(n, (1 << p) - 1, vanishing)

    # meet in the middle: 24 = 12 + 12
    half = p // 2
    left, right = vectors[:half], vectors[half:]

    def all_sums(vecs: list[Tuple[int, ...]]) -> dict[Tuple[int, ...], int]:
        sums: dict[Tuple[int, ...], int] = {}
        for mask in range(1 << len(vecs)):
            total = [0] * width
            m = mask
            while m:
                b = m & -m
                vec = vecs[b.bit_length() - 1]
                for q in range(width):
                    total[q] += vec[q]
                m ^= b
            key = tuple(total)
            sums[key] = sums.get(key, 0) + 1
        return sums

    left_sums = all_sums(left)
    zero_pairs = 0
    for mask in range(1 << len(right)):
        total = [0] * width
        m = mask
        while m:
            b = m & -m
            vec = right[b.bit_length() - 1]
            for q in range(width):
                total[q] += vec[q]
            m ^= b
        need = tuple(-v for v in total)
        zero_pairs += left_sums.get(need, 0)
    # the empty-left + empty-right pair is the one legitimate zero
    return UniversalReport(n, (1 << p) - 1, zero_pairs - 1)


# ---------------------------------------------------------------------------
# randomized modular agreement test


def _det_mod(rows: list[list[int]], p: int) -> int:
    n = len(rows)
    det = 1
    for col in range(n):
        pivot = next(
            (r for r in range(col, n) if rows[r][col] % p != 0), None
        )
        if pivot is None:
            return 0
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        inv = pow(rows[col][col], p - 2, p)
        det = det * rows[col][col] % p
        for r in range(col + 1, n):
            factor = rows[r][col] * inv % p
            if factor:
                for c in range(col, n):
                    rows[r][c] = (rows[r][c] - factor * rows[col][c]) % p
    return det % p


def _matrix_mod(
    g: ColoredBipartiteGraph, lam: int, x: int, p: int
) -> list[list[int]]:
    n = g.n
    rows = [[0] * n for _ in range(n)]
    for (i, j), ks in g.cells.items():
        weight = 0
        for k in ks:
            weight += x if k == RED else 1
        rows[i][j] = weight % p * pow((lam + i) % p, j, p) % p
    return rows


def mvv_test(
    g: ColoredBipartiteGraph,
    t: int,
    prime: int = 1_000_003,
    trials: int = 8,
    seed: int = 0,
) -> bool:
    """Randomized one-sided nonvanishing test for the target coefficient.

    Each trial draws a random lam in F_p and n+1 distinct x points, computes
    the determinant at each, interpolates in x mod p, and looks at the
    coefficient of x^t. A nonzero hit proves the coefficient polynomial is
    not identically zero; all-zero trials prove nothing. The prime must
    exceed n(n-1) so the lam points stay meaningful.
    """
    n = g.n
    if prime <= n * (n - 1) or not is_probable_prime(prime):
        raise BadPrime(f"need a prime above {n * (n - 1)}, got {prime}")
    if t < 0 or t > n:
        return False
    if n == 0:
        return t == 0
    rng = random.Random(seed)
    for _ in range(trials):
        lam = rng.randrange(prime)
        xs = rng.sample(range(prime), n + 1)
        ys = [_det_mod(_matrix_mod(g, lam, x, prime), prime) for x in xs]
        if _lagrange_coeff_mod(xs, ys, t, prime):
            return True
    return False


def _lagrange_coeff_mod(
    xs: Sequence[int], ys: Sequence[int], t: int, p: int
) -> int:
    """Coefficient of x^t of the interpolant through (xs, ys) over F_p."""
    k = len(xs)
    # master(x) = prod (x - xi)
    master = [0] * (k + 1)
    master[0] = 1
    deg = 0
    for xi in xs:
        master[deg + 1] = master[deg]
        for j in range(deg, 0, -1):
            master[j] = (master[j - 1] - xi * master[j]) % p
        master[0] = -xi * master[0] % p
        deg += 1
    coeff = 0
    for xi, yi in zip(xs, ys):
        if yi == 0:
            continue
        b = [0] * k
        b[k - 1] = master[k]
        for j in range(k - 2, -1, -1):
            b[j] = (master[j + 1] + xi * b[j + 1]) % p
        di = 0
        for c in reversed(b):
            di = (di * xi + c) % p
        coeff = (coeff + yi * b[t] % p * pow(di, p - 2, p)) % p
    return coeff % p
