"""Deterministic exact-matching decision via determinant evaluation.

The edge matrix at integer points (lam, x) has entry x^rho * (lam + i)^j for
an edge (i, j) with rho = 1 for red, 0 for blue (multigraph cells weigh in
as (blues + reds * x) * (lam + i)^j, and 0^0 = 1). Writing D(lam, x) for its
determinant, the coefficient c_t(lam) of x^t collects exactly the perfect
matchings with t red edges, each contributing a signed monomial of total
lam-degree n(n-1)/2. On a brace, c_t is a nonzero polynomial exactly when
some perfect matching has t red edges, and the grid decides that exactly:

  * c_t = 0 outside the exact red-count bounds [t_min, t_max] of the
    assignment prefilter, so D = x^t_min * P(x) with deg P < m =
    t_max - t_min + 1, and the values at x = 1..m give every c_t by one
    inverse Vandermonde matrix;
  * it works modulo the largest primes below 2^31: a nonzero residue of
    c_t at any lam node certifies t;
  * every lam-coefficient of c_t is at most C = coefficient_bound(g), the
    smaller of the row-sum and column-sum products of A_ij =
    mult_ij * (1 + i)^j, which bounds perm(A). If c_t vanishes at all
    n(n-1)/2 + 1 lam nodes modulo each of k primes, each above the degree,
    then every coefficient is divisible by their product; once that product
    exceeds C, c_t = 0.

Every other graph is reduced first. One D(G, M) per subproblem
(matching._elementary) gives either no perfect matching, or the elementary
blocks -- the SCCs of D, which are the connected pieces of the
allowed-edge graph -- or, for a single block, a brace or a tight cut.
Blocks multiply independently (sumset), and each is induced from the
subproblem's own graph: a cell inside one SCC is an arc of it, so it is
allowed, and a single block is its own allowed-edge graph. At a tight cut
(A1, B1), fixing which record crosses splits the rest of the matching into
two independent induced subgraphs, so

  T(G) = union over crossing records (a, b, k) of
         k + T(G[A1 - a, B1]) + T(G[A2, B2 - b])

where the left set depends only on a and the right only on b, so each is
evaluated once per distinct row or column. feasible_red_counts recurses on
this (memoized by the subgraph's records). That recursion is the whole
decision, and the report is its trace: a SolveTrace carries the memo and
records each leaf the recursion settled, in the order it first evaluated
them (a simple brace on the grid is "pure-ASNC", a piece with n <= 2 is
"enumeration"), plus counts of subproblems, memo hits, braces, tight cuts,
enumerated pieces, the grid's modular determinants and the recursion depth.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np
from scipy.optimize import linear_sum_assignment

from .algebra import (
    IntMatrix,
    IntPolynomial,
    certificate_primes,
    det_mod_batch,
    det_rows,
    interpolate,
    inverse_mod,
    reduce_mod,
)
from .errors import BadPrime, InvariantError, NoPerfectMatching
from .graphs import BLUE, RED, ColoredBipartiteGraph, EdgeRecord
from .matching import _elementary, is_brace

_NO_EDGE = 10**6  # assignment sentinel, far above any reachable cost


# ---------------------------------------------------------------------------
# matrix and grid


def build_matrix_at(g: ColoredBipartiteGraph, lam: int, x: int) -> IntMatrix:
    """The edge matrix evaluated at integer (lam, x)."""
    n = g.n
    rows = [[0] * n for _ in range(n)]
    for (i, j), ks in g.cells.items():
        weight = sum(x if k == RED else 1 for k in ks)
        rows[i][j] = weight * (lam + i) ** j
    return IntMatrix.from_rows(rows) if n else IntMatrix(0, 0, ())


def coefficient_bound(g: ColoredBipartiteGraph) -> int:
    """C >= |every lam-coefficient of every x-coefficient c_t of det M|.

    With A_ij = mult_ij * (1 + i)^j (mult_ij records in cell (i, j)), the
    lam-coefficients of each prod_i (lam + i)^sigma(i) are nonnegative,
    since i >= 0, and sum to prod_i (1 + i)^sigma(i). So every coefficient
    is at most perm(A), which is at most the product of A's row sums and
    the product of its column sums.
    """
    rows = [0] * g.n
    cols = [0] * g.n
    for (i, j), ks in g.cells.items():
        a = len(ks) * (1 + i) ** j
        rows[i] += a
        cols[j] += a
    return min(math.prod(rows), math.prod(cols))


# Most int64 matrix entries one batched elimination holds, whatever n and
# the number of nodes: it caps the grid's working memory.
_GRID_BLOCK_ENTRIES = 1 << 15


@functools.lru_cache(maxsize=None)
def _x_inverse(t_min: int, m: int, p: int) -> np.ndarray:
    """V^-1 mod p for V[x - 1][s] = x^(t_min + s), x = 1..m.

    It maps the determinant residues at x = 1..m to the residues of
    c_(t_min + s), s < m. Read-only, since the cache hands it to every caller.
    """
    v = [[pow(x, t_min + s, p) for s in range(m)] for x in range(1, m + 1)]
    inv = np.array(inverse_mod(v, p), dtype=np.int64)
    inv.setflags(write=False)
    return inv


def _coefficient_residues(
    weights: np.ndarray, lams: np.ndarray, inv: np.ndarray, p: int
) -> np.ndarray:
    """c_(t_min + s)(lam) mod p, one row per lam in lams, one column per s.

    weights[x - 1] is the cell weight matrix blue + red * x mod p for
    x = 1..m, and inv is _x_inverse for the same t_min, m and p. The
    matrices at every (lam, x) go through det_mod_batch in blocks of at
    most _GRID_BLOCK_ENTRIES entries.
    """
    m, n = weights.shape[0], weights.shape[1]
    base = (lams[:, None] + np.arange(n, dtype=np.int64)) % p  # (L, n)
    powers = np.ones((len(lams), n, n), dtype=np.int64)  # (lam + i)^j
    for j in range(1, n):
        powers[:, :, j] = reduce_mod(powers[:, :, j - 1] * base, p)
    lam_of = np.repeat(np.arange(len(lams)), m)
    x_of = np.tile(np.arange(m), len(lams))
    dets = np.empty(len(lam_of), dtype=np.int64)
    per = max(1, _GRID_BLOCK_ENTRIES // (n * n))
    for lo in range(0, len(dets), per):
        hi = lo + per
        mats = reduce_mod(powers[lam_of[lo:hi]] * weights[x_of[lo:hi]], p)
        dets[lo:hi] = det_mod_batch(mats, p)
    dets = dets.reshape(len(lams), m)
    coeffs = np.zeros((len(lams), m), dtype=np.int64)
    for x in range(m):
        coeffs = reduce_mod(coeffs + dets[:, x, None] * inv[None, :, x], p)
    return coeffs


@dataclass(frozen=True)
class EvaluationGrid:
    """Integer evaluation nodes covering the solver's degree bounds.

    x runs over 0..n (the x-degree of the determinant is at most n) and lam
    over 0..n(n-1)/2 (every matching monomial has exactly that lam-degree,
    so a coefficient polynomial vanishing on all nodes is zero).
    x_coefficients evaluates exactly at these nodes; nonvanishing_targets
    uses the same lam nodes and x = 1..m modulo certificate primes.
    """

    lam_nodes: Tuple[int, ...]
    x_nodes: Tuple[int, ...]

    @staticmethod
    def for_size(n: int) -> "EvaluationGrid":
        return EvaluationGrid(
            tuple(range(n * (n - 1) // 2 + 1)), tuple(range(n + 1))
        )

    def x_coefficients(self, g: ColoredBipartiteGraph, lam: int) -> list[int]:
        """Exact x-coefficient vector of det M(lam, x), length n+1."""
        n = g.n
        if n == 0:
            return [1]
        pow_table = [
            [(lam + i) ** j for j in range(n)] for i in range(n)
        ]
        dets = []
        for x in self.x_nodes:
            rows = [[0] * n for _ in range(n)]
            for (i, j), ks in g.cells.items():
                weight = sum(x if k == RED else 1 for k in ks)
                if weight:
                    rows[i][j] = weight * pow_table[i][j]
            dets.append(det_rows(rows))
        poly = interpolate(list(zip(self.x_nodes, dets)))
        coeffs = list(poly.coeffs)
        return coeffs + [0] * (n + 1 - len(coeffs))

    def nonvanishing_targets(
        self,
        g: ColoredBipartiteGraph,
        candidates: set[int],
        trace: Optional[SolveTrace] = None,
    ) -> set[int]:
        """Which candidate coefficients c_t are nonzero polynomials in lam.

        c_t = 0 outside red_count_bounds(g), and the x nodes are sized to
        those bounds, never to the candidates. A nonzero residue of c_t at
        any lam node mod any prime certifies t. Pass 1 works mod the first
        prime over lam chunks of doubling size and stops once every
        candidate is certified; pass 2 runs the other certificate primes
        over all lam nodes for the candidates still open. A t still open
        after that is zero mod every prime at every node, so c_t is
        divisible by their product, which exceeds coefficient_bound(g):
        c_t = 0. trace, when given, counts the modular determinants in
        grid_dets.
        """
        bounds = red_count_bounds(g)
        if bounds is None:
            return set()
        t_min, t_max = bounds
        open_ = {t for t in candidates if t_min <= t <= t_max}
        if g.n == 0:
            return open_
        n, m, degree = g.n, t_max - t_min + 1, self.lam_nodes[-1]
        primes = certificate_primes(coefficient_bound(g))
        if min(primes) <= max(degree, m):
            raise BadPrime(
                f"certificate primes must exceed {max(degree, m)}: {primes}"
            )
        blue = np.zeros((n, n), dtype=np.int64)
        red = np.zeros((n, n), dtype=np.int64)
        for (i, j), ks in g.cells.items():
            reds = sum(1 for k in ks if k == RED)
            red[i, j] = reds
            blue[i, j] = len(ks) - reds
        x = np.arange(1, m + 1, dtype=np.int64)
        # lam = 0 turns row 0 into a unit row, so the sweep starts at the top
        lams = np.array(self.lam_nodes[::-1], dtype=np.int64)
        block = max(1, _GRID_BLOCK_ENTRIES // (m * n * n))
        found: set[int] = set()
        dets = 0
        for index, p in enumerate(primes):
            weights = (blue + red * x[:, None, None]) % p
            inv = _x_inverse(t_min, m, p)
            start = 0
            width = block if index else 1  # pass 1 chunks double from one
            while open_ and start < len(lams):
                chunk = lams[start : start + min(width, block)]
                coeffs = _coefficient_residues(weights, chunk, inv, p)
                dets += len(chunk) * m
                hits = {t for t in open_ if coeffs[:, t - t_min].any()}
                found |= hits
                open_ -= hits
                start += len(chunk)
                width *= 2
        if trace is not None:
            trace.counts["grid_dets"] += dets
        return found


def pt_nonvanishing(g: ColoredBipartiteGraph, t: int) -> bool:
    """Is the coefficient of x^t in det M a nonzero polynomial in lam?"""
    if t < 0 or t > g.n:
        return False
    grid = EvaluationGrid.for_size(g.n)
    return t in grid.nonvanishing_targets(g, {t})


def pt_polynomial(g: ColoredBipartiteGraph, t: int) -> IntPolynomial:
    """The exact t-th x-coefficient of det M as a polynomial in lam."""
    if t < 0 or t > g.n:
        return IntPolynomial()
    grid = EvaluationGrid.for_size(g.n)
    points = [
        (lam, grid.x_coefficients(g, lam)[t]) for lam in grid.lam_nodes
    ]
    return interpolate(points)


# ---------------------------------------------------------------------------
# assignment prefilter


def red_count_bounds(
    g: ColoredBipartiteGraph,
) -> Optional[Tuple[int, int]]:
    """Exact (min, max) red count over perfect matchings, or None if no PM.

    Two assignment problems: minimize the number of red-only cells used,
    and minimize blue-only cells (equivalently maximize red). Non-cells get
    a sentinel cost, so an optimum touching the sentinel means no perfect
    matching at all.
    """
    n = g.n
    if n == 0:
        return (0, 0)
    lo = np.full((n, n), _NO_EDGE, dtype=np.int64)
    hi = np.full((n, n), _NO_EDGE, dtype=np.int64)
    for (i, j), ks in g.cells.items():
        lo[i, j] = 0 if BLUE in ks else 1
        hi[i, j] = 0 if RED in ks else 1
    rows, cols = linear_sum_assignment(lo)
    t_min = int(lo[rows, cols].sum())
    if t_min >= _NO_EDGE:
        return None
    rows, cols = linear_sum_assignment(hi)
    t_max = n - int(hi[rows, cols].sum())
    return t_min, t_max


# ---------------------------------------------------------------------------
# sound feasibility recursion


@dataclass(frozen=True)
class BlockReport:
    n: int
    feasible_t: Tuple[int, ...]
    method: str


@dataclass
class SolveTrace:
    """The memo of the feasibility recursion and a record of its work.

    memo maps each subproblem key to its feasible set. blocks lists the
    leaves the recursion settled, one per subproblem, in the order they
    were first evaluated. counts tallies memo misses (subproblems), memo
    hits, braces decided on the grid, tight cuts split, n <= 2 pieces
    enumerated, the modular determinants the grid evaluated (grid_dets,
    summed over primes, lam and x nodes) and the deepest nesting of
    feasible_red_counts calls, memo hits included (depth; the root call
    counts as 1). level is the nesting of the call running now.
    """

    memo: dict = field(default_factory=dict)
    blocks: list[BlockReport] = field(default_factory=list)
    counts: dict[str, int] = field(
        default_factory=lambda: dict.fromkeys(
            (
                "subproblems", "memo_hits", "braces", "tight_cuts",
                "enumerated", "grid_dets", "depth",
            ),
            0,
        )
    )
    level: int = 0

    def settle(self, count: str, method: str, n: int, result: frozenset):
        """Record a leaf decided without a split; returns its result."""
        self.counts[count] += 1
        self.blocks.append(BlockReport(n, tuple(sorted(result)), method))
        return result


def feasible_red_counts(
    g: ColoredBipartiteGraph,
    trace: Optional[SolveTrace] = None,
) -> frozenset:
    """The exact set of achievable red counts over perfect matchings.

    Elementary blocks multiply independently (sumset); a matching-covered
    graph is decided by the brace grid test or recursively through its
    tight-cut crossing records. Every subproblem is induced from the input
    graph, so the recursion only ever evaluates determinant tables on
    simple braces, where fiber-nonemptiness and coefficient nonvanishing
    coincide.
    """
    if trace is None:
        trace = SolveTrace()
    trace.level += 1
    if trace.level > trace.counts["depth"]:
        trace.counts["depth"] = trace.level
    try:
        key = (g.n, g.edges, g.multi)
        if key in trace.memo:
            trace.counts["memo_hits"] += 1
            return trace.memo[key]
        trace.counts["subproblems"] += 1
        trace.memo[key] = result = _feasible(g, trace)
        return result
    finally:
        trace.level -= 1


def _feasible(g: ColoredBipartiteGraph, trace: SolveTrace) -> frozenset:
    n = g.n
    if n == 0:
        return frozenset({0})
    elem = _elementary(g)  # the one D(G, M) of this subproblem
    if elem is None:
        return frozenset()  # no perfect matching
    if len(elem.blocks) > 1:  # the elementary blocks, induced on g itself
        acc = {0}
        for rows, cols in elem.blocks:
            part = feasible_red_counts(g.induced(rows, cols), trace)
            acc = {a + b for a in acc for b in part}
        return frozenset(acc)

    # one block: g is matching-covered, so every record is allowed
    if n <= 2:  # every column order, every record of each matched cell
        result = frozenset(
            sum(1 for k in ks if k == RED)
            for perm in itertools.permutations(range(n))
            for ks in itertools.product(
                *(g.cells.get(cell, ()) for cell in enumerate(perm))
            )
        )
        return trace.settle("enumerated", "enumeration", n, result)

    cert = elem.split_certificate()  # None: g is a brace
    if cert is None:
        grid = EvaluationGrid.for_size(n)
        result = frozenset(
            grid.nonvanishing_targets(g, set(range(n + 1)), trace)
        )
        return trace.settle("braces", "pure-ASNC", n, result)

    # T(G[A1 - a, B1]) depends only on a and T(G[A2, B2 - b]) only on b:
    # each is evaluated once, in the order the crossing records first ask
    trace.counts["tight_cuts"] += 1
    a1s, b1s = cert.rows_a1, cert.cols_b1
    a1, b1 = set(a1s), set(b1s)
    a2 = [r for r in range(n) if r not in a1]
    b2 = [c for c in range(n) if c not in b1]
    lefts: dict[int, frozenset] = {}
    rights: dict[int, frozenset] = {}
    out: set[int] = set()
    for a, b, k in g.edges:
        if a not in a1 or b in b1:
            continue
        lpart = lefts.get(a)
        if lpart is None:
            left = g.induced([r for r in a1s if r != a], b1s)
            lpart = lefts[a] = feasible_red_counts(left, trace)
        if not lpart:
            continue
        rpart = rights.get(b)
        if rpart is None:
            right = g.induced(a2, [c for c in b2 if c != b])
            rpart = rights[b] = feasible_red_counts(right, trace)
        rho = 1 if k == RED else 0
        out |= {rho + x + y for x in lpart for y in rpart}
    return frozenset(out)


# ---------------------------------------------------------------------------
# witness extraction


def extract_witness(
    g: ColoredBipartiteGraph,
    t: int,
    trace: Optional[SolveTrace] = None,
) -> Optional[list[EdgeRecord]]:
    """A perfect matching with exactly t red edges, or None.

    Self-reduction: force row 0 onto each of its records in turn and keep
    the first whose residual graph still reaches the residual target.
    """
    if trace is None:
        trace = SolveTrace()
    if t not in feasible_red_counts(g, trace):
        return None
    return _witness(g, t, trace)


def _witness(g, t, trace) -> list[EdgeRecord]:
    n = g.n
    if n == 0:
        return []
    for c in g.row_adj[0]:
        for k in g.cells[0, c]:
            rho = 1 if k == RED else 0
            rest = g.without([0], [c])
            if t - rho in feasible_red_counts(rest, trace):
                sub = _witness(rest, t - rho, trace)
                lifted = [
                    (r + 1, cc if cc < c else cc + 1, kk)
                    for r, cc, kk in sub
                ]
                return [(0, c, k)] + lifted
    raise InvariantError("feasible target with no extractable witness")


# ---------------------------------------------------------------------------
# solve with its trace


@dataclass(frozen=True)
class SolverOptions:
    want_witness: bool = False


@dataclass(frozen=True)
class SolveReport:
    decision: bool
    n: int
    t: int
    blocks: Tuple[BlockReport, ...]
    counts: dict[str, int]
    witness: Optional[Tuple[EdgeRecord, ...]]
    timings: dict[str, float]

    def to_json_dict(self) -> dict:
        out = {
            "schema": "exactmatch/2",
            "decision": "YES" if self.decision else "NO",
            "n": self.n,
            "t": self.t,
            "blocks": [
                {
                    "n": b.n,
                    "feasible_t": list(b.feasible_t),
                    "method": b.method,
                }
                for b in self.blocks
            ],
            "counts": self.counts,
        }
        if self.witness is not None:
            out["witness"] = [list(rec) for rec in self.witness]
        out["timings"] = self.timings
        return out


def solve(
    g: ColoredBipartiteGraph,
    t: int,
    opts: SolverOptions = SolverOptions(),
) -> SolveReport:
    """Decide whether some perfect matching has exactly t red edges.

    The decision is one run of feasible_red_counts; blocks and counts are
    its trace, taken before any witness extraction adds subproblems.
    Out-of-range targets are legal and decide to NO.
    """
    trace = SolveTrace()
    t0 = time.perf_counter()
    decision = t in feasible_red_counts(g, trace)
    t1 = time.perf_counter()
    blocks, counts = tuple(trace.blocks), dict(trace.counts)

    witness = None
    if decision and opts.want_witness:
        wit = extract_witness(g, t, trace)
        if wit is None:
            raise InvariantError(f"t = {t} decided YES but has no witness")
        witness = tuple(wit)
    t2 = time.perf_counter()

    timings = {
        "decide_ms": round((t1 - t0) * 1000, 3),
        "witness_ms": round((t2 - t1) * 1000, 3),
    }
    return SolveReport(decision, g.n, t, blocks, counts, witness, timings)


# ---------------------------------------------------------------------------
# benchmark


def bench(sizes: list[int], seed: int = 0) -> list[dict]:
    """Random-brace timing sweep: one solve per size, median target."""
    from .graphs import random_graph

    rows = []
    for idx, n in enumerate(sizes):
        g = None
        # escalate density so small sizes terminate (density 1.0 is a brace)
        for attempt in range(80):
            density = (0.5, 0.7, 0.9, 1.0)[min(attempt // 20, 3)]
            cand = random_graph(
                n, density, 0.5, seed=seed * 1000 + idx * 80 + attempt,
                require_pm=True,
            )
            if is_brace(cand):
                g = cand
                break
        if g is None:
            raise NoPerfectMatching(
                f"could not sample a brace at n={n} after 80 tries"
            )
        bounds = red_count_bounds(g)
        if bounds is None:
            raise InvariantError(f"brace sampled at n={n} has no matching")
        t = (bounds[0] + bounds[1]) // 2
        started = time.perf_counter()
        report = solve(g, t)
        elapsed = (time.perf_counter() - started) * 1000
        rows.append(
            {
                "n": n,
                "t": t,
                "decision": "YES" if report.decision else "NO",
                "ms": round(elapsed, 1),
                "timings": report.timings,
            }
        )
    return rows
