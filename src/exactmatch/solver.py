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
    c_t at any lam node certifies t. Every reader of these residues (the
    probe, the grid, the witness chain) runs det_mod_batch or
    inverse_det_mod_batch at x = 1..m and applies V^-1 the same way
    (_apply_v_inverse). The top lam node lam* = n(n-1)/2 is evaluated
    for the probe and the witness in one place (_top_node), and the grid
    takes it as the first chunk of its own sweep unless the recursion's
    probe already did;
  * every lam-coefficient of c_t is at most C = coefficient_bound(g), the
    smaller of the row-sum and column-sum products of A_ij =
    mult_ij * (1 + i)^j, which bounds perm(A). If c_t vanishes at all
    n(n-1)/2 + 1 lam nodes modulo each of k primes, each above the degree,
    then every coefficient is divisible by their product; once that product
    exceeds C, c_t = 0.

Every other graph is reduced first. At most one D(G, M) per subproblem
(matching._elementary; a subproblem its certificates settle builds none)
gives the elementary blocks -- the SCCs of D, which are the connected
pieces of the allowed-edge graph -- or, for a single block, a brace or a
tight cut.
Blocks multiply independently (sumset), and each is induced from the
subproblem's own graph: a cell inside one SCC is an arc of it, so it is
allowed, and a single block is its own allowed-edge graph. At a tight cut
(A1, B1), fixing which record crosses splits the rest of the matching into
two independent induced subgraphs, so

  T(G) = union over crossing records (a, b, k) of
         k + T(G[A1 - a, B1]) + T(G[A2, B2 - b])

where the left set depends only on a and the right only on b, so each is
evaluated once per distinct row or column. feasible_red_counts recurses on
this (memoized by the subgraph's records) as generator steps on an
explicit stack, and each brace's grid is asked only for the t its
certificates left open (below).

Certificates before structure, in every subproblem: exact certificates
that need no zero proof run at the top of every _feasible and read g's
records alone (_certify), so a subproblem they decide never builds
D(G, M). solve asks one question, whether some perfect matching has
exactly t red edges, so the root wants {t} alone, with or without a
witness; every other subproblem wants every t between its bounds, since
its parent needs its whole set. They run in this order and stop once
each wanted t is proved or refuted:

  * bounds: _assignments solves two assignment problems, for a min-red and
    a max-red perfect matching M_lo and M_hi; their red counts are the
    bounds [t_min, t_max], both attained (red_count_bounds). None means no
    perfect matching, and the subproblem returns the empty set; a t
    outside the bounds is NO, and t_min and t_max are YES;
  * exchange: M_lo and M_hi differ in disjoint alternating cycles, each
    with a red gain delta >= 0 (a row that takes one cell in both, blue
    in M_lo and red in M_hi, is a cycle with delta 1), and switching any
    subset of them gives another perfect matching, so t_min plus every
    subset sum of the deltas is achievable (_Exchange, linear in n;
    Berge's cycles, Karzanov's exchange argument); a t in this reach is
    YES;
  * congruence, only when it can drop a wanted t: potentials along a
    spanning tree of each connected component of g's records, with
    p(col) - p(row) = red(e), leave a discrepancy on every other record;
    every perfect matching has red count congruent to sum p(col) -
    sum p(row) modulo the gcd of the discrepancies (equal when it is 0)
    (_congruence). The class holds on every graph, its modulus divides
    every delta and t_min is in it, so it runs only when some wanted t
    still open is not t_min modulo the deltas' gcd; a t off the class is
    NO;
  * probe: c_t at the top lam node mod the first certificate prime
    (_TopNode.hits), one batched elimination when it fits
    _GRID_BLOCK_ENTRIES (_fits); its table of (lam* + i)^j is cached per
    (n, p) (_top_powers). A nonzero residue needs a matching with t red
    edges on any graph, so it is YES; a zero proves nothing, and a brace's
    grid starts below that node mod that prime. When a witness is wanted,
    the root's _top_node is one inverse_det_mod_batch at one more x node
    instead, whose extra coefficient c_(t_min - 1) is exactly zero and
    whose inverse the witness reuses.

A decided subproblem's result is the set its certificates proved: its
whole achievable set below the root, and at the root a set that holds t
exactly when the answer is YES. A subproblem with a wanted t still open
builds its one D(G, M): several elementary blocks are each certified as
subproblems of their own and multiply by sumset, a tight cut recurses,
and a brace hands the t still open to its grid.
Witnesses: extract_witness reduces one row at a time, as a loop. Each
graph it reaches has a start when t is in its exchange's reach (the
switched matching: M_lo with the cycles switched whose deltas sum to t -
t_min, no determinant at all) or its top node fits the probe's guard:
then it goes down a cofactor chain (_brace_witness): M(lam*, x), inverted
once modulo the first certificate prime at the x nodes its bounds need
(an inverted _top_node: the root's from _certify, any other's made when
the witness reaches it, _start_of), gives every record's cofactor along a
row; the first record whose coefficient for the target left is nonzero is
taken, and a rank-one downdate of the inverse's trailing block gives the
next row's cofactors. A nonzero coefficient is a certificate on any
graph, so each step is exact, and a certified start c_t(lam*) != 0 mod p
keeps a qualifying record in every row (the matrix-inverse self-reduction
of Rabin and Vazirani, deterministic here). When the start is not
certified or a cofactor vanishes at an x node, the chain gives up and row
0 is forced onto the first record whose residual graph keeps the residual
target in feasible_red_counts, whose subproblems settle their whole sets.
The witness is checked against the graph.

The report is the trace of whatever decided: a SolveTrace carries the
memo and records each leaf settled, in the order it was first evaluated
(a subproblem decided by certificates is one block named after the one
that decided its last wanted t, "bounds", "exchange", "congruence" or
"probe", with the red counts they proved; a simple brace on the grid is
"pure-ASNC", a piece with n <= 2 is "enumeration"), plus counts of
subproblems, memo hits, braces, tight cuts, enumerated pieces, certified
subproblems, the modular determinants of the grids and the probes, and
the recursion depth. A probe runs only when a wanted t is still open
after the bounds, the exchange and the congruence.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Tuple

import numpy as np
from scipy.optimize import linear_sum_assignment

from .algebra import (
    IntPolynomial,
    certificate_primes,
    det_mod_batch,
    det_rows,
    interpolate,
    inverse_det_mod_batch,
    inverses_mod,
    reduce_mod,
)
from .errors import (
    BadParams, BadPrime, InvariantError, NoPerfectMatching, ZeroDivisor,
)
from .graphs import BLUE, RED, ColoredBipartiteGraph, EdgeRecord, _run
from .matching import _elementary, is_brace

_NO_EDGE = 10**6  # assignment sentinel, far above any reachable cost


# ---------------------------------------------------------------------------
# matrix and grid


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
    mult = g.color_table.sum(axis=0)
    rr, cc = np.nonzero(mult)
    for i, j, k in zip(rr.tolist(), cc.tolist(), mult[rr, cc].tolist()):
        a = k * (1 + i) ** j
        rows[i] += a
        cols[j] += a
    return min(math.prod(rows), math.prod(cols))


# Most int64 matrix entries one batched elimination holds, whatever n and
# the number of nodes: it caps the grid's working memory. The probe's guard
# (_fits) counts the top node's m matrices against it; a witness's
# _top_node stacks m + 1, one more than that guard counts.
_GRID_BLOCK_ENTRIES = 1 << 15


def _fits(n: int, m: int) -> bool:
    """Does a top node's stack of m n x n matrices fit one elimination?"""
    return m * n * n <= _GRID_BLOCK_ENTRIES


def _cell_weights(g: ColoredBipartiteGraph, m: int) -> np.ndarray:
    """blue + red * x for every cell at x = 1..m, shape (m, n, n), int64."""
    blue, red = g.color_table
    x = np.arange(1, m + 1, dtype=np.int64)
    return blue + red * x[:, None, None]


@functools.lru_cache(maxsize=None)
def _x_inverse(t_min: int, m: int, p: int) -> np.ndarray:
    """V^-1 mod p for V[x - 1][s] = x^(t_min + s), x = 1..m; t_min may be < 0.

    It maps the determinant residues at x = 1..m to the residues of
    c_(t_min + s), s < m (p > m keeps the nodes apart). Read-only, since
    the cache hands it to every caller.
    """
    v = [[pow(x, t_min + s, p) for s in range(m)] for x in range(1, m + 1)]
    inv, det = inverse_det_mod_batch(np.array([v], dtype=np.int64), p)
    if not det[0]:
        raise ZeroDivisor(f"x nodes 1..{m} collide mod {p}")
    inv = inv[0]
    inv.setflags(write=False)
    return inv


def _lam_powers(lams: np.ndarray, n: int, p: int) -> np.ndarray:
    """(lam + i)^j mod p for every lam in lams, shape (L, n, n)."""
    base = (lams[:, None] + np.arange(n, dtype=np.int64)) % p  # (L, n)
    powers = np.ones((len(lams), n, n), dtype=np.int64)
    for j in range(1, n):
        powers[:, :, j] = reduce_mod(powers[:, :, j - 1] * base, p)
    return powers


@functools.lru_cache(maxsize=None)
def _top_powers(n: int, p: int) -> np.ndarray:
    """_lam_powers at the top lam node lam* = n(n-1)/2 alone, (1, n, n).

    _top_node evaluates M there. Read-only, since the cache hands it to
    every caller.
    """
    powers = _lam_powers(np.array([n * (n - 1) // 2], dtype=np.int64), n, p)
    powers.setflags(write=False)
    return powers


def _apply_v_inverse(
    inv: np.ndarray, values: np.ndarray, p: int
) -> np.ndarray:
    """Rows of V^-1 applied mod p to residues at the x nodes.

    inv is (s, m), rows of an _x_inverse; values holds the m x nodes on
    axis 0. Each product is reduced before the m terms are summed, and m
    terms below p < 2^31 fit int64. Returns shape (s,) + values.shape[1:].
    """
    inv = inv.reshape(inv.shape + (1,) * (values.ndim - 1))
    return reduce_mod(reduce_mod(inv * values, p).sum(axis=1), p)


def _coefficient_residues(
    weights: np.ndarray, powers: np.ndarray, inv: np.ndarray, p: int
) -> np.ndarray:
    """c_(t_min + s)(lam) mod p, one row per s, one column per lam node.

    weights is _cell_weights at x = 1..m (small counts: each product with
    a power is reduced here), powers the (L, n, n) table of (lam + i)^j
    mod p at L lam nodes (_lam_powers), and inv is _x_inverse for the same
    t_min, m and p.
    The matrices at every (x, lam) go through det_mod_batch, a run of x
    nodes at a time: at most _GRID_BLOCK_ENTRIES entries per block unless
    one x node's L matrices alone exceed it.
    """
    m, (lams, n) = weights.shape[0], powers.shape[:2]
    dets = np.empty((m, lams), dtype=np.int64)
    per = max(1, _GRID_BLOCK_ENTRIES // (lams * n * n))
    for lo in range(0, m, per):
        mats = reduce_mod(powers * weights[lo : lo + per, None], p)
        dets[lo : lo + per] = det_mod_batch(
            mats.reshape(-1, n, n), p
        ).reshape(-1, lams)
    return _apply_v_inverse(inv, dets, p)


@dataclass(frozen=True)
class EvaluationGrid:
    """Integer evaluation nodes covering the solver's degree bounds at size n.

    x runs over 0..n (the x-degree of the determinant is at most n) and lam
    over 0..n(n-1)/2 (every matching monomial has exactly that lam-degree,
    so a coefficient polynomial vanishing on all nodes is zero); both node
    tuples follow from n. x_coefficients evaluates exactly at these nodes;
    nonvanishing_targets uses the same lam nodes and x = 1..m modulo
    certificate primes. Both raise BadParams on a graph of another size.
    """

    n: int

    @staticmethod
    def for_size(n: int) -> "EvaluationGrid":
        return EvaluationGrid(n)

    @property
    def lam_nodes(self) -> Tuple[int, ...]:
        return tuple(range(self.n * (self.n - 1) // 2 + 1))

    @property
    def x_nodes(self) -> Tuple[int, ...]:
        return tuple(range(self.n + 1))

    def x_coefficients(self, g: ColoredBipartiteGraph, lam: int) -> list[int]:
        """Exact x-coefficient vector of det M(lam, x), length n+1."""
        n = g.n
        if n != self.n:
            raise BadParams(f"grid for n = {self.n} given n = {n}")
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
        any lam node mod any prime certifies t. Each prime sweeps the lam
        nodes from the top down, in chunks of as many as one batched
        elimination holds, and stops once every candidate is certified;
        the first prime's first chunk is the top node alone, the one
        _top_node evaluates, since a nonzero c_t is almost always nonzero
        there. A t still open after every prime is zero mod each of them at
        every node, so c_t is divisible by their product, which exceeds
        coefficient_bound(g): c_t = 0.

        trace, when given, is the recursion's: it counts the modular
        determinants in grid_dets, and g is a brace whose probe (_certify)
        evaluated the top node mod the first prime whenever it fit one
        elimination (_fits) and hands over only the t it missed, which are
        zero there. The first prime then starts below the top node.
        """
        n = g.n
        if n != self.n:
            raise BadParams(f"grid for n = {self.n} given n = {n}")
        bounds = red_count_bounds(g)
        if bounds is None:
            return set()
        t_min, t_max = bounds
        open_ = {t for t in candidates if t_min <= t <= t_max}
        if n == 0 or not open_:
            return open_
        m, degree = t_max - t_min + 1, n * (n - 1) // 2
        primes = certificate_primes(coefficient_bound(g))
        if min(primes) <= max(m, degree):
            raise BadPrime(
                f"certificate primes must exceed {max(m, degree)}: {primes}"
            )
        # lam = 0 turns row 0 into a unit row, so the sweep starts at the
        # top; a t still open after the top node is almost always a zero,
        # which needs every node anyway
        lams = np.arange(degree, -1, -1, dtype=np.int64)
        block = max(1, _GRID_BLOCK_ENTRIES // (m * n * n))
        probed = trace is not None and _fits(n, m)
        dets = 0
        found: set[int] = set()
        weights = _cell_weights(g, m)
        for p in primes:
            inv = _x_inverse(t_min, m, p)
            start, size = 0, block
            if p == primes[0]:
                start, size = (1, block) if probed else (0, 1)
            while open_ and start < len(lams):
                chunk = lams[start : start + size]
                powers = _lam_powers(chunk, n, p)
                coeffs = _coefficient_residues(weights, powers, inv, p)
                dets += len(chunk) * m
                hits = {t for t in open_ if coeffs[t - t_min].any()}
                found |= hits
                open_ -= hits
                start, size = start + len(chunk), block
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

    The red counts of the two optimal matchings of _assignments.
    """
    found = _assignments(g)
    if found is None:
        return None
    _, lo_reds, _, hi_reds = found
    return sum(lo_reds), sum(hi_reds)


# Assignment costs by cell code, blue + 2 * red (0: no record, 1: blue,
# 2: red, 3: both): red-only cells cost 1 for the min-red matching,
# blue-only cells for the max-red one, and a non-cell a sentinel
_LO_COST = np.array([_NO_EDGE, 0, 1, 0])
_HI_COST = np.array([_NO_EDGE, 1, 0, 0])


def _assignments(g: ColoredBipartiteGraph) -> Optional[tuple]:
    """A min-red and a max-red perfect matching of g, or None if it has none.

    Two assignment problems: minimize the number of red-only cells used,
    and minimize blue-only cells (equivalently maximize red). An optimum
    touching a non-cell's sentinel means no perfect matching at all.
    Returns (lo_cols, lo_reds, hi_cols, hi_reds), lists indexed by row:
    the column of each row in the min-red matching and whether its record
    there is red, then the same for the max-red one. A cell with records
    of both colors is blue in the first and red in the second.
    """
    if g.n == 0:
        return [], [], [], []
    blue, red = g.color_table
    code = blue + 2 * red
    rows, lo_cols = linear_sum_assignment(_LO_COST[code])
    lo_codes = code[rows, lo_cols].tolist()
    if 0 in lo_codes:
        return None
    _, hi_cols = linear_sum_assignment(_HI_COST[code])
    hi_codes = code[rows, hi_cols].tolist()
    return (
        lo_cols.tolist(), [c == 2 for c in lo_codes],
        hi_cols.tolist(), [c >= 2 for c in hi_codes],
    )


# ---------------------------------------------------------------------------
# exchange, congruence and probe certificates


class _Exchange(NamedTuple):
    """The alternating cycles of a min-red and a max-red perfect matching.

    lo_cols, lo_reds, hi_cols and hi_reds are _assignments(g). M_lo and
    M_hi differ in disjoint alternating cycles (Berge), and switching any
    subset of them in M_lo gives another perfect matching (the exchange
    argument of Karzanov's exact matching on complete bipartite graphs).
    The red gain delta of a cycle, red(M_hi) - red(M_lo) on its rows, is
    never negative, since M_lo has the fewest red records; a row whose two
    records share a cell and differ in color is a cycle with delta 1.
    cycles holds the rows of each cycle with delta > 0, deltas their
    gains, which sum to t_max - t_min. Every t_min + a subset sum of
    deltas is the red count of a perfect matching, exactly, on any graph.
    """

    t_min: int
    lo_cols: list[int]
    lo_reds: list[int]
    hi_cols: list[int]
    hi_reds: list[int]
    cycles: list[list[int]]
    deltas: list[int]

    @property
    def t_max(self) -> int:
        return self.t_min + sum(self.deltas)

    def _sums(self) -> list[int]:
        """Bit s of entry i is set when s is a subset sum of deltas[:i]."""
        sums = [1]
        for d in self.deltas:
            sums.append(sums[-1] | sums[-1] << d)
        return sums

    def reach(self) -> int:
        """Bit t is set for every t the exchange proves achievable."""
        return self._sums()[-1] << self.t_min

    def witness(self, t: int) -> Optional[list[EdgeRecord]]:
        """M_lo with the cycles switched whose deltas sum to t - t_min, or
        None when t is outside the reach."""
        sums, s = self._sums(), t - self.t_min
        if s < 0 or not sums[-1] >> s & 1:
            return None
        switched = [False] * len(self.lo_cols)
        for i in reversed(range(len(self.deltas))):
            if not sums[i] >> s & 1:  # s needs cycle i
                s -= self.deltas[i]
                for r in self.cycles[i]:
                    switched[r] = True
        return [
            (r, self.hi_cols[r], RED if self.hi_reds[r] else BLUE)
            if switched[r]
            else (r, self.lo_cols[r], RED if self.lo_reds[r] else BLUE)
            for r in range(len(switched))
        ]


def _exchange(lo_cols, lo_reds, hi_cols, hi_reds) -> _Exchange:
    """The cycles of M_lo and M_hi, given as _assignments lists, and their
    red gains; a negative gain raises InvariantError. Linear in n."""
    n = len(lo_cols)
    row_of = [0] * n  # column -> its row in M_lo
    for r, c in enumerate(lo_cols):
        row_of[c] = r
    seen = [False] * n
    cycles: list[list[int]] = []
    deltas: list[int] = []
    for start in range(n):
        if seen[start]:
            continue
        cycle, delta, r = [], 0, start
        while not seen[r]:  # from row r, M_hi's column leads to M_lo's row
            seen[r] = True
            cycle.append(r)
            delta += hi_reds[r] - lo_reds[r]
            r = row_of[hi_cols[r]]
        if delta < 0:
            raise InvariantError(
                f"alternating cycle {cycle} has red gain {delta} < 0: the "
                f"assignment optima are not a min-red and a max-red matching"
            )
        if delta:
            cycles.append(cycle)
            deltas.append(delta)
    return _Exchange(
        sum(lo_reds), lo_cols, lo_reds, hi_cols, hi_reds, cycles, deltas
    )


def _congruence(n: int, records) -> Tuple[int, int]:
    """(modulus, residue) with red(M) = residue (mod modulus) for every
    perfect matching M that uses only records.

    records are (row, col, color) on n rows and n columns. In each
    connected component of the graph they span, a spanning walk gives
    potentials with p(col) - p(row) = red(e) on its tree records; every
    record then has red(e) = p(col) - p(row) + d(e). A perfect matching
    covers every vertex once, so red(M) = sum p(col) - sum p(row) + sum
    of d over M, and modulus = gcd of all d makes the last term vanish
    (equality when modulus = 0). Linear in the records.

    Given g.edges, the class holds for every perfect matching of g on any
    graph. Given the allowed records of g's D(G, M) (d.allowed()), whose
    components are the elementary blocks, it is exact: differences of
    perfect matchings generate the lattice of balanced integer edge
    vectors of a matching-covered bipartite graph (Lovasz), whose red
    values are the multiples of the block's gcd, and blocks combine by
    sumset. The two agree when g is one block, since then every record is
    allowed; otherwise the records' modulus divides the blocks' (their
    cycles include the blocks').
    """
    adj: list[list[Tuple[int, int]]] = [[] for _ in range(2 * n)]
    for r, c, k in records:  # rows 0..n-1, columns n..2n-1
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


def _in_class(lo: int, hi: int, modulus: int, residue: int) -> set[int]:
    """The t in lo..hi with t = residue (mod modulus), or t = residue if 0."""
    if modulus == 0:
        return {residue} if lo <= residue <= hi else set()
    return set(range(lo + (residue - lo) % modulus, hi + 1, modulus))


class _TopNode(NamedTuple):
    """M(lam*, x) mod p at the top lam node and the x nodes 1..len(det).

    det[x - 1] is det A(x), A(x) = M(lam*, x); inv[x - 1] is A(x)^-1 (an
    all-zero inverse where det is 0), or inv is None when no chain reads
    it. The nodes cover the x-powers t_lo .. t_max: t_lo = t_min without
    an inverse, t_min - 1 with one, which every cofactor along a row
    carries (_brace_witness). c_(t_min - 1) = 0 exactly, so both give the
    same hits.
    """

    t_lo: int
    p: int
    det: np.ndarray
    inv: Optional[np.ndarray]

    def hits(self) -> set[int]:
        """The t whose c_t(lam*) is nonzero mod p.

        A nonzero coefficient needs a perfect matching with t red edges on
        any graph, multigraphs included, so every t here is achievable; a
        zero proves nothing.
        """
        inv = _x_inverse(self.t_lo, len(self.det), self.p)
        coeffs = _apply_v_inverse(inv, self.det, self.p)
        return {self.t_lo + int(s) for s in np.flatnonzero(coeffs)}


def _top_node(
    g: ColoredBipartiteGraph, t_min: int, t_max: int, invert: bool = False
) -> _TopNode:
    """M(lam*, x), lam* = n(n-1)/2, modulo the first certificate prime, at
    x = 1..m (det_mod_batch), or with invert at x = 1..m + 1, one
    inverse_det_mod_batch whose inverse starts a witness chain;
    m = t_max - t_min + 1, and t_min, t_max are red_count_bounds(g)."""
    p = certificate_primes(1)[0]
    t_lo = t_min - 1 if invert else t_min
    weights = _cell_weights(g, t_max - t_lo + 1)
    mats = reduce_mod(_top_powers(g.n, p) * weights, p)
    if invert:
        inv, det = inverse_det_mod_batch(mats, p)
        return _TopNode(t_lo, p, det, inv)
    return _TopNode(t_lo, p, det_mod_batch(mats, p), None)


# ---------------------------------------------------------------------------
# sound feasibility recursion


@dataclass(frozen=True)
class BlockReport:
    """One settled leaf: its size, red counts and the method that settled it.

    feasible_t is the leaf's whole achievable set, except at the root of
    solve, which settles only its target: there it is the red counts its
    certificates (method "bounds", "exchange", "congruence" or "probe")
    and, on a brace, its grid proved, all achievable, with the target
    among them exactly when the answer is YES.
    """

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
    enumerated, subproblems settled by their certificates (certified), the
    modular determinants the grid and the probes evaluated (grid_dets,
    summed over primes, lam and x nodes) and the deepest nesting of
    subproblems, memo hits included (depth; the root counts as 1).
    target is the t that solve asks; the next subproblem, the root, takes
    it (and clears it), so its certificates stop once t is decided, and
    the root keeps in memo, under its key, only the red counts it proved,
    which only extract_witness's guard reads, for the same t. Every other
    subproblem, and every subproblem of a trace without a target, settles
    its whole set. want_witness is set when solve wants one: the root then
    inverts its top node, so its probe's elimination also starts the
    cofactor chain. chain_starts maps the root's memo key to the start its
    _certify kept: its _Exchange when target is in the reach, else that
    inverted _top_node; every other graph the witness reaches gets its
    start on demand (_start_of).
    """

    memo: dict = field(default_factory=dict)
    chain_starts: dict = field(default_factory=dict)
    blocks: list[BlockReport] = field(default_factory=list)
    counts: dict[str, int] = field(
        default_factory=lambda: dict.fromkeys(
            (
                "subproblems", "memo_hits", "braces", "tight_cuts",
                "enumerated", "certified", "grid_dets", "depth",
            ),
            0,
        )
    )
    target: Optional[int] = None
    want_witness: bool = False

    def settle(self, count: str, method: str, n: int, result: frozenset):
        """Record a leaf decided without a split; returns its result."""
        self.counts[count] += 1
        self.blocks.append(BlockReport(n, tuple(sorted(result)), method))
        return result


def _certify(
    g: ColoredBipartiteGraph, trace: SolveTrace, t: Optional[int]
) -> Optional[Tuple[set[int], set[int], Optional[str]]]:
    """None if g has no perfect matching, else (proved, open, method).

    The wanted set is {t}, or every t between g's bounds when t is None
    (every subproblem but the root of solve). Every certificate here reads
    g's records alone, so none builds D(G, M), and they stop as soon as
    each wanted t is proved or refuted, in this order:

      * bounds: the red counts of the two assignment optima are the
        attained bounds, so a t outside [t_min, t_max] is NO and t_min and
        t_max are YES;
      * exchange: every t in their _Exchange's reach is YES;
      * congruence: g's records put every perfect matching in one class,
        which holds on every graph; a t off it is NO. Its modulus divides
        every cycle's gain, and t_min is in the class, so it runs only when
        some wanted t still open is not t_min modulo the gains' gcd, the
        one case it can drop a t;
      * probe: when its m determinants fit one batched elimination
        (_fits), g's one _top_node; every t among its hits is YES, and the
        report counts m determinants.

    proved is every red count the certificates run so far proved: the
    exchange's reach, and the probe's hits when it ran. open is the wanted
    t neither proved nor refuted; when it is empty, method names the
    certificate that decided the last of them, and _feasible settles g as
    one block of proved (with t None, g's whole achievable set). Otherwise
    method is None and _feasible goes on to D with open.

    The root of solve with a witness (trace.want_witness) keeps its start:
    the _Exchange when t is in the reach, whose switched matching is the
    witness, else its _top_node, inverted at one more x node for the
    cofactor chain.
    """
    found = _assignments(g)
    if found is None:
        return None
    exchange = _exchange(*found)
    t_min, t_max = exchange.t_min, exchange.t_max
    reach = exchange.reach()
    proved = {s for s in range(t_min, t_max + 1) if reach >> s & 1}
    keep = t is not None and trace.want_witness  # the root of solve's start
    if keep and t in proved:
        trace.chain_starts[_memo_key(g)] = exchange
    open_ = set(range(t_min + 1, t_max))
    if t is not None:
        open_ &= {t}
    if not open_:
        return proved, open_, "bounds"
    open_ -= proved
    if not open_:
        return proved, open_, "exchange"
    gains = math.gcd(*exchange.deltas)
    if any((s - t_min) % gains for s in open_):
        open_ &= _in_class(t_min, t_max, *_congruence(g.n, g.edges))
        if not open_:
            return proved, open_, "congruence"
    m = t_max - t_min + 1
    if _fits(g.n, m):
        top = _top_node(g, t_min, t_max, invert=keep)
        if keep:
            trace.chain_starts[_memo_key(g)] = top
        hits = top.hits()
        proved |= hits
        open_ -= hits
        trace.counts["grid_dets"] += m
        if not open_:
            return proved, open_, "probe"
    return proved, open_, None


def _memo_key(g: ColoredBipartiteGraph) -> tuple:
    return g.n, g.edges, g.multi


def feasible_red_counts(
    g: ColoredBipartiteGraph,
    trace: Optional[SolveTrace] = None,
) -> frozenset:
    """The exact set of achievable red counts over perfect matchings.

    Every subproblem runs its certificates first (_certify) and settles
    there when they decide its whole set. A trace whose target is set
    (solve's) lets the root stop once they decide that target; its result
    is then the red counts it proved, which hold the target exactly when
    the answer is YES.

    Elementary blocks multiply independently (sumset); a matching-covered
    graph is decided by the brace grid test or recursively through its
    tight-cut crossing records. Every subproblem is induced from the input
    graph, so the recursion only ever evaluates determinant tables on
    simple braces, where fiber-nonemptiness and coefficient nonvanishing
    coincide.
    """
    if trace is None:
        trace = SolveTrace()
    return _run(_subproblem(g, trace, 1))


def _subproblem(g: ColoredBipartiteGraph, trace: SolveTrace, level: int):
    """One subproblem at nesting level (root: 1): memo, then _feasible."""
    if level > trace.counts["depth"]:
        trace.counts["depth"] = level
    key = _memo_key(g)
    if key in trace.memo:
        trace.counts["memo_hits"] += 1
        return trace.memo[key]
    trace.counts["subproblems"] += 1
    result = trace.memo[key] = yield from _feasible(g, trace, level)
    return result


def _feasible(g: ColoredBipartiteGraph, trace: SolveTrace, level: int):
    """g's achievable set, as a generator step of the recursion.

    Every subproblem runs its certificates first (_certify), before any
    structure: one they decide, or one the bounds find without a perfect
    matching, returns without building D(G, M), its result what they
    proved. The root of solve asks them for its target alone; every other
    subproblem for its whole set, since its parent needs every red count
    it has. A subproblem they leave open builds its one D (_elementary):
    its elementary blocks multiply by sumset, each certified as its own
    subproblem; a brace hands the grid the t still open, its result what
    the certificates and the grid proved; a tight cut recurses on its
    crossing records.
    """
    n = g.n
    t, trace.target = trace.target, None  # the root of solve's, taken once
    found = _certify(g, trace, t)
    if found is None:
        return frozenset()  # no perfect matching
    proved, open_, method = found
    if not open_:
        return trace.settle("certified", method, n, frozenset(proved))
    d = _elementary(g)  # the one D(G, M) of a subproblem left open
    if len(d.blocks) > 1:  # the elementary blocks, induced on g itself
        acc = {0}
        for rows, cols in d.blocks:
            part = yield _subproblem(g.induced(rows, cols), trace, level + 1)
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

    cert = d.split_certificate()  # None: g is a brace
    if cert is None:  # the grid proves or refutes what is still open
        grid = EvaluationGrid.for_size(n)
        result = proved | grid.nonvanishing_targets(g, open_, trace)
        return trace.settle("braces", "pure-ASNC", n, frozenset(result))

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
            lpart = lefts[a] = yield _subproblem(left, trace, level + 1)
        if not lpart:
            continue
        rpart = rights.get(b)
        if rpart is None:
            right = g.induced(a2, [c for c in b2 if c != b])
            rpart = rights[b] = yield _subproblem(right, trace, level + 1)
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

    Self-reduction, one row at a time. Each graph it reaches is finished
    from its start when it has one: the switched matching of its exchange
    when t is in the reach, else the cofactor chain of _brace_witness from
    its inverted top node when that fits, which finishes the matching from
    one certified coefficient (the root of solve reuses the start its
    certificates kept; _start_of makes the others). Otherwise, or when the
    chain gives up, row 0 is forced onto each of its records in turn and
    the first whose residual graph still reaches the residual target is
    kept. The result is checked against g before it is returned.
    """
    if trace is None:
        trace = SolveTrace()
    if t not in feasible_red_counts(g, trace):
        return None
    witness = _witness(g, t, trace)
    rows = sorted(r for r, _, _ in witness)
    cols = sorted(c for _, c, _ in witness)
    records = set(g.edges)
    if (
        rows != list(range(g.n))
        or cols != rows
        or not all(rec in records for rec in witness)
        or sum(1 for _, _, k in witness if k == RED) != t
    ):
        raise InvariantError(
            f"witness for t = {t} is not a perfect matching of the graph "
            f"with t red records: {witness}"
        )
    return witness


def _rho(k: int) -> int:
    return 1 if k == RED else 0


def _witness(
    g: ColoredBipartiteGraph, t: int, trace: SolveTrace
) -> list[EdgeRecord]:
    """The self-reduction as a loop: g shrinks by one row per forced record.

    rows and cols map the current g's labels to the input's; a g with a
    start hands the rest of the matching to it: an _Exchange switches its
    cycles, an inverted _top_node goes down _brace_witness.
    """
    rows, cols = list(range(g.n)), list(range(g.n))
    out: list[EdgeRecord] = []
    while g.n:
        start = trace.chain_starts.get(_memo_key(g)) or _start_of(g, t)
        if start is not None:
            chain = (
                start.witness(t) if isinstance(start, _Exchange)
                else _brace_witness(g, t, start)
            )
            if chain is not None:
                return out + [(rows[r], cols[c], k) for r, c, k in chain]
        for c in g.row_adj[0]:
            rest = g.without([0], [c])
            feasible = feasible_red_counts(rest, trace)
            k = next(
                (k for k in g.cells[0, c] if t - _rho(k) in feasible), None
            )
            if k is not None:
                break
        else:
            raise InvariantError("feasible target with no extractable witness")
        out.append((rows.pop(0), cols.pop(c), k))
        g, t = rest, t - _rho(k)
    return out


def _start_of(
    g: ColoredBipartiteGraph, t: int
) -> Optional[_Exchange | _TopNode]:
    """g's witness start, made on demand for a g with a perfect matching:
    its _Exchange when t is in the reach, else its inverted _top_node when
    that fits one elimination, else None, where the row-forcing loop must
    go on."""
    exchange = _exchange(*_assignments(g))
    if exchange.reach() >> t & 1:
        return exchange
    t_min, t_max = exchange.t_min, exchange.t_max
    if _fits(g.n, t_max - t_min + 1):
        return _top_node(g, t_min, t_max, invert=True)
    return None


def _brace_witness(
    g: ColoredBipartiteGraph, t: int, start: _TopNode
) -> Optional[list[EdgeRecord]]:
    """A perfect matching of g with t red records, or None.

    Cofactor self-reduction from start, g's inverted _top_node: A(x) =
    M(lam*, x) inverted modulo p at x = 1..m, m = t_max - t_lo + 1, t_lo =
    t_min - 1. At row r, what is left of A is the minor on rows r.. and
    the columns not yet taken; with B its inverse, its cofactor along row
    r at column c is det * B[c, r]. A record (r, c) of red count rho
    completes every perfect matching of that cofactor's minor, so their
    red counts lie in t_lo - forced .. t_max - forced (forced: red records
    taken so far) and the m x nodes give its coefficients through
    _x_inverse. A nonzero residue of the coefficient of x^(t - forced -
    rho) is a sum over the minor's perfect matchings with that many red
    records, so one exists and the record is safe to take, on any graph.
    By Laplace expansion along row r, the coefficient of det for the
    target left is the sum of those record terms, and the cofactor of the
    record taken is the next det: a nonzero c_t(lam*) mod p carries the
    chain to the last row with no second certificate. The first record
    whose coefficient is nonzero and whose cofactor is nonzero at every x
    node (the next A(x) stays invertible) is taken. B keeps the columns
    taken so far in its leading rows: the taken column's row of B is
    swapped into position r, and only the trailing block, rows and columns
    r + 1.., is downdated by the rank-one deletion formula B - B[:, r]
    B[c, :] / B[c, r], which leaves the inverse of the minor there. start
    is not modified. Returns None, for the row-forcing fallback, when t is
    out of bounds, some A(x) is singular or no record of a row qualifies
    (c_t(lam*) = 0 mod p, or only cofactors that vanish at some node); a
    returned matching is always a witness.
    """
    t_lo, p, det, inv = start
    m = len(det)
    if not t_lo < t < t_lo + m or not det.all():
        return None
    # det holds x^forced * det A(x) (up to sign), so the cofactors it gives
    # carry the x-powers t_lo .. t_max and a record of red count rho needs
    # the coefficient of x^(t - rho) at every row: two rows of V^-1
    basis = _x_inverse(t_lo, m, p)[[t - t_lo, t - t_lo - 1]]
    x = np.arange(1, m + 1, dtype=np.int64)
    inv = inv.copy()
    pos = list(range(g.n))  # column label -> its row of inv
    label = list(range(g.n))  # row of inv -> column label
    out: list[EdgeRecord] = []
    for r in range(g.n):
        first = inv[:, r:, r]  # row r's cofactors are det * first
        weights = reduce_mod(basis * det, p)
        coeffs = _apply_v_inverse(weights, first, p).tolist()  # [rho][pos - r]
        alive = first.all(axis=0).tolist()
        pick = next(
            (
                (c, k)
                for c in g.row_adj[r]
                if pos[c] >= r and alive[pos[c] - r]
                for k in g.cells[r, c]
                if coeffs[_rho(k)][pos[c] - r]
            ),
            None,
        )
        if pick is None:
            return None
        c, k = pick
        out.append((r, c, k))
        q = pos[c]
        if q != r:
            inv[:, [r, q]] = inv[:, [q, r]]
        label[r], label[q] = c, label[r]
        pos[c], pos[label[q]] = r, q
        pivot = inv[:, r, r]
        scale = inverses_mod(pivot, p)[:, None]
        row = reduce_mod(inv[:, r, r + 1 :] * scale, p)
        lead = p - inv[:, r + 1 :, r]
        inv[:, r + 1 :, r + 1 :] = reduce_mod(
            inv[:, r + 1 :, r + 1 :] + lead[:, :, None] * row[:, None], p
        )
        det = reduce_mod(det * pivot, p)
        if _rho(k):
            det = reduce_mod(det * x, p)
    return out


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
            "schema": "exactmatch/5",
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

    The decision is one run of feasible_red_counts with t handed to the
    root (SolveTrace.target); blocks and counts are its trace, taken
    before any witness extraction adds subproblems. The root first tries
    the certificates (_certify), before D(G, M), and stops at the first
    that decides t: then its result is the set they proved, not the whole
    achievable set (feasible_red_counts gives that). Only a t they leave
    open reaches D, where every subproblem below the root certifies its
    own whole set first, and the grid. It runs alike with or without a
    witness, so both give the same blocks and counts. With a witness, a t
    in the exchange's reach takes its switched matching, and otherwise the
    root's _top_node is inverted, so its elimination is both the probe and
    the start of the root's cofactor chain.
    Out-of-range targets are legal and decide to NO.
    """
    trace = SolveTrace(target=t, want_witness=opts.want_witness)
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
