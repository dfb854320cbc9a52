"""Deterministic exact-matching decision via determinant evaluation.

The edge matrix at integer points (lam, x) has entry x^rho * (lam + i)^j for
an edge (i, j) with rho = 1 for red, 0 for blue (multigraph cells weigh in
as (blues + reds * x) * (lam + i)^j, and 0^0 = 1). Writing D(lam, x) for its
determinant, the coefficient c_t(lam) of x^t collects exactly the perfect
matchings with t red edges, each contributing a signed monomial of total
lam-degree n(n-1)/2. On a simple brace, c_t is a nonzero polynomial exactly
when some perfect matching has t red edges, and the grid decides that
exactly (a multigraph brace, which a multigraph input can hand it, has no
such theorem: ROADMAP item 1):

  * c_t = 0 outside the exact red-count bounds [t_min, t_max] of the
    assignment prefilter, so D = x^t_min * P(x) with deg P < m =
    t_max - t_min + 1, and the values at x = 1..m give every c_t by one
    inverse Vandermonde matrix;
  * it works modulo the largest primes below 2^31: a nonzero residue of
    c_t at any lam node certifies t. The probe and the grid read these
    residues through one evaluator (_coefficient_residues: det_mod_batch
    at x = 1..m, then V^-1): the probe is the top lam node lam* =
    n(n-1)/2 mod the first prime, and the grid takes that same node as
    the first chunk of its sweep, whoever calls it;
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
that need no zero proof run first and read g's records alone (_certify),
so a subproblem they decide never builds D(G, M). One step (_subproblem)
serves every subproblem: the depth, memo and counts bookkeeping, the
certificates, then the structure. solve asks one question, whether some
perfect matching has exactly t red edges, so its root (_decide, which
takes t as an argument; solve reaches it through feasible_red_counts on a
_Root) wants {t} alone, with or without a witness, and so does each row a
witness forces; every other subproblem, and the root of
feasible_red_counts, wants every t between its bounds, since its parent
needs its whole set. They run in this order and stop once each wanted t
is proved or refuted:

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
  * congruence, only when it can drop a wanted t: potentials with
    p(col) - p(row) = red(e), placed by one pass over g's records in
    their order, leave a discrepancy on every other record; every perfect
    matching has red count congruent to sum p(col) - sum p(row) modulo
    the gcd of the discrepancies (equal when it is 0), and the pass stops
    once that gcd is 1 (_congruence). The class holds on every graph,
    its modulus divides every delta and t_min is in it, so it runs only
    when some wanted t still open is not t_min modulo the deltas' gcd; a
    t off the class is NO;
  * chord: a record of g joining two rows of one cycle (delta >= 2)
    closes a shorter alternating cycle inside it, whose switched matching
    has an exact red count between t_min and t_min + delta (_chords, one
    pass over g's records). Each cycle stays, switches, or takes one of
    its chords, independently of the others, so every sum of one choice
    per cycle is achievable; a t in this larger reach is YES. At the root
    the pass stops at the first chord that reaches t with the other
    cycles staying or switching whole, so it proves t exactly when the
    full pass would, but may list fewer chords' counts;
  * unit: t_min + 1 and t_max - 1, when wanted and still open, decided
    both ways with no determinant (_unit_cycle). Every cycle of M_lo's
    exchange digraph (an arc per record, weighted by the red count it
    adds) is an alternating cycle of gain >= 0, and a perfect matching
    with t_min + 1 red edges differs from M_lo in cycles one of which
    gains exactly 1. Bellman-Ford potentials make every reduced cost an
    integer >= 0, so such a cycle is one arc of reduced cost 1 closed by a
    path of reduced cost 0, which a search finds or rules out in O(n *
    m); t_max - 1 is the same on M_hi with the weights negated;
  * pair: for a graph asked for one t, still open, two greedy perfect
    matchings (_pair: Kuhn searches with each row's blue cells listed
    before its red ones, and red before blue). The exchange argument
    holds for any two perfect matchings, so with each cycle of their
    symmetric difference oriented to gain >= 0 they are an exchange of
    their own, and a t in its reach with chords is YES; their cycles are
    not the optima's, so they reach t the optima's miss. A miss tries
    once more with each row's lists in reverse column order, and proves
    nothing. A chord of theirs may gain outside 0..delta, and is skipped;
  * probe: c_t at the top lam node mod the first certificate prime
    (_probe), when g's top node fits _GRID_BLOCK_ENTRIES (_fits); its
    table of (lam* + i)^j is cached per (n, p) (_top_powers). A nonzero
    residue needs a matching with t red edges on any graph, so it is YES;
    a zero proves nothing. It reads the same determinants whether or not
    a witness is wanted.

A decided subproblem's result is the set its certificates proved: its
whole achievable set, except when asked for one t, where it is a set that
holds t exactly when the answer is YES. _certify keeps what is
proved and what is still open as bitmasks, and makes each a set once,
when it returns. A subproblem with a wanted t still open builds its one
D(G, M) (_structure): several elementary blocks are each certified as
subproblems of their own and multiply by sumset, a tight cut recurses,
and a brace hands the t still open to its grid. Only whole sets enter the
memo: a step asked for one t reads it, but never stores what it proved.
Witnesses: extract_witness and a witnessed solve take the same steps. The
root decides t (_decide) and returns its _Exchange, chords included once
they ran, and the matching of the unit cycle or the pair when that
decided t; the self-reduction then reduces one row at a time, as a loop.
Each graph it reaches is finished at once, with no determinant, when it
has a start (_start_of): the switched matching of its exchange when t is
in the reach, chords included (M_lo with each cycle switched whole or
closed along one chord, their gains summing to t - t_min), or, when t is
t_min + 1 or t_max - 1, M_lo or M_hi switched along a unit cycle, or the
pair's switched matching. A graph with no start has row 0 forced onto
the first record whose residual graph has the residual target, each
residual decided for that one target by the same step (_decide). Every
start comes from the exchange that the decision of its graph returned,
the root's or a forced row's, so no graph's assignments are solved or
its unit cycle searched twice. The witness is checked against the graph:
n records on n distinct rows and n distinct columns, each in a cell of g
with its color, t of them red.

The report is the trace of whatever decided: a SolveTrace carries the
memo and records each leaf settled, in the order it was first evaluated
(a subproblem decided by certificates is one block named after the one
that decided its last wanted t, "bounds", "exchange", "congruence",
"chord", "unit", "pair" or "probe", with the red counts they proved; a
brace on the grid is "pure-ASNC"), plus counts of subproblems, memo hits,
braces, tight cuts, certified subproblems, the modular determinants of
the grids and the probes, and the recursion depth. A probe runs only
when a wanted t is still open after the bounds, the exchange, the
congruence, the chords and the unit cycles, and, for one t, the pairs.
"""

from __future__ import annotations

import functools
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
    reduce_mod,
)
from .errors import (
    BadParams, BadPrime, InvariantError, NoPerfectMatching, ZeroDivisor,
)
from .graphs import BLUE, RED, ColoredBipartiteGraph, EdgeRecord, _run
from .matching import _elementary, _max_assignment, is_brace

_NO_EDGE = 10**6  # assignment sentinel, far above any reachable cost


# ---------------------------------------------------------------------------
# matrix and grid


# By cell code, blue + 2 * red (ColoredBipartiteGraph.cell_codes): the
# blue and red records of a cell and their number
_BLUE = np.array([0, 1, 0, 1], dtype=np.int64)
_RED = np.array([0, 0, 1, 1], dtype=np.int64)
_MULTIPLICITY = _BLUE + _RED


def coefficient_bound(g: ColoredBipartiteGraph) -> int:
    """C >= |every lam-coefficient of every x-coefficient c_t of det M|.

    With A_ij = mult_ij * (1 + i)^j (mult_ij records in cell (i, j)), the
    lam-coefficients of each prod_i (lam + i)^sigma(i) are nonnegative,
    since i >= 0, and sum to prod_i (1 + i)^sigma(i). So every coefficient
    is at most perm(A), which is at most the product of A's row sums and
    the product of its column sums. mult_ij is read off g.cell_codes.
    """
    rows = [0] * g.n
    cols = [0] * g.n
    mult = _MULTIPLICITY[g.cell_codes]
    rr, cc = np.nonzero(mult)
    for i, j, k in zip(rr.tolist(), cc.tolist(), mult[rr, cc].tolist()):
        a = k * (1 + i) ** j
        rows[i] += a
        cols[j] += a
    return min(math.prod(rows), math.prod(cols))


# Most int64 matrix entries one batched elimination holds, whatever n and
# the number of nodes: the probe and the grid evaluate their x nodes in
# chunks of at most this many (_coefficient_residues), and a subproblem
# whose top node needs more skips the probe (_fits).
_GRID_BLOCK_ENTRIES = 1 << 15


def _fits(n: int, m: int) -> bool:
    """Does a top node's stack of m n x n matrices fit one elimination?

    Not a memory cap, since the probe chunks: it chooses between the probe
    and the recursion, and a subproblem past it skips the probe (_certify).
    """
    return m * n * n <= _GRID_BLOCK_ENTRIES


def _cell_weights(g: ColoredBipartiteGraph, m: int) -> np.ndarray:
    """blue + red * x for every cell at x = 1..m, shape (m, n, n), int64:
    one gather of g.cell_codes from the weight of each code at each x."""
    x = np.arange(1, m + 1, dtype=np.int64)
    return (x[:, None] * _RED + _BLUE)[:, g.cell_codes]


@functools.lru_cache(maxsize=None)
def _x_inverse(t_min: int, m: int, p: int) -> np.ndarray:
    """V^-1 mod p for V[x - 1][s] = x^(t_min + s), x = 1..m; t_min may be < 0.

    It maps the determinant residues at x = 1..m to the residues of
    c_(t_min + s), s < m. Built from the Lagrange basis: with Q(y) the
    product of (y - x) over the nodes, column x is the coefficients of
    Q(y) / (y - x) (one synthetic division) times (Q'(x) * x^t_min)^-1,
    where Q'(x), the product of x - y over the other nodes y, is
    (-1)^(m - x) (x - 1)! (m - x)!. p > m keeps the nodes apart and
    nonzero mod p. Read-only, since the cache hands it to every caller.
    """
    if m >= p:
        raise ZeroDivisor(f"x nodes 1..{m} collide mod {p}")
    master = [1]  # Q, coefficients low to high
    for x in range(1, m + 1):
        master = [(a - x * b) % p for a, b in zip([0] + master, master + [0])]
    inv = np.empty((m, m), dtype=np.int64)
    for x in range(1, m + 1):
        quotient, acc = [0] * m, 0
        for s in range(m, 0, -1):
            acc = quotient[s - 1] = (master[s] + x * acc) % p
        slope = (-1) ** (m - x) * math.factorial(x - 1) * math.factorial(m - x)
        scale = pow(slope * pow(x, t_min, p), -1, p)
        inv[:, x - 1] = [c * scale % p for c in quotient]
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

    The probe (_probe) evaluates M there. Read-only, since the cache hands
    it to every caller.
    """
    powers = _lam_powers(np.array([n * (n - 1) // 2], dtype=np.int64), n, p)
    powers.setflags(write=False)
    return powers


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
    one x node's L matrices alone exceed it. V^-1 then maps the x nodes to
    the coefficients: each product is reduced before the m terms are
    summed, and m terms below p < 2^31 fit int64.
    """
    m, (lams, n) = weights.shape[0], powers.shape[:2]
    dets = np.empty((m, lams), dtype=np.int64)
    per = max(1, _GRID_BLOCK_ENTRIES // (lams * n * n))
    for lo in range(0, m, per):
        mats = reduce_mod(powers * weights[lo : lo + per, None], p)
        dets[lo : lo + per] = det_mod_batch(
            mats.reshape(-1, n, n), p
        ).reshape(-1, lams)
    return reduce_mod(reduce_mod(inv[:, :, None] * dets, p).sum(axis=1), p)


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
        the first prime's first chunk is the top node alone, since a
        nonzero c_t is almost always nonzero there. A t still open after
        every prime is zero mod each of them at every node, so c_t is
        divisible by their product, which exceeds coefficient_bound(g):
        c_t = 0. trace, when given, counts the modular determinants in
        grid_dets.
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
        dets = 0
        found: set[int] = set()
        weights = _cell_weights(g, m)
        for p in primes:
            if not open_:
                break
            inv = _x_inverse(t_min, m, p)
            start, size = 0, 1 if p == primes[0] else block
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


# Assignment costs by cell code (0: no record, 1: blue, 2: red, 3: both):
# red-only cells cost 1 for the min-red matching, blue-only cells for the
# max-red one, and a non-cell a sentinel
_LO_COST = np.array([_NO_EDGE, 0, 1, 0])
_HI_COST = np.array([_NO_EDGE, 1, 0, 0])


def _assignments(g: ColoredBipartiteGraph) -> Optional[tuple]:
    """A min-red and a max-red perfect matching of g, or None if it has none.

    Two assignment problems on the costs of g.cell_codes: minimize the
    number of red-only cells used, and minimize blue-only cells
    (equivalently maximize red). An optimum touching a non-cell's sentinel
    means no perfect matching at all. The chosen cells' codes are read
    with one gather per matching.
    Returns (lo_cols, lo_reds, hi_cols, hi_reds), lists indexed by row:
    the column of each row in the min-red matching and whether its record
    there is red, then the same for the max-red one. A cell with records
    of both colors is blue in the first and red in the second.
    """
    if g.n == 0:
        return [], [], [], []
    codes = g.cell_codes
    rows, lo_cols = linear_sum_assignment(_LO_COST.take(codes))
    lo_codes = codes[rows, lo_cols].tolist()
    if 0 in lo_codes:
        return None
    hi_cols = linear_sum_assignment(_HI_COST.take(codes))[1]
    return (
        lo_cols.tolist(), [c == 2 for c in lo_codes],
        hi_cols.tolist(), [c >= 2 for c in codes[rows, hi_cols].tolist()],
    )


# ---------------------------------------------------------------------------
# exchange, congruence and probe certificates


class _Exchange(NamedTuple):
    """The alternating cycles of two perfect matchings M_lo and M_hi.

    lo_cols, lo_reds, hi_cols and hi_reds are _assignments(g), the min-red
    and the max-red optimum, or the two matchings of a _pair. M_lo and
    M_hi differ in disjoint alternating cycles (Berge), and switching any
    subset of them in M_lo gives another perfect matching (the exchange
    argument of Karzanov's exact matching on complete bipartite graphs).
    The red gain delta of a cycle, red(M_hi) - red(M_lo) on its rows, is
    never negative: on the optima since M_lo has the fewest red records,
    and a pair orients each cycle so. A row whose two records share a cell
    and differ in color is a cycle with delta 1. cycles holds the rows of
    each cycle with delta > 0, deltas their gains, which sum to t_max -
    t_min. chords is empty, or, once _chords has run, one dict per cycle
    mapping each gain strictly between 0 and its delta that a chord
    reaches (those its pass read, when it stopped at a target) to the
    first such chord (a, b, k): the record (r_a, c_b, k), a and b
    positions on the cycle as _chords writes them. Each cycle then stays,
    switches, or takes one of its chords, independently of the others, so
    every t_min + a sum of one choice per cycle is the red count of a
    perfect matching, exactly, on any graph and for any two perfect
    matchings. sums is _sums of deltas and chords, built once by _exchange
    and once more by _chords; reach and witness read it.

    Only on the optima are t_min and t_max g's bounds, and three checks
    assume them: _exchange's negative gain (which a pair's orientation
    rules out), _chords' gain outside 0..delta (a pair's is skipped), and
    _unit_cycle's negative arc or cycle (it runs on the optima alone).
    Each raises InvariantError.

    start is None, or the perfect matching that the unit cycle (for t_min
    + 1 or t_max - 1) or a pair found for the one t that _certify was
    asked (the root's, or a forced row's), so its witness need not search
    again.
    """

    t_min: int
    lo_cols: list[int]
    lo_reds: list[int]
    hi_cols: list[int]
    hi_reds: list[int]
    cycles: list[list[int]]
    deltas: list[int]
    sums: list[int]
    chords: Tuple[dict, ...] = ()
    start: Optional[list[EdgeRecord]] = None

    @property
    def t_max(self) -> int:
        return self.t_min + sum(self.deltas)

    def reach(self) -> int:
        """Bit t is set for every t the exchange proves achievable."""
        return self.sums[-1] << self.t_min

    def witness(self, t: int) -> Optional[list[EdgeRecord]]:
        """M_lo with each cycle switched or closed along a chord, so that
        their gains sum to t - t_min, or None when t is outside the reach."""
        sums, s = self.sums, t - self.t_min
        if s < 0 or not sums[-1] >> s & 1:
            return None
        out = [
            (r, c, RED if red else BLUE)
            for r, (c, red) in enumerate(zip(self.lo_cols, self.lo_reds))
        ]
        for i in reversed(range(len(self.deltas))):
            below = sums[i]  # sums[i + 1] holds s: some choice of cycle i fits
            for gain in _gains(self.deltas, self.chords, i):
                if gain <= s and below >> s - gain & 1:
                    break
            s -= gain
            cycle = self.cycles[i]
            if gain == self.deltas[i]:
                switched = cycle
            elif gain:  # rows b .. a - 1 switch and r_a takes c_b
                a, b, k = self.chords[i][gain]
                size = len(cycle)
                switched = [
                    cycle[(b + u) % size] for u in range((a - b) % size)
                ]
                out[cycle[a]] = (cycle[a], self.lo_cols[cycle[b]], k)
            else:
                switched = ()
            for r in switched:
                out[r] = (r, self.hi_cols[r], RED if self.hi_reds[r] else BLUE)
        return out


def _gains(deltas: list[int], chords: Tuple[dict, ...], i: int):
    """Cycle i's choices: stay (0), switch (delta), then its chords."""
    return (0, deltas[i], *(chords[i] if chords else ()))


def _sums(deltas: list[int], chords: Tuple[dict, ...]) -> list[int]:
    """Bit s of entry i is set when s is a sum of one choice per cycle of
    the first i (_gains)."""
    sums = [1]
    for i in range(len(deltas)):
        acc = 0
        for gain in _gains(deltas, chords, i):
            acc |= sums[-1] << gain
        sums.append(acc)
    return sums


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
        sum(lo_reds), lo_cols, lo_reds, hi_cols, hi_reds, cycles, deltas,
        _sums(deltas, ()),
    )


def _chords(
    g: ColoredBipartiteGraph,
    exchange: _Exchange,
    t: Optional[int] = None,
    optima: bool = True,
) -> _Exchange:
    """exchange with the chords of every cycle whose gain is at least 2.

    Write a cycle as rows r_0 .. r_(L-1), where r_l takes c_l in M_lo and
    c_(l+1) in M_hi (indices mod L; _exchange's order). A record (r_a, c_b,
    k) of g whose column's M_lo row r_b is on the same cycle closes a
    shorter alternating cycle: r_a takes c_b, the rows r_b .. r_(a-1)
    switch to M_hi, and the rest of the cycle keeps M_lo. (Closing it from
    M_hi instead, with r_(a+1) .. r_(b-1) reverted to M_lo, gives the same
    matching.) Its gain is the switched rows' gains plus rho(k) minus
    lo_red(r_a), the exact red count of a perfect matching that differs
    from M_lo on this cycle alone. On the assignment optima (optima) it
    lies in 0..delta, since M_lo has the fewest red records and M_hi the
    most, and a gain outside raises InvariantError; a _pair's chord may
    fall outside, and is skipped. A cycle of gain 0 or 1 admits no gain
    strictly inside, so it is skipped. The first record in g's order that
    reaches a gain is its chord (a, b, k). One pass over g's records,
    linear in them; multigraph cells count once per color.

    With t None the pass reads every record. With a t (the root's, or a
    witness's), each cycle of gain delta >= 2 first gets a bitmask of
    the gains in 0 < gain < delta for which t - t_min - gain is a sum of
    the other cycles' deltas, each cycle staying or switching whole; the
    pass stops at the first new chord whose gain is in its cycle's mask,
    since that chord and those cycles are a perfect matching with t red
    records. So the reach holds t exactly when the full pass's does, and
    its chords are the full pass's first ones; records after the stop are
    not read, so they are not checked against 0..delta either.
    """
    lo_reds, hi_reds = exchange.lo_reds, exchange.hi_reds
    deltas = exchange.deltas
    n = g.n
    cid = [-1] * n  # row -> its cycle, when that cycle's gain is >= 2
    pos = [0] * n  # row -> its l on that cycle
    before = [0] * n  # row r_l -> the gains of r_0 .. r_(l-1)
    stops = [0] * len(deltas)  # cycle -> the chord gains that reach t
    for i, (cycle, delta) in enumerate(zip(exchange.cycles, deltas)):
        if delta < 2:
            continue
        s = 0
        for l, r in enumerate(cycle):
            cid[r], pos[r], before[r] = i, l, s
            s += hi_reds[r] - lo_reds[r]
        if t is not None:
            others = 1  # the other cycles' sums, each staying or switching
            for j, d in enumerate(deltas):
                if j != i:
                    others |= others << d
            want = t - exchange.t_min
            for gain in range(1, min(delta, want + 1)):
                stops[i] |= (others >> want - gain & 1) << gain
    owner = [0] * n  # column -> its row in M_lo
    for r, c in enumerate(exchange.lo_cols):
        owner[c] = r
    chords: list[dict] = [{} for _ in deltas]
    for r, c, k in g.edges:
        i = cid[r]
        b = owner[c]
        if i < 0 or cid[b] != i:
            continue
        delta = deltas[i]
        # rows b .. a - 1 switch, wrapping past r_(L-1) when b > a; the
        # color k is rho(k), BLUE 0 and RED 1
        gain = before[r] - before[b] + k - lo_reds[r]
        if pos[b] > pos[r]:
            gain += delta
        if 0 < gain < delta:
            found = chords[i]
            if gain not in found:
                found[gain] = (pos[r], pos[b], k)
                if stops[i] >> gain & 1:
                    break
        elif optima and not 0 <= gain <= delta:
            raise InvariantError(
                f"record {(r, c, k)} closes a cycle of red gain {gain} "
                f"outside 0..{delta}: the assignment optima are not a "
                f"min-red and a max-red matching"
            )
    chords = tuple(chords)
    return exchange._replace(chords=chords, sums=_sums(deltas, chords))


def _pair(g: ColoredBipartiteGraph, backward: bool) -> _Exchange:
    """The exchange of two greedy perfect matchings of g, which has one.

    Two Kuhn searches (matching._max_assignment) on g's records: in the
    first, each row's adjacency lists its blue cells, then its red ones;
    in the second, red first. With backward each list runs in descending
    column order instead. Neither matching need be an optimum, but the
    exchange argument holds for any two perfect matchings: each cycle of
    their symmetric difference is oriented so that its side with fewer
    red records is the base (a cell with records of both colors is blue
    there and red on the other side), so every gain is >= 0 and _exchange
    takes the two as they are. Their cycles differ from the optima's, so
    their reach, with chords (_chords, optima False), proves red counts
    that of the optima left open.
    """
    n = g.n
    blues: list[list[int]] = [[] for _ in range(n)]
    reds: list[list[int]] = [[] for _ in range(n)]
    for r, c, k in g.edges:  # the color k is rho(k), BLUE 0 and RED 1
        (reds if k else blues)[r].append(c)
    if backward:
        for row in blues + reds:
            row.reverse()
    first = _max_assignment(n, [b + r for b, r in zip(blues, reds)])
    second = _max_assignment(n, [r + b for b, r in zip(blues, reds)])
    codes = g.cell_codes.tolist()
    row_of = [0] * n  # column -> its row in the first matching
    for r, c in enumerate(first):
        row_of[c] = r
    lo_cols, hi_cols = list(first), list(second)
    seen = [False] * n
    for start in range(n):
        cycle, gain, r = [], 0, start
        while not seen[r]:
            seen[r] = True
            cycle.append(r)
            gain += (codes[r][second[r]] >= 2) - (codes[r][first[r]] == 2)
            r = row_of[second[r]]
        if gain < 0:  # the second matching has fewer red records here
            for r in cycle:
                lo_cols[r], hi_cols[r] = second[r], first[r]
    return _exchange(
        lo_cols, [codes[r][c] == 2 for r, c in enumerate(lo_cols)],
        hi_cols, [codes[r][c] >= 2 for r, c in enumerate(hi_cols)],
    )


def _unit_cycle(
    g: ColoredBipartiteGraph, exchange: _Exchange, t: int
) -> Optional[list[EdgeRecord]]:
    """A perfect matching of g with t red records, t = t_min + 1 or t_max
    - 1 of exchange, or None when g has none: exact both ways.

    For t_min + 1 take M = M_lo and sign 1, else M = M_hi and sign -1.
    M's exchange digraph has a node per row and, for each record (r, c, k)
    of g, an arc r -> v, v M's row of c, of weight sign * (rho(k) -
    rho(M(r))); an arc with v = r is a loop, the other color of r's own
    cell. Its cycles are the alternating cycles of M: switching one, each
    row on it taking its arc's record, gives a perfect matching whose red
    count is M's plus sign times the cycle's weight, so no cycle is
    negative (M_lo has the fewest red records, M_hi the most), and a loop
    or a cycle of weight 1 is the matching sought. Conversely, a perfect
    matching with t red records differs from M in disjoint cycles whose
    weights are >= 0 and sum to 1, so one of them has weight 1. Bellman-
    Ford from a virtual source settles potentials phi within n rounds (a
    round n + 1 that still lowers one is a negative cycle, InvariantError),
    and a weight-1 cycle then has reduced costs w + phi(u) - phi(v) >= 0
    summing to 1: one arc u -> v of reduced cost 1, and a path from v back
    to u over arcs of reduced cost 0. So t is achievable exactly when a
    loop has weight 1, or a breadth-first search from the head v of some
    arc of reduced cost 1 reaches its tail u over arcs of reduced cost 0;
    the search's parents give the cycle, with the record behind each arc.
    O(n * m) for m records (Ahuja, Magnanti and Orlin, Network Flows,
    1993: reduced-cost optimality).
    """
    n = g.n
    lo = t == exchange.t_min + 1
    cols, reds = (
        (exchange.lo_cols, exchange.lo_reds) if lo
        else (exchange.hi_cols, exchange.hi_reds)
    )
    sign = 1 if lo else -1
    owner = [0] * n  # column -> its row in M
    for r, c in enumerate(cols):
        owner[c] = r
    out = [
        (r, c, RED if red else BLUE)
        for r, (c, red) in enumerate(zip(cols, reds))
    ]
    arcs = []  # (u, v, weight, k): the record (u, cols[v], k)
    for r, c, k in g.edges:  # the color k is rho(k), BLUE 0 and RED 1
        v, w = owner[c], sign * (k - reds[r])
        if v != r:
            arcs.append((r, v, w, k))
        elif w == 1:
            out[r] = (r, c, k)
            return out
        elif w < 0:
            raise InvariantError(
                f"record {(r, c, k)} beats its own cell in an assignment "
                f"optimum: it is not a min-red and a max-red matching"
            )
    phi = [0] * n
    for _ in range(n + 1):
        changed = False
        for u, v, w, _ in arcs:
            if phi[u] + w < phi[v]:
                phi[v] = phi[u] + w
                changed = True
        if not changed:
            break
    else:
        raise InvariantError(
            "the exchange digraph has a negative cycle: the assignment "
            "optima are not a min-red and a max-red matching"
        )
    zero: list[list[tuple]] = [[] for _ in range(n)]  # u -> (v, k), cost 0
    units: dict[int, list[tuple]] = {}  # v -> (u, k) of cost 1 into v
    for u, v, w, k in arcs:
        cost = w + phi[u] - phi[v]
        if cost == 0:
            zero[u].append((v, k))
        elif cost == 1:
            units.setdefault(v, []).append((u, k))
    for head, tails in units.items():
        parent = {head: None}  # node -> (its parent, the arc's color)
        frontier = [head]
        while frontier:
            nxt = []
            for u in frontier:
                for v, k in zero[u]:
                    if v not in parent:
                        parent[v] = (u, k)
                        nxt.append(v)
            frontier = nxt
        for u, k in tails:
            if u in parent:  # u takes head's column, then back along parents
                out[u] = (u, cols[head], k)
                while u != head:
                    prev, k = parent[u]
                    out[prev] = (prev, cols[u], k)
                    u = prev
                return out
    return None


def _congruence(n: int, records) -> Tuple[int, int]:
    """(modulus, residue) with red(M) = residue (mod modulus) for every
    perfect matching M that uses only records.

    records are (row, col, color) on n rows and n columns, sorted by row
    as g keeps them. Potentials with p(col) - p(row) = red(e) on a spanning
    forest of the graph they span leave every record a discrepancy d(e) =
    red(e) - p(col) + p(row). A perfect matching covers every vertex once,
    so red(M) = sum p(col) - sum p(row) + sum of d over M, and modulus =
    the gcd of all d makes the last term vanish (equality when modulus =
    0); it does not depend on the forest.

    One pass in record order places the potentials: the first record's row
    roots its component at 0; a record with one end placed places the
    other, one with both placed adds its discrepancy to the gcd, and one
    with neither waits on both ends and is read again when either is
    placed, so each record is read at most three times. Records still
    waiting at the end root the components not reached. Each component is
    rooted at the row of its first record, which in sorted order is its
    lowest vertex, so the residue is a walk's from the lowest vertex of
    each component even when it has more rows than columns. Once the gcd
    is 1 the class is every integer, and (1, 0) returns at once. Linear in
    the records.

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
    row_pot: list[Optional[int]] = [None] * n
    col_pot: list[Optional[int]] = [None] * n
    waiting: dict[int, list] = {}  # unplaced row r or column n + c -> records
    modulus = 0
    todo = list(reversed(records))  # popped in record order, replays on top
    if todo:
        row_pot[todo[-1][0]] = 0
    while True:
        while todo:
            rec = todo.pop()
            r, c, k = rec  # the color k is rho(k), BLUE 0 and RED 1
            pr, pc = row_pot[r], col_pot[c]
            if pc is None:
                if pr is None:
                    waiting.setdefault(r, []).append(rec)
                    waiting.setdefault(n + c, []).append(rec)
                    continue
                col_pot[c] = pr + k
                if waiting:
                    todo += waiting.pop(n + c, ())
            elif pr is None:
                row_pot[r] = pc - k
                if waiting:
                    todo += waiting.pop(r, ())
            else:
                d = k - pc + pr
                if d:
                    modulus = math.gcd(modulus, d)
                    if modulus == 1:
                        return 1, 0
        if not waiting:
            break
        r = next(iter(waiting))  # the row of the first record left waiting
        row_pot[r] = 0
        todo = waiting.pop(r)
    residue = sum(filter(None, col_pot)) - sum(filter(None, row_pot))
    return modulus, residue % modulus if modulus else residue


def _in_class(lo: int, hi: int, modulus: int, residue: int) -> set[int]:
    """The t in lo..hi with t = residue (mod modulus), or t = residue if 0."""
    if modulus == 0:
        return {residue} if lo <= residue <= hi else set()
    return set(range(lo + (residue - lo) % modulus, hi + 1, modulus))


def _probe(g: ColoredBipartiteGraph, t_min: int, t_max: int) -> set[int]:
    """The t whose c_t(lam*) is nonzero modulo the first certificate prime.

    c_t at the top lam node lam* = n(n-1)/2 and x = 1..m, m = t_max - t_min
    + 1 (_coefficient_residues, in chunks); t_min, t_max are
    red_count_bounds(g). A nonzero coefficient needs a perfect matching
    with t red edges on any graph, multigraphs included, so every t here
    is achievable; a zero proves nothing.
    """
    p, m = certificate_primes(1)[0], t_max - t_min + 1
    coeffs = _coefficient_residues(
        _cell_weights(g, m), _top_powers(g.n, p), _x_inverse(t_min, m, p), p
    )
    return {t_min + int(s) for s in np.flatnonzero(coeffs.any(axis=1))}


# ---------------------------------------------------------------------------
# sound feasibility recursion


@dataclass(frozen=True)
class BlockReport:
    """One settled leaf: its size, red counts and the method that settled it.

    A leaf is a subproblem its certificates decided (method "bounds",
    "exchange", "congruence", "chord", "unit", "pair" or "probe") or a
    brace its grid decided ("pure-ASNC"); there is no other kind.
    feasible_t is the leaf's whole achievable set, except at a graph asked
    for one t (the root of solve and of extract_witness, _decide): there
    it is the red counts its certificates and, on a brace, its grid
    proved, all achievable, with t among them exactly when the answer is
    YES. A root the chords decided lists only the chords its pass read
    before it reached t (_chords), so it may list fewer red counts than
    the full pass proves; a root the pair decided adds the reach of the
    pair that reached t, whose chord pass stopped there too, and a pair
    that missed adds nothing.
    """

    n: int
    feasible_t: Tuple[int, ...]
    method: str


@dataclass
class SolveTrace:
    """The memo of the feasibility recursion and a record of its work.

    memo maps each subproblem key to its whole achievable set. One step
    (_subproblem) serves the root, the subproblems and the rows a witness
    forces, and it writes the memo only when asked for every t: a graph
    asked for one t (_decide) reads it but never writes to it, so a trace
    may be handed to any number of calls. blocks lists the leaves the
    recursion settled, one per subproblem, in the order they were first
    evaluated. counts tallies memo misses (subproblems), memo hits, braces
    decided on the grid, tight cuts split, subproblems settled by their
    certificates (certified), the modular determinants the grid and the
    probes evaluated (grid_dets, summed over primes, lam and x nodes) and
    the deepest nesting of subproblems, memo hits included (depth; the
    root counts as 1).
    """

    memo: dict = field(default_factory=dict)
    blocks: list[BlockReport] = field(default_factory=list)
    counts: dict[str, int] = field(
        default_factory=lambda: dict.fromkeys(
            (
                "subproblems", "memo_hits", "braces", "tight_cuts",
                "certified", "grid_dets", "depth",
            ),
            0,
        )
    )

    def settle(self, count: str, method: str, n: int, result: frozenset):
        """Record a leaf decided without a split; returns its result."""
        self.counts[count] += 1
        self.blocks.append(BlockReport(n, tuple(sorted(result)), method))
        return result


@dataclass
class _Root:
    """solve's root, which feasible_red_counts (the entry perfbench's spans
    wrap) runs as _decide(g, t, trace), keeping its exchange for the
    witness; a _Root never leaves solve."""

    trace: SolveTrace
    t: int
    exchange: Optional[_Exchange] = None


def _certify(
    g: ColoredBipartiteGraph, trace: SolveTrace, t: Optional[int]
) -> Optional[Tuple[set[int], set[int], Optional[str], _Exchange]]:
    """None if g has no perfect matching, else (proved, open, method,
    exchange).

    The wanted set is {t}, or every t between g's bounds when t is None
    (every subproblem but the root and a forced row, which ask for one
    t). Every certificate here reads g's records alone, so none builds
    D(G, M), and they stop as soon as each wanted t is proved or refuted,
    in this order:

      * bounds: the red counts of the two assignment optima are the
        attained bounds, so a t outside [t_min, t_max] is NO and t_min and
        t_max are YES;
      * exchange: every t in their _Exchange's reach is YES;
      * congruence: g's records put every perfect matching in one class,
        which holds on every graph; a t off it is NO. Its modulus divides
        every cycle's gain, and t_min is in the class, so it runs only when
        some wanted t still open is not t_min modulo the gains' gcd, the
        one case it can drop a t;
      * chord: the exchange's reach with its cycles' chords (_chords);
        every t in it is YES. It runs after the congruence, so a t the
        class refutes never pays for it;
      * unit: t_min + 1 and t_max - 1, each only when wanted and still
        open, are YES exactly when M_lo, or M_hi, has a unit cycle
        (_unit_cycle), and NO otherwise;
      * pair, only for a t asked and still open: the reach of two greedy
        perfect matchings with their chords (_pair, then _chords with
        optima False); t in it is YES. A miss builds the second pair, with
        each row's lists reversed, and a second miss proves nothing;
      * probe: when g's top node fits one batched elimination (_fits), c_t
        at lam* mod the first certificate prime (_probe); every t among
        its hits is YES, and the report counts m determinants.

    proved is every red count the certificates run so far proved: the
    exchange's reach (with its chords once they ran; with a t, a chord pass
    that stops once t is reached, so possibly fewer chords' counts), the
    unit cycles' YES, the reach of the pair that proved t, and the probe's
    hits when it ran. open is the wanted t neither proved nor refuted.
    Both are bitmasks (bit s for red count s) until g is settled or handed
    on, and each becomes a set once. When open is empty, method names the
    certificate that decided the last of them, and g is settled as one
    block of proved (with t None, g's whole achievable set). Otherwise
    method is None and g's structure (_structure) goes on with open. exchange is g's _Exchange of the optima, with its
    chords once they ran and, when the unit cycle or a pair proved the t
    asked, that matching (start): the witness of g starts from it
    (_start_of).
    """
    found = _assignments(g)
    if found is None:
        return None
    exchange = _exchange(*found)
    t_min, t_max = exchange.t_min, exchange.t_max
    proved = exchange.reach()
    open_ = max(0, (1 << t_max) - (2 << t_min))  # t_min < s < t_max
    if t is not None:
        open_ = open_ & 1 << t if t_min < t < t_max else 0
    method = "bounds"
    if open_:
        open_ &= ~proved
        method = "exchange"
    if open_:
        gains = math.gcd(*exchange.deltas)
        if gains > 1 and open_ & ~_mask(range(t_min, t_max + 1, gains)):
            open_ &= _mask(_in_class(t_min, t_max, *_congruence(g.n, g.edges)))
            method = "congruence"
    if open_:
        # gains of 1 alone reach every t in bounds, so some cycle here has
        # a gain of at least 2, the ones _chords reads
        exchange = _chords(g, exchange, t)
        proved = exchange.reach()
        open_ &= ~proved
        method = "chord"
    if open_:
        for s in {t_min + 1, t_max - 1}:
            if open_ >> s & 1:
                unit = _unit_cycle(g, exchange, s)
                if unit is not None:
                    proved |= 1 << s
                    if s == t:
                        exchange = exchange._replace(start=unit)
                open_ &= ~(1 << s)
        method = "unit"
    if open_ and t is not None:
        for backward in (False, True):
            pair = _chords(g, _pair(g, backward), t, False)
            reach = pair.reach()
            if reach >> t & 1:
                proved |= reach
                open_ = 0
                exchange = exchange._replace(start=pair.witness(t))
                method = "pair"
                break
    if open_:
        method = None
        m = t_max - t_min + 1
        if _fits(g.n, m):
            hits = _mask(_probe(g, t_min, t_max))
            proved |= hits
            open_ &= ~hits
            trace.counts["grid_dets"] += m
            if not open_:
                method = "probe"
    return _unmask(proved), _unmask(open_), method, exchange


def _mask(ts) -> int:
    """The bitmask of the red counts ts: bit s set for each s."""
    out = 0
    for s in ts:
        out |= 1 << s
    return out


def _unmask(mask: int) -> set[int]:
    """The red counts of a bitmask: each s whose bit is set."""
    return {s for s, bit in enumerate(bin(mask)[:1:-1]) if bit == "1"}


def _memo_key(g: ColoredBipartiteGraph) -> tuple:
    return g.n, g.edges, g.multi


def feasible_red_counts(
    g: ColoredBipartiteGraph,
    trace: Optional[SolveTrace] = None,
) -> frozenset:
    """The exact set of achievable red counts over perfect matchings.

    Every subproblem, the root included, runs its certificates first
    (_certify) and settles there when they decide its whole set. Elementary
    blocks multiply independently (sumset); a matching-covered graph is
    decided by the brace grid test or recursively through its tight-cut
    crossing records. Every subproblem is induced from the input graph, so
    on a simple input the grid only ever meets simple braces, where
    fiber-nonemptiness and coefficient nonvanishing coincide; a multigraph
    input hands it multigraph braces, on which that has no theorem behind
    it (ROADMAP item 1). solve's _Root, in place of a trace, asks for its
    t alone: the result holds t exactly when the answer is YES.
    """
    if trace is None:
        trace = SolveTrace()
    if isinstance(trace, _Root):  # solve's root: its t alone
        decision, trace.exchange = _decide(g, trace.t, trace.trace)
        return frozenset({trace.t} if decision else ())
    return _run(_subproblem(g, trace, 1))[0]


def _subproblem(
    g: ColoredBipartiteGraph,
    trace: SolveTrace,
    level: int,
    t: Optional[int] = None,
):
    """One subproblem at nesting level (root: 1), as a generator step of
    the recursion: (red counts, g's _Exchange or None).

    A whole set in trace's memo answers at once (a memo hit, no exchange);
    a step asked for one t on an empty memo (solve's root) builds no key,
    since it can neither read nor write one. Otherwise g's certificates
    (_certify) want t alone, or every t between g's bounds when t is None,
    and stop once each is decided; a graph they decide, or one the bounds
    find without a perfect matching, returns what they proved without
    building D(G, M), and the rest goes on to g's structure (_structure).
    With t None the red counts are g's whole set, and only they enter the
    memo; with a t they hold t exactly when some perfect matching has t
    red records.
    """
    if level > trace.counts["depth"]:
        trace.counts["depth"] = level
    if trace.memo or t is None:  # the key hashes all of g's records
        key = _memo_key(g)
        whole = trace.memo.get(key)
        if whole is not None:
            trace.counts["memo_hits"] += 1
            return whole, None
    trace.counts["subproblems"] += 1
    result, exchange = frozenset(), None  # no perfect matching
    found = _certify(g, trace, t)
    if found is not None:
        proved, open_, method, exchange = found
        if open_:
            result = yield from _structure(g, trace, level, proved, open_)
        else:
            result = trace.settle("certified", method, g.n, frozenset(proved))
    if t is None:
        trace.memo[key] = result
    return result, exchange


def _structure(
    g: ColoredBipartiteGraph,
    trace: SolveTrace,
    level: int,
    proved: set[int],
    open_: set[int],
):
    """The red counts of g that its one D(G, M) decides, as a generator
    step; proved and open_ are what g's certificates left (_certify).

    Several elementary blocks multiply by sumset, each certified as its own
    subproblem; a brace hands the grid the t still open, its result what
    the certificates and the grid proved; a tight cut recurses on its
    crossing records. Only the brace's result depends on open_: the other
    two are g's whole set.
    """
    n = g.n
    d = _elementary(g)  # the one D(G, M) of a subproblem left open
    if len(d.blocks) != 1:  # the elementary blocks, induced on g itself
        acc = {0}
        for rows, cols in d.blocks:
            block = g.induced(rows, cols)
            part, _ = yield _subproblem(block, trace, level + 1)
            acc = {a + b for a in acc for b in part}
        return frozenset(acc)

    # one block: g is matching-covered, so every record is allowed
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
            lpart = lefts[a] = (yield _subproblem(left, trace, level + 1))[0]
        if not lpart:
            continue
        rpart = rights.get(b)
        if rpart is None:
            right = g.induced(a2, [c for c in b2 if c != b])
            rpart = rights[b] = (yield _subproblem(right, trace, level + 1))[0]
        # the color k is rho(k), BLUE 0 and RED 1
        out |= {k + x + y for x in lpart for y in rpart}
    return frozenset(out)


def _decide(
    g: ColoredBipartiteGraph, t: int, trace: SolveTrace
) -> Tuple[bool, Optional[_Exchange]]:
    """Whether some perfect matching of g has t red records, with g's
    _Exchange for its witness (None after a memo hit or when g has no
    perfect matching): the root of solve and extract_witness, and each
    forced row of a witness. It is the one subproblem step (_subproblem)
    asked for t alone, so what it proves is never memoized.
    """
    proved, exchange = _run(_subproblem(g, trace, 1, t))
    return t in proved, exchange


# ---------------------------------------------------------------------------
# witness extraction


def extract_witness(
    g: ColoredBipartiteGraph,
    t: int,
    trace: Optional[SolveTrace] = None,
) -> Optional[list[EdgeRecord]]:
    """A perfect matching with exactly t red edges, or None.

    The steps of a witnessed solve: the root decides t alone (_decide),
    and a t that g does not achieve returns None. Otherwise the checked
    self-reduction runs from the root's exchange (_checked_witness), one
    row at a time. Each graph it reaches is finished from its start when
    it has one (_start_of): the switched matching of its exchange when t
    is in the reach, chords included, else of a unit cycle when t is t_min
    + 1 or t_max - 1, else of the pair that proved t. Otherwise row 0 is
    forced onto each of its records in turn and the first whose residual
    graph has the residual target (_decide, for that one target) is kept,
    with its exchange.
    """
    if trace is None:
        trace = SolveTrace()
    decision, exchange = _decide(g, t, trace)
    return _checked_witness(g, t, trace, exchange) if decision else None


def _checked_witness(
    g: ColoredBipartiteGraph,
    t: int,
    trace: SolveTrace,
    exchange: Optional[_Exchange],
) -> list[EdgeRecord]:
    """_witness for a t that g achieves, from g's exchange when the root
    kept one, checked against g: n records, on n distinct rows and n
    distinct columns, each one of g's records, and exactly t of them red;
    anything else raises InvariantError."""
    witness = _witness(g, t, trace, exchange)
    cells, n = g.cells, g.n
    colors = [k for r, c, k in witness if k in cells.get((r, c), ())]
    if (
        len(witness) != n
        or len({r for r, _, _ in witness}) != n
        or len({c for _, c, _ in witness}) != n
        or len(colors) != n  # a record that is not g's was left out
        or colors.count(RED) != t
    ):
        raise InvariantError(
            f"witness for t = {t} is not a perfect matching of the graph "
            f"with t red records: {witness}"
        )
    return witness


def _witness(
    g: ColoredBipartiteGraph,
    t: int,
    trace: SolveTrace,
    exchange: Optional[_Exchange],
) -> list[EdgeRecord]:
    """The self-reduction as a loop: g shrinks by one row per forced record.

    rows and cols map the current g's labels to the input's; a g with a
    start (the switched matching of the exchange, a unit cycle or a pair)
    takes it as the rest of the matching. exchange is the one the decision
    of the current g and t returned (the input's, then each forced row's),
    or None after a memo hit.
    """
    rows, cols = list(range(g.n)), list(range(g.n))
    out: list[EdgeRecord] = []
    while g.n:
        start = _start_of(g, t, exchange)
        if start is not None:
            if not out:  # the input's labels: checked as _start_of made it
                return start
            return out + [(rows[r], cols[c], k) for r, c, k in start]
        for c in g.row_adj[0]:  # the color k is rho(k), BLUE 0 and RED 1
            rest = g.without([0], [c])
            for k in g.cells[0, c]:
                decision, exchange = _decide(rest, t - k, trace)
                if decision:
                    break
            if decision:
                break
        else:
            raise InvariantError("feasible target with no extractable witness")
        out.append((rows.pop(0), cols.pop(c), k))
        g, t = rest, t - k
    return out


def _start_of(
    g: ColoredBipartiteGraph, t: int, exchange: Optional[_Exchange] = None
) -> Optional[list[EdgeRecord]]:
    """g's witness start, for a g with a perfect matching of t red
    records: a whole matching, either its _Exchange's switched matching
    when t is in the reach, chords included, or the one the unit cycle
    (for t = t_min + 1 or t_max - 1) or a pair found (_Exchange.start);
    else None, where the row-forcing loop must go on. exchange is the one
    g's decision of this same t returned (_decide: the root's, or a forced
    row's), whose certificates already ran the chords, the unit cycle and
    the pairs t needed, so no row is forced where they proved t. Only a
    caller that kept none (a memo hit, or a direct call) has _certify make
    it here, and that may run the probe; a start itself needs no
    determinant."""
    if exchange is None:
        exchange = _certify(g, SolveTrace(), t)[3]
    witness = exchange.witness(t)
    return exchange.start if witness is None else witness


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
            "schema": "exactmatch/9",
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

    The decision is the root's (_decide, run by feasible_red_counts on a
    _Root), with t as its argument: it first tries the certificates
    (_certify), before D(G, M), and stops at the first that decides t, so
    its block lists what they proved, not the whole achievable set
    (feasible_red_counts gives that). Only a t they leave open reaches D,
    where every subproblem below the root certifies its own whole set first,
    and the grid. blocks and counts are the trace's, taken before any
    witness extraction adds subproblems; the decision never reads whether a
    witness is wanted, so both give the same. With a witness on a YES, the
    checked self-reduction of extract_witness runs at once
    (_checked_witness), from the exchange the root kept: its switched
    matching when t is in its reach, chords included, else the matching
    the root's unit cycle (t_min + 1 or t_max - 1) or pair found
    (_start_of), else it forces rows. Out-of-range targets are legal and decide to NO.
    """
    root = _Root(SolveTrace(), t)
    trace = root.trace
    t0 = time.perf_counter()
    decision = t in feasible_red_counts(g, root)
    t1 = time.perf_counter()
    blocks, counts = tuple(trace.blocks), dict(trace.counts)

    witness = None
    if decision and opts.want_witness:
        witness = tuple(_checked_witness(g, t, trace, root.exchange))
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
