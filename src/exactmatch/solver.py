"""Deterministic exact-matching decision via determinant evaluation.

The edge matrix at integer points (lam, x) has entry x^rho * (lam + i)^j for
an edge (i, j) with rho = 1 for red, 0 for blue (multigraph cells weigh in
as (blues + reds * x) * (lam + i)^j, and 0^0 = 1). Writing D(lam, x) for its
determinant, the coefficient of x^t collects exactly the perfect matchings
with t red edges, each contributing a signed monomial of total lam-degree
n(n-1)/2. Hence:

  * evaluating D at x = 0..n and interpolating recovers the x-coefficients
    exactly at each lam;
  * a nonzero coefficient at any lam certifies the t-fiber polynomial is
    not identically zero, i.e. (on a brace) some perfect matching has
    exactly t red edges;
  * after lam = 0..n(n-1)/2 all zero, the coefficient polynomial IS zero.

For braces that nonvanishing test decides the t-fiber exactly. Non-brace
graphs are decomposed: fixing which edge crosses a tight cut splits the
rest of the matching into two independent induced subgraphs, so

  T(G) = union over crossing records (a, b, k) of
         k + T(G[A1 - a, B1]) + T(G[A2, B2 - b])

which is what feasible_red_counts recurses on (memoized). That recursion
is the whole decision, and the report is its trace: a SolveTrace carries
the memo and records each leaf the recursion settled, in the order it first
evaluated them (a simple brace on the grid is "pure-ASNC", a piece with
n <= 2 is "enumeration"), plus counts of subproblems, memo hits, braces,
tight cuts and enumerated pieces.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np
from scipy.optimize import linear_sum_assignment

from .algebra import IntMatrix, IntPolynomial, det_rows, interpolate
from .errors import InvariantError, NoPerfectMatching
from .graphs import BLUE, RED, ColoredBipartiteGraph, EdgeRecord
from .matching import allowed_edges, find_tight_set, is_brace
from .verify.core import red_count_set

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


@dataclass(frozen=True)
class EvaluationGrid:
    """Integer evaluation nodes covering the solver's degree bounds.

    x runs over 0..n (the x-degree of the determinant is at most n) and lam
    over 0..n(n-1)/2 (every matching monomial has exactly that lam-degree,
    so a coefficient polynomial vanishing on all nodes is zero).
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
        self, g: ColoredBipartiteGraph, candidates: set[int]
    ) -> set[int]:
        """Which candidate coefficients are nonzero polynomials in lam.

        Sweeps lam nodes, short-circuiting once every candidate has been
        certified nonzero; candidates still unseen after the full sweep are
        identically zero by the degree bound.
        """
        found: set[int] = set()
        remaining = set(candidates)
        for lam in self.lam_nodes:
            if not remaining:
                break
            vec = self.x_coefficients(g, lam)
            hits = {t for t in remaining if vec[t] != 0}
            found |= hits
            remaining -= hits
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
    hits, braces decided on the grid, tight cuts split and n <= 2 pieces
    enumerated.
    """

    memo: dict = field(default_factory=dict)
    blocks: list[BlockReport] = field(default_factory=list)
    counts: dict[str, int] = field(
        default_factory=lambda: dict.fromkeys(
            ("subproblems", "memo_hits", "braces", "tight_cuts", "enumerated"),
            0,
        )
    )

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

    Components multiply independently (sumset); matching-covered components
    are decided by the brace grid test or recursively through tight-cut
    crossing records. The recursion only ever evaluates determinant tables
    on simple braces, where fiber-nonemptiness and coefficient
    nonvanishing coincide.
    """
    if trace is None:
        trace = SolveTrace()
    key = (g.n, g.edges, g.multi)
    if key in trace.memo:
        trace.counts["memo_hits"] += 1
        return trace.memo[key]
    trace.counts["subproblems"] += 1
    trace.memo[key] = result = _feasible(g, trace)
    return result


def _feasible(g: ColoredBipartiteGraph, trace: SolveTrace) -> frozenset:
    n = g.n
    if n == 0:
        return frozenset({0})
    bounds = red_count_bounds(g)
    if bounds is None:
        return frozenset()

    core = allowed_edges(g)  # same perfect matchings, connected pieces now
    comps = core.components()
    if len(comps) > 1:
        acc = {0}
        for rows, cols in comps:
            if len(rows) != len(cols):
                return frozenset()  # unbalanced piece cannot be matched
            part = feasible_red_counts(core.induced(rows, cols), trace)
            if not part:
                return frozenset()
            acc = {a + b for a in acc for b in part}
        return frozenset(acc)

    if n <= 2:
        result = frozenset(red_count_set(core))
        return trace.settle("enumerated", "enumeration", n, result)

    if is_brace(core):
        t_min, t_max = bounds
        grid = EvaluationGrid.for_size(n)
        cands = set(range(t_min, t_max + 1))
        result = frozenset(grid.nonvanishing_targets(core, cands))
        return trace.settle("braces", "pure-ASNC", n, result)

    cert = find_tight_set(core)
    trace.counts["tight_cuts"] += 1
    a1, b1 = set(cert.rows_a1), set(cert.cols_b1)
    a2 = [r for r in range(n) if r not in a1]
    b2 = [c for c in range(n) if c not in b1]
    out: set[int] = set()
    for a, b, k in core.edges:
        if a not in a1 or b in b1:
            continue
        left = core.induced(sorted(a1 - {a}), sorted(b1))
        right = core.induced(a2, sorted(set(b2) - {b}))
        lpart = feasible_red_counts(left, trace)
        if not lpart:
            continue
        rpart = feasible_red_counts(right, trace)
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
