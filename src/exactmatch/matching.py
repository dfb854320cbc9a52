"""Matchings, allowed edges, braces, tight sets, alternating cycles.

Everything here works on the underlying simple structure (cells): edge
colors never influence whether a matching exists, only how it is counted.
Algorithms are deterministic -- rows are processed in increasing order and
adjacency lists are sorted -- so repeated runs give identical certificates.

Allowed edges, matching-covered, brace and tight-set questions are all
answered from one digraph. Fix a perfect matching M (row i -> column M(i))
and let D = D(G, M) have one vertex per matched pair i and an arc i -> j
whenever row i meets column M(j), j != i. A non-matching cell (i, M(j)) is
the arc i -> j, and it lies in an M-alternating cycle exactly when a
directed cycle of D runs through that arc. Hence:

  * allowed_edges keeps M plus every cell whose two pairs i, j share a
    strongly connected component (SCC) of D;
  * is_matching_covered holds iff n >= 1, M is perfect and D is strongly
    connected (a weakly connected digraph whose every arc is on a cycle
    is strongly connected, and G is connected iff D is weakly connected);
  * is_brace: a bipartite graph is k-extendable iff D is strongly
    k-connected (Robertson-Seymour-Thomas 1999; Lovasz-Plummer, Matching
    Theory). For n >= 3 a brace is therefore a strongly connected D that
    stays strongly connected after deleting any one vertex v. Graphs with
    n <= 2 are braces exactly when matching-covered, by convention;
  * find_tight_set takes the first v whose deletion splits D and the
    source SCC S of D - v that Tarjan's pass emits last. Then
    A1 = S + {v} and B1 = M(S): a row outside A1 meeting a column M(s)
    would be an arc into S from the rest of D - v, which a source SCC does
    not have, so N(B1) is inside A1 and |A1| = |B1| + 1. The certificate
    is still checked by certificate_ok before it is returned.

Which perfect matching M is used does not change any of these answers.
The matching search and the SCC pass are iterative, so the depth of an
augmenting path or of D never meets Python's recursion limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from .errors import (
    CapExceeded,
    InvariantError,
    IsBrace,
    NoPerfectMatching,
    NotMatchingCovered,
)
from .graphs import RED, ColoredBipartiteGraph

DEFAULT_CYCLE_CAP = 10**6


@dataclass(frozen=True)
class Matching:
    """Row -> column assignment with the matched edge colors.

    assignment[i] is the column matched to row i, or None. colors[i] is the
    color of the matched record (for multigraph cells with both colors, the
    enumerator decides; max_matching reports the blue record).
    """

    assignment: Tuple[Optional[int], ...]
    colors: Tuple[Optional[int], ...]

    @property
    def size(self) -> int:
        return sum(1 for c in self.assignment if c is not None)

    @property
    def red_count(self) -> int:
        return sum(1 for k in self.colors if k == RED)

    def as_edges(self) -> Tuple[Tuple[int, int, int], ...]:
        return tuple(
            (i, c, k)
            for i, (c, k) in enumerate(zip(self.assignment, self.colors))
            if c is not None
        )


# ---------------------------------------------------------------------------
# maximum matching (Kuhn augmenting paths)


def _augment(
    row_adj: Tuple[Tuple[int, ...], ...],
    root: int,
    match_col: list[Optional[int]],
) -> bool:
    """Depth-first search for an augmenting path from a free row.

    Visits columns in adjacency order, like the textbook recursion, but
    keeps its own stack: rows[k] reached its entry through cols[k - 1].
    """
    visited = [False] * len(match_col)
    rows = [root]
    iters = [iter(row_adj[root])]
    cols: list[int] = []
    while rows:
        for col in iters[-1]:
            if not visited[col]:
                visited[col] = True
                break
        else:
            rows.pop()
            iters.pop()
            if cols:
                cols.pop()
            continue
        cols.append(col)
        owner = match_col[col]
        if owner is None:
            for r, c in zip(rows, cols):
                match_col[c] = r
            return True
        rows.append(owner)
        iters.append(iter(row_adj[owner]))
    return False


def _max_assignment(
    n: int, row_adj: Tuple[Tuple[int, ...], ...]
) -> list[Optional[int]]:
    """Deterministic maximum matching as row -> column (None if unmatched)."""
    match_col: list[Optional[int]] = [None] * n
    matched_rows: set[int] = set()
    # greedy pass keeps early rows on their first free column (identity on
    # complete graphs), then augmenting paths fix up the rest
    for row in range(n):
        for col in row_adj[row]:
            if match_col[col] is None:
                match_col[col] = row
                matched_rows.add(row)
                break
    for row in range(n):
        if row not in matched_rows:
            _augment(row_adj, row, match_col)
    assignment: list[Optional[int]] = [None] * n
    for col, row in enumerate(match_col):
        if row is not None:
            assignment[row] = col
    return assignment


def max_matching(g: ColoredBipartiteGraph) -> Matching:
    assignment = _max_assignment(g.n, g.row_adj)
    colors: list[Optional[int]] = [None] * g.n
    for i, c in enumerate(assignment):
        if c is not None:
            colors[i] = g.cells[i, c][0]  # blue record if both present
    return Matching(tuple(assignment), tuple(colors))


def has_perfect_matching(g: ColoredBipartiteGraph) -> bool:
    if g.n == 0:
        return True
    return max_matching(g).size == g.n


# ---------------------------------------------------------------------------
# the digraph D(G, M)


class _PairDigraph:
    """D(G, M) for a maximum matching M of g; see the module docstring.

    mate[i] is M's column for row i (None if unmatched). pair_of_col and
    the arcs exist only when M is perfect: pair_of_col[c] is the row matched
    to column c, and arcs[i] lists the pairs j != i whose column row i
    meets, in column order.
    """

    def __init__(self, g: ColoredBipartiteGraph):
        n = g.n
        self.n = n
        self.mate = _max_assignment(n, g.row_adj)
        self.perfect = None not in self.mate
        self.pair_of_col = [0] * n
        self.arcs: Tuple[Tuple[int, ...], ...] = ()
        if self.perfect:
            for i, c in enumerate(self.mate):
                self.pair_of_col[c] = i
            self.arcs = tuple(
                tuple(self.pair_of_col[c] for c in adj if c != self.mate[i])
                for i, adj in enumerate(g.row_adj)
            )

    def sccs(self, skip: int = -1) -> list[list[int]]:
        """SCCs of D minus vertex skip, sinks first (Tarjan, iterative).

        Each SCC is emitted after every SCC it has an arc into, so the last
        one emitted has no in-arcs from the others: it is a source.
        """
        arcs = self.arcs
        index = [-1] * self.n
        low = [0] * self.n
        on_stack = [False] * self.n
        stack: list[int] = []
        out: list[list[int]] = []
        counter = 0
        for root in range(self.n):
            if root == skip or index[root] >= 0:
                continue
            index[root] = low[root] = counter
            counter += 1
            stack.append(root)
            on_stack[root] = True
            work = [(root, iter(arcs[root]))]
            while work:
                v, it = work[-1]
                for w in it:
                    if w == skip:
                        continue
                    if index[w] < 0:
                        index[w] = low[w] = counter
                        counter += 1
                        stack.append(w)
                        on_stack[w] = True
                        work.append((w, iter(arcs[w])))
                        break
                    if on_stack[w] and index[w] < low[v]:
                        low[v] = index[w]
                else:
                    work.pop()
                    if work:
                        u = work[-1][0]
                        if low[v] < low[u]:
                            low[u] = low[v]
                    if low[v] == index[v]:
                        comp = []
                        while True:
                            w = stack.pop()
                            on_stack[w] = False
                            comp.append(w)
                            if w == v:
                                break
                        out.append(comp)
        return out

    def strongly_connected(self) -> bool:
        """D exists (n >= 1, M perfect) and has a single SCC."""
        return self.n >= 1 and self.perfect and len(self.sccs()) == 1

    def splitting_vertex(self) -> Optional[int]:
        """First v with D - v not strongly connected (D itself is, n >= 3)."""
        for v in range(self.n):
            if len(self.sccs(skip=v)) > 1:
                return v
        return None


# ---------------------------------------------------------------------------
# allowed edges and matching-covered


def allowed_edges(g: ColoredBipartiteGraph) -> ColoredBipartiteGraph:
    """Subgraph of edges lying in at least one perfect matching.

    Keeps the matched cells of M and every cell (i, M(j)) whose pairs i and
    j share an SCC of D(G, M). Raises NoPerfectMatching when the graph has
    none.
    """
    d = _PairDigraph(g)
    if not d.perfect:
        size = sum(1 for c in d.mate if c is not None)
        raise NoPerfectMatching(f"maximum matching has size {size} < {g.n}")
    comp_of = [0] * g.n
    for idx, comp in enumerate(d.sccs()):
        for v in comp:
            comp_of[v] = idx
    kept = [
        rec
        for rec in g.edges
        if comp_of[rec[0]] == comp_of[d.pair_of_col[rec[1]]]
    ]
    return ColoredBipartiteGraph.make(g.n, kept, g.multi)


def is_matching_covered(g: ColoredBipartiteGraph) -> bool:
    """Connected and every edge lies in some perfect matching."""
    return _PairDigraph(g).strongly_connected()


# ---------------------------------------------------------------------------
# braces


def is_brace(g: ColoredBipartiteGraph) -> bool:
    """Every two vertex-disjoint edges extend to a perfect matching.

    Decided on D(G, M): strongly connected, and for n >= 3 still strongly
    connected after deleting any one vertex. Graphs with n <= 2 pass once
    matching-covered, which is the convention.
    """
    d = _PairDigraph(g)
    if not d.strongly_connected():
        return False
    return g.n <= 2 or d.splitting_vertex() is None


# ---------------------------------------------------------------------------
# tight set certificates


@dataclass(frozen=True)
class TightSetCertificate:
    """Rows A1 and columns B1 with N(B1) subseteq A1 and |A1| = |B1| + 1.

    Every perfect matching then crosses from A1 to the complement columns
    exactly once. mirrored certificates swap the roles of rows and columns.
    """

    rows_a1: Tuple[int, ...]
    cols_b1: Tuple[int, ...]
    mirrored: bool = False


def certificate_ok(g: ColoredBipartiteGraph, cert: TightSetCertificate) -> bool:
    base = g.transpose() if cert.mirrored else g
    a1, b1 = set(cert.rows_a1), set(cert.cols_b1)
    if not b1 or not (0 < len(a1) < base.n):
        return False
    if len(a1) != len(b1) + 1:
        return False
    neighborhood = {r for c in b1 for r in base.col_adj[c]}
    return neighborhood <= a1


def find_tight_set(g: ColoredBipartiteGraph) -> TightSetCertificate:
    """Produce a tight set certificate for a non-brace matching-covered graph.

    With v the first vertex whose deletion splits D(G, M) and S the source
    SCC of D - v, returns A1 = S + {v}, B1 = M(S) in standard form. Raises
    IsBrace when no vertex splits D, and InvariantError if the certificate
    ever fails certificate_ok.
    """
    d = _PairDigraph(g)
    if not d.strongly_connected():
        raise NotMatchingCovered("find_tight_set needs a matching-covered graph")
    if g.n <= 2:
        raise IsBrace(f"n = {g.n} matching-covered graphs are braces")
    v = d.splitting_vertex()
    if v is None:
        raise IsBrace("D(G, M) stays strongly connected after any deletion")
    source = d.sccs(skip=v)[-1]
    cert = TightSetCertificate(
        tuple(sorted(source + [v])), tuple(sorted(d.mate[i] for i in source))
    )
    if not certificate_ok(g, cert):
        raise InvariantError(f"tight set {cert} fails certificate_ok")
    return cert


# ---------------------------------------------------------------------------
# alternating cycles


@dataclass(frozen=True)
class AlternatingCycle:
    """Cycle alternating between a base matching M0 and other edges.

    rows is the canonical rotation (smallest row first) of the visited rows
    i_0..i_{k-1}; the cycle uses matched cells (i_j, m0(i_j)) and free cells
    (i_j, m0(i_{j+1})). displacement is the red-count change from switching
    the matching along the cycle.
    """

    rows: Tuple[int, ...]
    edges: Tuple[Tuple[int, int], ...]
    displacement: int


def alternating_cycles(
    g: ColoredBipartiteGraph,
    m0: Matching,
    cap: int = DEFAULT_CYCLE_CAP,
) -> list[AlternatingCycle]:
    """All alternating cycles w.r.t. m0, lexicographic by row sequence.

    Cycles are directed: for k >= 3 rows, traversing the same rows the other
    way uses different free cells and is listed separately. Raises
    CapExceeded (carrying the partial list) past cap cycles.
    """
    assert not g.multi, "alternating cycles are defined on simple graphs"
    n = g.n
    assignment = m0.assignment
    assert all(c is not None for c in assignment), "m0 must be perfect"
    col_owner = {c: r for r, c in enumerate(assignment)}

    out: list[AlternatingCycle] = []

    def rho(r: int, c: int) -> int:
        return 1 if g.cells[r, c][0] == RED else 0

    def close_cycle(path: list[int]) -> None:
        edges = []
        delta = 0
        k = len(path)
        for idx in range(k):
            r = path[idx]
            nxt = path[(idx + 1) % k]
            edges.append((r, assignment[r]))
            edges.append((r, assignment[nxt]))
            delta += rho(r, assignment[nxt]) - rho(r, assignment[r])
        out.append(AlternatingCycle(tuple(path), tuple(edges), delta))
        if len(out) > cap:
            raise CapExceeded(
                f"more than {cap} alternating cycles", partial=out[:cap]
            )

    def extend(start: int, path: list[int], used: set[int]) -> None:
        last = path[-1]
        for col in g.row_adj[last]:
            if col == assignment[last]:
                continue
            row = col_owner[col]
            if row == start and len(path) >= 2:
                close_cycle(path)
                continue
            if row <= start or row in used:
                continue
            used.add(row)
            path.append(row)
            extend(start, path, used)
            path.pop()
            used.remove(row)

    for start in range(n):
        extend(start, [start], {start})

    def dedupe_two_cycles(
        cycles: list[AlternatingCycle],
    ) -> list[AlternatingCycle]:
        # k = 2 cycles appear once per direction but are the same edge set
        seen: set[Tuple[int, ...]] = set()
        kept = []
        for cyc in cycles:
            if len(cyc.rows) == 2:
                key = cyc.rows
                if key in seen:
                    continue
                seen.add(key)
            kept.append(cyc)
        return kept

    return dedupe_two_cycles(out)


def reachable_red_counts(
    g: ColoredBipartiteGraph,
    m0: Matching,
    cap: int = DEFAULT_CYCLE_CAP,
) -> set[int]:
    """Red counts of matchings reachable from m0 by disjoint cycle switches.

    Every collection of row-disjoint alternating cycles yields the matching
    obtained by switching all of them; the result's red count is m0's plus
    the displacement sum. Raises CapExceeded past cap collections.
    """
    cycles = alternating_cycles(g, m0, cap)
    base = m0.red_count
    counts = {base}
    masks = [
        (sum(1 << r for r in cyc.rows), cyc.displacement) for cyc in cycles
    ]

    seen_states = 0

    def walk(idx: int, used_mask: int, delta: int) -> None:
        nonlocal seen_states
        counts.add(base + delta)
        for j in range(idx, len(masks)):
            mask, d = masks[j]
            if mask & used_mask:
                continue
            seen_states += 1
            if seen_states > cap:
                raise CapExceeded(
                    f"more than {cap} disjoint cycle collections",
                    partial=sorted(counts),
                )
            walk(j + 1, used_mask | mask, delta + d)

    walk(0, 0, 0)
    return counts
