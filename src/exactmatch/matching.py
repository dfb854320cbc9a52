"""Matchings, allowed edges, braces and tight sets.

Everything here works on the underlying simple structure (cells): edge
colors never influence whether a matching exists, only how it is counted.
Algorithms are deterministic -- rows are processed in increasing order and
adjacency lists are sorted -- so repeated runs give identical certificates.

Allowed edges, matching-covered, brace and tight-set questions are all
answered from one digraph. Fix a perfect matching M (row i -> column M(i))
and let D = D(G, M) have one vertex per matched pair i and an arc i -> j
whenever row i meets column M(j), j != i. A non-matching cell (i, M(j)) is
the arc i -> j, and it lies in an M-alternating cycle exactly when a
directed cycle of D runs through that arc.

One private primitive, _elementary(g), builds D once and returns None when
g has no perfect matching, else D itself: M, the arcs, the elementary
blocks -- the SCCs of D, each as its pairs and their columns, ordered by
smallest row (Lovasz-Plummer, Matching Theory) -- with a block index per
pair, and for a single block, on request, the tight-set certificate, None
for a brace. Every public question is a view:

  * allowed_edges keeps the records whose row and column share a block;
  * is_matching_covered holds iff there is exactly one block (n >= 1): a
    weakly connected digraph whose every arc is on a cycle is strongly
    connected, and G is connected iff D is weakly connected;
  * is_brace: a bipartite graph is k-extendable iff D is strongly
    k-connected (Robertson-Seymour-Thomas 1999). For n >= 3 a brace is
    therefore a strongly connected D that stays strongly connected after
    deleting any one vertex v. Graphs with n <= 2 are braces exactly when
    matching-covered, by convention;
  * find_tight_set takes the first v whose deletion splits D and the
    source SCC S of D - v that Tarjan's pass emits last. Then
    A1 = S + {v} and B1 = M(S): a row outside A1 meeting a column M(s)
    would be an arc into S from the rest of D - v, which a source SCC does
    not have, so N(B1) is inside A1 and |A1| = |B1| + 1. The certificate
    is still checked by certificate_ok before it is returned.

is_brace and find_tight_set are both views of _split_certificate (None for
a brace, else the certificate). The solver's recursion and the tight-cut
decomposition build at most one D per graph and ask it every structural
question about that graph; a solver root that its certificates settle
from the records alone builds none.

Which perfect matching M is used does not change any of these answers.
The matching search and the SCC pass are iterative, so the depth of an
augmenting path or of D never meets Python's recursion limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from .errors import (
    InvariantError,
    IsBrace,
    NoPerfectMatching,
    NotMatchingCovered,
)
from .graphs import RED, ColoredBipartiteGraph, EdgeRecord

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
# tight set certificates


@dataclass(frozen=True)
class TightSetCertificate:
    """Rows A1 and columns B1 with N(B1) subseteq A1 and |A1| = |B1| + 1.

    Every perfect matching then crosses from A1 to the complement columns
    exactly once.
    """

    rows_a1: Tuple[int, ...]
    cols_b1: Tuple[int, ...]


def certificate_ok(g: ColoredBipartiteGraph, cert: TightSetCertificate) -> bool:
    a1, b1 = set(cert.rows_a1), set(cert.cols_b1)
    if not b1 or not (0 < len(a1) < g.n):
        return False
    if len(a1) != len(b1) + 1:
        return False
    neighborhood = {r for c in b1 for r in g.col_adj[c]}
    return neighborhood <= a1


# ---------------------------------------------------------------------------
# the primitive: D(G, M), its elementary blocks and its split

Block = Tuple[Tuple[int, ...], Tuple[int, ...]]  # (rows, cols), both sorted


class _PairDigraph:
    """D(G, M) for a perfect matching M of g, and what it says about g.

    mate[i] is M's column for row i, and arcs[i] lists the pairs j != i
    whose column row i meets, in column order. blocks are the SCCs of D as
    (rows, cols): rows the pairs of the SCC, cols their columns M(rows),
    ordered by smallest row, and block_of[i] is the index of pair i's
    block, the block of row i and of column mate[i]. The blocks are the
    connected components of allowed_edges(g), in components() order, and g
    induces each one directly: a cell of g inside an SCC is an arc of it
    or a matched cell, so it is allowed. g is matching-covered exactly when
    there is one block (n >= 1), and then g is its own allowed-edge graph.
    """

    def __init__(self, g: ColoredBipartiteGraph, mate: list[int]):
        self.g, self.n, self.mate = g, g.n, mate
        self.pair_of_col = pair_of_col = [0] * g.n
        for i, c in enumerate(mate):
            pair_of_col[c] = i
        self.arcs: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(pair_of_col[c] for c in adj if c != mate[i])
            for i, adj in enumerate(g.row_adj)
        )
        self.blocks: Tuple[Block, ...] = tuple(
            (tuple(rows), tuple(sorted(mate[i] for i in rows)))
            for rows in sorted(sorted(comp) for comp in self.sccs())
        )
        self.block_of = [0] * g.n
        for b, (rows, _) in enumerate(self.blocks):
            for r in rows:
                self.block_of[r] = b

    def allowed(self) -> Tuple[EdgeRecord, ...]:
        """g's records whose row and column share a block, in g's order."""
        block_of, pair_of_col = self.block_of, self.pair_of_col
        return tuple(
            rec for rec in self.g.edges
            if block_of[rec[0]] == block_of[pair_of_col[rec[1]]]
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

    def split(self) -> Optional[Tuple[int, list[list[int]]]]:
        """First v whose deletion splits D (D itself is strongly connected,
        n >= 3), with the SCCs of D - v; None when no deletion splits D."""
        for v in range(self.n):
            comps = self.sccs(skip=v)
            if len(comps) > 1:
                return v, comps
        return None

    def split_certificate(self) -> Optional[TightSetCertificate]:
        """None for a brace, else find_tight_set's certificate.

        With v the first vertex whose deletion splits D and S the source
        SCC of D - v, the certificate is A1 = S + {v}, B1 = M(S). Raises
        NotMatchingCovered unless g is one block, and InvariantError if
        the certificate ever fails certificate_ok.
        """
        if len(self.blocks) != 1:
            raise NotMatchingCovered("the graph is not matching-covered")
        found = self.split() if self.n > 2 else None
        if found is None:
            return None
        v, comps = found
        source = comps[-1]
        cert = TightSetCertificate(
            tuple(sorted(source + [v])),
            tuple(sorted(self.mate[i] for i in source)),
        )
        if not certificate_ok(self.g, cert):
            raise InvariantError(f"tight set {cert} fails certificate_ok")
        return cert


def _elementary(g: ColoredBipartiteGraph) -> Optional[_PairDigraph]:
    """None when g has no perfect matching, else its one D(G, M)."""
    mate = _max_assignment(g.n, g.row_adj)
    return None if None in mate else _PairDigraph(g, mate)


# ---------------------------------------------------------------------------
# views: allowed edges, matching-covered, braces, tight sets


def allowed_edges(g: ColoredBipartiteGraph) -> ColoredBipartiteGraph:
    """Subgraph of edges lying in at least one perfect matching.

    Keeps every record whose row and column lie in the same elementary
    block. Raises NoPerfectMatching when the graph has none.
    """
    d = _elementary(g)
    if d is None:
        raise NoPerfectMatching(f"no perfect matching on {g.n} + {g.n} vertices")
    # a subsequence of g's sorted, valid records is sorted and valid
    return ColoredBipartiteGraph(g.n, d.allowed(), g.multi)


def is_matching_covered(g: ColoredBipartiteGraph) -> bool:
    """Connected and every edge lies in some perfect matching."""
    d = _elementary(g)
    return d is not None and len(d.blocks) == 1


def _split_certificate(
    g: ColoredBipartiteGraph,
) -> Optional[TightSetCertificate]:
    """None for a brace, else find_tight_set's certificate, from one D(G, M).

    Raises NotMatchingCovered unless g is matching-covered, and
    InvariantError if the certificate ever fails certificate_ok.
    """
    d = _elementary(g)
    if d is None:
        raise NotMatchingCovered("the graph has no perfect matching")
    return d.split_certificate()


def is_brace(g: ColoredBipartiteGraph) -> bool:
    """Every two vertex-disjoint edges extend to a perfect matching.

    Decided on D(G, M): strongly connected, and for n >= 3 still strongly
    connected after deleting any one vertex. Graphs with n <= 2 pass once
    matching-covered, which is the convention.
    """
    try:
        return _split_certificate(g) is None
    except NotMatchingCovered:
        return False


def find_tight_set(g: ColoredBipartiteGraph) -> TightSetCertificate:
    """Produce a tight set certificate for a non-brace matching-covered graph.

    With v the first vertex whose deletion splits D(G, M) and S the source
    SCC of D - v, returns A1 = S + {v}, B1 = M(S) in standard form. Raises
    IsBrace when no vertex splits D, and InvariantError if the certificate
    ever fails certificate_ok.
    """
    cert = _split_certificate(g)
    if cert is not None:
        return cert
    if g.n <= 2:
        raise IsBrace(f"n = {g.n} matching-covered graphs are braces")
    raise IsBrace("D(G, M) stays strongly connected after any deletion")
