"""Independent exact checks for the benchmark, sharing no code with exactmatch.

A graph here is a pair (n, edges) with edges a list of (row, col, color)
triples, color 1 = red. Nothing in this module imports the solver, so a
defect in the solver cannot hide itself by also changing the checks.
"""

from __future__ import annotations


def red_counts(n: int, edges) -> set[int]:
    """Every red count achieved by some perfect matching (empty if none).

    Layered DP over (row, used-column mask): after row r, each reachable
    mask of r used columns maps to an int bitset whose bit t is set when
    some matching of rows 0..r onto those columns has exactly t red edges.
    """
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for r, c, k in edges:
        adj[r].append((1 << c, k))
    layer = {0: 1}
    for row in range(n):
        nxt: dict[int, int] = {}
        for mask, bits in layer.items():
            for cbit, k in adj[row]:
                if mask & cbit:
                    continue
                key = mask | cbit
                nxt[key] = nxt.get(key, 0) | (bits << k)
        layer = nxt
        if not layer:
            return set()
    bits = layer.get((1 << n) - 1, 0)
    return {t for t in range(n + 1) if bits >> t & 1}


def _perfect_matching(n: int, adj) -> list[int] | None:
    """Row -> column perfect matching by Kuhn's augmenting paths, or None."""
    match_col = [-1] * n

    def augment(r: int, seen: set[int]) -> bool:
        for c in adj[r]:
            if c not in seen:
                seen.add(c)
                if match_col[c] < 0 or augment(match_col[c], seen):
                    match_col[c] = r
                    return True
        return False

    for r in range(n):
        if not augment(r, set()):
            return None
    row_of = [0] * n
    for c, r in enumerate(match_col):
        row_of[r] = c
    return row_of


def _strongly_connected(verts: list[int], arcs) -> bool:
    if len(verts) <= 1:
        return True
    alive = set(verts)
    for direction in (arcs, _reverse(arcs)):
        seen = {verts[0]}
        stack = [verts[0]]
        while stack:
            v = stack.pop()
            for w in direction[v]:
                if w in alive and w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != len(alive):
            return False
    return True


def _reverse(arcs):
    rev: list[list[int]] = [[] for _ in arcs]
    for v, outs in enumerate(arcs):
        for w in outs:
            rev[w].append(v)
    return rev


def is_brace(n: int, edges) -> bool:
    """Is the graph a brace (connected, every 2-matching extends)?

    Uses the digraph D(G, M) of a perfect matching M: one vertex per
    matched pair, an arc i -> j when row i meets column M(j), j != i.
    G is k-extendable iff D is strongly k-connected, so for n >= 3 a
    brace is exactly a D that stays strongly connected after deleting
    any one vertex. For n <= 2 the convention is "matching-covered", and
    the empty graph is not a brace.
    """
    if n == 0:
        return False
    adj: list[list[int]] = [[] for _ in range(n)]
    for r, c, _ in edges:
        adj[r].append(c)
    pm = _perfect_matching(n, adj)
    if pm is None:
        return False
    row_of_col = {c: r for r, c in enumerate(pm)}
    arcs = [
        sorted({row_of_col[c] for c in adj[i] if row_of_col[c] != i})
        for i in range(n)
    ]
    verts = list(range(n))
    if not _strongly_connected(verts, arcs):
        return False
    if n <= 2:
        return True
    return all(
        _strongly_connected([u for u in verts if u != v], arcs)
        for v in verts
    )


def witness_error(n: int, edges, t: int, witness) -> str | None:
    """Why a claimed witness is not a perfect matching with t red edges."""
    if witness is None:
        return "no witness returned"
    records = {tuple(e) for e in edges}
    recs = [tuple(e) for e in witness]
    if len(recs) != n:
        return f"witness has {len(recs)} records, expected {n}"
    missing = [e for e in recs if e not in records]
    if missing:
        return f"records not in the input: {missing[:3]}"
    if sorted(r for r, _, _ in recs) != list(range(n)):
        return "rows not covered exactly once"
    if sorted(c for _, c, _ in recs) != list(range(n)):
        return "columns not covered exactly once"
    reds = sum(1 for _, _, k in recs if k == 1)
    if reds != t:
        return f"witness has {reds} red edges, expected {t}"
    return None
