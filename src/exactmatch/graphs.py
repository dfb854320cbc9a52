"""Red/blue edge-colored bipartite graphs and the EBG text format.

A graph has n rows and n columns (both labeled 0..n-1). Edges are records
(row, col, color) with color 0 = blue, 1 = red. Simple graphs (multi=False)
allow at most one record per cell; multigraphs allow two parallel records in
a cell provided they differ in color -- these arise from contracting tight
cuts, never from input files.

The EBG format is line-based:

    # comment
    ebg 1
    n 3
    e 0 0 0
    e 0 1 1

Canonical serialization sorts edge records by (row, col, color), so
parse(serialize(g)) == g for every simple graph.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence, Tuple

from .errors import (
    BadColor,
    BadParams,
    BadVersion,
    DuplicateEdge,
    EbgSyntaxError,
    IndexOutOfRange,
)

BLUE = 0
RED = 1

EdgeRecord = Tuple[int, int, int]  # (row, col, color)


@dataclass(frozen=True)
class ColoredBipartiteGraph:
    """Immutable edge-colored bipartite graph on n+n vertices."""

    n: int
    edges: Tuple[EdgeRecord, ...]
    multi: bool = False

    @staticmethod
    def make(
        n: int,
        edges: Iterable[Sequence[int]],
        multi: bool = False,
    ) -> "ColoredBipartiteGraph":
        """Canonicalizing, validating constructor."""
        records = sorted((int(r), int(c), int(k)) for r, c, k in edges)
        seen: set[EdgeRecord] = set()
        cells: dict[Tuple[int, int], int] = {}
        for rec in records:
            r, c, k = rec
            if not (0 <= r < n and 0 <= c < n):
                raise IndexOutOfRange(f"edge {rec} outside 0..{n - 1}")
            if k not in (BLUE, RED):
                raise BadColor(f"edge {rec}: color must be 0 or 1")
            if rec in seen:
                raise DuplicateEdge(f"repeated record {rec}")
            seen.add(rec)
            cells[r, c] = cells.get((r, c), 0) + 1
            if cells[r, c] > 1 and not multi:
                raise DuplicateEdge(f"cell ({r},{c}) has parallel edges")
        return ColoredBipartiteGraph(n, tuple(records), multi)

    # -- derived views ------------------------------------------------

    @cached_property
    def cells(self) -> dict[Tuple[int, int], Tuple[int, ...]]:
        """(row, col) -> sorted tuple of colors present."""
        out: dict[Tuple[int, int], list[int]] = {}
        for r, c, k in self.edges:
            out.setdefault((r, c), []).append(k)
        return {cell: tuple(sorted(ks)) for cell, ks in out.items()}

    @cached_property
    def row_adj(self) -> Tuple[Tuple[int, ...], ...]:
        adj: list[set[int]] = [set() for _ in range(self.n)]
        for r, c, _ in self.edges:
            adj[r].add(c)
        return tuple(tuple(sorted(s)) for s in adj)

    @cached_property
    def col_adj(self) -> Tuple[Tuple[int, ...], ...]:
        adj: list[set[int]] = [set() for _ in range(self.n)]
        for r, c, _ in self.edges:
            adj[c].add(r)
        return tuple(tuple(sorted(s)) for s in adj)

    def has_edge(self, r: int, c: int, color: Optional[int] = None) -> bool:
        colors = self.cells.get((r, c))
        if colors is None:
            return False
        return True if color is None else color in colors

    def color_of(self, r: int, c: int) -> int:
        """Color of the unique record in a cell (simple graphs)."""
        colors = self.cells[r, c]
        assert len(colors) == 1, f"cell ({r},{c}) is not simple"
        return colors[0]

    @property
    def red_edges(self) -> Tuple[EdgeRecord, ...]:
        return tuple(e for e in self.edges if e[2] == RED)

    def transpose(self) -> "ColoredBipartiteGraph":
        """Swap row/column roles."""
        return ColoredBipartiteGraph.make(
            self.n, [(c, r, k) for r, c, k in self.edges], self.multi
        )

    def induced(
        self, rows: Sequence[int], cols: Sequence[int]
    ) -> "ColoredBipartiteGraph":
        """Induced subgraph on the given rows/cols, relabeled 0..k-1.

        Row/col order follows the sorted original labels; both sides must
        have equal size (the result is square by construction).
        """
        rows = sorted(rows)
        cols = sorted(cols)
        assert len(rows) == len(cols), "induced subgraph must stay balanced"
        rmap = {r: i for i, r in enumerate(rows)}
        cmap = {c: j for j, c in enumerate(cols)}
        sub = [
            (rmap[r], cmap[c], k)
            for r, c, k in self.edges
            if r in rmap and c in cmap
        ]
        return ColoredBipartiteGraph.make(len(rows), sub, self.multi)

    def without(
        self, del_rows: Iterable[int] = (), del_cols: Iterable[int] = ()
    ) -> "ColoredBipartiteGraph":
        dr, dc = set(del_rows), set(del_cols)
        return self.induced(
            [r for r in range(self.n) if r not in dr],
            [c for c in range(self.n) if c not in dc],
        )

    def components(self) -> list[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
        """Connected components as (rows, cols) pairs, sorted by min row/col."""
        seen_r = [False] * self.n
        seen_c = [False] * self.n
        comps = []
        for start_is_row, start in [(True, i) for i in range(self.n)] + [
            (False, j) for j in range(self.n)
        ]:
            if (seen_r if start_is_row else seen_c)[start]:
                continue
            rows, cols = [], []
            stack = [(start_is_row, start)]
            (seen_r if start_is_row else seen_c)[start] = True
            while stack:
                is_row, v = stack.pop()
                if is_row:
                    rows.append(v)
                    for c in self.row_adj[v]:
                        if not seen_c[c]:
                            seen_c[c] = True
                            stack.append((False, c))
                else:
                    cols.append(v)
                    for r in self.col_adj[v]:
                        if not seen_r[r]:
                            seen_r[r] = True
                            stack.append((True, r))
            comps.append((tuple(sorted(rows)), tuple(sorted(cols))))
        return comps

    def is_connected(self) -> bool:
        comps = self.components()
        return len(comps) == 1 and len(comps[0][0]) == self.n


# ---------------------------------------------------------------------------
# validation findings


@dataclass(frozen=True)
class Finding:
    kind: str
    detail: str


def validate(g: ColoredBipartiteGraph) -> list[Finding]:
    """Non-raising structural audit; returns a list of findings (empty = ok)."""
    findings: list[Finding] = []
    if g.n < 0:
        findings.append(Finding("BadSize", f"n = {g.n}"))
        return findings
    seen: set[EdgeRecord] = set()
    cell_count: dict[Tuple[int, int], int] = {}
    for rec in g.edges:
        r, c, k = rec
        if not (0 <= r < g.n and 0 <= c < g.n):
            findings.append(Finding("IndexOutOfRange", f"edge {rec}"))
            continue
        if k not in (BLUE, RED):
            findings.append(Finding("BadColor", f"edge {rec}"))
            continue
        if rec in seen:
            findings.append(Finding("DuplicateEdge", f"repeated record {rec}"))
        seen.add(rec)
        cell_count[r, c] = cell_count.get((r, c), 0) + 1
    for (r, c), cnt in sorted(cell_count.items()):
        if cnt > 1 and not g.multi:
            findings.append(
                Finding("DuplicateEdge", f"cell ({r},{c}) has parallel edges")
            )
        elif cnt > 2:
            findings.append(
                Finding("DuplicateEdge", f"cell ({r},{c}) has {cnt} > 2 edges")
            )
    row_deg = [0] * g.n
    col_deg = [0] * g.n
    for r, c, _ in g.edges:
        if 0 <= r < g.n and 0 <= c < g.n:
            row_deg[r] += 1
            col_deg[c] += 1
    for i in range(g.n):
        if row_deg[i] == 0:
            findings.append(Finding("IsolatedVertex", f"row {i}"))
        if col_deg[i] == 0:
            findings.append(Finding("IsolatedVertex", f"col {i}"))
    return findings


# ---------------------------------------------------------------------------
# EBG reader / writer


def parse_ebg(text: str) -> ColoredBipartiteGraph:
    """Parse the EBG text format. Simple graphs only."""
    n: Optional[int] = None
    version_seen = False
    records: list[EdgeRecord] = []
    cells: set[Tuple[int, int]] = set()
    line_no = 0
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if not version_seen:
            if parts[0] != "ebg" or len(parts) != 2:
                raise EbgSyntaxError(line_no, "expected header 'ebg 1'")
            if parts[1] != "1":
                raise BadVersion(f"unsupported version {parts[1]!r}")
            version_seen = True
            continue
        if parts[0] == "n":
            if n is not None:
                raise EbgSyntaxError(line_no, "repeated 'n' directive")
            if len(parts) != 2 or not _is_int(parts[1]):
                raise EbgSyntaxError(line_no, "usage: n <size>")
            n = int(parts[1])
            if n < 0:
                raise EbgSyntaxError(line_no, "negative size")
        elif parts[0] == "e":
            if n is None:
                raise EbgSyntaxError(line_no, "'e' before 'n'")
            if len(parts) != 4 or not all(_is_int(p) for p in parts[1:]):
                raise EbgSyntaxError(line_no, "usage: e <row> <col> <color>")
            r, c, k = int(parts[1]), int(parts[2]), int(parts[3])
            if k not in (BLUE, RED):
                raise EbgSyntaxError(line_no, f"color must be 0 or 1, got {k}")
            if not (0 <= r < n and 0 <= c < n):
                raise IndexOutOfRange(f"line {line_no}: edge ({r},{c})")
            if (r, c) in cells:
                raise DuplicateEdge(f"line {line_no}: repeated cell ({r},{c})")
            cells.add((r, c))
            records.append((r, c, k))
        else:
            raise EbgSyntaxError(line_no, f"unknown directive {parts[0]!r}")
    if not version_seen:
        raise EbgSyntaxError(max(line_no, 1), "missing 'ebg 1' header")
    if n is None:
        raise EbgSyntaxError(max(line_no, 1), "missing 'n' directive")
    return ColoredBipartiteGraph.make(n, records, multi=False)


def serialize_ebg(g: ColoredBipartiteGraph) -> str:
    """Canonical EBG text (records sorted by (row, col, color))."""
    assert not g.multi, "EBG format carries simple graphs only"
    lines = ["ebg 1", f"n {g.n}"]
    lines.extend(f"e {r} {c} {k}" for r, c, k in sorted(g.edges))
    return "\n".join(lines) + "\n"


def _is_int(token: str) -> bool:
    try:
        int(token)
    except ValueError:
        return False
    return True


# ---------------------------------------------------------------------------
# families and colorings


def knn(n: int) -> ColoredBipartiteGraph:
    """Complete bipartite graph, all blue."""
    if n < 1:
        raise BadParams("knn needs n >= 1")
    return ColoredBipartiteGraph.make(
        n, [(i, j, BLUE) for i in range(n) for j in range(n)]
    )


def band_path(m: int) -> ColoredBipartiteGraph:
    """Tridiagonal support: edge (i,j) iff |i-j| <= 1, all blue."""
    if m < 1:
        raise BadParams("band_path needs m >= 1")
    return ColoredBipartiteGraph.make(
        m,
        [
            (i, j, BLUE)
            for i in range(m)
            for j in range(m)
            if abs(i - j) <= 1
        ],
    )


def band_cyclic(m: int) -> ColoredBipartiteGraph:
    """band_path plus the wrap-around cells (0, m-1) and (m-1, 0)."""
    if m < 3:
        raise BadParams("band_cyclic needs m >= 3")
    edges = [
        (i, j, BLUE) for i in range(m) for j in range(m) if abs(i - j) <= 1
    ]
    edges += [(0, m - 1, BLUE), (m - 1, 0, BLUE)]
    return ColoredBipartiteGraph.make(m, edges)


def biwheel(m: int) -> ColoredBipartiteGraph:
    """Two hubs plus an alternating rim, all blue.

    Hub row 0 sees every column except 0; hub column 0 sees every row
    except 0 (there is NO (0,0) edge). Rim rows 1..m-1 carry (i, i) and
    (i, i+1), wrapping the last one back to column 1. Exactly (m-1)^2
    perfect matchings.
    """
    if m < 3:
        raise BadParams("biwheel needs m >= 3")
    edges = [(0, j, BLUE) for j in range(1, m)]
    edges += [(i, 0, BLUE) for i in range(1, m)]
    for i in range(1, m):
        nxt = i + 1 if i + 1 < m else 1
        edges.append((i, i, BLUE))
        if nxt != i:
            edges.append((i, nxt, BLUE))
    return ColoredBipartiteGraph.make(m, sorted(set(edges)))


def random_graph(
    n: int,
    density: float,
    red_prob: float,
    seed: Optional[int] = None,
    require_pm: bool = False,
) -> ColoredBipartiteGraph:
    """Bernoulli cells, Bernoulli colors, deterministic under seed.

    With require_pm, rejection-samples up to 1000 candidates and raises
    BadParams if none has a perfect matching.
    """
    if n < 1:
        raise BadParams("random_graph needs n >= 1")
    if not (0.0 <= density <= 1.0 and 0.0 <= red_prob <= 1.0):
        raise BadParams("density and red_prob must be in [0,1]")
    from .matching import has_perfect_matching

    rng = random.Random(seed)
    for _ in range(1000):
        edges = []
        for i in range(n):
            for j in range(n):
                if rng.random() < density:
                    color = RED if rng.random() < red_prob else BLUE
                    edges.append((i, j, color))
        g = ColoredBipartiteGraph.make(n, edges)
        if not require_pm or has_perfect_matching(g):
            return g
    raise BadParams(
        f"no perfect matching found in 1000 samples (n={n}, density={density})"
    )


def with_coloring(
    g: ColoredBipartiteGraph,
    red: object = "none",
    red_prob: float = 0.5,
    seed: Optional[int] = None,
) -> ColoredBipartiteGraph:
    """Recolor a simple graph.

    red is one of: "none" (all blue), "diag" (cells (i,i) red where present),
    "bernoulli" (each cell red with red_prob), or an explicit collection of
    (row, col) cells, all of which must exist.
    """
    cells = set(g.cells)
    if red == "none":
        red_cells: set[Tuple[int, int]] = set()
    elif red == "diag":
        red_cells = {(i, i) for i in range(g.n) if (i, i) in cells}
    elif red == "bernoulli":
        rng = random.Random(seed)
        red_cells = {cell for cell in sorted(cells) if rng.random() < red_prob}
    else:
        red_cells = {(int(r), int(c)) for r, c in red}  # type: ignore[union-attr]
        missing = red_cells - cells
        if missing:
            raise BadParams(f"red cells not in graph: {sorted(missing)}")
    return ColoredBipartiteGraph.make(
        g.n,
        [(r, c, RED if (r, c) in red_cells else BLUE) for (r, c) in cells],
    )


FAMILIES = ("knn", "biwheel", "band_path", "band_cyclic", "random")


def gen_family(
    family: str,
    *,
    n: Optional[int] = None,
    m: Optional[int] = None,
    density: float = 0.5,
    red: object = "none",
    red_prob: float = 0.5,
    seed: Optional[int] = None,
    require_pm: bool = False,
) -> ColoredBipartiteGraph:
    """Build a named family instance and apply a coloring directive."""
    size = n if n is not None else m
    if family == "random":
        if size is None:
            raise BadParams("random needs n")
        # random colors itself through red_prob draws
        return random_graph(size, density, red_prob, seed, require_pm)
    if size is None:
        raise BadParams(f"{family} needs n or m")
    if family == "knn":
        g = knn(size)
    elif family == "biwheel":
        g = biwheel(size)
    elif family == "band_path":
        g = band_path(size)
    elif family == "band_cyclic":
        g = band_cyclic(size)
    else:
        raise BadParams(f"unknown family {family!r} (choose from {FAMILIES})")
    return with_coloring(g, red=red, red_prob=red_prob, seed=seed)
