"""Tight-cut decomposition into brace blocks, with edge provenance.

A non-brace matching-covered graph has a tight set certificate (A1, B1):
N(B1) subseteq A1 and |A1| = |B1| + 1, so every perfect matching uses
exactly one crossing edge (A1 -> outside columns). Splitting contracts the
far side into a single vertex on each part:

  * the b-side block keeps rows A1 and columns B1 plus a contracted column
    b*; each crossing edge (a, b, k) becomes (a, b*, k) with its true color,
    and same-row same-color copies merge into one record;
  * the a-side block keeps rows outside A1 plus a contracted row a* and the
    columns outside B1; crossing edges become (a*, b, blue) -- forced blue,
    so the red weight of a crossing edge is counted once, on the b-side.

Blocks are multigraphs (a merged cell can carry both colors) and are
relabeled 0..k-1. Recursion bottoms out at braces. Every split records its
crossing edges and a provenance map from child records back to the node's
records, so matchings of the original graph can be reconstructed exactly;
that reconstruction is what achievable_sets_compose audits.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Tuple, Union

from .errors import InvariantError, OracleCap
from .graphs import BLUE, ColoredBipartiteGraph, EdgeRecord, _run
from .matching import TightSetCertificate, _split_certificate

Origin = Tuple[Optional[int], ...]


@dataclass(frozen=True, eq=False)
class BraceBlock:
    """A leaf block with absolute provenance back to the root graph.

    row_origin/col_origin give the root-graph label of each vertex, or None
    for contracted vertices. edge_origin is aligned with graph.edges; each
    entry lists the root-graph records the block record stands for.
    """

    graph: ColoredBipartiteGraph
    row_origin: Origin
    col_origin: Origin
    edge_origin: Tuple[Tuple[EdgeRecord, ...], ...]

    @property
    def has_parallel_cells(self) -> bool:
        return any(len(ks) > 1 for ks in self.graph.cells.values())


@dataclass(frozen=True, eq=False)
class Leaf:
    graph: ColoredBipartiteGraph
    block: BraceBlock


@dataclass(frozen=True, eq=False)
class Split:
    """Internal node. left is the smaller block (ties keep the b-side left).

    crossing lists this node's records crossing the cut. lmap/rmap send each
    child record (b-side child / a-side child) to the node records it
    represents: singletons for interior records, the merged originals for
    contracted ones.
    """

    graph: ColoredBipartiteGraph
    certificate: TightSetCertificate
    crossing: Tuple[EdgeRecord, ...]
    left: "DecompositionNode"
    right: "DecompositionNode"
    left_has_bstar: bool
    lmap: dict[EdgeRecord, Tuple[EdgeRecord, ...]]
    rmap: dict[EdgeRecord, Tuple[EdgeRecord, ...]]

    @property
    def b_side(self) -> "DecompositionNode":
        return self.left if self.left_has_bstar else self.right

    @property
    def a_side(self) -> "DecompositionNode":
        return self.right if self.left_has_bstar else self.left


DecompositionNode = Union[Leaf, Split]


def decompose(g: ColoredBipartiteGraph) -> DecompositionNode:
    """Build the full tight-cut decomposition tree of a matching-covered graph.

    Raises NotMatchingCovered unless g is matching-covered.
    """
    return _run(_decompose(g, _identity_meta(g)))


def _identity_meta(
    g: ColoredBipartiteGraph,
) -> Tuple[Origin, Origin, Tuple[Tuple[EdgeRecord, ...], ...]]:
    return (
        tuple(range(g.n)),
        tuple(range(g.n)),
        tuple((rec,) for rec in g.edges),
    )


def _decompose(g, meta):
    """The induction as a generator step (graphs._run), so depth is not
    bounded by the interpreter's recursion limit: a brace is a leaf;
    otherwise the b-side block is decomposed, then the a-side block, and
    the two join under a split. Each graph is checked and split from its
    one D(G, M).
    """
    cert = _split_certificate(g)
    if cert is None:  # a brace
        return Leaf(g, BraceBlock(g, *meta))
    bpart, bmeta, lmap, apart, ameta, rmap, crossing = _split(g, meta, cert)
    b_node = yield _decompose(bpart, bmeta)
    a_node = yield _decompose(apart, ameta)
    left_has_bstar = b_node.graph.n <= a_node.graph.n
    left, right = (b_node, a_node) if left_has_bstar else (a_node, b_node)
    return Split(g, cert, crossing, left, right, left_has_bstar, lmap, rmap)


def _split(g, meta, cert):
    """Contract both sides of the tight cut. Returns the two blocks with
    their absolute metadata and the child-record -> node-record maps."""
    row_origin, col_origin, edge_origin = meta
    origin_of = {rec: edge_origin[i] for i, rec in enumerate(g.edges)}
    n = g.n
    a1, b1 = set(cert.rows_a1), set(cert.cols_b1)
    a2 = [r for r in range(n) if r not in a1]
    b2 = [c for c in range(n) if c not in b1]
    a1s, b1s = sorted(a1), sorted(b1)

    crossing = tuple(
        rec for rec in g.edges if rec[0] in a1 and rec[1] not in b1
    )
    if not crossing:
        raise InvariantError("tight cut with no crossing edges")
    for rec in g.edges:
        if rec[0] not in a1 and rec[1] in b1:
            raise InvariantError(
                "certificate leaks: edge from outside rows into B1"
            )

    # ---- b-side block: rows A1, cols B1 + b* --------------------------
    rmap_l = {r: i for i, r in enumerate(a1s)}
    cmap_l = {c: j for j, c in enumerate(b1s)}
    bstar = len(b1s)
    l_records: dict[EdgeRecord, list[EdgeRecord]] = {}
    for rec in g.edges:
        r, c, k = rec
        if r in a1 and c in b1:
            l_records.setdefault((rmap_l[r], cmap_l[c], k), []).append(rec)
        elif r in a1:
            l_records.setdefault((rmap_l[r], bstar, k), []).append(rec)
    bpart = ColoredBipartiteGraph.make(
        len(a1s), list(l_records), multi=True
    )
    lmap = {rec: tuple(sorted(node_recs)) for rec, node_recs in l_records.items()}
    bmeta = (
        tuple(row_origin[r] for r in a1s),
        tuple(col_origin[c] for c in b1s) + (None,),
        tuple(
            _merge_origins(lmap[rec], origin_of) for rec in bpart.edges
        ),
    )

    # ---- a-side block: rows A2 + a*, cols B2 --------------------------
    rmap_r = {r: i for i, r in enumerate(a2)}
    cmap_r = {c: j for j, c in enumerate(b2)}
    astar = len(a2)
    r_records: dict[EdgeRecord, list[EdgeRecord]] = {}
    for rec in g.edges:
        r, c, k = rec
        if r not in a1 and c not in b1:
            r_records.setdefault((rmap_r[r], cmap_r[c], k), []).append(rec)
        elif r in a1 and c not in b1:
            r_records.setdefault((astar, cmap_r[c], BLUE), []).append(rec)
    apart = ColoredBipartiteGraph.make(len(b2), list(r_records), multi=True)
    rmap = {rec: tuple(sorted(node_recs)) for rec, node_recs in r_records.items()}
    ameta = (
        tuple(row_origin[r] for r in a2) + (None,),
        tuple(col_origin[c] for c in b2),
        tuple(
            _merge_origins(rmap[rec], origin_of) for rec in apart.edges
        ),
    )

    return bpart, bmeta, lmap, apart, ameta, rmap, crossing


def _merge_origins(node_recs, origin_of) -> Tuple[EdgeRecord, ...]:
    merged: set[EdgeRecord] = set()
    for rec in node_recs:
        merged.update(origin_of[rec])
    return tuple(sorted(merged))


# ---------------------------------------------------------------------------
# tree views


def _preorder(node: DecompositionNode) -> list[DecompositionNode]:
    """Every node, parents before children, left subtree before right."""
    out: list[DecompositionNode] = []
    stack = [node]
    while stack:
        nd = stack.pop()
        out.append(nd)
        if isinstance(nd, Split):
            stack.append(nd.right)
            stack.append(nd.left)
    return out


def leaves(node: DecompositionNode) -> list[Leaf]:
    return [nd for nd in _preorder(node) if isinstance(nd, Leaf)]


def split_count(node: DecompositionNode) -> int:
    return sum(1 for nd in _preorder(node) if isinstance(nd, Split))


def to_dot(node: DecompositionNode) -> str:
    """Graphviz rendering of the tree shape.

    Nodes are numbered in preorder, each label before its subtree; the
    edge into a child is written after the child's whole subtree.
    """
    lines = ["digraph decomposition {", "  node [shape=box];"]
    _run(_dot(node, lines, itertools.count()))
    lines.append("}")
    return "\n".join(lines)


def _dot(nd: DecompositionNode, lines: list[str], numbers):
    """Append nd's subtree to lines as a generator step; returns its name."""
    name = f"v{next(numbers)}"
    if isinstance(nd, Leaf):
        kind = "multi" if nd.block.has_parallel_cells else "simple"
        lines.append(f'  {name} [label="brace n={nd.graph.n} ({kind})"];')
        return name
    a1, b1 = nd.certificate.rows_a1, nd.certificate.cols_b1
    lines.append(
        f'  {name} [label="split n={nd.graph.n}\\n'
        f"|A1|={len(a1)} |B1|={len(b1)} "
        f'crossing={len(nd.crossing)}"];'
    )
    for child in (nd.left, nd.right):
        child_name = yield _dot(child, lines, numbers)
        lines.append(f"  {name} -> {child_name};")
    return name


# ---------------------------------------------------------------------------
# compositional audit


def achievable_sets_compose(g: ColoredBipartiteGraph, cap: int = 8) -> bool:
    """Audit that block matchings compose exactly to node matchings.

    At every split, perfect matchings of the node graph must correspond
    one-to-one to pairs (b-side matching, a-side matching) that resolve to a
    common crossing record: the b-side pins the crossing row and color, the
    a-side pins the column. The audit reconstructs each node's matching set
    bottom-up through the provenance maps and compares against direct
    enumeration -- including, at the root, the achievable red-count set.
    Exhaustive, hence capped (OracleCap past n = cap).
    """
    from .verify.core import enumerate_pms, red_count_set

    if g.n > cap:
        raise OracleCap(f"compositional audit capped at n = {cap}")
    tree = decompose(g)
    ok = True

    def direct(graph: ColoredBipartiteGraph) -> set[frozenset[EdgeRecord]]:
        return {frozenset(m.as_edges()) for m in enumerate_pms(graph)}

    def reconstruct(node: DecompositionNode):
        """node's matching set as a generator step (graphs._run)."""
        nonlocal ok
        if isinstance(node, Leaf):
            return direct(node.graph)
        b_pms = yield reconstruct(node.b_side)
        a_pms = yield reconstruct(node.a_side)
        bstar = node.b_side.graph.n - 1  # contracted column index
        astar = node.a_side.graph.n - 1  # contracted row index
        out: set[frozenset[EdgeRecord]] = set()
        for ml in b_pms:
            cross_l = [rec for rec in ml if rec[1] == bstar]
            if len(cross_l) != 1:
                raise InvariantError("b* must be matched exactly once")
            cand_l = set(node.lmap[cross_l[0]])
            interior_l = [
                node.lmap[rec] for rec in ml if rec[1] != bstar
            ]
            if any(len(t) != 1 for t in interior_l):
                raise InvariantError("interior b-side record is merged")
            base_l = {t[0] for t in interior_l}
            for mr in a_pms:
                cross_r = [rec for rec in mr if rec[0] == astar]
                if len(cross_r) != 1:
                    raise InvariantError("a* must be matched exactly once")
                cands = cand_l & set(node.rmap[cross_r[0]])
                if not cands:
                    continue
                if len(cands) != 1:
                    raise InvariantError("crossing resolution must be unique")
                interior_r = {
                    node.rmap[rec][0] for rec in mr if rec[0] != astar
                }
                out.add(frozenset(base_l | interior_r | cands))
        if out != direct(node.graph):
            ok = False
        return out

    root_set = _run(reconstruct(tree))
    if {sum(1 for rec in m if rec[2] != BLUE) for m in root_set} != red_count_set(g):
        ok = False
    return ok
