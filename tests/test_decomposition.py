"""Tight-cut decomposition tree: blocks, provenance, composition audit."""

import os
import random
import subprocess
import sys

import pytest

import exactmatch
from exactmatch.errors import NotMatchingCovered, OracleCap
from exactmatch.graphs import (
    BLUE,
    ColoredBipartiteGraph,
    band_path,
    biwheel,
    knn,
    random_graph,
    with_coloring,
)
from exactmatch.matching import allowed_edges, certificate_ok, is_brace, is_matching_covered
from exactmatch.decomposition import (
    Leaf,
    Split,
    achievable_sets_compose,
    decompose,
    leaves,
    split_count,
    to_dot,
)


def c6():
    # the 6-cycle: rows 0..2, cols 0..2, cells forming a single cycle
    return ColoredBipartiteGraph.make(
        3, [(0, 0, 0), (0, 1, 0), (1, 1, 0), (1, 2, 0), (2, 2, 0), (2, 0, 0)]
    )


def covered_samples(count, max_n, seed0):
    out = []
    i = 0
    while len(out) < count and i < 40 * count:
        g = random_graph(2 + (seed0 + i) % (max_n - 1), 0.6, 0.4, seed=seed0 + i)
        i += 1
        try:
            core = allowed_edges(g)
        except Exception:
            continue
        for rows, cols in core.components():
            if len(rows) != len(cols) or len(rows) < 2:
                continue
            comp = core.induced(rows, cols)
            if is_matching_covered(comp):
                out.append(comp)
                if len(out) >= count:
                    break
    assert len(out) == count
    return out


# ---------------------------------------------------------------------------
# shape


def test_decompose_requires_covered():
    with pytest.raises(NotMatchingCovered):
        decompose(ColoredBipartiteGraph.make(2, [(0, 0, 0), (1, 0, 0), (1, 1, 0)]))


def test_brace_decomposes_to_single_leaf():
    node = decompose(knn(3))
    assert isinstance(node, Leaf)
    assert node.block.graph == knn(3)
    assert node.block.row_origin == (0, 1, 2)
    assert node.block.edge_origin == tuple((rec,) for rec in knn(3).edges)
    assert split_count(node) == 0


def test_c6_splits_into_two_k22_blocks():
    node = decompose(c6())
    assert isinstance(node, Split)
    assert certificate_ok(c6(), node.certificate)
    ls = leaves(node)
    assert len(ls) == 2
    for leaf in ls:
        assert leaf.graph.n == 2
        assert is_brace(leaf.graph)
    assert split_count(node) == 1


def test_band_path_leaf_count_grows():
    # each split peels one brace off the band
    for m in range(3, 7):
        node = decompose(band_path(m))
        assert len(leaves(node)) == split_count(node) + 1
        total = sum(leaf.graph.n for leaf in leaves(node))
        assert total == m + split_count(node)


def test_split_sides_and_crossing():
    node = decompose(c6())
    assert isinstance(node, Split)
    b_side, a_side = node.b_side, node.a_side
    assert {b_side, a_side} == {node.left, node.right}
    assert node.crossing
    for rec in node.crossing:
        assert rec in c6().edges
    # the contracted column sits at the end of the b-side block
    assert isinstance(b_side, Leaf)
    assert b_side.block.col_origin[-1] is None
    assert isinstance(a_side, Leaf)
    assert a_side.block.row_origin[-1] is None


def test_provenance_covers_all_edges():
    for g in covered_samples(12, 6, 5000):
        node = decompose(g)
        union = set()
        for leaf in leaves(node):
            for records in leaf.block.edge_origin:
                union.update(records)
        assert union == set(g.edges)


def test_provenance_row_col_origins_valid():
    for g in covered_samples(8, 6, 5600):
        node = decompose(g)
        for leaf in leaves(node):
            block = leaf.block
            reals = [x for x in block.row_origin if x is not None]
            assert len(set(reals)) == len(reals)
            assert all(0 <= x < g.n for x in reals)
            contracted = sum(1 for x in block.row_origin if x is None) + sum(
                1 for x in block.col_origin if x is None
            )
            if isinstance(node, Split):
                assert contracted >= 1
            assert len(block.edge_origin) == len(block.graph.edges)


def test_to_dot_renders_tree():
    dot = to_dot(decompose(c6()))
    assert dot.startswith("digraph decomposition {")
    assert dot.count("brace n=2") == 2
    assert "split n=3" in dot
    assert dot.rstrip().endswith("}")


def test_to_dot_single_leaf():
    dot = to_dot(decompose(knn(2)))
    assert "brace n=2" in dot and "->" not in dot


_DEEP_TREE = """
import sys
from exactmatch.decomposition import decompose, leaves, split_count, to_dot
from exactmatch.graphs import band_path
g = band_path(200)
sys.setrecursionlimit(120)
node = decompose(g)
dot = to_dot(node)
print(len(leaves(node)), split_count(node), dot.count("->"))
"""


def test_tree_depth_is_not_bounded_by_recursion_limit():
    # band_path(200) splits 198 times, one cut inside the next
    src = os.path.dirname(os.path.dirname(exactmatch.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", _DEEP_TREE], env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split() == ["199", "198", str(2 * 198)]


# ---------------------------------------------------------------------------
# composition audit


def test_achievable_sets_compose_examples():
    assert achievable_sets_compose(c6())
    assert achievable_sets_compose(knn(3))
    assert achievable_sets_compose(with_coloring(band_path(5), red="diag"))
    assert achievable_sets_compose(with_coloring(c6(), red=[(0, 0), (1, 2)]))


def test_achievable_sets_compose_batch():
    ok = 0
    for g in covered_samples(20, 7, 6100):
        assert achievable_sets_compose(g)
        ok += 1
    assert ok == 20


def test_achievable_sets_compose_cap():
    with pytest.raises(OracleCap):
        achievable_sets_compose(knn(9))


def test_biwheel_is_single_brace_block():
    node = decompose(biwheel(5))
    assert isinstance(node, Leaf)
    assert node.graph.n == 5
