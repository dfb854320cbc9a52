"""Matchings, allowed edges, braces and tight sets."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exactmatch.decomposition import Split, decompose
from exactmatch.errors import (
    IsBrace,
    NoPerfectMatching,
    NotMatchingCovered,
)
from exactmatch.graphs import (
    BLUE,
    RED,
    ColoredBipartiteGraph,
    band_cyclic,
    band_path,
    biwheel,
    knn,
    random_graph,
    with_coloring,
)
from exactmatch.matching import (
    TightSetCertificate,
    _elementary,
    _split_certificate,
    allowed_edges,
    certificate_ok,
    find_tight_set,
    has_perfect_matching,
    is_brace,
    is_matching_covered,
    max_matching,
)


def brute_max_matching_size(g):
    best = 0
    cells = sorted(g.cells)
    for size in range(g.n, 0, -1):
        for combo in itertools.combinations(cells, size):
            rows = {r for r, _ in combo}
            cols = {c for _, c in combo}
            if len(rows) == size and len(cols) == size:
                return size
    return best


DENSITIES = (0.3, 0.5, 0.7, 0.9)


def random_cases(offset, count=64, **kwargs):
    """Seed k draws n = 2 + k % 8 (2..9) at density DENSITIES[k // 8 % 4]."""
    return [
        pytest.param(
            random_graph(
                2 + k % 8,
                DENSITIES[k // 8 % len(DENSITIES)],
                0.4,
                seed=offset + k,
                **kwargs,
            ),
            id=str(k),
        )
        for k in range(count)
    ]


def decomposition_blocks():
    """Every node graph decompose emits on colored band_path / biwheel.

    Red crossing records keep their color on the b-side block, so a row with
    crossing records of both colors yields a parallel cell there.
    """
    out = []
    for name, g in [
        ("band_path6", with_coloring(band_path(6), red="bernoulli", seed=1)),
        ("band_path7", with_coloring(band_path(7), red="bernoulli", seed=2)),
        ("band_path8", with_coloring(band_path(8), red="diag")),
        ("biwheel5", with_coloring(biwheel(5), red="bernoulli", seed=3)),
        ("biwheel6", with_coloring(biwheel(6), red="diag")),
    ]:
        stack = [decompose(g)]
        while stack:
            node = stack.pop()
            out.append(pytest.param(node.graph, id=f"{name}-{len(out)}"))
            if isinstance(node, Split):
                stack += [node.left, node.right]
    return out


BLOCKS = decomposition_blocks()


def _reference_views(g):
    """cells, row_adj and col_adj through sets and sorts, in any record order."""
    cells, rows, cols = {}, [set() for _ in range(g.n)], [set() for _ in range(g.n)]
    for r, c, k in g.edges:
        cells.setdefault((r, c), []).append(k)
        rows[r].add(c)
        cols[c].add(r)
    return (
        {cell: tuple(sorted(ks)) for cell, ks in cells.items()},
        tuple(tuple(sorted(s)) for s in rows),
        tuple(tuple(sorted(s)) for s in cols),
    )


def test_one_pass_views_match_a_set_and_sort_reference():
    graphs = []
    for p in random_cases(2600) + BLOCKS:
        g = p.values[0]
        graphs += [g, g.induced(range(1, g.n), range(g.n - 1)), g.without([0], [0])]
        if has_perfect_matching(g):
            graphs.append(allowed_edges(g))
    assert sum(g.multi and len(ks) > 1 for g in graphs for ks in g.cells.values()) >= 5
    for g in graphs:
        cells, rows, cols = _reference_views(g)
        assert (g.cells, g.row_adj, g.col_adj) == (cells, rows, cols)


def test_decomposition_blocks_cover_parallel_cells():
    graphs = [p.values[0] for p in BLOCKS]
    assert any(len(ks) > 1 for g in graphs for ks in g.cells.values())
    assert any(g.multi and not brute_is_brace(g) for g in graphs)


# ---------------------------------------------------------------------------
# maximum matching


def test_max_matching_identity_on_complete():
    m = max_matching(knn(4))
    assert m.assignment == (0, 1, 2, 3)
    assert m.size == 4
    assert m.red_count == 0


def test_max_matching_needs_augmenting():
    # greedy would pair row 0 with col 0 and starve row 1
    g = ColoredBipartiteGraph.make(2, [(0, 0, 0), (0, 1, 0), (1, 0, 1)])
    m = max_matching(g)
    assert m.size == 2
    assert m.assignment == (1, 0)
    assert m.red_count == 1
    assert m.as_edges() == ((0, 1, 0), (1, 0, 1))


def test_max_matching_deficient():
    g = ColoredBipartiteGraph.make(3, [(0, 0, 0), (1, 0, 0), (2, 0, 0)])
    m = max_matching(g)
    assert m.size == 1
    assert not has_perfect_matching(g)


@pytest.mark.parametrize("seed", range(30))
def test_max_matching_size_matches_brute_force(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    g = random_graph(n, rng.choice([0.3, 0.5, 0.8]), 0.5, seed=seed)
    if not g.edges:
        assert max_matching(g).size == 0
        return
    assert max_matching(g).size == brute_max_matching_size(g)


def test_has_perfect_matching_empty_graph():
    assert has_perfect_matching(ColoredBipartiteGraph.make(0, []))


def test_long_even_cycle_needs_no_recursion():
    # a 2n-cycle, rows on columns {i-1, i} mod n except that rows n-2 and
    # n-1 swap their pairs: the greedy pass strands row n-1, whose only
    # augmenting path runs back through all other rows
    n = 1200
    edges = [(i, c % n, BLUE) for i in range(n - 2) for c in (i - 1, i)]
    edges += [(n - 2, n - 2, BLUE), (n - 2, n - 1, BLUE)]
    edges += [(n - 1, n - 3, BLUE), (n - 1, n - 2, BLUE)]
    g = ColoredBipartiteGraph.make(n, edges)
    assert max_matching(g).size == n
    assert is_matching_covered(g)
    assert allowed_edges(g) == g
    assert not is_brace(g)
    assert certificate_ok(g, find_tight_set(g))


# ---------------------------------------------------------------------------
# allowed edges


def test_allowed_edges_keeps_everything_on_complete():
    g = knn(3)
    assert allowed_edges(g) == g


def test_allowed_edges_drops_pendant_blocked_cell():
    # (1,0) forces row 1 / col 0 together, so (0,0) and (1,1) are the only
    # cells any perfect matching can add -- wait, (1,0) itself lies in none:
    # matching must use (0,0) for col 0 or (1,0); using (1,0) leaves row 0
    # with col 1 only -- (0,1) absent. So (1,0) is not allowed.
    g = ColoredBipartiteGraph.make(2, [(0, 0, 0), (1, 0, 0), (1, 1, 0)])
    kept = allowed_edges(g)
    assert kept.edges == ((0, 0, 0), (1, 1, 0))


def test_allowed_edges_raises_without_pm():
    with pytest.raises(NoPerfectMatching):
        allowed_edges(ColoredBipartiteGraph.make(2, [(0, 0, 0), (1, 0, 0)]))


def brute_allowed(g):
    """Records (r, c, k) such that G - r - c has a perfect matching.

    Permutation scan up to n = 5, edge deletion plus maximum matching
    beyond; neither touches the D(G, M) digraph.
    """
    keep = []
    for r, c, k in g.edges:
        if g.n > 5:
            ok = has_perfect_matching(g.without([r], [c]))
        else:
            rest_rows = [i for i in range(g.n) if i != r]
            rest_cols = [j for j in range(g.n) if j != c]
            ok = any(
                all((i, j) in g.cells for i, j in zip(rest_rows, perm))
                for perm in itertools.permutations(rest_cols)
            )
        if ok:
            keep.append((r, c, k))
    return tuple(keep)


def brute_is_matching_covered(g):
    return g.is_connected() and brute_allowed(g) == g.edges


@pytest.mark.parametrize("g", random_cases(300, require_pm=True) + BLOCKS)
def test_allowed_edges_matches_brute_force(g):
    assert allowed_edges(g).edges == brute_allowed(g)
    assert is_matching_covered(g) == brute_is_matching_covered(g)


def test_is_matching_covered():
    assert is_matching_covered(knn(3))
    assert is_matching_covered(band_path(4))
    assert not is_matching_covered(
        ColoredBipartiteGraph.make(2, [(0, 0, 0), (1, 0, 0), (1, 1, 0)])
    )
    # disconnected union of two covered pieces is not covered (connectivity)
    g = ColoredBipartiteGraph.make(2, [(0, 0, 0), (1, 1, 0)])
    assert not is_matching_covered(g)
    assert not is_matching_covered(ColoredBipartiteGraph.make(0, []))


# ---------------------------------------------------------------------------
# braces


@pytest.mark.parametrize(
    "g,want",
    [
        (knn(2), True),
        (knn(3), True),
        (knn(4), True),
        (band_path(3), False),  # matching-covered but not a brace
        (band_path(4), False),
        (band_cyclic(4), True),  # K44 minus a perfect matching: the cube
        (biwheel(4), True),
        (ColoredBipartiteGraph.make(1, [(0, 0, 0)]), True),
    ],
)
def test_is_brace_examples(g, want):
    assert is_brace(g) == want


def test_is_brace_needs_matching_covered():
    assert not is_brace(ColoredBipartiteGraph.make(2, [(0, 0, 0), (1, 0, 0), (1, 1, 0)]))


def brute_is_brace(g):
    """Matching-covered and every two disjoint cells extend (edge pairs)."""
    if not brute_is_matching_covered(g):
        return False
    cells = sorted(g.cells)
    for (r1, c1), (r2, c2) in itertools.combinations(cells, 2):
        if r1 == r2 or c1 == c2:
            continue
        rest = g.without(del_rows=[r1, r2], del_cols=[c1, c2])
        if not has_perfect_matching(rest):
            return False
    return True


@pytest.mark.parametrize("g", random_cases(900) + BLOCKS)
def test_is_brace_matches_brute_force(g):
    assert is_brace(g) == brute_is_brace(g)


# ---------------------------------------------------------------------------
# tight sets


def test_find_tight_set_on_band3():
    g = band_path(3)
    cert = find_tight_set(g)
    assert certificate_ok(g, cert)


def test_find_tight_set_raises_on_brace():
    with pytest.raises(IsBrace):
        find_tight_set(knn(3))
    with pytest.raises(IsBrace):
        find_tight_set(knn(2))


def test_find_tight_set_requires_covered():
    with pytest.raises(NotMatchingCovered):
        find_tight_set(ColoredBipartiteGraph.make(2, [(0, 0, 0), (1, 0, 0), (1, 1, 0)]))


def test_certificate_ok_rejects_malformed():
    g = band_path(3)
    assert not certificate_ok(g, TightSetCertificate((), ()))
    assert not certificate_ok(g, TightSetCertificate((0, 1, 2), (0, 1)))
    # wrong size gap
    assert not certificate_ok(g, TightSetCertificate((0,), (0,)))


@pytest.mark.parametrize(
    "g",
    random_cases(1700)
    + BLOCKS
    + [
        pytest.param(band_path(20), id="band_path20"),
        pytest.param(band_path(40), id="band_path40"),
    ],
)
def test_find_tight_set_certificates_verify(g):
    if not brute_is_matching_covered(g):
        with pytest.raises(NotMatchingCovered):
            find_tight_set(g)
        return
    try:
        cert = find_tight_set(g)
    except IsBrace:
        assert brute_is_brace(g)
        return
    assert not brute_is_brace(g)
    assert certificate_ok(g, cert)


# ---------------------------------------------------------------------------
# the primitive: elementary blocks and the split


ELEMENTARY_CASES = (
    random_cases(2500)
    + BLOCKS
    + [
        pytest.param(ColoredBipartiteGraph.make(0, []), id="n0"),
        pytest.param(ColoredBipartiteGraph.make(1, [(0, 0, RED)]), id="n1"),
        pytest.param(ColoredBipartiteGraph.make(1, []), id="n1-empty"),
        pytest.param(
            ColoredBipartiteGraph.make(3, [(0, 0, 0), (1, 0, 0), (2, 1, 0), (2, 2, 0)]),
            id="hall-violator",
        ),
        pytest.param(
            ColoredBipartiteGraph.make(2, [(0, 0, 0), (1, 1, 0)]), id="two-blocks"
        ),
    ]
)


def test_elementary_cases_cover_every_outcome():
    outcomes = set()
    for p in ELEMENTARY_CASES:
        elem = _elementary(p.values[0])
        if elem is None:
            outcomes.add("no-pm")
        elif len(elem.blocks) != 1:
            outcomes.add("blocks")
        else:
            outcomes.add("split" if elem.split_certificate() else "brace")
    assert outcomes == {"no-pm", "blocks", "split", "brace"}


@pytest.mark.parametrize("g", ELEMENTARY_CASES)
def test_elementary_matches_components_and_core_split(g):
    elem = _elementary(g)
    if not has_perfect_matching(g):
        assert elem is None
        with pytest.raises(NoPerfectMatching):
            allowed_edges(g)
        return
    core = ColoredBipartiteGraph.make(g.n, brute_allowed(g), g.multi)
    assert list(elem.blocks) == core.components()
    assert list(elem.blocks) == allowed_edges(g).components()
    for rows, cols in elem.blocks:
        # a cell of g inside a block is allowed, so g induces the block
        assert g.induced(rows, cols) == core.induced(rows, cols)
    if len(elem.blocks) != 1:
        assert not brute_is_matching_covered(g)
        with pytest.raises(NotMatchingCovered):
            elem.split_certificate()
        return
    assert core == g  # one block: g is its own core
    cert = elem.split_certificate()
    assert cert == _split_certificate(core)
    assert (cert is None) == brute_is_brace(g)
    if cert is not None:
        assert certificate_ok(g, cert)
