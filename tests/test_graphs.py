"""Graph container, EBG format, generators."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exactmatch.errors import (
    BadColor,
    BadParams,
    BadVersion,
    DuplicateEdge,
    EbgSyntaxError,
    IndexOutOfRange,
)
from exactmatch.graphs import (
    BLUE,
    FAMILIES,
    RED,
    ColoredBipartiteGraph,
    band_cyclic,
    band_path,
    biwheel,
    gen_family,
    knn,
    parse_ebg,
    random_graph,
    serialize_ebg,
    validate,
    with_coloring,
)


@st.composite
def simple_graphs(draw):
    n = draw(st.integers(1, 5))
    cells = draw(
        st.sets(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=n * n,
        )
    )
    edges = [(r, c, draw(st.integers(0, 1))) for r, c in sorted(cells)]
    return ColoredBipartiteGraph.make(n, edges)


# ---------------------------------------------------------------------------
# constructor and views


def test_make_sorts_records():
    g = ColoredBipartiteGraph.make(2, [(1, 1, 0), (0, 0, 1), (0, 1, 0)])
    assert g.edges == ((0, 0, 1), (0, 1, 0), (1, 1, 0))


def test_make_rejects_exact_duplicate():
    with pytest.raises(DuplicateEdge):
        ColoredBipartiteGraph.make(2, [(0, 0, 0), (0, 0, 0)])


def test_make_rejects_parallel_cell_when_simple():
    with pytest.raises(DuplicateEdge):
        ColoredBipartiteGraph.make(2, [(0, 0, 0), (0, 0, 1)])


def test_make_allows_bicolored_cell_when_multi():
    g = ColoredBipartiteGraph.make(2, [(0, 0, 0), (0, 0, 1), (1, 1, 0)], multi=True)
    assert g.cells[0, 0] == (BLUE, RED)


def test_make_rejects_out_of_range():
    with pytest.raises(IndexOutOfRange):
        ColoredBipartiteGraph.make(2, [(0, 2, 0)])


@pytest.mark.parametrize("color", [2, -1])
def test_make_rejects_bad_color(color):
    with pytest.raises(BadColor):
        ColoredBipartiteGraph.make(1, [(0, 0, color)])


def test_adjacency_and_cells():
    g = ColoredBipartiteGraph.make(3, [(0, 0, 0), (0, 1, 1), (2, 1, 0)])
    assert g.row_adj == ((0, 1), (), (1,))
    assert g.col_adj == ((0,), (0, 2), ())
    assert g.cells == {(0, 0): (0,), (0, 1): (1,), (2, 1): (0,)}
    assert g.has_edge(0, 1) and g.has_edge(0, 1, RED) and not g.has_edge(0, 1, BLUE)
    assert g.color_of(0, 1) == RED
    assert g.red_edges == ((0, 1, 1),)


def test_transpose_involution():
    g = ColoredBipartiteGraph.make(3, [(0, 1, 1), (1, 2, 0), (2, 0, 0)])
    assert g.transpose().edges == ((0, 2, 0), (1, 0, 1), (2, 1, 0))
    assert g.transpose().transpose() == g


def test_induced_relabels():
    g = knn(4)
    sub = g.induced([1, 3], [0, 2])
    assert sub.n == 2
    assert sub.edges == tuple((i, j, BLUE) for i in range(2) for j in range(2))
    with pytest.raises(BadParams):
        g.induced([0], [0, 1])


def test_without():
    g = knn(3)
    h = g.without(del_rows=[1], del_cols=[2])
    assert h.n == 2 and len(h.edges) == 4


def _made(g, rows, cols):
    """make() of the records induced on rows/cols, relabeled by rank."""
    rmap = {r: i for i, r in enumerate(sorted(rows))}
    cmap = {c: j for j, c in enumerate(sorted(cols))}
    return ColoredBipartiteGraph.make(
        len(rows),
        [(rmap[r], cmap[c], k) for r, c, k in g.edges if r in rmap and c in cmap],
        g.multi,
    )


def test_induced_and_without_equal_make_of_the_same_records():
    graphs = [random_graph(n, d, 0.5, seed=40 + n) for n in range(1, 10)
              for d in (0.3, 0.7, 1.0)]
    # multigraph blocks: a cell with both colors, rows with mixed degrees
    graphs.append(ColoredBipartiteGraph.make(
        3, [(0, 0, 0), (0, 0, 1), (0, 2, 1), (1, 1, 0), (2, 0, 0), (2, 2, 0),
            (2, 2, 1)], multi=True))
    graphs.append(ColoredBipartiteGraph.make(
        4, [(r, c, k) for r in range(4) for c in range(4) for k in (0, 1)
            if (r + c + k) % 3], multi=True))
    rng = random.Random(11)
    for g in graphs:
        for _ in range(12):
            size = rng.randint(0, g.n)
            rows = rng.sample(range(g.n), size)
            cols = rng.sample(range(g.n), size)
            sub = g.induced(rows, cols)
            want = _made(g, rows, cols)
            assert (sub.n, sub.edges, sub.multi) == (want.n, want.edges, want.multi)
            assert validate(sub) == validate(want)
            dr = [r for r in range(g.n) if r not in rows]
            dc = [c for c in range(g.n) if c not in cols]
            assert g.without(dr, dc) == want


def test_components_and_connectivity():
    g = ColoredBipartiteGraph.make(
        4, [(0, 0, 0), (0, 1, 0), (1, 0, 0), (2, 2, 0), (3, 3, 0)]
    )
    comps = g.components()
    assert ((0, 1), (0, 1)) in comps and ((2,), (2,)) in comps
    assert len(comps) == 3
    assert not g.is_connected()
    assert knn(3).is_connected()


# ---------------------------------------------------------------------------
# validate


def test_validate_clean():
    assert validate(knn(2)) == []


def test_validate_isolated_vertices():
    g = ColoredBipartiteGraph.make(2, [(0, 0, 0)])
    kinds = sorted(f.kind for f in validate(g))
    assert kinds == ["IsolatedVertex", "IsolatedVertex"]


def test_validate_raw_dataclass_bypass():
    # the frozen dataclass can hold junk if built directly; validate flags it
    g = ColoredBipartiteGraph(2, ((0, 0, 5), (0, 3, 0), (1, 1, 0), (1, 1, 0)))
    kinds = {f.kind for f in validate(g)}
    assert "BadColor" in kinds
    assert "IndexOutOfRange" in kinds
    assert "DuplicateEdge" in kinds


# ---------------------------------------------------------------------------
# EBG format


def test_parse_round_trip_fixture(fixtures_dir):
    text = (fixtures_dir / "k44_red_diag.ebg").read_text()
    g = parse_ebg(text)
    assert g.n == 4 and len(g.edges) == 16
    assert serialize_ebg(g) == text


@given(simple_graphs())
@settings(max_examples=80)
def test_serialize_parse_round_trip(g):
    assert parse_ebg(serialize_ebg(g)) == g


def test_parse_comments_and_blanks():
    g = parse_ebg("# hello\n\nebg 1\n  # more\nn 2\ne 0 0 1\n")
    assert g.edges == ((0, 0, 1),)


@pytest.mark.parametrize(
    "text,line",
    [
        ("bogus\n", 1),
        ("ebg 1\nn 2\nn 3\n", 3),
        ("ebg 1\ne 0 0 0\n", 2),
        ("ebg 1\nn 2\ne 0 0\n", 3),
        ("ebg 1\nn 2\ne 0 0 7\n", 3),
        ("ebg 1\nn 2\nz 1\n", 3),
        ("ebg 1\nn -1\n", 2),
    ],
)
def test_parse_syntax_errors_carry_line_numbers(text, line):
    with pytest.raises(EbgSyntaxError) as err:
        parse_ebg(text)
    assert f"line {line}" in str(err.value)


def test_parse_bad_version():
    with pytest.raises(BadVersion):
        parse_ebg("ebg 2\nn 1\n")


def test_parse_missing_header_or_size():
    with pytest.raises(EbgSyntaxError):
        parse_ebg("")
    with pytest.raises(EbgSyntaxError):
        parse_ebg("ebg 1\n")


def test_parse_out_of_range_and_duplicate():
    with pytest.raises(IndexOutOfRange):
        parse_ebg("ebg 1\nn 2\ne 0 5 0\n")
    with pytest.raises(DuplicateEdge):
        parse_ebg("ebg 1\nn 2\ne 0 0 0\ne 0 0 1\n")


def test_serialize_refuses_multigraphs():
    g = ColoredBipartiteGraph.make(1, [(0, 0, 0), (0, 0, 1)], multi=True)
    with pytest.raises(BadParams):
        serialize_ebg(g)


@pytest.mark.parametrize(
    "call",
    [
        lambda: knn(2).induced([0, 1], [0]),
        lambda: knn(2).induced([0, 2], [0, 1]),
        lambda: knn(2).induced([0, 1], [-1, 0]),
        lambda: knn(3).without([0], []),
        lambda: serialize_ebg(
            ColoredBipartiteGraph.make(1, [(0, 0, 0), (0, 0, 1)], multi=True)
        ),
    ],
    ids=[
        "induced-unbalanced", "induced-row-out-of-range",
        "induced-col-out-of-range", "without-unbalanced",
        "serialize-multigraph",
    ],
)
def test_bad_calls_raise_bad_params_not_assert(call):
    # a library error, so the check survives python -O
    with pytest.raises(BadParams):
        call()


# ---------------------------------------------------------------------------
# families


def test_knn_shape():
    g = knn(3)
    assert g.n == 3 and len(g.edges) == 9
    assert all(k == BLUE for _, _, k in g.edges)
    with pytest.raises(BadParams):
        knn(0)


def test_band_path_shape():
    g = band_path(4)
    assert sorted(g.cells) == [
        (0, 0), (0, 1),
        (1, 0), (1, 1), (1, 2),
        (2, 1), (2, 2), (2, 3),
        (3, 2), (3, 3),
    ]
    assert band_path(1).edges == ((0, 0, 0),)
    with pytest.raises(BadParams):
        band_path(0)


def test_band_cyclic_adds_wrap_cells():
    g = band_cyclic(5)
    assert g.has_edge(0, 4) and g.has_edge(4, 0)
    assert len(g.edges) == len(band_path(5).edges) + 2
    with pytest.raises(BadParams):
        band_cyclic(2)


@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_biwheel_shape(m):
    g = biwheel(m)
    assert not g.has_edge(0, 0)
    assert g.row_adj[0] == tuple(range(1, m))
    assert g.col_adj[0] == tuple(range(1, m))
    for i in range(1, m):
        assert g.has_edge(i, i)
        assert g.has_edge(i, i + 1 if i + 1 < m else 1)
    with pytest.raises(BadParams):
        biwheel(2)


def test_random_graph_deterministic_under_seed():
    a = random_graph(5, 0.6, 0.3, seed=42)
    b = random_graph(5, 0.6, 0.3, seed=42)
    assert a == b
    assert random_graph(5, 0.6, 0.3, seed=43) != a


def test_random_graph_require_pm():
    from exactmatch.matching import has_perfect_matching

    g = random_graph(4, 0.5, 0.5, seed=7, require_pm=True)
    assert has_perfect_matching(g)
    with pytest.raises(BadParams):
        random_graph(3, 0.0, 0.5, seed=1, require_pm=True)


def test_random_graph_param_validation():
    with pytest.raises(BadParams):
        random_graph(0, 0.5, 0.5)
    with pytest.raises(BadParams):
        random_graph(3, 1.5, 0.5)


def test_with_coloring_modes():
    g = knn(3)
    assert with_coloring(g, red="none").red_edges == ()
    diag = with_coloring(g, red="diag")
    assert sorted((r, c) for r, c, _ in diag.red_edges) == [(0, 0), (1, 1), (2, 2)]
    explicit = with_coloring(g, red=[(0, 1), (2, 0)])
    assert sorted((r, c) for r, c, _ in explicit.red_edges) == [(0, 1), (2, 0)]
    bern1 = with_coloring(g, red="bernoulli", red_prob=0.5, seed=11)
    bern2 = with_coloring(g, red="bernoulli", red_prob=0.5, seed=11)
    assert bern1 == bern2
    assert len(with_coloring(g, red="bernoulli", red_prob=1.0).red_edges) == 9


def test_with_coloring_rejects_missing_cell():
    with pytest.raises(BadParams):
        with_coloring(band_path(3), red=[(0, 2)])


def test_gen_family_dispatch():
    assert gen_family("knn", n=3) == knn(3)
    assert gen_family("biwheel", m=4) == biwheel(4)
    assert gen_family("band_path", n=5, red="diag").red_edges != ()
    r = gen_family("random", n=4, density=0.7, red_prob=0.4, seed=3)
    assert r == random_graph(4, 0.7, 0.4, seed=3)
    assert "knn" in FAMILIES


def test_gen_family_errors():
    with pytest.raises(BadParams):
        gen_family("mystery", n=3)
    with pytest.raises(BadParams):
        gen_family("knn")
    with pytest.raises(BadParams):
        gen_family("random")
