"""Solver pipeline: grid nonvanishing, feasibility recursion, witnesses."""

import functools
import itertools
import math
import os
import random
import subprocess
import sys

import numpy as np
import pytest

from exactmatch import solver
from exactmatch.algebra import (
    IntPolynomial, P_ZERO, certificate_primes, is_probable_prime,
)
from exactmatch.decomposition import Split, decompose
from exactmatch.errors import BadParams, BadPrime, InvariantError, ZeroDivisor
from exactmatch.graphs import (
    BLUE,
    RED,
    ColoredBipartiteGraph,
    band_path,
    biwheel,
    circulant,
    knn,
    random_graph,
    with_coloring,
)
from exactmatch.matching import _elementary, is_brace
from exactmatch.solver import (
    BlockReport,
    EvaluationGrid,
    SolverOptions,
    SolveTrace,
    bench,
    coefficient_bound,
    extract_witness,
    feasible_red_counts,
    pt_nonvanishing,
    pt_polynomial,
    red_count_bounds,
    solve,
)
from exactmatch.verify.core import (
    congruence_by_walk,
    fiber_table,
    red_count_set,
    red_count_set_dp,
    symbolic_pt,
)


def k44_diag():
    return with_coloring(knn(4), red="diag")


def k44_two_diagonals():
    # red iff c - r is 0 or 1 mod 4: T = {0, .., 4}, and the exchange and
    # the chords reach every t but 2, which is 2 from both bounds, so only
    # a switched pair of greedy matchings (the pair) proves it
    return with_coloring(
        knn(4), red=[(r, (r + d) % 4) for r in range(4) for d in (0, 1)]
    )


def probe_only():
    # T = {2, .., 7}: the optima's one cycle gains 5, and its chords reach
    # {2, 3, 5, 6, 7}, the pairs' {3, 5, 6, 7} and {2, 3, 5, 6}; 4 is 2
    # from both bounds, so only the probe (6 determinants) proves it
    return ColoredBipartiteGraph.make(7, [
        (0, 2, 1), (0, 4, 1), (0, 5, 0), (1, 3, 1), (2, 0, 0), (2, 1, 0),
        (2, 2, 1), (2, 5, 1), (2, 6, 1), (3, 0, 1), (3, 3, 1), (4, 0, 0),
        (4, 2, 0), (4, 4, 1), (4, 5, 1), (4, 6, 0), (5, 1, 1), (5, 4, 0),
        (5, 5, 0), (6, 2, 0), (6, 4, 0), (6, 5, 0), (6, 6, 1),
    ])


# ---------------------------------------------------------------------------
# grid layer


def test_grid_shape():
    grid = EvaluationGrid.for_size(4)
    assert grid.lam_nodes == tuple(range(7))
    assert grid.x_nodes == tuple(range(5))


def test_hand_built_grid_must_cover_the_degree_bounds():
    g = k44_diag()  # T = {0, 1, 2, 4}
    full = EvaluationGrid.for_size(4)
    assert full.nonvanishing_targets(g, set(range(5))) == {0, 1, 2, 4}
    assert full.x_coefficients(g, 3) == [-10878, 60846, -71556, 0, 21600]
    for n in (3, 5):  # a grid of another size never evaluates g
        with pytest.raises(BadParams):
            EvaluationGrid.for_size(n).nonvanishing_targets(g, set(range(5)))
        with pytest.raises(BadParams):
            EvaluationGrid.for_size(n).x_coefficients(g, 3)


PT_POLYNOMIAL_CASES = [
    pytest.param(random_graph(2 + seed % 4, 0.7, 0.4, seed=8000 + seed),
                 id=str(seed))
    for seed in range(25)
] + [
    # cell (0, 0) red: its entry is x * (lam + 0)^0 = x
    pytest.param(with_coloring(knn(2), red=[(0, 0)]), id="knn2-red00"),
    # a blue and a red record in one cell weigh in as 1 + x
    pytest.param(
        ColoredBipartiteGraph.make(1, [(0, 0, 0), (0, 0, 1)], multi=True),
        id="multigraph-cell",
    ),
]


@pytest.mark.parametrize("g", PT_POLYNOMIAL_CASES)
def test_pt_polynomial_matches_symbolic(g):
    for t in range(g.n + 1):
        assert pt_polynomial(g, t) == symbolic_pt(g, t)


def test_pt_polynomial_out_of_range():
    assert pt_polynomial(knn(3), -1) == P_ZERO
    assert pt_polynomial(knn(3), 4) == P_ZERO


def test_pt_nonvanishing_on_brace_matches_fiber():
    g = k44_diag()
    counts = fiber_table(g).counts
    for t in range(5):
        assert pt_nonvanishing(g, t) == (counts.get(t, 0) > 0)


# ---------------------------------------------------------------------------
# modular certificate


def exact_sweep(g, candidates):
    """The exact reference: x_coefficients at every lam node."""
    grid = EvaluationGrid.for_size(g.n)
    vectors = [grid.x_coefficients(g, lam) for lam in grid.lam_nodes]
    return {t for t in candidates if any(vec[t] for vec in vectors)}


def _gap_colored(g):
    # red iff row and column lie on opposite halves: every red count is even
    h = g.n // 2
    return ColoredBipartiteGraph.make(
        g.n, [(r, c, RED if (r < h) != (c < h) else BLUE) for r, c, _ in g.edges]
    )


def _dense_gap_brace(n, seed):
    """The first brace drawn at density 0.8 from seed up, gap-colored."""
    while True:
        g = random_graph(n, 0.8, 0.5, seed=seed, require_pm=True)
        if is_brace(g):
            return _gap_colored(g)
        seed += 1


def _random_braces():
    out = []
    seed = 12000
    while len(out) < 28:
        n = 3 + len(out) % 7
        density = (0.5, 0.7, 0.85, 1.0)[len(out) // 7 % 4]
        g = random_graph(n, density, 0.5, seed=seed, require_pm=True)
        seed += 1
        if is_brace(g):
            out.append(pytest.param(g, id=f"random-n{n}-d{density}"))
    return out


def _decomposition_blocks():
    # multigraph blocks included: crossing records keep their color
    out = []
    for name, g in [
        ("band_path7", with_coloring(band_path(7), red="bernoulli", seed=2)),
        ("band_path8", with_coloring(band_path(8), red="diag")),
        ("biwheel6", with_coloring(biwheel(6), red="bernoulli", seed=3)),
    ]:
        stack = [decompose(g)]
        while stack:
            node = stack.pop()
            out.append(pytest.param(node.graph, id=f"{name}-{len(out)}"))
            if isinstance(node, Split):
                stack += [node.left, node.right]
    return out


CERTIFICATE_CASES = (
    _random_braces()
    + [pytest.param(_dense_gap_brace(n, 12500 + n), id=f"gap-n{n}")
       for n in range(4, 10)]
    + [pytest.param(_gap_colored(biwheel(n)), id=f"gap-biwheel{n}")
       for n in (5, 6, 8)]
    + _decomposition_blocks()
)


def test_certificate_cases_cover_zeros_and_multigraphs():
    graphs = [p.values[0] for p in CERTIFICATE_CASES]
    assert any(g.multi and len(ks) > 1 for g in graphs for ks in g.cells.values())
    holes = 0
    for g in graphs:
        t_min, t_max = red_count_bounds(g)
        holes += len(exact_sweep(g, range(t_min, t_max + 1))) < t_max - t_min + 1
    assert holes >= 6


@pytest.mark.parametrize("g", CERTIFICATE_CASES)
def test_nonvanishing_targets_match_exact_sweep(g):
    t_min, t_max = red_count_bounds(g)
    grid = EvaluationGrid.for_size(g.n)
    want = exact_sweep(g, range(t_min, t_max + 1))
    full = set(range(t_min, t_max + 1))
    assert grid.nonvanishing_targets(g, full) == want
    # the whole 0..n range, singletons, and targets outside the bounds
    assert grid.nonvanishing_targets(g, set(range(g.n + 1))) == want
    for t in range(-1, g.n + 2):
        assert grid.nonvanishing_targets(g, {t}) == ({t} & want)


def _small_primes_from(start):
    def supply(bound):
        primes, product, q = [], 1, start
        while product <= bound:
            q += 1
            if is_probable_prime(q):
                primes.append(q)
                product *= q
        return tuple(primes)

    return supply


SMALL_CASES = [p for p in CERTIFICATE_CASES if p.values[0].n <= 6]


def _just_above_degree(g):
    t_min, t_max = red_count_bounds(g)
    return _small_primes_from(max(g.n * (g.n - 1) // 2, t_max - t_min + 1))


@pytest.mark.parametrize("g", SMALL_CASES)
def test_small_primes_keep_the_certificate_exact(g, monkeypatch):
    # primes just above the degree make accidental zero residues common; a
    # zero is only believed once their product exceeds the bound
    monkeypatch.setattr(solver, "certificate_primes", _just_above_degree(g))
    t_min, t_max = red_count_bounds(g)
    full = set(range(t_min, t_max + 1))
    grid = EvaluationGrid.for_size(g.n)
    assert grid.nonvanishing_targets(g, full) == exact_sweep(g, full)


def test_small_primes_do_hit_accidental_zeros():
    # many nonzero c_t vanish mod the first small prime at lam = n(n-1)/2,
    # the node the sweep tries first, so the test above is not vacuous
    accidental = 0
    for param in SMALL_CASES:
        g = param.values[0]
        p = _just_above_degree(g)(1)[0]
        grid = EvaluationGrid.for_size(g.n)
        top = grid.x_coefficients(g, grid.lam_nodes[-1])
        t_min, t_max = red_count_bounds(g)
        for t in exact_sweep(g, range(t_min, t_max + 1)):
            accidental += top[t] % p == 0
    assert accidental >= 10


@pytest.mark.parametrize("seed", range(30))
def test_coefficient_bound_covers_symbolic_coefficients(seed):
    n = 1 + seed % 6
    if seed % 3 == 2:  # multigraph: parallel records of both colors
        rng = random.Random(12900 + seed)
        edges = [(i, j, k) for i in range(n) for j in range(n) for k in (BLUE, RED)
                 if rng.random() < 0.6]
        g = ColoredBipartiteGraph.make(n, edges, multi=True)
    else:
        g = random_graph(n, 0.8, 0.5, seed=12900 + seed)
    bound = coefficient_bound(g)
    biggest = max(
        (abs(c) for t in range(n + 1) for c in symbolic_pt(g, t).coeffs),
        default=0,
    )
    assert bound >= biggest


def test_coefficient_bound_is_row_or_column_sum_product():
    # A = [[1, 1], [1, 2]] for knn(2): rows 2 * 3 = 6, columns 2 * 3 = 6
    assert coefficient_bound(knn(2)) == 6
    assert coefficient_bound(ColoredBipartiteGraph.make(0, [])) == 1


def _multigraph(n, seed, density=0.6):
    rng = random.Random(seed)
    edges = [(i, j, k) for i in range(n) for j in range(n) for k in (BLUE, RED)
             if rng.random() < density]
    return ColoredBipartiteGraph.make(n, edges, multi=True)


COUNT_CASES = (
    [pytest.param(_multigraph(n, 13100 + n), id=f"multi-n{n}")
     for n in range(0, 8)]
    + [pytest.param(random_graph(n, 0.6, 0.5, seed=13200 + n), id=f"simple-n{n}")
       for n in range(1, 8)]
    + [p for p in CERTIFICATE_CASES if p.values[0].multi]
)


def test_count_cases_hold_cells_of_both_colors():
    graphs = [p.values[0] for p in COUNT_CASES]
    assert sum(len(ks) == 2 for g in graphs for ks in g.cells.values()) >= 50


@pytest.mark.parametrize("g", COUNT_CASES)
def test_color_counts_and_their_readers_match_a_per_cell_loop(g, monkeypatch):
    n = g.n
    blue = [[0] * n for _ in range(n)]
    red = [[0] * n for _ in range(n)]
    rows, cols = [0] * n, [0] * n
    for (i, j), ks in g.cells.items():
        blue[i][j], red[i][j] = ks.count(BLUE), ks.count(RED)
        rows[i] += len(ks) * (1 + i) ** j
        cols[j] += len(ks) * (1 + i) ** j
    table = g.cell_codes
    assert table.dtype == np.int8 and table.shape == (n, n)
    assert table.tolist() == [
        [blue[i][j] + 2 * red[i][j] for j in range(n)] for i in range(n)
    ]
    assert g.cell_codes is table  # one table per graph
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[...] = 0
    weights = solver._cell_weights(g, 4)
    assert weights.dtype == np.int64
    assert weights.tolist() == [
        [[sum(x if k == RED else 1 for k in g.cells.get((i, j), ()))
          for j in range(n)] for i in range(n)]
        for x in range(1, 5)
    ]
    assert coefficient_bound(g) == min(math.prod(rows), math.prod(cols))
    achievable = red_count_set_dp(g)
    bounds = red_count_bounds(g)
    assert bounds == ((min(achievable), max(achievable)) if achievable else None)

    # the bounds, the top node, the grid and coefficient_bound all read
    # cell_codes: a certified solve builds it once, and a second solve of
    # the same graph not at all
    builds = []
    view = ColoredBipartiteGraph.cell_codes
    counted = functools.cached_property(
        lambda graph: builds.append(graph) or view.func(graph)
    )
    counted.__set_name__(ColoredBipartiteGraph, "cell_codes")
    monkeypatch.setattr(ColoredBipartiteGraph, "cell_codes", counted)
    fresh = ColoredBipartiteGraph.make(g.n, g.edges, g.multi)
    for _ in range(2):
        assert solve(fresh, g.n // 2).counts["certified"] == 1
        assert builds == ([fresh] if g.n else [])  # n = 0 reads no table


@pytest.mark.parametrize("p", [certificate_primes(1)[0], 37])
def test_top_powers_are_the_read_only_top_row_of_lam_powers(p):
    for n in range(0, 13):
        top = solver._top_powers(n, p)
        lam = np.array([n * (n - 1) // 2], dtype=np.int64)
        assert top.shape == (1, n, n)
        assert (top == solver._lam_powers(lam, n, p)).all()
        assert solver._top_powers(n, p) is top  # one table per (n, p)
        assert not top.flags.writeable
        with pytest.raises(ValueError):
            top[...] = 0


def test_prime_at_or_below_degree_raises_bad_prime(monkeypatch):
    # k44_diag: degree n(n-1)/2 = 6, m = 5 x nodes; k33 diag: degree 3, m = 4
    k33 = with_coloring(knn(3), red="diag")
    for g, p in ((k44_diag(), 5), (k33, 3), (k33, 2)):
        grid = EvaluationGrid.for_size(g.n)
        monkeypatch.setattr(
            solver, "certificate_primes", lambda bound, p=p: (p,) * 40
        )
        with pytest.raises(BadPrime):
            grid.nonvanishing_targets(g, set(range(g.n + 1)))
    # the next primes up are fine
    for g, start in ((k44_diag(), 6), (k33, 4)):
        grid = EvaluationGrid.for_size(g.n)
        monkeypatch.setattr(solver, "certificate_primes", _small_primes_from(start))
        want = exact_sweep(g, range(g.n + 1))
        assert grid.nonvanishing_targets(g, set(range(g.n + 1))) == want


def test_grid_primes_must_keep_the_lam_nodes_apart(monkeypatch):
    # knn(4) all blue: c_0 = 12 at every lam, m = 1, lam-degree 6
    g = knn(4)
    full = EvaluationGrid.for_size(4)
    assert full.nonvanishing_targets(g, {0}) == {0}
    # 5 <= 6: two lam nodes meet mod 5
    monkeypatch.setattr(solver, "certificate_primes", lambda bound: (5,))
    with pytest.raises(BadPrime):
        full.nonvanishing_targets(g, {0})
    monkeypatch.setattr(solver, "certificate_primes", lambda bound: (7,))
    assert full.nonvanishing_targets(g, {0}) == {0}


def test_grid_dets_count_the_modular_determinants(monkeypatch):
    # the root's probe evaluates its one lam node at the 6 x nodes; a root
    # the pair decides evaluates none
    assert solve(probe_only(), 4).counts["grid_dets"] == 6
    assert solve(k44_two_diagonals(), 2).counts["grid_dets"] == 0
    # k44_diag's t = 3 is identically zero: the one prime (C < 2^31)
    # sweeps all 7 lam nodes at the 5 x nodes
    trace = SolveTrace()
    assert EvaluationGrid.for_size(4).nonvanishing_targets(
        k44_diag(), {3}, trace
    ) == set()
    assert trace.counts["grid_dets"] == 7 * 5
    gap = _dense_gap_brace(8, 12500 + 8)
    grid = EvaluationGrid.for_size(gap.n)
    primes = solver.certificate_primes(coefficient_bound(gap))
    t_min, t_max = red_count_bounds(gap)
    m = t_max - t_min + 1
    # odd targets are zeros: every prime sweeps all 29 lam nodes. The grid
    # never reads who calls it: with a trace or without, it gives the same
    # result from the same first chunk, the top node alone, and a trace
    # only counts the determinants
    chunks = []
    powers = solver._lam_powers
    monkeypatch.setattr(
        solver, "_lam_powers",
        lambda lams, n, p: chunks.append((p, lams.tolist())) or powers(lams, n, p),
    )
    first, again = SolveTrace(), SolveTrace()
    for trace in (None, first, again):
        chunks.clear()
        assert grid.nonvanishing_targets(gap, {1}, trace) == set()
        assert chunks[0] == (primes[0], [28])
    assert first.counts == again.counts
    assert first.counts["grid_dets"] == len(primes) * 29 * m


def test_grid_leaves_the_prime_loop_once_nothing_is_open(monkeypatch):
    # every candidate is nonzero at the top node mod the first prime, the
    # grid's first chunk: it builds that prime's inverse Vandermonde
    # matrix alone, not one per certificate prime
    g = with_coloring(biwheel(12), red="bernoulli", seed=3)
    t_min, t_max = red_count_bounds(g)
    primes = solver.certificate_primes(coefficient_bound(g))
    assert len(primes) >= 3
    hits = solver._probe(g, t_min, t_max)
    assert len(hits) >= 3
    built = []
    x_inverse = solver._x_inverse
    monkeypatch.setattr(
        solver, "_x_inverse",
        lambda *args: built.append(args) or x_inverse(*args),
    )
    grid = EvaluationGrid.for_size(g.n)
    assert grid.nonvanishing_targets(g, hits) == hits
    assert built == [(t_min, t_max - t_min + 1, primes[0])]


# ---------------------------------------------------------------------------
# bounds prefilter


def test_red_count_bounds():
    assert red_count_bounds(k44_diag()) == (0, 4)
    assert red_count_bounds(knn(3)) == (0, 0)
    assert red_count_bounds(ColoredBipartiteGraph.make(0, [])) == (0, 0)
    assert red_count_bounds(
        ColoredBipartiteGraph.make(2, [(0, 0, 0), (1, 0, 0)])
    ) is None


def test_red_count_bounds_are_attained():
    for seed in range(20):
        g = random_graph(2 + seed % 4, 0.6, 0.5, seed=8700 + seed)
        bounds = red_count_bounds(g)
        counts = red_count_set(g)
        if bounds is None:
            assert not counts
        else:
            assert bounds == (min(counts), max(counts))


# ---------------------------------------------------------------------------
# feasibility recursion


def test_feasible_k44_diag():
    assert feasible_red_counts(k44_diag()) == frozenset({0, 1, 2, 4})


@pytest.mark.parametrize("seed", range(40))
def test_feasible_matches_enumeration(seed):
    n = 2 + seed % 6
    g = random_graph(n, (0.4, 0.6, 0.9)[seed % 3], 0.5, seed=8800 + seed)
    assert feasible_red_counts(g) == frozenset(red_count_set(g))


def test_feasible_disconnected_components_compose():
    g = ColoredBipartiteGraph.make(
        4,
        [(0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 0), (2, 2, 1), (3, 3, 0), (2, 3, 0), (3, 2, 0)],
    )
    # two K22 components, each reaching {0, 1}: sumset {0, 1, 2}
    assert feasible_red_counts(g) == frozenset({0, 1, 2})
    assert feasible_red_counts(g) == frozenset(red_count_set(g))


def test_feasible_empty_when_no_pm():
    g = ColoredBipartiteGraph.make(2, [(0, 0, 0), (1, 0, 0)])
    assert feasible_red_counts(g) == frozenset()


# ---------------------------------------------------------------------------
# witnesses


def test_extract_witness_valid():
    g = k44_diag()
    wit = extract_witness(g, 2)
    assert wit is not None
    rows = sorted(r for r, _, _ in wit)
    cols = sorted(c for _, c, _ in wit)
    assert rows == cols == list(range(4))
    assert sum(1 for _, _, k in wit if k == 1) == 2
    for rec in wit:
        assert rec in g.edges


def test_extract_witness_none_when_infeasible():
    assert extract_witness(k44_diag(), 3) is None


@pytest.mark.parametrize("seed", range(15))
def test_extract_witness_random(seed):
    g = random_graph(2 + seed % 5, 0.7, 0.5, seed=9300 + seed)
    for t in sorted(feasible_red_counts(g)):
        wit = extract_witness(g, t)
        assert wit is not None
        assert sorted(r for r, _, _ in wit) == list(range(g.n))
        assert sorted(c for _, c, _ in wit) == list(range(g.n))
        assert sum(1 for _, _, k in wit if k == 1) == t
        assert all(rec in g.edges for rec in wit)


def _is_witness(g, t, wit):
    return (
        wit is not None
        and sorted(r for r, _, _ in wit) == list(range(g.n))
        and sorted(c for _, c, _ in wit) == list(range(g.n))
        and all(rec in g.edges for rec in wit)
        and sum(1 for _, _, k in wit if k == RED) == t
    )


def _random_braces(count, seed):
    out = []
    for s in range(seed, seed + 4 * count):
        g = random_graph(3 + s % 9, 0.7, 0.5, seed=s, require_pm=True)
        if is_brace(g):
            out.append(g)
    assert len(out) >= count
    return out[:count]


@pytest.mark.parametrize("p", [certificate_primes(1)[0], 37])
def test_x_inverse_is_the_shifted_vandermonde_inverse(p):
    # V^-1 V = I, at m = 130 too under the first certificate prime; nodes
    # that collide mod p have no inverse
    sizes = (*range(1, 8), 130) if p > 37 else range(1, 8)
    for m in sizes:
        for t_min in (-3, -1, 0, 1, 4, 60):
            inv = solver._x_inverse(t_min, m, p)
            v = np.array(
                [[pow(x, t_min + s, p) for s in range(m)]
                 for x in range(1, m + 1)],
                dtype=np.int64,
            )
            prod = (inv[:, :, None] * v[None, :, :] % p).sum(axis=1) % p
            assert (prod == np.eye(m, dtype=np.int64)).all()
            assert not inv.flags.writeable
    with pytest.raises(ZeroDivisor):
        solver._x_inverse(0, 37, 37)


def test_a_root_asked_for_one_t_leaves_only_whole_sets_in_the_memo():
    # the root of extract_witness decides t = 0 by its bounds alone and
    # proves {0, 7}; the trace's memo must not keep that as g's set, so
    # the same trace still gives the whole set and a witness for t = 1
    g = random_graph(10, 0.5, 0.5, seed=0, require_pm=True)
    want = red_count_set_dp(g)
    assert want == set(range(8))
    assert solve(g, 0).blocks[0].feasible_t == (0, 7)
    trace = SolveTrace()
    assert _is_witness(g, 0, extract_witness(g, 0, trace))
    assert feasible_red_counts(g, trace) == want
    assert _is_witness(g, 1, extract_witness(g, 1, trace))
    assert trace.memo
    for (n, edges, multi), whole in trace.memo.items():
        graph = ColoredBipartiteGraph.make(n, edges, multi=multi)
        assert whole == red_count_set_dp(graph)


def test_a_witnessed_unit_root_searches_its_unit_cycle_once(monkeypatch):
    # t = 4 is this graph's t_min + 1, outside the chords' reach: the
    # root's unit cycle decides it, and the witness is the matching that
    # search found, with no second search
    g = random_graph(10, 0.3, 0.5, seed=1, require_pm=True)
    t, calls = 4, []
    unit_cycle = solver._unit_cycle
    monkeypatch.setattr(
        solver, "_unit_cycle",
        lambda graph, ex, s: calls.append(s) or unit_cycle(graph, ex, s),
    )
    rep = solve(g, t, SolverOptions(want_witness=True))
    assert [b.method for b in rep.blocks] == ["unit"]
    assert calls == [t]
    assert _is_witness(g, t, rep.witness)
    calls.clear()
    assert extract_witness(g, t) == list(rep.witness)
    assert calls == [t]


def test_brace_witness_from_its_start_adds_no_subproblem():
    # on a brace the decision settled, the start made on demand (its
    # exchange's switched matching, chords included, or a unit cycle's)
    # finishes every witness: the witness adds no subproblem
    for g in _random_braces(10, 14500) + [k44_diag()]:
        trace = SolveTrace()
        feasible = feasible_red_counts(g, trace)
        subproblems = trace.counts["subproblems"]
        for t in sorted(feasible):
            assert solver._start_of(g, t) is not None
            assert _is_witness(g, t, extract_witness(g, t, trace))
        assert trace.counts["subproblems"] == subproblems == len(trace.memo)


def test_every_achievable_t_gets_a_witness_from_a_start_or_forced_rows():
    # every achievable t gets a checked witness, from a start or by forcing
    # rows: probe_only's 4 and the roots of PROBE_DECIDED_ROOTS that only
    # the probe decides have no start, and K_n,n with a red diagonal is
    # asked every t it has
    graphs = _random_braces(10, 14700) + [
        k44_diag(), k44_two_diagonals(), probe_only(),
        with_coloring(band_path(7), red="bernoulli", seed=3),
    ] + [with_coloring(knn(n), red="diag") for n in range(6, 17)] + [
        p.values[0] for p in PROBE_DECIDED_ROOTS
    ]
    forced = 0
    for g in graphs:
        for t in sorted(red_count_set_dp(g)):
            forced += solver._start_of(g, t) is None
            rep = solve(g, t, SolverOptions(want_witness=True))
            assert rep.decision and _is_witness(g, t, rep.witness)
    assert solver._start_of(probe_only(), 4) is None
    assert forced >= 10


@pytest.mark.parametrize(
    "g",
    [
        pytest.param(k44_diag(), id="k44-diag"),
        pytest.param(with_coloring(band_path(7), red="bernoulli", seed=3), id="band7"),
    ],
)
def test_certificates_run_once_per_solve(g, monkeypatch):
    # the root asks its certificates for solve's target once per solve,
    # with or without a witness (every witness here has a start), and a
    # subproblem below it runs them once, for its whole set
    calls = []
    certify = solver._certify

    def counted(graph, trace, target):
        calls.append((solver._memo_key(graph), target))
        return certify(graph, trace, target)

    monkeypatch.setattr(solver, "_certify", counted)
    for t in range(-1, g.n + 2):
        for want_witness in (False, True):
            calls.clear()
            rep = solve(g, t, SolverOptions(want_witness=want_witness))
            assert calls[0] == (solver._memo_key(g), t)
            assert all(target is None for _, target in calls[1:])
            keys = [key for key, _ in calls]
            assert len(keys) == len(set(keys)) >= rep.counts["subproblems"]
            assert rep.witness is None or _is_witness(g, t, rep.witness)


def _non_braces(count, seed):
    out = []
    for s in range(seed, seed + 4 * count):
        g = random_graph(10 + s % 3, 0.4, 0.5, seed=s, require_pm=True)
        if not is_brace(g):
            out.append(g)
    assert len(out) >= count
    return out[:count]


PROBE_DECIDED_ROOTS = (
    [pytest.param(with_coloring(band_path(32), "bernoulli", seed=s),
                  id=f"band32-{s}") for s in (1, 2)]
    + [pytest.param(with_coloring(biwheel(16), "bernoulli", seed=s),
                    id=f"biwheel16-{s}") for s in (1, 2)]
    + [pytest.param(g, id=f"nonbrace-n{g.n}-{i}")
       for i, g in enumerate(_non_braces(6, 15000))]
)


@pytest.mark.parametrize("g", PROBE_DECIDED_ROOTS)
def test_probe_decided_root_and_its_witness_build_no_pair_digraph(
    g, monkeypatch
):
    # within the probe's guard every t the probe certified is decided at
    # the root, before D(G, M); its witness, from a start or by forcing
    # rows onto residual graphs that their certificates settle, builds no
    # D(G, M) either
    builds = []
    build = solver._elementary
    monkeypatch.setattr(
        solver, "_elementary", lambda graph: builds.append(graph) or build(graph)
    )
    want = red_count_set_dp(g)
    if g.n > 16:
        assert feasible_red_counts(g) == want
    t_min, t_max = red_count_bounds(g)
    assert (t_max - t_min + 1) * g.n * g.n <= solver._GRID_BLOCK_ENTRIES
    probed = solver._probe(g, t_min, t_max)
    assert probed
    for t in range(-1, g.n + 2):
        builds.clear()
        rep = solve(g, t, SolverOptions(want_witness=True))
        assert rep.decision == (t in want)
        if rep.decision:
            assert _is_witness(g, t, rep.witness)
        if t in probed:
            assert rep.counts["certified"] == 1
            assert len(builds) == rep.counts["subproblems"] - 1 == 0


def test_witnessed_probe_root_solves_its_assignments_once(monkeypatch):
    # the root returns its exchange, chords included: the probe decides
    # t = 4, which no start reaches, and the witness reads that exchange
    # before it forces rows, with no second assignment and no second chord
    # pass on the root graph (the root's three passes are the optima's and
    # each pair's)
    g, t = probe_only(), 4
    assert solver._start_of(g, t) is None
    calls = []
    assignments, chords = solver._assignments, solver._chords
    monkeypatch.setattr(
        solver, "_assignments",
        lambda graph: (graph is g and calls.append("assignments"))
        or assignments(graph),
    )
    monkeypatch.setattr(
        solver, "_chords",
        lambda graph, *args: (graph is g and calls.append("chords"))
        or chords(graph, *args),
    )
    rep = solve(g, t, SolverOptions(want_witness=True))
    assert [b.method for b in rep.blocks] == ["probe"]
    assert calls == ["assignments"] + ["chords"] * 3
    assert _is_witness(g, t, rep.witness)


# a sparse root where both pairs miss t and the probe decides it
SPARSE_PROBE_ROOT = (random_graph(12, 0.3, 0.5, seed=153, require_pm=True), 7)


def _pairs_reach(g, t):
    """Does either pair's reach, chords included, hold t (_certify's rung)?"""
    return any(
        solver._chords(g, solver._pair(g, backward), t, False).reach() >> t & 1
        for backward in (False, True)
    )


def test_pair_decides_a_probe_root_of_the_optima_with_no_determinant(
    monkeypatch,
):
    # the optima's exchange, chords and unit cycles leave t = 8 open, and
    # the pair's switched matching reaches it: the root is "pair" with no
    # determinant, and the witness is that matching, so no residual graph
    # is decided
    g, t = random_graph(16, 0.2, 0.5, seed=65, require_pm=True), 8
    ex = solver._chords(g, _exchange_of(g), t)
    assert not ex.reach() >> t & 1 and t not in (ex.t_min + 1, ex.t_max - 1)
    assert _pairs_reach(g, t)
    decided = []
    decide = solver._decide
    monkeypatch.setattr(
        solver, "_decide",
        lambda graph, target, trace: decided.append(graph)
        or decide(graph, target, trace),
    )
    rep = solve(g, t, SolverOptions(want_witness=True))
    assert [b.method for b in rep.blocks] == ["pair"]
    assert rep.decision and rep.counts["grid_dets"] == 0
    assert _is_witness(g, t, rep.witness)
    assert decided == [g]


def test_a_sparse_root_both_pairs_miss_goes_to_the_probe():
    g, t = SPARSE_PROBE_ROOT
    assert not _pairs_reach(g, t)
    rep = solve(g, t)
    assert rep.decision == (t in red_count_set_dp(g))
    assert [b.method for b in rep.blocks] == ["probe"]
    assert rep.counts["grid_dets"] > 0


def test_probe_never_runs_for_a_root_the_pair_decided(monkeypatch):
    probed = []
    probe = solver._probe
    monkeypatch.setattr(
        solver, "_probe", lambda *args: probed.append(args) or probe(*args)
    )
    pair_roots = 0
    graphs = [k44_two_diagonals(), probe_only()] + [
        p.values[0] for p in PROBE_DECIDED_ROOTS
    ] + [
        random_graph(12, 0.3, 0.5, seed=s, require_pm=True)
        for s in range(150, 200)
    ]
    for g in graphs:
        for t in range(-1, g.n + 2):
            for want_witness in (False, True):
                probed.clear()
                rep = solve(g, t, SolverOptions(want_witness=want_witness))
                if [b.method for b in rep.blocks] == ["pair"]:
                    pair_roots += 1
                    assert probed == []
                    assert rep.counts["grid_dets"] == 0
                    assert not want_witness or _is_witness(g, t, rep.witness)
    assert pair_roots >= 10


def test_forced_rows_decide_one_target_and_carry_their_exchange(monkeypatch):
    # only the probe proves t = 7 at this root (both pairs miss it), so no
    # start reaches it and the witness forces rows: each forced record's
    # residual graph is decided for its one target (_decide), and the
    # exchange that decision returns is the next graph's start, so
    # _start_of solves no assignment problem of a graph that a decision
    # already certified
    g, t = SPARSE_PROBE_ROOT
    decided, certified, started = [], [], []
    in_start = [False]
    decide, certify = solver._decide, solver._certify
    assignments, start_of = solver._assignments, solver._start_of

    def spy_start_of(graph, target, exchange=None):
        in_start[0] = True
        try:
            return start_of(graph, target, exchange)
        finally:
            in_start[0] = False

    def spy_assignments(graph):
        if in_start[0]:
            started.append(solver._memo_key(graph))
        return assignments(graph)

    def spy_certify(graph, trace, target):
        certified.append((solver._memo_key(graph), target))
        return certify(graph, trace, target)

    monkeypatch.setattr(
        solver, "_decide",
        lambda graph, target, trace: decided.append(
            (solver._memo_key(graph), target)
        ) or decide(graph, target, trace),
    )
    monkeypatch.setattr(solver, "_certify", spy_certify)
    monkeypatch.setattr(solver, "_assignments", spy_assignments)
    monkeypatch.setattr(solver, "_start_of", spy_start_of)
    rep = solve(g, t, SolverOptions(want_witness=True))
    assert [b.method for b in rep.blocks] == ["probe"]
    assert rep.witness == (
        (0, 1, 1), (1, 9, 1), (2, 0, 1), (3, 3, 0), (4, 2, 1), (5, 4, 0),
        (6, 7, 0), (7, 10, 0), (8, 5, 1), (9, 6, 0), (10, 11, 1), (11, 8, 1),
    )
    assert decided[0] == (solver._memo_key(g), t) and len(decided) >= 3
    keys = [key for key, _ in decided]
    assert len(keys) == len(set(keys))  # one target per residual graph
    assert certified == decided  # no residual asks for its whole set
    assert started == []


@pytest.mark.parametrize("p", [31, 37])
def test_witnesses_under_a_small_first_prime_fall_back(p, monkeypatch):
    # the probe works mod the first certificate prime: a small one makes
    # its zero residues common, and the real primes after it keep the
    # grid's zero proofs exact; every witness is checked, and the
    # row-forcing fallback finishes those with no start
    real = solver.certificate_primes
    monkeypatch.setattr(solver, "certificate_primes", lambda bound: (p,) + real(bound))
    outcomes = {"start": 0, "fallback": 0}
    start_of = solver._start_of

    def counted(g, t, exchange=None):
        start = start_of(g, t, exchange)
        outcomes["start" if start is not None else "fallback"] += 1
        return start

    monkeypatch.setattr(solver, "_start_of", counted)
    # the chords would hand most targets a switched matching: without them
    # every t outside the reach of the optima's exchange and the pairs'
    # but a unit cycle's has no start
    monkeypatch.setattr(
        solver, "_chords", lambda g, exchange, *args: exchange
    )
    graphs = [g for g in _random_braces(20, 15200) if g.n <= 8] + [
        k44_diag(), with_coloring(band_path(7), red="bernoulli", seed=3),
    ] + [random_graph(n, 0.5, 0.5, seed=15300 + n, require_pm=True)
         for n in range(4, 9)]
    for g in graphs:
        want = red_count_set_dp(g)
        for t in range(-1, g.n + 2):
            rep = solve(g, t, SolverOptions(want_witness=True))
            assert rep.decision == (t in want)
            if rep.decision:
                assert _is_witness(g, t, rep.witness)
    assert outcomes["start"] >= 10 and outcomes["fallback"] >= 1


WRONG_WITNESSES = [
    [(r, r, RED) for r in range(4)],  # four red records, not the target's
    [(0, 0, BLUE), (1, 1, RED), (2, 2, RED), (3, 3, BLUE)],  # not in g
    [(0, 0, RED), (1, 0, BLUE), (2, 2, RED), (3, 1, BLUE)],  # column 0 twice
    [(0, 0, RED), (1, 1, RED)],  # rows 2 and 3 unmatched
]


@pytest.mark.parametrize("wrong", WRONG_WITNESSES)
def test_a_wrong_witness_raises_invariant_error(wrong, monkeypatch):
    # t = 2 lies outside the chords' reach and 2 from both bounds, so only
    # a pair's switched matching starts it; a wrong matching handed over
    # as the start is caught
    monkeypatch.setattr(
        solver, "_start_of", lambda g, t, exchange=None: list(wrong)
    )
    with pytest.raises(InvariantError):
        solve(k44_two_diagonals(), 2, SolverOptions(want_witness=True))


# k44_two_diagonals at t = 2, red iff c - r is 0 or 1 mod 4: a perfect
# matching with 2 red records, then lists that break one clause of the
# witness check each; the same graph without the cell (0, 2) gives a
# record that is in no cell of g
TWO_RED = [(0, 1, RED), (1, 0, BLUE), (2, 3, RED), (3, 2, BLUE)]


def _k44_two_diagonals_but_0_2():
    return ColoredBipartiteGraph.make(
        4, [e for e in k44_two_diagonals().edges if e[:2] != (0, 2)]
    )


BROKEN_WITNESSES = [
    pytest.param(k44_two_diagonals, TWO_RED[:3], id="short"),
    pytest.param(k44_two_diagonals, TWO_RED + [(1, 0, BLUE)],
                 id="repeated-record"),
    pytest.param(k44_two_diagonals, TWO_RED + [(1, 0, RED)],
                 id="extra-record-of-another-color"),
    pytest.param(k44_two_diagonals, TWO_RED[:3] + [(0, 2, BLUE)],
                 id="repeated-row"),
    pytest.param(k44_two_diagonals, TWO_RED[:3] + [(3, 1, BLUE)],
                 id="repeated-column"),
    pytest.param(k44_two_diagonals, TWO_RED[:3] + [(4, 2, BLUE)],
                 id="row-outside"),
    pytest.param(k44_two_diagonals, TWO_RED[:3] + [(-1, 2, BLUE)],
                 id="negative-row"),
    pytest.param(k44_two_diagonals,
                 [(0, 0, RED), (1, 3, RED), (2, 1, BLUE), (3, 2, BLUE)],
                 id="other-color"),
    pytest.param(_k44_two_diagonals_but_0_2,
                 [(0, 2, BLUE), (1, 1, RED), (2, 0, BLUE), (3, 3, RED)],
                 id="no-cell"),
    pytest.param(k44_two_diagonals,
                 [(0, 0, RED), (1, 3, BLUE), (2, 1, BLUE), (3, 2, BLUE)],
                 id="one-red"),
]


@pytest.mark.parametrize(
    "graph", [k44_two_diagonals, _k44_two_diagonals_but_0_2]
)
def test_the_two_red_witness_passes_the_check(graph, monkeypatch):
    monkeypatch.setattr(
        solver, "_start_of", lambda g, t, exchange=None: list(TWO_RED)
    )
    rep = solve(graph(), 2, SolverOptions(want_witness=True))
    assert list(rep.witness) == TWO_RED
    assert extract_witness(graph(), 2) == TWO_RED


@pytest.mark.parametrize("graph, wrong", BROKEN_WITNESSES)
def test_each_clause_of_the_witness_check_raises(graph, wrong, monkeypatch):
    monkeypatch.setattr(
        solver, "_start_of", lambda g, t, exchange=None: list(wrong)
    )
    with pytest.raises(InvariantError):
        solve(graph(), 2, SolverOptions(want_witness=True))
    with pytest.raises(InvariantError):
        extract_witness(graph(), 2)


@pytest.mark.parametrize("wrong", WRONG_WITNESSES)
def test_a_wrong_unit_cycle_witness_raises_invariant_error(wrong, monkeypatch):
    # t = 1 is k44_diag's t_min + 1: M_lo switched along a unit cycle is
    # the witness
    monkeypatch.setattr(solver, "_unit_cycle", lambda g, ex, t: list(wrong))
    with pytest.raises(InvariantError):
        solve(k44_diag(), 1, SolverOptions(want_witness=True))


@pytest.mark.parametrize("wrong", WRONG_WITNESSES)
def test_a_wrong_exchange_witness_raises_invariant_error(wrong, monkeypatch):
    # t = 2 is in the exchange's reach: its switched matching is the witness
    monkeypatch.setattr(
        solver._Exchange, "witness", lambda self, t: list(wrong)
    )
    with pytest.raises(InvariantError):
        solve(k44_diag(), 2, SolverOptions(want_witness=True))


def _certify_nothing(g, trace, t):
    """_certify that proves nothing: only a graph without a perfect matching
    is settled (by its bounds), and every t of 0..n stays open."""
    if red_count_bounds(g) is None:
        return None
    return set(), set(range(g.n + 1)), None, None


def _no_certificates(monkeypatch):
    """Every subproblem's certificates prove nothing and no probe runs, so
    the recursion runs as it did before any certificate."""
    monkeypatch.setattr(solver, "_certify", _certify_nothing)


# the same for the subprocess scripts below, which also give the witness
# no start, so it forces every row
_NO_CERTIFICATES = """
from exactmatch import solver
def _certify_nothing(g, trace, t):
    if solver.red_count_bounds(g) is None:
        return None
    return set(), set(range(g.n + 1)), None, None
solver._certify = _certify_nothing
solver._start_of = lambda g, t, exchange: None
"""


_MANY_BLOCKS = """
import sys
from exactmatch.graphs import BLUE, RED, ColoredBipartiteGraph
from exactmatch.solver import (
    SolverOptions, SolveTrace, extract_witness, feasible_red_counts, solve,
)
""" + _NO_CERTIFICATES + """
# 80 disjoint K_2,2 blocks, red sets {0, 2}, {0, 1} and {1, 2} in turn
reds = [{(0, 0), (1, 1)}, {(0, 0)}, {(0, 0), (0, 1), (1, 0)}]
edges = [
    (2 * b + r, 2 * b + c, RED if (r, c) in reds[b % 3] else BLUE)
    for b in range(80) for r in range(2) for c in range(2)
]
g = ColoredBipartiteGraph.make(160, edges)
sys.setrecursionlimit(120)
trace = SolveTrace()
decision = 80 in feasible_red_counts(g, trace)
depth = trace.counts["depth"]
witness = extract_witness(g, 80, trace)
rep = solve(g, 80, SolverOptions(want_witness=True))
for wit in (witness, rep.witness):
    print(len(wit), sum(1 for _, _, k in wit if k == RED))
print(decision, depth, rep.decision, rep.counts["depth"],
      rep.counts["subproblems"], rep.blocks[0].method)
"""


def test_witness_depth_is_not_bounded_by_recursion_limit():
    # without certificates or starts the decision nests 2 deep and the
    # row-forcing self-reduction takes 160 rows, one loop step each, also
    # under solve
    src = os.path.dirname(os.path.dirname(solver.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", _MANY_BLOCKS], env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split() == [
        "160", "80", "160", "80", "True", "2", "True", "2", "4", "pure-ASNC",
    ]


_DEEP_CUTS = """
import sys
from exactmatch.graphs import RED, band_path, with_coloring
from exactmatch.solver import (
    SolverOptions, SolveTrace, extract_witness, feasible_red_counts, solve,
)
""" + _NO_CERTIFICATES + """
g = with_coloring(band_path(400), "bernoulli", seed=3)
sys.setrecursionlimit(200)
trace = SolveTrace()
feasible = sorted(feasible_red_counts(g, trace))
depth, subproblems = trace.counts["depth"], trace.counts["subproblems"]
t = feasible[len(feasible) // 2]
witness = extract_witness(g, t, trace)
rep = solve(g, t, SolverOptions(want_witness=True))
for wit in (witness, rep.witness):
    print(len(wit), sum(1 for _, _, k in wit if k == RED))
print(len(feasible), t, depth, subproblems, rep.decision,
      rep.counts["depth"], rep.counts["subproblems"], rep.blocks[0].method)
"""


def test_decision_depth_is_not_bounded_by_recursion_limit():
    # without certificates band_path(400) nests 201 subproblems deep
    # through its tight cuts; the decision and the witness (400 forced
    # rows) run at a recursion limit of 200, also under solve
    src = os.path.dirname(os.path.dirname(solver.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", _DEEP_CUTS], env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split() == [
        "400", "202", "400", "202",
        "221", "202", "201", "796", "True", "201", "796", "pure-ASNC",
    ]


# ---------------------------------------------------------------------------
# solve reports


def test_solve_k44_yes_and_no():
    rep = solve(k44_diag(), 2, SolverOptions(want_witness=True))
    assert rep.decision and rep.witness is not None
    assert sum(1 for _, _, k in rep.witness if k == 1) == 2
    rep_no = solve(k44_diag(), 3)
    assert not rep_no.decision and rep_no.witness is None


def test_solve_report_blocks_k44(monkeypatch):
    # the hole t = 3 is t_max - 1: no cycle of M_hi's exchange digraph
    # loses exactly one red record, so the root settles it with no
    # determinant, as the red counts it proved
    rep = solve(k44_diag(), 3)
    assert rep.blocks == (BlockReport(4, (0, 2, 4), "unit"),)
    assert rep.counts["certified"] == 1 and rep.counts["grid_dets"] == 0
    assert feasible_red_counts(k44_diag()) == {0, 1, 2, 4}
    # with no certificate the root reaches the grid, which settles the
    # brace's whole achievable set
    _no_certificates(monkeypatch)
    rep = solve(k44_diag(), 3)
    assert rep.blocks == (BlockReport(4, (0, 1, 2, 4), "pure-ASNC"),)
    assert rep.counts["braces"] == 1 and rep.counts["grid_dets"] == 7 * 5


def test_solve_json_schema():
    # t = 2 lies outside the chords' reach {0, 1, 3, 4} and 2 from both
    # bounds: the first pair's cycle gains 3 from t = 1 and a chord of it
    # 1, so the root is "pair" with no determinant, the optima's reach and
    # the pair's proving every t, and the witness is that switched matching
    g = k44_two_diagonals()
    d = solve(g, 2, SolverOptions(want_witness=True)).to_json_dict()
    assert d["schema"] == "exactmatch/9"
    assert d["decision"] == "YES"
    assert d["blocks"] == [
        {"n": 4, "feasible_t": [0, 1, 2, 3, 4], "method": "pair"}
    ]
    assert d["counts"] == {
        "subproblems": 1, "memo_hits": 0, "braces": 0, "tight_cuts": 0,
        "certified": 1, "grid_dets": 0, "depth": 1,
    }
    assert len(d["witness"]) == 4
    # probe_only's t = 4 is outside both pairs' reach too: the probe's 6
    # determinants decide it, and its witness forces rows
    d = solve(probe_only(), 4, SolverOptions(want_witness=True)).to_json_dict()
    assert d["schema"] == "exactmatch/9"
    assert d["blocks"] == [
        {"n": 7, "feasible_t": [2, 3, 4, 5, 6, 7], "method": "probe"}
    ]
    assert d["counts"]["grid_dets"] == 6
    assert len(d["witness"]) == 7
    assert all(len(rec) == 3 for rec in d["witness"])
    assert set(d["timings"]) == {"decide_ms", "witness_ms"}
    # k44_diag's hole t = 3 is t_max - 1: the unit cycles refute it with
    # no determinant
    d = solve(k44_diag(), 3, SolverOptions(want_witness=True)).to_json_dict()
    assert d["schema"] == "exactmatch/9"
    assert d["decision"] == "NO" and "witness" not in d
    assert d["blocks"] == [
        {"n": 4, "feasible_t": [0, 2, 4], "method": "unit"}
    ]
    assert d["counts"] == {
        "subproblems": 1, "memo_hits": 0, "braces": 0, "tight_cuts": 0,
        "certified": 1, "grid_dets": 0, "depth": 1,
    }


def test_solve_no_pm_graph():
    g = ColoredBipartiteGraph.make(2, [(0, 0, 0), (1, 0, 0)])
    rep = solve(g, 0)
    assert not rep.decision
    assert rep.blocks == ()


def test_solve_out_of_range_t():
    assert not solve(knn(3), -1).decision
    assert not solve(knn(3), 5).decision
    # a target far out of range decides NO without building a bit for it
    assert not solve(knn(3), 10**12).decision
    g = random_graph(14, 0.2, 0.5, seed=22, require_pm=True)
    assert not solve(g, 2**70).decision
    assert not solve(g, 2**70, SolverOptions(want_witness=True)).decision


def test_solve_report_traces_the_recursion():
    # every subproblem certifies first: here every leaf is a subproblem
    # its certificates settled, each of the five settles some, and the
    # tight cuts above them are where a t was left open
    g = random_graph(14, 0.2, 0.5, seed=22, require_pm=True)
    want = red_count_set_dp(g)
    for t in range(-1, g.n + 2):
        assert solve(g, t).decision == (t in want)
    rep = SolveTrace()
    assert feasible_red_counts(g, rep) == want
    assert {b.method for b in rep.blocks} == {
        "bounds", "exchange", "congruence", "unit", "probe",
    }
    counts = rep.counts
    assert counts["tight_cuts"] > 0
    assert counts["braces"] + counts["certified"] == len(rep.blocks)
    assert counts["subproblems"] == len(rep.memo)
    again = SolveTrace()
    feasible_red_counts(g, again)
    assert again.blocks == rep.blocks and again.counts == rep.counts


def test_solve_report_ignores_witness_subproblems():
    # the witness forces rows through new subproblems
    g = with_coloring(band_path(7), red="bernoulli", seed=3)
    t = min(red_count_set(g))
    plain = solve(g, t)
    with_wit = solve(g, t, SolverOptions(want_witness=True))
    assert with_wit.witness is not None
    assert with_wit.blocks == plain.blocks
    assert with_wit.counts == plain.counts


# Read off solve(g, 0) at the commit before subproblems were induced from
# the input graph and each crossing child was evaluated once per row/column,
# when solve always ran the recursion: with no certificates the recursion
# must keep its subproblems, leaves and their order. depth and memo_hits
# were read off feasible_red_counts when the recursion still nested Python
# calls, before it ran on an explicit stack; memo hits depend on the
# evaluation order. The n <= 2 leaves go to the grid, which is exact on
# any graph that small, so braces and grid_dets count them.
PINNED_TRACES = {
    "band_path7": (
        lambda: with_coloring(band_path(7), red="bernoulli", seed=3),
        {"subproblems": 10, "braces": 3, "tight_cuts": 4,
         "grid_dets": 4, "depth": 5, "memo_hits": 13},
        [(1, (0,), "pure-ASNC"), (1, (1,), "pure-ASNC"),
         (2, (0, 1), "pure-ASNC")],
    ),
    "random12-d0.3": (
        lambda: random_graph(12, 0.3, 0.5, seed=13, require_pm=True),
        {"subproblems": 147, "braces": 16, "tight_cuts": 60,
         "grid_dets": 48, "depth": 7, "memo_hits": 353},
        [(10, (4, 5, 6, 7, 8, 9), "pure-ASNC"), (1, (0,), "pure-ASNC"),
         (1, (1,), "pure-ASNC"), (2, (1, 2), "pure-ASNC"),
         (2, (1, 2), "pure-ASNC"), (2, (0, 1), "pure-ASNC"),
         (2, (2,), "pure-ASNC"), (2, (0, 1), "pure-ASNC"),
         (2, (0, 1), "pure-ASNC"), (2, (1,), "pure-ASNC"),
         (10, (4, 5, 6, 7, 8, 9), "pure-ASNC"),
         (10, (3, 4, 5, 6, 7, 8, 9), "pure-ASNC"),
         (2, (1, 2), "pure-ASNC"), (2, (1,), "pure-ASNC"),
         (10, (4, 5, 6, 7, 8, 9), "pure-ASNC"),
         (10, (4, 5, 6, 7, 8, 9), "pure-ASNC")],
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_TRACES))
def test_solve_trace_matches_pinned_recursion(name, monkeypatch):
    _no_certificates(monkeypatch)
    make, counts, blocks = PINNED_TRACES[name]
    rep = SolveTrace()
    feasible_red_counts(make(), rep)
    assert {k: rep.counts[k] for k in counts} == counts
    assert [(b.n, b.feasible_t, b.method) for b in rep.blocks] == blocks


def test_depth_is_the_deepest_nesting_of_the_recursion(monkeypatch):
    # the root counts as 1 and each elementary block nests one below it,
    # memo hits included: the second K2,2 block repeats the first. The
    # root's congruence settles the pair, so the blocks nest only when the
    # certificates prove nothing
    assert solve(knn(3), 0).counts["depth"] == 1
    k22 = [(r, c, RED if r == c else BLUE) for r in range(2) for c in range(2)]
    g = ColoredBipartiteGraph.make(
        4, k22 + [(2 + r, 2 + c, k) for r, c, k in k22])
    assert solve(g, 1).counts["depth"] == 1
    _no_certificates(monkeypatch)
    rep = SolveTrace()
    assert feasible_red_counts(g, rep) == {0, 2, 4}
    assert rep.counts["depth"] == 2
    assert (rep.counts["subproblems"], rep.counts["memo_hits"]) == (2, 1)


# ---------------------------------------------------------------------------
# root certificates


def _congruence_cases():
    # n <= 10 at densities 0.3-0.9, one draw in three gap-colored; sparse
    # draws have several elementary blocks, and the decomposition blocks
    # are multigraphs with parallel cells of both colors
    out = []
    for seed in range(72):
        n = 2 + seed % 9
        density = (0.3, 0.5, 0.7, 0.9)[seed // 9 % 4]
        g = random_graph(n, density, 0.5, seed=14000 + seed, require_pm=True)
        gap = seed % 3 == 2
        if gap:
            g = _gap_colored(g)
        out.append(pytest.param(
            g, id=f"{'gap' if gap else 'random'}-n{n}-d{density}-{seed}"))
    return out + _decomposition_blocks()


def _multi_block_root():
    # k33 with a red diagonal (T = {0, 1, 3}) beside a hexagon whose two
    # perfect matchings have 0 and 3 red records, and a record between
    # them that no perfect matching uses: T = {0, 1, 3, 4, 6}, whose hole
    # 2 is 2 from both bounds
    k33 = with_coloring(knn(3), red="diag")
    hexagon = [(3 + r, 3 + (r + d) % 3, RED if d == 0 else BLUE)
               for r in range(3) for d in (0, 1)]
    return ColoredBipartiteGraph.make(
        6, list(k33.edges) + hexagon + [(0, 3, BLUE)]
    )


CONGRUENCE_CASES = _congruence_cases()
# in-bound NOs that neither the bounds nor the congruence explain: t_max -
# 1 of k33_diag and k44_diag, and the multi-block root's 2
RESIDUAL_HOLES = [
    pytest.param(with_coloring(knn(3), red="diag"), id="k33-diag"),
    pytest.param(k44_diag(), id="k44-diag"),
    pytest.param(_multi_block_root(), id="multi-block"),
]


def test_congruence_cases_cover_blocks_multigraphs_and_classes():
    graphs = [p.values[0] for p in CONGRUENCE_CASES]
    assert sum(len(_elementary(g).blocks) > 1 for g in graphs) >= 10
    assert any(g.multi and len(ks) > 1 for g in graphs for ks in g.cells.values())
    moduli = [solver._congruence(g.n, _elementary(g).allowed())[0] for g in graphs]
    assert {0, 1, 2} <= set(moduli)


@pytest.mark.parametrize("g", CONGRUENCE_CASES)
def test_congruence_is_the_gcd_of_achievable_differences(g):
    want = red_count_set_dp(g)
    if g.n <= 8:
        assert want == red_count_set(g)
    modulus, residue = solver._congruence(g.n, _elementary(g).allowed())
    low = min(want)
    assert modulus == math.gcd(*(t - low for t in want))
    if modulus:
        assert 0 <= residue < modulus and (low - residue) % modulus == 0
    else:
        assert residue == low


@pytest.mark.parametrize("g", CONGRUENCE_CASES + RESIDUAL_HOLES)
def test_certificates_never_contradict_the_dp_oracle(g, monkeypatch):
    want = red_count_set_dp(g)
    t_min, t_max = red_count_bounds(g)
    assert {t_min, t_max} <= want  # YES: the endpoints are attained
    in_class = solver._in_class(
        t_min, t_max, *solver._congruence(g.n, _elementary(g).allowed())
    )
    assert want <= in_class  # NO: outside the bounds or off the class
    for t in range(-1, g.n + 2):
        assert solve(g, t).decision == (t in want)
    # YES: the probe, also at a small first prime, where accidental zeros
    # are common
    real = solver.certificate_primes
    for small in [False] + [True] * (g.n <= 8):
        if small:
            monkeypatch.setattr(
                solver, "certificate_primes", lambda bound: (37,) + real(bound)
            )
        assert solver._probe(g, t_min, t_max) <= want


@pytest.mark.parametrize("g", CONGRUENCE_CASES + RESIDUAL_HOLES)
def test_records_congruence_holds_on_every_graph(g):
    # the class from g's own records holds for every perfect matching; it
    # can only be coarser than the blocks' exact class, and is that class
    # when D(G, M) has one block
    want = red_count_set_dp(g)
    d = _elementary(g)
    modulus, residue = solver._congruence(g.n, g.edges)
    exact, exact_residue = solver._congruence(g.n, d.allowed())
    assert want <= solver._in_class(min(want), max(want), modulus, residue)
    if modulus:
        assert exact % modulus == 0
        assert (exact_residue - residue) % modulus == 0
    else:
        assert (exact, exact_residue) == (0, residue)
    if len(d.blocks) == 1:
        assert (modulus, residue) == (exact, exact_residue)


def _both_colors_diagonal(n):
    # K_n,n whose diagonal cells hold a blue and a red record: every row's
    # two optima share a cell and differ in color, a cycle with gain 1
    edges = [(r, c, BLUE) for r in range(n) for c in range(n)]
    return ColoredBipartiteGraph.make(
        n, edges + [(r, r, RED) for r in range(n)], multi=True
    )


def _two_blocks_one_red():
    # two disjoint K_2,2 blocks with one red record each
    return ColoredBipartiteGraph.make(4, [
        (o + r, o + c, RED if r == c == 0 else BLUE)
        for o in (0, 2) for r in range(2) for c in range(2)
    ])


def _exchange_of(g):
    return solver._exchange(*solver._assignments(g))


EXCHANGE_RANDOM = [
    pytest.param(
        random_graph(2 + s % 7, (0.3, 0.5, 0.7, 0.9)[s % 4],
                     (0.2, 0.5, 0.8)[s % 3], seed=16000 + s, require_pm=True),
        id=f"random-{s}",
    )
    for s in range(40)
]


@pytest.mark.parametrize(
    "g",
    [p for p in CONGRUENCE_CASES + RESIDUAL_HOLES if p.values[0].n <= 8]
    + EXCHANGE_RANDOM
    + [pytest.param(_both_colors_diagonal(n), id=f"multi-diag{n}")
       for n in (1, 4)]
    + [pytest.param(_two_blocks_one_red(), id="two-k22")],
)
def test_exchange_reach_is_achievable_and_switches_to_witnesses(g):
    # every t of the reach is in the DP oracle's set, and the switched
    # matching for it is a perfect matching of g with t red records
    want = red_count_set_dp(g)
    ex = _exchange_of(g)
    assert (ex.t_min, ex.t_max) == red_count_bounds(g)
    assert all(d > 0 for d in ex.deltas)
    rows = [r for cycle in ex.cycles for r in cycle]
    assert len(rows) == len(set(rows))  # disjoint cycles
    reach = ex.reach()
    proved = {t for t in range(g.n + 1) if reach >> t & 1}
    assert reach >> (g.n + 1) == 0 and {ex.t_min, ex.t_max} <= proved
    assert proved <= want
    for t in range(-1, g.n + 2):
        wit = ex.witness(t)
        if t in proved:
            assert _is_witness(g, t, wit)
        else:
            assert wit is None


def test_exchange_counts_a_cell_of_both_colors_as_a_cycle():
    g = _both_colors_diagonal(3)
    assert g.multi and all(len(g.cells[r, r]) == 2 for r in range(3))
    ex = _exchange_of(g)
    assert (ex.cycles, ex.deltas) == ([[0], [1], [2]], [1, 1, 1])
    assert ex.witness(2) == [(0, 0, RED), (1, 1, RED), (2, 2, BLUE)]
    rep = solve(g, 2, SolverOptions(want_witness=True))
    assert [b.method for b in rep.blocks] == ["exchange"]
    assert rep.counts["grid_dets"] == 0 and _is_witness(g, 2, rep.witness)


def test_probe_runs_only_for_a_t_no_other_certificate_decides(monkeypatch):
    # probe_only: the chords and both pairs reach {2, 3, 5, 6, 7}, so 4
    # needs the probe, once with or without a witness (the residual graphs
    # its witness forces rows onto need none); k44_two_diagonals: the
    # chords reach {0, 1, 3, 4}, and a pair reaches 2; k44_diag: reach
    # {0, 2, 4}, and its 1 (YES) and 3 (NO) are t_min + 1 and t_max - 1,
    # which the unit cycles decide; a t the bounds, the reach, the unit
    # cycles or a pair decide runs no probe
    made = []
    probe = solver._probe
    monkeypatch.setattr(
        solver, "_probe", lambda *args: made.append("probe") or probe(*args)
    )
    for g, t, want_witness, ran in [
        (probe_only(), 4, False, ["probe"]),
        (probe_only(), 4, True, ["probe"]),
        (k44_two_diagonals(), 2, False, []),
        (k44_two_diagonals(), 2, True, []),
        (k44_two_diagonals(), 1, True, []), (k44_two_diagonals(), 3, True, []),
        (k44_diag(), 1, False, []), (k44_diag(), 1, True, []),
        (k44_diag(), 3, False, []), (k44_diag(), 3, True, []),
        (k44_diag(), 2, False, []), (k44_diag(), 2, True, []),
        (k44_diag(), 0, True, []), (k44_diag(), 4, True, []),
        (k44_diag(), -1, True, []), (k44_diag(), 5, True, []),
    ]:
        made.clear()
        solve(g, t, SolverOptions(want_witness=want_witness))
        assert made == ran
    made.clear()
    solve(_both_colors_diagonal(3), 1, SolverOptions(want_witness=True))
    assert made == []  # the reach proves every in-bound t


def test_a_negative_gain_raises_invariant_error():
    # the optima handed over in the wrong order: M_hi's cycle loses red
    lo_cols, lo_reds, hi_cols, hi_reds = solver._assignments(k44_diag())
    solver._exchange(lo_cols, lo_reds, hi_cols, hi_reds)
    with pytest.raises(InvariantError):
        solver._exchange(hi_cols, hi_reds, lo_cols, lo_reds)


def test_a_chord_gain_outside_its_cycle_raises_invariant_error():
    # two perfect matchings that are not the optima: M_lo holds one red
    # record, and the blue record (0, 3) closes a cycle with one fewer
    g = with_coloring(knn(4), red=[(0, 1), (1, 2), (2, 3), (3, 0), (0, 0)])
    ex = solver._exchange(
        [1, 0, 2, 3], [True, False, False, False],
        [0, 2, 3, 1], [True, True, True, False],
    )
    with pytest.raises(InvariantError):
        solver._chords(g, ex)


def test_a_pair_skips_a_chord_gain_outside_its_cycle():
    # the two matchings above as a pair's exchange: the blue record (0, 3)
    # closes a cycle of gain -1, which the pass skips instead of raising,
    # and every red count the kept chord reaches has a checked witness
    g = with_coloring(knn(4), red=[(0, 1), (1, 2), (2, 3), (3, 0), (0, 0)])
    ex = solver._exchange(
        [1, 0, 2, 3], [True, False, False, False],
        [0, 2, 3, 1], [True, True, True, False],
    )
    pair = solver._chords(g, ex, None, False)
    assert pair.chords == ({1: (2, 1, BLUE)},)
    want = red_count_set_dp(g)
    reached = [t for t in range(g.n + 1) if pair.reach() >> t & 1]
    assert reached == [1, 2, 3]
    for t in reached:
        assert t in want and _is_witness(g, t, pair.witness(t))


@pytest.mark.parametrize(
    "g", CONGRUENCE_CASES + RESIDUAL_HOLES + EXCHANGE_RANDOM
    + [p.values[0] for p in PROBE_DECIDED_ROOTS]
)
def test_pair_reach_matches_the_dp_oracle_at_every_t(g):
    # _exchange takes each pair as it is (a negative gain would raise);
    # every red count its reach holds, with or without its chords, is
    # achievable and has a checked witness; a pass that stops at t reaches
    # it exactly when the full pass does; and the root's decision is the
    # oracle's at every t
    want = red_count_set_dp(g)
    if not want:
        return
    for backward in (False, True):
        plain = solver._pair(g, backward)
        full = solver._chords(g, plain, None, False)
        for t in range(g.n + 2):
            for pair in (plain, full):
                if pair.reach() >> t & 1:
                    assert t in want and _is_witness(g, t, pair.witness(t))
            early = solver._chords(g, plain, t, False)
            assert (early.reach() >> t & 1) == (full.reach() >> t & 1)
    for t in range(-1, g.n + 2):
        rep = solve(g, t, SolverOptions(want_witness=True))
        assert rep.decision == (t in want)
        if rep.decision:
            assert _is_witness(g, t, rep.witness)


def test_a_solve_root_never_builds_a_memo_key(monkeypatch):
    # the root asks for one t and starts with an empty memo, so it neither
    # reads nor writes one: only subproblems below an open root key their
    # whole sets
    keyed = []
    memo_key = solver._memo_key
    monkeypatch.setattr(
        solver, "_memo_key", lambda graph: keyed.append(graph) or memo_key(graph)
    )
    below = 0
    for g in [
        k44_diag(), k44_two_diagonals(), probe_only(), _multi_block_root(),
        SPARSE_PROBE_ROOT[0],
    ]:
        for t in range(-1, g.n + 2):
            for want_witness in (False, True):
                keyed.clear()
                solve(g, t, SolverOptions(want_witness=want_witness))
                assert all(graph is not g for graph in keyed)
                below += bool(keyed)
    assert below > 0


def _unit_targets_match_the_dp_oracle(g):
    """_unit_cycle against red_count_set_dp at t_min + 1 and t_max - 1 of
    g when they lie strictly between the bounds: a matching exactly when
    the oracle has t, and then a witness. Returns the checks made."""
    found = solver._assignments(g)
    if found is None:
        return 0
    ex = solver._exchange(*found)
    targets = {ex.t_min + 1, ex.t_max - 1} & set(range(ex.t_min + 1, ex.t_max))
    want = red_count_set_dp(g) if targets else set()
    for t in targets:
        wit = solver._unit_cycle(g, ex, t)
        assert (wit is not None) == (t in want), (g, t)
        assert wit is None or _is_witness(g, t, wit), (g, t, wit)
    return len(targets)


def test_unit_cycle_matches_the_dp_oracle_on_every_n3_multigraph():
    # every K3,3 whose nine cells are blue, red or both: 3^9 graphs
    checks = 0
    for codes in itertools.product(range(3), repeat=9):
        edges = []
        for cell, code in enumerate(codes):
            r, c = divmod(cell, 3)
            edges += [(r, c, k) for k in (BLUE, RED) if code in (k, 2)]
        checks += _unit_targets_match_the_dp_oracle(
            ColoredBipartiteGraph.make(3, edges, multi=True)
        )
    assert checks > 19683


def test_unit_cycle_matches_the_dp_oracle_on_random_graphs():
    rng = random.Random(19000)
    checks = 0
    for _ in range(1500):
        n = rng.randint(2, 9)
        g = random_graph(
            n, rng.choice((0.3, 0.5, 0.7, 0.9)),
            rng.choice((0.1, 0.3, 0.5, 0.8)), seed=rng.randrange(1 << 30),
        )
        checks += _unit_targets_match_the_dp_oracle(g)
    for seed in range(600):
        g = _multigraph(1 + seed % 8, 19500 + seed, (0.3, 0.5, 0.7)[seed % 3])
        checks += _unit_targets_match_the_dp_oracle(g)
    assert checks >= 1500


def test_unit_cycles_decide_the_red_diagonal_hole_at_every_n():
    # K_n,n with a red diagonal: a permutation's red count is its fixed
    # points, so T = 0..n without n - 1; the hole n - 1 = t_max - 1 is NO
    # and t_min + 1 = 1 is YES, both with no determinant (1 is a chord's
    # when M_lo has a cycle longer than 2)
    for n in range(3, 129):
        g = with_coloring(knn(n), red="diag")
        assert red_count_bounds(g) == (0, n)
        rep = solve(g, n - 1)
        assert not rep.decision and rep.counts["grid_dets"] == 0
        assert [b.method for b in rep.blocks] == ["unit"]
        rep = solve(g, 1, SolverOptions(want_witness=True))
        assert rep.decision and rep.counts["grid_dets"] == 0
        assert rep.counts["certified"] == rep.counts["subproblems"] == 1
        assert _is_witness(g, 1, rep.witness)


def _circulant_hole_brace(n, back_rows=()):
    # steps 0, 1 and 2 with the diagonal red, plus the blue back arc
    # (r, r - 1) at each of back_rows
    g = with_coloring(circulant(n, (0, 1, 2)), "diag")
    back = [(r, r - 1, BLUE) for r in back_rows]
    return ColoredBipartiteGraph.make(n, list(g.edges) + back)


CIRCULANT_HOLES = [
    pytest.param(n, (), set(range(n // 2 + 1)) | {n}, id=f"diag-n{n}")
    for n in (6, 8, 10, 12)
] + [
    pytest.param(n, (1,), set(range(n // 2 + 1)) | {n - 2, n},
                 id=f"back1-n{n}")
    for n in (10, 12)
] + [
    pytest.param(12, (1, 4, 7, 10), set(range(7)) | {8, 10, 12},
                 id="back-every-third-n12"),
]


@pytest.mark.parametrize("n, back_rows, want", CIRCULANT_HOLES)
def test_circulant_brace_holes_reach_the_grid(n, back_rows, want):
    # a permutation's red count is its fixed points. The closed forms hold
    # at every t, and each graph is a brace: its hole t_max - 1 = n - 1 is
    # the unit cycles' NO, and every other interior hole goes through the
    # root's structure to a grid NO
    g = _circulant_hole_brace(n, back_rows)
    assert is_brace(g) and red_count_set_dp(g) == want
    assert feasible_red_counts(g) == want
    for t in range(-1, n + 2):
        rep = solve(g, t)
        assert rep.decision == (t in want)
        if t in want or not 0 < t < n:
            continue
        methods = [b.method for b in rep.blocks]
        if t == n - 1:
            assert methods == ["unit"] and rep.counts["grid_dets"] == 0
        else:
            assert methods == ["pure-ASNC"] and rep.counts["grid_dets"] > 0
            assert rep.counts["subproblems"] == rep.counts["braces"] == 1


def test_unit_cycle_decides_a_root_past_the_probe_guard(monkeypatch):
    # t = 59 = t_max - 1 of a sparse n = 64 root: the exchange and the
    # chords leave it open and its top node does not fit the probe, so it
    # once fell into the tight-cut recursion; M_hi's unit cycle decides it
    # and switches to its witness with no determinant
    g = random_graph(64, 0.1, 0.5, seed=7)
    t_min, t_max = red_count_bounds(g)
    assert t_max - 1 == 59 and not solver._fits(g.n, t_max - t_min + 1)
    assert not _chorded(g).reach() >> 59 & 1
    monkeypatch.setattr(solver, "_elementary", _no_pair_digraph)
    rep = solve(g, 59, SolverOptions(want_witness=True))
    assert rep.decision and [b.method for b in rep.blocks] == ["unit"]
    assert rep.counts["grid_dets"] == 0 and rep.counts["subproblems"] == 1
    assert _is_witness(g, 59, rep.witness)


def test_witnessed_unit_root_runs_no_probe_and_no_pair_digraph(monkeypatch):
    # the witness of a t the unit cycles prove is M_lo or M_hi switched
    # along the cycle found: it runs no probe and builds no pair digraph
    monkeypatch.setattr(solver, "_probe", _no_probe)
    monkeypatch.setattr(solver, "_elementary", _no_pair_digraph)
    for g, t in [
        (k44_diag(), 1), (with_coloring(knn(3), red=[(0, 0), (1, 1)]), 1),
        (with_coloring(knn(6), red="diag"), 1),
    ]:
        rep = solve(g, t, SolverOptions(want_witness=True))
        assert [b.method for b in rep.blocks] == ["unit"]
        assert _is_witness(g, t, rep.witness)


def test_a_negative_cycle_raises_invariant_error():
    # the optima handed over in the wrong order: M_hi as M_lo has arcs of
    # weight -1 closing negative cycles, and a cell of both colors whose
    # red record is M_lo's has a loop of weight -1
    for g in (k44_diag(), _both_colors_diagonal(3)):
        ex = _exchange_of(g)
        swapped = ex._replace(lo_cols=ex.hi_cols, lo_reds=ex.hi_reds)
        with pytest.raises(InvariantError):
            solver._unit_cycle(g, swapped, ex.t_min + 1)


def test_witnessed_solve_builds_the_subset_sums_at_most_twice(monkeypatch):
    # the exchange's table of subset sums is built once for its plain
    # cycles and once more when the chords are added; the reach, the
    # switched matching and the witness start read it. A root the pair
    # decided builds the two of each pair it ran as well. Roots whose
    # witness their own start gives: one with no start forces rows, and
    # each residual graph builds its own table
    builds = []
    sums = solver._sums
    monkeypatch.setattr(
        solver, "_sums", lambda *args: builds.append(args) or sums(*args)
    )
    for g in [k44_diag(), k44_two_diagonals()] + [
        p.values[0] for p in PROBE_DECIDED_ROOTS[:4]
    ]:
        started = [
            t for t in sorted(red_count_set_dp(g))
            if solver._start_of(g, t) is not None
        ]
        assert started
        for t in started:
            builds.clear()
            rep = solve(g, t, SolverOptions(want_witness=True))
            assert rep.counts["certified"] == rep.counts["subproblems"] == 1
            assert _is_witness(g, t, rep.witness)
            pairs = 2 if rep.blocks[0].method == "pair" else 0
            assert 1 <= len(builds) <= 2 + 2 * pairs


@pytest.mark.parametrize(
    "g", CONGRUENCE_CASES + RESIDUAL_HOLES + EXCHANGE_RANDOM
)
def test_congruence_modulus_divides_every_gain(g):
    # each gain is the red difference of two perfect matchings, so both
    # classes' moduli divide the gcd of the gains: with gcd 1 the records'
    # congruence cannot drop a t, and _certify skips it
    gains = math.gcd(*_exchange_of(g).deltas)
    for records in (g.edges, _elementary(g).allowed()):
        modulus, _ = solver._congruence(g.n, records)
        assert gains % modulus == 0 if modulus else gains == 0


def _no_pair_digraph(graph):
    raise AssertionError("a certified root built D(G, M)")


@pytest.mark.parametrize(
    "g",
    [
        pytest.param(knn(3), id="all-blue"),  # bounds
        pytest.param(with_coloring(knn(3), red=[(0, 0), (1, 1)]), id="k33-two"),
        pytest.param(with_coloring(knn(2), red=[(0, 1), (1, 0)]),
                     id="k22-antidiag"),  # probe, then the records' class
        pytest.param(_dense_gap_brace(8, 12508), id="gap-brace"),
        pytest.param(ColoredBipartiteGraph.make(2, [(0, 0, BLUE)]), id="no-pm"),
        pytest.param(ColoredBipartiteGraph.make(0, []), id="n0"),
    ],
)
def test_certified_roots_never_build_a_pair_digraph(g, monkeypatch):
    # the bounds, the probe and the congruence over g's records read g
    # alone: a root they settle, or one without a perfect matching, never
    # calls _elementary, with or without a witness
    want = red_count_set_dp(g)
    monkeypatch.setattr(solver, "_elementary", _no_pair_digraph)
    for t in range(-1, g.n + 2):
        for want_witness in (False, True):
            rep = solve(g, t, SolverOptions(want_witness=want_witness))
            assert rep.decision == (t in want)
            assert rep.counts["certified"] == (red_count_bounds(g) is not None)
            assert rep.witness is None or _is_witness(g, t, rep.witness)


def test_certificates_settle_most_roots_and_leave_the_holes_open():
    # every target of every case: each certificate but the probe decides
    # some (every root it decided here was t_min + 1 or t_max - 1, now the
    # unit cycles'), most are decided before D(G, M), and the holes 2 or
    # more from both bounds go on to the recursion
    methods = {}
    for param in CONGRUENCE_CASES + RESIDUAL_HOLES:
        g = param.values[0]
        for t in range(-1, g.n + 2):
            rep = solve(g, t)
            root_certified = rep.counts["subproblems"] == rep.counts["certified"]
            method = rep.blocks[0].method if root_certified else "recursion"
            methods[method] = methods.get(method, 0) + 1
    assert methods["recursion"] >= 1
    assert methods["recursion"] * 2 < sum(methods.values())
    assert all(
        methods.get(m, 0) >= 5
        for m in ("bounds", "exchange", "congruence", "chord", "unit")
    )
    # a hole at t_max - 1 is refuted by the unit cycles, one 2 from both
    # bounds goes on to D(G, M)
    for g, hole in [(with_coloring(knn(3), red="diag"), 2), (k44_diag(), 3)]:
        rep = solve(g, hole)
        assert not rep.decision and rep.counts["certified"] == 1
        assert [b.method for b in rep.blocks] == ["unit"]
    rep = solve(_multi_block_root(), 2)
    assert not rep.decision
    assert rep.counts["certified"] < rep.counts["subproblems"]


@pytest.mark.parametrize(
    "g, t, method",
    [
        pytest.param(knn(3), 0, "bounds", id="all-blue"),  # T = {0}
        pytest.param(
            with_coloring(knn(2), red=[(0, 1), (1, 0)]), 1, "congruence",
            id="k22-antidiag",
        ),  # T = {0, 2}: 1 is off the class
        pytest.param(
            with_coloring(knn(3), red=[(0, 0), (1, 1)]), 1, "unit",
            id="k33-two",
        ),  # T = {0, 1, 2}, reach {0, 2}: 1 is t_min + 1
        pytest.param(
            with_coloring(knn(3), red="diag"), 1, "chord", id="k33-diag",
        ),  # T = {0, 1, 3}: the one cycle gains 3, a chord of it 1
        pytest.param(k44_diag(), 1, "unit", id="k44-diag"),
        # T = {0, 1, 2, 4}, reach {0, 2, 4}: M_lo gains 1 on a unit cycle
        pytest.param(k44_two_diagonals(), 2, "pair", id="k44-two-diagonals"),
        # T = {0, .., 4}, chords {0, 1, 3, 4}, and 2 is 2 from both bounds
        pytest.param(probe_only(), 4, "probe", id="probe-only"),
        # T = {2, .., 7}, and every reach misses 4, 2 from both bounds
        pytest.param(_both_colors_diagonal(3), 1, "exchange", id="multi-diag"),
        pytest.param(_two_blocks_one_red(), 1, "exchange", id="two-k22"),
    ],  # T = {0, 1, 2, 3} and {0, 1, 2}: the cycles' gains are all 1
)
def test_certified_report_names_its_method(g, t, method):
    # each t lies strictly between the bounds, so the bounds alone do not
    # decide it, and at each the certificates run prove the whole set
    rep = solve(g, t)
    assert [b.method for b in rep.blocks] == [method]
    assert rep.blocks[0].n == g.n
    assert rep.blocks[0].feasible_t == tuple(sorted(red_count_set(g)))
    assert rep.counts["certified"] == rep.counts["subproblems"] == 1
    assert rep.to_json_dict()["blocks"][0]["method"] == method


def test_a_trace_without_a_target_certifies_the_whole_set():
    # feasible_red_counts has one mode: its root certifies as every
    # subproblem does, for every t between the bounds
    # (the pairs are the rung of a root asked for one t: this one runs the
    # probe)
    g = k44_two_diagonals()
    assert solve(g, 2).blocks[0].method == "pair"
    trace = SolveTrace()
    assert feasible_red_counts(g, trace) == {0, 1, 2, 3, 4}
    assert trace.counts["certified"] == trace.counts["subproblems"] == 1
    assert trace.blocks == [BlockReport(4, (0, 1, 2, 3, 4), "probe")]


@pytest.mark.parametrize("g", CONGRUENCE_CASES + RESIDUAL_HOLES)
def test_subproblem_certificates_settle_whole_sets(g, monkeypatch):
    # a subproblem below the root of solve wants every t between its
    # bounds: what its certificates settle is its whole achievable set, and
    # what they leave open is in bounds and unproved
    settled = []
    certify = solver._certify

    def counted(graph, trace, t):
        found = certify(graph, trace, t)
        settled.append((graph, t, found))
        return found

    monkeypatch.setattr(solver, "_certify", counted)
    for t in range(-1, g.n + 2):
        settled.clear()
        solve(g, t)
        for graph, target, found in settled[1:]:
            assert target is None
            if found is None:
                assert red_count_bounds(graph) is None
                continue
            proved, open_, method, _ = found
            want = red_count_set_dp(graph)
            if open_:
                t_min, t_max = red_count_bounds(graph)
                assert method is None and proved <= want
                assert open_ <= set(range(t_min + 1, t_max)) - proved
            else:
                assert proved == want and method is not None


TARGET_CASES = CONGRUENCE_CASES + RESIDUAL_HOLES + EXCHANGE_RANDOM


def _deciding_certificate(g, t):
    """The root certificate that decides t on g, in _certify's order (the
    congruence only when t != t_min modulo the gains' gcd), or None when
    t stays open after all seven; g has a perfect matching."""
    ex = _exchange_of(g)
    if not ex.t_min < t < ex.t_max:
        return "bounds"
    if ex.reach() >> t & 1:
        return "exchange"
    in_class = solver._in_class(
        ex.t_min, ex.t_max, *solver._congruence(g.n, g.edges)
    )
    if (t - ex.t_min) % math.gcd(*ex.deltas) and t not in in_class:
        return "congruence"
    if solver._chords(g, ex).reach() >> t & 1:
        return "chord"
    if t in (ex.t_min + 1, ex.t_max - 1):
        return "unit"
    if _pairs_reach(g, t):
        return "pair"
    if t in solver._probe(g, ex.t_min, ex.t_max):
        return "probe"
    return None


@pytest.mark.parametrize("g", TARGET_CASES)
def test_root_decides_its_target_from_what_it_proved(g):
    # every decision is the DP oracle's; a root the certificates decide is
    # one block named after the certificate that decided t; a root that is
    # its own one block (certified or a brace on the grid)
    # lists red counts that are all achievable and hold t exactly when the
    # answer is YES; feasible_red_counts still gives the whole set
    want = red_count_set_dp(g)
    assert feasible_red_counts(g) == want
    for t in range(-1, g.n + 2):
        rep = solve(g, t)
        assert rep.decision == (t in want)
        method = _deciding_certificate(g, t)
        if method is not None:
            assert rep.counts["certified"] == rep.counts["subproblems"] == 1
            assert [b.method for b in rep.blocks] == [method]
        if rep.counts["subproblems"] == 1 and rep.blocks:  # the root alone
            [root] = rep.blocks
            assert root.n == g.n
            assert set(root.feasible_t) <= want
            assert (t in root.feasible_t) == rep.decision


@pytest.mark.parametrize("g", TARGET_CASES)
def test_certificates_stop_once_the_target_is_decided(g, monkeypatch):
    # no chord is computed for a t out of bounds, in the exchange's reach
    # or off the records' class, no unit cycle for a t the chords reach,
    # no pair and no probe for t_min + 1 or t_max - 1, and no probe for a
    # t a pair reaches (each pair runs one chord pass); the records'
    # congruence runs before them only when t != t_min modulo the gains'
    # gcd, the one case where it can drop t (every n here fits the probe's
    # guard)
    calls = []
    probe, congruence, chords, unit = (
        solver._probe, solver._congruence, solver._chords, solver._unit_cycle
    )

    def counted_probe(*args):
        calls.append("probe")
        return probe(*args)

    def counted_unit(*args):
        calls.append("unit")
        return unit(*args)

    def counted_congruence(n, records):
        calls.append("congruence")
        return congruence(n, records)

    def counted_chords(*args):
        calls.append("chord")
        return chords(*args)

    ex = _exchange_of(g)
    gains = math.gcd(*ex.deltas)
    methods = [_deciding_certificate(g, t) for t in range(-1, g.n + 2)]
    monkeypatch.setattr(solver, "_probe", counted_probe)
    monkeypatch.setattr(solver, "_congruence", counted_congruence)
    monkeypatch.setattr(solver, "_chords", counted_chords)
    monkeypatch.setattr(solver, "_unit_cycle", counted_unit)
    for t, method in zip(range(-1, g.n + 2), methods):
        calls.clear()
        solve(g, t)
        if method in ("bounds", "exchange"):
            assert calls == []
        elif method == "congruence":
            assert calls == ["congruence"]
        else:
            ran = ["congruence"] * bool((t - ex.t_min) % gains) + ["chord"]
            if method == "chord":
                assert calls == ran
            elif method == "unit":
                assert calls == ran + ["unit"]
            elif method == "pair":  # the first pair, or both
                assert calls in (ran + ["chord"], ran + ["chord"] * 2)
            else:
                assert calls[: len(ran) + 3] == ran + ["chord"] * 2 + ["probe"]


@pytest.mark.parametrize("g", TARGET_CASES)
def test_witnessed_decided_root_never_builds_a_pair_digraph(g, monkeypatch):
    # the witness of a root its certificates decide comes from the
    # exchange's switched matching or a unit cycle's: neither the decision
    # nor the witness calls _elementary
    builds = []
    build = solver._elementary
    methods = [_deciding_certificate(g, t) for t in range(-1, g.n + 2)]
    monkeypatch.setattr(
        solver, "_elementary", lambda graph: builds.append(graph) or build(graph)
    )
    for t, method in zip(range(-1, g.n + 2), methods):
        builds.clear()
        rep = solve(g, t, SolverOptions(want_witness=True))
        assert rep.witness is None or _is_witness(g, t, rep.witness)
        assert (builds == []) == (method is not None)


def _chorded(g):
    return solver._chords(g, _exchange_of(g))


# multigraphs with a perfect matching, many cells holding both colors
CHORD_MULTIGRAPHS = [
    pytest.param(g, id=f"multi-n{g.n}-{seed}")
    for seed, g in ((s, _multigraph(3 + s % 7, 17000 + s, 0.45))
                    for s in range(28))
    if red_count_bounds(g) is not None
]


def test_chord_cases_cover_both_colored_cells_and_new_targets():
    added = both = 0
    for param in TARGET_CASES + CHORD_MULTIGRAPHS:
        g = param.values[0]
        ex = _chorded(g)
        added += bin(ex.reach() & ~_exchange_of(g).reach()).count("1")
        for cycle, chords in zip(ex.cycles, ex.chords):
            both += sum(
                len(g.cells[cycle[a], ex.lo_cols[cycle[b]]]) == 2
                for a, b, _ in chords.values()
            )
    assert added >= 50 and both >= 10


@pytest.mark.parametrize("g", TARGET_CASES + CHORD_MULTIGRAPHS)
def test_chord_reach_is_achievable_and_every_chord_is_a_witness(g):
    # the chords only add to the exchange's reach, which stays inside the
    # DP oracle's set; each chord alone, on its own cycle, is a perfect
    # matching of g with t_min + its gain red records, and the witness of
    # every t in the reach is one too
    want = red_count_set_dp(g)
    plain, ex = _exchange_of(g), _chorded(g)
    reach = ex.reach()
    assert plain.reach() & ~reach == 0 and reach >> (g.n + 1) == 0
    proved = {t for t in range(g.n + 1) if reach >> t & 1}
    assert proved <= want
    assert len(ex.chords) == len(ex.cycles)
    for i, (cycle, delta) in enumerate(zip(ex.cycles, ex.deltas)):
        if delta < 2:
            assert ex.chords[i] == {}
        for gain in ex.chords[i]:
            assert 0 < gain < delta
            alone = ex._replace(
                cycles=[cycle], deltas=[delta], chords=(ex.chords[i],)
            )
            wit = alone.witness(ex.t_min + gain)
            assert _is_witness(g, ex.t_min + gain, wit)
            for r, c, k in wit:  # rows off the cycle keep M_lo
                assert r in cycle or (c, k == RED) == (
                    ex.lo_cols[r], ex.lo_reds[r])
    for t in range(-1, g.n + 2):
        wit = ex.witness(t)
        assert (wit is not None) == (t in proved)
        assert wit is None or _is_witness(g, t, wit)


def _chords_by_matchings(g, ex):
    """_chords' full pass restated: each record joining two rows of one
    cycle of gain >= 2 builds its switched matching and counts its red
    records; the first record in g's order that reaches a gain strictly
    inside the cycle's is its chord."""
    chords = [{} for _ in ex.deltas]
    for i, (cycle, delta) in enumerate(zip(ex.cycles, ex.deltas)):
        if delta < 2:
            continue
        size = len(cycle)
        for r, c, k in g.edges:
            if r not in cycle or ex.lo_cols.index(c) not in cycle:
                continue
            a, b = cycle.index(r), cycle.index(ex.lo_cols.index(c))
            switched = [cycle[(b + u) % size] for u in range((a - b) % size)]
            red = sum(ex.lo_reds) + k - ex.lo_reds[r] + sum(
                ex.hi_reds[q] - ex.lo_reds[q] for q in switched
            )
            if 0 < red - ex.t_min < delta:
                chords[i].setdefault(red - ex.t_min, (a, b, k))
    return tuple(chords)


@pytest.mark.parametrize("g", TARGET_CASES + CHORD_MULTIGRAPHS)
def test_chord_pass_stops_at_a_target_with_the_full_pass_answer(g):
    # with no t the pass reads every record; with a t its chords are the
    # full pass's first ones, and its reach holds t exactly when the full
    # reach does, inside the DP oracle's set, every chord a witness
    want = red_count_set_dp(g)
    plain = _exchange_of(g)
    full = solver._chords(g, plain)
    assert full == solver._chords(g, plain, None)
    assert full.chords == _chords_by_matchings(g, plain)
    for t in range(-1, g.n + 2):
        early = solver._chords(g, plain, t)
        reach = early.reach()
        for mine, whole in zip(early.chords, full.chords, strict=True):
            assert mine.items() <= whole.items()
        if t >= 0:
            assert reach >> t & 1 == full.reach() >> t & 1
        assert {s for s in range(g.n + 1) if reach >> s & 1} <= want
        assert reach >> (g.n + 1) == 0
        for i, (cycle, delta) in enumerate(zip(early.cycles, early.deltas)):
            for gain in early.chords[i]:
                alone = early._replace(
                    cycles=[cycle], deltas=[delta], chords=(early.chords[i],)
                )
                assert _is_witness(
                    g, early.t_min + gain, alone.witness(early.t_min + gain)
                )


def test_chord_pass_stops_early_on_some_targets():
    # the early stop is exercised: some root targets leave chords unread
    stopped = 0
    for param in TARGET_CASES + CHORD_MULTIGRAPHS:
        g = param.values[0]
        plain = _exchange_of(g)
        full = solver._chords(g, plain).chords
        stopped += sum(
            solver._chords(g, plain, t).chords != full
            for t in range(plain.t_min + 1, plain.t_max)
        )
    assert stopped >= 20


def _no_probe(*args, **kwargs):
    raise AssertionError("a root its certificates decided ran a probe")


def test_chord_decided_root_runs_no_probe(monkeypatch):
    # a t the chords reach is YES before the probe, and its witness is the
    # chord's switched matching: neither runs a probe nor a determinant
    decided = [
        (g, t)
        for g in (p.values[0] for p in TARGET_CASES)
        for t in range(-1, g.n + 2)
        if _deciding_certificate(g, t) == "chord"
    ]
    assert len(decided) >= 40
    monkeypatch.setattr(solver, "_probe", _no_probe)
    for g, t in decided:
        for want_witness in (False, True):
            rep = solve(g, t, SolverOptions(want_witness=want_witness))
            assert rep.decision and [b.method for b in rep.blocks] == ["chord"]
            assert rep.counts["grid_dets"] == 0
            assert t in rep.blocks[0].feasible_t
            assert rep.witness is None or _is_witness(g, t, rep.witness)


def _no_chords(*args):
    raise AssertionError("chords computed")


def test_congruence_refutes_odd_gap_targets_before_any_chord(monkeypatch):
    # every gain of a gap-colored graph is even, so its chords could run;
    # the congruence refutes each odd t in bounds first
    graphs = [_dense_gap_brace(n, 12500 + n) for n in range(6, 10)]
    monkeypatch.setattr(solver, "_chords", _no_chords)
    refuted = 0
    for g in graphs:
        t_min, t_max = red_count_bounds(g)
        assert max(_exchange_of(g).deltas) >= 2
        for t in range(t_min + 1, t_max, 2):
            rep = solve(g, t)
            assert not rep.decision
            assert [b.method for b in rep.blocks] == ["congruence"]
            refuted += 1
    assert refuted >= 4


@pytest.mark.parametrize(
    "g",
    [
        pytest.param(_both_colors_diagonal(4), id="multi-diag4"),
        pytest.param(_two_blocks_one_red(), id="two-k22"),
        pytest.param(random_graph(7, 0.6, 0.3, seed=18189, require_pm=True),
                     id="random-three-cycles"),
    ],
)
def test_cycles_of_gain_at_most_one_compute_no_chords(g, monkeypatch):
    # gains of 1 reach every t in bounds: no solve, witness or whole set
    # computes a chord
    assert max(_exchange_of(g).deltas) <= 1
    assert all(chords == {} for chords in _chorded(g).chords)
    monkeypatch.setattr(solver, "_chords", _no_chords)
    want = red_count_set_dp(g)
    assert feasible_red_counts(g) == want
    for t in range(-1, g.n + 2):
        rep = solve(g, t, SolverOptions(want_witness=True))
        assert rep.decision == (t in want)
        assert rep.witness is None or _is_witness(g, t, rep.witness)


def _coarse_records_root():
    # three K22 blocks with red anti-diagonals (T = {0, 2, 4, 6}) and two
    # records from the first block's rows to the second's columns that no
    # perfect matching uses: their cycle has an odd red value, so the
    # records' class is mod 1 while the blocks' is mod 2; the unit cycles
    # refute 1 and 5, and only D drops 3
    def k22(o):
        return [(o + r, o + c, RED if r != c else BLUE)
                for r in range(2) for c in range(2)]
    return ColoredBipartiteGraph.make(
        6, k22(0) + k22(2) + k22(4) + [(0, 2, RED), (1, 3, BLUE)]
    )


@pytest.mark.parametrize(
    "g, open_targets",
    [  # the t no root certificate decides: the multi-block hole 2 from
        # both bounds, and coarse-records' odd t 2 from both bounds, which
        # only the blocks' class drops (the holes at t_max - 1 are unit's)
        pytest.param(with_coloring(knn(3), red="diag"), set(), id="k33-diag"),
        pytest.param(k44_diag(), set(), id="k44-diag"),
        pytest.param(with_coloring(knn(3), red=[(0, 0), (1, 1)]), set(),
                     id="probe"),
        pytest.param(knn(3), set(), id="bounds"),
        pytest.param(_multi_block_root(), {2}, id="multi-block"),
        pytest.param(_coarse_records_root(), {3}, id="coarse-records"),
        pytest.param(with_coloring(band_path(7), red="bernoulli", seed=3),
                     set(), id="band7"),
        pytest.param(ColoredBipartiteGraph.make(2, [(0, 0, BLUE)]), set(),
                     id="no-pm"),
        pytest.param(ColoredBipartiteGraph.make(0, []), set(), id="n0"),
    ],
)
def test_one_pair_digraph_per_subproblem(g, open_targets, monkeypatch):
    # every subproblem runs its certificates first: one they decide (or
    # find without a perfect matching) never builds D, and each one they
    # leave open builds exactly one; the root is open only at open_targets
    builds, opened = [], []
    build, certify = solver._elementary, solver._certify

    def counted_build(graph):
        builds.append(graph)
        return build(graph)

    def counted_certify(graph, trace, t):
        found = certify(graph, trace, t)
        if found is not None and found[1]:
            opened.append(graph)
        return found

    monkeypatch.setattr(solver, "_elementary", counted_build)
    monkeypatch.setattr(solver, "_certify", counted_certify)
    for t in range(-1, g.n + 2):
        builds.clear()
        opened.clear()
        solve(g, t)
        assert builds == opened
        assert (builds[:1] == [g]) == (t in open_targets)
    builds.clear()
    opened.clear()
    trace = SolveTrace()
    for t in range(-1, g.n + 2):
        extract_witness(g, t, trace)
    assert builds == opened


def test_coarse_records_root_builds_d_and_still_certifies(monkeypatch):
    g = _coarse_records_root()
    d = _elementary(g)
    assert len(d.blocks) == 3 and len(d.allowed()) < len(g.edges)
    assert solver._congruence(g.n, g.edges) == (1, 0)
    assert solver._congruence(g.n, d.allowed()) == (2, 0)
    want = red_count_set_dp(g)
    assert want == {0, 2, 4, 6}
    builds = []
    build = solver._elementary
    monkeypatch.setattr(
        solver, "_elementary", lambda graph: builds.append(graph) or build(graph)
    )
    # 3 is in bounds, outside the reach, in the records' class, 2 from both
    # bounds and no probe hit: D is built, and its three equal K2,2 blocks
    # (two of them memo hits) each certify their own class, which drops
    # it; every other t the root's certificates decide before D
    for t in range(-1, g.n + 2):
        for want_witness in (False, True):
            builds.clear()
            rep = solve(g, t, SolverOptions(want_witness=want_witness))
            assert rep.decision == (t in want)
            assert rep.witness is None or _is_witness(g, t, rep.witness)
            if t == 3:
                assert [b.method for b in rep.blocks] == ["congruence"]
                assert rep.blocks[0].feasible_t == (0, 2)
                assert (rep.counts["subproblems"], rep.counts["certified"],
                        rep.counts["memo_hits"]) == (2, 1, 2)
                assert builds == [g]
            else:
                assert rep.counts["certified"] == rep.counts["subproblems"] == 1
                assert set(rep.blocks[0].feasible_t) <= want
                assert builds == []


def test_multi_block_root_reaches_the_recursion():
    g = _multi_block_root()
    assert len(_elementary(g).blocks) == 2
    # 2 is the hole 2 from both bounds: every other t the root's
    # certificates decide. Its blocks certify as subproblems: the unit
    # cycles refute the K3,3's own hole 2 (its t_max - 1), and the
    # hexagon's class settles it
    rep = solve(g, 2)
    assert not rep.decision
    assert rep.counts["certified"] == 2 and rep.counts["subproblems"] == 3
    assert [(b.method, b.feasible_t) for b in rep.blocks] == [
        ("unit", (0, 1, 3)), ("congruence", (0, 3)),
    ]


# Sparse random roots whose hole t the root's certificates leave open on a
# D(G, M) of several elementary blocks, found by scanning random_graph(n,
# d, 0.5, seed, require_pm=True) at n = 8..16: (n, d, seed, hole,
# subproblems when only the root certified, subproblems now). Each block
# now certifies its own set, so no count may rise. Every hole but the
# first is t_min + 1 or t_max - 1 of its root, which the unit cycles now
# refute in one subproblem.
MULTI_BLOCK_HOLES = [
    (8, 0.25, 54, 4, 10, 8), (9, 0.2, 55, 4, 10, 1), (9, 0.3, 51, 6, 10, 1),
    (10, 0.25, 39, 6, 18, 1), (10, 0.3, 44, 7, 19, 1),
    (11, 0.2, 31, 8, 12, 1), (12, 0.2, 40, 3, 20, 1),
    (12, 0.25, 47, 7, 26, 1), (12, 0.3, 11, 3, 23, 1),
    (14, 0.2, 22, 3, 57, 1), (15, 0.2, 31, 3, 16, 1),
    (16, 0.2, 3, 9, 21, 1),
]


@pytest.mark.parametrize(
    "n, density, seed, hole, before, now",
    [pytest.param(*case, id=f"n{case[0]}-d{case[1]}-{case[2]}")
     for case in MULTI_BLOCK_HOLES],
)
def test_multi_block_holes_decide_with_fewer_subproblems(
    n, density, seed, hole, before, now,
):
    g = random_graph(n, density, 0.5, seed=seed, require_pm=True)
    want = red_count_set_dp(g)
    assert len(_elementary(g).blocks) > 1 and hole not in want
    t_min, t_max = red_count_bounds(g)
    assert t_min < hole < t_max
    for t in range(-1, n + 2):
        assert solve(g, t).decision == (t in want)
    rep = solve(g, hole)
    assert rep.counts["subproblems"] == now <= before
    if hole in (t_min + 1, t_max - 1):
        assert [b.method for b in rep.blocks] == ["unit"]
        assert rep.counts["certified"] == 1
    else:
        assert 0 < rep.counts["certified"] < now  # the root stayed open


# Holes 2 or more from both bounds of such roots, which no root
# certificate decides, found by the same scan at densities 0.2-0.3 and
# seeds below 120: (n, d, seed, hole, subproblems before the unit cycles
# certified, subproblems now). The unit cycles settle some blocks and
# tight-cut sides below the root, so no count may rise.
INTERIOR_HOLES = [
    (8, 0.25, 26, 3, 5, 5), (9, 0.3, 22, 6, 10, 7), (10, 0.2, 105, 4, 12, 11),
    (11, 0.2, 70, 5, 5, 5), (13, 0.2, 85, 8, 7, 7), (14, 0.2, 22, 4, 28, 18),
    (15, 0.2, 103, 7, 13, 10), (16, 0.2, 65, 7, 15, 9),
]


@pytest.mark.parametrize(
    "n, density, seed, hole, before, now",
    [pytest.param(*case, id=f"n{case[0]}-d{case[1]}-{case[2]}")
     for case in INTERIOR_HOLES],
)
def test_interior_holes_reach_the_recursion(
    n, density, seed, hole, before, now,
):
    g = random_graph(n, density, 0.5, seed=seed, require_pm=True)
    want = red_count_set_dp(g)
    assert len(_elementary(g).blocks) > 1 and hole not in want
    t_min, t_max = red_count_bounds(g)
    assert t_min + 2 <= hole <= t_max - 2
    for t in range(-1, n + 2):
        assert solve(g, t).decision == (t in want)
    rep = solve(g, hole)
    assert rep.counts["subproblems"] == now <= before
    assert 0 < rep.counts["certified"] < now  # the root stayed open


def _multigraph_with_both_colors(n, seed, density, both):
    # a sparse random graph with a perfect matching, and about a fraction
    # both of its cells given a record of the other color as well
    g = random_graph(n, density, 0.5, seed=seed, require_pm=True)
    rng = random.Random(seed)
    extra = {(r, c, 1 - k) for r, c, k in g.edges if rng.random() < both}
    return ColoredBipartiteGraph.make(
        n, sorted(set(g.edges) | extra), multi=True
    )


def test_every_pair_digraph_has_a_t_two_from_both_bounds(monkeypatch):
    # _certify decides t_min + 1 and t_max - 1 whenever they are wanted, so
    # a subproblem it leaves open wants some t in [t_min + 2, t_max - 2]:
    # every graph that builds D(G, M) has t_max - t_min >= 4, hence n >= 4,
    # and no piece with n <= 2 ever reaches the recursion's structure
    built = []
    build = solver._elementary
    monkeypatch.setattr(
        solver, "_elementary", lambda graph: built.append(graph) or build(graph)
    )
    rng = random.Random(20100)
    simple = [
        random_graph(
            rng.randint(10, 16), rng.choice((0.15, 0.2, 0.25)), 0.5,
            seed=rng.randrange(1 << 30), require_pm=True,
        )
        for _ in range(600)
    ]
    multi = [
        _multigraph_with_both_colors(
            8 + s % 5, 20500 + s, (0.15, 0.2, 0.25)[s % 3], 0.1
        )
        for s in range(1200)
    ]
    assert sum(len(ks) == 2 for g in multi for ks in g.cells.values()) >= 600
    holes = [
        random_graph(n, d, 0.5, seed=seed, require_pm=True)
        for n, d, seed, *_ in INTERIOR_HOLES + MULTI_BLOCK_HOLES
    ]
    for graphs in (simple, multi, holes):
        built.clear()
        for g in graphs:
            feasible_red_counts(g)
            for t in range(-1, g.n + 2):
                solve(g, t)
        assert len(built) >= 5
        for g in built:
            t_min, t_max = red_count_bounds(g)
            assert g.n >= 4 and t_max - t_min >= 4


def _random_record_sets(count, seed):
    # sorted, as every graph keeps its records: n <= 9 at any density,
    # with parallel cells of both colors and, at low density, several
    # components and isolated vertices
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(0, 9)
        cells = [(r, c) for r in range(n) for c in range(n)
                 if rng.random() < rng.choice((0.1, 0.25, 0.5, 0.9))]
        records = set()
        for r, c in cells:
            for k in rng.choice(((BLUE,), (RED,), (BLUE, RED))):
                records.add((r, c, k))
        out.append((n, sorted(records)))
    return out


def _far_end_path(n, seed):
    # one path through every vertex, read from its far end: col n-1 - row
    # 0 is read first, then row 1 - col 0, row 1 - col 1, ..., row n-1 -
    # col n-2, each with both ends unplaced, until the last record, row
    # n-1 - col n-1, reaches the first and places them all
    rng = random.Random(seed)
    cells = [(0, n - 1)] + [(r, c) for r in range(1, n) for c in (r - 1, r)]
    return sorted((r, c, rng.choice((BLUE, RED))) for r, c in cells)


def test_congruence_pass_matches_the_spanning_walk():
    cases = _random_record_sets(3000, 16000)
    assert sum(n and len(records) < n for n, records in cases) >= 100
    assert any(
        (r, c, BLUE) in records and (r, c, RED) in records
        for _, records in cases for r, c, _ in records
    )
    cases += [(n, _far_end_path(n, 16100 + n)) for n in range(1, 10)]
    found = set()
    for n, records in cases:
        got = solver._congruence(n, records)
        assert got == congruence_by_walk(n, records)
        found.add(got[0])
    assert {0, 1, 2} <= found


def test_congruence_pass_reads_nothing_past_gcd_one():
    # a red and a blue record close a 4-cycle of discrepancy 1: the class
    # is every integer, so a record past them is never read (this one
    # would index outside the 2n potentials)
    records = [(0, 0, RED), (0, 1, BLUE), (1, 0, BLUE), (1, 1, BLUE)]
    assert solver._congruence(2, records + [(9, 9, BLUE)]) == (1, 0)
    with pytest.raises(IndexError):
        solver._congruence(2, records[1:] + [(9, 9, BLUE)])


@pytest.mark.parametrize(
    "g",
    CONGRUENCE_CASES
    + [pytest.param(random_graph(n, d, 0.5, seed=s, require_pm=True),
                    id=f"hole-n{n}-d{d}-{s}")
       for n, d, s, *_ in MULTI_BLOCK_HOLES],
)
def test_congruence_pass_matches_the_spanning_walk_on_graphs(g):
    for records in (g.edges, _elementary(g).allowed()):
        assert solver._congruence(g.n, records) == congruence_by_walk(
            g.n, records
        )


_SPARSE_ROOT = """
from exactmatch.graphs import RED, random_graph
from exactmatch.solver import SolverOptions, red_count_bounds, solve
g = random_graph(36, 0.17, 0.5, seed=7, require_pm=True)
t_min, t_max = red_count_bounds(g)
t = (t_min + t_max) // 2 + 1
rep = solve(g, t, SolverOptions(want_witness=True))
wit = rep.witness
print(rep.decision, rep.counts["subproblems"], len(wit),
      sorted(r for r, _, _ in wit) == list(range(36)),
      sorted(c for _, c, _ in wit) == list(range(36)),
      all(rec in g.edges for rec in wit),
      sum(1 for _, _, k in wit if k == RED) == t)
"""


def test_sparse_root_past_the_probe_guard_finishes():
    # the root's probe does not fit, and the tight cuts below it used to
    # run for minutes: every subproblem now certifies, and the witnessed
    # solve decides YES in a few dozen subproblems. A subprocess with a
    # timeout makes a regression fail instead of hang
    src = os.path.dirname(os.path.dirname(solver.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", _SPARSE_ROOT], env=env,
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    decision, subproblems, *checks = proc.stdout.split()
    assert decision == "True" and int(subproblems) <= 64
    assert checks == ["36", "True", "True", "True", "True"]


_SCALE_ROOTS = """
from exactmatch.graphs import RED, random_graph
from exactmatch.solver import SolverOptions, red_count_bounds, solve
for n, density in ((48, 0.12), (64, 0.1)):
    g = random_graph(n, density, 0.5, seed=7, require_pm=True)
    t_min, t_max = red_count_bounds(g)
    t = (t_min + t_max) // 2 + 1
    rep = solve(g, t, SolverOptions(want_witness=True))
    wit = rep.witness
    print(n, rep.decision, rep.counts["subproblems"], len(wit),
          sorted(r for r, _, _ in wit) == list(range(n)),
          sorted(c for _, c, _ in wit) == list(range(n)),
          all(rec in g.edges for rec in wit),
          sum(1 for _, _, k in wit if k == RED) == t)
"""


def test_sparse_roots_past_the_cliff_decide_in_a_few_subproblems():
    # past the probe's guard these roots once cut for minutes: the chords
    # of their exchange cycles now reach t_mid + 1 and hand it a witness,
    # in at most 4 subproblems each. A subprocess with a timeout makes a
    # regression fail instead of hang
    src = os.path.dirname(os.path.dirname(solver.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", _SCALE_ROOTS], env=env,
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = [line.split() for line in proc.stdout.splitlines()]
    assert [line[0] for line in lines] == ["48", "64"]
    for n, decision, subproblems, *checks in lines:
        assert decision == "True" and int(subproblems) <= 4
        assert checks == [n, "True", "True", "True", "True"]


def test_decisions_survive_certificates_that_settle_nothing(monkeypatch):
    # with no certificates and modulus 1 every subproblem and every brace
    # grid see every in-bound target, so the recursion and the grid's zero
    # path decide what the certificates settled before
    graphs = [p.values[0] for p in CONGRUENCE_CASES + RESIDUAL_HOLES]
    before = [[solve(g, t).decision for t in range(-1, g.n + 2)] for g in graphs]
    _no_certificates(monkeypatch)
    monkeypatch.setattr(solver, "_congruence", lambda n, records: (1, 0))
    zeros = 0
    for g, decisions in zip(graphs, before):
        want = red_count_set_dp(g)
        reports = [solve(g, t) for t in range(-1, g.n + 2)]
        assert [rep.decision for rep in reports] == decisions
        assert decisions == [t in want for t in range(-1, g.n + 2)]
        rep = reports[0]
        t_min, t_max = red_count_bounds(g)
        if t_max - t_min > 1:
            assert rep.counts["certified"] == 0
            zeros += any(
                b.method == "pure-ASNC" and b.feasible_t[-1] - b.feasible_t[0]
                >= len(b.feasible_t)
                for b in rep.blocks
            )
    assert zeros >= 10


def _no_witness(rep):
    d = rep.to_json_dict()
    d.pop("witness", None)
    d.pop("timings")
    return d


PARITY_CASES = (
    CERTIFICATE_CASES + CONGRUENCE_CASES + RESIDUAL_HOLES
    + [pytest.param(with_coloring(band_path(7), red="bernoulli", seed=3),
                    id="band7")]
    + [pytest.param(random_graph(2 + s % 9, 0.6, 0.5, seed=15400 + s),
                    id=f"random-{s}") for s in range(18)]
)


@pytest.mark.parametrize("g", PARITY_CASES)
def test_witness_keeps_the_decision_report(g):
    # both paths run the same certificates: the report of a witnessed
    # solve is the decision's, the probe's m determinants included
    for t in range(-1, g.n + 2):
        plain = solve(g, t)
        witnessed = solve(g, t, SolverOptions(want_witness=True))
        assert _no_witness(witnessed) == _no_witness(plain)
        assert (witnessed.witness is not None) == plain.decision


def test_solve_decisions_match_enumeration_batch():
    for seed in range(30):
        n = 2 + seed % 5
        g = random_graph(n, 0.6, 0.4, seed=9600 + seed)
        counts = fiber_table(g).counts
        for t in range(n + 1):
            assert solve(g, t).decision == (counts.get(t, 0) > 0)


def test_non_brace_with_multi_blocks_still_sound():
    # band graphs decompose into several blocks with contracted cells
    g = with_coloring(band_path(7), red="bernoulli", seed=3)
    assert feasible_red_counts(g) == frozenset(red_count_set(g))


PAST_CAP_FAMILIES = {
    "random-0.3": lambda n: random_graph(n, 0.3, 0.5, seed=9900 + n, require_pm=True),
    "random-0.7": lambda n: random_graph(n, 0.7, 0.5, seed=9950 + n, require_pm=True),
    "gap-brace": lambda n: _gap_colored(biwheel(n)),
    "gap-dense": lambda n: _dense_gap_brace(n, 13000 + n),
    "band_path": lambda n: with_coloring(band_path(n), red="bernoulli", seed=n),
    "biwheel": lambda n: with_coloring(biwheel(n), red="bernoulli", seed=n),
}
# Dense gap-colored braces stop at n = 11: their witnesses, one self-reduction
# per YES target, take longest of all families.
PAST_CAP_SIZES = {"gap-dense": range(9, 12)}


@pytest.mark.parametrize(
    "family, n",
    [
        pytest.param(family, n, id=f"{family}-{n}")
        for family in sorted(PAST_CAP_FAMILIES)
        for n in PAST_CAP_SIZES.get(family, range(9, 13))
    ],
)
def test_decisions_past_enumeration_cap_match_dp_oracle(family, n):
    # solve decides t by membership in feasible_red_counts, so one call
    # decides every target 0..n; each YES then goes through solve itself
    g = PAST_CAP_FAMILIES[family](n)
    want = red_count_set_dp(g)
    got = feasible_red_counts(g)
    assert [t in got for t in range(n + 1)] == [t in want for t in range(n + 1)]
    for t in sorted(want):
        rep = solve(g, t, SolverOptions(want_witness=True))
        assert rep.decision and rep.witness is not None
        assert sorted(r for r, _, _ in rep.witness) == list(range(n))
        assert sorted(c for _, c, _ in rep.witness) == list(range(n))
        assert all(rec in g.edges for rec in rep.witness)
        assert sum(1 for _, _, k in rep.witness if k == RED) == t


def test_gap_brace_family_has_odd_no_targets_inside_its_bounds():
    g = PAST_CAP_FAMILIES["gap-brace"](10)
    feasible = red_count_set_dp(g)
    assert is_brace(g)
    assert all(t % 2 == 0 for t in feasible)
    assert max(feasible) - min(feasible) >= 2


def test_biwheel_pm_counts():
    for m in range(3, 7):
        assert fiber_table(biwheel(m)).total == (m - 1) ** 2


# ---------------------------------------------------------------------------
# bench


def test_bench_rows():
    rows = bench([3, 4], seed=1)
    assert [row["n"] for row in rows] == [3, 4]
    for row in rows:
        assert set(row) == {"n", "t", "decision", "ms", "timings"}
        assert row["decision"] in ("YES", "NO")
        assert row["ms"] >= 0
