"""Solver pipeline: grid nonvanishing, feasibility recursion, witnesses."""

import functools
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
from exactmatch.errors import BadParams, BadPrime, InvariantError
from exactmatch.graphs import (
    BLUE,
    RED,
    ColoredBipartiteGraph,
    band_path,
    biwheel,
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
    fiber_table,
    red_count_set,
    red_count_set_dp,
    symbolic_pt,
)


def k44_diag():
    return with_coloring(knn(4), red="diag")


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
    table = g.color_table
    assert table.dtype == bool
    assert table.astype(int).tolist() == [blue, red]
    assert g.color_table is table  # one table per graph
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[...] = False
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
    # color_table: a certified solve builds it once, and a second solve of
    # the same graph not at all
    builds = []
    view = ColoredBipartiteGraph.color_table
    counted = functools.cached_property(
        lambda graph: builds.append(graph) or view.func(graph)
    )
    counted.__set_name__(ColoredBipartiteGraph, "color_table")
    monkeypatch.setattr(ColoredBipartiteGraph, "color_table", counted)
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
    g = k44_diag()
    # t = 3 is identically zero: the root probe's 5 determinants (one lam
    # node, 5 x nodes) left it open, and the one prime (C < 2^31) sweeps the
    # other 6 lam nodes at the 5 x nodes
    assert solve(g, 3).counts["grid_dets"] == 6 * 5 + 5
    gap = _dense_gap_brace(8, 12500 + 8)
    grid = EvaluationGrid.for_size(gap.n)
    first, again = SolveTrace(), SolveTrace()
    assert grid.nonvanishing_targets(gap, {1}, first) == set()
    assert grid.nonvanishing_targets(gap, {1}, again) == set()
    assert first.counts == again.counts
    primes = solver.certificate_primes(coefficient_bound(gap))
    t_min, t_max = red_count_bounds(gap)
    # odd targets are zeros: every prime sweeps all 29 lam nodes but the
    # top node mod the first prime, which a trace (the recursion's) says
    # its probe took; without one, the first prime starts there
    m = t_max - t_min + 1
    assert first.counts["grid_dets"] == (len(primes) * 29 - 1) * m
    # the first prime's first chunk: the top node alone, or with a trace
    # every node below it at once (one block holds all 28)
    chunks = []
    powers = solver._lam_powers
    monkeypatch.setattr(
        solver, "_lam_powers",
        lambda lams, n, p: chunks.append((p, lams.tolist())) or powers(lams, n, p),
    )
    for trace, head in ((None, [28]), (SolveTrace(), list(range(27, -1, -1)))):
        chunks.clear()
        assert grid.nonvanishing_targets(gap, {1}, trace) == set()
        assert chunks[0] == (primes[0], head)


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
    for m in range(1, 8):
        for t_min in (-3, -1, 0, 1, 4):
            inv = solver._x_inverse(t_min, m, p).tolist()
            v = [[pow(x, t_min + s, p) for s in range(m)] for x in range(1, m + 1)]
            prod = [[sum(inv[i][l] * v[l][j] for l in range(m)) % p
                     for j in range(m)] for i in range(m)]
            assert prod == [[int(i == j) for j in range(m)] for i in range(m)]


def _chain(g, t):
    """_brace_witness from a fresh start, as the witness of a brace does."""
    return solver._brace_witness(
        g, t, solver._top_node(g, *red_count_bounds(g), invert=True)
    )


def test_brace_witness_finishes_every_target_at_the_real_prime():
    for g in _random_braces(30, 14100) + [k44_diag(), biwheel(6)]:
        for t in sorted(red_count_set_dp(g)):
            assert _is_witness(g, t, _chain(g, t))
        t_min, t_max = red_count_bounds(g)
        assert _chain(g, t_min - 1) is None
        assert _chain(g, t_max + 1) is None


@pytest.mark.parametrize("p", [31, 37, 41])
def test_brace_witness_under_small_primes_is_right_or_gives_up(p, monkeypatch):
    # small primes make zero residues common: the chain must then return
    # None (the fallback's cue), and never a wrong matching
    monkeypatch.setattr(solver, "certificate_primes", lambda bound: (p,))
    outcomes = {"witness": 0, "none": 0}
    for g in _random_braces(40, 14300):
        for t in sorted(red_count_set_dp(g)):
            wit = _chain(g, t)
            if wit is None:
                outcomes["none"] += 1
            else:
                assert _is_witness(g, t, wit)
                outcomes["witness"] += 1
    assert outcomes["witness"] >= 20 and outcomes["none"] >= 20


def test_brace_witness_leaves_the_recursion_alone():
    # on a brace the decision settled, the start made on demand (its
    # exchange, or its inverted top node for the chain) finishes every
    # witness: the witness adds no subproblem
    for g in _random_braces(10, 14500) + [k44_diag()]:
        trace = SolveTrace()
        feasible = feasible_red_counts(g, trace)
        subproblems = trace.counts["subproblems"]
        for t in sorted(feasible):
            assert solver._start_of(g, t) is not None
            assert _is_witness(g, t, extract_witness(g, t, trace))
        assert trace.counts["subproblems"] == subproblems == len(trace.memo)


def test_fallback_witnesses_when_the_chain_gives_up(monkeypatch):
    monkeypatch.setattr(solver, "_brace_witness", lambda g, t, start: None)
    graphs = _random_braces(10, 14700) + [
        k44_diag(), with_coloring(band_path(7), red="bernoulli", seed=3),
    ]
    for g in graphs:
        for t in sorted(red_count_set_dp(g)):
            rep = solve(g, t, SolverOptions(want_witness=True))
            assert rep.decision and _is_witness(g, t, rep.witness)


@pytest.mark.parametrize(
    "g",
    [
        pytest.param(k44_diag(), id="k44-diag"),
        pytest.param(with_coloring(band_path(7), red="bernoulli", seed=3), id="band7"),
    ],
)
def test_certificates_run_once_per_solve(g, monkeypatch):
    # the chain gives up, so the witness forces rows through residual
    # subproblems: each subproblem runs its certificates once, and only
    # the root, once per solve, asks them for solve's target
    monkeypatch.setattr(solver, "_brace_witness", lambda g, t, start: None)
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


CHAIN_FROM_ROOT = (
    [pytest.param(with_coloring(band_path(32), "bernoulli", seed=s),
                  id=f"band32-{s}") for s in (1, 2)]
    + [pytest.param(with_coloring(biwheel(16), "bernoulli", seed=s),
                    id=f"biwheel16-{s}") for s in (1, 2)]
    + [pytest.param(g, id=f"nonbrace-n{g.n}-{i}")
       for i, g in enumerate(_non_braces(6, 15000))]
)


@pytest.mark.parametrize("g", CHAIN_FROM_ROOT)
def test_witness_chains_from_the_root_certificate(g, monkeypatch):
    # within the probe's guard the root's witness comes from the probe's
    # own elimination: every t the probe certified needs no subproblem
    # beyond the decision's, so no row is forced. Every root here is
    # certified before D(G, M), so nothing builds one
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
    probed = solver._top_node(g, t_min, t_max).hits()
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


@pytest.mark.parametrize("p", [31, 37])
def test_witnesses_under_a_small_first_prime_fall_back(p, monkeypatch):
    # the probe and the chain work mod the first certificate prime: a
    # small one makes the chain give up often, and the row-forcing
    # fallback must then finish the witness; the real primes after it
    # keep the grid's zero proofs exact
    real = solver.certificate_primes
    monkeypatch.setattr(solver, "certificate_primes", lambda bound: (p,) + real(bound))
    outcomes = {"chain": 0, "fallback": 0}
    chain = solver._brace_witness

    def counted(g, t, start):
        wit = chain(g, t, start)
        outcomes["chain" if wit is not None else "fallback"] += 1
        return wit

    monkeypatch.setattr(solver, "_brace_witness", counted)
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
    assert outcomes["chain"] >= 10 and outcomes["fallback"] >= 1


WRONG_WITNESSES = [
    [(r, r, RED) for r in range(4)],  # four red records, not the target's
    [(0, 0, BLUE), (1, 1, RED), (2, 2, RED), (3, 3, BLUE)],  # not in g
    [(0, 0, RED), (1, 0, BLUE), (2, 2, RED), (3, 1, BLUE)],  # column 0 twice
    [(0, 0, RED), (1, 1, RED)],  # rows 2 and 3 unmatched
]


@pytest.mark.parametrize("wrong", WRONG_WITNESSES)
def test_a_wrong_witness_raises_invariant_error(wrong, monkeypatch):
    # t = 1 lies outside the exchange's reach {0, 2, 4}, so the witness
    # goes down the cofactor chain
    monkeypatch.setattr(
        solver, "_brace_witness", lambda g, t, start: list(wrong)
    )
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
    return set(), set(range(g.n + 1)), None


def _no_certificates(monkeypatch):
    """Every subproblem's certificates prove nothing and no probe fits, so
    the recursion, and each grid's sweep from the top node, run as they did
    before any certificate."""
    monkeypatch.setattr(solver, "_certify", _certify_nothing)
    monkeypatch.setattr(solver, "_fits", lambda n, m: False)


# the same for the subprocess scripts below, which also give the witness
# no start, so it forces every row
_NO_CERTIFICATES = """
from exactmatch import solver
def _certify_nothing(g, trace, t):
    if solver.red_count_bounds(g) is None:
        return None
    return set(), set(range(g.n + 1)), None
solver._certify = _certify_nothing
solver._fits = lambda n, m: False
solver._start_of = lambda g, t: None
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
        "160", "80", "160", "80", "True", "2", "True", "2", "4", "enumeration",
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
        "221", "202", "201", "796", "True", "201", "796", "enumeration",
    ]


# ---------------------------------------------------------------------------
# solve reports


def test_solve_k44_yes_and_no():
    rep = solve(k44_diag(), 2, SolverOptions(want_witness=True))
    assert rep.decision and rep.witness is not None
    assert sum(1 for _, _, k in rep.witness if k == 1) == 2
    rep_no = solve(k44_diag(), 3)
    assert not rep_no.decision and rep_no.witness is None


def test_solve_report_blocks_k44():
    # the hole t = 3 is the one target no root certificate decides, so it
    # reaches the grid, which settles the brace's whole achievable set
    rep = solve(k44_diag(), 3)
    assert len(rep.blocks) == 1
    blk = rep.blocks[0]
    assert blk.n == 4
    assert blk.feasible_t == (0, 1, 2, 4)
    assert blk.method == "pure-ASNC"
    assert feasible_red_counts(k44_diag()) == {0, 1, 2, 4}


def test_solve_json_schema():
    # t = 1 lies outside the exchange's reach {0, 2, 4}: the root's probe
    # (5 determinants) decides it, proving {0, 1, 2, 4}, and its inverse
    # starts the witness
    d = solve(k44_diag(), 1, SolverOptions(want_witness=True)).to_json_dict()
    assert d["schema"] == "exactmatch/5"
    assert d["decision"] == "YES"
    assert d["blocks"] == [
        {"n": 4, "feasible_t": [0, 1, 2, 4], "method": "probe"}
    ]
    assert d["counts"] == {
        "subproblems": 1, "memo_hits": 0, "braces": 0, "tight_cuts": 0,
        "enumerated": 0, "certified": 1, "grid_dets": 5, "depth": 1,
    }
    assert len(d["witness"]) == 4
    assert all(len(rec) == 3 for rec in d["witness"])
    assert set(d["timings"]) == {"decide_ms", "witness_ms"}
    # the root's probe leaves the hole t = 3 open; the grid sweeps the 6
    # other lam nodes (30 determinants)
    d = solve(k44_diag(), 3, SolverOptions(want_witness=True)).to_json_dict()
    assert d["schema"] == "exactmatch/5"
    assert d["decision"] == "NO" and "witness" not in d
    assert d["blocks"] == [
        {"n": 4, "feasible_t": [0, 1, 2, 4], "method": "pure-ASNC"}
    ]
    assert d["counts"] == {
        "subproblems": 1, "memo_hits": 0, "braces": 1, "tight_cuts": 0,
        "enumerated": 0, "certified": 0, "grid_dets": 35, "depth": 1,
    }


def test_solve_no_pm_graph():
    g = ColoredBipartiteGraph.make(2, [(0, 0, 0), (1, 0, 0)])
    rep = solve(g, 0)
    assert not rep.decision
    assert rep.blocks == ()


def test_solve_out_of_range_t():
    assert not solve(knn(3), -1).decision
    assert not solve(knn(3), 5).decision


def test_solve_report_traces_the_recursion():
    # every subproblem certifies first: here every leaf is a subproblem
    # its certificates settled, each of the four settles some, and the
    # tight cuts above them are where a t was left open
    g = random_graph(14, 0.2, 0.5, seed=22, require_pm=True)
    want = red_count_set_dp(g)
    for t in range(-1, g.n + 2):
        assert solve(g, t).decision == (t in want)
    rep = SolveTrace()
    assert feasible_red_counts(g, rep) == want
    assert {b.method for b in rep.blocks} == {
        "bounds", "exchange", "congruence", "probe",
    }
    counts = rep.counts
    assert counts["tight_cuts"] > 0
    assert counts["braces"] + counts["enumerated"] + counts["certified"] == (
        len(rep.blocks))
    assert counts["subproblems"] == len(rep.memo)
    again = SolveTrace()
    feasible_red_counts(g, again)
    assert again.blocks == rep.blocks and again.counts == rep.counts


def test_solve_report_ignores_witness_subproblems(monkeypatch):
    # the chain gives up, so the witness forces rows through new subproblems
    monkeypatch.setattr(solver, "_brace_witness", lambda g, t, start: None)
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
# evaluation order.
PINNED_TRACES = {
    "band_path7": (
        lambda: with_coloring(band_path(7), red="bernoulli", seed=3),
        {"subproblems": 10, "braces": 0, "tight_cuts": 4, "enumerated": 3,
         "grid_dets": 0, "depth": 5, "memo_hits": 13},
        [(1, (0,), "enumeration"), (1, (1,), "enumeration"),
         (2, (0, 1), "enumeration")],
    ),
    "random12-d0.3": (
        lambda: random_graph(12, 0.3, 0.5, seed=13, require_pm=True),
        {"subproblems": 147, "braces": 5, "tight_cuts": 60, "enumerated": 11,
         "grid_dets": 31, "depth": 7, "memo_hits": 353},
        [(10, (4, 5, 6, 7, 8, 9), "pure-ASNC"), (1, (0,), "enumeration"),
         (1, (1,), "enumeration"), (2, (1, 2), "enumeration"),
         (2, (1, 2), "enumeration"), (2, (0, 1), "enumeration"),
         (2, (2,), "enumeration"), (2, (0, 1), "enumeration"),
         (2, (0, 1), "enumeration"), (2, (1,), "enumeration"),
         (10, (4, 5, 6, 7, 8, 9), "pure-ASNC"),
         (10, (3, 4, 5, 6, 7, 8, 9), "pure-ASNC"),
         (2, (1, 2), "enumeration"), (2, (1,), "enumeration"),
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


CONGRUENCE_CASES = _congruence_cases()
# in-bound NOs that neither the bounds nor the congruence explain
RESIDUAL_HOLES = [
    pytest.param(with_coloring(knn(3), red="diag"), id="k33-diag"),
    pytest.param(k44_diag(), id="k44-diag"),
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
    # YES: the probe, alike from both top-node kernels; the inverted one's
    # extra coefficient c_(t_min - 1) is exactly zero, also at a small
    # first prime, where accidental zeros are common
    real = solver.certificate_primes
    for small in [False] + [True] * (g.n <= 8):
        if small:
            monkeypatch.setattr(
                solver, "certificate_primes", lambda bound: (37,) + real(bound)
            )
        hits = solver._top_node(g, t_min, t_max).hits()
        assert solver._top_node(g, t_min, t_max, invert=True).hits() == hits
        assert hits <= want


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


def test_top_node_runs_for_unproved_t_and_inverts_outside_the_reach(
    monkeypatch,
):
    # k44_diag: reach {0, 2, 4}, so 1 and 3 need the probe, and a witness
    # for either inverts it (3 is a hole, which only the grid proves); a t
    # the bounds or the reach decide makes no top node at all
    made = []
    top = solver._top_node

    def counted(g, t_min, t_max, invert=False):
        made.append(invert)
        return top(g, t_min, t_max, invert)

    monkeypatch.setattr(solver, "_top_node", counted)
    for t, want_witness, inverted in [
        (1, False, [False]), (1, True, [True]), (3, False, [False]),
        (3, True, [True]), (2, False, []), (2, True, []), (0, True, []),
        (4, True, []), (-1, True, []), (5, True, []),
    ]:
        made.clear()
        solve(k44_diag(), t, SolverOptions(want_witness=want_witness))
        assert made == inverted
    made.clear()
    solve(_both_colors_diagonal(3), 1, SolverOptions(want_witness=True))
    assert made == []  # the reach proves every in-bound t


def test_a_negative_gain_raises_invariant_error():
    # the optima handed over in the wrong order: M_hi's cycle loses red
    lo_cols, lo_reds, hi_cols, hi_reds = solver._assignments(k44_diag())
    solver._exchange(lo_cols, lo_reds, hi_cols, hi_reds)
    with pytest.raises(InvariantError):
        solver._exchange(hi_cols, hi_reds, lo_cols, lo_reds)


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
    # every target of every case: each certificate decides some, most are
    # decided before D(G, M), and the holes go on to the recursion
    methods = {}
    for param in CONGRUENCE_CASES + RESIDUAL_HOLES:
        g = param.values[0]
        for t in range(-1, g.n + 2):
            rep = solve(g, t)
            root_certified = rep.counts["subproblems"] == rep.counts["certified"]
            method = rep.blocks[0].method if root_certified else "recursion"
            methods[method] = methods.get(method, 0) + 1
    assert methods["recursion"] >= len(RESIDUAL_HOLES)
    assert methods["recursion"] * 2 < sum(methods.values())
    assert all(
        methods.get(m, 0) >= 5
        for m in ("bounds", "exchange", "congruence", "probe")
    )
    for g, hole in [(with_coloring(knn(3), red="diag"), 2), (k44_diag(), 3)]:
        rep = solve(g, hole)
        assert not rep.decision and rep.counts["certified"] == 0
        assert [b.method for b in rep.blocks] == ["pure-ASNC"]


@pytest.mark.parametrize(
    "g, t, method",
    [
        pytest.param(knn(3), 0, "bounds", id="all-blue"),  # T = {0}
        pytest.param(
            with_coloring(knn(2), red=[(0, 1), (1, 0)]), 1, "congruence",
            id="k22-antidiag",
        ),  # T = {0, 2}: 1 is off the class
        pytest.param(
            with_coloring(knn(3), red=[(0, 0), (1, 1)]), 1, "probe",
            id="k33-two",
        ),  # T = {0, 1, 2}, reach {0, 2}
        pytest.param(k44_diag(), 3, "pure-ASNC", id="k44-diag"),  # a hole
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
    assert rep.counts["certified"] == (method != "pure-ASNC")
    assert rep.counts["subproblems"] == 1
    assert rep.to_json_dict()["blocks"][0]["method"] == method


def test_a_trace_without_a_target_certifies_the_whole_set():
    # feasible_red_counts has one mode: its root certifies as every
    # subproblem does, for every t between the bounds
    g = with_coloring(knn(3), red=[(0, 0), (1, 1)])
    assert solve(g, 1).blocks[0].method == "probe"
    trace = SolveTrace()
    assert feasible_red_counts(g, trace) == {0, 1, 2}
    assert trace.counts["certified"] == trace.counts["subproblems"] == 1
    assert trace.blocks == [BlockReport(3, (0, 1, 2), "probe")]


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
            proved, open_, method = found
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
    t stays open after all four; g has a perfect matching."""
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
    if t in solver._top_node(g, ex.t_min, ex.t_max).hits():
        return "probe"
    return None


@pytest.mark.parametrize("g", TARGET_CASES)
def test_root_decides_its_target_from_what_it_proved(g):
    # every decision is the DP oracle's; a root the certificates decide is
    # one block named after the certificate that decided t; a root that is
    # its own one block (certified, a brace on the grid or enumerated)
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
    # no top node is made for a t out of bounds, in the exchange's reach or
    # off the records' class, and the records' congruence runs before the
    # probe only when t != t_min modulo the gains' gcd, the one case where
    # it can drop t (every n here fits the probe's guard)
    calls = []
    top, congruence = solver._top_node, solver._congruence

    def counted_top(*args, **kwargs):
        calls.append("probe")
        return top(*args, **kwargs)

    def counted_congruence(n, records):
        calls.append("congruence")
        return congruence(n, records)

    ex = _exchange_of(g)
    gains = math.gcd(*ex.deltas)
    methods = [_deciding_certificate(g, t) for t in range(-1, g.n + 2)]
    monkeypatch.setattr(solver, "_top_node", counted_top)
    monkeypatch.setattr(solver, "_congruence", counted_congruence)
    for t, method in zip(range(-1, g.n + 2), methods):
        calls.clear()
        solve(g, t)
        if method in ("bounds", "exchange"):
            assert calls == []
        elif method == "congruence":
            assert calls == ["congruence"]
        elif (t - ex.t_min) % gains:
            assert calls[:2] == ["congruence", "probe"]
        else:
            assert calls[0] == "probe"


@pytest.mark.parametrize("g", TARGET_CASES)
def test_witnessed_decided_root_never_builds_a_pair_digraph(g, monkeypatch):
    # the witness of a root its certificates decide comes from the
    # exchange's switched matching or the inverted probe's cofactor chain:
    # neither the decision nor the witness calls _elementary
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


def _multi_block_root():
    # k33 with a red diagonal (a hole at 2) beside a two-pair block, and a
    # record between them that no perfect matching uses
    k33 = with_coloring(knn(3), red="diag")
    k22 = [(3 + r, 3 + c, RED if r == c else BLUE) for r in range(2) for c in range(2)]
    return ColoredBipartiteGraph.make(5, list(k33.edges) + k22 + [(0, 3, BLUE)])


def _coarse_records_root():
    # two K22 blocks with red anti-diagonals (T = {0, 2, 4}) and two records
    # from the first block's rows to the second's columns that no perfect
    # matching uses: their cycle has an odd red value, so the records'
    # class is mod 1 while the blocks' is mod 2, and only D drops 1 and 3
    def k22(o):
        return [(o + r, o + c, RED if r != c else BLUE)
                for r in range(2) for c in range(2)]
    return ColoredBipartiteGraph.make(
        4, k22(0) + k22(2) + [(0, 2, RED), (1, 3, BLUE)]
    )


@pytest.mark.parametrize(
    "g, open_targets",
    [  # the t no root certificate decides: the holes, and coarse-records'
        # odd t, which only the blocks' class drops
        pytest.param(with_coloring(knn(3), red="diag"), {2}, id="k33-diag"),
        pytest.param(k44_diag(), {3}, id="k44-diag"),
        pytest.param(with_coloring(knn(3), red=[(0, 0), (1, 1)]), set(),
                     id="probe"),
        pytest.param(knn(3), set(), id="bounds"),
        pytest.param(_multi_block_root(), {4}, id="multi-block"),
        pytest.param(_coarse_records_root(), {1, 3}, id="coarse-records"),
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
    assert len(d.blocks) == 2 and len(d.allowed()) < len(g.edges)
    assert solver._congruence(g.n, g.edges) == (1, 0)
    assert solver._congruence(g.n, d.allowed()) == (2, 0)
    want = red_count_set_dp(g)
    assert want == {0, 2, 4}
    builds = []
    build = solver._elementary
    monkeypatch.setattr(
        solver, "_elementary", lambda graph: builds.append(graph) or build(graph)
    )
    # the odd t are in bounds, outside the reach, in the records' class and
    # no probe hit: D is built, and its two equal K2,2 blocks (one a memo
    # hit) each certify their own class, which drops the odd t; every other
    # t the root's certificates decide before D
    for t in range(-1, g.n + 2):
        for want_witness in (False, True):
            builds.clear()
            rep = solve(g, t, SolverOptions(want_witness=want_witness))
            assert rep.decision == (t in want)
            assert rep.witness is None or _is_witness(g, t, rep.witness)
            if t in (1, 3):
                assert [b.method for b in rep.blocks] == ["congruence"]
                assert rep.blocks[0].feasible_t == (0, 2)
                assert (rep.counts["subproblems"], rep.counts["certified"],
                        rep.counts["memo_hits"]) == (2, 1, 1)
                assert builds == [g]
            else:
                assert rep.counts["certified"] == rep.counts["subproblems"] == 1
                assert set(rep.blocks[0].feasible_t) <= want
                assert builds == []


def test_multi_block_root_reaches_the_recursion():
    g = _multi_block_root()
    assert len(_elementary(g).blocks) == 2
    # 4 is the hole: every other t the root's certificates decide. Its
    # blocks certify as subproblems: the K3,3's own hole 2 goes on to the
    # grid, and the K2,2's class settles it
    rep = solve(g, 4)
    assert not rep.decision
    assert rep.counts["certified"] == 1 and rep.counts["subproblems"] == 3
    assert [(b.method, b.feasible_t) for b in rep.blocks] == [
        ("pure-ASNC", (0, 1, 3)), ("congruence", (0, 2)),
    ]


# Sparse random roots whose hole t the root's certificates leave open on a
# D(G, M) of several elementary blocks, found by scanning random_graph(n,
# d, 0.5, seed, require_pm=True) at n = 8..16: (n, d, seed, hole,
# subproblems when only the root certified, subproblems now). Each block
# now certifies its own set, so no count may rise.
MULTI_BLOCK_HOLES = [
    (8, 0.25, 54, 4, 10, 8), (9, 0.2, 55, 4, 10, 8), (9, 0.3, 51, 6, 10, 7),
    (10, 0.25, 39, 6, 18, 10), (10, 0.3, 44, 7, 19, 15),
    (11, 0.2, 31, 8, 12, 7), (12, 0.2, 40, 3, 20, 15),
    (12, 0.25, 47, 7, 26, 11), (12, 0.3, 11, 3, 23, 13),
    (14, 0.2, 22, 3, 57, 28), (15, 0.2, 31, 3, 16, 12),
    (16, 0.2, 3, 9, 21, 7),
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
    assert 0 < rep.counts["certified"] < now  # the root stayed open


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


def test_decisions_survive_certificates_that_settle_nothing(monkeypatch):
    # with no certificates and modulus 1 every subproblem and every brace
    # grid see every in-bound target, so the recursion and the grid's zero
    # path decide what the certificates settled before; with no probe the
    # grid takes the top node first itself
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
