"""Seeded workload generation, serialized to .ebg text.

Every instance comes from the benchmark's own random.Random, and every
expected answer from the independent oracle, so nothing in exactmatch can
change what is asked or what counts as correct. The solver only ever sees
the .ebg texts.
"""

from __future__ import annotations

import random

import oracle

RED, BLUE = 1, 0

# Why each workload exists, and which layer it is meant to load.
WHY = {
    "brace-dense": (
        "dense random braces: brace recognition (matching) dominates, "
        "the recursion has one subproblem"
    ),
    "split-sparse": (
        "sparse random graphs with many tight cuts: the memoized composition "
        "recursion and its heavy tail dominate"
    ),
    "gap-brace": (
        "braces whose red counts are all even: the grid sweeps every lambda "
        "node, and YES and NO targets alternate"
    ),
    "witness-mixed": (
        "band, biwheel and dense random graphs with want_witness=True: the "
        "only workload that runs witness extraction"
    ),
}


# Sizes of the witness-mixed families: band_path m, biwheel m, random n.
FAMILY_SIZE = {"band_path": 32, "biwheel": 16, "random": 10}


def serialize(n: int, edges) -> str:
    lines = ["ebg 1", f"n {n}"]
    lines.extend(f"e {r} {c} {k}" for r, c, k in sorted(edges))
    return "\n".join(lines) + "\n"


def _bernoulli_graph(rng: random.Random, n: int, density: float):
    return [
        (i, j, RED if rng.random() < 0.5 else BLUE)
        for i in range(n)
        for j in range(n)
        if rng.random() < density
    ]


def _recolor(rng: random.Random, cells):
    return [(r, c, RED if rng.random() < 0.5 else BLUE) for r, c in cells]


def _band_path_cells(m: int):
    return [(i, j) for i in range(m) for j in range(m) if abs(i - j) <= 1]


def _biwheel_cells(m: int):
    cells = {(0, j) for j in range(1, m)} | {(i, 0) for i in range(1, m)}
    for i in range(1, m):
        cells |= {(i, i), (i, i + 1 if i + 1 < m else 1)}
    return sorted(cells)


def _middle(feasible: set[int]) -> int:
    ordered = sorted(feasible)
    return ordered[len(ordered) // 2]


class _Builder:
    """Collects instances (as .ebg text) and the queries asked of them."""

    def __init__(self, workload: str):
        self.workload = workload
        self.texts: list[str] = []
        self.queries: list[dict] = []

    def add(self, family, n, density, inst_seed, edges, targets, witness):
        feasible = oracle.red_counts(n, edges)
        self.texts.append(serialize(n, edges))
        for t in targets(feasible):
            self.queries.append(
                {
                    "instance": len(self.texts) - 1,
                    "family": family,
                    "n": n,
                    "density": density,
                    "seed": inst_seed,
                    "target": t,
                    "expected": t in feasible,
                    "want_witness": witness and t in feasible,
                    "why": WHY[self.workload],
                }
            )


def _draw(rng, n, density, accept):
    """Draw Bernoulli graphs until accept(edges) holds; returns (seed, edges)."""
    while True:
        inst_seed = rng.getrandbits(32)
        edges = _bernoulli_graph(random.Random(inst_seed), n, density)
        if accept(n, edges):
            return inst_seed, edges


def _has_pm(n, edges) -> bool:
    return bool(oracle.red_counts(n, edges))


def _gap_colors(n, edges):
    """Red iff row and column lie on opposite sides of n/2.

    A perfect matching sends as many top rows to bottom columns as bottom
    rows to top columns, so every red count is even.
    """
    half = n // 2
    return [(r, c, RED if (r < half) != (c < half) else BLUE)
            for r, c, _ in edges]


def _gap_brace(n, edges) -> bool:
    return oracle.is_brace(n, edges) and len(
        oracle.red_counts(n, _gap_colors(n, edges))) >= 2


def _gap_targets(feasible: set[int]):
    """An even target (YES) and an odd in-bound target (NO)."""
    t = _middle(feasible)
    odd = t + 1 if t + 1 < max(feasible) else t - 1
    return [t, odd]


def build(workload: str, seed: int, sizes) -> dict:
    """The workload's instances and queries for this seed.

    sizes lists, in query order, the size (or family name, for
    witness-mixed) of each instance to draw. It is fixed per workload in
    run.py, so a seed changes which graphs are drawn, never the mix.
    """
    rng = random.Random(f"{workload}:{seed}")
    b = _Builder(workload)
    middle = lambda f: [_middle(f)]  # noqa: E731
    for size in sizes:
        if workload == "brace-dense":
            s, edges = _draw(rng, size, 0.7, oracle.is_brace)
            b.add("random", size, 0.7, s, edges, middle, False)
        elif workload == "split-sparse":
            s, edges = _draw(rng, size, 0.3, _has_pm)
            b.add("random", size, 0.3, s, edges, middle, False)
        elif workload == "gap-brace":
            s, edges = _draw(rng, size, 0.7, _gap_brace)
            b.add("random-gap", size, 0.7, s, _gap_colors(size, edges),
                  _gap_targets, False)
        elif workload == "witness-mixed":
            n, density, s = FAMILY_SIZE[size], None, rng.getrandbits(32)
            if size == "band_path":
                edges = _recolor(random.Random(s), _band_path_cells(n))
            elif size == "biwheel":
                edges = _recolor(random.Random(s), _biwheel_cells(n))
            else:
                density = 0.7
                s, edges = _draw(rng, n, density, _has_pm)
            b.add(size, n, density, s, edges, middle, True)
        else:
            raise ValueError(f"unknown workload {workload!r}")
    return {"texts": b.texts, "queries": b.queries}
