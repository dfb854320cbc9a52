#!/usr/bin/env python3
"""Fuzz the solver against the column-subset DP oracle under a time budget.

Draws random colored instances, compares every target's decision with the
DP oracle's achievable red counts, and stops at --budget seconds or
--max-instances. One draw in GAP_SHARE is a dense graph gap-colored (red iff
row and column lie on opposite halves), so every red count is even and the
odd targets inside its bounds are zeros the grid must certify. Any disagreement prints the instance in wire format and
aborts, so the output is a ready-made regression fixture.

    python3 scripts/fuzz_decisions.py --budget 30 --max-n 12
"""

import argparse
import random
import sys
import time

sys.path.insert(0, "src")

from exactmatch.graphs import (
    BLUE,
    RED,
    ColoredBipartiteGraph,
    random_graph,
    serialize_ebg,
)
from exactmatch.solver import solve
from exactmatch.verify.core import red_count_set_dp


# The DP oracle's time grows with C(n, n/2) reachable column sets, and the
# solver's with the grid on large braces; past 14 one instance can take
# longer than a typical budget.
MAX_N = 14
GAP_SHARE = 4


def gap_colored(g: ColoredBipartiteGraph) -> ColoredBipartiteGraph:
    half = g.n // 2
    return ColoredBipartiteGraph.make(
        g.n,
        [(r, c, RED if (r < half) != (c < half) else BLUE) for r, c, _ in g.edges],
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--budget", type=float, default=30.0, help="seconds")
    ap.add_argument("--max-n", type=int, default=7)
    ap.add_argument("--max-instances", type=int, default=100_000)
    ap.add_argument("--seed", type=int, default=0)
    ns = ap.parse_args(argv)
    if not 2 <= ns.max_n <= MAX_N:
        ap.error(f"--max-n must lie in 2..{MAX_N}")

    rng = random.Random(ns.seed)
    deadline = time.perf_counter() + ns.budget
    instances = decisions = 0
    while time.perf_counter() < deadline and instances < ns.max_instances:
        n = rng.randint(2, ns.max_n)
        if instances % GAP_SHARE == GAP_SHARE - 1:
            g = gap_colored(
                random_graph(n, rng.choice((0.7, 0.9, 1.0)), 0.5,
                             seed=rng.randrange(1 << 30))
            )
        else:
            g = random_graph(
                n,
                density=rng.choice((0.3, 0.5, 0.7, 0.9)),
                red_prob=rng.choice((0.1, 0.3, 0.5, 0.8)),
                seed=rng.randrange(1 << 30),
            )
        feasible = red_count_set_dp(g)
        instances += 1
        for t in range(n + 1):
            decisions += 1
            got = solve(g, t).decision
            want = t in feasible
            if got != want:
                print(f"DISAGREEMENT at t={t}: solve={got} dp-oracle={want}")
                sys.stdout.write(serialize_ebg(g))
                return 1
    print(f"ok: {instances} instances, {decisions} decisions, 0 disagreements")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
