#!/usr/bin/env python3
"""Fuzz the solver against the column-subset DP oracle under a time budget.

Draws random colored instances and checks each against an oracle (the DP
oracle, or a closed form for the diagonal draw below) twice: the
recursion's achievable set, one feasible_red_counts call per instance, and
solve(g, t).decision for every t in -1..n+1. Every subproblem's
certificates (bounds, exchange, congruence, probe) run before any D(G, M)
is built, the root's for t alone. A root the certificates decided is the
report's one subproblem and one certified block, with the red counts they
proved: each must lie in the oracle's set, and t among them exactly when
the answer is YES. Every t the exchange's reach proves is checked against
the oracle too. Every YES target of an instance with n <= WITNESS_ALL_N
(one drawn YES target above that) then goes through solve(...,
want_witness=True): each witness is checked against the graph, and the
report's blocks and counts against those of solve(g, t) without a
witness. The final line counts, over every (graph, t), the certified
blocks by the certificate that settled them (roots and subproblems below
them), the roots left open, and the witnesses whose target lay in the
exchange's reach (the switched matching); the other witnesses came from
the cofactor chain or from row forcing. The run stops at --budget seconds
or
--max-instances. One draw in GAP_SHARE is a dense graph gap-colored (red
iff row and column lie on opposite halves), so every red count is even and
the odd targets inside its bounds are zeros the grid must certify. One draw
in MULTI_SHARE (gap draws take precedence) is a node graph of decompose(g)
for a matching-covered random g: the blocks below its root are multigraphs,
with a parallel cell wherever crossing records of both colors meet. One
draw in DIAG_SHARE (the two above take precedence) is K_n,n with a red
diagonal: its hole at n - 1 is zero at every lam node and lies in the class
of its records, so the root builds D(G, M) and the brace grid sweeps every
node for it, under every certificate prime. Its achievable set has a closed
form, so it needs no DP oracle and its n reaches DIAG_PAST sizes past
--max-n (up to 16 at --max-n 14). Any disagreement, bad witness or report
mismatch prints the instance in wire format (a make() call for a
multigraph, which EBG cannot carry) and aborts, so the output is a
ready-made regression fixture.

    python3 scripts/fuzz_decisions.py --budget 60 --max-n 14
"""

import argparse
import random
import sys
import time
from collections import Counter

sys.path.insert(0, "src")

from exactmatch.decomposition import Split, decompose
from exactmatch.graphs import (
    BLUE,
    RED,
    ColoredBipartiteGraph,
    knn,
    random_graph,
    serialize_ebg,
    with_coloring,
)
from exactmatch.matching import is_matching_covered
from exactmatch.solver import (
    SolverOptions,
    _assignments,
    _exchange,
    feasible_red_counts,
    solve,
)
from exactmatch.verify.core import red_count_set_dp


# The DP oracle's time grows with C(n, n/2) reachable column sets, and the
# solver's with the grid on large braces; past 14 one instance can take
# longer than a typical budget.
MAX_N = 14
# Up to this size every achievable target's witness is extracted and checked.
WITNESS_ALL_N = 10
GAP_SHARE = 4
MULTI_SHARE = 3
DIAG_SHARE = 5
# The diagonal draw's closed form costs nothing, so its size may pass
# --max-n (and MAX_N) by this much.
DIAG_PAST = 2
# The methods of a block its certificates settled.
CERTIFICATES = ("bounds", "exchange", "congruence", "probe")


def gap_colored(g: ColoredBipartiteGraph) -> ColoredBipartiteGraph:
    half = g.n // 2
    return ColoredBipartiteGraph.make(
        g.n,
        [(r, c, RED if (r < half) != (c < half) else BLUE) for r, c, _ in g.edges],
    )


def diagonal_red_counts(g: ColoredBipartiteGraph) -> set[int]:
    """The achievable set of K_n,n with a red diagonal, n >= 1: a
    permutation with k fixed points has k red records, and every k in
    0..n occurs except n - 1."""
    return set(range(g.n + 1)) - {g.n - 1}


def decomposition_node(rng: random.Random, n: int) -> ColoredBipartiteGraph:
    """A node graph of decompose(g), below the root when g has a tight cut,
    for the first matching-covered draw g of size n."""
    while True:
        g = random_graph(n, rng.choice((0.3, 0.4, 0.5)), 0.5,
                         seed=rng.randrange(1 << 30))
        if is_matching_covered(g):
            break
    root = decompose(g)
    nodes, stack = [], [root]
    while stack:
        node = stack.pop()
        if isinstance(node, Split):
            stack += [node.left, node.right]
        if node is not root:
            nodes.append(node.graph)
    return rng.choice(nodes) if nodes else g


def wire(g: ColoredBipartiteGraph) -> str:
    if not g.multi:
        return serialize_ebg(g)
    return f"ColoredBipartiteGraph.make({g.n}, {list(g.edges)}, multi=True)\n"


def witness_ok(g: ColoredBipartiteGraph, t: int, witness) -> bool:
    """A perfect matching of g made of its records, with t red ones."""
    return (
        witness is not None
        and sorted(r for r, _, _ in witness) == list(range(g.n))
        and sorted(c for _, c, _ in witness) == list(range(g.n))
        and all(tuple(rec) in g.edges for rec in witness)
        and sum(1 for _, _, k in witness if k == RED) == t
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
    instances = decisions = witnesses = past = 0
    switched = 0  # witnesses from the exchange's switched matching
    settled: Counter = Counter()  # certified blocks by method, open roots
    while time.perf_counter() < deadline and instances < ns.max_instances:
        n = rng.randint(2, ns.max_n)
        oracle = red_count_set_dp
        if instances % GAP_SHARE == GAP_SHARE - 1:
            g = gap_colored(
                random_graph(n, rng.choice((0.7, 0.9, 1.0)), 0.5,
                             seed=rng.randrange(1 << 30))
            )
        elif instances % MULTI_SHARE == MULTI_SHARE - 1:
            g = decomposition_node(rng, n)
        elif instances % DIAG_SHARE == DIAG_SHARE - 1:
            n = rng.randint(2, ns.max_n + DIAG_PAST)
            g = with_coloring(knn(n), red="diag")
            oracle = diagonal_red_counts
        else:
            g = random_graph(
                n,
                density=rng.choice((0.3, 0.5, 0.7, 0.9)),
                red_prob=rng.choice((0.1, 0.3, 0.5, 0.8)),
                seed=rng.randrange(1 << 30),
            )
        want = oracle(g)
        got = feasible_red_counts(g)
        instances += 1
        past += g.n > ns.max_n
        found = _assignments(g)
        reach = _exchange(*found).reach() if found is not None else 0
        outside = [
            t for t in range(g.n + 1) if reach >> t & 1 and t not in want
        ]
        if outside:
            print(f"EXCHANGE REACH OUTSIDE THE ORACLE at t={outside}")
            sys.stdout.write(wire(g))
            return 1
        reports = {}
        for t in range(-1, g.n + 2):
            report = reports[t] = solve(g, t)
            decided = report.decision
            decisions += 1
            if (t in got) != (t in want) or decided != (t in want):
                print(
                    f"DISAGREEMENT at t={t}: recursion={t in got} "
                    f"solve={decided} oracle={t in want}"
                )
                sys.stdout.write(wire(g))
                return 1
            counts = report.counts
            settled.update(
                b.method for b in report.blocks if b.method in CERTIFICATES
            )
            if counts["subproblems"] == 1 and not report.blocks:
                settled["roots without a perfect matching"] += 1
                continue
            if not counts["subproblems"] == counts["certified"] == 1:
                settled["open roots"] += 1
                continue
            root = report.blocks[0]
            proved = set(root.feasible_t)
            if not proved <= want or (t in proved) != decided:
                print(
                    f"CERTIFIED ROOT OUTSIDE THE ORACLE at t={t}: "
                    f"{root.method} proved {sorted(proved)}"
                )
                sys.stdout.write(wire(g))
                return 1
        targets = sorted(want)
        if targets and g.n > WITNESS_ALL_N:
            targets = [rng.choice(targets)]
        for t in targets:
            report = solve(g, t, SolverOptions(want_witness=True))
            witnesses += 1
            switched += bool(reach >> t & 1)
            if not witness_ok(g, t, report.witness):
                print(f"BAD WITNESS at t={t}: {report.witness}")
                sys.stdout.write(wire(g))
                return 1
            plain = reports[t]
            if (report.blocks, report.counts) != (plain.blocks, plain.counts):
                print(
                    f"REPORT MISMATCH at t={t}: witnessed {report.blocks} "
                    f"{report.counts}, plain {plain.blocks} {plain.counts}"
                )
                sys.stdout.write(wire(g))
                return 1
    blocks = ", ".join(f"{settled[name]} {name}" for name in CERTIFICATES)
    print(
        f"ok: {instances} instances ({past} past --max-n), {decisions} "
        f"decisions (certified blocks: {blocks}; "
        f"{settled['open roots']} open roots, "
        f"{settled['roots without a perfect matching']} without a perfect "
        f"matching), {witnesses} witnesses "
        f"({switched} from the exchange), 0 disagreements"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
