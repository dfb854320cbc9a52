#!/usr/bin/env python3
"""Fuzz the solver against the column-subset DP oracle under a time budget.

Draws random colored instances and checks each against an oracle (the DP
oracle, or a closed form for the diagonal draw below) twice: the
recursion's achievable set, one feasible_red_counts call per instance, and
solve(g, t).decision for every t in -1..n+1. Every subproblem's
certificates (bounds, exchange, congruence, chord, unit, probe) run before
any D(G, M) is built, the root's for t alone, and a graph asked for one t
adds the pair (two greedy perfect matchings switched along their cycles
and chords) before the probe. A root the certificates decided is the
report's one subproblem and one certified block, with the red counts they
proved: each must lie in the oracle's set, and t among them exactly when
the answer is YES. A root the chords decided ran a chord pass that stops
once t is reached: the full pass (t None) must reach t as well and hold
every red count that root proved. A root the pair decided must give a
checked witness for its t. Every t the exchange's reach proves, with its
cycles switched whole or closed along a chord, is checked against the
oracle too, and so is every t in each pair's reach; so is the records'
congruence class (_congruence), from g's records and from the allowed
records of its D(G, M) when it has a perfect matching, against a spanning
walk (congruence_by_walk). Every YES target
of an instance with n <= WITNESS_ALL_N (one drawn YES target above that)
then goes through solve(...,
want_witness=True): each witness is checked against the graph, and the
report's blocks and counts against those of solve(g, t) without a
witness. The same targets go through extract_witness on one trace per
instance, each witness checked too; afterwards feasible_red_counts on
that trace must still give the oracle's set, so a root's partial set
that leaks into the memo aborts the run. The final line counts, over
every (graph, t), the certified
blocks by the certificate that settled them (roots and subproblems below
them), the roots the pair decided and those still decided by the probe,
the roots left open, the chord-decided roots whose pass stopped before it
read every record, and the witnesses by their source: the exchange's
reach with whole cycles switched, or only with a chord (both switched
matchings), else a unit cycle of M_lo or M_hi for t_min + 1 or t_max - 1
(_unit_cycle), else a pair's switched matching, else row forcing. The run
stops at --budget seconds or --max-instances.
One draw in GAP_SHARE is a dense graph gap-colored (red iff row and column
lie on opposite halves), so every red count is even and the odd targets
inside its bounds are zeros the grid must certify. One draw
in MULTI_SHARE (gap draws take precedence) is a node graph of decompose(g)
for a matching-covered random g: the blocks below its root are multigraphs,
with a parallel cell wherever crossing records of both colors meet. One
draw in DIAG_SHARE (the two above take precedence) is K_n,n with a red
diagonal: its hole at n - 1 = t_max - 1 is zero at every lam node and lies
in the class of its records, and the unit cycles refute it with no
determinant. Its achievable set has a closed form, so it needs no DP oracle
and its n reaches DIAG_MAX_N whatever --max-n is. One draw in CIRC_SHARE
(the three above take precedence) is a circulant: the diagonal step and
one to three random others, the diagonal red, a blue back arc (r, r - 1)
at random rows, and a few recolored cells. Most of these are braces, and
some of their interior holes are left open by every certificate, so the
root's grid must refute them (tests/test_solver.py pins three closed
forms). The final line also counts the NO roots that are braces the grid
decided. Any disagreement,
congruence mismatch, bad witness or report
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
    circulant,
    knn,
    random_graph,
    serialize_ebg,
    with_coloring,
)
from exactmatch.matching import _elementary, is_matching_covered
from exactmatch.solver import (
    SolveTrace,
    SolverOptions,
    _assignments,
    _chords,
    _congruence,
    _exchange,
    _pair,
    extract_witness,
    feasible_red_counts,
    solve,
)
from exactmatch.verify.core import congruence_by_walk, red_count_set_dp


# The DP oracle's time grows with C(n, n/2) reachable column sets, and the
# solver's with the grid on large braces; past 14 one instance can take
# longer than a typical budget.
MAX_N = 14
# Up to this size every achievable target's witness is extracted and checked.
WITNESS_ALL_N = 10
GAP_SHARE = 4
MULTI_SHARE = 3
DIAG_SHARE = 5
CIRC_SHARE = 7
# The diagonal draw's closed form costs nothing, and the unit cycles
# decide its hole, so its size reaches this, past --max-n and MAX_N.
DIAG_MAX_N = 64
# The methods of a block its certificates settled.
CERTIFICATES = (
    "bounds", "exchange", "congruence", "chord", "unit", "pair", "probe",
)


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


def circulant_draw(rng: random.Random, n: int) -> ColoredBipartiteGraph:
    """circulant(n, steps) for step 0 and one to three random others, with
    the diagonal red, a blue back arc (r, r - 1 mod n) at rows drawn with
    probability 1/8 where the cell is free, and up to two cells recolored."""
    others = rng.sample(range(1, n), min(n - 1, rng.randint(1, 3)))
    cells = {
        (r, c): RED if r == c else BLUE
        for r, c, _ in circulant(n, [0] + others).edges
    }
    for r in range(n):
        if rng.random() < 0.125:
            cells.setdefault((r, (r - 1) % n), BLUE)
    for cell in rng.sample(sorted(cells), rng.randint(0, 2)):
        cells[cell] = RED + BLUE - cells[cell]
    return ColoredBipartiteGraph.make(
        n, [(r, c, k) for (r, c), k in cells.items()]
    )


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
    # witnesses from whole cycles, a chord, a unit cycle, a pair, row forcing
    switched = chord_wits = unit = pair_wits = forced = 0
    stopped = 0  # chord roots whose pass left records unread
    grid_nos = 0  # NO roots that are braces the grid decided
    settled: Counter = Counter()  # certified blocks by method, open roots
    roots: Counter = Counter()  # roots the pair or the probe decided
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
            n = rng.randint(2, DIAG_MAX_N)
            g = with_coloring(knn(n), red="diag")
            oracle = diagonal_red_counts
        elif instances % CIRC_SHARE == CIRC_SHARE - 1:
            g = circulant_draw(rng, n)
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
        d = _elementary(g)
        for name, records in (
            ("records", g.edges),
            ("allowed records", d.allowed() if d else None),
        ):
            if records is None:
                continue
            walked = congruence_by_walk(g.n, records)
            passed = _congruence(g.n, records)
            if passed != walked:
                print(
                    f"CONGRUENCE MISMATCH on the {name}: one pass {passed}, "
                    f"spanning walk {walked}"
                )
                sys.stdout.write(wire(g))
                return 1
        found = _assignments(g)
        reach = chord_reach = pair_reach = 0
        units = set()  # t_min + 1 and t_max - 1
        if found is not None:
            exchange = _exchange(*found)
            chorded = _chords(g, exchange)  # the full pass, t None
            reach, chord_reach = exchange.reach(), chorded.reach()
            units = {exchange.t_min + 1, exchange.t_max - 1}
            for backward in (False, True):  # full passes; the root's rung
                pair_reach |= _chords(g, _pair(g, backward), None, False).reach()
        outside = [
            t for t in range(g.n + 1)
            if (reach | chord_reach | pair_reach) >> t & 1 and t not in want
        ]
        if outside:
            print(
                f"EXCHANGE, CHORD OR PAIR REACH OUTSIDE THE ORACLE at "
                f"t={outside}"
            )
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
                grid_nos += (
                    not decided
                    and counts["subproblems"] == counts["braces"] == 1
                )
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
            if root.method == "chord":
                if not chord_reach >> t & 1 or any(
                    not chord_reach >> s & 1 for s in proved
                ):
                    print(
                        f"CHORD ROOT OUTSIDE THE FULL PASS at t={t}: proved "
                        f"{sorted(proved)}, full pass reach {chord_reach:b}"
                    )
                    sys.stdout.write(wire(g))
                    return 1
                stopped += _chords(g, exchange, t).chords != chorded.chords
            if root.method in ("pair", "probe"):
                roots[root.method] += 1
            if root.method == "pair":
                witness = solve(g, t, SolverOptions(want_witness=True)).witness
                if not witness_ok(g, t, witness):
                    print(f"BAD PAIR WITNESS at t={t}: {witness}")
                    sys.stdout.write(wire(g))
                    return 1
        targets = sorted(want)
        if targets and g.n > WITNESS_ALL_N:
            targets = [rng.choice(targets)]
        trace = SolveTrace()  # one per instance, across its targets
        for t in targets:
            witness = extract_witness(g, t, trace)
            if not witness_ok(g, t, witness):
                print(f"BAD EXTRACTED WITNESS at t={t}: {witness}")
                sys.stdout.write(wire(g))
                return 1
            report = solve(g, t, SolverOptions(want_witness=True))
            witnesses += 1
            switched += bool(reach >> t & 1)
            chord_wits += bool((chord_reach & ~reach) >> t & 1)
            unreached = not (reach | chord_reach) >> t & 1
            unit += unreached and t in units
            paired = unreached and t not in units and pair_reach >> t & 1
            pair_wits += paired
            forced += unreached and t not in units and not paired
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
        reused = feasible_red_counts(g, trace)
        if reused != want:
            print(
                f"MEMO NOT WHOLE after witnesses at {targets}: "
                f"{sorted(reused)}, oracle {sorted(want)}"
            )
            sys.stdout.write(wire(g))
            return 1
    blocks = ", ".join(f"{settled[name]} {name}" for name in CERTIFICATES)
    print(
        f"ok: {instances} instances ({past} past --max-n), {decisions} "
        f"decisions (certified blocks: {blocks}; {roots['pair']} roots "
        f"decided by the pair, {roots['probe']} still by the probe; "
        f"{settled['open roots']} open roots, {grid_nos} of them NO "
        f"braces the grid decided, "
        f"{settled['roots without a perfect matching']} without a perfect "
        f"matching; {stopped} chord roots stopped early), {witnesses} "
        f"witnesses ({switched} from whole exchange cycles, {chord_wits} "
        f"from a chord, "
        f"{unit} from a unit cycle, {pair_wits} from a pair, {forced} by "
        f"row forcing), "
        f"0 disagreements"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
