#!/usr/bin/env python3
"""Dump solve() reports as JSON lines, for byte-for-byte comparison of two trees.

Each line is one (graph, t, want_witness) query: where it comes from, then
the report's to_json_dict() without its timings (the witness included when
there is one). Two sets of queries:

  * perfbench: every distinct query of the four perfbench workloads at
    --seed, drawn by perfbench's own generator (perfbench/ is only read);
  * battery: a fixed set of small graphs at every t in -1..n+1, with and
    without a witness: random graphs n 2-12, gap-colored dense graphs,
    band_path, biwheel, and K_n,n with a red diagonal.

A change that must not move any report is checked by running this on both
trees and comparing the outputs:

    python3 scripts/dump_reports.py --seed 5 > new.jsonl
    (cd ../parent && python3 scripts/dump_reports.py --seed 5) > old.jsonl
    cmp old.jsonl new.jsonl

A change that may move counts but no decision is checked with --compare,
which matches the two dumps by query, prints how many reports differ in
each field (each counter of "counts" on its own) and exits 1 if a query is
in only one dump or any decision, block list or witness differs:

    python3 scripts/dump_reports.py --compare old.jsonl new.jsonl
"""

import argparse
import json
import os
import sys
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.dont_write_bytecode = True  # leave no cache files beside perfbench/
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from exactmatch.graphs import (  # noqa: E402
    band_path,
    biwheel,
    knn,
    parse_ebg,
    random_graph,
    with_coloring,
)
from exactmatch.solver import SolverOptions, solve  # noqa: E402

WORKLOADS = ("brace-dense", "split-sparse", "gap-brace", "witness-mixed")


def perfbench_queries(seed: int):
    """(source, graph, t, want_witness) for each distinct workload query."""
    import run  # perfbench/run.py: its size mix per workload

    for name in WORKLOADS:
        wl = run.build_workload(name, seed)
        seen = set()
        for q in wl["queries"]:
            key = (q["instance"], q["target"], q["want_witness"])
            if key in seen:
                continue
            seen.add(key)
            text = wl["texts"][q["instance"]]
            source = {"workload": name, "instance": q["instance"]}
            yield source, parse_ebg(text), q["target"], q["want_witness"]


def battery():
    """(name, graph) for the fixed small graphs."""
    for n in range(2, 13):
        for density in (0.5, 0.8):
            seed = 31000 + 10 * n + int(density * 10)
            yield f"random-n{n}-d{density}", random_graph(n, density, 0.5, seed=seed)
    for n in range(4, 11):  # red across the halves: every red count even
        g, half = random_graph(n, 0.8, 0.5, seed=32000 + n), n // 2
        red = [(r, c) for r, c, _ in g.edges if (r < half) != (c < half)]
        yield f"gap-n{n}", with_coloring(g, red=red)
    for m in (3, 5, 8, 12, 16):
        yield f"band_path{m}", with_coloring(band_path(m), red="bernoulli", seed=m)
    for m in (4, 6, 9, 12):
        yield f"biwheel{m}", with_coloring(biwheel(m), red="bernoulli", seed=m)
    for n in range(1, 9):
        yield f"knn{n}-diag", with_coloring(knn(n), red="diag")


def battery_queries():
    for name, g in battery():
        for t in range(-1, g.n + 2):
            for want_witness in (False, True):
                yield {"battery": name}, g, t, want_witness


def dump(queries, out) -> int:
    lines = 0
    for source, g, t, want_witness in queries:
        report = solve(g, t, SolverOptions(want_witness=want_witness))
        body = report.to_json_dict()
        del body["timings"]
        line = {"query": dict(source, t=t, want_witness=want_witness),
                "report": body}
        out.write(json.dumps(line, sort_keys=True) + "\n")
        lines += 1
    return lines


# fields whose change is a different answer, not a different count
GUARDED = ("decision", "blocks", "witness")


def load(path: str) -> dict:
    """query (as sorted JSON) -> report, for one dump."""
    with open(path) as f:
        lines = (json.loads(line) for line in f if line.strip())
        return {json.dumps(d["query"], sort_keys=True): d["report"]
                for d in lines}


def compare(old_path: str, new_path: str, out) -> int:
    """Per-field counts of differing reports; 1 on a guarded difference."""
    old, new = load(old_path), load(new_path)
    only = set(old) ^ set(new)
    diffs: Counter = Counter()
    for key in set(old) & set(new):
        a, b = old[key], new[key]
        for name in sorted(set(a) | set(b)):
            if name == "counts":
                counts_a, counts_b = a.get(name, {}), b.get(name, {})
                for count in sorted(set(counts_a) | set(counts_b)):
                    if counts_a.get(count) != counts_b.get(count):
                        diffs[f"counts.{count}"] += 1
            elif a.get(name) != b.get(name):
                diffs[name] += 1
    out.write(f"{len(set(old) & set(new))} reports compared, "
              f"{len(only)} queries in one dump only\n")
    for name in sorted(set(diffs) | set(GUARDED)):
        out.write(f"{name}: {diffs[name]} differ\n")
    return 1 if only or any(diffs[name] for name in GUARDED) else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=5,
                    help="perfbench workload seed (default 5)")
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                    help="compare two dumps instead of writing one")
    ns = ap.parse_args(argv)
    if ns.compare:
        return compare(*ns.compare, sys.stdout)
    lines = dump(perfbench_queries(ns.seed), sys.stdout)
    lines += dump(battery_queries(), sys.stdout)
    print(f"{lines} reports", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
