"""Print every end-to-end and per-layer metric, by name and unit.

    python3 perfbench/report.py [--workload NAME ...] [--seed 1] [--seconds 20]
    python3 perfbench/report.py --list-queries [--workload NAME ...] [--seed 1]

For each workload this makes one untraced and one traced run (the same
runs run.py makes), then prints the metrics, the share of solve() time each
module's own code takes, and, for brace-dense and split-sparse, one row per
graph size (median latency and subproblems per query) so that growth in n
shows. The first lines record the Python, numpy and scipy versions, the
CPU count and the git commit. --list-queries instead prints, as JSON
lines, every query a run would ask: family, n, density, instance seed,
target, expected decision and the workload's rationale.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys

import run

GROWTH_ROWS = ("brace-dense", "split-sparse")


def git_commit(root: str) -> str:
    """HEAD's commit id, read from .git without running git; '-' if absent."""
    head_path = os.path.join(root, ".git", "HEAD")
    try:
        with open(head_path) as f:
            head = f.read().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            ref_path = os.path.join(root, ".git", ref)
            if os.path.exists(ref_path):
                with open(ref_path) as f:
                    return f.read().strip()
            with open(os.path.join(root, ".git", "packed-refs")) as f:
                for line in f:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
        return head
    except OSError:
        return "-"


def environment() -> list[str]:
    import numpy
    import scipy

    return [
        f"python {platform.python_version()}  numpy {numpy.__version__}  "
        f"scipy {scipy.__version__}",
        f"nproc {os.cpu_count()}  commit {git_commit(run.ROOT)}",
    ]


def size_rows(workload: dict, untraced: dict, traced: dict) -> list[str]:
    """n -> median query ms (untraced run), median subproblems (traced)."""
    queries = workload["queries"]
    ms: dict[int, list[float]] = {}
    for qi, _d, _w, elapsed, *_ in untraced["answers"]:
        ms.setdefault(queries[qi]["n"], []).append(elapsed * 1000)
    subs: dict[int, list[int]] = {}
    for qi, count in enumerate(traced["passes"][0]["subproblems"]):
        subs.setdefault(queries[qi]["n"], []).append(count)
    rows = [f"  {'n':>3} {'queries':>8} {'median ms':>10} {'subproblems':>12}"]
    for n in sorted(ms):
        sub = statistics.median(subs[n]) if n in subs else float("nan")
        rows.append(f"  {n:>3} {len(ms[n]):>8} {statistics.median(ms[n]):>10.2f} "
                    f"{sub:>12.1f}")
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=sorted(run.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--list-queries", action="store_true")
    args = ap.parse_args(argv)
    names = args.workload or list(run.WORKLOADS)
    if args.list_queries:
        for name in names:
            for q in run.build_workload(name, args.seed)["queries"]:
                print(json.dumps({"workload": name, **q}))
        return 0
    for line in environment():
        print(line)
    ok = True
    for name in names:
        untraced = run.run(name, args.seed, args.seconds, trace=False)
        traced = run.run(name, args.seed, args.seconds, trace=True)
        print(f"\n== {name} (seed {args.seed}): {run.workloads.WHY[name]}")
        for out in (untraced, traced):
            ok &= out["result"]["correct"]
            run.print_run(out, indent="  ")
        layers = {k: (m["value"], m["unit"])
                  for k, m in traced["result"]["metrics"].items()}
        print("  self-time share of solve():")
        for module, share in sorted(run.layer_shares(layers).items(),
                                    key=lambda kv: -kv[1]):
            print(f"    {module:16s} {share:6.1%}")
        if name in GROWTH_ROWS:
            print("  per size:")
            for row in size_rows(untraced["workload"], untraced["reply"],
                                 traced["reply"]):
                print(row)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
