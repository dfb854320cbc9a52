#!/usr/bin/env python3
"""Timing sweep over random brace instances.

Prints one row per size with the median wall time over --repeats runs,
then a JSON line with everything, so runs can be diffed across machines.
"""

import argparse
import json
import statistics
import sys
from dataclasses import dataclass, field

sys.path.insert(0, "src")

from exactmatch.solver import bench


@dataclass
class SweepConfig:
    sizes: list = field(default_factory=lambda: [4, 6, 8, 10, 12])
    repeats: int = 3
    seed: int = 0
    json_out: str = ""


def parse_args(argv) -> SweepConfig:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", default="4,6,8,10,12", help="comma-separated n values")
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--json-out", default="", help="write rows as JSON to this file")
    ns = ap.parse_args(argv)
    sizes = [int(tok) for tok in ns.sizes.split(",") if tok.strip()]
    if not sizes or any(n < 1 for n in sizes):
        ap.error("need at least one positive size")
    return SweepConfig(sizes, ns.repeats, ns.seed, ns.json_out)


def main(argv=None) -> int:
    cfg = parse_args(argv)
    rows = []
    print(f"{'n':>4} {'t':>4} {'median_ms':>10} {'runs_ms'}")
    for n in cfg.sizes:
        runs = [bench([n], seed=cfg.seed + r)[0] for r in range(cfg.repeats)]
        med = statistics.median(r["ms"] for r in runs)
        print(
            f"{n:>4} {runs[0]['t']:>4} {med:>10.1f} "
            + " ".join(str(r["ms"]) for r in runs)
        )
        rows.append({"n": n, "median_ms": med, "runs": runs})
    if cfg.json_out:
        with open(cfg.json_out, "w") as fh:
            json.dump({"seed": cfg.seed, "repeats": cfg.repeats, "rows": rows}, fh)
        print(f"wrote {cfg.json_out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
