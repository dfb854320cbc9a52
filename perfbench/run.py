"""Closed-loop solve() benchmark for exactmatch.

    python3 perfbench/run.py --workload brace-dense --seed 1 --seconds 20 --trace 0

One caller, one thread: each query is sent only after the previous answer
came back. The workload's graphs are drawn from --seed by the benchmark's
own RNG and handed to the program as .ebg text; expected answers come from
an independent DP oracle (oracle.py), and every answer is checked after the
timed loop ends.

--trace 0 reports the end-to-end metrics: latency percentiles, throughput,
set-up time and peak memory. --trace 1 runs a fixed prefix of the queries
once untraced and twice with spans around each exactmatch module's public
functions (spans.py), reports per-layer calls, inclusive and self time and
counters, and fails the run if the deterministic counters differ between
the two traced passes. The last line of stdout is one JSON object.

Timings are given at reference host speed. A shared host slows this
single-threaded Python code by up to 1.8x for seconds at a time, which
moved raw timings of identical runs by 20-30%. So a fixed pure-Python job,
the probe, runs before the first query and after every query, and each
query's time is multiplied by REFERENCE_PROBE_S over the mean of the probe
times on either side of it; each set-up likewise by REFERENCE_PROBE_S over
the median of three probes before and three after it. The raw timings are
printed alongside.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import oracle
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# name -> (size or family pattern, pattern repeats, traced query count).
# The pattern fixes the mix of sizes in every prefix of the query list, and
# weights it so that p50 and p90 fall inside one size's cluster of
# latencies rather than on the gap between two clusters. The instances
# cover one 20-second run of the code the benchmark was written against;
# faster code wraps around to the first query.
WORKLOADS = {
    "brace-dense": ((11, 10, 11, 12, 11), 60, 60),
    "split-sparse": ((10, 11, 12, 11, 10), 180, 240),
    "gap-brace": ((9, 8, 9, 10, 9), 40, 60),
    "witness-mixed": (("biwheel", "random", "band_path"), 90, 60),
}
# The probe's time on an uncontended 2-core Xeon VM (Python 3.11).
REFERENCE_PROBE_S = 0.0014
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 170


def build_workload(name: str, seed: int) -> dict:
    pattern, repeats, traced = WORKLOADS[name]
    return dict(workloads.build(name, seed, pattern * repeats), traced=traced)


def call_child(request: dict) -> dict:
    """Run child.py on one request; raises RuntimeError if it fails."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py")],
        input=json.dumps(request), capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"child.py {request['mode']} exited {proc.returncode}:\n"
            f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def check_answers(wl: dict, answers: list) -> list:
    """Oracle verdicts, one per answer: None if correct, else why not."""
    graphs = [_edges(text) for text in wl["texts"]]
    verdicts = []
    for qi, decision, witness, _elapsed, error, *_probes in answers:
        q = wl["queries"][qi]
        n, edges = graphs[q["instance"]]
        if error is not None:
            verdicts.append(error)
        elif decision != q["expected"]:
            verdicts.append(f"decision {decision}, oracle {q['expected']}")
        elif q["want_witness"]:
            verdicts.append(oracle.witness_error(n, edges, q["target"], witness))
        else:
            verdicts.append(None)
    return verdicts


def _edges(text: str):
    n, edges = 0, []
    for line in text.splitlines():
        parts = line.split()
        if parts[0] == "n":
            n = int(parts[1])
        elif parts[0] == "e":
            edges.append(tuple(int(p) for p in parts[1:]))
    return n, edges


def quantile(values: list, q: int) -> float:
    """The q-th percentile (q in 1..99) by statistics.quantiles."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def at_reference(seconds: float, probe_s: float) -> float:
    """A time taken while the probe took probe_s, at reference speed."""
    return seconds * REFERENCE_PROBE_S / probe_s


def end_to_end(setups: list, reply: dict, verdicts: list) -> tuple:
    """(metrics with timings at reference speed, the same from raw timings)."""
    out = []
    for scaled in (True, False):
        ms = [1000 * (at_reference(a[3], (a[5] + a[6]) / 2) if scaled else a[3])
              for a in reply["answers"]]
        setup = [at_reference(s["setup_s"], statistics.median(s["probes"]))
                 if scaled else s["setup_s"] for s in setups]
        correct = sum(v is None for v in verdicts)
        out.append({
            "query_ms_p50": (quantile(ms, 50), "ms"),
            "query_ms_p90": (quantile(ms, 90), "ms"),
            "queries_per_s": (correct * 1000 / sum(ms), "1/s"),
            "peak_rss_mb": (reply["peak_rss_mb"], "MB"),
            "setup_s": (statistics.median(setup), "s"),
        })
    return tuple(out)


def per_layer(reply: dict) -> dict:
    """Per-layer metrics from the two traced passes (times averaged)."""
    from spans import TRACED

    passes = reply["passes"]
    counts = passes[0]["counts"]
    out = {}
    for name in TRACED:
        src = [reply["parse"]] if name == "graphs.parse_ebg" else passes
        ms = sum(s["ms"].get(name, 0.0) for s in src) / len(src)
        child = sum(s["child_ms"].get(name, 0.0) for s in src) / len(src)
        out[f"{name}.calls"] = (src[0]["calls"].get(name, 0), "count")
        out[f"{name}.ms"] = (ms, "ms")
        out[f"{name}.self_ms"] = (ms - child, "ms")
    sub = counts.get("solver.subproblems", 0)
    hits = counts.get("solver.memo_hits", 0)
    brace_calls = passes[0]["calls"].get("matching.is_brace", 0)
    for key in ("solver.subproblems", "solver.memo_hits",
                "solver.recursion_depth_max", "solver.grid.lam_nodes",
                "solver.grid.full_sweeps", "decomposition.leaves"):
        out[key] = (counts.get(key, 0), "count")
    out["solver.memo_hit_ratio"] = (hits / (sub + hits) if sub + hits else 0.0,
                                    "ratio")
    out["solver.grid.report_ms"] = (
        sum(p["counts"].get("solver.grid.report_ms", 0.0) for p in passes)
        / len(passes), "ms")
    out["algebra.det_rows.entry_bits_max"] = (
        counts.get("algebra.det_rows.entry_bits_max", 0), "bits")
    out["matching.is_brace.true_ratio"] = (
        counts.get("matching.is_brace.true", 0) / brace_calls
        if brace_calls else 0.0, "ratio")
    traced_s = sum(p["wall_s"] for p in passes) / len(passes)
    out["trace.overhead_frac"] = (traced_s / reply["untraced_s"] - 1, "ratio")
    return out


def layer_shares(layers: dict) -> dict:
    """Self time of each module's spans as a share of all solve() time."""
    total = layers["solver.solve.ms"][0]
    shares: dict = {}
    for key, (value, _unit) in layers.items():
        if key.endswith(".self_ms") and not key.startswith("graphs.parse_ebg"):
            module = key.split(".")[0]
            shares[module] = shares.get(module, 0.0) + value
    return {m: v / total for m, v in shares.items()} if total else {}


def deterministic_mismatch(reply: dict) -> list:
    a, b = (p["deterministic"] for p in reply["passes"])
    return [f"counter {k}: {a[k]} then {b[k]}" for k in a if a[k] != b[k]]


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run: the result object, the raw timings, any problems,
    and the workload and child reply for further reporting."""
    wl = build_workload(name, seed)
    texts = wl["texts"]
    problems, raw = [], {}
    if trace:
        reply = call_child({"mode": "trace", "texts": texts,
                            "queries": wl["queries"], "count": wl["traced"]})
        problems += deterministic_mismatch(reply)
    else:
        setups = [call_child({"mode": "setup", "texts": texts})
                  for _ in range(SETUP_REPEATS)]
        reply = call_child({"mode": "measure", "texts": texts,
                            "queries": wl["queries"], "seconds": seconds})
    verdicts = check_answers(wl, reply["answers"])
    failed = sum(v is not None for v in verdicts)
    problems += [f"query {a[0]}: {v}" for a, v in zip(reply["answers"], verdicts)
                 if v is not None][:10]
    if trace:
        metrics = per_layer(reply)
    else:
        metrics, raw = end_to_end(setups, reply, verdicts)
    return {
        "result": {
            "correct": failed == 0 and not problems,
            "attempted": len(verdicts),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
        "raw": raw,
        "problems": problems,
        "workload": wl,
        "reply": reply,
    }


def print_run(out: dict, indent: str = "") -> None:
    """Every metric of a run by name and unit, then failed_frac."""
    result = out["result"]
    for problem in out["problems"]:
        print(f"{indent}problem: {problem}")
    for key, m in result["metrics"].items():
        print(f"{indent}{key:42s} {m['value']:14.4f} {m['unit']}")
    for key, (value, unit) in out["raw"].items():
        if unit in ("ms", "s", "1/s"):
            print(f"{indent}{'raw ' + key:42s} {value:14.4f} {unit}")
    print(f"{indent}{'failed_frac':42s} "
          f"{result['failed'] / result['attempted']:14.4f} ratio  "
          f"({result['failed']} of {result['attempted']} queries)")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print_run(out)
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
