"""The measured process: imports exactmatch from the checkout and runs queries.

Reads one JSON request on stdin and writes one JSON reply on stdout.

  {"mode": "setup", "texts": [...]}
      time `import exactmatch` plus parse_ebg of every text.
  {"mode": "measure", "texts", "queries", "seconds"}
      closed loop over the queries (wrapping around) until `seconds` of
      wall time have passed; one solve() per query, one caller, one thread.
  {"mode": "trace", "texts", "queries", "count"}
      the first `count` queries once untraced, then twice traced.

A fixed reference job (the probe) runs around each timed stretch: before
and after set-up in setup mode, and before the first query and after every
query in measure mode. run.py uses its times to express timings at the
host's reference speed. Answers are returned raw; run.py checks them
against the oracle, so no checking happens inside any timed region.
"""

from __future__ import annotations

import gc
import json
import os
import random
import resource
import sys
import time

import oracle

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PROBE_WARMUP = 5
SETUP_PROBES = 3


def _probe_job():
    """A fixed 1-2 ms pure-Python job: the oracle's DP on one 11x11 graph."""
    rng = random.Random(0)
    edges = [(i, j, rng.randint(0, 1)) for i in range(11) for j in range(11)
             if rng.random() < 0.7]

    def probe() -> float:
        gc.disable()  # collecting the solver's garbage is not host speed
        try:
            t0 = time.perf_counter()
            oracle.red_counts(11, edges)
            return time.perf_counter() - t0
        finally:
            gc.enable()

    for _ in range(PROBE_WARMUP):
        probe()
    return probe


def _answer(solver, graphs, queries, i):
    q = queries[i]
    opts = solver.SolverOptions(want_witness=q["want_witness"])
    t0 = time.perf_counter()
    try:
        report = solver.solve(graphs[q["instance"]], q["target"], opts)
    except Exception as exc:  # a raising query is a failed query, not a crash
        return [i, None, None, time.perf_counter() - t0,
                f"{type(exc).__name__}: {exc}"]
    elapsed = time.perf_counter() - t0
    witness = None if report.witness is None else [list(e) for e in report.witness]
    return [i, report.decision, witness, elapsed, None]


def _measure(req, solver, graphs):
    """Answers as [query, decision, witness, seconds, error, probe before,
    probe after], for as many queries as fit in `seconds`."""
    queries = req["queries"]
    probe = _probe_job()
    before = probe()
    answers = []
    t0 = time.perf_counter()
    while not answers or time.perf_counter() - t0 < req["seconds"]:
        answer = _answer(solver, graphs, queries, len(answers) % len(queries))
        after = probe()
        answers.append(answer + [before, after])
        before = after
    return {"answers": answers}


def _trace(req, solver, graphs):
    from spans import Tracer

    queries, indices = req["queries"], range(req["count"])
    t0 = time.perf_counter()
    answers = [_answer(solver, graphs, queries, i) for i in indices]
    untraced_s = time.perf_counter() - t0
    passes = []
    for _ in range(2):
        tracer = Tracer()
        subproblems = []
        tracer.install()
        t0 = time.perf_counter()
        try:
            for i in indices:
                before = tracer.counts["solver.subproblems"]
                answers.append(_answer(solver, graphs, queries, i))
                subproblems.append(tracer.counts["solver.subproblems"] - before)
        finally:
            tracer.uninstall()
        passes.append({"wall_s": time.perf_counter() - t0,
                       "subproblems": subproblems,
                       "deterministic": tracer.deterministic_counts(),
                       **tracer.snapshot()})
    return {"answers": answers, "untraced_s": untraced_s, "passes": passes}


def main() -> int:
    req = json.load(sys.stdin)
    if req["mode"] == "setup":
        probe = _probe_job()
        before = [probe() for _ in range(SETUP_PROBES)]
    sys.path.insert(0, os.path.join(ROOT, "src"))
    tracer = None
    t0 = time.perf_counter()
    import exactmatch.graphs
    import exactmatch.solver

    if not exactmatch.__file__.startswith(os.path.join(ROOT, "src", "")):
        raise SystemExit(f"imported {exactmatch.__file__}, not the checkout's src/")

    if req["mode"] == "trace":
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        graphs = [exactmatch.graphs.parse_ebg(t) for t in req["texts"]]
    finally:
        if tracer is not None:
            tracer.uninstall()
    setup_s = time.perf_counter() - t0
    if req["mode"] == "setup":
        reply = {"setup_s": setup_s,
                 "probes": before + [probe() for _ in range(SETUP_PROBES)]}
    elif req["mode"] == "measure":
        reply = _measure(req, exactmatch.solver, graphs)
    else:
        reply = _trace(req, exactmatch.solver, graphs)
        reply["parse"] = tracer.snapshot()
    reply["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    json.dump(reply, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
