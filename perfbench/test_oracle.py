"""Checks of the benchmark's own oracle, generator and tracer.

    PYTHONPATH=src python3 -m pytest perfbench/test_oracle.py -q
"""

from __future__ import annotations

import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import oracle  # noqa: E402
import workloads  # noqa: E402
from exactmatch import matching, solver  # noqa: E402
from exactmatch.graphs import ColoredBipartiteGraph, parse_ebg  # noqa: E402
from exactmatch.verify.core import red_count_set  # noqa: E402
from spans import Tracer  # noqa: E402


def _random_graphs(max_n: int, per_n: int):
    rng = random.Random(20261017)
    for n in range(max_n + 1):
        for i in range(per_n):
            density = (0.3, 0.5, 0.7, 0.9, 1.0)[i % 5]
            edges = [(r, c, rng.randint(0, 1)) for r in range(n)
                     for c in range(n) if rng.random() < density]
            yield n, edges


def test_red_counts_match_enumeration_up_to_n8():
    for n, edges in _random_graphs(8, 60):
        g = ColoredBipartiteGraph.make(n, edges)
        assert oracle.red_counts(n, edges) == red_count_set(g), (n, edges)


def test_is_brace_matches_edge_pair_definition_up_to_n7():
    seen = {True: 0, False: 0}
    for n, edges in _random_graphs(7, 80):
        expected = matching.is_brace(ColoredBipartiteGraph.make(n, edges))
        assert oracle.is_brace(n, edges) == expected, (n, edges)
        seen[expected] += 1
    assert min(seen.values()) > 50  # both answers were exercised


def test_witness_error_rejects_bad_matchings():
    edges = [(0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1)]
    assert oracle.witness_error(2, edges, 2, [(0, 0, 1), (1, 1, 1)]) is None
    assert oracle.witness_error(2, edges, 0, [(0, 1, 0), (1, 0, 0)]) is None
    assert "red" in oracle.witness_error(2, edges, 1, [(0, 0, 1), (1, 1, 1)])
    assert "input" in oracle.witness_error(2, edges, 1, [(0, 0, 0), (1, 1, 1)])
    assert "columns" in oracle.witness_error(2, edges, 1, [(0, 1, 0), (1, 1, 1)])
    assert oracle.witness_error(2, edges, 2, None) is not None


def test_workloads_repeat_under_a_seed_and_vary_across_seeds():
    for name, sizes in [("brace-dense", [10, 11]), ("split-sparse", [10, 12]),
                        ("gap-brace", [8, 9]),
                        ("witness-mixed", ["biwheel", "random", "band_path"])]:
        a = workloads.build(name, 3, sizes)
        assert a == workloads.build(name, 3, sizes)
        assert a["texts"] != workloads.build(name, 4, sizes)["texts"]
        for q in a["queries"]:
            g = parse_ebg(a["texts"][q["instance"]])
            assert g.n == q["n"]


def test_gap_brace_alternates_even_yes_and_odd_no():
    wl = workloads.build("gap-brace", 5, [8, 9, 10])
    expected = [q["expected"] for q in wl["queries"]]
    assert expected == [True, False] * 3
    for q in wl["queries"]:
        assert q["target"] % 2 == (0 if q["expected"] else 1)


def test_tracer_restores_functions_and_repeats_counts():
    originals = (solver.is_brace, matching.is_brace, solver.det_rows,
                 ColoredBipartiteGraph.induced)
    g = parse_ebg(workloads.build("split-sparse", 1, [10])["texts"][0])
    counts = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            solver.solve(g, 3)
        finally:
            tracer.uninstall()
        counts.append(tracer.deterministic_counts())
        assert tracer.calls["solver.solve"] == 1
        assert tracer.counts["solver.subproblems"] >= 1
    assert counts[0] == counts[1]
    assert (solver.is_brace, matching.is_brace, solver.det_rows,
            ColoredBipartiteGraph.induced) == originals
