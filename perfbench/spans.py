"""Outside-in spans around exactmatch's public functions.

The program is not edited: install() replaces each traced function, in
every exactmatch module that holds a reference to it, with a wrapper that
records a span, and uninstall() puts the originals back. Modules bind
names at import (solver binds is_brace, det_rows, decompose, ...), so
patching only the defining module would miss most calls.

Span rules:
  * .calls counts outermost entries; a call made while a span of the same
    name is open (recursion, or without() calling induced()) belongs to
    that span;
  * .ms is inclusive wall time, .self_ms is .ms minus the time of the
    spans of other names opened directly inside it.
"""

from __future__ import annotations

import itertools
import sys
import time
from collections import Counter

# span name -> (module, attribute); a module path with a class name after
# ":" patches a method on that class.
TRACED = {
    "graphs.parse_ebg": ("exactmatch.graphs", "parse_ebg"),
    "graphs.subgraph": (
        "exactmatch.graphs:ColoredBipartiteGraph", ("induced", "without")),
    "matching.is_brace": ("exactmatch.matching", "is_brace"),
    "matching.find_tight_set": ("exactmatch.matching", "find_tight_set"),
    "matching.allowed_edges": ("exactmatch.matching", "allowed_edges"),
    "matching.max_matching": ("exactmatch.matching", "max_matching"),
    "decomposition.decompose": ("exactmatch.decomposition", "decompose"),
    "algebra.det_rows": ("exactmatch.algebra", "det_rows"),
    "algebra.interpolate": ("exactmatch.algebra", "interpolate"),
    "solver.red_count_bounds": ("exactmatch.solver", "red_count_bounds"),
    "solver.grid": (
        "exactmatch.solver:EvaluationGrid", ("nonvanishing_targets",)),
    "solver.feasible_red_counts": ("exactmatch.solver", "feasible_red_counts"),
    "solver.extract_witness": ("exactmatch.solver", "extract_witness"),
    "solver.solve": ("exactmatch.solver", "solve"),
}

# Counters that must repeat exactly when the same queries run again.
DETERMINISTIC = (
    "solver.subproblems",
    "solver.memo_hits",
    "solver.recursion_depth_max",
    "solver.grid.lam_nodes",
    "solver.grid.full_sweeps",
    "algebra.det_rows.calls",
    "matching.is_brace.calls",
    "matching.is_brace.true",
    "decomposition.leaves",
)

_RECURSION = "solver.feasible_red_counts"


class Tracer:
    """Span and counter state for one traced stretch of queries."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.ms: Counter = Counter()
        self.child_ms: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # [name, child seconds]
        self._open: set[str] = set()
        self._seen: set = set()  # graphs fed to the recursion this solve
        self._depth = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------

    def _span(self, name, fn, args, kwargs):
        if name in self._open:
            return fn(*args, **kwargs)
        self.calls[name] += 1
        self._open.add(name)
        self._stack.append([name, 0.0])
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            _, child = self._stack.pop()
            self._open.discard(name)
            self.ms[name] += dt * 1000
            self.child_ms[name] += child * 1000
            if self._stack:
                self._stack[-1][1] += dt

    def _wrap(self, name, fn):
        # A method _on_<name, dots as underscores> opens the span itself and
        # counts what that function needs counted around it.
        hook = getattr(self, "_on_" + name.replace(".", "_"), None)
        if hook is not None:
            def wrapper(*args, **kwargs):
                return hook(fn, *args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                return self._span(name, fn, args, kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    # -- per-function bookkeeping ----------------------------------------

    def _on_solver_solve(self, fn, *args, **kwargs):
        self._seen = set()
        return self._span("solver.solve", fn, args, kwargs)

    def _on_solver_feasible_red_counts(self, fn, g, *args, **kwargs):
        key = (g.n, g.edges, g.multi)
        if key in self._seen:
            self.counts["solver.memo_hits"] += 1
        else:
            self._seen.add(key)
            self.counts["solver.subproblems"] += 1
        self._depth += 1
        self.counts["solver.recursion_depth_max"] = max(
            self.counts["solver.recursion_depth_max"], self._depth)
        try:
            return self._span(_RECURSION, fn, (g,) + args, kwargs)
        finally:
            self._depth -= 1

    def _on_matching_is_brace(self, fn, *args, **kwargs):
        result = self._span("matching.is_brace", fn, args, kwargs)
        self.counts["matching.is_brace.true"] += bool(result)
        return result

    def _on_decomposition_decompose(self, fn, *args, **kwargs):
        tree = self._span("decomposition.decompose", fn, args, kwargs)
        self.counts["decomposition.leaves"] += len(self._leaves(tree))
        return tree

    def _on_algebra_det_rows(self, fn, rows, *args, **kwargs):
        bits = max(map(abs, itertools.chain.from_iterable(rows)),
                   default=0).bit_length()
        self.counts["algebra.det_rows.entry_bits_max"] = max(
            self.counts["algebra.det_rows.entry_bits_max"], bits)
        return self._span("algebra.det_rows", fn, (rows,) + args, kwargs)

    def _on_solver_grid(self, fn, grid, g, candidates, *args, **kwargs):
        before = self.counts["solver.grid.lam_nodes"]
        start = self.ms["solver.grid"]
        in_recursion = _RECURSION in self._open
        found = self._span(
            "solver.grid", fn, (grid, g, candidates) + args, kwargs)
        swept = self.counts["solver.grid.lam_nodes"] - before
        if swept == len(grid.lam_nodes) and len(found) < len(candidates):
            self.counts["solver.grid.full_sweeps"] += 1
        if not in_recursion:
            self.counts["solver.grid.report_ms"] += (
                self.ms["solver.grid"] - start)
        return found

    def _count_lam_node(self, fn):
        def wrapper(*args, **kwargs):
            self.counts["solver.grid.lam_nodes"] += 1
            return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    # -- install / uninstall ---------------------------------------------

    def install(self) -> None:
        """Patch every exactmatch module and class that holds a traced name."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        from exactmatch import decomposition, solver

        self._leaves = decomposition.leaves
        modules = [m for name, m in list(sys.modules.items())
                   if name == "exactmatch" or name.startswith("exactmatch.")]
        for name, (where, attrs) in TRACED.items():
            mod_name, _, cls_name = where.partition(":")
            owner = sys.modules[mod_name]
            if cls_name:
                cls = getattr(owner, cls_name)
                for attr in attrs:
                    self._patch(cls, attr, self._wrap(name, getattr(cls, attr)))
                continue
            original = getattr(owner, attrs)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)
        grid = solver.EvaluationGrid
        self._patch(grid, "x_coefficients",
                    self._count_lam_node(grid.x_coefficients))

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------

    def deterministic_counts(self) -> dict:
        merged = dict(self.counts)
        merged["algebra.det_rows.calls"] = self.calls["algebra.det_rows"]
        merged["matching.is_brace.calls"] = self.calls["matching.is_brace"]
        return {k: merged.get(k, 0) for k in DETERMINISTIC}

    def snapshot(self) -> dict:
        """Everything recorded so far, as plain numbers."""
        return {
            "calls": dict(self.calls),
            "ms": dict(self.ms),
            "child_ms": dict(self.child_ms),
            "counts": dict(self.counts),
        }
