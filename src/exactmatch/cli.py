"""Command-line surface: solve, poly, decompose, gen, verify, bench.

Exit codes: 0 = success (or decision YES), 1 = decision NO (solve only),
2 = usage error (bad flags, missing file, unknown family/suite),
3 = runtime error (unsupported size, non-matching-covered input, caps).
Output for a fixed (command, flags, seed) is byte-identical across runs
except for clearly marked timing fields.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence

from .decomposition import decompose, leaves, to_dot
from .errors import (
    BadParams,
    BadVersion,
    EbgSyntaxError,
    ExactMatchingError,
)
from .graphs import FAMILIES, gen_family, parse_ebg, serialize_ebg
from .solver import SolverOptions, bench, pt_polynomial, solve
from .verify.suites import SUITES, run_suite

EXIT_OK = 0
EXIT_NO = 1
EXIT_USAGE = 2
EXIT_RUNTIME = 3


def _load_graph(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_ebg(fh.read())


# ---------------------------------------------------------------------------
# subcommands


def cmd_solve(args: argparse.Namespace) -> int:
    g = _load_graph(args.input)
    report = solve(g, args.target, SolverOptions(want_witness=args.witness))
    if args.json:
        print(json.dumps(report.to_json_dict(), separators=(",", ":")))
    else:
        print("YES" if report.decision else "NO")
        if args.witness and report.witness is not None:
            for r, c, k in report.witness:
                print(f"edge {r} {c} {k}")
    return EXIT_OK if report.decision else EXIT_NO


def cmd_poly(args: argparse.Namespace) -> int:
    g = _load_graph(args.input)
    p = pt_polynomial(g, args.target)
    coeffs = list(p.coeffs) if p.coeffs else [0]
    print(" ".join(str(c) for c in coeffs))
    return EXIT_OK


def cmd_decompose(args: argparse.Namespace) -> int:
    g = _load_graph(args.input)
    node = decompose(g)
    blocks = leaves(node)
    print(f"blocks: {len(blocks)}")
    for i, leaf in enumerate(blocks):
        kind = "multi" if leaf.block.has_parallel_cells else "simple"
        print(f"block {i}: n={leaf.graph.n} {kind}")
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(to_dot(node) + "\n")
    return EXIT_OK


def _parse_red_cells(tokens: Sequence[str]) -> List[tuple]:
    cells = []
    for tok in tokens:
        parts = tok.split(",")
        if len(parts) != 2:
            raise BadParams(f"red cell {tok!r} is not of the form r,c")
        cells.append((int(parts[0]), int(parts[1])))
    return cells


def cmd_gen(args: argparse.Namespace) -> int:
    if args.red == "list":
        red: object = _parse_red_cells(args.red_cells or [])
    else:
        red = args.red
    g = gen_family(
        args.family,
        n=args.n,
        m=args.m,
        density=args.density,
        red=red,
        red_prob=args.red_prob,
        seed=args.seed,
        require_pm=args.require_pm,
    )
    sys.stdout.write(serialize_ebg(g))
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    report = run_suite(args.suite, n=args.n, seed=args.seed, trials=args.trials)
    print(report.summary())
    if not report.passed:
        for check in report.checks:
            if not check.passed:
                print(f"FAIL {check.name} {check.detail}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def cmd_bench(args: argparse.Namespace) -> int:
    sizes = []
    for tok in args.sizes.split(","):
        tok = tok.strip()
        if not tok:
            continue
        size = int(tok)
        if size < 1:
            raise BadParams(f"size {size} is not positive")
        sizes.append(size)
    if not sizes:
        raise BadParams("no sizes given")
    rows = bench(sizes, seed=args.seed)
    print(f"{'n':>4} {'t':>4} {'decision':>8} {'ms':>10}")
    for row in rows:
        print(
            f"{row['n']:>4} {row['t']:>4} {row['decision']:>8} {row['ms']:>10}"
        )
    print(json.dumps({"schema": "exactmatch/bench/1", "rows": rows}))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exactmatch",
        description="Exact matching: perfect matchings with a prescribed red-edge count.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="decide a red-count target")
    p_solve.add_argument("--input", required=True, help="EBG graph file")
    p_solve.add_argument("--target", required=True, type=int, help="red count t")
    p_solve.add_argument("--witness", action="store_true")
    p_solve.add_argument("--json", action="store_true")
    p_solve.set_defaults(func=cmd_solve)

    p_poly = sub.add_parser("poly", help="print exact-t polynomial coefficients")
    p_poly.add_argument("--input", required=True)
    p_poly.add_argument("--target", required=True, type=int)
    p_poly.set_defaults(func=cmd_poly)

    p_dec = sub.add_parser("decompose", help="tight-cut block listing")
    p_dec.add_argument("--input", required=True)
    p_dec.add_argument("--dot", help="write the tree as DOT to this path")
    p_dec.set_defaults(func=cmd_decompose)

    p_gen = sub.add_parser("gen", help="emit a family instance as EBG")
    p_gen.add_argument("--family", required=True, choices=FAMILIES)
    p_gen.add_argument("--n", type=int)
    p_gen.add_argument("--m", type=int)
    p_gen.add_argument("--density", type=float, default=0.5)
    p_gen.add_argument(
        "--red", default="none", choices=("none", "diag", "list", "bernoulli")
    )
    p_gen.add_argument("--red-cells", nargs="*", metavar="R,C")
    p_gen.add_argument("--red-prob", type=float, default=0.5)
    p_gen.add_argument("--seed", type=int)
    p_gen.add_argument("--require-pm", action="store_true")
    p_gen.set_defaults(func=cmd_gen)

    p_ver = sub.add_parser("verify", help="run a named verification suite")
    p_ver.add_argument("--suite", required=True, choices=sorted(SUITES))
    p_ver.add_argument("--n", type=int)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--trials", type=int)
    p_ver.set_defaults(func=cmd_verify)

    p_bench = sub.add_parser("bench", help="timing sweep over random braces")
    p_bench.add_argument("--sizes", required=True, help="comma-separated, e.g. 10,20")
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.set_defaults(func=cmd_bench)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (
        BadParams,
        EbgSyntaxError,
        BadVersion,
        FileNotFoundError,
        IsADirectoryError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ExactMatchingError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
