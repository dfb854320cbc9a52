"""Command-line surface, driven in-process through main(argv)."""

import json

import pytest

from exactmatch.cli import main
from exactmatch.graphs import knn, parse_ebg, serialize_ebg


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# solve


def test_solve_yes(fixtures_dir, capsys):
    code, out, _ = run(
        capsys, "solve", "--input", str(fixtures_dir / "k44_red_diag.ebg"),
        "--target", "2",
    )
    assert code == 0
    assert out == "YES\n"


def test_solve_no_exit_code(fixtures_dir, capsys):
    code, out, _ = run(
        capsys, "solve", "--input", str(fixtures_dir / "k44_red_diag.ebg"),
        "--target", "3",
    )
    assert code == 1
    assert out == "NO\n"


def test_solve_witness_lines(fixtures_dir, capsys):
    path = fixtures_dir / "k44_red_diag.ebg"
    code, out, _ = run(
        capsys, "solve", "--input", str(path), "--target", "2", "--witness"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "YES"
    g = parse_ebg(path.read_text())
    records = []
    for line in lines[1:]:
        tag, r, c, k = line.split()
        assert tag == "edge"
        records.append((int(r), int(c), int(k)))
    assert len(records) == 4
    assert all(rec in g.edges for rec in records)
    assert sum(1 for _, _, k in records if k == 1) == 2


def test_solve_json_report(fixtures_dir, capsys):
    # t = 1 = t_min + 1: a unit cycle of M_lo decides it and, with the
    # exchange's reach, proves {0, 1, 2, 4}
    code, out, _ = run(
        capsys, "solve", "--input", str(fixtures_dir / "k44_red_diag.ebg"),
        "--target", "1", "--json", "--witness",
    )
    assert code == 0
    assert len(out.strip().splitlines()) == 1
    doc = json.loads(out)
    assert doc["schema"] == "exactmatch/9"
    assert doc["decision"] == "YES"
    assert doc["n"] == 4 and doc["t"] == 1
    assert doc["blocks"] == [
        {"n": 4, "feasible_t": [0, 1, 2, 4], "method": "unit"}
    ]
    assert doc["counts"]["certified"] == 1 and doc["counts"]["braces"] == 0
    assert len(doc["witness"]) == 4
    assert set(doc["timings"]) == {"decide_ms", "witness_ms"}
    # the hole t = 3 = t_max - 1: no cycle of M_hi loses exactly one red
    # record, so the unit cycles refute it with no determinant
    code, out, _ = run(
        capsys, "solve", "--input", str(fixtures_dir / "k44_red_diag.ebg"),
        "--target", "3", "--json", "--witness",
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["schema"] == "exactmatch/9"
    assert doc["decision"] == "NO" and "witness" not in doc
    assert doc["blocks"] == [
        {"n": 4, "feasible_t": [0, 2, 4], "method": "unit"}
    ]
    assert doc["counts"]["braces"] == 0 and doc["counts"]["grid_dets"] == 0


def test_solve_json_deterministic_apart_from_timings(fixtures_dir, capsys):
    argv = (
        "solve", "--input", str(fixtures_dir / "band_path6.ebg"),
        "--target", "0", "--json",
    )
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    d1, d2 = json.loads(out1), json.loads(out2)
    d1.pop("timings")
    d2.pop("timings")
    assert d1 == d2


def test_solve_missing_file(capsys, tmp_path):
    code, _, err = run(
        capsys, "solve", "--input", str(tmp_path / "nope.ebg"), "--target", "0"
    )
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize(
    "flag", [("--threads", "2"), ("--fallback-brute", "8")]
)
def test_solve_removed_flags_are_usage_errors(fixtures_dir, capsys, flag):
    code, _, err = run(
        capsys, "solve", "--input", str(fixtures_dir / "k44_red_diag.ebg"),
        "--target", "2", *flag,
    )
    assert code == 2
    assert "unrecognized arguments" in err


# ---------------------------------------------------------------------------
# poly


@pytest.mark.parametrize(
    "target,want",
    [("1", "1 1"), ("0", "0 -1"), ("2", "0")],
)
def test_poly_outputs(fixtures_dir, capsys, target, want):
    code, out, _ = run(
        capsys, "poly", "--input", str(fixtures_dir / "k22_red00.ebg"),
        "--target", target,
    )
    assert code == 0
    assert out == want + "\n"


def test_poly_bad_file_syntax(capsys, tmp_path):
    bad = tmp_path / "bad.ebg"
    bad.write_text("ebg 1\nn 2\ne 0 0 9\n")
    code, _, err = run(capsys, "poly", "--input", str(bad), "--target", "0")
    assert code == 2
    assert "line 3" in err


# ---------------------------------------------------------------------------
# decompose


def test_decompose_c6(fixtures_dir, capsys):
    code, out, _ = run(
        capsys, "decompose", "--input", str(fixtures_dir / "c6.ebg")
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "blocks: 2"
    assert all(line.startswith("block ") and "n=2" in line for line in lines[1:])


def test_decompose_k33_single_block(fixtures_dir, capsys):
    code, out, _ = run(
        capsys, "decompose", "--input", str(fixtures_dir / "k33.ebg")
    )
    assert code == 0
    assert out == "blocks: 1\nblock 0: n=3 simple\n"


def test_decompose_dot_file(fixtures_dir, capsys, tmp_path):
    dot_path = tmp_path / "tree.dot"
    code, _, _ = run(
        capsys, "decompose", "--input", str(fixtures_dir / "c6.ebg"),
        "--dot", str(dot_path),
    )
    assert code == 0
    text = dot_path.read_text()
    assert text.startswith("digraph decomposition {")
    assert text.endswith("}\n")


def test_decompose_rejects_non_covered(fixtures_dir, capsys):
    code, _, err = run(
        capsys, "decompose", "--input", str(fixtures_dir / "non_covered.ebg")
    )
    assert code == 3
    assert "NotMatchingCovered" in err


# ---------------------------------------------------------------------------
# gen


def test_gen_knn_matches_library(capsys):
    code, out, _ = run(capsys, "gen", "--family", "knn", "--n", "3")
    assert code == 0
    assert out == serialize_ebg(knn(3))


def test_gen_deterministic(capsys):
    argv = (
        "gen", "--family", "random", "--n", "5", "--density", "0.6",
        "--red-prob", "0.4", "--seed", "11", "--require-pm",
    )
    _, out1, _ = run(capsys, *argv)
    code, out2, _ = run(capsys, *argv)
    assert code == 0
    assert out1 == out2
    g = parse_ebg(out1)
    assert g.n == 5


def test_gen_red_list(capsys):
    code, out, _ = run(
        capsys, "gen", "--family", "knn", "--n", "3",
        "--red", "list", "--red-cells", "0,1", "2,2",
    )
    assert code == 0
    g = parse_ebg(out)
    assert sorted((r, c) for r, c, _ in g.red_edges) == [(0, 1), (2, 2)]


def test_gen_bad_red_cell_token(capsys):
    code, _, err = run(
        capsys, "gen", "--family", "knn", "--n", "3",
        "--red", "list", "--red-cells", "0-1",
    )
    assert code == 2
    assert "error:" in err


def test_gen_unknown_family_is_usage_error(capsys):
    code, _, _ = run(capsys, "gen", "--family", "moebius", "--n", "3")
    assert code == 2


def test_gen_random_needs_n(capsys):
    code, _, err = run(capsys, "gen", "--family", "random")
    assert code == 2
    assert "error:" in err


# ---------------------------------------------------------------------------
# verify


def test_verify_identities_small(capsys):
    code, out, _ = run(
        capsys, "verify", "--suite", "identities", "--trials", "6"
    )
    assert code == 0
    assert out == "identities: 6/6 PASS\n"


def test_verify_unknown_suite(capsys):
    code, _, _ = run(capsys, "verify", "--suite", "everything")
    assert code == 2


# ---------------------------------------------------------------------------
# bench


def test_bench_output_shape(capsys):
    code, out, _ = run(capsys, "bench", "--sizes", "2,3", "--seed", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split() == ["n", "t", "decision", "ms"]
    doc = json.loads(lines[-1])
    assert doc["schema"] == "exactmatch/bench/1"
    assert [row["n"] for row in doc["rows"]] == [2, 3]


def test_bench_rejects_non_positive_size(capsys):
    code, _, err = run(capsys, "bench", "--sizes", "0")
    assert code == 2
    assert "error:" in err


def test_bench_rejects_empty_sizes(capsys):
    code, _, _ = run(capsys, "bench", "--sizes", ",")
    assert code == 2


# ---------------------------------------------------------------------------
# top level


def test_no_command_is_usage_error(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_unknown_command_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()
