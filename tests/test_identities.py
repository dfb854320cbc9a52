"""Algebraic identity oracles: cofactors, blocks, masks, kernel families,
bad-locus operators, initial forms, fiber geometry."""

import itertools
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import exactmatch
from exactmatch.algebra import IntPolynomial, P_ONE, P_ZERO
from exactmatch.errors import (
    BadFamily,
    BadParams,
    EdgeNotFound,
    EmptyFamily,
    UnsupportedSize,
)
from exactmatch.graphs import RED, ColoredBipartiteGraph, biwheel, knn, random_graph, with_coloring
from exactmatch.verify.core import PermutationFamily, fiber_table
from exactmatch.verify.identities import (
    MaskedMatrix,
    SupportFamily,
    affine_closure_membership,
    check_bad_locus,
    check_gen_vandermonde,
    check_hall_block_product,
    check_masked_minor,
    check_replacement_det,
    check_se_identity,
    cofactor_column,
    embed_disjoint,
    fiber_family,
    find_integer_mask_counterexample,
    integer_masked_terms,
    kernel_family,
    linear_form,
    parallelogram_check,
    poly_order,
    row_initial_form,
)


def rand_poly(rng, max_deg=2, lo=-3, hi=3):
    return IntPolynomial.from_list(
        [rng.randint(lo, hi) for _ in range(rng.randint(0, max_deg) + 1)]
    )


# ---------------------------------------------------------------------------
# helpers


def test_linear_form():
    assert linear_form(3).coeffs == (3, 1)


def test_poly_order():
    mu = linear_form(1)
    assert poly_order(mu, P_ONE) == 0
    assert poly_order(mu, mu * mu * IntPolynomial.of(5, 7)) == 2
    # content does not disturb the count
    assert poly_order(mu, 6 * mu) == 1


@pytest.mark.parametrize(
    "d, p",
    [
        pytest.param(linear_form(1), P_ZERO, id="zero-p"),
        pytest.param(IntPolynomial.of(3), linear_form(1), id="constant-d"),
        pytest.param(linear_form(1) ** 2, linear_form(1), id="quadratic-d"),
    ],
)
def test_poly_order_rejects_bad_input(d, p):
    # each of these divides forever, so the loop would never end
    with pytest.raises(BadParams):
        poly_order(d, p)


# ---------------------------------------------------------------------------
# single-edge expansion


def test_se_identity_missing_edge():
    with pytest.raises(EdgeNotFound):
        check_se_identity(knn(2), (0, 0, RED), 0)


@pytest.mark.parametrize("seed", range(12))
def test_se_identity_every_edge(seed):
    n = 2 + seed % 3
    g = random_graph(n, 0.8, 0.4, seed=6000 + seed)
    for e in g.edges:
        for t in range(n + 1):
            assert check_se_identity(g, e, t)


def test_se_identity_on_multigraph():
    g = ColoredBipartiteGraph.make(
        2, [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 0)], multi=True
    )
    for e in g.edges:
        for t in range(3):
            assert check_se_identity(g, e, t)


# ---------------------------------------------------------------------------
# block product


def test_embed_disjoint():
    g = embed_disjoint(knn(2), with_coloring(knn(2), red="diag"))
    assert g.n == 4
    assert g.has_edge(2, 2, RED) and g.has_edge(0, 0) and not g.has_edge(0, 2)


@pytest.mark.parametrize("seed", range(10))
def test_hall_block_product(seed):
    rng = random.Random(seed)
    g1 = random_graph(rng.randint(1, 3), 0.8, 0.5, seed=6500 + seed)
    g2 = random_graph(rng.randint(1, 3), 0.8, 0.5, seed=6600 + seed)
    for t in range(g1.n + g2.n + 1):
        assert check_hall_block_product(g1, g2, t)


# ---------------------------------------------------------------------------
# replacement determinant


def test_cofactor_column_2x2():
    m = [
        [IntPolynomial.of(1), IntPolynomial.of(2)],
        [IntPolynomial.of(3), IntPolynomial.of(4)],
    ]
    u = cofactor_column(m, 0)
    assert [p.coeffs for p in u] == [(4,), (-2,)]


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("seed", range(8))
def test_replacement_det(n, seed):
    rng = random.Random(1000 * n + seed)
    m = [[rand_poly(rng, 1) for _ in range(n)] for _ in range(n)]
    v = [rand_poly(rng, 1) for _ in range(n)]
    assert check_replacement_det(m, rng.randrange(n), v)


# ---------------------------------------------------------------------------
# masked minors


def test_masked_matrix_validation():
    with pytest.raises(BadParams):
        MaskedMatrix.make((1, 1), (0, 1), ((1, 1), (1, 1)))
    with pytest.raises(BadParams):
        MaskedMatrix.make((1, 2), (1, 0), ((1, 1), (1, 1)))
    with pytest.raises(BadParams):
        MaskedMatrix.make((1, 2), (0, 1), ((1, 1),))
    with pytest.raises(BadParams):
        MaskedMatrix.make((1, 2), (0, 1), ((1, 2), (1, 1)))


@pytest.mark.parametrize("seed", range(60))
def test_masked_minor_random(seed):
    rng = random.Random(seed)
    m = rng.randint(1, 4)
    bases = rng.sample(range(-6, 7), m)
    exponents = sorted(rng.sample(range(0, 9), m))
    mask = [[rng.randint(0, 1) for _ in range(m)] for _ in range(m)]
    w = MaskedMatrix.make(bases, exponents, mask)
    assert check_masked_minor(w)


def test_integer_mask_counterexample_frozen():
    res = find_integer_mask_counterexample()
    assert res is not None
    assert res.bases == (2, 3, 5) and res.exponents == (0, 1, 2)
    # all ones except the (2, 0) cell
    assert res.mask == ((1, 1, 1), (1, 1, 1), (0, 1, 1))
    assert sorted(res.terms) == [-50, -45, 20, 75]
    assert sum(res.terms) == 0
    # the same mask over polynomial bases is nonsingular
    w = MaskedMatrix.make(res.bases, res.exponents, res.mask)
    assert check_masked_minor(w)


def test_integer_masked_terms_all_ones():
    terms = integer_masked_terms((2, 3), (0, 1), ((1, 1), (1, 1)))
    assert sorted(terms) == [-2, 3]


# ---------------------------------------------------------------------------
# kernel families and elimination


def test_support_family_validation():
    with pytest.raises(BadFamily):
        SupportFamily.make((), (), (), ())
    with pytest.raises(BadFamily):
        SupportFamily.make((0, 0), (1, 1), (P_ONE, P_ONE), (0, 1))
    with pytest.raises(BadFamily):
        SupportFamily.make((0, 1), (1, 2), (P_ONE, P_ONE), (0, 1))
    with pytest.raises(BadFamily):
        SupportFamily.make((0, 1), (1, 1), (P_ONE, P_ONE), (1, 0))
    with pytest.raises(BadFamily):
        SupportFamily.make((0, 1), (1, 1), (P_ONE, P_ONE), (-1, 0))


def test_kernel_family_m2_worked_example():
    fam = kernel_family((0, 1), (0, 1), -1)
    assert [p.coeffs for p in fam.coefficients] == [(1,), (-1,)]
    assert fam.functional(0) == P_ZERO
    assert fam.functional(1).coeffs == (-1,)
    rep = check_gen_vandermonde(fam)
    assert rep.factorization_ok
    assert (rep.h_numerator.coeffs, rep.h_denominator) == ((-1,), 1)
    assert rep.gcd_ok == (True, True)
    assert rep.ka_ok is True
    assert rep.order_ok is None
    assert rep.all_ok


def test_kernel_family_rejects_bad_seeds():
    with pytest.raises(BadFamily):
        kernel_family((0, 1), (0, 1), 0)
    with pytest.raises(BadFamily):
        kernel_family((0, 0), (0, 1), 1)


def test_gen_vandermonde_requires_vanishing_lower_functionals():
    fam = SupportFamily.make((0, 1), (1, 1), (P_ONE, P_ONE), (0, 1))
    with pytest.raises(BadFamily):
        check_gen_vandermonde(fam)


def test_gen_vandermonde_gap_share_counterexample():
    # gaps (0, 1, 3) over bases 0, 1, 2: the gap determinant is 6(lam+1),
    # sharing a factor with the middle base, so gcd_ok flags it
    fam = kernel_family((0, 1, 2), (0, 1, 3), 1)
    rep = check_gen_vandermonde(fam)
    assert rep.factorization_ok
    assert rep.gap_det == 6 * linear_form(1)
    assert rep.gcd_ok == (True, False, True)
    assert rep.order_ok is True
    assert not rep.all_ok


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("seed", range(6))
def test_gen_vandermonde_random_families(m, seed):
    rng = random.Random(40 * m + seed)
    alphas = rng.sample(range(0, 7), m)
    exponents = sorted(rng.sample(range(0, 6), m))
    h = rand_poly(rng, 1)
    if h.is_zero:
        h = P_ONE
    fam = kernel_family(alphas, exponents, h)
    rep = check_gen_vandermonde(fam)
    assert rep.factorization_ok
    if m == 2:
        assert rep.ka_ok is True
    if m == 3 and all(rep.gcd_ok):
        assert rep.order_ok is not False


# ---------------------------------------------------------------------------
# bad-locus operators


def test_bad_locus_all_shapes():
    w = IntPolynomial.of(2, 1)
    s = IntPolynomial.of(-1, 3)
    h = IntPolynomial.of(1, 1)
    assert check_bad_locus("SB2", {"alpha": 1, "c": 2, "w": w})
    assert check_bad_locus("DB2", {"alpha": 0, "beta": 2, "c": 1, "h": h})
    assert check_bad_locus(
        "SB3", {"alpha": 1, "c": (1, 2, 4), "w": w, "s": s}
    )
    assert check_bad_locus(
        "DB3", {"alphas": (0, 1, 3), "c": 2, "a": w, "b": s}
    )


def test_bad_locus_unknown_shape():
    with pytest.raises(BadParams):
        check_bad_locus("XX9", {})


@pytest.mark.parametrize("seed", range(20))
def test_bad_locus_random_seeds(seed):
    rng = random.Random(7000 + seed)
    shape = ("SB2", "DB2", "SB3", "DB3")[seed % 4]
    w = rand_poly(rng, 2)
    if w.is_zero:
        w = P_ONE
    s = rand_poly(rng, 2)
    if s.is_zero:
        s = IntPolynomial.of(0, 1)
    if shape == "SB2":
        params = {"alpha": rng.randint(0, 4), "c": rng.randint(1, 3), "w": w}
    elif shape == "DB2":
        a, b = rng.sample(range(0, 5), 2)
        params = {"alpha": a, "beta": b, "c": rng.randint(1, 3), "h": w}
    elif shape == "SB3":
        cs = sorted(rng.sample(range(1, 7), 3))
        params = {"alpha": rng.randint(0, 4), "c": tuple(cs), "w": w, "s": s}
    else:
        alphas = rng.sample(range(0, 6), 3)
        params = {"alphas": tuple(alphas), "c": rng.randint(1, 2), "a": w, "b": s}
    assert check_bad_locus(shape, params)


# ---------------------------------------------------------------------------
# row initial forms


def test_row_initial_identity_s3():
    fam = PermutationFamily.make(3, [(0, 1, 2)])
    assert row_initial_form(fam, 0) == (0, 4)


def test_row_initial_full_s2():
    fam = PermutationFamily.make(2, [(0, 1), (1, 0)])
    assert row_initial_form(fam, 0) == (0, 1)


def test_row_initial_biwheel4_fiber():
    g = biwheel(4)
    fam = fiber_family(g, 0)
    assert len(fam.members) == 9
    # the hub row never matches column 0, so k_min = 1
    assert row_initial_form(fam, 0) == (1, -89)


def test_row_initial_empty_family():
    with pytest.raises(EmptyFamily):
        row_initial_form(PermutationFamily.make(2, []), 0)


_ROW_OUTSIDE = """
from exactmatch.errors import BadParams
from exactmatch.graphs import knn, with_coloring
from exactmatch.verify.identities import fiber_family, row_initial_form
try:
    print(row_initial_form(fiber_family(with_coloring(knn(3), "diag"), 1), -1))
except BadParams:
    print("BadParams")
"""


def test_row_initial_rejects_a_row_outside_under_optimize():
    # python -O strips assert statements; an assert here once let row -1
    # through and returned (0, -23)
    src = os.path.dirname(os.path.dirname(exactmatch.__file__))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _ROW_OUTSIDE],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split() == ["BadParams"]


def test_fiber_family_matches_table():
    g = with_coloring(knn(3), red="diag")
    tab = fiber_table(g)
    for t, cnt in tab.counts.items():
        assert len(fiber_family(g, t).members) == cnt
    assert fiber_family(g, 2).members == ()


# ---------------------------------------------------------------------------
# fiber geometry


W3_DIAG = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
W4_DIAG = [[1 if i == j else 0 for j in range(4)] for i in range(4)]


def test_parallelogram_same_fiber():
    assert (
        parallelogram_check((0, 2, 1), (0, 2, 1), (2, 1, 0), W3_DIAG)
        == "SameFiber"
    )


def test_parallelogram_not_permutation():
    # three distinct transpositions: P1 + P3 - P2 hits a -1 entry
    assert (
        parallelogram_check((1, 0, 2), (2, 1, 0), (0, 2, 1), W3_DIAG)
        == "NotPermutation"
    )


def test_parallelogram_rejects_mixed_levels():
    with pytest.raises(BadParams):
        parallelogram_check((0, 1, 2), (1, 0, 2), (0, 1, 2), W3_DIAG)


def test_parallelogram_s4_diag_census():
    by_level = {}
    for sigma in itertools.permutations(range(4)):
        t = sum(1 for i in range(4) if sigma[i] == i)
        by_level.setdefault(t, []).append(sigma)
    tallies = {"SameFiber": 0, "NotPermutation": 0}
    for level in by_level.values():
        for s1, s2, s3 in itertools.product(level, repeat=3):
            tallies[parallelogram_check(s1, s2, s3, W4_DIAG)] += 1
    assert tallies == {"SameFiber": 364, "NotPermutation": 1094}


def test_affine_closure_full_fibers():
    g = with_coloring(knn(3), red="diag")
    for t in (0, 1, 3):
        fam = fiber_family(g, t)
        assert affine_closure_membership(fam, W3_DIAG)


def test_affine_closure_breaks_on_non_forced_drop():
    g = with_coloring(knn(4), red="diag")
    fam = fiber_family(g, 1)  # 8 members, every cell covered twice or more
    support = [set() for _ in range(4)]
    for sigma in fam.members:
        for i, j in enumerate(sigma):
            support[i].add(j)
    non_forced = 0
    for drop in fam.members:
        rest = [m for m in fam.members if m != drop]
        rest_support = [set() for _ in range(4)]
        for sigma in rest:
            for i, j in enumerate(sigma):
                rest_support[i].add(j)
        if rest_support != support:
            continue  # dropping this member shrinks the support
        non_forced += 1
        smaller = PermutationFamily.make(4, rest)
        assert not affine_closure_membership(smaller, W4_DIAG)
    assert non_forced > 0


def test_affine_closure_mixed_levels_false():
    fam = PermutationFamily.make(3, [(0, 1, 2), (1, 0, 2)])
    assert not affine_closure_membership(fam, W3_DIAG)


def test_affine_closure_guards():
    with pytest.raises(UnsupportedSize):
        affine_closure_membership(
            PermutationFamily.make(6, [tuple(range(6))]),
            [[0] * 6 for _ in range(6)],
        )
    with pytest.raises(EmptyFamily):
        affine_closure_membership(PermutationFamily.make(2, []), [[0, 0], [0, 0]])
