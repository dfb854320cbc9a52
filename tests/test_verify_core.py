"""Brute-force oracles: enumeration, fiber tables, target polynomials."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exactmatch.algebra import IntPolynomial, P_ZERO, poly_eval
from exactmatch.errors import (
    BadFamily, BadParams, BadPrime, CapExceeded, UnsupportedSize,
)
from exactmatch.graphs import (
    BLUE,
    RED,
    ColoredBipartiteGraph,
    band_path,
    biwheel,
    knn,
    random_graph,
    with_coloring,
)
from exactmatch.verify.core import (
    PermutationFamily,
    enumerate_pms,
    fiber_table,
    minor_pt,
    mvv_test,
    red_count_set,
    red_count_set_dp,
    subset_poly,
    symbolic_pt,
    universal_small_check,
)


# ---------------------------------------------------------------------------
# enumeration


@pytest.mark.parametrize(
    "g,count",
    [
        (knn(3), 6),
        (knn(4), 24),
        (band_path(6), 13),
        (biwheel(5), 16),
        (ColoredBipartiteGraph.make(0, []), 1),
    ],
)
def test_enumeration_counts(g, count):
    assert len(enumerate_pms(g)) == count


def test_enumeration_multigraph_splits_bicolored_cells():
    g = ColoredBipartiteGraph.make(
        2, [(0, 0, 0), (0, 0, 1), (1, 1, 0)], multi=True
    )
    pms = enumerate_pms(g)
    assert len(pms) == 2
    assert sorted(m.red_count for m in pms) == [0, 1]


def test_enumeration_cap():
    with pytest.raises(CapExceeded) as err:
        enumerate_pms(knn(5), cap=10)
    assert len(err.value.partial) == 10


def test_fiber_table_k22_one_red():
    g = with_coloring(knn(2), red=[(0, 0)])
    tab = fiber_table(g)
    assert tab.counts == {0: 1, 1: 1}
    assert tab.total == 2


def test_fiber_table_k33_diag():
    g = with_coloring(knn(3), red="diag")
    tab = fiber_table(g)
    # 2 derangements at 0 reds, 3 transpositions at 1 red, identity at 3
    assert tab.counts == {0: 2, 1: 3, 3: 1}
    assert tab.total == 6
    assert red_count_set(g) == {0, 1, 3}


def test_fiber_table_k44_diag():
    g = with_coloring(knn(4), red="diag")
    tab = fiber_table(g)
    assert tab.counts == {0: 9, 1: 8, 2: 6, 4: 1}
    assert tab.total == 24


@pytest.mark.parametrize("n", range(9))
def test_dp_oracle_matches_enumeration(n):
    rng = random.Random(4100 + n)
    graphs = [ColoredBipartiteGraph.make(n, [])]
    for i in range(12):
        graphs.append(
            random_graph(
                max(n, 1),
                density=(0.3, 0.5, 0.7, 0.9)[i % 4],
                red_prob=(0.2, 0.5, 0.8)[i % 3],
                seed=rng.randrange(1 << 30),
            )
        )
    for g in graphs:
        assert red_count_set_dp(g) == red_count_set(g)


def test_dp_oracle_counts_each_color_of_a_bicolored_cell():
    g = ColoredBipartiteGraph.make(
        2, [(0, 0, BLUE), (0, 0, RED), (0, 1, RED), (1, 0, BLUE), (1, 1, RED)],
        multi=True,
    )
    assert red_count_set_dp(g) == red_count_set(g) == {1, 2}


# ---------------------------------------------------------------------------
# target polynomials


def brute_symbolic_pt(g, t):
    from exactmatch.algebra import perm_sign

    acc = P_ZERO
    for sigma in itertools.permutations(range(g.n)):
        if not all((i, sigma[i]) in g.cells for i in range(g.n)):
            continue
        reds = sum(1 for i in range(g.n) if g.cells[i, sigma[i]][0] == RED)
        if reds != t:
            continue
        term = IntPolynomial.of(perm_sign(sigma))
        for i in range(g.n):
            term = term * IntPolynomial.of(i, 1) ** sigma[i]
        acc = acc + term
    return acc


def test_symbolic_pt_k22():
    g = with_coloring(knn(2), red=[(0, 0)])
    # t=0: only the swap -(lam+1); t=1: identity contributes lam+1 ... no:
    # identity = (lam+0)^0 (lam+1)^1 with one red at (0,0) -> t=1 term lam+1
    assert symbolic_pt(g, 0).coeffs == (0, -1)
    assert symbolic_pt(g, 1).coeffs == (1, 1)
    assert symbolic_pt(g, 2) == P_ZERO


@pytest.mark.parametrize("seed", range(30))
def test_symbolic_pt_matches_direct_sum(seed):
    n = 2 + seed % 4
    g = random_graph(n, 0.7, 0.4, seed=4000 + seed)
    for t in range(n + 1):
        assert symbolic_pt(g, t) == brute_symbolic_pt(g, t)


def test_minor_pt_is_signed_inside_minor():
    g = knn(3)
    # deleting row 0 / col 0 leaves an identity-positioned 2x2 block;
    # its t=0 term is the usual 2x2 determinant with original labels
    p = minor_pt(g, (0,), (0,), 0)
    a = IntPolynomial.of(1, 1)  # (lam+1)
    b = IntPolynomial.of(2, 1)  # (lam+2)
    assert p == a**1 * b**2 - a**2 * b**1


def test_minor_pt_rejects_unbalanced():
    with pytest.raises(BadParams):
        minor_pt(knn(3), (0,), (), 0)


def test_pt_sum_over_t_is_plain_determinant():
    g = random_graph(4, 0.8, 0.5, seed=77)
    total = P_ZERO
    for t in range(g.n + 1):
        total = total + symbolic_pt(g, t)
    want = brute_symbolic_pt(with_coloring(g, red="none"), 0)
    assert total == want


# ---------------------------------------------------------------------------
# permutation families


def test_family_canonicalizes():
    fam = PermutationFamily.make(3, [(2, 1, 0), (0, 1, 2), (2, 1, 0)])
    assert fam.members == ((0, 1, 2), (2, 1, 0))


def test_family_rejects_non_permutation():
    with pytest.raises(BadFamily):
        PermutationFamily.make(3, [(0, 0, 1)])


def test_subset_poly_examples():
    # identity alone in S_2: (lam+1); swap alone: -(lam); both: 1
    ident = PermutationFamily.make(2, [(0, 1)])
    swap = PermutationFamily.make(2, [(1, 0)])
    full = PermutationFamily.make(2, [(0, 1), (1, 0)])
    assert subset_poly(ident).coeffs == (1, 1)
    assert subset_poly(swap).coeffs == (0, -1)
    assert subset_poly(full).coeffs == (1,)
    assert subset_poly(PermutationFamily.make(2, [])) == P_ZERO


@given(st.integers(2, 4), st.integers(0, 200))
@settings(max_examples=40)
def test_subset_poly_degree_bound(n, pick_seed):
    perms = list(itertools.permutations(range(n)))
    rng = random.Random(pick_seed)
    members = [p for p in perms if rng.random() < 0.5]
    fam = PermutationFamily.make(n, members)
    p = subset_poly(fam)
    top = n * (n - 1) // 2
    if members:
        assert p.degree is None or p.degree <= top
    # evaluation agrees with the direct signed sum at a point
    from exactmatch.algebra import perm_sign

    lam = 3
    want = sum(
        perm_sign(m) * _monomial_eval(m, lam) for m in fam.members
    )
    assert poly_eval(p, lam) == want


def _monomial_eval(sigma, lam):
    v = 1
    for i, j in enumerate(sigma):
        v *= (lam + i) ** j
    return v


# ---------------------------------------------------------------------------
# universal sweep (small n)


def test_universal_n1_n2():
    assert universal_small_check(1).subsets_checked == 1
    assert universal_small_check(1).vanishing_found == 0
    rep = universal_small_check(2)
    assert (rep.subsets_checked, rep.vanishing_found) == (3, 0)


def test_universal_n3():
    rep = universal_small_check(3)
    assert (rep.subsets_checked, rep.vanishing_found) == (63, 0)


def test_universal_rejects_large_n():
    with pytest.raises(UnsupportedSize):
        universal_small_check(5)


# ---------------------------------------------------------------------------
# randomized modular test


def test_mvv_yes_on_k44_diag():
    g = with_coloring(knn(4), red="diag")
    for t in (0, 1, 2, 4):
        assert mvv_test(g, t, trials=20, seed=1)


def test_mvv_no_on_empty_fiber():
    g = with_coloring(knn(4), red="diag")
    assert not mvv_test(g, 3, trials=20, seed=1)
    assert not mvv_test(g, -1)
    assert not mvv_test(g, 5)


def test_mvv_bad_prime():
    with pytest.raises(BadPrime):
        mvv_test(knn(3), 0, prime=10)
    with pytest.raises(BadPrime):
        mvv_test(knn(4), 0, prime=11)  # prime but too small for n=4
