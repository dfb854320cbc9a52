"""Exact arithmetic layer: polynomials, interpolation, determinants."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from exactmatch import algebra
from exactmatch.algebra import (
    MODULUS_CEILING,
    IntMatrix,
    IntPolynomial,
    LAM,
    P_ONE,
    P_ZERO,
    bareiss_det,
    certificate_primes,
    det_mod_batch,
    det_rows,
    interpolate,
    inverse_det_mod_batch,
    inverses_mod,
    is_probable_prime,
    perm_sign,
    poly_det,
    poly_divides,
    poly_eval,
    poly_product,
)
from exactmatch.errors import (
    BadParams,
    DuplicateNode,
    NonIntegerResult,
    NotSquare,
    ZeroDivisor,
)
from exactmatch.verify.core import _det_mod

small_coeffs = st.lists(st.integers(-9, 9), max_size=6)


def poly(coeffs):
    return IntPolynomial.from_list(coeffs)


# ---------------------------------------------------------------------------
# polynomial basics


def test_zero_polynomial_has_empty_coeffs_and_none_degree():
    assert P_ZERO.coeffs == ()
    assert P_ZERO.degree is None
    assert P_ZERO.is_zero
    assert not bool(P_ZERO)
    assert IntPolynomial.of(0, 0, 0) == P_ZERO


def test_trailing_zeros_are_trimmed():
    p = IntPolynomial.of(1, 2, 0, 0)
    assert p.coeffs == (1, 2)
    assert p.degree == 1


@pytest.mark.parametrize(
    "a,b,want",
    [
        ((1, 2), (3,), (4, 2)),
        ((1, 1), (-1, -1), ()),
        ((), (5, 6), (5, 6)),
    ],
)
def test_add_examples(a, b, want):
    assert (poly(a) + poly(b)).coeffs == want


def test_mul_examples():
    # (1 + x)(1 - x) = 1 - x^2
    assert (IntPolynomial.of(1, 1) * IntPolynomial.of(1, -1)).coeffs == (1, 0, -1)
    assert (LAM * LAM).coeffs == (0, 0, 1)
    assert (poly((2, 3)) * 0) == P_ZERO
    assert (3 * poly((2, 3))).coeffs == (6, 9)


def test_pow():
    assert (LAM + P_ONE) ** 0 == P_ONE
    assert ((LAM + P_ONE) ** 2).coeffs == (1, 2, 1)
    assert ((LAM + P_ONE) ** 3).coeffs == (1, 3, 3, 1)


def test_negative_pow_raises_bad_params():
    # k >>= 1 keeps k = -1 at -1, so without the check the loop never ends
    with pytest.raises(BadParams):
        (LAM + P_ONE) ** -1


def test_shift_is_composition_with_translate():
    p = IntPolynomial.of(1, 0, 2)  # 1 + 2x^2
    q = p.shift(3)  # 1 + 2(x+3)^2 = 19 + 12x + 2x^2
    assert q.coeffs == (19, 12, 2)
    assert p.shift(0) is p


@given(small_coeffs, st.integers(-4, 4), st.integers(-10, 10))
def test_shift_matches_pointwise_evaluation(coeffs, k, v):
    p = poly(coeffs)
    assert poly_eval(p.shift(k), v) == poly_eval(p, v + k)


@given(small_coeffs, small_coeffs)
def test_add_commutes(a, b):
    assert poly(a) + poly(b) == poly(b) + poly(a)


@given(small_coeffs, small_coeffs, st.integers(-10, 10))
def test_mul_is_pointwise(a, b, v):
    assert poly_eval(poly(a) * poly(b), v) == poly_eval(poly(a), v) * poly_eval(
        poly(b), v
    )


def test_poly_product():
    factors = [IntPolynomial.of(i, 1) for i in range(1, 4)]
    assert poly_product(factors).coeffs == (6, 11, 6, 1)
    assert poly_product([]) == P_ONE


# ---------------------------------------------------------------------------
# interpolation


def test_interpolate_empty_and_constant():
    assert interpolate([]) == P_ZERO
    assert interpolate([(5, 7)]).coeffs == (7,)


def test_interpolate_line():
    assert interpolate([(0, 1), (1, 3)]).coeffs == (1, 2)


def test_interpolate_duplicate_node():
    with pytest.raises(DuplicateNode):
        interpolate([(1, 0), (1, 5)])


def test_interpolate_non_integer_result():
    # through (0,0) and (2,1) the interpolant is x/2
    with pytest.raises(NonIntegerResult):
        interpolate([(0, 0), (2, 1)])


@given(small_coeffs)
@settings(max_examples=60)
def test_interpolate_round_trip(coeffs):
    p = poly(coeffs)
    k = len(p.coeffs)
    pts = [(x, poly_eval(p, x)) for x in range(k + 1)]
    assert interpolate(pts) == p


@given(small_coeffs, st.integers(-3, 3))
@settings(max_examples=40)
def test_interpolate_round_trip_shifted_nodes(coeffs, base):
    p = poly(coeffs)
    k = len(p.coeffs)
    pts = [(base + 2 * x, poly_eval(p, base + 2 * x)) for x in range(k + 1)]
    assert interpolate(pts) == p


# ---------------------------------------------------------------------------
# determinants


def leibniz_det(rows):
    n = len(rows)
    acc = 0
    for perm in itertools.permutations(range(n)):
        term = perm_sign(perm)
        for i, j in enumerate(perm):
            term *= rows[i][j]
        acc += term
    return acc


def test_det_edge_cases():
    assert det_rows([]) == 1
    assert det_rows([[7]]) == 7
    assert bareiss_det(IntMatrix.from_rows([[1, 2], [3, 4]])) == -2


def test_det_needs_row_swap():
    rows = [[0, 1], [1, 0]]
    assert det_rows([r[:] for r in rows]) == -1


def test_det_singular():
    rows = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    assert det_rows([r[:] for r in rows]) == 0


def test_bareiss_not_square():
    with pytest.raises(NotSquare):
        bareiss_det(IntMatrix(2, 3, (1, 2, 3, 4, 5, 6)))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_bareiss_matches_leibniz(n):
    rng = random.Random(100 + n)
    for _ in range(25):
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        assert det_rows([r[:] for r in rows]) == leibniz_det(rows)


def test_poly_det_matches_scalar_det_on_constants():
    rng = random.Random(4)
    for _ in range(15):
        rows = [[rng.randint(-5, 5) for _ in range(3)] for _ in range(3)]
        p = poly_det([[IntPolynomial.of(c) for c in row] for row in rows])
        want = leibniz_det(rows)
        assert p == (IntPolynomial.of(want) if want else P_ZERO)


def test_poly_det_vandermonde():
    # classic 3x3 Vandermonde at x, x+1, x+2 has constant determinant 2
    nodes = [LAM, LAM + P_ONE, LAM + IntPolynomial.of(2)]
    rows = [[node**j for j in range(3)] for node in nodes]
    assert poly_det(rows).coeffs == (2,)


def test_poly_det_not_square():
    with pytest.raises(NotSquare):
        poly_det([[P_ONE, P_ONE]])


# ---------------------------------------------------------------------------
# permutation sign


@pytest.mark.parametrize(
    "perm,want",
    [((0, 1, 2), 1), ((1, 0, 2), -1), ((1, 2, 0), 1), ((2, 1, 0), -1)],
)
def test_perm_sign_examples(perm, want):
    assert perm_sign(perm) == want


@given(st.permutations(list(range(6))))
def test_perm_sign_matches_inversion_parity(perm):
    inversions = sum(
        1
        for i in range(len(perm))
        for j in range(i + 1, len(perm))
        if perm[i] > perm[j]
    )
    assert perm_sign(perm) == (-1) ** inversions


# ---------------------------------------------------------------------------
# divisibility over Q


def test_poly_divides_zero_divisor():
    with pytest.raises(ZeroDivisor):
        poly_divides(P_ZERO, P_ONE)


def test_poly_divides_zero_dividend():
    ok, q, s = poly_divides(LAM, P_ZERO)
    assert ok and q == P_ZERO and s == Fraction(1)


def test_poly_divides_examples():
    # (x+1) | (x^2 - 1), quotient x - 1
    ok, q, s = poly_divides(IntPolynomial.of(1, 1), IntPolynomial.of(-1, 0, 1))
    assert ok
    assert q is not None and s is not None
    assert (q.coeffs, s) == ((-1, 1), Fraction(1))
    ok, _, _ = poly_divides(IntPolynomial.of(1, 1), IntPolynomial.of(1, 0, 1))
    assert not ok


def test_poly_divides_rational_scalar():
    # 2x + 2 divides 3x + 3 with primitive quotient 1 and scalar 3/2
    ok, q, s = poly_divides(IntPolynomial.of(2, 2), IntPolynomial.of(3, 3))
    assert ok and q == P_ONE and s == Fraction(3, 2)


@given(small_coeffs, small_coeffs)
@settings(max_examples=80)
def test_poly_divides_reconstructs_product(a, b):
    d, m = poly(a), poly(b)
    if d.is_zero:
        return
    p = d * m
    ok, q, s = poly_divides(d, p)
    assert ok
    assert q is not None and s is not None
    # p == d * q * s exactly, checked after clearing the denominator
    lhs = p * s.denominator
    rhs = d * q * s.numerator
    assert lhs == rhs
    if not q.is_zero:
        # primitive: content 1, positive leading coefficient
        import math

        content = 0
        for c in q.coeffs:
            content = math.gcd(content, abs(c))
        assert content == 1
        assert q.coeffs[-1] > 0


# ---------------------------------------------------------------------------
# modular arithmetic

P31 = MODULUS_CEILING - 1  # 2^31 - 1, the largest certificate prime


def test_is_probable_prime_matches_trial_division():
    def trial(m):
        return m >= 2 and all(m % d for d in range(2, int(m**0.5) + 1))

    for m in list(range(-3, 3000)) + list(range(P31 - 200, P31 + 1)):
        assert is_probable_prime(m) == trial(m), m


def test_certificate_primes_are_the_fewest_largest_primes():
    assert certificate_primes(0) == ()
    assert certificate_primes(1) == (P31,)
    assert certificate_primes(P31 - 1) == (P31,)
    assert certificate_primes(P31) == (P31, 2147483629)
    for bound in (10**20, 2**163, 3**200):
        primes = certificate_primes(bound)
        assert list(primes) == sorted(primes, reverse=True)
        assert all(is_probable_prime(p) and p < MODULUS_CEILING for p in primes)
        assert math.prod(primes) > bound >= math.prod(primes[:-1])
    # nothing between consecutive certificate primes is prime
    primes = certificate_primes(2**300)
    for hi, lo in zip(primes, primes[1:]):
        assert not any(is_probable_prime(q) for q in range(lo + 1, hi))


def _stack(mats, n):
    return np.array(mats, dtype=np.int64).reshape(len(mats), n, n)


def _hard_mats(rng, n, p, count=60):
    """count n x n residue matrices mod p: uniform, near p, sparse, singular."""
    near = lambda: p - 1 - rng.randrange(4)  # noqa: E731
    mats = []
    for b in range(count):
        kind = b % 5
        if kind == 0:  # uniform residues
            rows = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        elif kind == 1:  # every entry near p
            rows = [[near() for _ in range(n)] for _ in range(n)]
        elif kind == 2:  # sparse: zero pivots force row swaps
            rows = [
                [rng.choice((0, 0, 0, 1, near(), rng.randrange(p)))
                 for _ in range(n)]
                for _ in range(n)
            ]
        elif kind == 3:  # a repeated row (mod p): singular
            rows = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
            if n >= 2:
                rows[-1] = list(rows[0])
        else:  # a zero column: no pivot at all
            rows = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
            for row in rows:
                row[b % n] = 0
        mats.append(rows)
    return mats


@pytest.mark.parametrize("n", [*range(0, 8), 9])
def test_det_mod_batch_matches_det_mod(n):
    # n = 9 stacks the brace grid's largest batch: 37 lam nodes x 10 x nodes
    count = 370 if n == 9 else 60
    mats = _hard_mats(random.Random(4100 + n), n, P31, count)
    stack = _stack(mats, n)
    got = det_mod_batch(stack, P31)
    assert (stack == _stack(mats, n)).all()  # the input is left alone
    want = [_det_mod([list(r) for r in rows], P31) for rows in mats]
    assert got.tolist() == want
    assert want == [det_rows([list(r) for r in rows]) % P31 for rows in mats]


def test_det_mod_batch_small_prime_sign_and_swaps():
    # permutation matrices: the determinant is the sign, reduced mod p
    p = 37
    perms = list(itertools.permutations(range(4)))
    mats = [[[int(perm[i] == j) for j in range(4)] for i in range(4)]
            for perm in perms]
    got = det_mod_batch(_stack(mats, 4), p)
    assert got.tolist() == [perm_sign(perm) % p for perm in perms]


def _exact_inverse_mod(rows, p):
    """The rational inverse of an integer matrix, reduced mod p."""
    n = len(rows)
    aug = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(rows)]
    for c in range(n):
        piv = next(r for r in range(c, n) if aug[r][c])
        aug[c], aug[piv] = aug[piv], aug[c]
        aug[c] = [v / aug[c][c] for v in aug[c]]
        for r in range(n):
            if r != c and aug[r][c]:
                aug[r] = [a - aug[r][c] * b for a, b in zip(aug[r], aug[c])]
    return [[v.numerator * pow(v.denominator, -1, p) % p for v in row[n:]]
            for row in aug]


@pytest.mark.parametrize("n", range(0, 8))
@pytest.mark.parametrize("p", [P31, 37])
def test_inverse_det_mod_batch_matches_det_and_inverse(n, p):
    mats = _hard_mats(random.Random(4300 + n), n, p)
    stack = _stack(mats, n)
    inv, det = inverse_det_mod_batch(stack, p)
    assert (stack == _stack(mats, n)).all()  # the input is left alone
    assert inv.shape == stack.shape
    assert det.tolist() == det_mod_batch(stack, p).tolist()
    singular = 0
    for rows, b, d in zip(mats, inv.tolist(), det.tolist()):
        if d == 0:
            singular += 1
            assert not any(map(any, b))  # singular: an all-zero inverse
            continue
        eye = [[sum(rows[i][l] * b[l][j] for l in range(n)) % p
                for j in range(n)] for i in range(n)]
        assert eye == [[int(i == j) for j in range(n)] for i in range(n)]
        assert b == _exact_inverse_mod(rows, p)
    assert singular >= (24 if n >= 2 else 0)


def test_inverse_det_mod_batch_small_cases():
    p = 101
    rows = [[2, 3, 5], [7, 11, 13], [17, 19, 23]]
    inv, det = inverse_det_mod_batch(_stack([rows], 3), p)
    assert inv[0].tolist() == _exact_inverse_mod(rows, p)
    assert det.tolist() == [det_rows([list(r) for r in rows]) % p]
    # singular: [[1, 2], [2, 4]], and [[p, 0], [0, 1]] reduced mod p
    singular = _stack([[[1, 2], [2, 4]], [[0, 0], [0, 1]]], 2)
    inv, det = inverse_det_mod_batch(singular, p)
    assert det.tolist() == [0, 0] and not inv.any()
    # k = 0 and k = 1
    inv, det = inverse_det_mod_batch(np.zeros((3, 0, 0), dtype=np.int64), p)
    assert inv.shape == (3, 0, 0) and det.tolist() == [1, 1, 1]
    inv, det = inverse_det_mod_batch(_stack([[[5]], [[0]], [[p - 1]]], 1), p)
    assert det.tolist() == [5, 0, p - 1]
    assert inv[:, 0, 0].tolist() == [pow(5, -1, p), 0, p - 1]
    # permutation matrices: the inverse is the transpose, det the sign
    perms = list(itertools.permutations(range(4)))
    mats = [[[int(perm[i] == j) for j in range(4)] for i in range(4)]
            for perm in perms]
    inv, det = inverse_det_mod_batch(_stack(mats, 4), 37)
    assert det.tolist() == [perm_sign(perm) % 37 for perm in perms]
    assert (inv == _stack(mats, 4).transpose(0, 2, 1)).all()


def _lu_mod(rng, n, p, swap_at=None, zero_at=None):
    """L P U mod p: L unit lower and U upper triangular with a nonzero
    diagonal, P the swap of rows swap_at and swap_at + 1 (or none).

    Elimination without swaps meets the pivots of U, so it never swaps
    unless P is given: then the pivot of column swap_at is 0 and row
    swap_at + 1 holds a nonzero one. zero_at puts a 0 on U's diagonal, so
    column zero_at of what is left has no pivot at all.
    """
    lower = [[int(i == j) if j >= i else rng.randrange(p) for j in range(n)]
             for i in range(n)]
    upper = [[rng.randrange(1, p) if i == j else rng.randrange(p) * (j > i)
              for j in range(n)] for i in range(n)]
    if zero_at is not None:
        upper[zero_at][zero_at] = 0
    if swap_at is not None:  # L P: swap two columns of L
        for row in lower:
            row[swap_at], row[swap_at + 1] = row[swap_at + 1], row[swap_at]
    return [[sum(lower[i][k] * upper[k][j] for k in range(n)) % p
             for j in range(n)] for i in range(n)]


def _zero_pivots(monkeypatch):
    """Per _pivot call, how many matrices have a zero at (c, c) on entry."""
    calls = []
    pivot = algebra._pivot

    def spy(a, c, negate, alive):
        calls.append(int((a[:, c, c] == 0).sum()))
        return pivot(a, c, negate, alive)

    monkeypatch.setattr(algebra, "_pivot", spy)
    return calls


def _check_kernels(mats, n, p):
    """Both kernels against _det_mod and _exact_inverse_mod."""
    stack = _stack(mats, n)
    det = det_mod_batch(stack, p)
    inv, det_gj = inverse_det_mod_batch(stack, p)
    want = [_det_mod([list(r) for r in rows], p) for rows in mats]
    assert det.tolist() == want and det_gj.tolist() == want
    for rows, b, d in zip(mats, inv.tolist(), want):
        assert b == (_exact_inverse_mod(rows, p) if d else [[0] * n] * n)


@pytest.mark.parametrize("n", [2, 3, 6, 9])
@pytest.mark.parametrize("p", [P31, 37])
def test_kernels_take_the_fast_exit_when_nothing_swaps(n, p, monkeypatch):
    mats = [_lu_mod(random.Random(4500 + n), n, p) for _ in range(12)]
    calls = _zero_pivots(monkeypatch)
    _check_kernels(mats, n, p)
    # det_mod_batch steps n - 1 columns, inverse_det_mod_batch all n
    assert calls == [0] * (n - 1) + [0] * n


@pytest.mark.parametrize("n", [2, 3, 6, 9])
@pytest.mark.parametrize("p", [P31, 37])
def test_kernels_swap_one_matrix_at_the_last_column(n, p, monkeypatch):
    # column n - 2 is the last with a row below it to swap with
    rng = random.Random(4600 + n)
    mats = [_lu_mod(rng, n, p) for _ in range(7)]
    mats.insert(3, _lu_mod(rng, n, p, swap_at=n - 2))
    calls = _zero_pivots(monkeypatch)
    _check_kernels(mats, n, p)
    last = [0] * (n - 2) + [1]
    assert calls == last + last + [0]


@pytest.mark.parametrize("n", [4, 7, 9])
@pytest.mark.parametrize("p", [P31, 37])
def test_kernels_survive_a_pivot_that_vanishes_mid_elimination(
    n, p, monkeypatch
):
    # at column j one matrix swaps and one has no pivot left: det 0
    rng, j = random.Random(4700 + n), n // 2 - 1
    mats = [_lu_mod(rng, n, p) for _ in range(5)]
    mats[1] = _lu_mod(rng, n, p, swap_at=j)
    mats[3] = _lu_mod(rng, n, p, zero_at=j)
    calls = _zero_pivots(monkeypatch)
    _check_kernels(mats, n, p)
    assert calls[: j + 1] == [0] * j + [2]  # det_mod_batch
    assert calls[n - 1 : n + j] == [0] * j + [2]  # inverse_det_mod_batch
    assert det_mod_batch(_stack(mats, n), p)[3] == 0


def test_inverses_mod():
    p = 37
    values = np.array([0, 1, 2, 36, 5, 0, 17], dtype=np.int64)
    got = inverses_mod(values, p).tolist()
    assert got[0] == got[5] == 0
    assert all(v * g % p == 1 for v, g in zip(values.tolist(), got) if v)
    assert inverses_mod(np.zeros(0, dtype=np.int64), p).tolist() == []
