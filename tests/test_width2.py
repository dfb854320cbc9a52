"""Band recursions and the ternary-word transfer layer."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exactmatch.errors import BadParams
from exactmatch.graphs import band_cyclic, band_path
from exactmatch.verify.width2 import (
    TernaryWord,
    brute_gxy,
    check_transfer_word,
    supported_charges,
    transfer_value,
    transfer_xy,
    width2_branch_check,
    width2_cyclic_split_check,
)


def diag_cells(m):
    return [(i, i) for i in range(m)]


def bernoulli_cells(g, seed):
    rng = random.Random(seed)
    return [cell for cell in sorted(g.cells) if rng.random() < 0.5]


# ---------------------------------------------------------------------------
# branch factorization


def test_branch_check_param_guard():
    with pytest.raises(BadParams):
        width2_branch_check(1, [], 0)
    with pytest.raises(BadParams):
        width2_branch_check(11, [], 0)


@pytest.mark.parametrize("m", range(2, 7))
def test_branch_check_all_blue(m):
    for t in range(m + 1):
        assert width2_branch_check(m, [], t)


@pytest.mark.parametrize("m", range(2, 7))
def test_branch_check_diag_red(m):
    for t in range(m + 1):
        assert width2_branch_check(m, diag_cells(m), t)


@pytest.mark.parametrize("m", range(2, 7))
@pytest.mark.parametrize("seed", [0, 1])
def test_branch_check_random_coloring(m, seed):
    cells = bernoulli_cells(band_path(m), 1200 + 10 * m + seed)
    for t in range(m + 1):
        assert width2_branch_check(m, cells, t)


# ---------------------------------------------------------------------------
# cyclic split


def test_cyclic_split_param_guard():
    with pytest.raises(BadParams):
        width2_cyclic_split_check(2, [], 0)
    with pytest.raises(BadParams):
        width2_cyclic_split_check(11, [], 0)


@pytest.mark.parametrize("m", range(3, 7))
def test_cyclic_split_all_blue(m):
    for t in range(m + 1):
        assert width2_cyclic_split_check(m, [], t)


@pytest.mark.parametrize("m", range(3, 7))
def test_cyclic_split_diag_red(m):
    for t in range(m + 1):
        assert width2_cyclic_split_check(m, diag_cells(m), t)


@pytest.mark.parametrize("m", range(3, 7))
@pytest.mark.parametrize("seed", [0, 1])
def test_cyclic_split_random_coloring(m, seed):
    cells = bernoulli_cells(band_cyclic(m), 3400 + 10 * m + seed)
    for t in range(m + 1):
        assert width2_cyclic_split_check(m, cells, t)


# ---------------------------------------------------------------------------
# ternary words


def test_word_validation():
    with pytest.raises(BadParams):
        TernaryWord.make([])
    with pytest.raises(BadParams):
        TernaryWord.make([2])
    w = TernaryWord.make([1, -1, 0], charge=3)
    assert w.r == 3 and w.minus_count == 1 and w.charge == 3


def test_supported_charges_interval():
    assert supported_charges(TernaryWord.make([1])) == [0, 1]
    assert supported_charges(TernaryWord.make([-1, 1])) == [-1, 0, 1]
    assert supported_charges(TernaryWord.make([0, 0, 0])) == [0]


def test_transfer_single_plus_letter():
    # r = 1, word (+1): empty set weight u+3 at charge 0, {0} weight u+1 at 1
    w = TernaryWord.make([1])
    assert brute_gxy(w, 0) == (3, 5)
    assert brute_gxy(w, 1) == (1, 3)
    assert transfer_value(w, 0, 0) == 3
    assert transfer_value(w, 0, 2) == 5
    assert transfer_value(w, 1, 0) == 1
    assert transfer_value(w, 1, 2) == 3
    assert transfer_value(w, 2, 0) == 0
    assert transfer_value(w, -1, 0) == 0


def test_transfer_zero_letter_signs():
    # a selected 0 letter flips the sign: q = 0 collects both the empty set
    # (+(u+3)) and the singleton (-(u+1))
    w = TernaryWord.make([0])
    assert brute_gxy(w, 0) == (3 - 1, 5 - 3)
    assert transfer_value(w, 0, 0) == 2
    assert transfer_value(w, 0, 2) == 2


def test_transfer_minus_letter_offsets_tracker():
    w = TernaryWord.make([-1])
    # charge -1 is the singleton; charge 0 the empty set
    assert brute_gxy(w, -1) == (1, 3)
    assert brute_gxy(w, 0) == (3, 5)
    assert transfer_value(w, -1, 0) == 1
    assert transfer_value(w, 0, 0) == 3


def test_transfer_adjacent_pair_blocks_zero_crossings():
    # independence: {0, 1} is not summed for the 2-letter word
    w = TernaryWord.make([1, 1])
    assert brute_gxy(w, 2) == (0, 0)
    assert supported_charges(w) == [0, 1]


def test_transfer_xy_rejects_other_offsets():
    with pytest.raises(BadParams):
        transfer_xy(TernaryWord.make([1]), 1)


@pytest.mark.parametrize("r", range(1, 6))
def test_transfer_words_full_sweep(r):
    for letters in itertools.product((-1, 0, 1), repeat=r):
        assert check_transfer_word(TernaryWord.make(letters))


@given(st.lists(st.sampled_from([-1, 0, 1]), min_size=1, max_size=7))
@settings(max_examples=60, deadline=None)
def test_transfer_word_property(letters):
    assert check_transfer_word(TernaryWord.make(letters))
