"""Band-graph recursions and the ternary-word transfer layer.

Band supports (cells |i-j| <= 1, optionally with the two wrap cells) admit
exact recursions: the path fiber splits by sigma(0) into two branches with
an explicit polynomial factorization, and the cyclic fiber splits three
ways into path instances plus at most two forced rotations.  On top of the
band structure sits a transfer-matrix computation over ternary words whose
brute-force counterpart sums over independent sets of a path; agreement of
the two is the conformance check for the whole layer.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..algebra import IntPolynomial, P_ONE, P_ZERO, poly_product
from ..errors import BadParams, InvariantError
from ..graphs import RED, ColoredBipartiteGraph, band_cyclic, band_path, with_coloring
from .core import PermutationFamily, enumerate_pms, subset_poly
from .identities import fiber_family, linear_form


# ---------------------------------------------------------------------------
# path branch factorization


def _family(n: int, members: Iterable[Sequence[int]]) -> PermutationFamily:
    return PermutationFamily.make(n, [tuple(m) for m in members])


def width2_branch_check(
    m: int, red_cells: Iterable[Tuple[int, int]], t: int
) -> bool:
    """Exact two-branch factorization of a path-band fiber polynomial.

    For the exact-t fiber F of band_path(m) under the given coloring,

        P_F = (prod_{i=1}^{m-1} (lam+i)) * P_{F0}(lam+1)
              - lam * (prod_{i=2}^{m-1} (lam+i)^2) * P_{F1}(lam+2)

    where F0 relabels the sigma(0) = 0 branch by tau(j) = sigma(j+1) - 1
    and F1 relabels the sigma(0) = 1 branch (which forces sigma(1) = 0)
    by tau(j) = sigma(j+2) - 2.  Checked as exact polynomial equality.
    """
    if not 2 <= m <= 10:
        raise BadParams("branch check supports 2 <= m <= 10")
    g = with_coloring(band_path(m), red=list(red_cells))
    fiber = fiber_family(g, t)

    branch0 = []
    branch1 = []
    for sigma in fiber.members:
        if sigma[0] == 0:
            branch0.append(tuple(sigma[j + 1] - 1 for j in range(m - 1)))
        else:
            if sigma[:2] != (1, 0):  # row 0 reaches columns 0 and 1 only
                raise InvariantError(f"{sigma} leaves the path band")
            branch1.append(tuple(sigma[j + 2] - 2 for j in range(m - 2)))

    lhs = subset_poly(fiber)
    first = poly_product(linear_form(i) for i in range(1, m))
    p0 = subset_poly(_family(m - 1, branch0)).shift(1)
    second = linear_form(0) * poly_product(
        linear_form(i) ** 2 for i in range(2, m)
    )
    p1 = subset_poly(_family(m - 2, branch1)).shift(2)
    return lhs == first * p0 - second * p1


# ---------------------------------------------------------------------------
# cyclic three-way split


def _path_perms(k: int) -> List[Tuple[int, ...]]:
    """All permutations with |sigma(i) - i| <= 1 (k = 0 gives the empty one)."""
    if k == 0:
        return [()]
    return [pm.assignment for pm in enumerate_pms(band_path(k))]


def _red_count_in(g: ColoredBipartiteGraph, sigma: Sequence[int]) -> int:
    return sum(1 for i, j in enumerate(sigma) if g.cells[i, j] == (RED,))


def width2_cyclic_split_check(
    m: int, red_cells: Iterable[Tuple[int, int]], t: int
) -> bool:
    """Three-way split of a cyclic-band fiber into path instances.

    Partitions the exact-t fiber of band_cyclic(m) by sigma(0):

      - sigma(0) = 0: relabeling tau(j) = sigma(j+1) - 1 bijects onto the
        path(m-1) permutations whose lift stays in the fiber;
      - sigma(0) = 1: either sigma(1) = 0 (relabel rows 2.. onto a
        path(m-2) instance) or the whole permutation is the forced forward
        rotation i -> i+1 mod m;
      - sigma(0) = m-1: mirror case, sigma(m-1) = 0 relabels the middle
        rows onto a path(m-2) instance, sigma(m-1) = m-2 forces the
        backward rotation.

    Each branch is checked as a set-level bijection (residuals are valid
    path permutations, and every in-fiber lift is hit).
    """
    if not 3 <= m <= 10:
        raise BadParams("cyclic split supports 3 <= m <= 10")
    g = with_coloring(band_cyclic(m), red=list(red_cells))
    fiber = fiber_family(g, t)

    seen_b0 = set()
    seen_b1_path = set()
    seen_b1_shift = set()
    seen_blast_path = set()
    seen_blast_shift = set()
    forward = tuple((i + 1) % m for i in range(m))
    backward = tuple((i - 1) % m for i in range(m))
    path_m1 = set(_path_perms(m - 1))
    path_m2 = set(_path_perms(m - 2))

    for sigma in fiber.members:
        if sigma[0] == 0:
            tau = tuple(sigma[j + 1] - 1 for j in range(m - 1))
            if tau not in path_m1:
                return False
            seen_b0.add(tau)
        elif sigma[0] == 1:
            if sigma[1] == 0:
                tau = tuple(sigma[j + 2] - 2 for j in range(m - 2))
                if tau not in path_m2:
                    return False
                seen_b1_path.add(tau)
            else:
                if sigma != forward:
                    return False
                seen_b1_shift.add(sigma)
        elif sigma[0] == m - 1:
            if sigma[m - 1] == 0:
                tau = tuple(sigma[j + 1] - 1 for j in range(m - 2))
                if tau not in path_m2:
                    return False
                seen_blast_path.add(tau)
            else:
                if sigma != backward:
                    return False
                seen_blast_shift.add(sigma)
        else:
            return False  # row 0 only reaches columns 0, 1, m-1

    # completeness: every valid lift with the right red count appears
    fiber_set = set(fiber.members)

    def lift0(tau: Tuple[int, ...]) -> Tuple[int, ...]:
        return (0,) + tuple(x + 1 for x in tau)

    def lift1(tau: Tuple[int, ...]) -> Tuple[int, ...]:
        return (1, 0) + tuple(x + 2 for x in tau)

    def lift_last(tau: Tuple[int, ...]) -> Tuple[int, ...]:
        return (m - 1,) + tuple(x + 1 for x in tau) + (0,)

    for tau in path_m1:
        sigma = lift0(tau)
        if _red_count_in(g, sigma) == t:
            if (sigma in fiber_set) != (tau in seen_b0):
                return False
    for tau in path_m2:
        for lift, seen in ((lift1, seen_b1_path), (lift_last, seen_blast_path)):
            sigma = lift(tau)
            if _red_count_in(g, sigma) == t:
                if (sigma in fiber_set) != (tau in seen):
                    return False
    for sigma, seen in ((forward, seen_b1_shift), (backward, seen_blast_shift)):
        if _red_count_in(g, sigma) == t:
            if (sigma in fiber_set) != (sigma in seen):
                return False
    return True


# ---------------------------------------------------------------------------
# ternary words and transfer matrices


@dataclass(frozen=True)
class TernaryWord:
    """A word over {-1, 0, +1} with an attached integer charge."""

    letters: Tuple[int, ...]
    charge: int = 0

    @staticmethod
    def make(letters: Iterable[int], charge: int = 0) -> "TernaryWord":
        ls = tuple(int(x) for x in letters)
        if not ls:
            raise BadParams("word must have at least one letter")
        if any(x not in (-1, 0, 1) for x in ls):
            raise BadParams("letters must lie in {-1, 0, +1}")
        return TernaryWord(ls, int(charge))

    @property
    def r(self) -> int:
        return len(self.letters)

    @property
    def minus_count(self) -> int:
        return sum(1 for x in self.letters if x == -1)


@dataclass(frozen=True)
class TransferVectors:
    """Even/odd accumulated sums, as polynomials in the charge tracker t."""

    s_even: IntPolynomial
    s_odd: IntPolynomial

    @property
    def difference(self) -> IntPolynomial:
        return self.s_even - self.s_odd


def transfer_xy(eta: TernaryWord, a: int) -> TransferVectors:
    """Run the four-state transfer over the word at offset a.

    State components are (open_even, closed_even, open_odd, closed_odd),
    where open/closed records whether the previous path vertex was
    selected and the parity counts selected zero letters.  Position i
    carries the unselected weight a + 2i + 3 and the selected weight
    a + 2i + 1; a +1 letter tags selection with one power of t, a -1
    letter tags NON-selection with one power of t, and a 0 letter toggles
    the parity block on selection.  Starting from (1, 0, 0, 0), the even
    and odd totals are polynomials in t whose coefficients recover the
    per-charge sums.
    """
    if a not in (0, 2):
        raise BadParams(f"transfer offset must be 0 or 2, got {a}")
    t_var = IntPolynomial.of(0, 1)
    n_e, c_e = P_ONE, P_ZERO
    n_o, c_o = P_ZERO, P_ZERO
    for i, letter in enumerate(eta.letters):
        alpha = IntPolynomial.of(a + 2 * i + 3)
        beta = IntPolynomial.of(a + 2 * i + 1)
        if letter == 1:
            skip, pick = alpha, beta * t_var
            toggle = False
        elif letter == -1:
            skip, pick = alpha * t_var, beta
            toggle = False
        else:
            skip, pick = alpha, beta
            toggle = True
        new_n_e = skip * (n_e + c_e)
        new_n_o = skip * (n_o + c_o)
        if toggle:
            new_c_e = pick * n_o
            new_c_o = pick * n_e
        else:
            new_c_e = pick * n_e
            new_c_o = pick * n_o
        n_e, c_e, n_o, c_o = new_n_e, new_c_e, new_n_o, new_c_o
    return TransferVectors(n_e + c_e, n_o + c_o)


def transfer_value(eta: TernaryWord, q: int, a: int) -> int:
    """Per-charge sum extracted from the transfer polynomials.

    The t-power carrying charge q is kappa = q + (number of -1 letters).
    """
    kappa = q + eta.minus_count
    if kappa < 0:
        return 0
    diff = transfer_xy(eta, a).difference
    if kappa >= len(diff.coeffs):
        return 0
    return diff.coeffs[kappa]


def brute_gxy(eta: TernaryWord, q: int) -> Tuple[int, int]:
    """Charge-q independent-set sums by direct enumeration.

    Sums over independent sets E of the r-vertex path with
    sum_{i in E} eta_i = q the signed products

        (-1)^|{i in E : eta_i = 0}|
            * prod_{i in E} (u + 2i + 1) * prod_{i not in E} (u + 2i + 3)

    and returns the pair (value at u = 0, value at u = 2).
    """
    r = eta.r
    totals = [0, 0]
    for bits in range(1 << r):
        if bits & (bits << 1):
            continue  # adjacent vertices: not independent
        charge = 0
        sign = 1
        for i in range(r):
            if (bits >> i) & 1:
                charge += eta.letters[i]
                if eta.letters[i] == 0:
                    sign = -sign
        if charge != q:
            continue
        for slot, u in enumerate((0, 2)):
            prod = sign
            for i in range(r):
                if (bits >> i) & 1:
                    prod *= u + 2 * i + 1
                else:
                    prod *= u + 2 * i + 3
            totals[slot] += prod
    return totals[0], totals[1]


def supported_charges(eta: TernaryWord) -> List[int]:
    """Charges realized by at least one independent set of the path."""
    r = eta.r
    out = set()
    for bits in range(1 << r):
        if bits & (bits << 1):
            continue
        out.add(sum(eta.letters[i] for i in range(r) if (bits >> i) & 1))
    return sorted(out)


def check_transfer_word(eta: TernaryWord) -> bool:
    """Transfer computation vs brute force, plus support and pairing facts.

    Verifies, for charges from one below to one above the combinatorial
    support: transfer_value agrees with brute_gxy at both offsets; the
    support is a contiguous integer interval; and for every adjacent
    supported pair (q, q+1) the cross determinant
    X(q) Y(q+1) - X(q+1) Y(q) is nonzero.
    """
    support = supported_charges(eta)
    if support != list(range(support[0], support[-1] + 1)):
        return False
    xs: Dict[int, int] = {}
    ys: Dict[int, int] = {}
    for q in range(support[0] - 1, support[-1] + 2):
        bx, by = brute_gxy(eta, q)
        if transfer_value(eta, q, 0) != bx:
            return False
        if transfer_value(eta, q, 2) != by:
            return False
        xs[q], ys[q] = bx, by
    for q in support[:-1]:
        if xs[q] * ys[q + 1] - xs[q + 1] * ys[q] == 0:
            return False
    return True
