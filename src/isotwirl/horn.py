"""Spectral-sum feasibility checks for triples of integer spectra.

``basic_horn_holds`` tests the elementary family of eigenvalue inequalities
lam_{i+j-1} <= mu_i + nu_j (plus the trace identity) that a sum of two
non-negative operators must satisfy.  ``horn_feasible`` decides exact
feasibility for integer spectra through Littlewood-Richardson positivity,
which for that case is an if-and-only-if (saturation, Knutson and Tao 1999).
Both take the three frames alone: their verdict is the same at every row
budget d the frames fit, so they ask for none.  ``within_support_window`` and
``branching_disjoint`` (on the LR support, ``lr_nonzero_pairs``) state what the
package verifies: once two frames differ by more than (d-1)*k in some row, no
branching chain through a common middle frame can connect them.  The window is
read from one formula, the least k that holds a pair (``_window_starts``),
which the ``verify`` window checks read too.
"""

from __future__ import annotations

from itertools import zip_longest
from typing import Iterable

from .frames import YoungFrame, _check_fits, _integers
from .lr import lr_coefficient, lr_nonzero_pairs


def basic_horn_holds(lam: YoungFrame, mu: YoungFrame, nu: YoungFrame) -> bool:
    """Trace identity plus lam_{i+j-1} <= mu_i + nu_j for all i, j with i+j-1 at most lam's row count.

    A necessary condition for feasibility; with only this m = i+j-1 family it
    is not claimed sufficient.  Past lam's row count an inequality reads
    0 <= mu_i + nu_j and holds, so the verdict is the same at every row
    budget d the frames fit, and the frames alone fix it.
    """
    if lam.n != mu.n + nu.n:
        return False
    return all(
        lam.row(m - 1) <= mu.row(i - 1) + nu.row(m - i) for m in range(1, lam.num_rows + 1) for i in range(1, m + 1)
    )


def horn_feasible(lam: YoungFrame, mu: YoungFrame, nu: YoungFrame) -> bool:
    """Exact feasibility for integer spectra: true iff c^lam_{mu nu} > 0, at every row budget the frames fit."""
    return lr_coefficient(lam, mu, nu) > 0


def _window_starts(lam: YoungFrame, frames: Iterable[YoungFrame], d: int) -> list[int]:
    """For each lam' of ``frames``, the least k whose (d-1)k window holds lam and lam', all of at most d rows.

    That is ceil(max_m |lam_m - lam'_m| / (d-1)): the window only grows with k,
    so lam' lies outside it exactly for the k below that start.  Rows past
    both frames' last row add gaps of 0, so only the reduced rows are read.
    At d = 1 the one frame of YF(1, n) is (n), so every gap, and the start, is 0.
    """
    a = lam.reduced
    step = max(d - 1, 1)
    gaps = (max((abs(x - y) for x, y in zip_longest(a, lam_p.reduced, fillvalue=0)), default=0) for lam_p in frames)
    return [-(-gap // step) for gap in gaps]


def within_support_window(lam: YoungFrame, lam_prime: YoungFrame, d: int, k: int) -> bool:
    """True iff |lam_m - lam'_m| <= (d-1)*k for every row index m in [d], two frames of one YF(d, n)."""
    d, k = _integers((d, k), "d and k", (1, 0))
    if lam.n != lam_prime.n:
        raise ValueError(f"frames {lam} and {lam_prime} have {lam.n} and {lam_prime.n} boxes, not one n")
    _check_fits(d, lam, lam_prime)
    return k >= _window_starts(lam, [lam_prime], d)[0]


def check_split(lam: YoungFrame, lam_prime: YoungFrame, l: int, k: int, d: int) -> tuple[int, int, int]:
    """Reject a split l + k or a pair of frames that no YF_d branching chain can join; l, k and d come back as ints.

    Shared input contract of the chain searches :func:`branching_disjoint`
    and :func:`isotwirl.spectra.xy_optimize`.
    """
    l, k, d = _integers((l, k, d), "l, k and d", (0, 0, 1))
    if l + k != lam.n or lam.n != lam_prime.n:
        raise ValueError(f"split {l}+{k} does not match frames with {lam.n} and {lam_prime.n} boxes")
    _check_fits(d, lam, lam_prime)
    return l, k, d


def branching_disjoint(lam: YoungFrame, lam_prime: YoungFrame, l: int, k: int, d: int) -> bool:
    """True iff no (mu, nu, gamma) has c^lam_{mu nu} * c^lam'_{mu gamma} != 0.

    mu runs over YF_{d,l}, nu and gamma over YF_{d,k}, as in :func:`lr_nonzero_pairs`.
    Whenever lam' falls outside the support window of lam this must hold, and
    the verification suites check exactly that implication.
    """
    l, k, d = check_split(lam, lam_prime, l, k, d)
    middle = {mu for mu, _ in lr_nonzero_pairs(lam, k, d)}
    return middle.isdisjoint(mu for mu, _ in lr_nonzero_pairs(lam_prime, k, d))
