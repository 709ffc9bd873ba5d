"""Spectral-sum feasibility checks for triples of integer spectra.

``basic_horn_holds`` tests the elementary family of eigenvalue inequalities
lam_{i+j-1} <= mu_i + nu_j (plus the trace identity) that a sum of two
non-negative operators must satisfy.  ``horn_feasible`` decides exact
feasibility for integer spectra through Littlewood-Richardson positivity,
which for that case is an if-and-only-if.  ``within_support_window`` and
``branching_disjoint`` (on the LR support, ``lr_nonzero_pairs``) state what the
package verifies: once two frames differ by more than (d-1)*k in some row, no
branching chain through a common middle frame can connect them.  The window is
read from one formula, the least k that holds a pair (``_window_starts``),
which the ``verify`` window checks read too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .frames import YoungFrame
from .lr import lr_coefficient, lr_nonzero_pairs


@dataclass(frozen=True)
class HornTriple:
    """Candidate spectra (lam for the sum, mu and nu for the parts), padded to d rows."""

    lam: YoungFrame
    mu: YoungFrame
    nu: YoungFrame
    d: int

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError(f"a Horn triple needs d >= 1, got d={self.d}")
        for f in (self.lam, self.mu, self.nu):
            f.padded(self.d)  # raises when a frame needs more than d rows


def basic_horn_holds(t: HornTriple) -> bool:
    """Trace identity plus lam_{i+j-1} <= mu_i + nu_j for all i, j with i+j-1 <= d.

    A necessary condition for feasibility; with only this m = i+j-1 family it
    is not claimed sufficient.  Past lam's row count an inequality reads
    0 <= mu_i + nu_j and holds, so only m up to that count is tested, at a
    cost that does not grow with d.
    """
    lam, mu, nu = t.lam, t.mu, t.nu
    if lam.n != mu.n + nu.n:
        return False
    return all(
        lam.row(m - 1) <= mu.row(i - 1) + nu.row(m - i) for m in range(1, lam.num_rows + 1) for i in range(1, m + 1)
    )


def horn_feasible(t: HornTriple) -> bool:
    """Exact feasibility for integer spectra: true iff c^lam_{mu nu} > 0."""
    return lr_coefficient(t.lam, t.mu, t.nu) > 0


def _window_starts(lam: YoungFrame, frames: Iterable[YoungFrame], d: int) -> list[int]:
    """For each lam' of ``frames``, the least k whose (d-1)k window holds lam and lam'.

    That is ceil(max_m |lam_m - lam'_m| / (d-1)): the window only grows with k,
    so lam' lies outside it exactly for the k below that start.  At d = 1 the
    one frame of YF(1, n) is (n), so every gap, and the start, is 0.
    """
    a = lam.padded(d)
    step = max(d - 1, 1)
    gaps = (max(abs(x - y) for x, y in zip(a, lam_p.padded(d))) for lam_p in frames)
    return [-(-gap // step) for gap in gaps]


def within_support_window(lam: YoungFrame, lam_prime: YoungFrame, d: int, k: int) -> bool:
    """True iff |lam_m - lam'_m| <= (d-1)*k for every row index m in [d], two frames of one YF(d, n)."""
    if lam.n != lam_prime.n:
        raise ValueError(f"frames {lam} and {lam_prime} have {lam.n} and {lam_prime.n} boxes, not one n")
    if d < 1 or k < 0:
        raise ValueError(f"the window needs d >= 1 and k >= 0, got d={d} k={k}")
    return k >= _window_starts(lam, [lam_prime], d)[0]


def check_split(lam: YoungFrame, lam_prime: YoungFrame, l: int, k: int, d: int) -> None:
    """Reject a split l + k or a pair of frames that no YF_d branching chain can join.

    Shared input contract of the chain searches :func:`branching_disjoint`
    and :func:`isotwirl.spectra.xy_optimize`.
    """
    if l + k != lam.n or lam.n != lam_prime.n:
        raise ValueError(f"split {l}+{k} does not match frames with {lam.n} and {lam_prime.n} boxes")
    for f in (lam, lam_prime):
        if not f.fits(d):
            raise ValueError(f"frame {f} has more than d={d} rows")


def branching_disjoint(lam: YoungFrame, lam_prime: YoungFrame, l: int, k: int, d: int) -> bool:
    """True iff no (mu, nu, gamma) has c^lam_{mu nu} * c^lam'_{mu gamma} != 0.

    mu runs over YF_{d,l}, nu and gamma over YF_{d,k}, as in :func:`lr_nonzero_pairs`.
    Whenever lam' falls outside the support window of lam this must hold, and
    the verification suites check exactly that implication.
    """
    check_split(lam, lam_prime, l, k, d)
    middle = {mu for mu, _ in lr_nonzero_pairs(lam, l, k, d)}
    return middle.isdisjoint(mu for mu, _ in lr_nonzero_pairs(lam_prime, l, k, d))
