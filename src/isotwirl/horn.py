"""Spectral-sum feasibility checks for triples of integer spectra.

``basic_horn_holds`` tests the elementary family of eigenvalue inequalities
lam_{i+j-1} <= mu_i + nu_j (plus the trace identity) that a sum of two
non-negative operators must satisfy.  ``horn_feasible`` decides exact
feasibility for integer spectra through Littlewood-Richardson positivity,
which for that case is an if-and-only-if.  ``within_support_window`` and
``branching_disjoint`` express the combinatorial support statement the rest of
the package verifies: once two frames differ by more than (d-1)*k in some row,
no branching chain through a common middle frame can connect them.
"""

from __future__ import annotations

from dataclasses import dataclass
from .frames import YoungFrame, enumerate_frames
from .lr import lr_coefficient


@dataclass(frozen=True)
class HornTriple:
    """Candidate spectra (lam for the sum, mu and nu for the parts), padded to d rows."""

    lam: YoungFrame
    mu: YoungFrame
    nu: YoungFrame
    d: int

    def __post_init__(self) -> None:
        for f in (self.lam, self.mu, self.nu):
            f.padded(self.d)  # raises when a frame needs more than d rows


def basic_horn_holds(t: HornTriple) -> bool:
    """Trace identity plus lam_{i+j-1} <= mu_i + nu_j for all i, j with i+j-1 <= d.

    A necessary condition for feasibility; with only this m = i+j-1 family it
    is not claimed sufficient.
    """
    lam, mu, nu = t.lam.padded(t.d), t.mu.padded(t.d), t.nu.padded(t.d)
    if sum(lam) != sum(mu) + sum(nu):
        return False
    for i in range(1, t.d + 1):
        for j in range(1, t.d + 1):
            m = i + j - 1
            if m > t.d:
                continue
            if lam[m - 1] > mu[i - 1] + nu[j - 1]:
                return False
    return True


def horn_feasible(t: HornTriple) -> bool:
    """Exact feasibility for integer spectra: true iff c^lam_{mu nu} > 0."""
    return lr_coefficient(t.lam, t.mu, t.nu) > 0


def within_support_window(lam: YoungFrame, lam_prime: YoungFrame, d: int, k: int) -> bool:
    """True iff |lam_m - lam'_m| <= (d-1)*k for every row index m in [d]."""
    a, b = lam.padded(d), lam_prime.padded(d)
    bound = (d - 1) * k
    return all(abs(a[m] - b[m]) <= bound for m in range(d))


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

    mu runs over YF_{d,l}, nu and gamma over YF_{d,k}.  Whenever lam' falls
    outside the support window of lam this must hold, and the verification
    suites check exactly that implication.
    """
    check_split(lam, lam_prime, l, k, d)
    k_frames = enumerate_frames(d, k)
    for mu in enumerate_frames(d, l):
        if not any(lr_coefficient(lam, mu, nu) for nu in k_frames):
            continue
        if any(lr_coefficient(lam_prime, mu, gamma) for gamma in k_frames):
            return False
    return True
