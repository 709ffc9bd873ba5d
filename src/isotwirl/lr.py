"""Littlewood-Richardson coefficients by skew-tableau enumeration.

``lr_coefficient`` counts LR tableaux directly (backtracking over the skew
cells in reading order, with lattice-word pruning), so every unit of the count
comes with a checkable witness.  The search runs on reduced row tuples: a
triple whose sizes do not add up, or where mu or nu does not fit inside lam,
counts 0 before anything is built, and the count builds no frame or tableau
object.  ``lr_tableaux`` runs the same search, keeping each filling, and
wraps each as an :class:`LRTableau` of lam/mu.  ``lr_nonzero_pairs`` lists the
(mu, nu) of nonzero count for lam split at k sites, mu of the n - k that lam
fixes.

``lr_via_characters`` recomputes the same number through the completely
independent induced-character inner product and exists purely to
cross-examine the tableau count.  It sums on Python ints over a table of
class pairs built once per (l, k) (cycle types, merged cycle type, product of
class sizes), reads the characters on reduced tuples, and ends with one exact
division by l! k!.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

from .frames import YoungFrame, _check_source, enumerate_frames
from .symmetric_group import class_size, cycle_types, reduced_character

# lr_via_characters iterates over pairs of character tables; keep it at desk scale.
CHARACTER_ORACLE_CAP = 10


def _reading_order(outer: tuple[int, ...], inner: tuple[int, ...]) -> list[tuple[int, int]]:
    """The cells of outer/inner row by row, right to left within each row; ``inner`` has len(outer) rows."""
    return [(i, j) for i, (r, lo) in enumerate(zip(outer, inner)) for j in range(r - 1, lo - 1, -1)]


@dataclass(frozen=True)
class LRTableau:
    """A Littlewood-Richardson filling of the skew shape ``outer``/``inner``.

    ``filling[i]`` holds the entries of row ``i`` left to right, skew cells
    only.  Valid fillings have weakly increasing rows, strictly increasing
    columns, a lattice reading word (right-to-left, top-to-bottom) and content
    equal to a Young frame.
    """

    outer: YoungFrame
    inner: YoungFrame
    filling: tuple[tuple[int, ...], ...]

    def render(self) -> str:
        """Grid with '.' on inner cells, one row per line."""
        lines = []
        for i, r in enumerate(self.outer.reduced):
            lo = self.inner.row(i)
            cells = ["."] * lo + [str(v) for v in self.filling[i]]
            assert len(cells) == r
            lines.append(" ".join(cells))
        return "\n".join(lines)


def _fits(inner: tuple[int, ...], outer: tuple[int, ...]) -> bool:
    """Whether the frame ``inner`` fits inside ``outer`` row by row (both reduced)."""
    return len(inner) <= len(outer) and all(a <= b for a, b in zip(inner, outer))


def _search(
    lam: tuple[int, ...], mu: tuple[int, ...], nu: tuple[int, ...], collect: bool
) -> tuple[int, list[tuple[tuple[int, ...], ...]]]:
    """Count the LR fillings of lam/mu with content nu (reduced tuples), and list them when ``collect``.

    A triple whose sizes do not add up, or where mu or nu does not fit inside
    lam (c^lam_{mu nu} = c^lam_{nu mu}), counts 0 before anything is built.
    Otherwise the search backtracks over the skew cells in reading order (row
    by row, right to left): filling in that order makes the lattice condition
    a prefix property, so value v may be placed only while counts[v] <
    counts[v-1].  Row constraints compare against the right neighbour
    (already filled), column constraints against the cell above (rows are
    completed top to bottom).  The search keeps its position in a loop, not
    on the call stack, so its depth is not bounded by the recursion limit.
    A listed filling holds each row's skew entries left to right.
    """
    if sum(lam) != sum(mu) + sum(nu) or not _fits(mu, lam) or not _fits(nu, lam):
        return 0, []
    inner = mu + (0,) * (len(lam) - len(mu))
    cells = _reading_order(lam, inner)
    nvals = len(nu)
    grid: list[list[int]] = [[0] * r for r in lam]
    counts = [0] * (nvals + 1)
    found = 0
    fillings: list[tuple[tuple[int, ...], ...]] = []
    pos = 0  # the cell whose value is tried next; its grid entry holds the last value tried, 0 if none
    while pos >= 0:
        if pos == len(cells):
            found += 1
            if collect:
                fillings.append(tuple(tuple(row[lo:]) for row, lo in zip(grid, inner)))
            pos -= 1
            continue
        i, j = cells[pos]
        v = grid[i][j]
        if v:
            counts[v] -= 1  # take back the value tried last
        lo = 1
        if i > 0 and j >= inner[i - 1]:
            lo = grid[i - 1][j] + 1  # column strict below a filled skew cell
        hi = nvals
        if j + 1 < lam[i] and grid[i][j + 1]:
            hi = min(hi, grid[i][j + 1])  # row weakly increasing
        v = max(v + 1, lo)
        # content bound, then the lattice word prefix condition
        while v <= hi and (counts[v] >= nu[v - 1] or (v > 1 and counts[v] >= counts[v - 1])):
            v += 1
        if v <= hi:
            grid[i][j] = v
            counts[v] += 1
            pos += 1
        else:
            grid[i][j] = 0
            pos -= 1
    return found, fillings


@cache
def _lr_count(lam: tuple[int, ...], mu: tuple[int, ...], nu: tuple[int, ...]) -> int:
    return _search(lam, mu, nu, collect=False)[0]


def lr_coefficient(lam: YoungFrame, mu: YoungFrame, nu: YoungFrame) -> int:
    """c^lam_{mu nu}: the number of LR tableaux of shape lam/mu and content nu.

    Zero whenever |lam| != |mu| + |nu| or mu or nu does not fit inside lam.
    """
    return _lr_count(lam.reduced, mu.reduced, nu.reduced)


def lr_tableaux(lam: YoungFrame, mu: YoungFrame, nu: YoungFrame) -> list[LRTableau]:
    """The witness tableaux counted by :func:`lr_coefficient`."""
    _, fillings = _search(lam.reduced, mu.reduced, nu.reduced, collect=True)
    return [LRTableau(lam, mu, filling) for filling in fillings]


@cache
def _class_pairs(l: int, k: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], int], ...]:
    """Every class pair of S_l x S_k: (c1, c2, their merged cycle type, |c1| |c2|), as reduced tuples.

    The merged cycle type is the class of sigma x tau in S_{l+k}.
    """
    return tuple(
        (c1.reduced, c2.reduced, tuple(sorted(c1.reduced + c2.reduced, reverse=True)),
         class_size(c1) * class_size(c2))
        for c1 in cycle_types(l)
        for c2 in cycle_types(k)
    )


def lr_via_characters(lam: YoungFrame, mu: YoungFrame, nu: YoungFrame) -> int:
    """Independent oracle for c^lam_{mu nu} via the S_l x S_k character inner product.

    Evaluates (1/(l! k!)) * sum over sigma in S_l, tau in S_k of
    chi_mu(sigma) chi_nu(tau) chi_lam(sigma x tau), grouped by conjugacy
    classes so each term is weighted by the product of class sizes.  The sum
    runs on Python ints over the cached class pairs of (l, k) and ends in one
    exact division; a remainder or a negative quotient fails an assertion.
    """
    l, k = mu.n, nu.n
    if lam.n != l + k:
        return 0
    if lam.n > CHARACTER_ORACLE_CAP:
        raise ValueError(f"lr_via_characters: {lam.n} boxes exceeds cap {CHARACTER_ORACLE_CAP}")
    lam_red, mu_red, nu_red = lam.reduced, mu.reduced, nu.reduced
    total = 0
    for c1, c2, merged, weight in _class_pairs(l, k):
        total += (weight * reduced_character(mu_red, c1) * reduced_character(nu_red, c2)
                  * reduced_character(lam_red, merged))
    order = math.factorial(l) * math.factorial(k)
    quotient, remainder = divmod(total, order)
    assert remainder == 0 and quotient >= 0, f"non-integral character sum {total}/{order}"
    return quotient


def lr_nonzero_pairs(lam: YoungFrame, k: int, d: int) -> list[tuple[YoungFrame, YoungFrame]]:
    """All (mu, nu) in YF_{d,n-k} x YF_{d,k} with c^lam_{mu nu} != 0, n = |lam|, enumeration order."""
    [k], d = _check_source(lam, (k,), d)
    nus = enumerate_frames(d, k)
    return [(mu, nu) for mu in enumerate_frames(d, lam.n - k) for nu in nus if lr_coefficient(lam, mu, nu) > 0]
