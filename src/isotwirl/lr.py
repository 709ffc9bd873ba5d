"""Littlewood-Richardson coefficients by skew-tableau enumeration.

``lr_coefficient`` counts LR tableaux directly (backtracking over the skew
cells in reading order, with lattice-word pruning), so every unit of the count
comes with a checkable witness.  The search runs on reduced row tuples: a
triple whose sizes do not add up, or where mu or nu does not fit inside lam,
counts 0 before anything is built, and the count builds no frame, skew shape
or tableau object.  ``lr_tableaux`` runs the same search, keeping each
filling, and wraps them as :class:`LRTableau`.

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

from .frames import YoungFrame, _integers, enumerate_frames
from .symmetric_group import class_size, cycle_types, reduced_character

# lr_via_characters iterates over pairs of character tables; keep it at desk scale.
CHARACTER_ORACLE_CAP = 10


def _reading_order(outer: tuple[int, ...], inner: tuple[int, ...]) -> list[tuple[int, int]]:
    """The cells of outer/inner row by row, right to left within each row; ``inner`` has len(outer) rows."""
    return [(i, j) for i, (r, lo) in enumerate(zip(outer, inner)) for j in range(r - 1, lo - 1, -1)]


@dataclass(frozen=True)
class SkewShape:
    """Outer frame with an inner frame removed; inner must fit row-wise."""

    outer: YoungFrame
    inner: YoungFrame

    def __post_init__(self) -> None:
        if not _fits(self.inner.reduced, self.outer.reduced):
            raise ValueError(f"inner {self.inner} does not fit inside outer {self.outer}")


@dataclass(frozen=True)
class LRTableau:
    """A Littlewood-Richardson filling of a skew shape.

    ``filling[i]`` holds the entries of row ``i`` left to right, skew cells
    only.  Valid fillings have weakly increasing rows, strictly increasing
    columns, a lattice reading word (right-to-left, top-to-bottom) and content
    equal to a Young frame.
    """

    skew: SkewShape
    filling: tuple[tuple[int, ...], ...]

    def render(self) -> str:
        """Grid with '.' on inner cells, one row per line."""
        lines = []
        for i, r in enumerate(self.skew.outer.reduced):
            lo = self.skew.inner.row(i)
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
    if not fillings:
        return []
    skew = SkewShape(lam, mu)
    return [LRTableau(skew, filling) for filling in fillings]


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


def lr_nonzero_pairs(lam: YoungFrame, l: int, k: int, d: int) -> list[tuple[YoungFrame, YoungFrame]]:
    """All (mu, nu) in YF_{d,l} x YF_{d,k} with c^lam_{mu nu} != 0, enumeration order."""
    l, k, d = _integers((l, k, d), "l, k and d", (0, 0, 1))
    if l + k != lam.n:
        raise ValueError(f"split {l}+{k} does not match {lam.n} boxes")
    nus = enumerate_frames(d, k)
    return [(mu, nu) for mu in enumerate_frames(d, l) for nu in nus if lr_coefficient(lam, mu, nu) > 0]
