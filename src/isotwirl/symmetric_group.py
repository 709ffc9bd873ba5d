"""Symmetric-group permutations, cycle types and irreducible characters.

Characters are evaluated on cycle types (conjugacy-class labels), not on
individual permutations, via the Murnaghan-Nakayama border-strip recursion in
its beta-number form.  ``reduced_character`` is the one accessor: it takes the
frame and the cycle type as plain reduced tuples and is memoized on that pair,
so group-sized sums pay for at most one character evaluation per class, and a
caller that already holds the tuples (the LR character oracle) builds no
``YoungFrame``.  ``character`` is its checked form on frames.  The memo table
lives behind ``functools.cache``: under the GIL concurrent lookups are safe and
a racing recomputation is idempotent, so no external locking is required.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cache
from typing import Iterator

from .frames import YoungFrame

# Default bound on the size of full-group iterations (n! elements).
GROUP_ENUMERATION_CAP = 10

# A cycle type is a partition of n (weakly decreasing cycle lengths).  Unlike
# the enumerated YF_{d,n} sets it carries no row budget: the identity of S_n
# has n parts.
CycleType = YoungFrame


@dataclass(frozen=True)
class Permutation:
    """Permutation of {0, ..., n-1} in one-line notation: i -> images[i]."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        images = tuple(int(i) for i in self.images)
        object.__setattr__(self, "images", images)
        if sorted(images) != list(range(len(images))):
            raise ValueError(f"not a permutation of 0..{len(images) - 1}: {images}")

    @property
    def n(self) -> int:
        return len(self.images)

    def compose(self, other: "Permutation") -> "Permutation":
        """Function composition self # other: i -> self(other(i))."""
        if self.n != other.n:
            raise ValueError("size mismatch")
        return Permutation(tuple(self.images[other.images[i]] for i in range(self.n)))

    def __mul__(self, other: "Permutation") -> "Permutation":
        return self.compose(other)

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, j in enumerate(self.images):
            inv[j] = i
        return Permutation(tuple(inv))


def enumerate_group(n: int, *, cap: int = GROUP_ENUMERATION_CAP) -> Iterator[Permutation]:
    """All n! permutations, each exactly once, in lexicographic one-line order."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > cap:
        raise ValueError(f"enumerate_group(n={n}) exceeds cap {cap}")
    for images in itertools.permutations(range(n)):
        yield Permutation(images)


def cycle_types(n: int) -> list[YoungFrame]:
    """All partitions of ``n`` (no row budget), decreasing lexicographic."""
    out: list[YoungFrame] = []

    def descend(prefix: list[int], remaining: int, max_part: int) -> None:
        if remaining == 0:
            out.append(YoungFrame(tuple(prefix)))
            return
        for p in range(min(max_part, remaining), 0, -1):
            prefix.append(p)
            descend(prefix, remaining - p, p)
            prefix.pop()

    descend([], n, n)
    return out


def class_size(ct: YoungFrame) -> int:
    """Number of permutations with the given cycle type: n! / z(ct)."""
    parts = ct.reduced
    n = sum(parts)
    z = 1
    mult: dict[int, int] = {}
    for p in parts:
        z *= p
        mult[p] = mult.get(p, 0) + 1
    for m in mult.values():
        z *= math.factorial(m)
    return math.factorial(n) // z


@cache
def reduced_character(lam: tuple[int, ...], cycles: tuple[int, ...]) -> int:
    """chi_lam at the class of ``cycles``: both reduced tuples (no zero parts), cycles weakly decreasing.

    Unchecked: a size mismatch reads 0.  :func:`character` is the checked form.
    """
    # Murnaghan-Nakayama via beta numbers: with beta_i = lam_i + (m-1-i),
    # removing a border strip of length L corresponds to replacing some
    # beta_i by beta_i - L (when non-negative and not already present), with
    # sign (-1)**(number of beta entries strictly between the two values).
    # One level per cycle, as frames._skew_counts goes down Young's lattice:
    # every frame left by the strips so far with its signed count, no recursion.
    level = {lam: 1}
    for length in cycles:
        below: dict[tuple[int, ...], int] = {}
        for shape, count in level.items():
            m = len(shape)
            beta = [shape[i] + (m - 1 - i) for i in range(m)]
            beta_set = set(beta)
            for b in beta:
                nb = b - length
                if nb < 0 or nb in beta_set:
                    continue
                height = sum(1 for x in beta if nb < x < b)
                new_beta = sorted((beta_set - {b}) | {nb}, reverse=True)
                new_lam = tuple(new_beta[i] - (m - 1 - i) for i in range(m))
                while new_lam and new_lam[-1] == 0:
                    new_lam = new_lam[:-1]
                below[new_lam] = below.get(new_lam, 0) + (-count if height % 2 else count)
        level = {shape: count for shape, count in below.items() if count}
    return level.get((), 0)


def character(lam: YoungFrame, ct: YoungFrame) -> int:
    """Irreducible character of S_n at the class with cycle type ``ct``."""
    if lam.n != ct.n:
        raise ValueError(f"size mismatch: frame has {lam.n} boxes, cycle type {ct.n}")
    cyc = tuple(sorted((c for c in ct.reduced), reverse=True))
    return reduced_character(lam.reduced, cyc)
