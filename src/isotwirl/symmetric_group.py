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
Cycle types are the frames of ``frames._enumerate_frames`` with n rows,
unpadded.  A sampled permutation is unranked from its lexicographic position,
so drawing one never lists the group.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cache
from typing import Iterator

from .frames import YoungFrame, _enumerate_frames, _integers

# Largest n whose full group (n! elements) enumerate_group iterates.
GROUP_ENUMERATION_CAP = 10


@dataclass(frozen=True)
class Permutation:
    """Permutation of {0, ..., n-1} in one-line notation: i -> images[i]."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        images = _integers(self.images, "images")
        object.__setattr__(self, "images", images)
        if sorted(images) != list(range(len(images))):
            raise ValueError(f"not a permutation of 0..{len(images) - 1}: {images}")

    @property
    def n(self) -> int:
        return len(self.images)

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Function composition self * other: i -> self(other(i))."""
        if self.n != other.n:
            raise ValueError("size mismatch")
        return Permutation(tuple(self.images[other.images[i]] for i in range(self.n)))

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, j in enumerate(self.images):
            inv[j] = i
        return Permutation(tuple(inv))


def enumerate_group(n: int) -> Iterator[Permutation]:
    """All n! permutations, each exactly once, in lexicographic one-line order."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > GROUP_ENUMERATION_CAP:
        raise ValueError(f"enumerate_group(n={n}) exceeds cap {GROUP_ENUMERATION_CAP}")
    for images in itertools.permutations(range(n)):
        yield Permutation(images)


def _unrank_permutation(n: int, rank: int) -> Permutation:
    """The permutation at 0-based ``rank`` in the order of :func:`enumerate_group`, built without the group."""
    left, images = list(range(n)), []
    for i in reversed(range(n)):
        pos, rank = divmod(rank, math.factorial(i))
        images.append(left.pop(pos))
    return Permutation(tuple(images))


def cycle_types(n: int) -> list[YoungFrame]:
    """All partitions of ``n`` (no row budget), decreasing lexicographic, unpadded.

    A cycle type is such a partition: unlike the YF_{d,n} sets it has no row
    budget, since the identity of S_n has n parts.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    return [YoungFrame(f.reduced) for f in _enumerate_frames(n, n)]


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
    return reduced_character(lam.reduced, ct.reduced)
