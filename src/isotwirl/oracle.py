"""Brute-force exact-rational operators on (C^d)^(x n): the ground truth.

Everything the fast combinatorial path claims is checked against dense
operators built here: permutation matrices, isotypical projectors built as
polynomials in two central elements of the group algebra of S_n (the sums of
all transpositions and of all 3-cycles, whose eigenvalues are content sums),
partial traces, the permutation twirl (a mean over orbits of word pairs),
the depolarising channel applied literally, one site at a time, and an exact
positive-semidefiniteness test (fraction-free Bareiss elimination).  The
projectors use no LR coefficient, skew count or character, so the oracle
stays independent of the fast path.

A :class:`TensorOperator` stores an exact rational matrix as a global
``Fraction`` scale times one dense integer matrix, so no rounding can ever
occur.  The matrix is int64 when every entry fits and Python ints (object
dtype) otherwise; ``mat`` gives a fresh Python-int copy.  Sums, equality,
matrix and tensor products, Hilbert-Schmidt pairings, partial traces, the
twirl and the channel bound the entries they will form and pass that bound
to :func:`_exact`, which keeps int64 only when it certifies no overflow and
falls back to arbitrary precision otherwise.

Permutations of the sites keep a word's letter histogram, so permutation
operators, projectors and their sums and products are block diagonal over the
letter-count blocks of :func:`_letter_blocks`.  Each operator finds out once
whether its matrix is zero outside those blocks (``_blocked``).  The
projector build, matrix products of two blocked operators and the PSD test of
a blocked one work one block at a time; Hilbert-Schmidt pairings with a
blocked operand, and equality of two blocked operators, read only the entries
inside the blocks (:func:`_block_support`).  An operator that is nonzero
outside the blocks is handled as one block holding every index.

Operators are immutable by convention: no operation mutates its inputs, and
constructed operators can be shared freely across threads.
"""

from __future__ import annotations

import itertools
import math
import numbers
from fractions import Fraction
from functools import cache, lru_cache, partial
from typing import Callable, Iterable, Sequence

import numpy as np

from .frames import YoungFrame, enumerate_frames
from .symmetric_group import Permutation

# Hard default caps: dense dimension d^n, and n for the projector family and for
# loops over all n! permutations.
DIMENSION_CAP = 6561
FACTORIAL_LOOP_CAP = 8

_INT64_MAX = 2**63 - 1


def _check_dense_size(d: int, n: int) -> None:
    if d < 1 or n < 0:
        raise ValueError(f"invalid local dimension/site count ({d}, {n})")
    if d**n > DIMENSION_CAP:
        raise ValueError(f"dense dimension {d}**{n} exceeds cap {DIMENSION_CAP}")


def _amax(a: np.ndarray) -> int:
    """Largest entry modulus of an integer matrix (0 when empty)."""
    return max(int(a.max()), -int(a.min())) if a.size else 0


def _exact(bound: int, *arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The integer arrays unchanged when all are int64 and ``bound`` fits int64, else as Python ints.

    ``bound`` is the caller's certificate: no entry it computes from the
    arrays exceeds it in modulus.
    """
    if bound <= _INT64_MAX and all(a.dtype == np.int64 for a in arrays):
        return arrays
    return tuple(a.astype(object, copy=False) for a in arrays)


@cache
def _word_digits(d: int, n: int) -> np.ndarray:
    """All words of [d]^n as digit rows, lexicographic; shape (d^n, n)."""
    if n == 0:
        return np.zeros((1, 0), dtype=np.int64)
    return np.array(list(itertools.product(range(d), repeat=n)), dtype=np.int64)


@cache
def _index_powers(d: int, n: int) -> np.ndarray:
    return np.array([d ** (n - 1 - i) for i in range(n)], dtype=np.int64)


@cache
def _letter_blocks(d: int, n: int) -> tuple[np.ndarray, ...]:
    """Word indices of [d]^n grouped by letter histogram, one read-only array per block.

    Blocks are ordered by histogram and each lists its words in increasing
    order.  Every permutation operator maps a block to itself.
    """
    digits = _word_digits(d, n)
    counts = np.stack([(digits == a).sum(axis=1) for a in range(d)], axis=1)
    keys = counts @ (n + 1) ** np.arange(d)
    order = np.argsort(keys, kind="stable")
    order.flags.writeable = False
    return tuple(np.split(order, np.flatnonzero(np.diff(keys[order])) + 1))


@cache
def _block_support(d: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices ``i * d^n + j`` of the entries inside the letter blocks, and ``j * d^n + i`` for each.

    Both arrays are read-only and list the same entries, block by block; the
    support is symmetric, so the second is a reordering of the first.
    """
    dim = d**n
    blocks = _letter_blocks(d, n)
    flat = np.concatenate([(w[:, None] * dim + w[None, :]).ravel() for w in blocks])
    transposed = np.concatenate([(w[None, :] * dim + w[:, None]).ravel() for w in blocks])
    flat.flags.writeable = transposed.flags.writeable = False
    return flat, transposed


class TensorOperator:
    """Dense exact-rational operator: ``scale`` times an integer matrix."""

    __slots__ = ("d", "n", "scale", "_mat", "_amax", "_in_blocks")

    def __init__(self, d: int, n: int, scale: Fraction, mat: np.ndarray):
        _check_dense_size(d, n)
        dim = d**n
        if mat.shape != (dim, dim):
            raise ValueError(f"matrix shape {mat.shape} does not match {dim}x{dim}")
        if mat.dtype != object and mat.dtype.kind not in "iu":
            raise ValueError(f"matrix dtype {mat.dtype} is not exact: pass integers or Python ints")
        if mat.dtype == object and not all(issubclass(t, numbers.Integral) for t in set(map(type, mat.flat))):
            raise ValueError("matrix entries are not all integers: fold fractions into the scale")
        self.d = d
        self.n = n
        self.scale = Fraction(scale)
        self._amax = None
        self._in_blocks = None
        if not np.can_cast(mat.dtype, np.int64):
            mat = mat.astype(object, copy=False)
        try:
            self._mat = mat.astype(np.int64, copy=False)
        except OverflowError:  # some Python int needs more than 64 bits
            self._mat = mat

    @property
    def mat(self) -> np.ndarray:
        """A fresh copy of the integer matrix as Python ints (object dtype); not cached."""
        return self._mat.astype(object)

    def _bound(self) -> int:
        """Largest entry modulus of the matrix, computed once."""
        if self._amax is None:
            self._amax = _amax(self._mat)
        return self._amax

    def _blocked(self) -> bool:
        """Whether every nonzero entry lies inside a letter block of :func:`_letter_blocks`, computed once."""
        if self._in_blocks is None:
            flat, _ = _block_support(self.d, self.n)
            self._in_blocks = bool(np.count_nonzero(self._mat.take(flat)) == np.count_nonzero(self._mat))
        return self._in_blocks

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, d: int, n: int) -> "TensorOperator":
        dim = d**n
        return cls(d, n, Fraction(0), np.zeros((dim, dim), dtype=np.int64))

    @classmethod
    def identity(cls, d: int, n: int) -> "TensorOperator":
        dim = d**n
        return cls(d, n, Fraction(1), np.identity(dim, dtype=np.int64))

    @classmethod
    def maximally_mixed(cls, d: int, n: int = 1) -> "TensorOperator":
        dim = d**n
        return cls(d, n, Fraction(1, dim), np.identity(dim, dtype=np.int64))

    # -- scalar structure ----------------------------------------------------

    def reduced(self) -> "TensorOperator":
        """Fold the integer gcd of the matrix into the scale (canonical form)."""
        src = self._mat
        g = int(np.gcd.reduce(np.abs(src.ravel()))) if src.size else 0
        if g == 0:
            return TensorOperator.zero(self.d, self.n)
        if g == 1:
            return self
        return TensorOperator(self.d, self.n, self.scale * g, src // g)

    def entry(self, i: int, j: int) -> Fraction:
        return self.scale * int(self._mat[i, j])

    # -- arithmetic ----------------------------------------------------------

    def _scaled_pair(
        self, a: int, other: "TensorOperator", b: int, flat: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """a times this matrix and b times the other's, in int64 when |a| max|A| + |b| max|B| fits.

        With ``flat`` given, only the entries at those flat indices are scaled.
        """
        bound = abs(a) * max(self._bound(), 1) + abs(b) * max(other._bound(), 1)
        x, y = (self._mat, other._mat) if flat is None else (self._mat.take(flat), other._mat.take(flat))
        x, y = _exact(bound, x, y)
        return a * x, b * y

    def _compatible(self, other: "TensorOperator") -> None:
        if (self.d, self.n) != (other.d, other.n):
            raise ValueError("operator shape mismatch")

    def __add__(self, other: "TensorOperator") -> "TensorOperator":
        self._compatible(other)
        if self.scale == 0:
            return other
        if other.scale == 0:
            return self
        s = Fraction(
            math.gcd(self.scale.numerator, other.scale.numerator),
            self.scale.denominator * other.scale.denominator
            // math.gcd(self.scale.denominator, other.scale.denominator),
        )
        a = int(self.scale / s)
        b = int(other.scale / s)
        x, y = self._scaled_pair(a, other, b)
        return TensorOperator(self.d, self.n, s, x + y)

    def __sub__(self, other: "TensorOperator") -> "TensorOperator":
        return self + (-1) * other

    def __rmul__(self, c: int | Fraction) -> "TensorOperator":
        c = Fraction(c)
        if c == 0:
            return TensorOperator.zero(self.d, self.n)
        return TensorOperator(self.d, self.n, self.scale * c, self._mat)

    def __mul__(self, c: int | Fraction) -> "TensorOperator":
        return self.__rmul__(c)

    def __matmul__(self, other: "TensorOperator") -> "TensorOperator":
        """Matrix product, block by block over the letter blocks when both operators are blocked.

        Otherwise the product is one block holding every index.  Each block
        product runs in int64 when its own bound certifies no overflow (see
        :func:`_int_matmul`) and in Python ints otherwise.
        """
        self._compatible(other)
        a, b = self._mat, other._mat
        blocks = _diagonal_blocks(self, other)
        parts = [_int_matmul(a[np.ix_(w, w)], b[np.ix_(w, w)]) for w in blocks]
        if len(parts) == 1:  # the one block holds every index in order
            product = parts[0]
        else:
            exact = np.int64 if all(p.dtype == np.int64 for p in parts) else object
            product = np.zeros(a.shape, dtype=exact)
            for w, part in zip(blocks, parts):
                product[np.ix_(w, w)] = part
        return TensorOperator(self.d, self.n, self.scale * other.scale, product)

    def trace(self) -> Fraction:
        return self.scale * sum(map(int, self._mat.diagonal()))

    def hs_product(self, other: "TensorOperator") -> Fraction:
        """Hilbert-Schmidt pairing tr(self @ other) without forming the product.

        tr(AB) is the sum of A_ij B_ji.  When either operator is blocked every
        nonzero term has (i, j) inside a letter block, so only the entries of
        :func:`_block_support` are paired; otherwise the whole matrices are.
        The sum runs in int64 when (number of terms) max|A| max|B| fits.
        """
        self._compatible(other)
        a, b = self._mat, other._mat
        if self._blocked() or other._blocked():
            flat, transposed = _block_support(self.d, self.n)
            a, b = a.take(flat), b.take(transposed)
        else:
            b = b.T
        a, b = _exact(a.size * self._bound() * other._bound(), a, b)
        return self.scale * other.scale * int((a * b).sum())

    def kron(self, other: "TensorOperator") -> "TensorOperator":
        if self.d != other.d:
            raise ValueError("local dimensions differ")
        _check_dense_size(self.d, self.n + other.n)
        a, b = _exact(self._bound() * other._bound(), self._mat, other._mat)
        return TensorOperator(self.d, self.n + other.n, self.scale * other.scale, np.kron(a, b))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TensorOperator):
            return NotImplemented
        if (self.d, self.n) != (other.d, other.n):
            return False
        a = self.scale.numerator * other.scale.denominator
        b = other.scale.numerator * self.scale.denominator
        # two blocked matrices are zero outside the blocks, so only the entries inside can differ
        flat = _block_support(self.d, self.n)[0] if self._blocked() and other._blocked() else None
        return bool(np.array_equal(*self._scaled_pair(a, other, b, flat)))

    # -- site-structure operations --------------------------------------------

    def partial_trace(self, sites: Iterable[int]) -> "TensorOperator":
        """Trace out the given 0-based sites; remaining sites keep their order.

        Each output entry sums d^(number of traced sites) input entries, so the
        trace runs on the int64 matrix when max|entry| times that count fits.
        """
        sites = sorted(set(sites))
        if any(s < 0 or s >= self.n for s in sites):
            raise ValueError(f"sites {sites} outside range(0, {self.n})")
        if not sites:
            return self
        d, n = self.d, self.n
        (arr,) = _exact(self._bound() * d ** len(sites), self._mat)
        tensor = arr.reshape((d,) * (2 * n))
        cur = n
        for s in reversed(sites):
            tensor = np.trace(tensor, axis1=s, axis2=cur + s)
            cur -= 1
        m = n - len(sites)
        tensor = np.asarray(tensor, dtype=arr.dtype).reshape((d**m, d**m))
        return TensorOperator(d, m, self.scale, tensor)


def _diagonal_blocks(*ops: TensorOperator) -> tuple[np.ndarray, ...]:
    """The letter blocks when every operator is blocked, else one block holding every index in order."""
    d, n = ops[0].d, ops[0].n
    if all(op._blocked() for op in ops):
        return _letter_blocks(d, n)
    return (np.arange(d**n),)


# -- permutation action --------------------------------------------------------


def _word_map(images: tuple[int, ...], d: int) -> np.ndarray:
    """Index map w -> index of the word y with y[tau(i)] = w[i], for tau = images."""
    n = len(images)
    inv = [0] * n
    for i, j in enumerate(images):
        inv[j] = i
    digits = _word_digits(d, n)
    return digits[:, inv] @ _index_powers(d, n)


def perm_operator(tau: Permutation, d: int) -> TensorOperator:
    """0/1 matrix moving the letter at site i to site tau(i); B(s)B(t) = B(st)."""
    _check_dense_size(d, tau.n)
    dim = d**tau.n
    mat = np.zeros((dim, dim), dtype=np.int64)
    mat[_word_map(tau.images, d), np.arange(dim)] = 1
    return TensorOperator(d, tau.n, Fraction(1), mat)


# -- isotypical projectors -------------------------------------------------------


def _int_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact a @ b of integer matrices: int64 when m max|a| max|b| fits, else Python ints."""
    a, b = _exact(a.shape[1] * _amax(a) * _amax(b), a, b)
    return a @ b


def central_eigenvalues(lam: YoungFrame) -> tuple[int, int]:
    """Scalars by which T and C3 act on the lam isotypical block.

    T is the sum of all transpositions and C3 the sum of all 3-cycles.  T acts
    as the content sum c(lam), the sum of (column - row) over the boxes of lam
    (Jucys, Murphy; Okounkov-Vershik, arXiv:math/0503040).  The squares of the
    Jucys-Murphy elements sum to C3 + C(n, 2), so C3 acts as the sum of squared
    contents minus C(n, 2).
    """
    contents = [j - i for i, row in enumerate(lam.reduced) for j in range(row)]
    return sum(contents), sum(c * c for c in contents) - math.comb(lam.n, 2)


def _cycle_class_maps(d: int, n: int, length: int) -> np.ndarray:
    """Word maps of every cycle of the given length on n sites, one row each."""
    maps = []
    for sites in itertools.combinations(range(n), length):
        for rest in itertools.permutations(sites[1:]):
            images = list(range(n))
            cycle = (sites[0],) + rest
            for i, j in zip(cycle, cycle[1:] + cycle[:1]):
                images[i] = j
            maps.append(_word_map(tuple(images), d))
    return np.array(maps, dtype=np.int64).reshape(-1, d**n)


def _class_block(maps: np.ndarray, words: np.ndarray, local: np.ndarray) -> np.ndarray:
    """The class sum restricted to a letter-count block; ``local`` numbers its words 0..m-1."""
    m = len(words)
    rows = local[maps[:, words]]
    return np.bincount((rows * m + np.arange(m)).ravel(), minlength=m * m).reshape(m, m)


def _lagrange_idempotents(mat: np.ndarray, values: list[int]) -> list[tuple[np.ndarray, int]]:
    """(N_i, D_i) with N_i / D_i = prod over j != i of (mat - v_j) / (v_i - v_j).

    For a diagonalisable ``mat`` whose eigenvalues lie in the distinct
    ``values``, N_i / D_i projects onto the v_i eigenspace.  Each N_i is a
    polynomial in ``mat``, summed from its powers, which are computed once.
    """
    powers = [np.identity(mat.shape[0], dtype=np.int64), mat][: len(values)]
    for _ in range(len(values) - 2):
        powers.append(_int_matmul(powers[-1], mat))
    bounds = [max(_amax(p), 1) for p in powers]
    out = []
    for i, v in enumerate(values):
        coeffs, den = [1], 1  # coefficients of prod (x - u), lowest degree first
        for u in values[:i] + values[i + 1 :]:
            coeffs = [a - u * b for a, b in zip([0] + coeffs, coeffs + [0])]
            den *= v - u
        terms = _exact(sum(abs(c) * b for c, b in zip(coeffs, bounds)), *powers)
        out.append((sum(c * p for c, p in zip(coeffs, terms)), den))
    return out


def _block_projectors(
    frames: list[YoungFrame], block: Callable[[int], np.ndarray]
) -> dict[YoungFrame, tuple[np.ndarray, int]]:
    """Lowest-terms (N, D) with P_lam = N / D on one letter-count block, for the frames in it.

    ``block(2)`` and ``block(3)`` give T and C3 on the block.  The Lagrange
    product over content sums projects onto P_lam, or onto the sum of the P_mu
    sharing lam's content sum; a second product over the C3 eigenvalues splits
    such a collision.  The two eigenvalues together tell apart the frames of
    every YF(d, n) the caps allow.
    """
    groups: dict[int, list[YoungFrame]] = {}
    for lam in frames:
        groups.setdefault(central_eigenvalues(lam)[0], []).append(lam)
    out = {}
    for (num, den), group in zip(_lagrange_idempotents(block(2), list(groups)), groups.values()):
        if len(group) == 1:
            out[group[0]] = (num, den)
            continue
        split = [central_eigenvalues(lam)[1] for lam in group]
        for lam, (snum, sden) in zip(group, _lagrange_idempotents(block(3), split)):
            out[lam] = (_int_matmul(num, snum), den * sden)
    for lam, (num, den) in out.items():
        g = math.gcd(int(np.gcd.reduce(np.abs(num.ravel()))), den) * (1 if den > 0 else -1)
        out[lam] = (num // g, den // g)
    return out


def _dominates(lam: YoungFrame, part: tuple[int, ...]) -> bool:
    return all(a >= b for a, b in zip(itertools.accumulate(lam.padded(len(part))), itertools.accumulate(part)))


@lru_cache(maxsize=4)
def _projector_family(d: int, n: int) -> dict[YoungFrame, TensorOperator]:
    """The family from central elements, one letter-count block at a time.

    Permutations keep a word's letter histogram, so every P_lam is block
    diagonal over the histograms, and P_lam is nonzero on a block exactly when
    lam dominates its sorted histogram (Kostka number > 0).  Relabelling the
    letters commutes with S_n, so the products are taken once per sorted
    histogram, on the block whose histogram is decreasing, and gathered onto
    its relabellings.  Each P_lam is one int64 matrix over the lcm L of its
    block denominators.  Its entries L P_ij have modulus at most L, as an
    orthogonal projector's entries have modulus at most 1, and L divides n!,
    as n! P_lam is an integer matrix, so they fit for every n the caps allow.
    The gcd g of those entries is taken block by block, so the operator
    g/L times (L P / g) is already in the canonical form ``reduced`` gives.
    """
    dim = d**n
    digits = _word_digits(d, n)
    blocks = _letter_blocks(d, n)
    hists = [np.bincount(digits[words[0]], minlength=d) for words in blocks]
    local = np.empty(dim, dtype=np.int64)
    for words in blocks:
        local[words] = np.arange(len(words))
    cycle_maps = cache(partial(_cycle_class_maps, d, n))

    frames = enumerate_frames(d, n)
    canonical: dict[tuple[int, ...], dict[YoungFrame, tuple[np.ndarray, int]]] = {}
    for words, hist in zip(blocks, hists):
        hist = tuple(map(int, hist))
        if list(hist) == sorted(hist, reverse=True):
            canonical[hist] = _block_projectors(
                [lam for lam in frames if _dominates(lam, hist)],
                lambda length: _class_block(cycle_maps(length), words, local),
            )

    pieces: dict[YoungFrame, list[tuple[np.ndarray, np.ndarray, int]]] = {lam: [] for lam in frames}
    for words, hist in zip(blocks, hists):
        relabel = np.empty(d, dtype=np.int64)
        relabel[np.argsort(-hist, kind="stable")] = np.arange(d)
        gather = local[relabel[digits[words]] @ _index_powers(d, n)]
        for lam, (num, den) in canonical[tuple(sorted(map(int, hist), reverse=True))].items():
            pieces[lam].append((words, num[np.ix_(gather, gather)], den))
    family: dict[YoungFrame, TensorOperator] = {}
    for lam, parts in pieces.items():
        lcm = math.lcm(*(den for _, _, den in parts))
        g = math.gcd(*(lcm // den * int(np.gcd.reduce(np.abs(num.ravel()))) for _, num, den in parts))
        mat = np.zeros((dim, dim), dtype=np.int64)
        for words, num, den in parts:
            mat[np.ix_(words, words)] = num * (lcm // den) // g
        family[lam] = TensorOperator(d, n, Fraction(g, lcm), mat)
    return family


def isotypical_projectors(
    d: int, n: int, *, factorial_cap: int = FACTORIAL_LOOP_CAP
) -> dict[YoungFrame, TensorOperator]:
    """All isotypical projectors P_lam for lam in YF_{d,n}, in ``enumerate_frames`` order.

    T, the sum of all transpositions, acts on the lam block as the content sum
    c(lam), so P_lam = prod over mu != lam of (T - c(mu)) / (c(lam) - c(mu)),
    the product running over the frames present in a letter-count block.
    Where two frames share a content sum the 3-cycle class sum splits them
    (see :func:`central_eigenvalues`).  Building T takes n(n-1)/2 index
    gathers, not a sweep over all n! permutations; the ``factorial_cap``
    (default 8) still refuses larger n unless a caller raises it explicitly.
    """
    _check_dense_size(d, n)
    if n > factorial_cap:
        raise ValueError(f"projector construction for n={n} exceeds factorial cap {factorial_cap}")
    return _projector_family(d, n)


def clear_projector_cache() -> None:
    """Drop cached projector families.

    A family holds one int64 matrix per frame and no Python-int copy; the
    d=2 n=10 family holds 48 MB.
    """
    _projector_family.cache_clear()


# -- channel building blocks ----------------------------------------------------


def tensor_with_maximally_mixed(a: TensorOperator, k: int) -> TensorOperator:
    """a tensored with k maximally mixed sites appended on the right."""
    if k == 0:
        return a
    return a.kron(TensorOperator.maximally_mixed(a.d, k))


def insert_maximally_mixed(a: TensorOperator, positions: Sequence[int], n: int) -> TensorOperator:
    """Extend ``a`` to ``n`` sites with maximally mixed states at ``positions``.

    The sites of ``a`` fill the complementary positions in order.
    """
    positions = sorted(set(positions))
    k = len(positions)
    if a.n + k != n:
        raise ValueError(f"{a.n} sites plus {k} insertions do not give {n}")
    if positions and not 0 <= positions[0] <= positions[-1] < n:
        raise ValueError(f"positions {positions} outside range(0, {n})")
    if k == 0:
        return a
    d = a.d
    _check_dense_size(d, n)
    big = np.kron(a._mat, np.identity(d**k, dtype=a._mat.dtype))
    remaining = [s for s in range(n) if s not in set(positions)]
    source_site = remaining + positions  # axis s of `big` carries site source_site[s]
    src_axis = {site: axis for axis, site in enumerate(source_site)}
    axes = [src_axis[t] for t in range(n)] + [n + src_axis[t] for t in range(n)]
    tensor = big.reshape((d,) * (2 * n)).transpose(axes)
    return TensorOperator(d, n, a.scale * Fraction(1, d**k), tensor.reshape((d**n, d**n)))


def conjugate_by_permutation(a: TensorOperator, tau: Permutation) -> TensorOperator:
    """B(tau) a B(tau)^{-1}, computed as an index gather (no matrix product)."""
    if tau.n != a.n:
        raise ValueError("permutation size does not match operator sites")
    g = _word_map(tau.inverse().images, a.d)
    return TensorOperator(a.d, a.n, a.scale, a._mat[np.ix_(g, g)])


@lru_cache(maxsize=4)
def _pair_orbits(d: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Orbit index of every word pair (x, y) under permuting the sites of x and y together.

    Returns the (d^n, d^n) orbit index of each pair, orbits numbered from 0,
    and n!/|orbit| for each orbit.  An orbit is labelled by the histogram of
    the letter pairs (x_i, y_i): the codes d x_i + y_i, sorted and read as a
    base-d^2 number, which stays below d^(2n) <= DIMENSION_CAP^2.
    """
    digits = _word_digits(d, n)
    dim = d**n
    powers = (d * d) ** np.arange(n - 1, -1, -1, dtype=np.int64)
    labels = np.empty((dim, dim), dtype=np.int64)
    step = max(1, 2**22 // (dim * max(n, 1)))  # rows per slice: at most ~4M letter pairs
    for start in range(0, dim, step):
        pairs = digits[start:start + step, None, :] * d + digits[None, :, :]
        pairs.sort(axis=2)
        labels[start:start + step] = pairs @ powers
    _, orbit, sizes = np.unique(labels, return_inverse=True, return_counts=True)
    return orbit.reshape(dim, dim), math.factorial(n) // sizes


def twirl(a: TensorOperator, *, factorial_cap: int = FACTORIAL_LOOP_CAP) -> TensorOperator:
    """Average of B(tau) a B(tau)^{-1} over all of S_n (the permutation twirl).

    Conjugating by every tau carries the entry at the word pair (x, y) over
    its orbit under permuting the sites of x and y together, and the group sum
    meets each member of the orbit n!/|orbit| times.  So the twirl at (x, y)
    is the mean of ``a`` over the orbit, stored as n!/|orbit| times the orbit
    sum with scale ``a.scale / n!``: the same integer matrix the sum over all
    n! permutations gives.  The sums run in int64 when n! max|a| fits, else in
    Python ints.  ``factorial_cap`` bounds n as for the other n!-sized
    constructions.
    """
    n, d = a.n, a.d
    if n > factorial_cap:
        raise ValueError(f"twirl over S_{n} exceeds factorial cap {factorial_cap}")
    orbit, stabiliser = _pair_orbits(d, n)
    arr, stabiliser = _exact(math.factorial(n) * a._bound(), a._mat, stabiliser)
    sums = np.zeros(len(stabiliser), dtype=arr.dtype)
    np.add.at(sums, orbit.ravel(), arr.ravel())
    return TensorOperator(d, n, a.scale / math.factorial(n), (stabiliser * sums)[orbit])


def depolarise_n(a: TensorOperator, q: Fraction | int | str) -> TensorOperator:
    """Apply the depolarising channel with replacement weight ``q`` to every site.

    ``q`` is the probability that a single site is replaced by the maximally
    mixed state (q=0 is the identity channel, q=1 full depolarisation).  The
    n-fold channel is the product of its one-site channels, applied one site
    at a time.  With q = a/b, site s maps the integer matrix M to
    (b-a) d M + a (tr_s M tensor 1 at s) and divides the scale by b d.  Each
    pass multiplies the largest entry by at most b d, so the passes run in
    int64 when max(max|M|, 1) (b d)^n fits (the 1 keeps the scalars b d in
    range on a zero matrix), and in Python ints otherwise.
    """
    q = Fraction(q)
    if not 0 <= q <= 1:
        raise ValueError(f"depolarising weight must lie in [0, 1], got {q}")
    d, n = a.d, a.n
    growth = q.denominator * d
    (mat,) = _exact(max(a._bound(), 1) * growth**n, a._mat)
    keep = (q.denominator - q.numerator) * d
    for site in range(n):
        left, right = d**site, d ** (n - site - 1)
        blocks = mat.reshape(left, d, right, left, d, right)
        mixed = q.numerator * np.trace(blocks, axis1=1, axis2=4)  # axes (left, right, left, right)
        out = keep * blocks
        for i in range(d):
            out[:, i, :, :, i, :] += mixed
        mat = out.reshape(mat.shape)
    return TensorOperator(d, n, a.scale / growth**n, mat).reduced()


# -- exact positive-semidefiniteness test ------------------------------------------


def is_positive_semidefinite(a: TensorOperator) -> bool:
    """Exact PSD test for a symmetric rational matrix.

    A positive scale does not change the verdict, a zero scale makes the
    matrix zero (PSD), and a negative one negates the integer matrix.  The
    matrix of a blocked operator is PSD exactly when each of its letter blocks
    is, so each block is tested on its own; any other matrix is one block.

    Each block runs symmetric Bareiss elimination on Python ints (Bareiss,
    Math. Comp. 22, 1968) with diagonal pivoting: a negative diagonal entry
    refutes PSD; when no diagonal entry is positive, PSD holds exactly when
    the remaining matrix is zero (a PSD matrix vanishes on the row and column
    of a zero diagonal entry); otherwise the first positive diagonal entry p
    is the pivot and every remaining entry becomes
    (p M_ij - M_ip M_pj) / p_prev, p_prev being the previous pivot (1 at the
    start).  The division is exact by Sylvester's identity: with P the pivots
    so far, the entry is the minor of the block on rows P + {i} and columns
    P + {j}, and the pivot is the principal minor on P.  That minor is the
    product of the rational LDL pivots, all positive, so each entry is a
    positive multiple of the Schur complement entry of rational LDL
    elimination: every sign that decides the verdict is kept, and no
    fraction is formed.
    """
    arr = a._mat
    if not np.array_equal(arr, arr.T):
        raise ValueError("PSD test expects a symmetric operator")
    if a.scale == 0:
        return True
    sign = 1 if a.scale > 0 else -1
    return all(_bareiss_psd(sign * arr[np.ix_(w, w)].astype(object)) for w in _diagonal_blocks(a))


def _bareiss_psd(m: np.ndarray) -> bool:
    """Symmetric Bareiss elimination of a symmetric Python-int matrix (see above)."""
    prev = 1
    while len(m):
        diag = m.diagonal().tolist()
        if min(diag) < 0:
            return False
        pos = next((t for t, x in enumerate(diag) if x > 0), None)
        if pos is None:
            return not np.count_nonzero(m)
        rest = [t for t in range(len(m)) if t != pos]
        col = m[rest, pos]
        m = (diag[pos] * m[np.ix_(rest, rest)] - np.outer(col, col)) // prev
        prev = diag[pos]
    return True
