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

A :class:`TensorOperator` is an exact rational matrix: a global ``Fraction``
scale times integer entries, so no rounding can ever occur.  Permutations of
the sites keep a word's letter histogram, so permutation operators,
projectors, and their sums, products, partial traces, tensor products, twirls
and channel outputs are block diagonal over the letter-count blocks of
:func:`_letter_blocks`.  They also commute with relabelling the d letters on
every site at once, which carries each block onto the block of the sorted
histogram.  These are the only operators held here: the constructor refuses
a matrix that is nonzero outside the letter blocks or changed by the two
generators of S_d (matching each block with its sorted block alone does not
imply invariance), and every operation maps such operators to such
operators.  An operator stores one flat integer vector holding only the
blocks whose histogram is sorted in decreasing order, each row-major after
the previous one (:class:`_Layout`); every other word reads its image in such
a block.  Random operators are drawn in this layout too, invariant by
construction (:func:`random_invariant`), so no full matrix is drawn.

Every operation reads and writes the vector through index maps computed once
from word digits and block offsets.  Sums, equality and traces are
whole-vector numpy calls.  A Hilbert-Schmidt pairing is one dot product: the
first operator's entries are transposed and weighted by the number of letter
blocks each stored entry stands for, and that one vector pairs with any list
of operators (:meth:`TensorOperator.pairings`).  Matrix products and the PSD
test loop over reshaped block views.  Partial traces, tensor products,
conjugation and the twirl gather entries through site maps; the channel reads
two, the last site's map and the cyclic shift of the sites, and mixes each
site in turn at the last position.  No operation forms a d^n x d^n array;
only ``mat``, a fresh full Python-int copy, does.

The vector is int64 when every entry fits and Python ints (object dtype)
otherwise.  Each operation bounds the entries it will form and passes that
bound to :func:`_exact`, which keeps int64 only when it certifies no overflow
and falls back to arbitrary precision otherwise.  An integer matrix product
(:func:`_int_matmul`: the block products, and the coefficient products and
spread maps of the projector construction) takes one of two routes by the certificate
m max|A| max|B|, m the inner dimension, and the operand dtypes alone: float64
BLAS up to 2^53, Python ints beyond, or whenever an operand already holds
Python ints.  The float route is exact whatever the summation order,
blocking, FMA or thread count: every partial sum is a sum of some of the m
products, so it is an integer of modulus at most 2^53, which float64 holds
exactly, and so is every input entry that meets a nonzero factor (a zero
factor gives an exact zero).

Operators are immutable by convention: no operation mutates its inputs, and
constructed operators can be shared freely across threads.
"""

from __future__ import annotations

import itertools
import math
import numbers
import random
from fractions import Fraction
from functools import cache, cached_property, lru_cache, partial
from typing import Callable, Iterable, Sequence

import numpy as np

from .frames import YoungFrame, _integers, depolarising_weight, enumerate_frames, exact_rational
from .symmetric_group import Permutation

# The one dense size limit: max(d, 2)^n <= DIMENSION_CAP, so n <= 12 at d <= 2,
# n <= 8 at d = 3 and n <= 6 at d = 4.  No dense operation loops over S_n, so
# nothing else bounds n; at d = 1, where every operator is 1 x 1, the limit
# counts as if d were 2.
DIMENSION_CAP = 6561

# Largest n per d at which the verify suites sweep dense operators.  It stays
# below the (2, 12), (3, 8) and (4, 6) the size limit allows, for memory: the
# (3, 8) family alone holds 46 MiB, though it builds in about 0.05 s
# single-threaded, and its overlap table peaks near 190 MB.
DENSE_SWEEP_N = {2: 8, 3: 6, 4: 5}

_INT64_MAX = 2**63 - 1
_FLOAT_EXACT_MAX = 2**53  # every integer of modulus up to this is a float64


def _check_dense_size(d: int, n: int) -> tuple[int, int]:
    """Refuse a dense size past the limit, before any cache sees it; d and n come back as ints (:func:`frames._integers`)."""
    d, n = _integers((d, n), "d and n", (1, 0))
    if max(d, 2) ** n > DIMENSION_CAP:
        raise ValueError(f"dense size d={d}, n={n}: max(d, 2)**n exceeds cap {DIMENSION_CAP}")
    return d, n


def _amax(a: np.ndarray) -> int:
    """Largest entry modulus of an integer array (0 when empty)."""
    return max(int(a.max()), -int(a.min())) if a.size else 0


def _exact(bound: int, *arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The integer arrays unchanged when all are int64 and ``bound`` fits int64, else as Python ints.

    ``bound`` is the caller's certificate: no entry it computes from the
    arrays exceeds it in modulus.
    """
    if bound <= _INT64_MAX and all(a.dtype == np.int64 for a in arrays):
        return arrays
    return tuple(a.astype(object, copy=False) for a in arrays)


def _stored(vec: np.ndarray) -> np.ndarray:
    """An integer vector as int64 when every entry fits, else as Python ints."""
    if not np.can_cast(vec.dtype, np.int64):
        vec = vec.astype(object, copy=False)
    try:
        return vec.astype(np.int64, copy=False)
    except OverflowError:  # some Python int needs more than 64 bits
        return vec


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@cache
def _word_digits(d: int, n: int) -> np.ndarray:
    """All words of [d]^n as digit rows, lexicographic; shape (d^n, n)."""
    return np.arange(d**n, dtype=np.int64)[:, None] // _index_powers(d, n) % d


@cache
def _index_powers(d: int, n: int) -> np.ndarray:
    return np.array([d ** (n - 1 - i) for i in range(n)], dtype=np.int64)


@cache
def _letter_counts(d: int, n: int) -> np.ndarray:
    """The letter histogram of every word of [d]^n; shape (d^n, d)."""
    digits = _word_digits(d, n)
    return _read_only(np.stack([(digits == a).sum(axis=1) for a in range(d)], axis=1))


def _letter_blocks(d: int, n: int) -> tuple[np.ndarray, ...]:
    """Word indices of [d]^n grouped by letter histogram, one read-only array per block.

    Blocks are ordered by histogram and each lists its words in increasing
    order.  Every permutation operator maps a block to itself.
    """
    keys = _letter_counts(d, n) @ (n + 1) ** np.arange(d)
    order = _read_only(np.argsort(keys, kind="stable"))
    return tuple(np.split(order, np.flatnonzero(np.diff(keys[order])) + 1))


def _relabelled_words(g: Sequence[int], d: int, n: int) -> np.ndarray:
    """Index map w -> index of w with every letter a replaced by g[a], on all sites at once."""
    return np.array(g, dtype=np.int64)[_word_digits(d, n)] @ _index_powers(d, n)


def _sorted_images(d: int, n: int) -> np.ndarray:
    """Each word relabelled by the stable sort of its histogram: its most frequent letter becomes 0, and so on.

    The image's histogram is sorted in decreasing order, and a word whose
    histogram already is maps to itself.
    """
    relabel = np.argsort(np.argsort(-_letter_counts(d, n), axis=1, kind="stable"), axis=1)
    return np.take_along_axis(relabel, _word_digits(d, n), axis=1) @ _index_powers(d, n)


class _Layout:
    """Where each stored entry of an operator on [d]^n sits in its flat vector.

    Only the letter blocks whose histogram is sorted in decreasing order are
    stored.  The entry at the word pair (blocks[b][i], blocks[b][j]) sits at
    ``spans[b][0] + i m + j``, m = len(blocks[b]).  Every other word is mapped
    to its image in such a block (:func:`_sorted_images`): an operator that
    commutes with every relabelling of the letters has the same entry at both.
    So the position of (x, y) is ``row_base[x] + local[y]`` when
    ``block_of[x] == block_of[y]``; other pairs are zero and not stored.
    ``weights`` counts the letter blocks each stored block stands for, and
    ``block_of`` numbers every word's own letter block.  Every array is
    read-only; the per-entry maps are built on first use.
    """

    def __init__(self, d: int, n: int):
        self.d, self.n = d, n
        dim = d**n
        letter = _letter_blocks(d, n)
        self.block_of, self.local, self.row_base = (np.empty(dim, dtype=np.int64) for _ in range(3))
        for b, words in enumerate(letter):
            self.block_of[words] = b
        image = _sorted_images(d, n)
        counts = np.bincount(self.block_of[image[[words[0] for words in letter]]], minlength=len(letter))
        stored = np.flatnonzero(counts)  # every image lies in a sorted block, itself its own image
        self.blocks, self.weights = tuple(letter[b] for b in stored), tuple(counts[stored].tolist())
        ends = list(itertools.accumulate(len(w) ** 2 for w in self.blocks))
        self.spans = [(end - len(w) ** 2, end, len(w)) for w, end in zip(self.blocks, ends)]
        self.size = ends[-1]
        self.terms = sum(w * (hi - lo) for w, (lo, hi, _) in zip(self.weights, self.spans))
        for words, (start, _, m) in zip(self.blocks, self.spans):
            self.local[words] = np.arange(m)
            self.row_base[words] = start + m * np.arange(m)
        self.local, self.row_base = self.local[image], self.row_base[image]
        for a in (self.block_of, self.local, self.row_base):
            _read_only(a)

    @cached_property
    def entry_weights(self) -> np.ndarray:
        """The weight of every stored entry: the number of letter blocks its block stands for."""
        sizes = [hi - lo for lo, hi, _ in self.spans]
        return _read_only(np.repeat(np.array(self.weights, dtype=np.int64), sizes))

    def position(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Vector positions of the word pairs (x, y); the caller ensures each pair is stored."""
        return self.row_base[x] + self.local[y]

    @cached_property
    def rows(self) -> np.ndarray:
        """Row word of every stored entry."""
        return _read_only(np.concatenate([np.repeat(w, len(w)) for w in self.blocks]))

    @cached_property
    def cols(self) -> np.ndarray:
        """Column word of every stored entry."""
        return _read_only(np.concatenate([np.tile(w, len(w)) for w in self.blocks]))

    @cached_property
    def transpose(self) -> np.ndarray:
        """Position of the transposed entry (y, x) of every stored entry (x, y)."""
        return _read_only(self.position(self.cols, self.rows))

    @cached_property
    def diagonal(self) -> np.ndarray:
        """Position of the diagonal entry (x, x) of every word x, in word order."""
        return _read_only(self.row_base + self.local)

    @cached_property
    def letter_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """The flat index x d^n + y of every word pair (x, y) inside a letter block, and its position here."""
        blocks = _letter_blocks(self.d, self.n)
        rows, cols = (np.concatenate([spread(w, len(w)) for w in blocks]) for spread in (np.repeat, np.tile))
        return _read_only(rows * self.d**self.n + cols), _read_only(self.position(rows, cols))


@cache
def _layout(d: int, n: int) -> _Layout:
    """The one layout of operators on [d]^n, shared by all of them."""
    return _Layout(d, n)


class TensorOperator:
    """Dense exact-rational operator: ``scale`` times integer entries stored in a :class:`_Layout`."""

    __slots__ = ("d", "n", "scale", "_layout", "_vec", "_amax")

    def __init__(self, d: int, n: int, scale: Fraction | int | str, mat: np.ndarray):
        """The operator ``scale`` times ``mat``, a full d^n x d^n integer matrix (copied).

        ``mat`` must be zero outside the letter blocks and unchanged under
        relabelling the letters; any other matrix raises ``ValueError``.
        """
        d, n = _check_dense_size(d, n)
        dim = d**n
        if mat.shape != (dim, dim):
            raise ValueError(f"matrix shape {mat.shape} does not match {dim}x{dim}")
        if mat.dtype != object and mat.dtype.kind not in "iu":
            raise ValueError(f"matrix dtype {mat.dtype} is not exact: pass integers or Python ints")
        if mat.dtype == object and not all(issubclass(t, numbers.Integral) for t in set(map(type, mat.flat))):
            raise ValueError("matrix entries are not all integers: fold fractions into the scale")
        flat = mat.reshape(-1)
        layout = _layout(d, n)
        pairs, position = layout.letter_pairs
        inside = flat.take(pairs)
        if np.count_nonzero(inside) != np.count_nonzero(flat):
            raise ValueError("matrix is nonzero outside the letter-count blocks")
        # the generators of S_d: the swap of letters 0 and 1 and the d-cycle a -> a + 1
        generators = {(1, 0, *range(2, d)), (*range(1, d), 0)} if d > 1 else set()
        for g in generators:
            words = _relabelled_words(g, d, n)
            if not np.array_equal(mat[np.ix_(words, words)], mat):
                raise ValueError("matrix is not invariant under relabelling the letters")
        vec = np.zeros(layout.size, dtype=flat.dtype)
        vec[position] = inside  # each stored entry, written once per word pair of its orbit
        self._set(d, n, exact_rational(scale), layout, vec)

    def _set(self, d: int, n: int, scale: Fraction, layout: _Layout, vec: np.ndarray) -> None:
        self.d, self.n, self.scale, self._layout = d, n, scale, layout
        self._vec = _stored(vec)
        self._amax = None

    @classmethod
    def _of(cls, d: int, n: int, scale: Fraction, layout: _Layout, vec: np.ndarray) -> "TensorOperator":
        """The operator with entries ``vec`` in ``layout``, as internal results are built."""
        op = object.__new__(cls)
        op._set(d, n, scale, layout, vec)
        return op

    @property
    def mat(self) -> np.ndarray:
        """A fresh full d^n x d^n copy of the matrix as Python ints (object dtype); not cached."""
        dim = self.d**self.n
        pairs, position = self._layout.letter_pairs
        out = np.zeros(dim * dim, dtype=object)
        out[pairs] = self._vec.take(position).astype(object)
        return out.reshape(dim, dim)

    def _bound(self) -> int:
        """Largest entry modulus, computed once."""
        if self._amax is None:
            self._amax = _amax(self._vec)
        return self._amax

    def transpose(self) -> "TensorOperator":
        """The transposed operator: each stored entry read at its transposed position."""
        return TensorOperator._of(self.d, self.n, self.scale, self._layout, self._vec.take(self._layout.transpose))

    def is_symmetric(self) -> bool:
        """Whether the matrix equals its transpose, read on the stored entries."""
        return bool(np.array_equal(self._vec, self._vec.take(self._layout.transpose)))

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, d: int, n: int) -> "TensorOperator":
        d, n = _check_dense_size(d, n)
        layout = _layout(d, n)
        return cls._of(d, n, Fraction(0), layout, np.zeros(layout.size, dtype=np.int64))

    @classmethod
    def identity(cls, d: int, n: int) -> "TensorOperator":
        d, n = _check_dense_size(d, n)
        layout = _layout(d, n)
        vec = np.zeros(layout.size, dtype=np.int64)
        vec[layout.diagonal] = 1
        return cls._of(d, n, Fraction(1), layout, vec)

    @classmethod
    def maximally_mixed(cls, d: int, n: int = 1) -> "TensorOperator":
        return cls.identity(d, n) * Fraction(1, d**n)

    # -- scalar structure ----------------------------------------------------

    def reduced(self) -> "TensorOperator":
        """Fold the integer gcd of the entries into the scale (canonical form)."""
        vec = self._vec
        g = int(np.gcd.reduce(np.abs(vec))) if vec.size else 0
        if g == 0:
            return TensorOperator.zero(self.d, self.n)
        if g == 1:
            return self
        return TensorOperator._of(self.d, self.n, self.scale * g, self._layout, vec // g)

    def entry(self, i: int, j: int) -> Fraction:
        i, j = _integers((i, j), "indices")
        dim = self.d**self.n
        if not (0 <= i < dim and 0 <= j < dim):
            raise ValueError(f"entry ({i}, {j}) outside 0..{dim - 1}")
        layout = self._layout
        if layout.block_of[i] != layout.block_of[j]:
            return Fraction(0)
        return self.scale * int(self._vec[layout.position(i, j)])

    # -- arithmetic ----------------------------------------------------------

    def _scaled_pair(self, a: int, other: "TensorOperator", b: int) -> tuple[np.ndarray, np.ndarray]:
        """a times this operator's entries and b times the other's.

        They stay int64 when |a| max|A| + |b| max|B| fits.
        """
        bound = abs(a) * max(self._bound(), 1) + abs(b) * max(other._bound(), 1)
        x, y = _exact(bound, self._vec, other._vec)
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
        return TensorOperator._of(self.d, self.n, s, self._layout, x + y)

    def __sub__(self, other: "TensorOperator") -> "TensorOperator":
        return self + (-1) * other

    def __rmul__(self, c: Fraction | int | str) -> "TensorOperator":
        c = exact_rational(c)
        if c == 0:
            return TensorOperator.zero(self.d, self.n)
        return TensorOperator._of(self.d, self.n, self.scale * c, self._layout, self._vec)

    def __mul__(self, c: Fraction | int | str) -> "TensorOperator":
        return self.__rmul__(c)

    def __matmul__(self, other: "TensorOperator") -> "TensorOperator":
        """Matrix product, one stored block at a time.

        Each block product takes the route its own bound certifies (see
        :func:`_int_matmul`): float64 BLAS or Python ints.
        """
        self._compatible(other)
        layout, a, b = self._layout, self._vec, other._vec
        parts = [_int_matmul(a[lo:hi].reshape(m, m), b[lo:hi].reshape(m, m)) for lo, hi, m in layout.spans]
        vec = np.concatenate([part.ravel() for part in parts])
        return TensorOperator._of(self.d, self.n, self.scale * other.scale, layout, vec)

    def trace(self) -> Fraction:
        diagonal = self._layout.diagonal
        (entries,) = _exact(len(diagonal) * self._bound(), self._vec.take(diagonal))
        return self.scale * int(entries.sum())

    def pairings(self, others: Sequence["TensorOperator"]) -> list[int]:
        """The integer pairing sum of A_ij B_ji of this operator's entries with those of each of ``others``.

        tr(self @ other) is ``self.scale * other.scale`` times the pairing.
        Each stored block is paired once and counted for every letter block
        it stands for.  This operator is read once, transposed and weighted entry by entry
        (:attr:`_Layout.entry_weights`), and each pairing is one dot product
        with that vector.  The sums run in int64 when (number of terms)
        max|A| max|B| fits, each stored term counted with its block's weight,
        B ranging over ``others``.  A weighted entry then fits too, being at
        most terms max|A|, except when every B is zero, and then it
        multiplies only zeros.
        """
        if not others:
            return []
        for other in others:
            self._compatible(other)
        layout = self._layout
        weights, transposed, *vecs = _exact(
            layout.terms * self._bound() * max(o._bound() for o in others),
            layout.entry_weights,
            self._vec.take(layout.transpose),
            *(o._vec for o in others),
        )
        weighted = weights * transposed
        return [int(np.dot(weighted, vec)) for vec in vecs]

    def hs_product(self, other: "TensorOperator") -> Fraction:
        """Hilbert-Schmidt pairing tr(self @ other) without forming the product (see :meth:`pairings`)."""
        (pairing,) = self.pairings([other])
        return self.scale * other.scale * pairing

    def kron(self, other: "TensorOperator") -> "TensorOperator":
        """Tensor product, self on the first sites."""
        if self.d != other.d:
            raise ValueError("local dimensions differ")
        d, n = self.d, self.n + other.n
        _check_dense_size(d, n)
        stored, left, right = _kron_maps(d, self.n, other.n)
        a, b = _exact(self._bound() * other._bound(), self._vec, other._vec)
        layout = _layout(d, n)
        vec = np.zeros(layout.size, dtype=a.dtype)
        vec[stored] = a.take(left) * b.take(right)
        return TensorOperator._of(d, n, self.scale * other.scale, layout, vec)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TensorOperator):
            return NotImplemented
        if (self.d, self.n) != (other.d, other.n):
            return False
        a = self.scale.numerator * other.scale.denominator
        b = other.scale.numerator * self.scale.denominator
        return bool(np.array_equal(*self._scaled_pair(a, other, b)))

    # -- site-structure operations --------------------------------------------

    def partial_trace(self, sites: Iterable[int]) -> "TensorOperator":
        """Trace out the given 0-based sites; remaining sites keep their order.

        Each output entry sums d^(number of traced sites) input entries, read
        through :func:`_trace_maps`, so the sum runs in int64 when max|entry|
        times that count fits.
        """
        sites = tuple(sorted(set(_integers(sites, "sites"))))
        if any(s < 0 or s >= self.n for s in sites):
            raise ValueError(f"sites {list(sites)} outside range(0, {self.n})")
        if not sites:
            return self
        d, m = self.d, self.n - len(sites)
        (vec,) = _exact(self._bound() * d ** len(sites), self._vec)
        out = vec.take(_trace_maps(d, self.n, sites)).sum(axis=0)
        return TensorOperator._of(d, m, self.scale, _layout(d, m), out)


# -- site maps -------------------------------------------------------------------


@lru_cache(maxsize=64)
def _kron_maps(d: int, n_left: int, n_right: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where A kron B can be nonzero, and the positions of the A and B entries multiplied there.

    The output entry at ((x, y), (x', y')) is A[x, x'] B[y, y'].  It is
    stored whenever xy and x'y' share a histogram, but
    nonzero only when x and x' do too (and then so do y and y'); the first
    array lists those positions of the output vector.
    """
    out, left, right = (_layout(d, m) for m in (n_left + n_right, n_left, n_right))
    x, y = np.divmod(out.rows, d**n_right)
    x_, y_ = np.divmod(out.cols, d**n_right)
    stored = np.flatnonzero(left.block_of[x] == left.block_of[x_])
    maps = stored, left.position(x[stored], x_[stored]), right.position(y[stored], y_[stored])
    return tuple(map(_read_only, maps))


@lru_cache(maxsize=64)
def _trace_maps(d: int, n: int, sites: tuple[int, ...]) -> np.ndarray:
    """Input positions summed into each output entry of the trace over ``sites``, shape (d^k, output size).

    The output entry (x, x') sums the input entries at (x + z, x' + z) over
    the d^k letter assignments z of the traced sites, x filling the other
    sites in order.  Adding z to both words keeps them in one letter block.
    """
    source, out = _layout(d, n), _layout(d, n - len(sites))
    powers = _index_powers(d, n)
    kept = [s for s in range(n) if s not in sites]
    spread = _word_digits(d, len(kept)) @ powers[kept]  # an output word as a word on n sites
    traced = (_word_digits(d, len(sites)) @ powers[list(sites)])[:, None]
    return _read_only(source.position(spread[out.rows] + traced, spread[out.cols] + traced))


@lru_cache(maxsize=64)
def _site_maps(d: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The entries of tr_s(M) tensor 1 at the last site s: where it can be nonzero, and what each sums.

    (tr_s M tensor 1)[x, x'] is zero unless x and x' agree at site s, and then
    sums M over the d pairs with both letters at s set to each c; the second
    array holds those positions, shape (d, number of such entries).  The
    letter at the last site is the word index mod d.
    """
    layout = _layout(d, n)
    row_letter, col_letter = layout.rows % d, layout.cols % d
    agree = np.flatnonzero(row_letter == col_letter)
    letters = np.arange(d)[:, None]
    rows = (layout.rows - row_letter)[agree] + letters
    cols = (layout.cols - col_letter)[agree] + letters
    return _read_only(agree), _read_only(layout.position(rows, cols))


@lru_cache(maxsize=64)
def _shift_map(d: int, n: int) -> np.ndarray:
    """The positions :func:`conjugate_by_permutation` reads for the cyclic shift i -> i + 1 mod n."""
    return _read_only(_conjugated_positions(Permutation(tuple((i + 1) % n for i in range(n))), d))


def random_invariant(rng: random.Random, d: int, n: int, lo: int, hi: int) -> TensorOperator:
    """A random operator at scale 1: one ``rng.randint(lo, hi)`` per stored entry, summed over the d! relabellings.

    The entry at (x, y) sums the draws stored for (g x, g y) over every g.  A g
    that moves the sorted histogram h of x lands, through the sorted images, on
    one that fixes h, so every stored block is invariant by construction.  The
    1 x 1 block of the histogram (n) is d! times its one draw, so that draw
    skips 0: it is drawn from one value fewer, and moved up by one from 0 on.
    """
    d, n = _check_dense_size(d, n)
    layout = _layout(d, n)
    corner, skip = int(layout.position(0, 0)), lo <= 0 <= hi
    draws = [rng.randint(lo, hi - skip) if i == corner else rng.randint(lo, hi) for i in range(layout.size)]
    draws[corner] += skip and draws[corner] >= 0
    drawn = np.array(draws, dtype=object)
    moved = (_relabelled_words(g, d, n) for g in itertools.permutations(range(d)))
    vec = sum(drawn.take(layout.position(words[layout.rows], words[layout.cols])) for words in moved)
    return TensorOperator._of(d, n, Fraction(1), layout, vec)


# -- permutation action --------------------------------------------------------


def _word_map(images: tuple[int, ...], d: int) -> np.ndarray:
    """Index map w -> index of the word y with y[tau(i)] = w[i], for tau = images.

    The index of y is the sum of w[i] d^(n-1-tau(i)): the digits times the
    place values read in the order of ``images``.
    """
    n = len(images)
    return _word_digits(d, n) @ _index_powers(d, n)[list(images)]


def perm_operator(tau: Permutation, d: int) -> TensorOperator:
    """0/1 matrix moving the letter at site i to site tau(i); B(s)B(t) = B(st)."""
    d, _ = _check_dense_size(d, tau.n)
    layout = _layout(d, tau.n)
    vec = np.zeros(layout.size, dtype=np.int64)
    vec[layout.position(_word_map(tau.images, d), np.arange(d**tau.n))] = 1
    return TensorOperator._of(d, tau.n, Fraction(1), layout, vec)


# -- isotypical projectors -------------------------------------------------------


def _matmul_route(a: np.ndarray, b: np.ndarray) -> str:
    """The route of :func:`_int_matmul` for ``a @ b``: "float" or "object".

    With m the inner dimension, m max|a| max|b| bounds every partial sum of
    every entry of the product.  Two int64 operands take float64 BLAS when
    that bound is at most 2^53; every other pair takes Python ints.
    """
    if a.dtype != np.int64 or b.dtype != np.int64:
        return "object"
    return "float" if a.shape[1] * _amax(a) * _amax(b) <= _FLOAT_EXACT_MAX else "object"


def _int_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact a @ b of integer matrices, by the route of :func:`_matmul_route`.

    The float route casts both operands to float64, multiplies them with
    BLAS and casts back to int64; the bound makes every value it forms an
    integer float64 holds exactly (see the module docstring).  The object
    route multiplies Python ints.
    """
    if _matmul_route(a, b) == "float":
        return (a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64)
    return a.astype(object, copy=False) @ b.astype(object, copy=False)


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
    """Word maps of every cycle of the given length on n sites, one row each (see :func:`_word_map`).

    One product of the cycles' place values with the digit table, on the float
    route of :func:`_int_matmul`: its bound n (d-1) d^(n-1) is far below 2^53.
    """
    images = []
    for sites in itertools.combinations(range(n), length):
        for rest in itertools.permutations(sites[1:]):
            row = list(range(n))
            cycle = (sites[0],) + rest
            for i, j in zip(cycle, cycle[1:] + cycle[:1]):
                row[i] = j
            images.append(row)
    places = _index_powers(d, n)[np.array(images, dtype=np.int64).reshape(len(images), n)]
    return _int_matmul(places, _word_digits(d, n).T)


def _sorting_spread(words: np.ndarray, local: np.ndarray, d: int, n: int) -> np.ndarray:
    """Local index of sigma_i w_j for every word pair (w_i, w_j) of a letter block, shape (m, m).

    sigma_i is the stable sort of w_i's sites, so sigma_i w_i is the block's
    sorted word w0 = ``words[0]``.  An operator that commutes with every site
    permutation has the same entry at (w_i, w_j) as at (w0, sigma_i w_j), so
    its block is its w0 row read through this map.  The index of sigma_i w
    sums w[s] d^(n-1-r) over the sites s, r the place of s in the sort: one
    product of the (m x n) place values with the (n x m) digit table, on the
    float route of :func:`_int_matmul` (every entry is below d^n).  ``local``
    numbers the block's words 0..m-1.
    """
    digits = _word_digits(d, n)[words]
    places = _index_powers(d, n)[np.argsort(np.argsort(digits, axis=1, kind="stable"), axis=1)]
    return local[_int_matmul(places, digits.T)]


def _lagrange_rows(start: np.ndarray, steps: np.ndarray, values: list[int]) -> list[tuple[np.ndarray, int]]:
    """(N_i, D_i) with N_i / D_i = ``start`` times prod over j != i of (M - v_j) / (v_i - v_j).

    M is a class sum on one letter block, given by ``steps``: the local index
    of the word each of its permutations maps every word to, one row per
    permutation, so a row times M is one gather and one sum over those rows.
    For a diagonalisable M whose eigenvalues lie in the distinct ``values``,
    the product projects onto the v_i eigenspace.  The rows start M^j are
    formed once: M >= 0 and its columns sum to the class size c, so
    |start M^j| <= max|start| c^j entrywise, and they run in int64 when that
    bound fits.  The numerators are one product of the coefficient matrix with
    those rows (:func:`_int_matmul`).
    """
    (row,) = _exact(max(_amax(start), 1) * len(steps) ** (len(values) - 1), start)
    powers = [row]
    for _ in range(len(values) - 1):
        powers.append(powers[-1].take(steps).sum(axis=0))
    coeffs, dens = [], []
    for i, v in enumerate(values):
        poly, den = [1], 1  # coefficients of prod (x - u), lowest degree first
        for u in values[:i] + values[i + 1 :]:
            poly = [a - u * b for a, b in zip([0] + poly, poly + [0])]
            den *= v - u
        coeffs.append(poly)
        dens.append(den)
    return list(zip(_int_matmul(_stored(np.array(coeffs, dtype=object)), np.stack(powers)), dens))


def _block_projectors(
    frames: list[YoungFrame], m: int, steps: Callable[[int], np.ndarray]
) -> dict[YoungFrame, tuple[np.ndarray, int]]:
    """(N, D) with N / D the sorted word's row of P_lam on one letter block of m words, for the frames in it.

    ``steps(2)`` and ``steps(3)`` give T and C3 on the block (see
    :func:`_lagrange_rows`).  The Lagrange product over content sums projects
    onto P_lam, or onto the sum of the P_mu sharing lam's content sum; a
    second product over the C3 eigenvalues splits such a collision, applied to
    the first one's row since T and C3 commute.  The two eigenvalues together
    tell apart the frames of every YF(d, n) the size limit allows.
    """
    groups: dict[int, list[YoungFrame]] = {}
    for lam in frames:
        groups.setdefault(central_eigenvalues(lam)[0], []).append(lam)
    first = np.zeros(m, dtype=np.int64)
    first[0] = 1
    out = {}
    for (num, den), group in zip(_lagrange_rows(first, steps(2), list(groups)), groups.values()):
        if len(group) == 1:
            out[group[0]] = (num, den)
            continue
        split = [central_eigenvalues(lam)[1] for lam in group]
        for lam, (snum, sden) in zip(group, _lagrange_rows(num, steps(3), split)):
            out[lam] = (snum, den * sden)
    return out


def _dominates(lam: YoungFrame, part: tuple[int, ...]) -> bool:
    return all(a >= b for a, b in zip(itertools.accumulate(lam.padded(len(part))), itertools.accumulate(part)))


# Every family a dense sweep asks for, (d, 0..DENSE_SWEEP_N[d]) for each d, stays cached.
@lru_cache(maxsize=sum(n + 1 for n in DENSE_SWEEP_N.values()))
def _projector_family(d: int, n: int) -> dict[YoungFrame, TensorOperator]:
    """The family from central elements, one row per sorted letter histogram.

    Permutations keep a word's letter histogram, so every P_lam is block
    diagonal over the histograms, and P_lam is nonzero on a block exactly when
    lam dominates its sorted histogram (Kostka number > 0).  Relabelling the
    letters commutes with S_n, so every P_lam is stored in the sorted layout,
    one block per sorted histogram.  P_lam commutes with every site
    permutation too, and those act transitively on a block, so the block is
    fixed by its sorted word's row: the rows are built from powers of T on
    that one row (:func:`_block_projectors`), and each is spread over its span
    by :func:`_sorting_spread`.  The largest blocks go first: their spread
    maps, the largest temporaries, are then formed while most of the zeroed
    vectors are still unwritten.  Every block is written at the common scale
    n!: n! P_lam is an integer matrix, so each block denominator divides n!,
    and its entries have modulus at most n!, as an orthogonal projector's
    entries have modulus at most 1: int64, as the dense size limit keeps
    n <= 12.  Every row of a block is its first row permuted, so the gcd g of
    a vector's entries is the gcd of its rows' gcds: the rows are divided by g
    before they are spread, which leaves g/n! times a primitive vector, the
    canonical form ``reduced`` gives.
    """
    layout = _layout(d, n)
    counts = _letter_counts(d, n)
    cycle_maps = cache(partial(_cycle_class_maps, d, n))
    fact = math.factorial(n)
    frames = enumerate_frames(d, n)
    blocks = sorted(zip(layout.blocks, layout.spans), key=lambda item: -len(item[0]))
    rows = []  # each block's rows, at the common scale n!
    for words, (_, _, m) in blocks:
        rows_of = _block_projectors(
            [lam for lam in frames if _dominates(lam, tuple(counts[words[0]].tolist()))],
            m,
            lambda length: layout.local[cycle_maps(length)[:, words]],
        )
        rows.append({lam: (num.astype(object) * fact // den).astype(np.int64) for lam, (num, den) in rows_of.items()})
    gcds = {lam: math.gcd(*(int(np.gcd.reduce(block[lam])) for block in rows if lam in block)) for lam in frames}
    vecs = {lam: np.zeros(layout.size, dtype=np.int64) for lam in frames}
    for (words, (lo, hi, m)), block in zip(blocks, rows):
        spread = _sorting_spread(words, layout.local, d, n)
        for lam, row in block.items():
            np.take(row // gcds[lam], spread, out=vecs[lam][lo:hi].reshape(m, m))
    return {lam: TensorOperator._of(d, n, Fraction(gcds[lam], fact), layout, _read_only(vec))
            for lam, vec in vecs.items()}


def isotypical_projectors(d: int, n: int) -> dict[YoungFrame, TensorOperator]:
    """All isotypical projectors P_lam for lam in YF_{d,n}, in ``enumerate_frames`` order.

    T, the sum of all transpositions, acts on the lam block as the content sum
    c(lam), so P_lam = prod over mu != lam of (T - c(mu)) / (c(lam) - c(mu)),
    the product running over the frames present in a letter-count block.
    Where two frames share a content sum the 3-cycle class sum splits them
    (see :func:`central_eigenvalues`).  Each block is built from one row: a
    row times T takes n(n-1)/2 index gathers, not a sweep over all n!
    permutations, so the dense size limit alone bounds n.  The family is
    cached: each call returns a new dict of the same read-only operators.
    """
    return dict(_projector_family(*_check_dense_size(d, n)))


def clear_projector_cache() -> None:
    """Drop cached projector families and the index maps of the dense operations.

    The family cache holds as many families as a dense sweep up to
    :data:`DENSE_SWEEP_N` asks for, (d, 0..n) for each d: 22.  A family holds
    one int64 vector per frame; the d=2 n=10 family holds 6.0 MB,
    the d=3 n=8 family 48.7 MB (its build peaks about 7 MB above that, as it
    holds one sorted histogram's spread map at a time).  The maps of ``kron``,
    ``partial_trace``, ``twirl`` and ``depolarise_n`` (its last-site map and
    its cyclic shift) are cleared too: the eight (3, 8) kron maps alone hold
    39 MB.  So a caller that builds larger
    families can free them here.  The cached layouts stay, so an operator
    built before the clear shares its layout with one built after it.
    """
    for cached in (_projector_family, _kron_maps, _trace_maps, _site_maps, _shift_map, _pair_orbits):
        cached.cache_clear()


# -- channel building blocks ----------------------------------------------------


def tensor_with_maximally_mixed(a: TensorOperator, k: int) -> TensorOperator:
    """a tensored with k maximally mixed sites appended on the right."""
    (k,) = _integers((k,), "k", (0,))
    if k == 0:
        return a
    return a.kron(TensorOperator.maximally_mixed(a.d, k))


def insert_maximally_mixed(a: TensorOperator, positions: Sequence[int], n: int) -> TensorOperator:
    """Extend ``a`` to ``n`` sites with maximally mixed states at ``positions``.

    The sites of ``a`` fill the complementary positions in order: the mixed
    sites are appended, then every site moves to its place by conjugation.
    """
    _, n = _check_dense_size(a.d, n)
    positions = sorted(set(_integers(positions, "positions")))
    k = len(positions)
    if a.n + k != n:
        raise ValueError(f"{a.n} sites plus {k} insertions do not give {n}")
    if positions and not 0 <= positions[0] <= positions[-1] < n:
        raise ValueError(f"positions {positions} outside range(0, {n})")
    if k == 0:
        return a
    remaining = [s for s in range(n) if s not in set(positions)]
    appended = tensor_with_maximally_mixed(a, k)
    return conjugate_by_permutation(appended, Permutation(tuple(remaining + positions)))


def conjugate_by_permutation(a: TensorOperator, tau: Permutation) -> TensorOperator:
    """B(tau) a B(tau)^{-1}: the entry at (x, y) is a's entry at (g(x), g(y)), g the word map of tau^{-1}.

    g keeps letter histograms, so the entries move within their blocks.
    """
    if tau.n != a.n:
        raise ValueError("permutation size does not match operator sites")
    return TensorOperator._of(a.d, a.n, a.scale, a._layout, a._vec.take(_conjugated_positions(tau, a.d)))


def _conjugated_positions(tau: Permutation, d: int) -> np.ndarray:
    """The position each stored entry of B(tau) a B(tau)^{-1} reads in a: position(g[rows], g[cols])."""
    g = _word_map(tau.inverse().images, d)
    layout = _layout(d, tau.n)
    return layout.row_base[g][layout.rows] + layout.local[g][layout.cols]


@lru_cache(maxsize=64)
def _pair_orbits(d: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Orbits of the stored word pairs (x, y) under permuting the sites of x and y together.

    Returns the orbit index of every stored entry (orbits numbered from 0),
    the entries sorted by orbit and the start of each orbit in that order,
    and n!/|orbit| for each orbit.  An orbit is labelled by the histogram of
    the letter pairs (x_i, y_i): the codes d x_i + y_i, sorted and read as a
    base-d^2 number, which stays below d^(2n) <= DIMENSION_CAP^2 under the
    dense size limit.  Permuting sites keeps letter histograms, so every orbit
    lies inside the layout.
    """
    layout = _layout(d, n)
    digits = _word_digits(d, n)
    powers = (d * d) ** np.arange(n - 1, -1, -1, dtype=np.int64)
    labels = np.empty(layout.size, dtype=np.int64)
    step = max(1, 2**22 // max(n, 1))  # entries per slice: at most ~4M letter pairs
    for start in range(0, layout.size, step):
        pairs = digits[layout.rows[start : start + step]] * d + digits[layout.cols[start : start + step]]
        pairs.sort(axis=1)
        labels[start : start + step] = pairs @ powers
    _, orbit, sizes = np.unique(labels, return_inverse=True, return_counts=True)
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    by_orbit = np.argsort(orbit, kind="stable")
    return _read_only(orbit), _read_only(by_orbit), _read_only(starts), _read_only(math.factorial(n) // sizes)


def twirl(a: TensorOperator) -> TensorOperator:
    """Average of B(tau) a B(tau)^{-1} over all of S_n (the permutation twirl).

    Conjugating by every tau carries the entry at the word pair (x, y) over
    its orbit under permuting the sites of x and y together, and the group sum
    meets each member of the orbit n!/|orbit| times.  So the twirl at (x, y)
    is the mean of ``a`` over the orbit, stored as n!/|orbit| times the orbit
    sum with scale ``a.scale / n!``: the same integer matrix the sum over all
    n! permutations gives, with no loop over S_n.  The sums run in int64 when
    n! max|a| fits, else in Python ints.
    """
    n, d = a.n, a.d
    orbit, by_orbit, starts, stabiliser = _pair_orbits(d, n)
    vec, stabiliser = _exact(math.factorial(n) * a._bound(), a._vec, stabiliser)
    sums = np.add.reduceat(vec.take(by_orbit), starts)
    return TensorOperator._of(d, n, a.scale / math.factorial(n), a._layout, (stabiliser * sums).take(orbit))


def depolarise_n(a: TensorOperator, q: Fraction | int | str) -> TensorOperator:
    """Apply the depolarising channel with replacement weight ``q`` to every site.

    ``q`` is the probability that a single site is replaced by the maximally
    mixed state (q=0 is the identity channel, q=1 full depolarisation); a
    float is refused (see :func:`frames.depolarising_weight`).  The n-fold
    channel is the product of its one-site channels, which commute, applied
    one site at a time, always at the last site s: each of the n passes
    rotates the sites by i -> i + 1 mod n (:func:`_shift_map`), then, with
    q = a/b, maps the integer entries M to (b-a) d M + a (tr_s M tensor 1 at
    s), read through :func:`_site_maps`.  After n passes every site has been
    mixed once and the sites are back in order, so the integers are those of
    the site-by-site product, and the scale is divided by (b d)^n.  A
    rotation only permutes the entries and each pass multiplies the largest
    entry by at most b d, so the passes run in int64 when
    max(max|M|, 1) (b d)^n fits (the 1 keeps the scalars b d in range on a
    zero matrix), and in Python ints otherwise.
    """
    q = depolarising_weight(q)
    d, n = a.d, a.n
    growth = q.denominator * d
    (vec,) = _exact(max(a._bound(), 1) * growth**n, a._vec)
    keep = (q.denominator - q.numerator) * d
    for _ in range(n):
        agree, summed = _site_maps(d, n)
        vec = vec.take(_shift_map(d, n))  # a fresh vector, so the pass writes it in place
        mixed = vec.take(summed).sum(axis=0)
        vec *= keep
        vec[agree] += q.numerator * mixed
    return TensorOperator._of(d, n, a.scale / growth**n, a._layout, vec).reduced()


# -- exact positive-semidefiniteness test ------------------------------------------


def is_positive_semidefinite(a: TensorOperator) -> bool:
    """Exact PSD test for a symmetric rational matrix.

    A positive scale does not change the verdict, a zero scale makes the
    matrix zero (PSD), and a negative one negates the integer entries.  The
    matrix is PSD exactly when each stored block is (a block the layout leaves
    out is a relabelled copy of a stored one), so each block is tested on its
    own.

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
    if not a.is_symmetric():
        raise ValueError("PSD test expects a symmetric operator")
    if a.scale == 0:
        return True
    sign = 1 if a.scale > 0 else -1
    vec = a._vec
    return all(_bareiss_psd(sign * vec[lo:hi].reshape(m, m).astype(object)) for lo, hi, m in a._layout.spans)


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
