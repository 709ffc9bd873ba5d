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
histogram.  An operator stores one flat integer vector holding each stored
block row-major after the previous one, in one of three layouts
(:class:`_Layout`), each storing what the one before it stores and more:

- sorted: only the blocks whose histogram is sorted in decreasing order, for
  a matrix invariant under every relabelling; every other word reads its
  image in such a block;
- letter-block: every letter block, for a matrix zero outside them;
- one-block: every word pair, row-major.

The constructor takes a full matrix and picks the first layout that holds
it: it tests invariance on the two generators of S_d, as matching each block
with its sorted block alone does not imply it.  Projectors, permutation
operators, the zero and the identity are built sorted.

Every operation reads and writes the vector through index maps computed once
from word digits and block offsets, the same maps for every layout.  Sums,
equality and traces are whole-vector numpy calls.  A Hilbert-Schmidt pairing
is one dot product: the first operator's entries are transposed and weighted
by the number of letter blocks each stored entry stands for, and that one
vector pairs with any list of operators (:meth:`TensorOperator.pairings`).
Matrix products and the PSD test loop over reshaped block views.  Partial
traces, tensor products, conjugation, the twirl and the channel gather
entries through site maps, and keep the layout of their operands.  No
operation on a sorted or letter-block operator forms a d^n x d^n array;
only ``mat``, a fresh full Python-int copy, does.  An operation whose
operands differ in layout moves them to the larger one, expanding a sorted
operand by one gather.

The vector is int64 when every entry fits and Python ints (object dtype)
otherwise.  Each operation bounds the entries it will form and passes that
bound to :func:`_exact`, which keeps int64 only when it certifies no overflow
and falls back to arbitrary precision otherwise.  An integer matrix product
(:func:`_int_matmul`: the block products, and the powers and splits of the
projector construction) takes one of three routes by the certificate
m max|A| max|B|, m the inner dimension, and the operand dtypes alone: float64
BLAS up to 2^53, int64 up to 2^63 - 1, Python ints beyond, or whenever an
operand already holds Python ints.  The float route is exact whatever the
summation order, blocking, FMA or thread count: every partial sum is a sum
of some of the m products, so it is an integer of modulus at most 2^53, which
float64 holds exactly, and so is every input entry that meets a nonzero
factor (a zero factor gives an exact zero).

Operators are immutable by convention: no operation mutates its inputs, and
constructed operators can be shared freely across threads.
"""

from __future__ import annotations

import itertools
import math
import numbers
from fractions import Fraction
from functools import cache, cached_property, lru_cache, partial
from typing import Callable, Iterable, Sequence

import numpy as np

from .frames import YoungFrame, depolarising_weight, enumerate_frames, exact_rational
from .symmetric_group import Permutation

# Hard default caps: dense dimension d^n, and n for the projector family and for
# loops over all n! permutations.
DIMENSION_CAP = 6561
FACTORIAL_LOOP_CAP = 8

# Largest n per d at which the verify suites sweep dense operators.  It stays
# inside both caps, below the (3, 8) and (4, 6) they allow for memory: the
# (3, 8) family alone holds 46 MiB, though it builds in about 0.3 s
# single-threaded, and its overlap table peaks near 190 MB.
DENSE_SWEEP_N = {2: 8, 3: 6, 4: 5}

_INT64_MAX = 2**63 - 1
_FLOAT_EXACT_MAX = 2**53  # every integer of modulus up to this is a float64


def _check_dense_size(d: int, n: int) -> None:
    if d < 1 or n < 0:
        raise ValueError(f"invalid local dimension/site count ({d}, {n})")
    if d**n > DIMENSION_CAP:
        raise ValueError(f"dense dimension {d}**{n} exceeds cap {DIMENSION_CAP}")


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
    if n == 0:
        return np.zeros((1, 0), dtype=np.int64)
    return np.array(list(itertools.product(range(d), repeat=n)), dtype=np.int64)


@cache
def _index_powers(d: int, n: int) -> np.ndarray:
    return np.array([d ** (n - 1 - i) for i in range(n)], dtype=np.int64)


@cache
def _letter_counts(d: int, n: int) -> np.ndarray:
    """The letter histogram of every word of [d]^n; shape (d^n, d)."""
    digits = _word_digits(d, n)
    return _read_only(np.stack([(digits == a).sum(axis=1) for a in range(d)], axis=1))


@cache
def _letter_blocks(d: int, n: int) -> tuple[np.ndarray, ...]:
    """Word indices of [d]^n grouped by letter histogram, one read-only array per block.

    Blocks are ordered by histogram and each lists its words in increasing
    order.  Every permutation operator maps a block to itself.
    """
    keys = _letter_counts(d, n) @ (n + 1) ** np.arange(d)
    order = _read_only(np.argsort(keys, kind="stable"))
    return tuple(np.split(order, np.flatnonzero(np.diff(keys[order])) + 1))


def _sorted_images(d: int, n: int) -> np.ndarray:
    """Each word relabelled by the stable sort of its histogram: its most frequent letter becomes 0, and so on.

    The image's histogram is sorted in decreasing order, and a word whose
    histogram already is maps to itself.
    """
    relabel = np.argsort(np.argsort(-_letter_counts(d, n), axis=1, kind="stable"), axis=1)
    return np.take_along_axis(relabel, _word_digits(d, n), axis=1) @ _index_powers(d, n)


# Layout kinds, each storing what the one before it stores and more: the
# sorted-histogram blocks of a relabel-invariant operator, every letter block,
# and the one block of every word pair.
_SORTED, _LETTER, _WHOLE = range(3)


class _Layout:
    """Where each stored entry of an operator on [d]^n sits in its flat vector.

    The entry at the word pair (blocks[b][i], blocks[b][j]) sits at
    ``spans[b][0] + i m + j``, m = len(blocks[b]).  The position of (x, y) is
    ``row_base[x] + local[y]`` when ``block_of[x] == block_of[y]``; other pairs
    are zero and not stored.  A letter-block or one-block layout stores every
    such pair.  The sorted layout stores only the blocks whose histogram is
    sorted in decreasing order, and maps each other word to its image in
    such a block (:func:`_sorted_images`): an operator that commutes with
    every relabelling of the letters has the same entry at both.  ``weights``
    counts the letter blocks each stored block stands for (1 outside the
    sorted layout), and ``block_of`` numbers every word's own letter block.
    Every array is read-only; the per-entry maps are built on first use.
    """

    def __init__(self, d: int, n: int, kind: int):
        self.d, self.n, self.kind = d, n, kind
        dim = d**n
        letter = (np.arange(dim),) if kind == _WHOLE else _letter_blocks(d, n)
        self.block_of, self.local, self.row_base = (np.empty(dim, dtype=np.int64) for _ in range(3))
        for b, words in enumerate(letter):
            self.block_of[words] = b
        self.blocks, self.weights = letter, (1,) * len(letter)
        if kind == _SORTED:
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
        if kind == _SORTED:
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
    def flat(self) -> np.ndarray:
        """Flat index x d^n + y in the full matrix of every stored entry."""
        dim = self.d**self.n
        return _read_only(np.concatenate([(w[:, None] * dim + w[None, :]).ravel() for w in self.blocks]))

    @cached_property
    def transpose(self) -> np.ndarray:
        """Position of the transposed entry (y, x) of every stored entry (x, y)."""
        return _read_only(self.position(self.cols, self.rows))

    @cached_property
    def diagonal(self) -> np.ndarray:
        """Position of the diagonal entry (x, x) of every word x, in word order."""
        return _read_only(self.row_base + self.local)

    @cached_property
    def expand(self) -> np.ndarray:
        """Position of every entry of the letter-block layout, read in this layout."""
        letter = _layout(self.d, self.n, _LETTER)
        return _read_only(self.position(letter.rows, letter.cols))

    @cached_property
    def relabellings(self) -> tuple[np.ndarray, ...]:
        """Position of (g x, g y) for every stored (x, y), g each generator of the letter relabellings.

        The generators of S_d are the swap of letters 0 and 1 and the d-cycle
        a -> a + 1 (one permutation at d = 2, none at d = 1).  An operator
        equal to each of its gathers is invariant under every relabelling.
        """
        d, n = self.d, self.n
        generators = {(1, 0, *range(2, d)), (*range(1, d), 0)} if d > 1 else set()
        moves = []
        for g in generators:
            words = np.array(g)[_word_digits(d, n)] @ _index_powers(d, n)
            moves.append(_read_only(self.position(words[self.rows], words[self.cols])))
        return tuple(moves)


def _pairing_kind(a: int, b: int) -> int:
    """The layout kind two operators of kinds ``a`` and ``b`` are paired in: sorted only when both are."""
    return _SORTED if max(a, b) == _SORTED else max(min(a, b), _LETTER)


@cache
def _layout(d: int, n: int, kind: int) -> _Layout:
    """The layout of the given kind on [d]^n.

    With a single letter block (d = 1 or n = 0) the three kinds are the same object.
    """
    if kind != _SORTED and len(_letter_blocks(d, n)) == 1:
        return _layout(d, n, _SORTED)
    return _Layout(d, n, kind)


class TensorOperator:
    """Dense exact-rational operator: ``scale`` times integer entries stored in a :class:`_Layout`."""

    __slots__ = ("d", "n", "scale", "_layout", "_vec", "_amax")

    def __init__(self, d: int, n: int, scale: Fraction | int | str, mat: np.ndarray):
        """The operator ``scale`` times ``mat``, a full d^n x d^n integer matrix (copied)."""
        _check_dense_size(d, n)
        dim = d**n
        if mat.shape != (dim, dim):
            raise ValueError(f"matrix shape {mat.shape} does not match {dim}x{dim}")
        if mat.dtype != object and mat.dtype.kind not in "iu":
            raise ValueError(f"matrix dtype {mat.dtype} is not exact: pass integers or Python ints")
        if mat.dtype == object and not all(issubclass(t, numbers.Integral) for t in set(map(type, mat.flat))):
            raise ValueError("matrix entries are not all integers: fold fractions into the scale")
        flat = mat.reshape(-1)
        layout = _layout(d, n, _LETTER)
        vec = flat.take(layout.flat)
        if np.count_nonzero(vec) != np.count_nonzero(flat):
            layout = _layout(d, n, _WHOLE)
        elif all(np.array_equal(vec.take(moved), vec) for moved in layout.relabellings):
            layout = _layout(d, n, _SORTED)
        self._set(d, n, exact_rational(scale), layout, flat.take(layout.flat))

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
        layout = _layout(self.d, self.n, max(self._layout.kind, _LETTER))
        out = np.zeros(dim * dim, dtype=object)
        out[layout.flat] = self._in(layout).astype(object)
        return out.reshape(dim, dim)

    def _bound(self) -> int:
        """Largest entry modulus, computed once."""
        if self._amax is None:
            self._amax = _amax(self._vec)
        return self._amax

    def _in(self, layout: _Layout) -> np.ndarray:
        """The entries at the positions of ``layout``: its own, or a letter-block or one-block one of the same (d, n).

        A sorted operand is first expanded to the letter blocks by one
        gather.  Moving to the letter blocks from the one block drops the
        entries outside them; callers do so only where those entries cannot
        matter.
        """
        vec, source = self._vec, self._layout
        if source.kind == _SORTED and layout is not source:
            vec, source = vec.take(source.expand), _layout(self.d, self.n, _LETTER)
        if layout is source:
            return vec
        if layout.size < source.size:
            return vec.take(layout.flat)
        out = np.zeros(layout.size, dtype=vec.dtype)
        out[source.flat] = vec
        return out

    def _union(self, other: "TensorOperator") -> _Layout:
        """The layout holding every stored entry of both operators: sorted within letter blocks within one block."""
        self._compatible(other)
        return _layout(self.d, self.n, max(self._layout.kind, other._layout.kind))

    def is_symmetric(self) -> bool:
        """Whether the matrix equals its transpose, read on the stored entries."""
        return bool(np.array_equal(self._vec, self._vec.take(self._layout.transpose)))

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, d: int, n: int) -> "TensorOperator":
        _check_dense_size(d, n)
        layout = _layout(d, n, _SORTED)
        return cls._of(d, n, Fraction(0), layout, np.zeros(layout.size, dtype=np.int64))

    @classmethod
    def identity(cls, d: int, n: int) -> "TensorOperator":
        _check_dense_size(d, n)
        layout = _layout(d, n, _SORTED)
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
        layout = self._layout
        if layout.block_of[i] != layout.block_of[j]:
            return Fraction(0)
        return self.scale * int(self._vec[layout.position(i, j)])

    # -- arithmetic ----------------------------------------------------------

    def _scaled_pair(
        self, a: int, other: "TensorOperator", b: int, layout: _Layout
    ) -> tuple[np.ndarray, np.ndarray]:
        """a times this operator's entries and b times the other's in ``layout``.

        They stay int64 when |a| max|A| + |b| max|B| fits.
        """
        bound = abs(a) * max(self._bound(), 1) + abs(b) * max(other._bound(), 1)
        x, y = _exact(bound, self._in(layout), other._in(layout))
        return a * x, b * y

    def _compatible(self, other: "TensorOperator") -> None:
        if (self.d, self.n) != (other.d, other.n):
            raise ValueError("operator shape mismatch")

    def __add__(self, other: "TensorOperator") -> "TensorOperator":
        layout = self._union(other)
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
        x, y = self._scaled_pair(a, other, b, layout)
        return TensorOperator._of(self.d, self.n, s, layout, x + y)

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
        """Matrix product, one block of the common layout at a time.

        Each block product takes the route its own bound certifies (see
        :func:`_int_matmul`): float64 BLAS, int64 or Python ints.
        """
        layout = self._union(other)
        a, b = self._in(layout), other._in(layout)
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
        When either operator stores only letter blocks every nonzero term has
        (i, j) inside a block, so only the entries of the letter-block layout
        are paired.  When both are sorted, each stored block is paired once
        and counted for every letter block it stands for; when only one is,
        it is expanded to the letter blocks, as the other need not be
        invariant.  All of ``others`` are read in the largest layout one of
        them needs.  This operator is read once, transposed and weighted
        entry by entry (:attr:`_Layout.entry_weights`), and each pairing is
        one dot product with that vector.  The sums run in int64 when (number
        of terms) max|A| max|B| fits, each stored term counted with its
        block's weight, B ranging over ``others``.  A weighted entry then fits
        too, being at most terms max|A|, except when every B is zero, and
        then it multiplies only zeros.
        """
        if not others:
            return []
        for other in others:
            self._compatible(other)
        layout = _layout(self.d, self.n, max(_pairing_kind(self._layout.kind, o._layout.kind) for o in others))
        weights, transposed, *vecs = _exact(
            layout.terms * self._bound() * max(o._bound() for o in others),
            layout.entry_weights,
            self._in(layout).take(layout.transpose),
            *(o._in(layout) for o in others),
        )
        weighted = weights * transposed
        return [int(np.dot(weighted, vec)) for vec in vecs]

    def hs_product(self, other: "TensorOperator") -> Fraction:
        """Hilbert-Schmidt pairing tr(self @ other) without forming the product (see :meth:`pairings`)."""
        (pairing,) = self.pairings([other])
        return self.scale * other.scale * pairing

    def kron(self, other: "TensorOperator") -> "TensorOperator":
        """Tensor product, self on the first sites, in the larger of the operands' layout kinds."""
        if self.d != other.d:
            raise ValueError("local dimensions differ")
        d, n = self.d, self.n + other.n
        _check_dense_size(d, n)
        kind = max(self._layout.kind, other._layout.kind)
        stored, left, right = _kron_maps(d, self.n, other.n, kind)
        a, b = _exact(
            self._bound() * other._bound(),
            self._in(_layout(d, self.n, kind)),
            other._in(_layout(d, other.n, kind)),
        )
        layout = _layout(d, n, kind)
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
        return bool(np.array_equal(*self._scaled_pair(a, other, b, self._union(other))))

    # -- site-structure operations --------------------------------------------

    def partial_trace(self, sites: Iterable[int]) -> "TensorOperator":
        """Trace out the given 0-based sites; remaining sites keep their order.

        Each output entry sums d^(number of traced sites) input entries, read
        through :func:`_trace_maps`, so the sum runs in int64 when max|entry|
        times that count fits.
        """
        sites = tuple(sorted(set(sites)))
        if any(s < 0 or s >= self.n for s in sites):
            raise ValueError(f"sites {list(sites)} outside range(0, {self.n})")
        if not sites:
            return self
        d, m, kind = self.d, self.n - len(sites), self._layout.kind
        (vec,) = _exact(self._bound() * d ** len(sites), self._vec)
        out = vec.take(_trace_maps(d, self.n, sites, kind)).sum(axis=0)
        return TensorOperator._of(d, m, self.scale, _layout(d, m, kind), out)


# -- site maps -------------------------------------------------------------------


@lru_cache(maxsize=64)
def _kron_maps(d: int, n_left: int, n_right: int, kind: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where A kron B can be nonzero, and the positions of the A and B entries multiplied there.

    The output entry at ((x, y), (x', y')) is A[x, x'] B[y, y'].  In the
    sorted and letter-block layouts it is stored whenever xy and x'y' share a
    histogram, but nonzero only when x and x' do too (and then so do y and
    y'); the first array lists those positions of the output vector.
    """
    out, left, right = (_layout(d, m, kind) for m in (n_left + n_right, n_left, n_right))
    x, y = np.divmod(out.rows, d**n_right)
    x_, y_ = np.divmod(out.cols, d**n_right)
    stored = np.flatnonzero(left.block_of[x] == left.block_of[x_])
    maps = stored, left.position(x[stored], x_[stored]), right.position(y[stored], y_[stored])
    return tuple(map(_read_only, maps))


@lru_cache(maxsize=64)
def _trace_maps(d: int, n: int, sites: tuple[int, ...], kind: int) -> np.ndarray:
    """Input positions summed into each output entry of the trace over ``sites``, shape (d^k, output size).

    The output entry (x, x') sums the input entries at (x + z, x' + z) over
    the d^k letter assignments z of the traced sites, x filling the other
    sites in order.  Adding z to both words keeps them in one letter block.
    """
    source, out = _layout(d, n, kind), _layout(d, n - len(sites), kind)
    powers = _index_powers(d, n)
    kept = [s for s in range(n) if s not in sites]
    spread = _word_digits(d, len(kept)) @ powers[kept]  # an output word as a word on n sites
    traced = (_word_digits(d, len(sites)) @ powers[list(sites)])[:, None]
    return _read_only(source.position(spread[out.rows] + traced, spread[out.cols] + traced))


@lru_cache(maxsize=64)
def _site_maps(d: int, n: int, site: int, kind: int) -> tuple[np.ndarray, np.ndarray]:
    """The entries of tr_site(M) tensor 1 at ``site``: where it can be nonzero, and what each sums.

    (tr_s M tensor 1)[x, x'] is zero unless x and x' agree at site s, and then
    sums M over the d pairs with both letters at s set to each c; the second
    array holds those positions, shape (d, number of such entries).
    """
    layout = _layout(d, n, kind)
    power = d ** (n - 1 - site)
    row_letter, col_letter = layout.rows // power % d, layout.cols // power % d
    agree = np.flatnonzero(row_letter == col_letter)
    letters = np.arange(d)[:, None] * power
    rows = (layout.rows - row_letter * power)[agree] + letters
    cols = (layout.cols - col_letter * power)[agree] + letters
    return _read_only(agree), _read_only(layout.position(rows, cols))


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
    layout = _layout(d, tau.n, _SORTED)
    vec = np.zeros(layout.size, dtype=np.int64)
    vec[layout.position(_word_map(tau.images, d), np.arange(d**tau.n))] = 1
    return TensorOperator._of(d, tau.n, Fraction(1), layout, vec)


# -- isotypical projectors -------------------------------------------------------


def _matmul_route(a: np.ndarray, b: np.ndarray) -> str:
    """The route of :func:`_int_matmul` for ``a @ b``: "float", "int64" or "object".

    With m the inner dimension, m max|a| max|b| bounds every partial sum of
    every entry of the product.  Two int64 operands take float64 BLAS when
    that bound is at most 2^53 and int64 when it fits int64; every other pair
    takes Python ints.
    """
    if a.dtype != np.int64 or b.dtype != np.int64:
        return "object"
    bound = a.shape[1] * _amax(a) * _amax(b)
    if bound <= _FLOAT_EXACT_MAX:
        return "float"
    return "int64" if bound <= _INT64_MAX else "object"


def _int_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact a @ b of integer matrices, by the route of :func:`_matmul_route`.

    The float route casts both operands to float64, multiplies them with
    BLAS and casts back to int64; the bound makes every value it forms an
    integer float64 holds exactly (see the module docstring).  The int64
    route is numpy's integer product, and the object route multiplies
    Python ints.
    """
    route = _matmul_route(a, b)
    if route == "float":
        return (a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64)
    if route == "object":
        a, b = a.astype(object, copy=False), b.astype(object, copy=False)
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


# Every family a dense sweep asks for, (d, 0..DENSE_SWEEP_N[d]) for each d, stays cached.
@lru_cache(maxsize=sum(n + 1 for n in DENSE_SWEEP_N.values()))
def _projector_family(d: int, n: int) -> dict[YoungFrame, TensorOperator]:
    """The family from central elements, one sorted letter histogram at a time.

    Permutations keep a word's letter histogram, so every P_lam is block
    diagonal over the histograms, and P_lam is nonzero on a block exactly when
    lam dominates its sorted histogram (Kostka number > 0).  Relabelling the
    letters commutes with S_n, so every P_lam is stored in the sorted layout:
    the products are taken once per sorted histogram, on the block whose
    histogram is decreasing, written straight into its span, and dropped.
    The largest blocks go first: their products, the largest temporaries, are
    then taken while most of the zeroed vectors are still unwritten.  Every
    block is written at the common scale n!: n! P_lam is an integer matrix,
    so each block denominator divides n!, and its entries have modulus at most
    n!, as an orthogonal projector's entries have modulus at most 1 (int64
    for every n <= 20).  Dividing each vector in place by the gcd g of its
    entries leaves g/n! times a primitive vector: the canonical form
    ``reduced`` gives.
    """
    layout = _layout(d, n, _SORTED)
    counts = _letter_counts(d, n)
    cycle_maps = cache(partial(_cycle_class_maps, d, n))
    fact = math.factorial(n)
    dtype = np.int64 if fact <= _INT64_MAX else object
    frames = enumerate_frames(d, n)
    vecs = {lam: np.zeros(layout.size, dtype=dtype) for lam in frames}
    for words, (lo, hi, _) in sorted(zip(layout.blocks, layout.spans), key=lambda item: -len(item[0])):
        projectors = _block_projectors(
            [lam for lam in frames if _dominates(lam, tuple(counts[words[0]].tolist()))],
            lambda length: _class_block(cycle_maps(length), words, layout.local),
        )
        for lam, (num, den) in projectors.items():
            vecs[lam][lo:hi] = (num.astype(dtype, copy=False) * (fact // den)).ravel()
    family: dict[YoungFrame, TensorOperator] = {}
    for lam, vec in vecs.items():
        g = int(np.gcd.reduce(vec))
        vec //= g
        family[lam] = TensorOperator._of(d, n, Fraction(g, fact), layout, vec)
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
    """Drop cached projector families and the site maps of the dense operations.

    The family cache holds as many families as a dense sweep up to
    :data:`DENSE_SWEEP_N` asks for, (d, 0..n) for each d: 22.  A family holds
    one int64 sorted-layout vector per frame; the d=2 n=10 family holds 6.0 MB,
    the d=3 n=8 family 48.7 MB (its build peaks about 40 MB above that, as it
    holds one sorted histogram's products at a time).  The maps of ``kron``,
    ``partial_trace``, ``depolarise_n`` and ``twirl`` are cleared too: the
    eight (3, 8) kron maps alone hold 39 MB.  So a caller that builds larger
    families can free them here.  The cached layouts stay: operators compare
    layouts by identity, so an operator built before the clear still combines
    with one built after it.
    """
    for cached in (_projector_family, _kron_maps, _trace_maps, _site_maps, _pair_orbits):
        cached.cache_clear()


# -- channel building blocks ----------------------------------------------------


def tensor_with_maximally_mixed(a: TensorOperator, k: int) -> TensorOperator:
    """a tensored with k maximally mixed sites appended on the right."""
    if k == 0:
        return a
    return a.kron(TensorOperator.maximally_mixed(a.d, k))


def insert_maximally_mixed(a: TensorOperator, positions: Sequence[int], n: int) -> TensorOperator:
    """Extend ``a`` to ``n`` sites with maximally mixed states at ``positions``.

    The sites of ``a`` fill the complementary positions in order: the mixed
    sites are appended, then every site moves to its place by conjugation.
    """
    positions = sorted(set(positions))
    k = len(positions)
    if a.n + k != n:
        raise ValueError(f"{a.n} sites plus {k} insertions do not give {n}")
    if positions and not 0 <= positions[0] <= positions[-1] < n:
        raise ValueError(f"positions {positions} outside range(0, {n})")
    if k == 0:
        return a
    _check_dense_size(a.d, n)
    remaining = [s for s in range(n) if s not in set(positions)]
    appended = tensor_with_maximally_mixed(a, k)
    return conjugate_by_permutation(appended, Permutation(tuple(remaining + positions)))


def conjugate_by_permutation(a: TensorOperator, tau: Permutation) -> TensorOperator:
    """B(tau) a B(tau)^{-1}: the entry at (x, y) is a's entry at (g(x), g(y)), g the word map of tau^{-1}.

    g keeps letter histograms, so the entries move within their blocks.
    """
    if tau.n != a.n:
        raise ValueError("permutation size does not match operator sites")
    g = _word_map(tau.inverse().images, a.d)
    layout = a._layout
    moved = layout.row_base[g][layout.rows] + layout.local[g][layout.cols]  # position(g[rows], g[cols])
    return TensorOperator._of(a.d, a.n, a.scale, layout, a._vec.take(moved))


@lru_cache(maxsize=64)
def _pair_orbits(d: int, n: int, kind: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Orbits of the stored word pairs (x, y) under permuting the sites of x and y together.

    Returns the orbit index of every stored entry (orbits numbered from 0),
    the entries sorted by orbit and the start of each orbit in that order,
    and n!/|orbit| for each orbit.  An orbit is labelled by the histogram of
    the letter pairs (x_i, y_i): the codes d x_i + y_i, sorted and read as a
    base-d^2 number, which stays below d^(2n) <= DIMENSION_CAP^2.  Permuting
    sites keeps letter histograms, so every orbit lies inside the layout.
    """
    layout = _layout(d, n, kind)
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
    orbit, by_orbit, starts, stabiliser = _pair_orbits(d, n, a._layout.kind)
    vec, stabiliser = _exact(math.factorial(n) * a._bound(), a._vec, stabiliser)
    sums = np.add.reduceat(vec.take(by_orbit), starts)
    return TensorOperator._of(d, n, a.scale / math.factorial(n), a._layout, (stabiliser * sums).take(orbit))


def depolarise_n(a: TensorOperator, q: Fraction | int | str) -> TensorOperator:
    """Apply the depolarising channel with replacement weight ``q`` to every site.

    ``q`` is the probability that a single site is replaced by the maximally
    mixed state (q=0 is the identity channel, q=1 full depolarisation); a
    float is refused (see :func:`frames.depolarising_weight`).  The n-fold
    channel is the product of its one-site channels, applied one site at a
    time.  With q = a/b, site s maps the integer entries M to
    (b-a) d M + a (tr_s M tensor 1 at s), read through :func:`_site_maps`, and
    divides the scale by b d.  Each pass multiplies the largest entry by at
    most b d, so the passes run in int64 when max(max|M|, 1) (b d)^n fits (the
    1 keeps the scalars b d in range on a zero matrix), and in Python ints
    otherwise.
    """
    q = depolarising_weight(q)
    d, n = a.d, a.n
    growth = q.denominator * d
    (vec,) = _exact(max(a._bound(), 1) * growth**n, a._vec)
    keep = (q.denominator - q.numerator) * d
    for site in range(n):
        agree, summed = _site_maps(d, n, site, a._layout.kind)
        mixed = vec.take(summed).sum(axis=0)
        vec = keep * vec
        vec[agree] += q.numerator * mixed
    return TensorOperator._of(d, n, a.scale / growth**n, a._layout, vec).reduced()


# -- exact positive-semidefiniteness test ------------------------------------------


def is_positive_semidefinite(a: TensorOperator) -> bool:
    """Exact PSD test for a symmetric rational matrix.

    A positive scale does not change the verdict, a zero scale makes the
    matrix zero (PSD), and a negative one negates the integer entries.  The
    matrix is PSD exactly when each block of its layout is (a block the sorted
    layout leaves out is a relabelled copy of a stored one), so each block is
    tested on its own.

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
