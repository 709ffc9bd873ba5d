"""Independent brute-force oracles used only by the tests.

Everything here is deliberately naive (exhaustive enumeration, no shared code
paths with the package beyond the YoungFrame container, frame and group
enumeration and the character table for the projectors and for the LR group
sum, whose classes are tallied element by element; the hook and content
products multiply box by box; the PSD reference
eliminates the whole matrix in ``Fraction``, skew counts come from Aitken's
determinant, the twirl from a sum over all n! permutations, and the channel,
conjugation, partial trace and Hilbert-Schmidt pairing from every entry of the
full matrices that ``TensorOperator.mat`` returns, word digits from
``itertools.product`` and word maps by inverting the permutation, one cycle at
a time) so that agreement with the package is meaningful.  One reference
shares more: the full-block projectors use the package's layout, content sums
and exact integer product, and stand against the build that spreads one row
per block, at sizes past the reach of the character sums.  The twirl and
channel references by level lcm share the package's lattice, skew counts and
push, not its one injecting body: each forms its injections level by level,
every level over its own lcm, and packs and unpacks its own bit fields.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cache

import numpy as np

from isotwirl.frames import (
    YoungFrame, _checked_level, _lattice_level, _skew_counts, depolarising_weight, dim_sym, dim_unitary,
    enumerate_frames,
)
from isotwirl import oracle as orc
from isotwirl import spectra
from isotwirl.oracle import TensorOperator
from isotwirl.symmetric_group import character, enumerate_group


def count_standard_tableaux(lam: YoungFrame) -> int:
    """Number of fillings with 1..n increasing along rows and down columns."""
    return count_standard_skew_tableaux(lam, YoungFrame(()))


def count_standard_skew_tableaux(outer: YoungFrame, inner: YoungFrame) -> int:
    """Fillings of the cells of outer/inner with 1..N increasing along rows and down columns.

    Zero when inner does not fit inside outer.
    """
    rows = outer.reduced
    if inner.num_rows > len(rows) or any(inner.row(i) > r for i, r in enumerate(rows)):
        return 0
    cells = [(i, j) for i, r in enumerate(rows) for j in range(inner.row(i), r)]
    n = len(cells)
    filled = {(i, j) for i in range(len(rows)) for j in range(inner.row(i))}
    count = 0

    def place(value: int) -> None:
        nonlocal count
        if value > n:
            count += 1
            return
        for (i, j) in cells:
            if (i, j) in filled:
                continue
            if j > 0 and (i, j - 1) not in filled:
                continue
            if i > 0 and (i - 1, j) not in filled:
                continue
            filled.add((i, j))
            place(value + 1)
            filled.discard((i, j))

    place(1)
    return count


def skew_count_by_aitken(outer: YoungFrame, inner: YoungFrame) -> int:
    """f^{outer/inner} by Aitken's determinant N! det[1/(outer_i - inner_j - i + j)!] (EC2 §7.16).

    Eliminated in ``Fraction`` without pivoting: each leading principal minor
    is the (nonzero) count for the top rows alone, up to a factorial.  Zero
    when inner does not fit inside outer.
    """
    rows = outer.num_rows
    if inner.num_rows > rows or any(inner.row(i) > outer.row(i) for i in range(rows)):
        return 0
    mat = [[Fraction(0)] * rows for _ in range(rows)]
    for i in range(rows):
        for j in range(rows):
            a = outer.row(i) - inner.row(j) - i + j
            if a >= 0:
                mat[i][j] = Fraction(1, math.factorial(a))
    det = Fraction(1)
    for c in range(rows):
        det *= mat[c][c]
        for r in range(c + 1, rows):
            factor = mat[r][c] / mat[c][c]
            if factor:
                mat[r] = [x - factor * y for x, y in zip(mat[r], mat[c])]
    val = math.factorial(outer.n - inner.n) * det
    assert val.denominator == 1 and val >= 0
    return val.numerator


def covers_by_removing_a_box(red: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The frames that ``red`` (reduced rows) covers in Young's lattice, as reduced rows, top row first.

    Each row in turn loses its last box; the result counts when its rows still decrease weakly.
    """
    out = []
    for i in range(len(red)):
        rows = list(red)
        rows[i] -= 1
        if all(a >= b for a, b in zip(rows, rows[1:])):
            out.append(tuple(r for r in rows if r))
    return out


def hook_product_by_boxes(red: tuple[int, ...]) -> int:
    """The product over every box (i, j) of its hook length r_i - j + conj_j - i - 1."""
    conj = [sum(1 for r in red if r > j) for j in range(red[0] if red else 0)]
    return math.prod(r - j + conj[j] - i - 1 for i, r in enumerate(red) for j in range(r))


def content_product_by_boxes(red: tuple[int, ...], d: int) -> int:
    """The product over every box (i, j) of d + j - i: zero when the frame has more than d rows."""
    return math.prod(d + j - i for i, r in enumerate(red) for j in range(r))


def within_window_by_rows(lam: YoungFrame, lam_prime: YoungFrame, d: int, k: int) -> bool:
    """The paper's support window read row by row: |lam_m - lam'_m| <= (d-1)k for every m < d."""
    a, b = lam.padded(d), lam_prime.padded(d)
    return all(abs(a[m] - b[m]) <= (d - 1) * k for m in range(d))


def basic_horn_by_full_loop(lam: YoungFrame, mu: YoungFrame, nu: YoungFrame, d: int) -> bool:
    """The trace identity and lam_{i+j-1} <= mu_i + nu_j over every i, j <= d with i+j-1 <= d, rows padded to d."""
    a, b, c = lam.padded(d), mu.padded(d), nu.padded(d)
    if sum(a) != sum(b) + sum(c):
        return False
    return all(a[i + j - 2] <= b[i - 1] + c[j - 1] for i in range(1, d + 1) for j in range(1, d + 2 - i))


def count_semistandard_tableaux(lam: YoungFrame, d: int) -> int:
    """Fillings with entries in 1..d, rows weakly and columns strictly increasing."""
    rows = lam.reduced
    if len(rows) > d:
        return 0
    if not rows:
        return 1
    count = 0
    grid = [[0] * r for r in rows]

    def place(i: int, j: int) -> None:
        nonlocal count
        if i == len(rows):
            count += 1
            return
        ni, nj = (i, j + 1) if j + 1 < rows[i] else (i + 1, 0)
        lo = 1
        if j > 0:
            lo = max(lo, grid[i][j - 1])
        if i > 0 and j < rows[i - 1]:
            lo = max(lo, grid[i - 1][j] + 1)
        for v in range(lo, d + 1):
            grid[i][j] = v
            place(ni, nj)
        grid[i][j] = 0

    place(0, 0)
    return count


def partitions_of(n: int, max_rows: int | None = None) -> list[tuple[int, ...]]:
    """All weakly decreasing positive tuples summing to n (optionally row-capped)."""
    out: list[tuple[int, ...]] = []

    def descend(prefix: list[int], remaining: int, max_part: int) -> None:
        if remaining == 0:
            out.append(tuple(prefix))
            return
        if max_rows is not None and len(prefix) == max_rows:
            return
        for p in range(min(max_part, remaining), 0, -1):
            prefix.append(p)
            descend(prefix, remaining - p, p)
            prefix.pop()

    descend([], n, n)
    return out


def class_sign(ct: YoungFrame) -> int:
    """Sign of any permutation in the class: (-1)**(n - #cycles)."""
    parts = ct.reduced
    return -1 if (sum(parts) - len(parts)) % 2 else 1


def cycle_type_of(images: tuple[int, ...]) -> tuple[int, ...]:
    n = len(images)
    seen = [False] * n
    lengths = []
    for start in range(n):
        if seen[start]:
            continue
        length, j = 0, start
        while not seen[j]:
            seen[j] = True
            j = images[j]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def class_sizes_by_enumeration(n: int) -> dict[tuple[int, ...], int]:
    """Conjugacy-class sizes of S_n counted by iterating all n! permutations."""
    sizes: dict[tuple[int, ...], int] = {}
    for images in itertools.permutations(range(n)):
        ct = cycle_type_of(images)
        sizes[ct] = sizes.get(ct, 0) + 1
    return sizes


@cache
def class_pairs_by_enumeration(l: int, k: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], int], ...]:
    """Every (cycle type of sigma, of tau, of sigma x tau, count) over all (sigma, tau) in S_l x S_k, sorted.

    sigma x tau permutes l + k points, tau shifted past sigma's l; every cycle
    type is read off a permutation, none is merged from two others, and each
    count is a tally of group elements, not a class-size formula.
    """
    counts: dict[tuple[tuple[int, ...], ...], int] = {}
    for sigma in enumerate_group(l):
        for tau in enumerate_group(k):
            both = sigma.images + tuple(l + t for t in tau.images)
            key = (cycle_type_of(sigma.images), cycle_type_of(tau.images), cycle_type_of(both))
            counts[key] = counts.get(key, 0) + 1
    return tuple(sorted(key + (count,) for key, count in counts.items()))


def lr_by_group_sum(lam: YoungFrame, mu: YoungFrame, nu: YoungFrame) -> Fraction:
    """c^lam_{mu nu} as (1/(l! k!)) sum over every (sigma, tau) in S_l x S_k of chi_mu(sigma) chi_nu(tau) chi_lam(sigma x tau).

    The elements are counted by :func:`class_pairs_by_enumeration`, so every
    cycle type is read off a permutation: no class sizes, no merged cycle types.
    """
    l, k = mu.n, nu.n
    if lam.n != l + k:
        return Fraction(0)
    total = sum(
        count
        * character(mu, YoungFrame(sigma))
        * character(nu, YoungFrame(tau))
        * character(lam, YoungFrame(both))
        for sigma, tau, both, count in class_pairs_by_enumeration(l, k)
    )
    return Fraction(total, math.factorial(l) * math.factorial(k))


def fixed_points_minus_one(ct: tuple[int, ...]) -> int:
    """Character of the standard (n-1)-dimensional irrep at a cycle type."""
    return sum(1 for part in ct if part == 1) - 1


def is_lattice_word(word: list[int]) -> bool:
    counts: dict[int, int] = {}
    for v in word:
        counts[v] = counts.get(v, 0) + 1
        if v > 1 and counts.get(v, 0) > counts.get(v - 1, 0):
            return False
    return True


@cache
def words_by_product(d: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Digit rows of every word of [d]^n in lexicographic order, and the place value of each site; read-only."""
    digits = np.array(list(itertools.product(range(d), repeat=n)), dtype=np.int64).reshape(d**n, n)
    powers = np.array([d ** (n - 1 - i) for i in range(n)], dtype=np.int64)
    digits.flags.writeable = powers.flags.writeable = False
    return digits, powers


def word_map_by_inverse(images: tuple[int, ...], d: int) -> np.ndarray:
    """Index map w -> index of the word y with y[tau(i)] = w[i]: y[j] = w[tau^-1(j)], read by inverting tau."""
    n = len(images)
    inverse = [0] * n
    for i, j in enumerate(images):
        inverse[j] = i
    digits, powers = words_by_product(d, n)
    return digits[:, inverse] @ powers


def cycle_class_maps_one_at_a_time(d: int, n: int, length: int) -> np.ndarray:
    """The word map of every cycle of the given length on n sites, one cycle at a time, one row each."""
    maps = []
    for sites in itertools.combinations(range(n), length):
        for rest in itertools.permutations(sites[1:]):
            images = list(range(n))
            cycle = (sites[0],) + rest
            for i, j in zip(cycle, cycle[1:] + cycle[:1]):
                images[i] = j
            maps.append(word_map_by_inverse(tuple(images), d))
    return np.array(maps, dtype=np.int64).reshape(-1, d**n)


def depolarise_by_subsets(a: TensorOperator, q: Fraction) -> TensorOperator:
    """The n-fold depolarising channel as its literal 2^n subset decomposition, on the full matrix.

    Each subset S of sites is traced out and replaced by maximally mixed
    states, weighted by q^|S| (1-q)^(n-|S|): the term at the word pair (x, y)
    is zero unless x and y agree on S, and then sums the entries at (x, y)
    with the letters on S set to every z, divided by d^|S|.  With q = a/b
    every term is an integer multiple of 1 / (b d)^n.
    """
    q = Fraction(q)
    d, n = a.d, a.n
    digits, powers = words_by_product(d, n)
    mat = a.mat
    total = np.zeros_like(mat)
    for k in range(n + 1):
        weight = q.numerator**k * (q.denominator - q.numerator) ** (n - k) * d ** (n - k)
        if weight == 0:
            continue
        for subset in itertools.combinations(range(n), k):
            cols = list(subset)
            agree = (digits[:, None, cols] == digits[None, :, cols]).all(axis=2)
            traced = np.zeros_like(mat)
            for z in itertools.product(range(d), repeat=k):
                moved = digits.copy()
                moved[:, cols] = z
                idx = moved @ powers
                traced += mat[np.ix_(idx, idx)]
            total += weight * np.where(agree, traced, 0)
    return TensorOperator(d, n, a.scale / (q.denominator * d) ** n, total).reduced()


def conjugate_by_full_matrices(a: TensorOperator, images: tuple[int, ...]) -> TensorOperator:
    """B(tau) A B(tau)^T, with B(tau) the full 0/1 matrix moving the letter at site i to site tau(i)."""
    d, n = a.d, a.n
    digits, powers = words_by_product(d, n)
    moved = np.empty_like(digits)
    moved[:, list(images)] = digits
    b = np.zeros((d**n, d**n), dtype=object)
    b[moved @ powers, np.arange(d**n)] = 1
    return TensorOperator(d, n, a.scale, b @ a.mat @ b.T)


def projectors_by_characters(d: int, n: int) -> dict[YoungFrame, TensorOperator]:
    """Isotypical projectors as central idempotents (f_lam / n!) sum over tau of chi_lam(tau) B(tau).

    The permutation matrices are summed per conjugacy class over all n!
    permutations.  Classes are closed under inversion, so gathering by tau
    instead of tau^{-1} sums the same matrices.
    """
    dim = d**n
    digits = np.array(list(itertools.product(range(d), repeat=n)), dtype=np.int64).reshape(dim, n)
    powers = np.array([d ** (n - 1 - i) for i in range(n)], dtype=np.int64)
    cols = np.arange(dim)
    sums: dict[tuple[int, ...], np.ndarray] = {}
    for images in itertools.permutations(range(n)):
        key = cycle_type_of(images)
        if key not in sums:
            sums[key] = np.zeros((dim, dim), dtype=np.int64)
        sums[key][digits[:, images] @ powers, cols] += 1
    family = {}
    for lam in enumerate_frames(d, n):
        acc = sum(character(lam, YoungFrame(key)) * mat for key, mat in sums.items())
        family[lam] = TensorOperator(d, n, Fraction(count_standard_tableaux(lam), math.factorial(n)), acc)
    return family


def _class_sum_block(d: int, n: int, length: int, words: np.ndarray) -> np.ndarray:
    """The sum of all cycles of the given length, as the full m x m matrix on one letter block (words increasing)."""
    m = len(words)
    images = np.searchsorted(words, cycle_class_maps_one_at_a_time(d, n, length)[:, words])
    mat = np.zeros((m, m), dtype=np.int64)
    np.add.at(mat, (images, np.broadcast_to(np.arange(m), images.shape)), 1)
    return mat


def _lagrange_blocks(mat: np.ndarray, values: list[int]) -> list[tuple[np.ndarray, int]]:
    """(N_i, D_i) with N_i / D_i = prod over j != i of (mat - v_j) / (v_i - v_j), each a full m x m matrix."""
    powers = [np.identity(mat.shape[0], dtype=np.int64), mat][: len(values)]
    for _ in range(len(values) - 2):
        powers.append(orc._int_matmul(powers[-1], mat))
    bounds = [max(orc._amax(p), 1) for p in powers]
    out = []
    for i, v in enumerate(values):
        coeffs, den = [1], 1  # coefficients of prod (x - u), lowest degree first
        for u in values[:i] + values[i + 1 :]:
            coeffs = [a - u * b for a, b in zip([0] + coeffs, coeffs + [0])]
            den *= v - u
        terms = orc._exact(sum(abs(c) * b for c, b in zip(coeffs, bounds)), *powers)
        out.append((sum(c * p for c, p in zip(coeffs, terms)), den))
    return out


def projectors_by_full_blocks(d: int, n: int) -> dict[YoungFrame, TensorOperator]:
    """Isotypical projectors as Lagrange polynomials in the full m x m blocks of T and C3, every entry computed.

    On each stored letter block, P_lam is prod over the other content sums
    c(mu) present of (T - c(mu)) / (c(lam) - c(mu)), T the sum of all
    transpositions, times the same product in C3, the sum of all 3-cycles,
    over the C3 eigenvalues of the frames sharing lam's content sum.  The
    matrix powers and products run on the package's exact integer product, so
    no row is spread by a site permutation; the frames present are those that
    dominate the block's histogram.
    """
    layout = orc._layout(d, n)
    fact = math.factorial(n)
    frames = enumerate_frames(d, n)
    vecs = {lam: np.zeros(layout.size, dtype=object) for lam in frames}
    for words, (lo, hi, _) in zip(layout.blocks, layout.spans):
        hist = np.bincount(words_by_product(d, n)[0][words[0]], minlength=d)
        present = [
            lam for lam in frames
            if all(a >= b for a, b in zip(itertools.accumulate(lam.padded(d)), itertools.accumulate(hist)))
        ]
        groups: dict[int, list[YoungFrame]] = {}
        for lam in present:
            groups.setdefault(orc.central_eigenvalues(lam)[0], []).append(lam)
        blocks = {}
        for (num, den), group in zip(_lagrange_blocks(_class_sum_block(d, n, 2, words), list(groups)), groups.values()):
            if len(group) == 1:
                blocks[group[0]] = (num, den)
                continue
            split = [orc.central_eigenvalues(lam)[1] for lam in group]
            for lam, (snum, sden) in zip(group, _lagrange_blocks(_class_sum_block(d, n, 3, words), split)):
                blocks[lam] = (orc._int_matmul(num, snum), den * sden)
        for lam, (num, den) in blocks.items():
            g = math.gcd(int(np.gcd.reduce(np.abs(num.ravel()))), den) * (1 if den > 0 else -1)
            vecs[lam][lo:hi] = (num // g * (fact // (den // g))).ravel()
    return {lam: TensorOperator._of(d, n, Fraction(1, fact), layout, vec).reduced() for lam, vec in vecs.items()}


def _levels(lam: YoungFrame, d: int, ms: list[int] | range) -> dict[int, tuple[int, list[int], list[int]]]:
    """(C_m, positions in YF(d, m), G_m) per level m in ``ms``, over the mu inside lam of m boxes.

    C_m is the lcm of their dim U_mu and G_m(mu) = f_mu f^{lam/mu} C_m / dim U_mu,
    an integer.  The skew counts are the lattice counts of lam alone.
    """
    counts = _skew_counts(lam.reduced, d)
    out = {}
    for m in ms:
        level = _lattice_level(d, m)
        sym, unitary = level.sym, level.unitary
        common = math.lcm(*(unitary[j] for j in counts[m]))
        out[m] = common, list(counts[m]), [sym[j] * f * (common // unitary[j]) for j, f in counts[m].items()]
    return out


def _unpacked(width: int, fields: int, values: list[int]) -> list[list[int]]:
    """Field j of every value packed ``width`` bits a field, for j < ``fields``."""
    mask = (1 << width) - 1
    return [[(v >> (width * j)) & mask for v in values] for j in range(fields)]


def twirl_by_level_lcms(lam: YoungFrame, ks: list, d: int) -> list[tuple[int, list[int]]]:
    """(denominator, numerators) of the unnormalized twirl at each k of ``ks``, every level on its own lcm.

    Level n-k injects G_(n-k) of :func:`_levels`, shifted into field j for
    the j-th k, over C_(n-k) d^k; the numerator of lam' is its field value
    times dim U_lam' dim U_lam.
    """
    n = lam.n
    levels = _levels(lam, d, [n - k for k in ks])
    width = max((dim_sym(lam) * levels[n - k][0] * d**k for k in ks), default=0).bit_length() + 1
    shifts = {}
    for j, k in enumerate(ks):
        shifts[n - k] = shifts.get(n - k, 0) + (1 << (width * j))
    values = spectra._push(lam, d, {
        m: zip(positions, [g * shifts[m] for g in injected]) for m, (_, positions, injected) in levels.items()
    })
    unit = dim_unitary(lam, d)
    units = _checked_level(d, n).unitary
    return [
        (levels[n - k][0] * d**k, [v * u * unit for v, u in zip(field, units)])
        for k, field in zip(ks, _unpacked(width, len(ks), values))
    ]


def channel_by_level_lcms(lam: YoungFrame, grid: list, d: int) -> list[tuple[int, list[int]]]:
    """(denominator, numerators) of each q of ``grid``, every level m on its own lcm C_m.

    Level m injects C(n,m) d^m (L / C_m) a^(n-m) (b-a)^m G_m(mu), with C_m and
    G_m of :func:`_levels` and L the lcm of the C_m, over L b^n d^n f_lam.
    """
    grid = [depolarising_weight(q) for q in grid]
    n = lam.n
    levels = _levels(lam, d, range(n + 1))
    common = math.lcm(*(c for c, _, _ in levels.values()))
    f_lam = dim_sym(lam)
    width = max((common * q.denominator**n * d**n * f_lam for q in grid), default=0).bit_length() + 1
    packed = [0] * (n + 1)
    for j, q in enumerate(grid):
        a, b = q.numerator, q.denominator
        for m in range(n + 1):
            fixed = math.comb(n, m) * d**m * (common // levels[m][0])
            packed[m] += (fixed * a ** (n - m) * (b - a) ** m) << (width * j)
    values = spectra._push(lam, d, {
        m: zip(positions, [g * packed[m] for g in injected])
        for m, (_, positions, injected) in levels.items() if packed[m]
    })
    units = _checked_level(d, n).unitary
    return [
        (common * q.denominator**n * d**n * f_lam, [v * u for v, u in zip(field, units)])
        for q, field in zip(grid, _unpacked(width, len(grid), values))
    ]


def twirl_by_permutations(a: TensorOperator) -> TensorOperator:
    """The permutation twirl as the literal sum of B(tau) a B(tau)^{-1} over all n! permutations.

    Summed over the whole group, gathering rows and columns by the word map of
    tau instead of tau^{-1} adds the same matrices.
    """
    d, n = a.d, a.n
    dim = d**n
    digits = np.array(list(itertools.product(range(d), repeat=n)), dtype=np.int64).reshape(dim, n)
    powers = np.array([d ** (n - 1 - i) for i in range(n)], dtype=np.int64)
    mat = a.mat
    acc = np.zeros((dim, dim), dtype=object)
    for images in itertools.permutations(range(n)):
        g = digits[:, images] @ powers
        acc += mat[np.ix_(g, g)]
    return TensorOperator(d, n, a.scale / math.factorial(n), acc)


def partial_trace_by_sums(a: TensorOperator, sites: tuple[int, ...]) -> TensorOperator:
    """Trace out ``sites`` by adding up matrix entries word pair by word pair, in Python ints."""
    d, n = a.d, a.n
    keep = [s for s in range(n) if s not in sites]
    words = list(itertools.product(range(d), repeat=n))
    mat = a.mat
    out = np.zeros((d ** len(keep), d ** len(keep)), dtype=object)
    for (i, w), (j, v) in itertools.product(enumerate(words), repeat=2):
        if all(w[s] == v[s] for s in sites):
            row = sum(w[s] * d ** (len(keep) - 1 - t) for t, s in enumerate(keep))
            col = sum(v[s] * d ** (len(keep) - 1 - t) for t, s in enumerate(keep))
            out[row, col] += int(mat[i, j])
    return TensorOperator(d, len(keep), a.scale, out)


def hs_product_by_full_matrices(a: TensorOperator, b: TensorOperator) -> Fraction:
    """tr(AB) as the sum of A_ij B_ji over every entry of the full Python-int matrices."""
    return a.scale * b.scale * int((a.mat * b.mat.T).sum())


def psd_by_fraction_ldl(a: TensorOperator) -> bool:
    """Exact PSD test by rational LDL elimination of the whole matrix, scale included.

    Diagonal pivoting: a negative diagonal entry refutes PSD; with no positive
    diagonal entry left, PSD holds exactly when the rest is zero; otherwise
    eliminate on the first positive pivot and recurse on the Schur complement.
    """
    mat = a.mat
    if not np.array_equal(mat, mat.T):
        raise ValueError("PSD test expects a symmetric operator")
    work = mat * a.scale
    alive = list(range(work.shape[0]))
    while alive:
        diag = [work[i, i] for i in alive]
        if any(x < 0 for x in diag):
            return False
        pivot_pos = next((t for t, x in enumerate(diag) if x > 0), None)
        if pivot_pos is None:
            return all(work[i, j] == 0 for i in alive for j in alive)
        i = alive.pop(pivot_pos)
        col = np.array([work[j, i] for j in alive], dtype=object)
        if alive:
            sub = np.ix_(alive, alive)
            work[sub] = work[sub] - np.outer(col, col) / work[i, i]
    return True
