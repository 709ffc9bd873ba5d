"""Fast combinatorial path: channel output spectra over isotypical blocks.

Where the dense oracle multiplies d^n-dimensional matrices, the functions here
compute the same exact rational numbers purely from dimension counts and
skew standard-tableau counts, scaling far beyond the oracle's caps:

* :func:`twirl_spectrum` gives the exact weight of each block lam' after k
  sites of the lam block are replaced by maximally mixed states, a sum over
  mu of f_mu f^{lam/mu} f^{lam'/mu} / dim U_mu.  It runs on lattice positions
  throughout, on the one lattice YF(d, .): one pass down it
  (:func:`frames._skew_counts`, the branching rule) gives f^{lam/mu} by
  position, in place of the LR sum over nu of c^lam_{mu nu} f_nu; f_mu and
  dim U_mu are read off the level of :func:`frames._lattice_level` at the
  same position, and one exact integer push back up carries every mu to
  every lam' at once,
* :func:`channel_output_spectrum` resums those over the binomial distribution
  of depolarised-site counts, C(n,k) q^k (1-q)^(n-k) at k: one push over one
  common denominator per q,
* :func:`partial_trace_decomposition` and :func:`paired_block_overlap` are the
  LR route to the same numbers: the partial trace of an isotypical projector
  expanded over the smaller isotypical projectors, and its overlap with each
  block.  The tests and the oracle suite cross-check it against the push,
* :func:`tail_bound_exponent` is log2 of the closed-form exponential upper
  bound on a single far-away weight (d = 2), n the box count of its two
  frames, and :func:`xy_optimize` /
  :func:`xy_entropy_bound` solve the extremal dimension-product problems that
  control it.

The twirl and the channel are one push (:func:`_mixed_push`) and differ in
the weight of each level and the common multiple it injects over alone: the
twirl at k weighs level n-k by 1 over that level's own lcm, and the channel
every level over one lcm L of them all, each the faster for its caller.

All three routes give their spectra in one form, a :class:`SpectralTable`
of integers over one denominator: the push's, the LR route's projector
coefficients and the dense oracle's tables.  The verify suites compare the
push's with the dense oracle's by cross-multiplication, and the three writers
read every cell from a table through one helper (:func:`_weight_texts`).
Floats appear only in the entropy bounds and in serialized convenience columns.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator

from .frames import (
    YoungFrame,
    _Level,
    _check_fits,
    _check_source,
    _checked_level,
    _dim_unitary,
    _integers,
    _lattice_level,
    _skew_counts,
    _weight_grid,
    binary_entropy,
    depolarising_weight,
    dim_sym,
    enumerate_frames,
    format_frame,
    integer_text,
    rational_text,
    within_entropy_bound,
)
from .horn import check_split
from .lr import lr_coefficient, lr_nonzero_pairs


def partial_trace_decomposition(lam: YoungFrame, k: int, d: int) -> SpectralTable:
    """Exact coefficients of tr_{[k]} P_lam over the P_mu, as a table over mu in YF_{d, n-k}: the LR route.

    The coefficient of P_mu is dim U_lam sum_nu c^lam_{mu nu} f_nu / dim U_mu,
    every one on the lcm of the dim U_mu it divides by.  It reads no skew
    count, so it checks the push independently.
    """
    [k], d = _check_source(lam, (k,), d)
    level = _checked_level(d, lam.n - k)
    sums = [0] * len(level.reduced)  # sum_nu c^lam_{mu nu} f_nu, by position of mu
    for mu, nu in lr_nonzero_pairs(lam, k, d):
        sums[level.index[mu.reduced]] += lr_coefficient(lam, mu, nu) * dim_sym(nu)
    units = [_dim_unitary(mu, d) for mu in level.reduced]
    common = math.lcm(*(u for u, s in zip(units, sums) if s))
    du_lam = _dim_unitary(lam.reduced, d)
    return SpectralTable._of(level, common, [du_lam * s * (common // u) for u, s in zip(units, sums)])


def paired_block_overlap(lam_prime: YoungFrame, mu: YoungFrame, gamma: YoungFrame, d: int) -> Fraction:
    """tr{P_lam' (P_mu x P_gamma)} divided by dim F_lam'.

    Equals c^lam'_{mu gamma} * dim F_mu * dim F_gamma * dim U_lam' / dim F_lam';
    in particular it vanishes exactly when the LR coefficient does.
    """
    if mu.n + gamma.n != lam_prime.n:
        raise ValueError("box counts do not add up")
    (d,) = _integers((d,), "d", (1,))
    _check_fits(d, lam_prime, mu, gamma)  # before any cache
    c = lr_coefficient(lam_prime, mu, gamma)
    if c == 0:
        return Fraction(0)
    return Fraction(c * dim_sym(mu) * dim_sym(gamma) * _dim_unitary(lam_prime.reduced, d), dim_sym(lam_prime))


@dataclass
class SpectralTable:
    """Exact weights over the frames of YF_{d,n}, as integers over one denominator.

    Frame i of :func:`frames.enumerate_frames` weighs ``numerators[i] /
    denominator``.  Zeros are kept, so the numerators follow the whole
    enumeration order and iteration and serialization are byte-reproducible.
    This is the push's own form (:func:`_push`): a ``Fraction`` is formed
    only when a weight is read.  A table reads its size, denominator and
    numerators by :func:`frames._integers`, the denominator at least 1, needs
    one numerator per frame, and keeps the level whose frames it is over.
    The package's producers, which have read their sizes and hold the level,
    build theirs through :meth:`_of` instead.
    """

    d: int
    n: int
    denominator: int
    numerators: list[int]
    _level: _Level = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        sizes = self.d, self.n, self.denominator
        self.d, self.n, self.denominator = _integers(sizes, "d, n and denominator", (1, 0, 1))
        self.numerators = list(_integers(self.numerators, "numerators"))
        self._level = _checked_level(self.d, self.n)
        if len(self.numerators) != len(self._level.reduced):
            raise ValueError(f"a table over YF({self.d}, {self.n}) needs {len(self._level.reduced)} numerators, "
                             f"got {len(self.numerators)}")

    @classmethod
    def _of(cls, level: _Level, denominator: int, numerators: list[int]) -> SpectralTable:
        """The table over ``level`` with these ints, for a producer that has read its sizes and holds the level."""
        table = object.__new__(cls)
        table.d, table.n, table.denominator, table.numerators, table._level = (
            level.d, level.m, denominator, numerators, level)
        return table

    def weight(self, lam: YoungFrame) -> Fraction:
        """The weight of ``lam``; 0 for a frame outside YF_{d,n}."""
        i = self._level.index.get(lam.reduced)
        return Fraction(0) if i is None else Fraction(self.numerators[i], self.denominator)

    def total(self) -> Fraction:
        return Fraction(sum(self.numerators), self.denominator)

    def mode(self) -> YoungFrame:
        """Frame of maximal weight; ties resolve to the enumeration-first frame."""
        if not any(self.numerators):
            raise ValueError("empty table has no mode")
        best = max(range(len(self.numerators)), key=self.numerators.__getitem__)
        return self._level.frames[best]

    def __iter__(self) -> Iterator[tuple[YoungFrame, Fraction]]:
        """The nonzero (frame, weight) pairs, in enumeration order."""
        for lam, v in zip(self._level.frames, self.numerators):
            if v:
                yield lam, Fraction(v, self.denominator)


def _push(lam: YoungFrame, d: int, injections: dict[int, Iterable[tuple[int, int]]]) -> list[int]:
    """One push up Young's lattice to the level of lam: one integer per frame of YF(d, |lam|).

    ``injections`` maps a level m to the (position in YF(d, m), integer)
    pairs added there.  With A the operator adding one box (at most d rows),
    (A^k delta_mu)(lam') = f^{lam'/mu}, so v_m = A v_(m-1) + inject_m, run
    from the lowest injected level up to n = |lam|, leaves at every lam' of
    YF(d, n) the sum of c f^{lam'/mu} over the pairs (mu, c), by additions
    alone; the integers follow the frame enumeration order.  Its one caller
    packs one bit field per k or q into each integer (:func:`_mixed_push`).
    """
    n = lam.n
    low = min(injections, default=n)
    # one 0 past the last frame, which the getters of the next level read and carry on
    values = [0] * (len(_lattice_level(d, low).covers) + 1)
    for m in range(low, n + 1):
        if m > low:
            # A v_(m-1), one column of covered frames at a time
            first, *rest = _lattice_level(d, m).gather
            total = first(values)
            for get in rest:
                total = map(operator.add, total, get(values))
            values = list(total)
        for j, c in injections.get(m, ()):
            values[j] += c
    values.pop()
    return values


def _pack(width: int, fields: list[list[int]]) -> list[int]:
    """Field j of every position in bits [width j, width (j+1)) of one integer; a single field as it is."""
    if len(fields) == 1:
        return fields[0]
    return [sum(v << (width * j) for j, v in enumerate(column)) for column in zip(*fields)]


def _unpack(width: int, fields: int, values: list[int]) -> list[list[int]]:
    """Field j of every packed value, for j < ``fields``; a single field as it is."""
    if fields == 1:
        return [values]
    mask = (1 << width) - 1
    return [[(v >> (width * j)) & mask for v in values] for j in range(fields)]


def _mixed_push(lam: YoungFrame, d: int, counts: tuple[dict[int, int], ...], commons: dict[int, int] | list[int],
                rows: list[list[int]], bounds: Iterable[int]) -> list[list[int]]:
    """Field j at every lam' of one push (:func:`_push`): sum_mu rows[j][m] f_mu f^{lam/mu} f^{lam'/mu} C_m / dim U_mu.

    The sum runs over every mu inside lam, of m boxes, with f^{lam/mu} from
    ``counts`` (:func:`frames._skew_counts`) and C_m = ``commons[m]`` a
    common multiple of the dim U_mu of level m, read only where a row weighs
    level m.  Each row is one bit field of the injected integers
    (:func:`_pack`), each field value lies below its ``bounds`` entry, and
    2^width lies above every bound, so no field spills into the next.
    """
    width = max(bounds, default=0).bit_length() + 1
    injections = {}
    for m, w in enumerate(_pack(width, rows)):
        if w:
            level, count, common = _lattice_level(d, m), counts[m], commons[m]
            sym, unitary = level.sym, level.unitary
            injections[m] = zip(count, [sym[j] * f * (common // unitary[j]) * w for j, f in count.items()])
    return _unpack(width, len(rows), _push(lam, d, injections))


def twirl_spectra(lam: YoungFrame, ks: Iterable[int], d: int) -> list[SpectralTable]:
    """The unnormalized :func:`twirl_spectrum` for every k in ``ks``, from one push up Young's lattice.

    The weight of lam' at k is N dim U_lam' dim U_lam / D, with D = C d^k, C
    the lcm of the dim U_mu of the frames mu of n-k boxes inside lam, and N =
    sum_mu f_mu f^{lam/mu} f^{lam'/mu} C / dim U_mu.  One push
    (:func:`_mixed_push`) gives every k at once, k a row of weight 1 at level
    n-k over its own C: the channel's one lcm would make the push slower.  The
    normalized weight divides by f_lam dim U_lam.
    """
    ks, d = _check_source(lam, _integers(ks, "k"), d)
    n = lam.n
    level = _checked_level(d, n)
    counts = _skew_counts(lam.reduced, d)
    commons = {m: math.lcm(*map(_lattice_level(d, m).unitary.__getitem__, counts[m])) for m in {n - k for k in ks}}
    # the normalized weights N dim U_lam' / (f_lam D) of field k sum to 1, so no value exceeds f_lam D
    f_lam = dim_sym(lam)
    rows = [[int(m == n - k) for m in range(n + 1)] for k in ks]
    fields = _mixed_push(lam, d, counts, commons, rows, [f_lam * commons[n - k] * d**k for k in ks])
    unit = _dim_unitary(lam.reduced, d)
    units = [u * unit for u in level.unitary]
    return [
        SpectralTable._of(level, commons[n - k] * d**k, list(map(operator.mul, field, units)))
        for k, field in zip(ks, fields)
    ]


def twirl_spectrum(lam: YoungFrame, k: int, d: int, *, normalized: bool = True) -> SpectralTable:
    """Weight of every block lam' after k of the n sites are maximally mixed.

    The weight of lam' is the exact overlap tr{P_lam' (tr_{[k]} P_lam tensor
    pi_{[k]})} (the permutation twirl leaves these overlaps unchanged because
    every P_lam' commutes with the permutation action).  With ``normalized``
    the input is the flat state pi_lam instead of P_lam and the weights form a
    probability distribution.

    Summing the LR expansion of both partial traces over nu and gamma leaves

        dim U_lam dim U_lam' / d^k * sum_mu f_mu f^{lam/mu} f^{lam'/mu} / dim U_mu

    over mu in YF_{d,n-k}, with f the (skew) standard-tableau counts; the
    normalized weight divides by f_lam dim U_lam.  The sum over mu is one push
    of k steps up Young's lattice from level n-k (:func:`twirl_spectra`).
    """
    [table] = twirl_spectra(lam, (k,), d)
    if normalized:  # pi_lam is P_lam over its trace f_lam dim U_lam
        table.denominator *= dim_sym(lam) * _dim_unitary(lam.reduced, table.d)
    return table


def channel_output_spectra(
    lam: YoungFrame, grid: Iterable[Fraction | int | str], d: int
) -> list[SpectralTable]:
    """:func:`channel_output_spectrum` for every q in ``grid``, from one push up Young's lattice.

    With L the lcm of dim U_mu over every mu inside lam, each q = a/b is one
    field of the push (:func:`_mixed_push`).  Level m = n-k injects into it

        w_m f_mu f^{lam/mu} L / dim U_mu,  w_m = C(n,m) a^(n-m) ((b-a) d)^m,

    the binomial weight C(n,k) q^k (1-q)^(n-k) of k mixed sites over the
    twirl's d^k, brought to the common denominator L b^n d^n.  The twirl at k
    injects the same over C_m, the lcm of level m alone; bringing it to L
    multiplies by L / C_m, so C_m cancels and the channel never forms it.
    The weight of lam' is its field value times dim U_lam' over
    D = L b^n d^n f_lam: the table holds those integers as they are.
    """
    grid = _weight_grid(grid)
    _, d = _check_source(lam, (), d)
    n = lam.n
    top = _checked_level(d, n)
    counts = _skew_counts(lam.reduced, d)
    levels = [_lattice_level(d, m) for m in range(n + 1)]
    common = math.lcm(*(level.unitary[j] for level, count in zip(levels, counts) for j in count))
    f_lam = dim_sym(lam)
    # the weights v dim U_lam' / D of a field sum to 1, so no value v exceeds D
    denominators = [common * q.denominator**n * d**n * f_lam for q in grid]
    rows = []
    for q in grid:
        a, b = q.numerator, q.denominator
        kept = (b - a) * d  # each of the n-m mixed sites weighs a, each of the m kept ones (b-a) d
        rows.append([math.comb(n, m) * a ** (n - m) * kept**m for m in range(n + 1)])
    fields = _mixed_push(lam, d, counts, [common] * len(counts), rows, denominators)
    return [
        SpectralTable._of(top, denominator, list(map(operator.mul, field, top.unitary)))
        for denominator, field in zip(denominators, fields)
    ]


def channel_output_spectrum(lam: YoungFrame, q: Fraction | int | str, d: int) -> SpectralTable:
    """Exact distribution of the depolarised flat state pi_lam over the blocks.

    Pr[lam'] = sum over k of C(n,k) q^k (1-q)^(n-k) times the normalized
    twirl spectrum at k; the weights sum to exactly 1.
    """
    return channel_output_spectra(lam, [q], d)[0]


def tail_bound_exponent(lam: YoungFrame, lam_prime: YoungFrame, q: Fraction | int | str) -> float:
    """log2 of the exponential upper bound on Pr[lam'] for the depolarised flat state pi_lam, n the frames' box count.

    Valid for d = 2 in the regime |lam_1 - lam'_1|/n > q, where the bound is

        2 ** (-n * ((2/ln 2) * (|lam_1 - lam'_1|/n - q)**2 - log2(n+1)/n))

    The log2(n+1)/n term accounts for summing at most n+1 binomial weights,
    each bounded through the relative-entropy estimate and the (correctly
    oriented) quadratic lower bound on it.  At |lam_1 - lam'_1|/n = q the
    exponent is >= 0 and carries no information; below that the function
    raises, as it does for two frames of different box counts, for n < 1 and
    for a frame with more than 2 rows.
    """
    if lam.n != lam_prime.n:
        raise ValueError(f"frames {lam} and {lam_prime} have {lam.n} and {lam_prime.n} boxes, not one n")
    (n,) = _integers((lam.n,), "n", (1,))
    _check_fits(2, lam, lam_prime)
    q = depolarising_weight(q)
    gap = abs(lam.row(0) - lam_prime.row(0))
    ratio = Fraction(gap, n)
    if ratio < q:
        raise ValueError(
            f"bound vacuous: |lam_1 - lam'_1|/n = {ratio} < q = {q} is outside the bound's regime"
        )
    return _tail_exponent(ratio, q, n)


def _tail_exponent(ratio: Fraction, q: Fraction, n: int) -> float:
    """The exponent of :func:`tail_bound_exponent` at |lam_1 - lam'_1|/n = ``ratio``, for inputs already checked."""
    delta = math.log2(n + 1) / n
    return -n * ((2 / math.log(2)) * float(ratio - q) ** 2 - delta)


@dataclass(frozen=True)
class XYExtrema:
    """Extremal dimension products over connecting branching chains.

    ``x`` is the maximum and ``y`` the minimum of dim F_nu * dim F_mu *
    dim F_gamma over all (mu, nu, gamma) with c^lam_{mu nu} c^lam'_{mu gamma}
    nonzero; both are 0 with ``None`` witnesses when no chain exists.
    """

    x: int
    y: int
    argmax: tuple[YoungFrame, YoungFrame, YoungFrame] | None
    argmin: tuple[YoungFrame, YoungFrame, YoungFrame] | None


def xy_optimize(lam: YoungFrame, lam_prime: YoungFrame, l: int, k: int, d: int) -> XYExtrema:
    """Exhaustive search of the feasible (mu, nu, gamma) triples for X and Y."""
    l, k, d = check_split(lam, lam_prime, l, k, d)
    best_max = best_min = 0
    argmax = argmin = None
    k_frames = enumerate_frames(d, k)
    for mu in enumerate_frames(d, l):
        nus = [nu for nu in k_frames if lr_coefficient(lam, mu, nu)]
        if not nus:
            continue
        gammas = [g for g in k_frames if lr_coefficient(lam_prime, mu, g)]
        if not gammas:
            continue
        f_mu = dim_sym(mu)
        for nu in nus:
            for gamma in gammas:
                value = dim_sym(nu) * f_mu * dim_sym(gamma)
                if argmax is None or value > best_max:
                    best_max, argmax = value, (mu, nu, gamma)
                if argmin is None or value < best_min:
                    best_min, argmin = value, (mu, nu, gamma)
    return XYExtrema(best_max, best_min, argmax, argmin)


@dataclass(frozen=True)
class XYBoundCheck:
    bound: float
    x: int
    holds: bool


def xy_entropy_bound(lam_prime: YoungFrame, k: int) -> XYBoundCheck:
    """Check X <= 2**(k*h(lam'_2/k)) for a single-row source frame (d = 2).

    The source is lam = (n) with n = |lam'|; when lam'_2 > k no connecting
    chain exists at all, so the statement degenerates to X = 0.  The verdict
    is decided on integers (:func:`frames.within_entropy_bound`); ``bound``
    is the float value for reports.  ``k`` is held to 0..n as the fast path holds it.
    """
    n = lam_prime.n
    [k], _ = _check_source(lam_prime, (k,), 2)
    extrema = xy_optimize(YoungFrame((n,)), lam_prime, n - k, k, 2)
    x = extrema.x
    second = lam_prime.row(1)
    if second > k:
        return XYBoundCheck(0.0, x, x == 0)
    ratio = Fraction(second, k) if k else Fraction(0)
    bound = 2.0 ** (k * binary_entropy(ratio))
    return XYBoundCheck(bound, x, within_entropy_bound(x, second, k))


# -- serialization -------------------------------------------------------------


def _weight_texts(table: SpectralTable) -> list[tuple[str, str]]:
    """Numerator and denominator of every weight of ``table`` in lowest terms, every digit written.

    A weight's float is v / denominator: int division is correctly rounded, as is ``float`` of the ``Fraction``.
    """
    den = table.denominator
    return [(integer_text(v // (g := math.gcd(v, den))), integer_text(den // g)) for v in table.numerators]


def table_to_csv(table: SpectralTable) -> str:
    """CSV with header frame,weight_numerator,weight_denominator,weight_float; nonzero weights only."""
    lines = ["frame,weight_numerator,weight_denominator,weight_float"]
    rows = zip(table._level.frames, table.numerators, _weight_texts(table))
    for lam, v, (num, den) in rows:
        if v:
            lines.append(f'"{format_frame(lam, table.d)}",{num},{den},{v / table.denominator!r}')
    return "\n".join(lines) + "\n"


def table_to_json_obj(table: SpectralTable) -> dict:
    """JSON mirror of the CSV with exact "num/den" strings for the rationals."""
    rows = zip(table._level.frames, table.numerators, _weight_texts(table))
    return {
        "d": table.d,
        "n": table.n,
        "entries": [
            {"frame": format_frame(lam, table.d), "weight": f"{num}/{den}", "weight_float": v / table.denominator}
            for lam, v, (num, den) in rows
            if v
        ],
    }


def sweep_to_csv(lam: YoungFrame, d: int, grid: list[Fraction | int | str], *, exact: bool = False) -> str:
    """Matrix CSV: one row per frame of YF_{d,n}, one column per grid value.

    Cells are floats by default; with ``exact`` they are "num/den" strings.
    Zero-weight cells are written as 0.0 (or "0/1") so every column has the
    same full frame axis.  Column j is the table of q_j
    (:func:`channel_output_spectra`), read by position.
    """
    grid = _weight_grid(grid)
    if not grid:
        raise ValueError("q grid must be nonempty")
    tables = channel_output_spectra(lam, grid, d)
    columns = [
        [f"{num}/{den}" for num, den in _weight_texts(table)] if exact
        else [repr(v / table.denominator) for v in table.numerators]
        for table in tables
    ]
    names = [f'"{format_frame(lam_p, d)}"' for lam_p in tables[0]._level.frames]
    lines = [",".join(["frame"] + [f"q={rational_text(q)}" for q in grid])]
    lines += [",".join(row) for row in zip(names, *columns)]
    return "\n".join(lines) + "\n"
