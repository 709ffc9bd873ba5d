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
  same position, which forms one integer per mu to inject (:func:`_levels`),
  and one exact integer push back up (:func:`_push`) carries the injected mu
  to every lam' at once,
* :func:`channel_output_spectrum` resums those over the binomial distribution
  of depolarised-site counts.  The binomial weights ride along in the
  injections, so this is the same push over one common denominator per q;
  :func:`channel_output_spectra` packs every q of a grid into one integer per
  frame, as :func:`twirl_spectra` packs every k,
* :func:`partial_trace_decomposition` and :func:`paired_block_overlap` are the
  LR route to the same numbers: the partial trace of an isotypical projector
  expanded over the smaller isotypical projectors, and its overlap with each
  block.  The tests and the oracle suite cross-check it against the push,
* :func:`tail_bound_exponent` is log2 of the closed-form exponential upper
  bound on a single far-away weight (d = 2), and :func:`xy_optimize` /
  :func:`xy_entropy_bound` solve the extremal dimension-product problems that
  control it.

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
from itertools import accumulate, repeat
from typing import Iterable, Iterator

from .frames import (
    YoungFrame,
    _Level,
    _check_fits,
    _checked_level,
    _dim_unitary,
    _integers,
    _lattice_level,
    _skew_counts,
    binary_entropy,
    depolarising_weight,
    dim_sym,
    dim_unitary,
    enumerate_frames,
    format_frame,
    integer_text,
    rational_text,
    within_entropy_bound,
)
from .horn import check_split
from .lr import lr_coefficient, lr_nonzero_pairs


def _check_source(lam: YoungFrame, ks: Iterable[int], d: int) -> tuple[list[int], int]:
    """Refuse a source block or site counts the fast path cannot honour; ``ks`` and d come back as ints."""
    d, *ks = _integers((d, *ks), "d and k", (1,))
    _check_fits(d, lam)
    for k in ks:
        if not 0 <= k <= lam.n:
            raise ValueError(f"k={k} outside 0..{lam.n}")
    return ks, d


def partial_trace_decomposition(lam: YoungFrame, k: int, d: int) -> SpectralTable:
    """Exact coefficients of tr_{[k]} P_lam over the P_mu, as a table over mu in YF_{d, n-k}: the LR route.

    The coefficient of P_mu is dim U_lam sum_nu c^lam_{mu nu} f_nu / dim U_mu,
    every one on the lcm of the dim U_mu it divides by.  It reads no skew
    count, so it checks the push independently.
    """
    [k], d = _check_source(lam, (k,), d)
    l = lam.n - k
    level = _checked_level(d, l)
    sums = [0] * len(level.reduced)  # sum_nu c^lam_{mu nu} f_nu, by position of mu
    for mu, nu in lr_nonzero_pairs(lam, l, k, d):
        sums[level.index[mu.reduced]] += lr_coefficient(lam, mu, nu) * dim_sym(nu)
    units = [_dim_unitary(mu, d) for mu in level.reduced]
    common = math.lcm(*(u for u, s in zip(units, sums) if s))
    du_lam = _dim_unitary(lam.reduced, d)
    return SpectralTable(d, l, common, [du_lam * s * (common // u) for u, s in zip(units, sums)])


def paired_block_overlap(lam_prime: YoungFrame, mu: YoungFrame, gamma: YoungFrame, d: int) -> Fraction:
    """tr{P_lam' (P_mu x P_gamma)} divided by dim F_lam'.

    Equals c^lam'_{mu gamma} * dim F_mu * dim F_gamma * dim U_lam' / dim F_lam';
    in particular it vanishes exactly when the LR coefficient does.
    """
    if mu.n + gamma.n != lam_prime.n:
        raise ValueError("box counts do not add up")
    unitary = dim_unitary(lam_prime, d)  # reads d before any cache
    c = lr_coefficient(lam_prime, mu, gamma)
    if c == 0:
        return Fraction(0)
    return Fraction(c * dim_sym(mu) * dim_sym(gamma) * unitary, dim_sym(lam_prime))


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


_Levels = dict[int, tuple[int, list[int], list[int]]]


def _levels(lam: YoungFrame, d: int, ms: Iterable[int]) -> _Levels:
    """(C, positions in YF(d, m), G) per level m in ``ms``, over the mu inside lam of m boxes.

    C is the lcm of their dim U_mu and G(mu) = f_mu f^{lam/mu} C / dim U_mu,
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


def _push(lam: YoungFrame, d: int, levels: _Levels, fields: list[tuple[int, dict[int, int]]]) -> tuple[int, list[int]]:
    """One push up Young's lattice to the level of lam, every field packed into one integer per frame.

    Field j is a pair (bound, {m: c}): it injects c G(mu) at each mu of level
    m of ``levels`` (:func:`_levels`), and no frame ends it above ``bound``.
    With A the operator adding one box (at most d rows), (A^k delta_mu)(lam')
    = f^{lam'/mu}, so v_m = A v_(m-1) + inject_m, run from the lowest
    injected level up to n = |lam|, leaves in field j of every lam' of
    YF(d, n) the sum over m of c sum_mu G(mu) f^{lam'/mu}, by additions alone.
    Field j occupies bits [width j, width (j+1)) of each returned integer,
    with 2^width above every bound, so no field spills into the next; the
    integers follow the frame enumeration order (:func:`_unpack`).
    """
    n = lam.n
    width = max((bound for bound, _ in fields), default=0).bit_length() + 1
    packed: dict[int, int] = {}
    for j, (_, field) in enumerate(fields):
        for m, c in field.items():
            if c:
                packed[m] = packed.get(m, 0) + (c << (width * j))
    low = min(packed, default=n)
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
        if m in packed:
            p = packed[m]
            _, positions, injected = levels[m]
            for j, g in zip(positions, injected):
                values[j] += g * p
    values.pop()
    return width, values


def _unpack(width: int, fields: int, values: list[int]) -> list[list[int]]:
    """Field j of every packed value, for j < ``fields``."""
    mask = (1 << width) - 1
    return [[(v >> (width * j)) & mask for v in values] for j in range(fields)]


def twirl_spectra(lam: YoungFrame, ks: Iterable[int], d: int) -> list[SpectralTable]:
    """The unnormalized :func:`twirl_spectrum` for every k in ``ks``, from one push up Young's lattice.

    The weight of lam' at k is N dim U_lam' dim U_lam / D, with D = C d^k, C
    the lcm of the dim U_mu of the frames mu of n-k boxes inside lam, and N =
    sum_mu G(mu) f^{lam'/mu} (:func:`_levels`).  One push (:func:`_push`)
    gives every k at once: k is field j, injected at level n-k.  The
    normalized weight divides by f_lam dim U_lam.
    """
    ks, d = _check_source(lam, ks, d)
    n = lam.n
    level = _checked_level(d, n)
    levels = _levels(lam, d, [n - k for k in ks])
    # the normalized weights N dim U_lam' / (f_lam D) of field k sum to 1, so no value exceeds f_lam D
    f_lam = dim_sym(lam)
    width, values = _push(lam, d, levels, [(f_lam * levels[n - k][0] * d**k, {n - k: 1}) for k in ks])
    unit = _dim_unitary(lam.reduced, d)
    units = [u * unit for u in level.unitary]
    return [
        SpectralTable(d, n, levels[n - k][0] * d**k, list(map(operator.mul, field, units)))
        for k, field in zip(ks, _unpack(width, len(ks), values))
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

    With C_m and G_m(mu) the coefficients of level m (:func:`_levels`) and L
    the lcm of the C_m, each q = a/b is one field of the push (:func:`_push`).
    Level m = n-k injects into it

        C(n,k) a^k (b-a)^(n-k) d^m (L / C_m) G_m(mu),

    the binomial weight of k mixed sites over the twirl's 1/d^k, all brought
    to the common denominator L b^n d^n.  The factor C(n,m) d^m (L / C_m)
    does not depend on q and is formed once per call; each q adds only its
    powers a^0..a^n and (b-a)^0..(b-a)^n.  The weight of lam' is its field
    value times dim U_lam' over D = L b^n d^n f_lam: the table holds those
    integers as they are.
    """
    grid = [depolarising_weight(q) for q in grid]
    _, d = _check_source(lam, (), d)
    n = lam.n
    units = _checked_level(d, n).unitary
    levels = _levels(lam, d, range(n + 1))
    common = math.lcm(*(c for c, _, _ in levels.values()))
    f_lam = dim_sym(lam)
    fixed = [math.comb(n, m) * d**m * (common // levels[m][0]) for m in range(n + 1)]
    denominators, fields = [], []
    for q in grid:
        a, b = q.numerator, q.denominator
        # a^j and (b-a)^j for j = 0..n: j sites mixed, j sites kept
        mixed, kept = (list(accumulate(repeat(x, n), operator.mul, initial=1)) for x in (a, b - a))
        denominators.append(common * b**n * d**n * f_lam)
        # the weights v dim U_lam' / D of a field sum to 1, so no value v exceeds D
        fields.append((denominators[-1], {m: g * mixed[n - m] * kept[m] for m, g in enumerate(fixed)}))
    width, values = _push(lam, d, levels, fields)
    return [
        SpectralTable(d, n, denominator, list(map(operator.mul, field, units)))
        for denominator, field in zip(denominators, _unpack(width, len(grid), values))
    ]


def channel_output_spectrum(lam: YoungFrame, q: Fraction | int | str, d: int) -> SpectralTable:
    """Exact distribution of the depolarised flat state pi_lam over the blocks.

    Pr[lam'] = sum over k of C(n,k) q^k (1-q)^(n-k) times the normalized
    twirl spectrum at k; the weights sum to exactly 1.
    """
    return channel_output_spectra(lam, [q], d)[0]


def tail_bound_exponent(lam: YoungFrame, lam_prime: YoungFrame, q: Fraction | int | str, n: int) -> float:
    """log2 of the exponential upper bound on Pr[lam'] for the depolarised flat state pi_lam.

    Valid for d = 2 in the regime |lam_1 - lam'_1|/n > q, where the bound is

        2 ** (-n * ((2/ln 2) * (|lam_1 - lam'_1|/n - q)**2 - log2(n+1)/n))

    The log2(n+1)/n term accounts for summing at most n+1 binomial weights,
    each bounded through the relative-entropy estimate and the (correctly
    oriented) quadratic lower bound on it.  At |lam_1 - lam'_1|/n = q the
    exponent is >= 0 and carries no information; below that the function
    raises, as it does for n < 1, a frame with more than 2 rows or with other
    than n boxes.  ``n`` is read by :func:`frames._integers`.
    """
    (n,) = _integers((n,), "n", (1,))
    for f in (lam, lam_prime):
        if not f.fits(2):
            raise ValueError(f"the tail bound holds for d=2 only; frame {f} has more than 2 rows")
        if f.n != n:
            raise ValueError(f"frame {f} has {f.n} boxes, not n={n}")
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
    if not lam_prime.fits(2):
        raise ValueError("single-row bound only covers two-row frames")
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
    if not grid:
        raise ValueError("q grid must be nonempty")
    grid = [depolarising_weight(q) for q in grid]
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
