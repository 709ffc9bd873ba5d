"""Fast combinatorial path: channel output spectra over isotypical blocks.

Where the dense oracle multiplies d^n-dimensional matrices, the functions here
compute the same exact rational numbers purely from dimension counts and
skew standard-tableau counts, scaling far beyond the oracle's caps:

* :func:`twirl_spectrum` gives the exact weight of each block lam' after k
  sites of the lam block have been replaced by maximally mixed states, as a
  sum over mu of f_mu f^{lam/mu} f^{lam'/mu} / dim U_mu.  The skew counts
  f^{lam/mu} of the source come from one pass down Young's lattice
  (:func:`frames._skew_counts`, the branching rule) and stand in for the sum
  over nu of c^lam_{mu nu} f_nu, so no Littlewood-Richardson (LR)
  coefficient is on this path.  The sum over mu with f^{lam'/mu} is one
  exact integer push up the lattice (:func:`_push`): the weighted mu are
  injected at their level, and adding one box at a time carries them to
  every lam' at once,
* :func:`channel_output_spectrum` resums those over the binomial distribution
  of depolarised-site counts, yielding the full output distribution of the
  site-wise depolarising channel on the flat state pi_lam.  The binomial
  weights ride along in the injections, so the resummation is the same
  push, on integers over one common denominator per q, with one
  ``Fraction`` per output frame; :func:`channel_output_spectra` (behind
  the tail-bound check) packs every q of its grid into one integer per
  frame and pushes once, and :func:`sweep_to_csv` writes its cells
  straight from the same push integers (:func:`_channel_fields`), without
  a ``Fraction`` table per q,
* :func:`partial_trace_decomposition` and :func:`paired_block_overlap` are the
  LR route to the same numbers: the partial trace of an isotypical projector
  expanded over the smaller isotypical projectors, and its overlap with each
  block.  The tests and the oracle suite cross-check both routes,
* :func:`channel_tail_bound` is the closed-form exponential upper bound on a
  single far-away weight, and :func:`xy_optimize` /
  :func:`xy_entropy_bound` solve the extremal dimension-product problems that
  control it.

All spectra are exact ``Fraction`` tables; floats appear only in the entropy
bounds and in serialized convenience columns.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

from .frames import (
    YoungFrame,
    _dim_sym,
    _dim_unitary,
    _lattice_level,
    _skew_counts,
    binary_entropy,
    depolarising_weight,
    dim_sym,
    dim_unitary,
    enumerate_frames,
    format_frame,
    within_entropy_bound,
)
from .horn import check_split
from .lr import lr_coefficient, lr_nonzero_pairs


@dataclass
class BranchingTable:
    """Expansion of tr over k sites of P_lam into projectors on l = n-k sites.

    ``entries[(mu, nu)]`` holds dim U_lam * c^lam_{mu nu} * dim F_nu / dim U_mu;
    summing the entries over nu gives the coefficient of P_mu.
    """

    source: YoungFrame
    l: int
    k: int
    d: int
    entries: dict[tuple[YoungFrame, YoungFrame], Fraction]

    def projector_weights(self) -> dict[YoungFrame, Fraction]:
        """Total weight of each P_mu: sum of entries over nu."""
        out: dict[YoungFrame, Fraction] = {}
        for (mu, _nu), c in self.entries.items():
            out[mu] = out.get(mu, Fraction(0)) + c
        return out


def _check_source(lam: YoungFrame, k: int, d: int) -> None:
    """Reject a source block or site count the fast path cannot honour."""
    if d < 1:
        raise ValueError(f"row budget d must be >= 1, got {d}")
    if not lam.fits(d):
        raise ValueError(f"frame {lam} has more than d={d} rows")
    if not 0 <= k <= lam.n:
        raise ValueError(f"k={k} outside 0..{lam.n}")


def partial_trace_decomposition(lam: YoungFrame, k: int, d: int) -> BranchingTable:
    """Exact coefficients of tr_{[k]} P_lam over the P_mu with mu in YF_{d, n-k}."""
    _check_source(lam, k, d)
    n = lam.n
    l = n - k
    du_lam = dim_unitary(lam, d)
    entries: dict[tuple[YoungFrame, YoungFrame], Fraction] = {}
    for mu, nu in lr_nonzero_pairs(lam, l, k, d):
        c = lr_coefficient(lam, mu, nu)
        entries[(mu, nu)] = Fraction(du_lam * c * dim_sym(nu), dim_unitary(mu, d))
    return BranchingTable(lam, l, k, d, entries)


def paired_block_overlap(lam_prime: YoungFrame, mu: YoungFrame, gamma: YoungFrame, d: int) -> Fraction:
    """tr{P_lam' (P_mu x P_gamma)} divided by dim F_lam'.

    Equals c^lam'_{mu gamma} * dim F_mu * dim F_gamma * dim U_lam' / dim F_lam';
    in particular it vanishes exactly when the LR coefficient does.
    """
    if mu.n + gamma.n != lam_prime.n:
        raise ValueError("box counts do not add up")
    c = lr_coefficient(lam_prime, mu, gamma)
    if c == 0:
        return Fraction(0)
    return Fraction(
        c * dim_sym(mu) * dim_sym(gamma) * dim_unitary(lam_prime, d), dim_sym(lam_prime)
    )


@dataclass
class SpectralTable:
    """Exact weights over the frames of YF_{d,n}; only nonzero entries stored.

    Entries are kept in the decreasing-lex frame enumeration order, so
    iteration and serialization are byte-reproducible.
    """

    d: int
    n: int
    entries: dict[YoungFrame, Fraction]

    def weight(self, lam: YoungFrame) -> Fraction:
        return self.entries.get(lam, Fraction(0))

    def support(self) -> list[YoungFrame]:
        return list(self.entries)

    def total(self) -> Fraction:
        return sum(self.entries.values(), Fraction(0))

    def mode(self) -> YoungFrame:
        """Frame of maximal weight; ties resolve to the enumeration-first frame."""
        if not self.entries:
            raise ValueError("empty table has no mode")
        best = None
        best_w = None
        for lam, w in self.entries.items():
            if best_w is None or w > best_w:
                best, best_w = lam, w
        return best

    def __iter__(self) -> Iterator[tuple[YoungFrame, Fraction]]:
        return iter(self.entries.items())


def _level_coefficients(lam: YoungFrame, d: int, m: int) -> tuple[int, dict[tuple[int, ...], int]]:
    """(C, G) for the frames mu of m boxes inside lam: C the lcm of their dim U_mu, G(mu) = f_mu f^{lam/mu} C / dim U_mu.

    The skew counts f^{lam/mu} are read from the lattice counts of lam alone.
    """
    level = _skew_counts(lam.reduced)[m]
    units = [_dim_unitary(mu, d) for mu in level]
    common = math.lcm(*units)
    return common, {mu: _dim_sym(mu) * f * (common // u) for (mu, f), u in zip(level.items(), units)}


def _push(
    lam: YoungFrame, d: int, levels: dict[int, dict[tuple[int, ...], int]], fields: list[dict[int, int]]
) -> tuple[int, list[int]]:
    """One push up Young's lattice to the level of lam, every field packed into one integer per frame.

    Field j injects fields[j][m] G(mu) at each mu of G = levels[m].  With A
    the operator adding one box (at most d rows), (A^k delta_mu)(lam') =
    f^{lam'/mu}, so v_m = A v_(m-1) + inject_m, run from the lowest injected
    level up to n = |lam|, leaves in field j of every lam' of YF(d, n) the sum
    over m of fields[j][m] sum_mu G(mu) f^{lam'/mu}, by additions alone.
    Field j occupies bits [width j, width (j+1)) of each returned integer;
    the integers follow the frame enumeration order (:func:`_unpack`).
    """
    n = lam.n
    scaled = {m: sum(g.values()) * d ** (n - m) for m, g in levels.items()}
    # Width certificate: every injected and pushed value is non-negative, and a
    # frame with at most d rows is covered by at most d frames, so one push step
    # at most multiplies a field's total mass by d.  Field j ends at most at
    # sum_m fields[j][m] mass_m d^(n-m) on any frame, below 2^width: no field
    # can spill into the next one.
    width = max((sum(c * scaled[m] for m, c in field.items()) for field in fields), default=0).bit_length() + 1
    packed = dict.fromkeys(levels, 0)
    for j, field in enumerate(fields):
        for m, c in field.items():
            packed[m] += c << (width * j)
    low = min((m for m, p in packed.items() if p), default=n)
    values: list[int] = []
    for m in range(low, n + 1):
        index, covers = _lattice_level(d, m)
        if m == low:
            values = [0] * len(index)
        else:
            # A v_(m-1), one column of covered frames at a time; -1 reads the 0 appended here
            values.append(0)
            below = values.__getitem__
            values = list(map(below, covers[0]))
            for column in covers[1:]:
                values = list(map(operator.add, values, map(below, column)))
        if packed.get(m):
            p = packed[m]
            for mu, g in levels[m].items():
                values[index[mu]] += g * p
    return width, values


def _unpack(width: int, fields: int, values: list[int]) -> list[list[int]]:
    """Field j of every packed value, for j < ``fields``."""
    mask = (1 << width) - 1
    return [[(v >> (width * j)) & mask for v in values] for j in range(fields)]


def _twirl_numerators(lam: YoungFrame, d: int, ks) -> list[tuple[int, list[int]]]:
    """Integer form (D, [N per frame of YF_{d,n}]) of the k-site twirl spectrum of lam, per k in ``ks``.

    The normalized weight of lam' is N / (f_lam D), the unnormalized one
    N dim U_lam / D.  The list follows the frame enumeration order and keeps
    the zeros.  D = C d^k with C the lcm of the dim U_mu of the frames mu of
    n-k boxes inside lam, and N = dim U_lam' sum_mu G(mu) f^{lam'/mu}
    (:func:`_level_coefficients`).  One push up Young's lattice
    (:func:`_push`) gives every k at once: k is field j, injected at level
    n-k.
    """
    n = lam.n
    frames = enumerate_frames(d, n)
    levels = {n - k: _level_coefficients(lam, d, n - k) for k in ks}
    width, values = _push(lam, d, {m: g for m, (_, g) in levels.items()}, [{n - k: 1} for k in ks])
    units = [_dim_unitary(f.reduced, d) for f in frames]
    return [
        (levels[n - k][0] * d**k, list(map(operator.mul, field, units)))
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
    of k steps up Young's lattice from level n-k (:func:`_twirl_numerators`).
    """
    _check_source(lam, k, d)
    [(denominator, numerators)] = _twirl_numerators(lam, d, (k,))
    if normalized:
        denominator *= dim_sym(lam)
        source = 1
    else:
        source = dim_unitary(lam, d)
    frames = enumerate_frames(d, lam.n)
    return SpectralTable(
        d, lam.n, {f: Fraction(num * source, denominator) for f, num in zip(frames, numerators) if num}
    )


def _binomial_weights(n: int, q: Fraction) -> list[int]:
    """C(n,k) a^k (b-a)^(n-k) for k = 0..n, q = a/b: b^n times the channel's weight on k mixed sites."""
    a, b = q.numerator, q.denominator
    return [math.comb(n, k) * a**k * (b - a) ** (n - k) for k in range(n + 1)]


def _channel_fields(
    lam: YoungFrame, grid: list[Fraction], d: int
) -> tuple[list[YoungFrame], list[int], list[tuple[int, list[int]]]]:
    """The frames of YF_{d,n}, their dim U, and one (D, field) pair per q of the parsed ``grid``.

    With C_m and G_m(mu) the coefficients of level m (:func:`_level_coefficients`)
    and L the lcm of the C_m, each q = a/b is one field of the push
    (:func:`_push`).  Level m = n-k injects into it

        C(n,k) a^k (b-a)^(n-k) d^m (L / C_m) G_m(mu),

    the binomial weight of k mixed sites over the twirl's 1/d^k, all brought
    to the common denominator L b^n d^n.  The weight of lam' is its field
    value v times dim U_lam' over D = L b^n d^n f_lam.
    """
    _check_source(lam, 0, d)
    n = lam.n
    frames = enumerate_frames(d, n)
    levels = [_level_coefficients(lam, d, m) for m in range(n + 1)]
    common = math.lcm(*(c for c, _ in levels))
    binomials = [_binomial_weights(n, q) for q in grid]
    fields = [{m: row[n - m] * d**m * (common // c) for m, (c, _) in enumerate(levels)} for row in binomials]
    width, values = _push(lam, d, {m: g for m, (_, g) in enumerate(levels)}, fields)
    units = [_dim_unitary(f.reduced, d) for f in frames]
    f_lam = dim_sym(lam)
    return frames, units, [
        (common * q.denominator**n * d**n * f_lam, field) for q, field in zip(grid, _unpack(width, len(grid), values))
    ]


def channel_output_spectra(
    lam: YoungFrame, grid: Iterable[Fraction | int | str], d: int
) -> list[SpectralTable]:
    """:func:`channel_output_spectrum` for every q in ``grid``, from one push up Young's lattice.

    Every q is one field of the same push (:func:`_channel_fields`), and each
    output frame gets one ``Fraction``.
    """
    frames, units, columns = _channel_fields(lam, [depolarising_weight(q) for q in grid], d)
    return [
        SpectralTable(
            d, lam.n, {lam_p: Fraction(v * u, denominator) for lam_p, v, u in zip(frames, field, units) if v}
        )
        for denominator, field in columns
    ]


def channel_output_spectrum(lam: YoungFrame, q: Fraction | int | str, d: int) -> SpectralTable:
    """Exact distribution of the depolarised flat state pi_lam over the blocks.

    Pr[lam'] = sum over k of C(n,k) q^k (1-q)^(n-k) times the normalized
    twirl spectrum at k; the weights sum to exactly 1.
    """
    return channel_output_spectra(lam, [q], d)[0]


def tail_bound_exponent(lam: YoungFrame, lam_prime: YoungFrame, q: Fraction | int | str, n: int) -> float:
    """log2 of :func:`channel_tail_bound` (handy for slack-free comparisons)."""
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


def channel_tail_bound(lam: YoungFrame, lam_prime: YoungFrame, q: Fraction | int | str, n: int) -> float:
    """Exponential upper bound on Pr[lam'] for the depolarised flat state pi_lam.

    Valid for d = 2 in the regime |lam_1 - lam'_1|/n > q:

        2 ** (-n * ((2/ln 2) * (|lam_1 - lam'_1|/n - q)**2 - log2(n+1)/n))

    The log2(n+1)/n term accounts for summing at most n+1 binomial weights,
    each bounded through the relative-entropy estimate and the (correctly
    oriented) quadratic lower bound on it.  At |lam_1 - lam'_1|/n = q the
    value is >= 1 and carries no information; below that the function raises,
    as it does for a frame with more than 2 rows or with other than n boxes.
    """
    return 2.0 ** tail_bound_exponent(lam, lam_prime, q, n)


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
    check_split(lam, lam_prime, l, k, d)
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
    is the float value for reports.
    """
    n = lam_prime.n
    if not lam_prime.fits(2):
        raise ValueError("single-row bound only covers two-row frames")
    extrema = xy_optimize(YoungFrame((n,)), lam_prime, n - k, k, 2)
    x = extrema.x
    second = lam_prime.row(1)
    if second > k:
        return XYBoundCheck(0.0, x, x == 0)
    ratio = Fraction(second, k) if k else Fraction(0)
    bound = 2.0 ** (k * binary_entropy(ratio))
    return XYBoundCheck(bound, x, within_entropy_bound(x, second, k))


# -- serialization -------------------------------------------------------------


def table_to_csv(table: SpectralTable) -> str:
    """CSV with header frame,weight_numerator,weight_denominator,weight_float."""
    lines = ["frame,weight_numerator,weight_denominator,weight_float"]
    for lam, w in table:
        cell = format_frame(lam, table.d)
        lines.append(f'"{cell}",{w.numerator},{w.denominator},{float(w)!r}')
    return "\n".join(lines) + "\n"


def table_to_json_obj(table: SpectralTable) -> dict:
    """JSON mirror of the CSV with exact "num/den" strings for the rationals."""
    return {
        "d": table.d,
        "n": table.n,
        "entries": [
            {
                "frame": format_frame(lam, table.d),
                "weight": f"{w.numerator}/{w.denominator}",
                "weight_float": float(w),
            }
            for lam, w in table
        ],
    }


def sweep_to_csv(lam: YoungFrame, d: int, grid: list[Fraction | int | str], *, exact: bool = False) -> str:
    """Matrix CSV: one row per frame of YF_{d,n}, one column per grid value.

    Cells are floats by default; with ``exact`` they are "num/den" strings.
    Zero-weight cells are written as 0.0 (or "0/1") so every column has the
    same full frame axis.  The cells are read straight from the push's
    integers (:func:`_channel_fields`): the weight v/D is reduced by
    gcd(v, D), and its float is the correctly rounded int division v / D,
    equal to the float of the reduced ``Fraction``.
    """
    if not grid:
        raise ValueError("q grid must be nonempty")
    grid = [depolarising_weight(q) for q in grid]
    frames, units, columns = _channel_fields(lam, grid, d)
    header = ["frame"] + [f"q={q.numerator}/{q.denominator}" for q in grid]
    lines = [",".join(header)]
    for i, (lam_p, u) in enumerate(zip(frames, units)):
        cells = [f'"{format_frame(lam_p, d)}"']
        for denominator, field in columns:
            v = field[i] * u
            if exact:
                g = math.gcd(v, denominator)
                cells.append(f"{v // g}/{denominator // g}")
            else:
                cells.append(repr(v / denominator))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
