"""Verification suites: exhaustive exact checks of the package's claims.

Five suites, each a list of named checks over a configurable size range:

* ``saturation`` - dimension identities, LR tableau count vs character
  oracle, restriction identity, eigenvalue-inequality necessity and the
  LR-positivity feasibility test.
* ``support``    - the support-window statement: outside the (d-1)*k window
  the dense overlap, the fast-path weight and the branching chains all vanish;
  plus the projector-pair domination inequality (exact PSD test).
* ``oracle``     - the dense path agrees with itself (projector algebra,
  twirl and channel identities) and the fast path reproduces it entry by
  entry as exact rationals.
* ``tail``       - the exponential tail bound dominates every measured
  far-away weight, and the output mode matches between fast path and oracle.
* ``xybound``    - the entropy bound on the extremal dimension products.

Every check is a ``check_*`` function that takes its sizes as arguments.  The
suites run each at its row of :data:`SIZE_TABLE` (the largest n it honours for
each d) clipped to :class:`RunConfig`; the tests call it at their own sizes.
The dense checks of the paper's overlap tr{P_lam' (tr_{[k]} P_lam tensor
pi_{[k]})} (the support window, the route and fast-path equalities and the
output mode) all read it from :func:`dense_twirl_overlaps`, one cached table
per (d, n) of integers: for each k, the literal padded product and the
partial-trace pairing of every pair of frames, and each projector's scale.
The fast path is read as integers too, one push up Young's lattice per source
frame that carries every k (``spectra._twirl_numerators``) or every q
(``channel_output_spectra``) packed into one integer per output frame.  Every
fast-vs-dense equality is decided by cross-multiplication, and a ``Fraction``
is formed only to describe a reported failure.

Reports are deterministic: no timestamps, fixed iteration orders, failures
truncated to the first five, and JSON dumped with sorted keys.  Two runs with
the same configuration produce byte-identical reports.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator

import numpy as np

from . import oracle as orc
from .frames import (
    MAX_BOXES,
    ProbabilityPair,
    YoungFrame,
    depolarising_weight,
    dim_sym,
    dim_unitary,
    enumerate_frames,
    format_frame,
    l1_distance,
    rel_entropy,
    within_entropy_bound,
)
from .horn import HornTriple, basic_horn_holds, branching_disjoint, horn_feasible
from .lr import lr_coefficient, lr_nonzero_pairs, lr_via_characters
from .spectra import (
    _binomial_weights,
    _tail_exponent,
    _twirl_numerators,
    channel_output_spectra,
    paired_block_overlap,
    partial_trace_decomposition,
    twirl_spectrum,
    xy_entropy_bound,
    xy_optimize,
)
from .symmetric_group import Permutation, _unrank_permutation, enumerate_group

MAX_FAILURES_REPORTED = 5

DEFAULT_Q_GRID = tuple(Fraction(i, 10) for i in range(1, 10))

# The size table: each check, keyed by its report name (the first, for a check
# that reports several), maps d to the largest n it honours.  The d <= 3 entries
# are the sizes the checks ran at before d = 4 was served.
# Dense rows stay within oracle.DENSE_SWEEP_N, so inside the dense caps and the
# projector cache; at d = 4 each runs in under 1 s.  The two checks on random
# full matrices stop at (4, 4): at (4, 5) each holds about 150 MB.
DENSE_ROWS = {
    "dense_overlap_zero_outside_window": orc.DENSE_SWEEP_N,
    "projector_pair_domination_psd": {2: 6},
    "projector_algebra": orc.DENSE_SWEEP_N,
    "permutation_representation": {2: 6},  # random pairs of S_n; all of S_3 at every d
    "projector_commutes_with_permutations": {2: 6, 3: 6, 4: 5},
    "branching_table_matches_dense_partial_trace": {2: 6, 3: 5, 4: 5},
    "twirl_properties": {2: 6, 3: 4, 4: 4},
    "twirl_pair_expansion": {2: 5, 3: 4, 4: 5},
    "depolarise_channel_identities": {2: 5, 3: 3, 4: 4},
    "padded_product_equals_partial_trace_pairing": orc.DENSE_SWEEP_N,
    "output_mode_matches_oracle": {2: 8},
}
# LR and chain rows: the cost of enumerating every triple.
COMBINATORIAL_ROWS = {
    # These two run at d = d_max alone: its triples contain every triple of a smaller d.
    "lr_tableaux_vs_characters": {2: 10, 3: 10, 4: 10},
    "horn_necessity_of_basic_inequalities": {2: 10, 3: 10, 4: 10},
    # Runs to min(n_max + 4, 10): two-row triples are few enough to go past the cap.
    "lr_two_row_multiplicity_free": {2: 10},
    "branching_chains_disjoint_outside_window": {2: 7, 3: 7, 4: 7},
    "xy_extrema_within_entropy_bound": {2: 10},
    "xy_empty_iff_chains_disjoint": {2: 8},
}
# Fast-path rows: frames.MAX_BOXES, never above 64.
_FAST = {d: min(MAX_BOXES[d], 64) for d in (2, 3, 4)}
FAST_ROWS = {
    "schur_weyl_dimension_identity": _FAST,
    "engine_weight_zero_outside_window": _FAST,
    "tail_bound_dominates_measured_weight": {2: _FAST[2]},
}
SIZE_TABLE = {**DENSE_ROWS, **COMBINATORIAL_ROWS, **FAST_ROWS}


@dataclass(frozen=True)
class RunConfig:
    """Size and determinism knobs for the verification suites."""

    d_max: int = 3
    n_max: int = 6
    q_grid: tuple[Fraction, ...] = DEFAULT_Q_GRID
    seed: int = 0

    def __post_init__(self) -> None:
        d_top = max(d for row in SIZE_TABLE.values() for d in row)
        n_top = max(n for row in SIZE_TABLE.values() for n in row.values())
        if not 2 <= self.d_max <= d_top:
            raise ValueError(f"d_max must lie in 2..{d_top}")
        if not 1 <= self.n_max <= n_top:
            raise ValueError(f"n_max must lie in 1..{n_top}")
        if not self.q_grid:
            raise ValueError("q grid must be nonempty")
        object.__setattr__(self, "q_grid", tuple(map(depolarising_weight, self.q_grid)))

    def sizes(self, check: str) -> dict[int, int]:
        """The table row of ``check`` clipped to this run: d -> min(n, n_max) for each d <= d_max."""
        return {d: min(n, self.n_max) for d, n in SIZE_TABLE[check].items() if d <= self.d_max}

    def to_json_obj(self) -> dict:
        return {
            "d_max": self.d_max,
            "n_max": self.n_max,
            "q_grid": [f"{q.numerator}/{q.denominator}" for q in self.q_grid],
            "seed": self.seed,
        }


@dataclass
class CheckResult:
    name: str
    passed: bool
    checked: int
    failures: list[str] = field(default_factory=list)
    info: dict = field(default_factory=dict)

    def to_json_obj(self) -> dict:
        obj = {"name": self.name, "passed": self.passed, "checked": self.checked,
               "failures": self.failures}
        if self.info:
            obj["info"] = self.info
        return obj


@dataclass
class SuiteReport:
    suite: str
    config: RunConfig
    checks: list[CheckResult]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> str:
        obj = {
            "suite": self.suite,
            "config": self.config.to_json_obj(),
            "checks": [c.to_json_obj() for c in self.checks],
            "passed": self.passed,
        }
        return json.dumps(obj, indent=2, sort_keys=True) + "\n"


class _Collector:
    """Accumulates pass/fail instances for one named check."""

    def __init__(self, name: str):
        self.name = name
        self.checked = 0
        self.failed = 0
        self.failures: list[str] = []
        self.info: dict = {}

    def record(self, ok: bool, template: str, *args) -> None:
        """Count one instance; a failure is described as ``template.format(*args)``.

        The description is formatted only for a reported failure, so a sweep
        of passing instances does no string work.
        """
        self.checked += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < MAX_FAILURES_REPORTED:
                self.failures.append(template.format(*args))

    def expect_equal(self, a, b, template: str, *args) -> None:
        self.record(a == b, template + ": {} != {}", *args, a, b)

    def result(self) -> CheckResult:
        return CheckResult(self.name, not self.failures, self.checked, self.failures, self.info)


class _Ratio:
    """An exact rational kept as two ints, the denominator positive.

    Equality with another ratio or a ``Fraction`` is decided by
    cross-multiplication; a ``Fraction`` is built only when the ratio is
    formatted into a reported failure, and renders as it does.
    """

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: int, denominator: int):
        self.numerator, self.denominator = numerator, denominator

    def __eq__(self, other) -> bool:
        return self.numerator * other.denominator == other.numerator * self.denominator

    def fraction(self) -> Fraction:
        return Fraction(self.numerator, self.denominator)

    def __format__(self, spec: str) -> str:
        return format(self.fraction(), spec)


def _each_size(sizes: Iterable[tuple[int, int]], first: int = 1) -> list[tuple[int, int]]:
    """Every (d, n) with first <= n <= n_max, for each (d, n_max) in ``sizes``, in that order."""
    return [(d, n) for d, n_max in sizes for n in range(first, n_max + 1)]


def _window_starts(lam: YoungFrame, frames: Iterable[YoungFrame], d: int) -> list[int]:
    """For each lam' of ``frames``, the least k whose (d-1)k window holds lam and lam'.

    That is ceil(max_m |lam_m - lam'_m| / (d-1)) (d >= 2): the window only
    grows with k, so lam' lies outside it exactly for the k below that start.
    """
    a = lam.padded(d)
    gaps = (max(abs(x - y) for x, y in zip(a, lam_p.padded(d))) for lam_p in frames)
    return [-(-gap // (d - 1)) for gap in gaps]


def _random_int_matrix(rng: random.Random, dim: int, lo: int = -5, hi: int = 5) -> np.ndarray:
    return np.array([[rng.randint(lo, hi) for _ in range(dim)] for _ in range(dim)], dtype=object)


def _random_operator(rng: random.Random, d: int, n: int) -> orc.TensorOperator:
    return orc.TensorOperator(d, n, Fraction(1, rng.randint(1, 9)), _random_int_matrix(rng, d**n))


def _random_psd_operator(rng: random.Random, d: int, n: int) -> orc.TensorOperator:
    r = _random_int_matrix(rng, d**n, -3, 3)
    return orc.TensorOperator(d, n, Fraction(1, rng.randint(1, 9)), r.T @ r)


# ---------------------------------------------------------------------------
# saturation: dimensions, LR cross-validation, eigenvalue-sum inequalities
# ---------------------------------------------------------------------------


def _lr_triples(d: int, n_max: int):
    """Every (lam, mu, nu) with lam in YF_{d,n} for n <= n_max and |mu| + |nu| = n.

    Ordered by n, lam, |mu|, mu, nu: the order every LR sweep reports in.
    """
    for n in range(0, n_max + 1):
        for lam in enumerate_frames(d, n):
            for l in range(0, n + 1):
                for mu in enumerate_frames(d, l):
                    for nu in enumerate_frames(d, n - l):
                        yield lam, mu, nu


def check_dimension_identity(sizes: Iterable[tuple[int, int]]) -> CheckResult:
    """sum over lam of dim F_lam dim U_lam = d**n for each (d, n_max) and n <= n_max."""
    dims = _Collector("schur_weyl_dimension_identity")
    for d, n in _each_size(sizes, 0):
        total = sum(dim_sym(f) * dim_unitary(f, d) for f in enumerate_frames(d, n))
        dims.expect_equal(total, d**n, "d={} n={}", d, n)
    return dims.result()


def check_lr_coefficients(d: int, n_max: int) -> list[CheckResult]:
    """Tableau count = character oracle, the restriction identity and c^lam_{mu nu} = c^lam_{nu mu}."""
    cross = _Collector("lr_tableaux_vs_characters")
    restrict = _Collector("lr_restriction_dimension_identity")
    symmetry = _Collector("lr_symmetry")
    totals: dict[tuple[YoungFrame, int], int] = {}
    for lam, mu, nu in _lr_triples(d, n_max):
        c = lr_coefficient(lam, mu, nu)
        cross.expect_equal(c, lr_via_characters(lam, mu, nu), "c^{}_{},{}", lam, mu, nu)
        symmetry.expect_equal(c, lr_coefficient(lam, nu, mu), "symmetry {}|{},{}", lam, mu, nu)
        totals[(lam, mu.n)] = totals.get((lam, mu.n), 0) + c * dim_sym(mu) * dim_sym(nu)
    for (lam, l), total in totals.items():
        restrict.expect_equal(total, dim_sym(lam), "restriction {} split {}+{}", lam, l, lam.n - l)
    return [cross.result(), restrict.result(), symmetry.result()]


def check_horn_inequalities(d: int, n_max: int) -> list[CheckResult]:
    """The basic inequalities are necessary, and feasibility is LR positivity."""
    necessity = _Collector("horn_necessity_of_basic_inequalities")
    feasibility = _Collector("horn_feasible_iff_lr_positive")
    for lam, mu, nu in _lr_triples(d, n_max):
        c = lr_coefficient(lam, mu, nu)
        triple = HornTriple(lam, mu, nu, d)
        feasible = horn_feasible(triple)
        feasibility.expect_equal(feasible, c > 0, "feasibility {}|{},{}", lam, mu, nu)
        if c > 0:
            necessity.record(
                basic_horn_holds(triple), "c>0 but basic inequalities fail: {}|{},{}", lam, mu, nu
            )
        elif not basic_horn_holds(triple):
            necessity.record(not feasible, "basic false but feasible: {}|{},{}", lam, mu, nu)
    return [necessity.result(), feasibility.result()]


def check_two_row_multiplicity_free(n_max: int) -> CheckResult:
    """c^lam_{mu nu} is 0 or 1 for every two-row triple with n <= n_max."""
    tworow = _Collector("lr_two_row_multiplicity_free")
    for lam, mu, nu in _lr_triples(2, n_max):
        c = lr_coefficient(lam, mu, nu)
        tworow.record(c in (0, 1), "c^{}_{},{} = {}", lam, mu, nu, c)
    return tworow.result()


def check_entropy_bounds(pinsker_grid: tuple[Fraction, ...], k_max: int) -> CheckResult:
    """Pinsker on all pairs of ``pinsker_grid``; dim F_gamma <= 2**(k h(gamma_1/k)) for two-row k <= k_max."""
    entropy = _Collector("pinsker_and_dimension_entropy_bound")
    for r0 in pinsker_grid:
        for s0 in pinsker_grid:
            r, s = ProbabilityPair(r0), ProbabilityPair(s0)
            dv = rel_entropy(r, s)
            lhs = l1_distance(r, s) ** 2 / (2 * math.log(2))
            entropy.record(dv >= lhs - 1e-12, "Pinsker fails at r0={} s0={}", r0, s0)
    for k in range(1, k_max + 1):
        for gamma in enumerate_frames(2, k):
            entropy.record(
                within_entropy_bound(dim_sym(gamma), gamma.row(0), k), "dim bound fails at {} k={}", gamma, k
            )
    return entropy.result()


def suite_saturation(cfg: RunConfig) -> list[CheckResult]:
    d = cfg.d_max
    return [
        check_dimension_identity(cfg.sizes("schur_weyl_dimension_identity").items()),
        *check_lr_coefficients(d, cfg.sizes("lr_tableaux_vs_characters")[d]),
        *check_horn_inequalities(d, cfg.sizes("horn_necessity_of_basic_inequalities")[d]),
        check_two_row_multiplicity_free(min(cfg.n_max + 4, SIZE_TABLE["lr_two_row_multiplicity_free"][2])),
        check_entropy_bounds(tuple(Fraction(i, 8) for i in range(0, 9)), 12),
    ]


# ---------------------------------------------------------------------------
# support: zero weight outside the (d-1)*k window
# ---------------------------------------------------------------------------


def dense_reductions(proj: orc.TensorOperator) -> Iterator[orc.TensorOperator]:
    """tr over the last k sites of ``proj`` for k = 0..n, each traced from the previous and then dropped."""
    reduced = proj
    yield reduced
    for k in range(1, proj.n + 1):
        reduced = reduced.partial_trace([proj.n - k])
        yield reduced


@dataclass(frozen=True)
class DenseOverlaps:
    """The dense overlaps of every (lam, k, lam') of YF_{d,n}, as integer pairings.

    The overlap of (frames[i], k, frames[j]) is s_i s_j / d^k times
    ``literal[k][i][j]`` and times ``paired[k][i][j]``, s_i the scale of the
    projector of frames[i] (``scales[i]``).  ``literal`` pairs P_lam' with
    the padded product tr_{[k]} P_lam tensor 1_{[k]}, ``paired`` pairs the
    two partial traces tr_B(P_lam') and tr_B(P_lam) (adjointness of the
    partial trace): two routes to the same number.
    """

    d: int
    n: int
    frames: tuple[YoungFrame, ...]
    scales: tuple[Fraction, ...]
    literal: tuple[tuple[tuple[int, ...], ...], ...]
    paired: tuple[tuple[tuple[int, ...], ...], ...]

    def scale(self, i: int, j: int, k: int) -> _Ratio:
        """s_i s_j / d^k, the factor turning the pairings of (frames[i], k, frames[j]) into overlaps."""
        s, t = self.scales[i], self.scales[j]
        return _Ratio(s.numerator * t.numerator, s.denominator * t.denominator * self.d**k)

    def overlaps(self, i: int, k: int, j: int) -> tuple[_Ratio, _Ratio]:
        """The overlap of (frames[i], k, frames[j]) by the literal product and by the partial-trace pairing."""
        scale = self.scale(i, j, k)
        return (_Ratio(scale.numerator * self.literal[k][i][j], scale.denominator),
                _Ratio(scale.numerator * self.paired[k][i][j], scale.denominator))


@lru_cache(maxsize=sum(n + 1 for n in orc.DENSE_SWEEP_N.values()))
def dense_twirl_overlaps(d: int, n: int) -> DenseOverlaps:
    """The dense overlap tr{P_lam' (tr_{[k]} P_lam tensor pi_{[k]})} of every (lam, k, lam') of YF_{d,n}.

    Each overlap is held as two integer pairings, the literal padded product
    and the partial-trace pairing, with the scales that turn them into the
    exact number (:class:`DenseOverlaps`).  Every dense check reads this one
    table, built once per (d, n) and cached like the projector families; the
    sizes are those :func:`oracle.isotypical_projectors` accepts.  The table
    is built one k at a time: the reductions of all frames advance together
    (:func:`dense_reductions`), so only one level of them is alive.  Each
    padded product is paired with the whole family at once, and each partial
    trace with the partial traces of the frames from its own on:
    tr(AB) = tr(BA).
    """
    family = orc.isotypical_projectors(d, n)
    projectors = list(family.values())
    literal, paired = [], []
    for k, level in enumerate(zip(*map(dense_reductions, projectors))):
        literal.append(tuple(
            tuple(orc.tensor_with_maximally_mixed(reduced, k).pairings(projectors)) for reduced in level
        ))
        upper = [reduced.pairings(level[i:]) for i, reduced in enumerate(level)]
        paired.append(tuple(
            tuple(upper[min(i, j)][abs(j - i)] for j in range(len(level))) for i in range(len(level))
        ))
    return DenseOverlaps(d, n, tuple(family), tuple(p.scale for p in projectors), tuple(literal), tuple(paired))


def check_dense_overlap_outside_window(sizes: Iterable[tuple[int, int]]) -> CheckResult:
    """tr{P_lam' (tr_{[k]} P_lam tensor pi_{[k]})} = 0 outside the window, for each (d, n_max)."""
    dense = _Collector("dense_overlap_zero_outside_window")
    for d, n in _each_size(sizes):
        table = dense_twirl_overlaps(d, n)
        for i, lam in enumerate(table.frames):
            starts = _window_starts(lam, table.frames, d)
            for k in range(n + 1):
                for j, lam_p in enumerate(table.frames):
                    if k < starts[j]:
                        literal, _ = table.overlaps(i, k, j)
                        dense.record(
                            literal.numerator == 0, "d={} lam={} lam'={} k={}: overlap {} != 0",
                            d, lam, lam_p, k, literal,
                        )
    dense.info["outside_window_cases"] = dense.checked
    return dense.result()


def check_projector_domination(n_max: int) -> CheckResult:
    """sum of P_mu tensor P_nu over c^lam_{mu nu} > 0 dominates P_lam (d = 2, n <= n_max)."""
    psd = _Collector("projector_pair_domination_psd")
    for n in range(1, n_max + 1):
        family = orc.isotypical_projectors(2, n)
        small = {m: orc.isotypical_projectors(2, m) for m in range(0, n + 1)}
        for lam in enumerate_frames(2, n):
            for l in range(0, n + 1):
                k = n - l
                dominating = orc.TensorOperator.zero(2, n)
                for mu, nu in lr_nonzero_pairs(lam, l, k, 2):
                    dominating = dominating + small[l][mu].kron(small[k][nu])
                diff = dominating - family[lam]
                psd.record(
                    orc.is_positive_semidefinite(diff),
                    "lam={} split {}+{}: domination difference not PSD", lam, l, k,
                )
    return psd.result()


def check_chains_disjoint_outside_window(sizes: Iterable[tuple[int, int]]) -> CheckResult:
    """No branching chain joins lam to lam' outside the window, for each (d, n_max)."""
    chains = _Collector("branching_chains_disjoint_outside_window")
    for d, n in _each_size(sizes):
        frames = enumerate_frames(d, n)
        for lam in frames:
            for lam_p, start in zip(frames, _window_starts(lam, frames, d)):
                for k in range(start):
                    chains.record(
                        branching_disjoint(lam, lam_p, n - k, k, d),
                        "d={} lam={} lam'={} k={}: common chain exists", d, lam, lam_p, k,
                    )
    return chains.result()


def check_twirl_support(sizes: Iterable[tuple[int, int]]) -> list[CheckResult]:
    """The fast-path weight is zero outside the window, and a report of support growth in k, per (d, n_max).

    Both read the same twirl spectra, computed once.  Support growth across k
    is an empirical observation, not a proven statement: violations are
    counted and reported, never asserted.
    """
    engine = _Collector("engine_weight_zero_outside_window")
    dropped = _Collector("support_growth_monotone_report")  # its failures are reported, not asserted
    for d, n in _each_size(sizes):
        frames = enumerate_frames(d, n)
        indices = range(len(frames))
        for lam in frames:
            prev: set | None = None
            starts = _window_starts(lam, frames, d)
            # the weight of lam' is its numerator times the positive dim U_lam / D
            for k, (_, numerators) in enumerate(_twirl_numerators(lam, d, range(n + 1))):
                for lam_p, num, start in zip(frames, numerators, starts):
                    if k < start:
                        engine.record(num == 0, "d={} lam={} lam'={} k={}: engine weight nonzero", d, lam, lam_p, k)
                supp = set(itertools.compress(indices, numerators))  # ints hash far faster than YoungFrames
                if prev is not None:
                    missing = len(prev - supp)
                    dropped.record(not missing, "d={} lam={} k={}: {} frames dropped", d, lam, k, missing)
                prev = supp
    info = {"violations": dropped.failures, "violation_count": dropped.failed}
    return [engine.result(), CheckResult(dropped.name, True, dropped.checked, [], info)]


def suite_support(cfg: RunConfig) -> list[CheckResult]:
    dense = check_dense_overlap_outside_window(cfg.sizes("dense_overlap_zero_outside_window").items())
    engine, growth = check_twirl_support(cfg.sizes("engine_weight_zero_outside_window").items())
    return [
        dense,
        engine,
        check_chains_disjoint_outside_window(cfg.sizes("branching_chains_disjoint_outside_window").items()),
        growth,
        check_projector_domination(cfg.sizes("projector_pair_domination_psd")[2]),
    ]


# ---------------------------------------------------------------------------
# oracle: dense self-consistency and fast path equality
# ---------------------------------------------------------------------------


def _channel_weights(table: DenseOverlaps, i: int, q: Fraction) -> list[_Ratio]:
    """Dense weight of every frame in the depolarised flat state pi_lam, lam = frames[i].

    The pairings are mixed binomially over k and divided by the trace
    f_lam dim U_lam of P_lam: with the scales s_i s_j / d^k of the table and
    q = a/b, the weight of frames[j] is s_i s_j S_j / (f_lam dim U_lam b^n d^n),
    S_j the sum over k of C(n,k) a^k (b-a)^(n-k) d^(n-k) paired[k][i][j].
    """
    d, n, lam = table.d, table.n, table.frames[i]
    mixed = [w * d ** (n - k) for k, w in enumerate(_binomial_weights(n, q))]
    norm = dim_sym(lam) * dim_unitary(lam, d) * q.denominator**n
    out = []
    for j in range(len(table.frames)):
        scale = table.scale(i, j, n)
        total = sum(w * paired[i][j] for w, paired in zip(mixed, table.paired))
        out.append(_Ratio(scale.numerator * total, scale.denominator * norm))
    return out


def check_fast_path_against_oracle(
    sizes: Iterable[tuple[int, int]], q_values: tuple[Fraction, ...]
) -> list[CheckResult]:
    """Twirl and channel spectra of the fast path equal the dense oracle, for each (d, n_max).

    The fast path gives integer numerators (one push per frame for every k) and
    the public normalized twirl and channel spectra; the dense side is the
    integer table of :func:`dense_twirl_overlaps`.  Each equality is decided
    by cross-multiplication.
    """
    route = _Collector("padded_product_equals_partial_trace_pairing")
    fast_twirl = _Collector("fast_path_equals_oracle_twirl_spectra")
    fast_channel = _Collector("fast_path_equals_oracle_channel_spectra")
    for d, n in _each_size(sizes):
        dense = dense_twirl_overlaps(d, n)
        frames = dense.frames
        for i, lam in enumerate(frames):
            unit = dim_unitary(lam, d)
            norm = dim_sym(lam) * unit
            for k, (den, numerators) in enumerate(_twirl_numerators(lam, d, range(n + 1))):
                table_norm = twirl_spectrum(lam, k, d)
                for j, lam_p in enumerate(frames):
                    literal, paired = dense.overlaps(i, k, j)
                    route.expect_equal(literal, paired, "d={} lam={} k={} lam'={}", d, lam, k, lam_p)
                    fast_twirl.expect_equal(
                        _Ratio(numerators[j] * unit, den), paired, "d={} lam={} k={} lam'={}", d, lam, k, lam_p
                    )
                    fast_twirl.expect_equal(
                        table_norm.weight(lam_p),
                        _Ratio(paired.numerator, paired.denominator * norm),
                        "normalized d={} lam={} k={} lam'={}", d, lam, k, lam_p,
                    )
            for q, table in zip(q_values, channel_output_spectra(lam, q_values, d)):
                fast_channel.expect_equal(table.total(), Fraction(1), "total d={} {} q={}", d, lam, q)
                for lam_p, weight in zip(frames, _channel_weights(dense, i, q)):
                    fast_channel.expect_equal(
                        table.weight(lam_p), weight, "d={} lam={} q={} lam'={}", d, lam, q, lam_p
                    )
    return [route.result(), fast_twirl.result(), fast_channel.result()]


def check_branching_table(sizes: Iterable[tuple[int, int]]) -> CheckResult:
    """tr over the last k sites of P_lam equals its branching table's projector sum, for each (d, n_max)."""
    branching = _Collector("branching_table_matches_dense_partial_trace")
    for d, n in _each_size(sizes):
        family = orc.isotypical_projectors(d, n)
        small = {m: orc.isotypical_projectors(d, m) for m in range(0, n + 1)}
        for lam in enumerate_frames(d, n):
            for k, dense in enumerate(dense_reductions(family[lam])):
                table = partial_trace_decomposition(lam, k, d)
                recon = orc.TensorOperator.zero(d, n - k)
                for mu, w in table.projector_weights().items():
                    recon = recon + w * small[n - k][mu]
                branching.record(dense == recon, "d={} lam={} k={}", d, lam, k)
    return branching.result()


def check_projector_algebra(sizes: Iterable[tuple[int, int]]) -> CheckResult:
    """Each P_lam is a symmetric idempotent of trace dim F dim U; the family sums to 1, pairwise orthogonal."""
    algebra = _Collector("projector_algebra")
    for d, n in _each_size(sizes):
        family = orc.isotypical_projectors(d, n)
        total = orc.TensorOperator.zero(d, n)
        frames = list(family)
        for lam in frames:
            p = family[lam]
            total = total + p
            algebra.record(p @ p == p, "d={} n={} {}: not idempotent", d, n, lam)
            algebra.expect_equal(
                p.trace(), dim_sym(lam) * dim_unitary(lam, d), "d={} n={} {}: trace", d, n, lam
            )
            algebra.record(p.is_symmetric(), "d={} n={} {}: not symmetric", d, n, lam)
        algebra.record(
            total == orc.TensorOperator.identity(d, n),
            "d={} n={}: projectors do not sum to identity", d, n,
        )
        # For symmetric idempotents tr(PQ) equals the squared Frobenius
        # norm of PQ, so a zero pairing certifies PQ = 0 exactly.
        for i, lam in enumerate(frames):
            for lam_p in frames[i + 1 :]:
                algebra.expect_equal(
                    family[lam].hs_product(family[lam_p]),
                    Fraction(0),
                    "d={} n={}: {} and {} not orthogonal", d, n, lam, lam_p,
                )
    return algebra.result()


def check_permutation_representation(d_max: int, n: int, rng: random.Random) -> CheckResult:
    """B(s)B(t) = B(st) on all of S_3 for 2 <= d <= d_max, and for six random pairs of S_n at d = 2."""
    rep = _Collector("permutation_representation")
    for d in range(2, d_max + 1):
        for s in enumerate_group(3):
            for t in enumerate_group(3):
                rep.record(
                    orc.perm_operator(s, d) @ orc.perm_operator(t, d) == orc.perm_operator(s * t, d),
                    "d={}: B({})B({}) != B(product)", d, s.images, t.images,
                )
    for _ in range(6):
        imgs = list(range(n))
        rng.shuffle(imgs)
        s = Permutation(tuple(imgs))
        rng.shuffle(imgs)
        t = Permutation(tuple(imgs))
        rep.record(
            orc.perm_operator(s, 2) @ orc.perm_operator(t, 2) == orc.perm_operator(s * t, 2),
            "random pair at n={}", n,
        )
    return rep.result()


def check_projector_commutation(sizes: Iterable[tuple[int, int]], rng: random.Random) -> CheckResult:
    """B(tau) P_lam B(tau)^-1 = P_lam for 2 <= n <= n_max: every tau up to n = 4, eight random ones above."""
    commute = _Collector("projector_commutes_with_permutations")
    for d, n in _each_size(sizes, 2):
        family = orc.isotypical_projectors(d, n)
        if n > 4:
            perms = [_unrank_permutation(n, rng.randrange(math.factorial(n))) for _ in range(8)]
        else:
            perms = list(enumerate_group(n))
        for lam, p in family.items():
            for tau in perms:
                commute.record(
                    orc.conjugate_by_permutation(p, tau) == p,
                    "d={} n={} {}: fails for {}", d, n, lam, tau.images,
                )
    return commute.result()


def check_partial_trace_properties(rng: random.Random) -> CheckResult:
    """Partial traces keep the trace, on random d = 2 operators and on a maximally mixed padding."""
    reduction_checks = _Collector("partial_trace_properties")
    for _ in range(4):
        a = _random_operator(rng, 2, 3)
        reduction_checks.expect_equal(a.partial_trace([0, 2]).trace(), a.trace(), "trace preservation")
        reduction_checks.expect_equal(a.partial_trace([]).trace(), a.trace(), "empty site set")
        full = a.partial_trace(range(3))
        reduction_checks.expect_equal(full.entry(0, 0), a.trace(), "full trace")
    mixed = orc.tensor_with_maximally_mixed(_random_operator(rng, 2, 2), 2)
    reduction_checks.expect_equal(
        mixed.partial_trace([2, 3]).trace(), mixed.trace(), "mixed-padded trace"
    )
    return reduction_checks.result()


def check_twirl_properties(sizes: Iterable[tuple[int, int]], rng: random.Random) -> CheckResult:
    """The twirl keeps the trace and every projector pairing, is idempotent and fixes each P_lam, per (d, n)."""
    twirl_checks = _Collector("twirl_properties")
    for d, n in sizes:
        family = orc.isotypical_projectors(d, n)
        a = _random_operator(rng, d, n)
        tw = orc.twirl(a)
        twirl_checks.expect_equal(tw.trace(), a.trace(), "d={}: twirl trace", d)
        twirl_checks.record(orc.twirl(tw) == tw, "d={}: twirl not idempotent", d)
        for lam, p in family.items():
            twirl_checks.record(orc.twirl(p) == p, "d={} {}: projector not twirl-invariant", d, lam)
            twirl_checks.expect_equal(
                p.hs_product(tw), p.hs_product(a), "d={} {}: overlap changed by twirl", d, lam
            )
    return twirl_checks.result()


def check_twirl_pair_expansion(sizes: Iterable[tuple[int, int]]) -> CheckResult:
    """twirl(P_mu tensor P_gamma) = sum of paired-block weights times P_lam', for 2 <= n <= n_max."""
    pair_expansion = _Collector("twirl_pair_expansion")
    for d, n in _each_size(sizes, 2):
        family = orc.isotypical_projectors(d, n)
        for l in range(0, n + 1):
            k = n - l
            fam_l = orc.isotypical_projectors(d, l)
            fam_k = orc.isotypical_projectors(d, k)
            for mu in enumerate_frames(d, l):
                for gamma in enumerate_frames(d, k):
                    literal = orc.twirl(fam_l[mu].kron(fam_k[gamma]))
                    recon = orc.TensorOperator.zero(d, n)
                    for lam_p in enumerate_frames(d, n):
                        w = paired_block_overlap(lam_p, mu, gamma, d) / dim_unitary(lam_p, d)
                        if w:
                            recon = recon + w * family[lam_p]
                    pair_expansion.record(
                        literal == recon, "d={} mu={} gamma={} (n={})", d, mu, gamma, n
                    )
    return pair_expansion.result()


def check_channel_identities(sizes: Iterable[tuple[int, int]], rng: random.Random) -> CheckResult:
    """The channel at q = 0, 1 and on traces, PSD inputs and projectors (binomial twirl sum), per (d, n)."""
    channel = _Collector("depolarise_channel_identities")
    for d, n in sizes:
        a = _random_operator(rng, d, n)
        channel.record(orc.depolarise_n(a, 0) == a, "d={}: q=0 not identity", d)
        channel.record(
            orc.depolarise_n(a, 1) == a.trace() * orc.TensorOperator.maximally_mixed(d, n),
            "d={}: q=1 not fully mixing", d,
        )
        for q in (Fraction(1, 3), Fraction(1, 2)):
            out = orc.depolarise_n(a, q)
            channel.expect_equal(out.trace(), a.trace(), "d={} q={}: trace not preserved", d, q)
        psd_in = _random_psd_operator(rng, d, min(n, 3))
        channel.record(
            orc.is_positive_semidefinite(orc.depolarise_n(psd_in, Fraction(2, 5))),
            "d={}: PSD input mapped outside PSD cone", d,
        )
        for lam, p in orc.isotypical_projectors(d, n).items():
            reductions = list(dense_reductions(p))
            for q in (Fraction(1, 4), Fraction(2, 3)):
                literal = orc.depolarise_n(p, q)
                recon = orc.TensorOperator.zero(d, n)
                weights = _binomial_weights(n, q)
                for k, reduced in enumerate(reductions):
                    weight = Fraction(weights[k], q.denominator**n)
                    recon = recon + weight * orc.twirl(orc.tensor_with_maximally_mixed(reduced, k))
                channel.record(
                    literal == recon, "d={} lam={} q={}: channel != binomial twirl sum", d, lam, q
                )
    return channel.result()


def suite_oracle(cfg: RunConfig) -> list[CheckResult]:
    # One generator feeds the sampled checks in report order, so every draw is fixed by the seed.
    rng = random.Random(cfg.seed)
    q_values = (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1))
    return [
        check_projector_algebra(cfg.sizes("projector_algebra").items()),
        check_permutation_representation(cfg.d_max, cfg.sizes("permutation_representation")[2], rng),
        check_projector_commutation(cfg.sizes("projector_commutes_with_permutations").items(), rng),
        check_partial_trace_properties(rng),
        check_branching_table(cfg.sizes("branching_table_matches_dense_partial_trace").items()),
        check_twirl_properties(cfg.sizes("twirl_properties").items(), rng),
        check_twirl_pair_expansion(cfg.sizes("twirl_pair_expansion").items()),
        check_channel_identities(cfg.sizes("depolarise_channel_identities").items(), rng),
        *check_fast_path_against_oracle(
            cfg.sizes("padded_product_equals_partial_trace_pairing").items(), q_values
        ),
    ]


# ---------------------------------------------------------------------------
# tail: exponential bound and output concentration
# ---------------------------------------------------------------------------


def check_tail_bound(n_max: int, q_grid: tuple[Fraction, ...]) -> CheckResult:
    """The exponential bound dominates every far-away weight (d = 2, 2 <= n <= n_max)."""
    bound_check = _Collector("tail_bound_dominates_measured_weight")
    for n in range(2, n_max + 1):
        frames = enumerate_frames(2, n)
        spectra = {lam: channel_output_spectra(lam, q_grid, 2) for lam in frames}
        ratios = [Fraction(gap, n) for gap in range(n + 1)]
        for i, q in enumerate(q_grid):
            for lam in frames:
                for lam_p in frames:
                    # the bound's regime |lam_1 - lam'_1| / n > q, decided on integers
                    gap = abs(lam.row(0) - lam_p.row(0))
                    if gap * q.denominator <= q.numerator * n:
                        continue
                    measured = spectra[lam][i].weight(lam_p)
                    exponent = _tail_exponent(ratios[gap], q, n)
                    ok = measured == 0 or (
                        math.log2(measured.numerator) - math.log2(measured.denominator) <= exponent + 1e-12
                    )
                    bound_check.record(
                        ok,
                        "n={} q={} lam={} lam'={}: {} > 2**{}", n, q, lam, lam_p, float(measured), exponent,
                    )
    return bound_check.result()


def check_output_mode(n: int, q_grid: tuple[Fraction, ...]) -> CheckResult:
    """The most likely output block of pi_(n) is the same on the fast path and the oracle (d = 2)."""
    concentration = _Collector("output_mode_matches_oracle")
    modes = []
    source = YoungFrame((n,))
    frames = enumerate_frames(2, n)
    dense = dense_twirl_overlaps(2, n)
    source_index = dense.frames.index(source)
    for q, table in zip(q_grid, channel_output_spectra(source, q_grid, 2)):
        oracle_weights = [w.fraction() for w in _channel_weights(dense, source_index, q)]
        oracle_mode = frames[max(range(len(frames)), key=lambda j: (oracle_weights[j], -j))]
        engine_mode = table.mode()
        concentration.expect_equal(
            format_frame(engine_mode, 2), format_frame(oracle_mode, 2), "mode at n={} q={}", n, q
        )
        modes.append(
            {
                "q": f"{q.numerator}/{q.denominator}",
                "mode_row1": engine_mode.row(0),
                "half_weight_reference": float(n * q / 2),
                "complement_reference": float(n * (1 - q / 2)),
            }
        )
    concentration.info["n"] = n
    concentration.info["modes"] = modes
    return concentration.result()


def suite_tail(cfg: RunConfig) -> list[CheckResult]:
    return [
        check_tail_bound(cfg.sizes("tail_bound_dominates_measured_weight")[2], cfg.q_grid),
        check_output_mode(cfg.sizes("output_mode_matches_oracle")[2], cfg.q_grid),
    ]


# ---------------------------------------------------------------------------
# xybound: extremal dimension products against the entropy bound
# ---------------------------------------------------------------------------


def check_xy_entropy_bound(n_max: int) -> CheckResult:
    """X <= 2**(k h(lam'_2/k)) for the source (n), and X = 0 beyond the window (n <= n_max)."""
    bound = _Collector("xy_extrema_within_entropy_bound")
    for n in range(1, n_max + 1):
        for lam_p in enumerate_frames(2, n):
            for k in range(0, n + 1):
                chk = xy_entropy_bound(lam_p, k)
                bound.record(
                    chk.holds, "n={} lam'={} k={}: X={} bound={}", n, lam_p, k, chk.x, chk.bound
                )
                if lam_p.row(1) > k:
                    bound.record(chk.x == 0, "n={} lam'={} k={}: X nonzero beyond window", n, lam_p, k)
    return bound.result()


def check_xy_empty_iff_chains_disjoint(n_max: int) -> CheckResult:
    """X = 0 exactly when no branching chain joins lam to lam' (d = 2, n <= n_max)."""
    consistency = _Collector("xy_empty_iff_chains_disjoint")
    for n in range(1, n_max + 1):
        frames = enumerate_frames(2, n)
        for lam in frames:
            for lam_p in frames:
                for k in range(0, n + 1):
                    extrema = xy_optimize(lam, lam_p, n - k, k, 2)
                    disjoint = branching_disjoint(lam, lam_p, n - k, k, 2)
                    consistency.expect_equal(
                        extrema.x == 0, disjoint, "n={} lam={} lam'={} k={}", n, lam, lam_p, k
                    )
    return consistency.result()


def suite_xybound(cfg: RunConfig) -> list[CheckResult]:
    return [
        check_xy_entropy_bound(cfg.sizes("xy_extrema_within_entropy_bound")[2]),
        check_xy_empty_iff_chains_disjoint(cfg.sizes("xy_empty_iff_chains_disjoint")[2]),
    ]


# ---------------------------------------------------------------------------
# suite registry
# ---------------------------------------------------------------------------


SUITES = {
    "saturation": suite_saturation,
    "support": suite_support,
    "oracle": suite_oracle,
    "tail": suite_tail,
    "xybound": suite_xybound,
}


def run_suite(name: str, cfg: RunConfig | None = None) -> SuiteReport:
    """Run one suite (or "all") and return its deterministic report."""
    cfg = cfg or RunConfig()
    if name != "all":
        return SuiteReport(name, cfg, SUITES[name](cfg))  # KeyError for an unknown suite
    checks = []
    for suite_name, fn in SUITES.items():
        for check in fn(cfg):
            check.name = f"{suite_name}/{check.name}"
            checks.append(check)
    return SuiteReport("all", cfg, checks)
