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

Every check is a ``check_*`` function that takes its sizes as arguments.
:data:`CHECKS` declares each report once, with its suite, its size row (the
largest n it honours for each d) and its call; a suite runs its records in
order, each at its row clipped to :class:`RunConfig`.  The tests call the
``check_*`` functions at their own sizes.
The dense checks of the paper's overlap tr{P_lam' (tr_{[k]} P_lam tensor
pi_{[k]})} (the support window, the route and fast-path equalities and the
output mode) all read it from :func:`dense_twirl_overlaps`, one cached table
per (d, n) of integers: for each k, the literal padded product and the
partial-trace pairing of every pair of frames, and each projector's scale as
an integer over n!.  All three routes give their spectra in one form,
``spectra.SpectralTable``, integers over one denominator: the fast path from
one push up Young's lattice per source frame that carries every k
(``twirl_spectra``) or every q (``channel_output_spectra``), the LR route's
projector coefficients from ``partial_trace_decomposition``, the dense side
from :meth:`DenseOverlaps.twirl` and :meth:`DenseOverlaps.channel`.  Every
fast-vs-dense equality is one cross-multiplication of two table entries
(:meth:`CheckResult.expect_same_weight`), both modes come from one
``SpectralTable.mode``, and a ``Fraction`` is formed only to describe a
reported failure.  The random operators of the oracle suite are drawn from
its one seeded generator in the oracle's stored layout (:func:`oracle.random_invariant`).

Each check counts into one :class:`CheckResult`, which passes exactly when it
holds no failure.  Reports are deterministic: no timestamps, fixed iteration
orders and failures truncated to the first five; the CLI dumps
:meth:`SuiteReport.to_json_obj` with sorted keys.  Two runs with the same
configuration produce byte-identical reports.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, partial
from typing import Callable, Iterable, Iterator

from . import oracle as orc
from .frames import (
    MAX_BOXES,
    ProbabilityPair,
    YoungFrame,
    _integers,
    _lattice_level,
    depolarising_weight,
    dim_sym,
    dim_unitary,
    enumerate_frames,
    format_frame,
    integer_text,
    l1_distance,
    rational_text,
    rel_entropy,
    within_entropy_bound,
)
from .horn import HornTriple, _window_starts, basic_horn_holds, branching_disjoint, horn_feasible
from .lr import CHARACTER_ORACLE_CAP, lr_coefficient, lr_nonzero_pairs, lr_via_characters
from .spectra import (
    SpectralTable,
    _tail_exponent,
    channel_output_spectra,
    paired_block_overlap,
    partial_trace_decomposition,
    twirl_spectra,
    twirl_spectrum,
    xy_entropy_bound,
    xy_optimize,
)
from .symmetric_group import Permutation, _unrank_permutation, enumerate_group

MAX_FAILURES_REPORTED = 5

DEFAULT_Q_GRID = tuple(Fraction(i, 10) for i in range(1, 10))

@dataclass(frozen=True)
class RunConfig:
    """Size and determinism knobs for the verification suites.

    The defaults here are the CLI's defaults too; ``d_max``, ``n_max`` and
    ``seed`` are read as ints (:func:`frames._integers`), ``d_max`` must lie
    in :data:`D_MAX_RANGE` and ``n_max`` in :data:`N_MAX_RANGE`.
    """

    d_max: int = 3
    n_max: int = 6
    q_grid: tuple[Fraction, ...] = DEFAULT_Q_GRID
    seed: int = 0

    def __post_init__(self) -> None:
        sizes = _integers((self.d_max, self.n_max, self.seed), "d_max, n_max and seed")
        for name, value, allowed in zip(("d_max", "n_max", "seed"), sizes, (D_MAX_RANGE, N_MAX_RANGE, None)):
            object.__setattr__(self, name, value)
            if allowed and value not in allowed:
                raise ValueError(f"{name} must lie in {allowed[0]}..{allowed[-1]}")
        if not self.q_grid:
            raise ValueError("q grid must be nonempty")
        object.__setattr__(self, "q_grid", tuple(map(depolarising_weight, self.q_grid)))

    def to_json_obj(self) -> dict:
        return {
            "d_max": self.d_max,
            "n_max": self.n_max,
            "q_grid": [rational_text(q) for q in self.q_grid],
            "seed": self.seed,
        }


def _binomial_weights(n: int, q: Fraction) -> list[int]:
    """C(n,k) a^k (b-a)^(n-k) for k = 0..n, q = a/b: b^n times the channel's weight on k mixed sites."""
    a, b = q.numerator, q.denominator
    return [math.comb(n, k) * a**k * (b - a) ** (n - k) for k in range(n + 1)]


def _text(arg):
    """An int or ``Fraction`` as ``str`` writes it, through :func:`frames.integer_text`; other arguments unchanged."""
    if isinstance(arg, Fraction):
        return rational_text(arg) if arg.denominator != 1 else integer_text(arg.numerator)
    return integer_text(arg) if isinstance(arg, int) else arg


@dataclass
class CheckResult:
    """One named check: the instances it counted, how many failed, and the first failures described."""

    name: str
    checked: int = 0
    failures: list[str] = field(default_factory=list)
    info: dict = field(default_factory=dict)
    failed: int = field(default=0, init=False)

    @property
    def passed(self) -> bool:
        return not self.failures

    def record(self, ok: bool, template: str, *args) -> None:
        """Count one instance; a failure is described as ``template.format(*args)``.

        The description is formatted only for a reported failure, so a sweep
        of passing instances does no string work, and ints and ``Fraction``s
        are written past the int-to-str digit limit too (:func:`_text`).
        """
        self.checked += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < MAX_FAILURES_REPORTED:
                self.failures.append(template.format(*map(_text, args)))

    def expect_equal(self, a, b, template: str, *args) -> None:
        self.record(a == b, template + ": {} != {}", *args, a, b)

    def expect_same_weight(self, a: SpectralTable, b: SpectralTable, j: int, template: str, *args) -> None:
        """Entry j of ``a`` equals entry j of ``b``, by one cross-multiplication; ``Fraction``s describe a failure."""
        x, y = a.numerators[j], b.numerators[j]
        if x * b.denominator == y * a.denominator:
            self.checked += 1
        else:
            self.expect_equal(Fraction(x, a.denominator), Fraction(y, b.denominator), template, *args)

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

    def to_json_obj(self) -> dict:
        return {
            "suite": self.suite,
            "config": self.config.to_json_obj(),
            "checks": [c.to_json_obj() for c in self.checks],
            "passed": self.passed,
        }


def _each_size(sizes: Iterable[tuple[int, int]], first: int = 1) -> list[tuple[int, int]]:
    """Every (d, n) with first <= n <= n_max, for each (d, n_max) in ``sizes``, in that order."""
    return [(d, n) for d, n_max in sizes for n in range(first, n_max + 1)]


def _random_operator(rng: random.Random, d: int, n: int, bound: int = 5) -> orc.TensorOperator:
    """1/s times :func:`oracle.random_invariant` with draws in [-bound, bound], s drawn first from 1..9."""
    scale = Fraction(1, rng.randint(1, 9))
    return scale * orc.random_invariant(rng, d, n, -bound, bound)


# ---------------------------------------------------------------------------
# saturation: dimensions, LR cross-validation, eigenvalue-sum inequalities
# ---------------------------------------------------------------------------


def _lr_triples(d: int, n_max: int):
    """Every (lam, mu, nu) with lam in YF_{d,n} for n <= n_max and |mu| + |nu| = n.

    Ordered by n, lam, |mu|, mu, nu: the order every LR sweep reports in.
    """
    for n in range(0, n_max + 1):
        levels = [enumerate_frames(d, m) for m in range(n + 1)]  # each level read once, not once per frame
        for lam in levels[n]:
            for l in range(0, n + 1):
                for mu in levels[l]:
                    for nu in levels[n - l]:
                        yield lam, mu, nu


def check_dimension_identity(sizes: Iterable[tuple[int, int]]) -> CheckResult:
    """sum over lam of dim F_lam dim U_lam = d**n for each (d, n_max) and n <= n_max."""
    dims = CheckResult("schur_weyl_dimension_identity")
    for d, n in _each_size(sizes, 0):
        total = sum(dim_sym(f) * dim_unitary(f, d) for f in enumerate_frames(d, n))
        dims.expect_equal(total, d**n, "d={} n={}", d, n)
    return dims


def check_lr_coefficients(d: int, n_max: int) -> list[CheckResult]:
    """Tableau count = character oracle, the restriction identity and c^lam_{mu nu} = c^lam_{nu mu}."""
    cross = CheckResult("lr_tableaux_vs_characters")
    restrict = CheckResult("lr_restriction_dimension_identity")
    symmetry = CheckResult("lr_symmetry")
    totals: dict[tuple[YoungFrame, int], int] = {}
    for lam, mu, nu in _lr_triples(d, n_max):
        c = lr_coefficient(lam, mu, nu)
        cross.expect_equal(c, lr_via_characters(lam, mu, nu), "c^{}_{},{}", lam, mu, nu)
        symmetry.expect_equal(c, lr_coefficient(lam, nu, mu), "symmetry {}|{},{}", lam, mu, nu)
        totals[(lam, mu.n)] = totals.get((lam, mu.n), 0) + c * dim_sym(mu) * dim_sym(nu)
    for (lam, l), total in totals.items():
        restrict.expect_equal(total, dim_sym(lam), "restriction {} split {}+{}", lam, l, lam.n - l)
    return [cross, restrict, symmetry]


def check_horn_inequalities(d: int, n_max: int) -> list[CheckResult]:
    """The basic inequalities are necessary, and feasibility is LR positivity."""
    necessity = CheckResult("horn_necessity_of_basic_inequalities")
    feasibility = CheckResult("horn_feasible_iff_lr_positive")
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
    return [necessity, feasibility]


def check_two_row_multiplicity_free(n_max: int) -> CheckResult:
    """c^lam_{mu nu} is 0 or 1 for every two-row triple with n <= n_max."""
    tworow = CheckResult("lr_two_row_multiplicity_free")
    for lam, mu, nu in _lr_triples(2, n_max):
        c = lr_coefficient(lam, mu, nu)
        tworow.record(c in (0, 1), "c^{}_{},{} = {}", lam, mu, nu, c)
    return tworow


def check_entropy_bounds(pinsker_grid: tuple[Fraction, ...], k_max: int) -> CheckResult:
    """Pinsker on all pairs of ``pinsker_grid``; dim F_gamma <= 2**(k h(gamma_1/k)) for two-row k <= k_max."""
    entropy = CheckResult("pinsker_and_dimension_entropy_bound")
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
    return entropy


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

    The projector of frames[i] is c_i / n! times integer entries, c_i =
    ``scales[i]``, so the overlap of (frames[i], k, frames[j]) is
    c_i c_j / (n!^2 d^k) times ``literal[k][i][j]`` and times
    ``paired[k][i][j]``: one denominator per k.  ``literal`` pairs P_lam' with
    the padded product tr_{[k]} P_lam tensor 1_{[k]}, ``paired`` pairs the
    two partial traces tr_B(P_lam') and tr_B(P_lam) (adjointness of the
    partial trace): two routes to the same number.
    """

    d: int
    n: int
    frames: tuple[YoungFrame, ...]
    scales: tuple[int, ...]
    literal: tuple[tuple[tuple[int, ...], ...], ...]
    paired: tuple[tuple[tuple[int, ...], ...], ...]

    def _weights(self, i: int, pairings: Iterable[int], k: int, norm: int = 1) -> SpectralTable:
        """c_i c_j x_j / (n!^2 d^k norm) for every frames[j], x = ``pairings``."""
        c = self.scales[i]
        return SpectralTable._of(
            _lattice_level(self.d, self.n), math.factorial(self.n) ** 2 * self.d**k * norm,
            [c * c_j * x for c_j, x in zip(self.scales, pairings)],
        )

    def twirl(self, i: int, k: int) -> tuple[SpectralTable, SpectralTable]:
        """The overlaps of (frames[i], k, lam') for every lam': by the literal product, by the partial-trace pairing."""
        return self._weights(i, self.literal[k][i], k), self._weights(i, self.paired[k][i], k)

    def channel(self, i: int, q: Fraction) -> SpectralTable:
        """Dense weight of every frame in the depolarised flat state pi_lam, lam = frames[i].

        The pairings are mixed binomially over k and divided by the trace
        f_lam dim U_lam of P_lam: with q = a/b, the weight of frames[j] is
        c_i c_j S_j / (n!^2 d^n f_lam dim U_lam b^n), S_j the sum over k of
        C(n,k) a^k (b-a)^(n-k) d^(n-k) paired[k][i][j].
        """
        d, n, lam = self.d, self.n, self.frames[i]
        mixed = [w * d ** (n - k) for k, w in enumerate(_binomial_weights(n, q))]
        rows = [paired[i] for paired in self.paired]
        sums = [sum(w * x for w, x in zip(mixed, column)) for column in zip(*rows)]
        return self._weights(i, sums, n, dim_sym(lam) * dim_unitary(lam, d) * q.denominator**n)


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
    # each projector is written at the common scale n! (oracle._projector_family)
    scales = [p.scale * math.factorial(n) for p in projectors]
    assert all(c.denominator == 1 for c in scales)
    return DenseOverlaps(d, n, tuple(family), tuple(c.numerator for c in scales), tuple(literal), tuple(paired))


def check_dense_overlap_outside_window(sizes: Iterable[tuple[int, int]]) -> CheckResult:
    """tr{P_lam' (tr_{[k]} P_lam tensor pi_{[k]})} = 0 outside the window, for each (d, n_max)."""
    dense = CheckResult("dense_overlap_zero_outside_window")
    for d, n in _each_size(sizes):
        table = dense_twirl_overlaps(d, n)
        for i, lam in enumerate(table.frames):
            starts = _window_starts(lam, table.frames, d)
            for k in range(n + 1):
                literal, _ = table.twirl(i, k)
                for j, lam_p in enumerate(table.frames):
                    if k < starts[j]:
                        v = literal.numerators[j]
                        # the weight is read only for a failure
                        dense.record(
                            not v, "d={} lam={} lam'={} k={}: overlap {} != 0",
                            d, lam, lam_p, k, v and literal.weight(lam_p),
                        )
    dense.info["outside_window_cases"] = dense.checked
    return dense


def check_projector_domination(n_max: int) -> CheckResult:
    """sum of P_mu tensor P_nu over c^lam_{mu nu} > 0 dominates P_lam (d = 2, n <= n_max)."""
    psd = CheckResult("projector_pair_domination_psd")
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
    return psd


def check_chains_disjoint_outside_window(sizes: Iterable[tuple[int, int]]) -> CheckResult:
    """No branching chain joins lam to lam' outside the window, for each (d, n_max)."""
    chains = CheckResult("branching_chains_disjoint_outside_window")
    for d, n in _each_size(sizes):
        frames = enumerate_frames(d, n)
        for lam in frames:
            for lam_p, start in zip(frames, _window_starts(lam, frames, d)):
                for k in range(start):
                    chains.record(
                        branching_disjoint(lam, lam_p, n - k, k, d),
                        "d={} lam={} lam'={} k={}: common chain exists", d, lam, lam_p, k,
                    )
    return chains


def check_twirl_support(sizes: Iterable[tuple[int, int]]) -> list[CheckResult]:
    """The fast-path weight is zero outside the window, and a report of support growth in k, per (d, n_max).

    Both read the same twirl spectra, computed once.  Support growth across k
    is an empirical observation, not a proven statement: violations are
    counted and reported, never asserted.
    """
    engine = CheckResult("engine_weight_zero_outside_window")
    growth = CheckResult("support_growth_monotone_report")
    for d, n in _each_size(sizes):
        frames = enumerate_frames(d, n)
        for lam in frames:
            starts = _window_starts(lam, frames, d)
            for k, numerators in enumerate(t.numerators for t in twirl_spectra(lam, range(n + 1), d)):
                for lam_p, num, start in zip(frames, numerators, starts):
                    if k < start:
                        engine.record(num == 0, "d={} lam={} lam'={} k={}: engine weight nonzero", d, lam, lam_p, k)
                if k:  # a frame is dropped when its weight is nonzero at k - 1 and zero at k
                    dropped = sum(1 for was, now in zip(previous, numerators) if was and not now)
                    growth.record(not dropped, "d={} lam={} k={}: {} frames dropped", d, lam, k, dropped)
                previous = numerators
    # reported, not asserted: the failures move into info and the record passes
    growth.info = {"violations": growth.failures, "violation_count": growth.failed}
    growth.failures = []
    return [engine, growth]


# ---------------------------------------------------------------------------
# oracle: dense self-consistency and fast path equality
# ---------------------------------------------------------------------------


def check_fast_path_against_oracle(
    sizes: Iterable[tuple[int, int]], q_values: tuple[Fraction, ...]
) -> list[CheckResult]:
    """Twirl and channel spectra of the fast path equal the dense oracle, for each (d, n_max).

    The fast path gives the twirl spectra of every k from one push per frame,
    the public normalized twirl spectra and the channel spectra; the dense
    side gives the same tables from :func:`dense_twirl_overlaps`.  Each
    equality is one cross-multiplication of two table entries.
    """
    route = CheckResult("padded_product_equals_partial_trace_pairing")
    fast_twirl = CheckResult("fast_path_equals_oracle_twirl_spectra")
    fast_channel = CheckResult("fast_path_equals_oracle_channel_spectra")
    for d, n in _each_size(sizes):
        dense = dense_twirl_overlaps(d, n)
        frames = dense.frames
        for i, lam in enumerate(frames):
            norm = dim_sym(lam) * dim_unitary(lam, d)
            for k, fast in enumerate(twirl_spectra(lam, range(n + 1), d)):
                fast_norm = twirl_spectrum(lam, k, d)
                literal, paired = dense.twirl(i, k)
                paired_norm = SpectralTable._of(paired._level, paired.denominator * norm, paired.numerators)
                for j, lam_p in enumerate(frames):
                    route.expect_same_weight(literal, paired, j, "d={} lam={} k={} lam'={}", d, lam, k, lam_p)
                    fast_twirl.expect_same_weight(fast, paired, j, "d={} lam={} k={} lam'={}", d, lam, k, lam_p)
                    fast_twirl.expect_same_weight(
                        fast_norm, paired_norm, j, "normalized d={} lam={} k={} lam'={}", d, lam, k, lam_p
                    )
            for q, table in zip(q_values, channel_output_spectra(lam, q_values, d)):
                fast_channel.expect_equal(table.total(), Fraction(1), "total d={} {} q={}", d, lam, q)
                oracle = dense.channel(i, q)
                for j, lam_p in enumerate(frames):
                    fast_channel.expect_same_weight(table, oracle, j, "d={} lam={} q={} lam'={}", d, lam, q, lam_p)
    return [route, fast_twirl, fast_channel]


def check_branching_table(sizes: Iterable[tuple[int, int]]) -> CheckResult:
    """tr over the last k sites of P_lam equals the projector sum of its LR table, for each (d, n_max)."""
    branching = CheckResult("branching_table_matches_dense_partial_trace")
    for d, n in _each_size(sizes):
        family = orc.isotypical_projectors(d, n)
        small = {m: orc.isotypical_projectors(d, m) for m in range(0, n + 1)}
        for lam in enumerate_frames(d, n):
            for k, dense in enumerate(dense_reductions(family[lam])):
                recon = orc.TensorOperator.zero(d, n - k)
                for mu, w in partial_trace_decomposition(lam, k, d):
                    recon = recon + w * small[n - k][mu]
                branching.record(dense == recon, "d={} lam={} k={}", d, lam, k)
    return branching


def check_projector_algebra(sizes: Iterable[tuple[int, int]]) -> CheckResult:
    """Each P_lam is a symmetric idempotent of trace dim F dim U; the family sums to 1, pairwise orthogonal."""
    algebra = CheckResult("projector_algebra")
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
    return algebra


def check_permutation_representation(d_max: int, n: int, rng: random.Random) -> CheckResult:
    """B(s)B(t) = B(st) on all of S_3 for 2 <= d <= d_max, and for six random pairs of S_n at d = 2."""
    rep = CheckResult("permutation_representation")
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
    return rep


def check_projector_commutation(sizes: Iterable[tuple[int, int]], rng: random.Random) -> CheckResult:
    """B(tau) P_lam B(tau)^-1 = P_lam for 2 <= n <= n_max: every tau up to n = 4, eight random ones above."""
    commute = CheckResult("projector_commutes_with_permutations")
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
    return commute


def check_partial_trace_properties(n: int, rng: random.Random) -> CheckResult:
    """Partial traces keep the trace: of random d = 2 operators on n - 1 sites, and of one on n - 2 padded to n."""
    reduction_checks = CheckResult("partial_trace_properties")
    for _ in range(4):
        a = _random_operator(rng, 2, n - 1)
        reduction_checks.expect_equal(a.partial_trace(range(0, n - 1, 2)).trace(), a.trace(), "trace preservation")
        reduction_checks.expect_equal(a.partial_trace([]).trace(), a.trace(), "empty site set")
        full = a.partial_trace(range(n - 1))
        reduction_checks.expect_equal(full.entry(0, 0), a.trace(), "full trace")
    mixed = orc.tensor_with_maximally_mixed(_random_operator(rng, 2, n - 2), 2)
    reduction_checks.expect_equal(
        mixed.partial_trace([n - 2, n - 1]).trace(), mixed.trace(), "mixed-padded trace"
    )
    return reduction_checks


def check_twirl_properties(sizes: Iterable[tuple[int, int]], rng: random.Random) -> CheckResult:
    """The twirl keeps the trace and every projector pairing, is idempotent and fixes each P_lam, per (d, n)."""
    twirl_checks = CheckResult("twirl_properties")
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
    return twirl_checks


def check_twirl_pair_expansion(sizes: Iterable[tuple[int, int]]) -> CheckResult:
    """twirl(P_mu tensor P_gamma) = sum of paired-block weights times P_lam', for 2 <= n <= n_max."""
    pair_expansion = CheckResult("twirl_pair_expansion")
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
    return pair_expansion


def check_channel_identities(sizes: Iterable[tuple[int, int]], rng: random.Random) -> CheckResult:
    """The channel at q = 0, 1 and on traces, PSD inputs and projectors (binomial twirl sum), per (d, n)."""
    channel = CheckResult("depolarise_channel_identities")
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
        r = _random_operator(rng, d, n, 3)
        psd_out = orc.depolarise_n(r.transpose() @ r, Fraction(2, 5))  # R^T R is PSD
        channel.record(orc.is_positive_semidefinite(psd_out), "d={}: PSD input mapped outside PSD cone", d)
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
    return channel


# ---------------------------------------------------------------------------
# tail: exponential bound and output concentration
# ---------------------------------------------------------------------------


def check_tail_bound(n_max: int, q_grid: tuple[Fraction, ...]) -> CheckResult:
    """The exponential bound dominates every far-away weight (d = 2, 2 <= n <= n_max)."""
    bound_check = CheckResult("tail_bound_dominates_measured_weight")
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
    return bound_check


def check_output_mode(n: int, q_grid: tuple[Fraction, ...]) -> CheckResult:
    """The most likely output block of pi_(n) is the same on the fast path and the oracle (d = 2)."""
    concentration = CheckResult("output_mode_matches_oracle")
    modes = []
    source = YoungFrame((n,))
    dense = dense_twirl_overlaps(2, n)
    source_index = dense.frames.index(source)
    for q, table in zip(q_grid, channel_output_spectra(source, q_grid, 2)):
        engine_mode = table.mode()
        oracle_mode = dense.channel(source_index, q).mode()
        concentration.expect_equal(
            format_frame(engine_mode, 2), format_frame(oracle_mode, 2), "mode at n={} q={}", n, q
        )
        modes.append(
            {
                "q": rational_text(q),
                "mode_row1": engine_mode.row(0),
                "half_weight_reference": float(n * q / 2),
                "complement_reference": float(n * (1 - q / 2)),
            }
        )
    concentration.info["n"] = n
    concentration.info["modes"] = modes
    return concentration


# ---------------------------------------------------------------------------
# xybound: extremal dimension products against the entropy bound
# ---------------------------------------------------------------------------


def check_xy_entropy_bound(n_max: int) -> CheckResult:
    """X <= 2**(k h(lam'_2/k)) for the source (n), and X = 0 beyond the window (n <= n_max)."""
    bound = CheckResult("xy_extrema_within_entropy_bound")
    for n in range(1, n_max + 1):
        for lam_p in enumerate_frames(2, n):
            for k in range(0, n + 1):
                chk = xy_entropy_bound(lam_p, k)
                bound.record(
                    chk.holds, "n={} lam'={} k={}: X={} bound={}", n, lam_p, k, chk.x, chk.bound
                )
                if lam_p.row(1) > k:
                    bound.record(chk.x == 0, "n={} lam'={} k={}: X nonzero beyond window", n, lam_p, k)
    return bound


def check_xy_empty_iff_chains_disjoint(n_max: int) -> CheckResult:
    """X = 0 exactly when no branching chain joins lam to lam' (d = 2, n <= n_max)."""
    consistency = CheckResult("xy_empty_iff_chains_disjoint")
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
    return consistency


# ---------------------------------------------------------------------------
# the registry: one record per report, in report order
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Check:
    """One report of a suite: its name, its row (d -> the largest n it honours) and the call that makes it.

    The call takes the :class:`RunConfig`, the row clipped to it and the
    suite's random generator.  Records that share a call share its row and
    report from one run of it.
    """

    suite: str
    name: str
    row: dict[int, int]
    call: Callable[[RunConfig, dict[int, int], random.Random], CheckResult | list[CheckResult]]

    def sizes(self, cfg: RunConfig) -> dict[int, int]:
        """The row clipped to ``cfg``: d -> min(n, n_max) for each d <= d_max."""
        return {d: min(n, cfg.n_max) for d, n in self.row.items() if d <= cfg.d_max}


def _checks(suite: str, row: dict[int, int], call, *names: str) -> tuple[Check, ...]:
    return tuple(Check(suite, name, row, call) for name in names)


def _twirl_support(cfg: RunConfig, row: dict[int, int], rng: random.Random) -> list[CheckResult]:
    return check_twirl_support(row.items())


# Fast-path rows: frames.MAX_BOXES, never above 64.
_FAST = {d: min(MAX_BOXES[d], 64) for d in (2, 3, 4)}
# LR and Horn rows: the character cross-check refuses any n past its cap.  Both
# run at d = d_max alone: its triples contain every triple of a smaller d.
_LR = dict.fromkeys((2, 3, 4), CHARACTER_ORACLE_CAP)
# Fixed sizes, whatever the caps; the row and the call of each record read the same one.
# Two-row triples are few enough that their check runs past the cap, to min(n_max + 4, _TWO_ROW_N).
_TWO_ROW_N = 10
_ENTROPY_K = 12
_PARTIAL_TRACE_N = 4
# Dense rows stay within oracle.DENSE_SWEEP_N, so inside the dense caps and the
# projector cache; at d = 4 each runs in under 1 s.  The two checks on random
# operators stop at (4, 4); at (4, 5) they take about 0.01 s (twirl) and 0.2 s
# (channel) on a 2-vCPU VM, but raising them changes report counts.
CHECKS = (
    Check("saturation", "schur_weyl_dimension_identity", _FAST,
          lambda cfg, row, rng: check_dimension_identity(row.items())),
    *_checks("saturation", _LR, lambda cfg, row, rng: check_lr_coefficients(cfg.d_max, row[cfg.d_max]),
             "lr_tableaux_vs_characters", "lr_restriction_dimension_identity", "lr_symmetry"),
    *_checks("saturation", _LR, lambda cfg, row, rng: check_horn_inequalities(cfg.d_max, row[cfg.d_max]),
             "horn_necessity_of_basic_inequalities", "horn_feasible_iff_lr_positive"),
    Check("saturation", "lr_two_row_multiplicity_free", {2: _TWO_ROW_N},
          lambda cfg, row, rng: check_two_row_multiplicity_free(min(cfg.n_max + 4, _TWO_ROW_N))),
    # Pinsker on the grid i/8, the dimension bound on two-row frames to k = _ENTROPY_K
    Check("saturation", "pinsker_and_dimension_entropy_bound", {2: _ENTROPY_K},
          lambda cfg, row, rng: check_entropy_bounds(tuple(Fraction(i, 8) for i in range(9)), _ENTROPY_K)),
    Check("support", "dense_overlap_zero_outside_window", orc.DENSE_SWEEP_N,
          lambda cfg, row, rng: check_dense_overlap_outside_window(row.items())),
    Check("support", "engine_weight_zero_outside_window", _FAST, _twirl_support),
    Check("support", "branching_chains_disjoint_outside_window", {2: 7, 3: 7, 4: 7},
          lambda cfg, row, rng: check_chains_disjoint_outside_window(row.items())),
    Check("support", "support_growth_monotone_report", _FAST, _twirl_support),
    Check("support", "projector_pair_domination_psd", {2: 6},
          lambda cfg, row, rng: check_projector_domination(row[2])),
    Check("oracle", "projector_algebra", orc.DENSE_SWEEP_N,
          lambda cfg, row, rng: check_projector_algebra(row.items())),
    # random pairs of S_n at d = 2; all of S_3 at every d
    Check("oracle", "permutation_representation", {2: 6},
          lambda cfg, row, rng: check_permutation_representation(cfg.d_max, row[2], rng)),
    Check("oracle", "projector_commutes_with_permutations", {2: 6, 3: 6, 4: 5},
          lambda cfg, row, rng: check_projector_commutation(row.items(), rng)),
    Check("oracle", "partial_trace_properties", {2: _PARTIAL_TRACE_N},
          lambda cfg, row, rng: check_partial_trace_properties(_PARTIAL_TRACE_N, rng)),
    Check("oracle", "branching_table_matches_dense_partial_trace", {2: 6, 3: 5, 4: 5},
          lambda cfg, row, rng: check_branching_table(row.items())),
    Check("oracle", "twirl_properties", {2: 6, 3: 4, 4: 4},
          lambda cfg, row, rng: check_twirl_properties(row.items(), rng)),
    Check("oracle", "twirl_pair_expansion", {2: 5, 3: 4, 4: 5},
          lambda cfg, row, rng: check_twirl_pair_expansion(row.items())),
    Check("oracle", "depolarise_channel_identities", {2: 5, 3: 3, 4: 4},
          lambda cfg, row, rng: check_channel_identities(row.items(), rng)),
    *_checks("oracle", orc.DENSE_SWEEP_N,
             lambda cfg, row, rng: check_fast_path_against_oracle(
                 row.items(), tuple(Fraction(i, 4) for i in range(5))),
             "padded_product_equals_partial_trace_pairing", "fast_path_equals_oracle_twirl_spectra",
             "fast_path_equals_oracle_channel_spectra"),
    Check("tail", "tail_bound_dominates_measured_weight", {2: _FAST[2]},
          lambda cfg, row, rng: check_tail_bound(row[2], cfg.q_grid)),
    Check("tail", "output_mode_matches_oracle", {2: 8},
          lambda cfg, row, rng: check_output_mode(row[2], cfg.q_grid)),
    Check("xybound", "xy_extrema_within_entropy_bound", {2: 10},
          lambda cfg, row, rng: check_xy_entropy_bound(row[2])),
    Check("xybound", "xy_empty_iff_chains_disjoint", {2: 8},
          lambda cfg, row, rng: check_xy_empty_iff_chains_disjoint(row[2])),
)

# The caps RunConfig accepts: from the least d and n a suite runs at to the extent of the rows.
D_MAX_RANGE = range(2, max(d for check in CHECKS for d in check.row) + 1)
N_MAX_RANGE = range(1, max(n for check in CHECKS for n in check.row.values()) + 1)


def _run(suite: str, cfg: RunConfig) -> list[CheckResult]:
    """The reports of ``suite``, one per record in order; a call shared by several records runs once."""
    # One generator feeds the sampled checks in report order, so every draw is fixed by the seed.
    rng = random.Random(cfg.seed)
    made: dict[str, CheckResult] = {}
    for check in CHECKS:
        if check.suite == suite and check.name not in made:
            out = check.call(cfg, check.sizes(cfg), rng)
            made.update((r.name, r) for r in ([out] if isinstance(out, CheckResult) else out))
    return [made[check.name] for check in CHECKS if check.suite == suite]


SUITES = {suite: partial(_run, suite) for suite in dict.fromkeys(check.suite for check in CHECKS)}


def run_suite(name: str, cfg: RunConfig | None = None) -> SuiteReport:
    """Run one suite (or "all") and return its deterministic report.

    A name that is not a suite's, a non-string included, is refused with ``ValueError`` before any check.
    """
    if not isinstance(name, str) or name != "all" and name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join([*SUITES, 'all'])}")
    cfg = cfg or RunConfig()
    if name != "all":
        return SuiteReport(name, cfg, SUITES[name](cfg))
    checks = []
    for suite_name, fn in SUITES.items():
        for check in fn(cfg):
            check.name = f"{suite_name}/{check.name}"
            checks.append(check)
    return SuiteReport("all", cfg, checks)
