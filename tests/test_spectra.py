import importlib
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bruteforce import (
    channel_by_level_lcms, count_standard_skew_tableaux, partitions_of, skew_count_by_aitken, twirl_by_level_lcms,
)
from isotwirl.frames import (
    YoungFrame,
    _lattice_level,
    _skew_counts,
    dim_sym,
    dim_unitary,
    enumerate_frames,
    format_frame,
    frame,
)
from isotwirl.horn import within_support_window
from isotwirl import oracle as orc
from isotwirl.lr import lr_coefficient
from isotwirl.spectra import (
    SpectralTable,
    channel_output_spectra,
    channel_output_spectrum,
    paired_block_overlap,
    partial_trace_decomposition,
    sweep_to_csv,
    table_to_csv,
    table_to_json_obj,
    tail_bound_exponent,
    twirl_spectra,
    twirl_spectrum,
    xy_entropy_bound,
    xy_optimize,
)
from isotwirl import verify
from isotwirl.verify import DEFAULT_Q_GRID, check_branching_table, check_tail_bound


def test_branching_examples():
    # the coefficient of each P_mu in tr over k sites of P_lam
    table = partial_trace_decomposition(frame(2), 1, 2)
    assert dict(table) == {frame(1): Fraction(3, 2)}
    table = partial_trace_decomposition(frame(4, 0), 1, 2)
    assert dict(table) == {frame(3): Fraction(5, 4)}
    table = partial_trace_decomposition(frame(3, 1), 0, 2)
    assert dict(table) == {frame(3, 1): Fraction(1)}
    with pytest.raises(ValueError):
        partial_trace_decomposition(frame(3, 1), 5, 2)


def test_a_table_holds_one_numerator_per_frame_over_a_positive_denominator():
    with pytest.raises(ValueError, match="denominator must be >= 1, got denominator=0"):
        SpectralTable(2, 3, 0, [1, 2])
    with pytest.raises(ValueError, match=r"YF\(2, 3\) needs 2 numerators, got 3"):
        SpectralTable(2, 3, 4, [0, 1, 5])
    with pytest.raises(ValueError, match="must be integers"):
        SpectralTable(2, 3, 4.0, [1, 2])
    table = SpectralTable(np.int64(2), 3, 4, [1, 2])
    assert (table.d, table.total(), table.mode()) == (2, Fraction(3, 4), frame(2, 1))


def test_branching_matches_dense_partial_trace():
    result = check_branching_table([(2, 5), (3, 4)])
    assert result.passed, result.failures


def test_paired_block_overlap_examples():
    assert paired_block_overlap(frame(2), frame(1), frame(1), 2) == 3
    assert paired_block_overlap(frame(1, 1), frame(1), frame(1), 2) == 1
    # a vanishing overlap is the exact Fraction 0 too, so a quotient of it stays exact
    zero = paired_block_overlap(frame(2), frame(1, 1), frame(), 2)
    assert zero == 0 and type(zero) is Fraction
    with pytest.raises(ValueError):
        paired_block_overlap(frame(2), frame(2), frame(1, 1), 2)


def test_paired_block_overlap_is_dense_pair_trace():
    for d, n in ((2, 4), (3, 3)):
        fam = orc.isotypical_projectors(d, n)
        for l in range(n + 1):
            fam_l = orc.isotypical_projectors(d, l)
            fam_k = orc.isotypical_projectors(d, n - l)
            for mu in enumerate_frames(d, l):
                for gamma in enumerate_frames(d, n - l):
                    pair = fam_l[mu].kron(fam_k[gamma])
                    for lam_p in enumerate_frames(d, n):
                        expect = fam[lam_p].hs_product(pair) / dim_sym(lam_p)
                        assert paired_block_overlap(lam_p, mu, gamma, d) == expect


def test_twirl_spectrum_point_mass_at_k_zero():
    for lam in enumerate_frames(2, 5):
        table = twirl_spectrum(lam, 0, 2)
        assert list(dict(table)) == [lam]
        assert table.weight(lam) == 1


def test_twirl_spectrum_example_support():
    table = twirl_spectrum(frame(4, 0), 1, 2)
    assert list(dict(table)) == [frame(4, 0), frame(3, 1)]
    assert table.total() == 1


def test_twirl_spectrum_matches_oracle():
    for d, n_max in ((2, 5), (3, 4)):
        for n in range(1, n_max + 1):
            fam = orc.isotypical_projectors(d, n)
            for lam in enumerate_frames(d, n):
                norm = dim_sym(lam) * dim_unitary(lam, d)
                for k in range(n + 1):
                    reduced = fam[lam].partial_trace(range(n - k, n))
                    padded = orc.tensor_with_maximally_mixed(reduced, k)
                    twirled = orc.twirl(padded)
                    plain = twirl_spectrum(lam, k, d, normalized=False)
                    normed = twirl_spectrum(lam, k, d)
                    for lam_p in enumerate_frames(d, n):
                        dense = fam[lam_p].hs_product(twirled)
                        assert plain.weight(lam_p) == dense
                        assert normed.weight(lam_p) == dense / norm


def lr_route_twirl_spectrum(lam, k, d, normalized):
    """The twirl spectrum as the triple sum over the branching table and paired overlaps."""
    branching = partial_trace_decomposition(lam, k, d)
    weights = {}
    for lam_p in enumerate_frames(d, lam.n):
        acc = Fraction(0)
        for mu, bcoeff in branching:
            for gamma in enumerate_frames(d, k):
                acc += bcoeff * paired_block_overlap(lam_p, mu, gamma, d) * dim_sym(lam_p)
        if acc:
            weights[lam_p] = acc / d**k
    if normalized:
        norm = dim_sym(lam) * dim_unitary(lam, d)
        weights = {f: w / norm for f, w in weights.items()}
    return weights


def test_twirl_spectrum_equals_lr_route_exhaustively():
    for d, n_max in ((2, 10), (3, 8), (4, 6)):
        for n in range(n_max + 1):
            frames = enumerate_frames(d, n)
            for lam in frames:
                for k in range(n + 1):
                    for normalized in (False, True):
                        table = twirl_spectrum(lam, k, d, normalized=normalized)
                        assert dict(table) == lr_route_twirl_spectrum(lam, k, d, normalized)
                        assert list(dict(table)) == [f for f in frames if f in dict(table)]


def dim_skew(outer, inner):
    """f^{outer/inner} as the package's lattice pass gives it; zero when inner does not fit inside outer."""
    if inner.n > outer.n:
        return 0
    d = max(outer.num_rows, 1)
    position = _lattice_level(d, inner.n).index.get(inner.reduced)
    return _skew_counts(outer.reduced, d)[inner.n].get(position, 0)


def test_dim_skew_examples():
    assert dim_skew(frame(2, 1), frame()) == 2
    assert dim_skew(frame(2, 1), frame(1)) == 2
    assert dim_skew(frame(2, 2), frame(1)) == 2
    assert dim_skew(frame(3, 1), frame(1)) == 3
    assert dim_skew(frame(3, 1), frame(1, 1)) == 1
    assert dim_skew(frame(3, 1), frame(3, 1)) == 1
    assert dim_skew(frame(3, 1), frame(2, 2)) == 0
    assert dim_skew(frame(2), frame(1, 1)) == 0


def test_dim_skew_matches_tableau_count():
    for n in range(0, 8):
        for outer in map(YoungFrame, partitions_of(n)):
            for m in range(n + 1):
                for inner in map(YoungFrame, partitions_of(m)):
                    assert dim_skew(outer, inner) == count_standard_skew_tableaux(outer, inner)


def test_dim_skew_is_lr_sum_of_dimensions():
    for n in range(0, 9):
        for outer in map(YoungFrame, partitions_of(n)):
            for m in range(n + 1):
                for inner in map(YoungFrame, partitions_of(m)):
                    lr_sum = sum(
                        lr_coefficient(outer, inner, nu) * dim_sym(nu)
                        for nu in map(YoungFrame, partitions_of(n - m))
                    )
                    assert dim_skew(outer, inner) == lr_sum


def test_dim_skew_equals_aitken_determinant():
    for n in range(0, 11):
        for outer in map(YoungFrame, partitions_of(n, max_rows=4)):
            for m in range(n + 1):
                for inner in map(YoungFrame, partitions_of(m)):
                    assert dim_skew(outer, inner) == skew_count_by_aitken(outer, inner), (outer, inner)


@st.composite
def fast_path_cases(draw, n_max=10):
    """A frame of YF(d, n) with d <= 4, n <= n_max, a site count k and a rational q in [0, 1]."""
    d = draw(st.integers(1, 4))
    n = draw(st.integers(0, n_max))
    lam = draw(st.sampled_from(enumerate_frames(d, n)))
    k = draw(st.integers(0, n))
    b = draw(st.integers(1, 30))
    q = Fraction(draw(st.integers(0, b)), b)
    return lam, d, k, q


@given(fast_path_cases())
def test_channel_output_totals_exactly_one(case):
    lam, d, _k, q = case
    table = channel_output_spectrum(lam, q, d)
    assert table.total() == 1
    assert all(w > 0 for _, w in table)


@given(fast_path_cases())
def test_engine_weights_vanish_outside_support_window(case):
    lam, d, k, _q = case
    for normalized in (False, True):
        table = twirl_spectrum(lam, k, d, normalized=normalized)
        for lam_p in enumerate_frames(d, lam.n):
            if not within_support_window(lam, lam_p, d, k):
                assert table.weight(lam_p) == 0, (lam, lam_p, k)


@given(fast_path_cases(n_max=7))
def test_lattice_twirl_equals_lr_route(case):
    lam, d, k, _q = case
    for normalized in (False, True):
        assert dict(twirl_spectrum(lam, k, d, normalized=normalized)) == lr_route_twirl_spectrum(
            lam, k, d, normalized
        )


@st.composite
def push_cases(draw):
    """A frame of YF(d, n) up to (2, 40), (3, 18), (4, 12) and a grid holding 0, 1 and q of denominator <= 97."""
    d, n_max = draw(st.sampled_from(((2, 40), (3, 18), (4, 12))))
    lam = draw(st.sampled_from(enumerate_frames(d, draw(st.integers(0, n_max)))))
    inner = st.fractions(min_value=0, max_value=1, max_denominator=97)
    grid = draw(st.permutations([Fraction(0), Fraction(1), *draw(st.lists(inner, min_size=1, max_size=3))]))
    return lam, d, grid


@settings(max_examples=30)
@given(push_cases())
def test_channel_push_is_the_binomial_mixture_of_twirl_spectra(case):
    lam, d, grid = case
    n = lam.n
    twirls = [twirl_spectrum(lam, k, d) for k in range(n + 1)]
    for q, table in zip(grid, channel_output_spectra(lam, grid, d)):
        mixture = {}
        for k, twirl in enumerate(twirls):
            weight = math.comb(n, k) * q**k * (1 - q) ** (n - k)
            for lam_p, w in twirl:
                mixture[lam_p] = mixture.get(lam_p, 0) + weight * w
        assert dict(table) == {f: w for f, w in mixture.items() if w}, (lam, d, q)


BENCHMARK_SPECTRA = Path(__file__).resolve().parent.parent / "perfbench" / "reference" / "twirl_spectra.json"


def test_benchmark_frames_match_their_recorded_spectra():
    # the benchmark checks its fast-path outputs against this file only after a timed run;
    # here every normalised twirl spectrum of its three frame sets, and the channel at two q
    reference = json.loads(BENCHMARK_SPECTRA.read_text())
    assert list(reference) == ["2,16", "3,12", "4,10"]
    for key, block in reference.items():
        d, n = map(int, key.split(","))
        frames = enumerate_frames(d, n)
        assert block["frames"] == [format_frame(lam, d) for lam in frames]
        for lam in frames:
            recorded = [{f: Fraction(w) for f, w in by_k.items()} for by_k in block["twirl"][format_frame(lam, d)]]
            assert len(recorded) == n + 1
            for k, expected in enumerate(recorded):
                table = twirl_spectrum(lam, k, d)
                assert {format_frame(f, d): w for f, w in table} == expected, (d, lam, k)
            for q in (Fraction(2, 7), Fraction(11, 12)):
                mixture = {}
                for k, expected in enumerate(recorded):
                    weight = math.comb(n, k) * q**k * (1 - q) ** (n - k)
                    for f, w in expected.items():
                        mixture[f] = mixture.get(f, 0) + weight * w
                table = channel_output_spectrum(lam, q, d)
                assert {format_frame(f, d): w for f, w in table} == {f: w for f, w in mixture.items() if w}, (d, lam, q)


def test_packed_fields_do_not_bleed():
    # every q of a grid (every k of a twirl) packed into one integer per frame
    # gives what the same q (k) gives alone
    grid = [Fraction(0), Fraction(1, 97), Fraction(1, 2), Fraction(96, 97), Fraction(1), Fraction(3, 7)]
    for d, n in ((2, 40), (3, 18), (4, 12), (1, 6)):
        frames = enumerate_frames(d, n)
        for lam in (frames[0], frames[len(frames) // 2], frames[-1]):
            together = channel_output_spectra(lam, grid, d)
            for q, table in zip(grid, together):
                assert list(table) == list(channel_output_spectrum(lam, q, d)), (lam, d, q)
            ks = range(n, -1, -1)
            assert twirl_spectra(lam, ks, d) == [twirl_spectra(lam, (k,), d)[0] for k in ks]


def test_every_producer_gives_one_numerator_per_frame_of_its_size():
    # the producers build their tables from the level they hold, past the public constructor's read, so
    # size and length are pinned here, also for pushes that inject at the top level alone (q = 0, k = 0)
    for d, n in ((1, 3), (2, 6), (3, 5), (4, 4)):
        for lam in enumerate_frames(d, n):
            tables = [*channel_output_spectra(lam, [0, Fraction(1, 3), 1], d), *twirl_spectra(lam, range(n + 1), d)]
            tables += [channel_output_spectrum(lam, q, d) for q in (0, 1)]
            tables += [twirl_spectrum(lam, k, d) for k in (0, n)]
            sizes = [(d, n)] * len(tables) + [(d, n - k) for k in range(n + 1)]
            tables += [partial_trace_decomposition(lam, k, d) for k in range(n + 1)]
            assert [(t.d, t.n, len(t.numerators)) for t in tables] == [
                (d_, n_, len(enumerate_frames(d_, n_))) for d_, n_ in sizes
            ], (d, lam)


def test_channel_is_its_level_lcm_reference_integer_for_integer(monkeypatch):
    # one lcm L for every level and the weight C(n,m) a^(n-m) ((b-a) d)^m injected directly give the
    # same denominator and numerators as each level on its own lcm C_m, then raised to L: over every
    # frame up to (2, 24), (3, 12), (4, 10) at 0, 1, 1/97 and 96/97, packed and one q at a time, and
    # over the benchmark's frame sets at every q its draws can take, packed and one q at a time
    monkeypatch.syspath_prepend(str(BENCHMARK_SPECTRA.parent.parent))
    workloads = importlib.import_module("workloads")
    pool = sorted({Fraction(a, b) for b in range(2, workloads.Q_DENOMINATOR_MAX + 1) for a in range(1, b)})
    cases = [(d, m, [Fraction(0), Fraction(1), Fraction(1, 97), Fraction(96, 97)])
             for d, n_max in ((2, 24), (3, 12), (4, 10)) for m in range(n_max + 1)]
    cases += [(d, n, pool) for d, n in workloads.FAST_FRAME_SETS]
    for d, n, grid in cases:
        for lam in enumerate_frames(d, n):
            for qs in (grid, *([q] for q in grid)):
                tables = [(t.denominator, t.numerators) for t in channel_output_spectra(lam, qs, d)]
                assert tables == channel_by_level_lcms(lam, qs, d), (d, lam, qs)


def test_twirl_is_its_level_lcm_reference_integer_for_integer():
    # the one push body, with each k a row of weight 1 at level n-k over that level's own lcm, gives the
    # same denominator and numerators as the twirl's own level-by-level injections: over every frame up
    # to (1, 8), (2, 24), (3, 12) and (4, 10), with every k packed into one push and with each k alone
    for d, n_max in ((1, 8), (2, 24), (3, 12), (4, 10)):
        for n in range(n_max + 1):
            for lam in enumerate_frames(d, n):
                for ks in (range(n + 1), *([k] for k in range(n + 1))):
                    tables = [(t.denominator, t.numerators) for t in twirl_spectra(lam, ks, d)]
                    assert tables == twirl_by_level_lcms(lam, list(ks), d), (d, lam, list(ks))


def test_fast_path_rejects_frames_d_and_k_it_cannot_honour():
    calls = (
        lambda lam, k, d: twirl_spectrum(lam, k, d),
        lambda lam, k, d: twirl_spectrum(lam, k, d, normalized=False),
        lambda lam, k, d: partial_trace_decomposition(lam, k, d),
        lambda lam, k, d: channel_output_spectrum(lam, Fraction(1, 2), d),
    )
    for call in calls:
        with pytest.raises(ValueError, match="frame 3,1 has more than 1 rows"):
            call(frame(3, 1), 1, 1)
        with pytest.raises(ValueError, match="frame 2,1,1 has more than 2 rows"):
            call(frame(2, 1, 1), 1, 2)
        for d in (0, -1):
            with pytest.raises(ValueError, match="d must be >= 1"):
                call(frame(), 0, d)
    for call in calls[:3]:
        for k in (-1, 5):
            with pytest.raises(ValueError, match="outside 0..4"):
                call(frame(3, 1), k, 2)
    with pytest.raises(ValueError, match="frame 3,1 has more than 1 rows"):
        sweep_to_csv(frame(3, 1), 1, [Fraction(1, 2)])


def test_enumerate_frames_returns_a_fresh_list():
    first = enumerate_frames(2, 4)
    first.append(frame(1, 1, 1, 1))
    first.reverse()
    assert enumerate_frames(2, 4) == [frame(4, 0), frame(3, 1), frame(2, 2)]


def test_channel_output_edges():
    table = channel_output_spectrum(frame(4, 0), 0, 2)
    assert list(dict(table)) == [frame(4, 0)] and table.weight(frame(4, 0)) == 1
    table = channel_output_spectrum(frame(4, 0), 1, 2)
    for lam_p in enumerate_frames(2, 4):
        assert table.weight(lam_p) == Fraction(dim_sym(lam_p) * dim_unitary(lam_p, 2), 16)


def test_channel_output_matches_dense_channel():
    for d, n in ((2, 4), (3, 3)):
        fam = orc.isotypical_projectors(d, n)
        for lam in enumerate_frames(d, n):
            flat = Fraction(1, dim_sym(lam) * dim_unitary(lam, d)) * fam[lam]
            for q in (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)):
                dense_out = orc.depolarise_n(flat, q)
                table = channel_output_spectrum(lam, q, d)
                assert table.total() == 1
                for lam_p in enumerate_frames(d, n):
                    assert table.weight(lam_p) == fam[lam_p].hs_product(dense_out)


def test_channel_output_accepts_decimal_strings():
    a = channel_output_spectrum(frame(6, 0), "0.3", 2)
    b = channel_output_spectrum(frame(6, 0), Fraction(3, 10), 2)
    assert dict(a) == dict(b)


def test_float_weights_refused():
    # 0.1 as a float is 3602879701896397/36028797018963968, not 1/10
    lam = frame(2, 1)
    for q in (0.1, 0.5, float(Fraction(1, 4))):
        with pytest.raises(ValueError, match="not exact"):
            channel_output_spectrum(lam, q, 2)
        with pytest.raises(ValueError, match="not exact"):
            orc.depolarise_n(orc.isotypical_projectors(2, 3)[lam], q)
        with pytest.raises(ValueError, match="not exact"):
            tail_bound_exponent(frame(8, 0), frame(4, 4), q)
    with pytest.raises(ValueError, match="not exact"):
        orc.TensorOperator(2, 1, 0.1, orc.TensorOperator.identity(2, 1).mat)
    with pytest.raises(ValueError, match="not exact"):
        0.5 * orc.TensorOperator.identity(2, 1)
    with pytest.raises(ValueError, match="not exact"):
        verify.RunConfig(q_grid=(Fraction(1, 2), 0.1))
    assert verify.RunConfig(q_grid=("1/10", 1)).q_grid == (Fraction(1, 10), Fraction(1))
    # a Fraction, an int or a decimal string still give the exact weight
    tenth = dict(channel_output_spectrum(lam, Fraction(1, 10), 2))
    for q in ("0.1", "1/10"):
        assert dict(channel_output_spectrum(lam, q, 2)) == tenth
    assert dict(channel_output_spectrum(lam, 1, 2)) == dict(channel_output_spectrum(lam, Fraction(1), 2))
    op = orc.TensorOperator(2, 1, "1/3", orc.TensorOperator.identity(2, 1).mat)
    assert op.scale == Fraction(1, 3) and orc.depolarise_n(op, "0.5") == orc.depolarise_n(op, Fraction(1, 2))


def test_tail_bound_value_and_regime():
    bound = 2.0 ** tail_bound_exponent(frame(8, 0), frame(4, 4), Fraction(1, 4))
    expect = 2.0 ** (-8 * ((2 / math.log(2)) * (0.5 - 0.25) ** 2 - math.log2(9) / 8))
    assert abs(bound - expect) < 1e-14
    # the bound reads the gap |lam_1 - lam'_1|, so swapping the frames keeps it
    swapped = tail_bound_exponent(frame(4, 4), frame(8, 0), Fraction(1, 4))
    assert swapped == tail_bound_exponent(frame(8, 0), frame(4, 4), Fraction(1, 4))
    # vacuous edge: ratio == q gives an exponent >= 0, a bound >= 1
    assert tail_bound_exponent(frame(8, 0), frame(6, 2), Fraction(1, 4)) >= 0
    with pytest.raises(ValueError, match="vacuous"):
        tail_bound_exponent(frame(8, 0), frame(7, 1), Fraction(1, 4))
    with pytest.raises(ValueError, match="more than 2 rows"):
        tail_bound_exponent(frame(6, 0, 0), frame(2, 2, 2), Fraction(1, 10))
    # n is the frames' one box count
    with pytest.raises(ValueError) as refused:
        tail_bound_exponent(frame(6), frame(2, 2), Fraction(1, 10))
    assert str(refused.value) == "frames 6 and 2,2 have 6 and 4 boxes, not one n"
    with pytest.raises(ValueError, match="n must be >= 1, got n=0"):
        tail_bound_exponent(frame(), frame(), 0)
    # one site is the least n served: at q = 0 the exponent is log2(2) = 1
    assert tail_bound_exponent(frame(1), frame(1), 0) == 1.0


def test_tail_bound_dominates_small_cases():
    result = check_tail_bound(6, (Fraction(1, 10), Fraction(1, 2), Fraction(7, 10)))
    assert result.passed, result.failures


def _log2(w):
    return math.log2(w.numerator) - math.log2(w.denominator) if w else -math.inf


def test_tail_bound_check_reads_each_weight_at_its_own_q(monkeypatch):
    # The check passes only (ratio, q, n) to the bound, so a fake bound can
    # see the pair only through its gap.  Every exact weight, keyed by
    # (n, gap / n, q), then by the (lam, lam') pair it belongs to:
    n_max = 8
    weights: dict = {}
    for n in range(2, n_max + 1):
        frames = enumerate_frames(2, n)
        for q in DEFAULT_Q_GRID:
            for lam in frames:
                table = channel_output_spectrum(lam, q, 2)
                for lam_p in frames:
                    key = (n, Fraction(abs(lam.row(0) - lam_p.row(0)), n), q)
                    weights.setdefault(key, {})[(lam, lam_p)] = table.weight(lam_p)
    monkeypatch.setattr(verify, "MAX_FAILURES_REPORTED", 10**6)

    # A bound equal to the largest weight at the gap and q passes only when
    # every weight is read at its own q.
    def largest(ratio, q, n):
        return _log2(max(weights[n, ratio, q].values()))

    monkeypatch.setattr(verify, "_tail_exponent", largest)
    for grid in (DEFAULT_Q_GRID, DEFAULT_Q_GRID[::-1]):
        assert check_tail_bound(n_max, grid).passed

    # A bound just below the (r+1)-th largest weight at the gap and q (halfway,
    # in log2, to the next one) fails exactly the triples whose weight is among
    # the r+1 largest.  Over every r this pins the weight each triple is read
    # as, so it also fails a check that reads the weight of another pair at the
    # same gap (the mirrored partner, or the swapped source): weights are not
    # symmetric in (lam, lam').
    def ranked(key):
        return sorted(set(weights[key].values()) | {0}, reverse=True)

    def below(rank):
        def exponent(ratio, q, n):
            values = ranked((n, ratio, q))
            return (_log2(values[rank]) + _log2(values[rank + 1])) / 2 if rank + 1 < len(values) else -math.inf

        return exponent

    ranks = max(len(set(by_pair.values())) for by_pair in weights.values())
    for rank in range(ranks):
        expected = set()
        for (n, ratio, q), by_pair in weights.items():
            values = ranked((n, ratio, q))
            cut = values[min(rank, len(values) - 1)]
            expected |= {
                f"n={n} q={q} lam={lam} lam'={lam_p}"
                for (lam, lam_p), w in by_pair.items()
                if ratio > q and w and w >= cut
            }
        assert expected
        monkeypatch.setattr(verify, "_tail_exponent", below(rank))
        for grid in (DEFAULT_Q_GRID, DEFAULT_Q_GRID[::-1]):
            result = check_tail_bound(n_max, grid)
            assert len(result.failures) == len(expected)
            assert {f.rsplit(": ", 1)[0] for f in result.failures} == expected


def test_xy_optimize_examples():
    res = xy_optimize(frame(5), frame(5), 3, 2, 2)
    assert res.x == res.y == 1
    res = xy_optimize(frame(4, 0), frame(3, 1), 2, 2, 2)
    assert res.x == 1 and res.argmax is not None
    res = xy_optimize(frame(4, 0), frame(2, 2), 3, 1, 2)
    assert res.x == 0 and res.y == 0 and res.argmax is None and res.argmin is None
    # three triples tie at X = Y = 1: both witnesses are the first in enumeration order
    res = xy_optimize(frame(3, 1), frame(2, 2), 2, 2, 2)
    assert res.x == res.y == 1 and res.argmax == res.argmin == (frame(2), frame(2), frame(2))
    with pytest.raises(ValueError, match="split 1\\+1"):
        xy_optimize(frame(4, 0), frame(3, 1), 1, 1, 2)
    with pytest.raises(ValueError, match="frame 3,1 has more than 1 rows"):
        xy_optimize(frame(4, 0, 0), frame(3, 1), 2, 2, 1)
    with pytest.raises(ValueError, match="frame 2,1,1 has more than 2 rows"):
        xy_optimize(frame(4), frame(2, 1, 1), 2, 2, 2)


def test_xy_optimize_extrema_are_attained():
    res = xy_optimize(frame(4, 2), frame(3, 3), 3, 3, 2)
    if res.argmax is not None:
        mu, nu, gamma = res.argmax
        assert dim_sym(nu) * dim_sym(mu) * dim_sym(gamma) == res.x
        mu, nu, gamma = res.argmin
        assert dim_sym(nu) * dim_sym(mu) * dim_sym(gamma) == res.y
        assert res.y <= res.x


def test_xy_entropy_bound_examples():
    chk = xy_entropy_bound(frame(4, 0), 2)
    assert chk.bound == 1.0 and chk.x <= 1 and chk.holds
    chk = xy_entropy_bound(frame(3, 1), 2)
    assert chk.bound == 4.0 and chk.x == 1 and chk.holds
    chk = xy_entropy_bound(frame(2, 2), 1)
    assert chk.x == 0 and chk.holds
    chk = xy_entropy_bound(frame(4), 0)
    assert chk.x == 1 and chk.bound == 1.0 and chk.holds
    # equality cases X = 1 with a = 0 or b = 0: the integer test holds them with no slack
    for lam_p, k in ((frame(1, 0), 1), (frame(2, 0), 2), (frame(1, 1), 1)):
        chk = xy_entropy_bound(lam_p, k)
        assert chk.x == 1 and chk.bound == 1.0 and chk.holds


def test_spectral_table_mode_and_order():
    table = channel_output_spectrum(frame(6, 0), Fraction(1, 2), 2)
    assert [f.padded(2) for f in dict(table)] == sorted(
        (f.padded(2) for f in dict(table)), reverse=True
    )
    mode = table.mode()
    assert table.weight(mode) == max(dict(table).values())
    # a frame outside YF_{2,6}, by its size or by its rows, weighs 0
    assert table.weight(frame(5, 0)) == table.weight(frame(2, 2, 2)) == 0


def test_csv_and_json_serialization():
    table = channel_output_spectrum(frame(4, 0), Fraction(1, 2), 2)
    csv_text = table_to_csv(table)
    lines = csv_text.strip().split("\n")
    assert lines[0] == "frame,weight_numerator,weight_denominator,weight_float"
    assert lines[1].startswith('"4,0",121,256,')
    obj = table_to_json_obj(table)
    assert obj["entries"][0]["weight"] == "121/256"
    # exact rationals agree between the two emissions
    for line, entry in zip(lines[1:], obj["entries"]):
        _, num, den, _ = line.rsplit(",", 3)
        assert f"{num}/{den}" == entry["weight"]
    # round-trip through json keeps the exact strings
    assert json.loads(json.dumps(obj)) == obj


def test_serialization_deterministic():
    a = table_to_csv(channel_output_spectrum(frame(6, 0), Fraction(1, 3), 2))
    b = table_to_csv(channel_output_spectrum(frame(6, 0), Fraction(1, 3), 2))
    assert a == b


def test_sweep_csv():
    grid = [Fraction(0), Fraction(1)]
    text = sweep_to_csv(frame(4, 0), 2, grid)
    lines = text.strip().split("\n")
    assert lines[0] == "frame,q=0/1,q=1/1"
    assert lines[1] == '"4,0",1.0,0.3125'
    assert len(lines) == 1 + len(enumerate_frames(2, 4))
    exact = sweep_to_csv(frame(4, 0), 2, grid, exact=True)
    assert '"4,0",1/1,5/16' in exact
    with pytest.raises(ValueError):
        sweep_to_csv(frame(4, 0), 2, [])


def test_sweep_mode_weakly_decreases_in_q():
    frames = enumerate_frames(2, 6)
    prev = None
    for i in range(1, 10):
        mode_row = channel_output_spectrum(frame(6, 0), Fraction(i, 10), 2).mode().row(0)
        if prev is not None:
            assert mode_row <= prev
        prev = mode_row
