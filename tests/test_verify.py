"""The verify checks decide on integers: perturbed inputs, mutants of the cross-multiplication, report counts."""

import copy
import dataclasses
import functools
import inspect
import json
import random
import sys
import types
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest

from bruteforce import within_window_by_rows
from isotwirl import horn, lr, oracle, spectra, verify
from isotwirl.frames import YoungFrame, dim_unitary, enumerate_frames
from isotwirl.symmetric_group import Permutation

Q_VALUES = (Fraction(1, 2), Fraction(1, 3))
VERIFY_COUNTS = Path(__file__).resolve().parent.parent / "perfbench" / "reference" / "verify_counts.json"
GOLDEN_REPORT = Path(__file__).resolve().parent / "data" / "verify_all_cap5.json"


def frame(*rows):
    return YoungFrame(tuple(rows))


def failures(results):
    return {r.name: r.failures for r in results if not r.passed}


# the report names that a test below makes fail by perturbing a route its check reads
PERTURBED: set[str] = set()
# the report names no perturbation test can make fail, each with the reason
UNPERTURBED = {
    "horn_feasible_iff_lr_positive": "both of its sides read lr_coefficient, so any route it reads moves both;"
    " it can fail once horn_feasible decides by Horn's full inequalities",
    "support_growth_monotone_report": "it only reports its violations, and asserts nothing to fail",
}


def perturbs(*names):
    """Register a perturbation test of the named reports; each of them must record a failure while it runs."""

    def register(test):
        @functools.wraps(test)
        def run(*args, **kwargs):
            failed = set()
            record = verify.CheckResult.record

            def recording(result, ok, *rest):
                if not ok:
                    failed.add(result.name)
                return record(result, ok, *rest)

            with mock.patch.object(verify.CheckResult, "record", recording):
                test(*args, **kwargs)
            assert failed >= set(names), set(names) - failed

        PERTURBED.update(names)
        return run

    return register


def run_checks(module=verify):
    """The failures of every check that reads the (2, 4) overlap table or the fast-path numerators."""
    return {
        **failures([module.check_dense_overlap_outside_window([(2, 4)])]),
        **failures(module.check_fast_path_against_oracle([(2, 4)], Q_VALUES)),
        **failures(module.check_twirl_support([(2, 4)])),
    }


def bump_pairing(monkeypatch, field, lam, k, lam_p):
    """Serve the (2, 4) table with one integer pairing of ``field`` raised by 1."""
    table = verify.dense_twirl_overlaps(2, 4)
    i, j = table.frames.index(lam), table.frames.index(lam_p)
    levels = [[list(row) for row in level] for level in getattr(table, field)]
    levels[k][i][j] += 1
    bumped = dataclasses.replace(table, **{field: tuple(tuple(map(tuple, level)) for level in levels)})
    original = verify.dense_twirl_overlaps
    served = lambda d, n: bumped if (d, n) == (2, 4) else original(d, n)  # noqa: E731
    monkeypatch.setattr(verify, "dense_twirl_overlaps", served)


@perturbs("dense_overlap_zero_outside_window", "padded_product_equals_partial_trace_pairing")
def test_perturbed_literal_pairing_fails_with_exact_text(monkeypatch):
    # lam' = (2,2) lies outside the k = 1 window of lam = (4): one unit of the
    # pairing is the overlap s_lam s_lam' / d^k = 1/144
    bump_pairing(monkeypatch, "literal", frame(4), 1, frame(2, 2))
    assert run_checks() == {
        "dense_overlap_zero_outside_window": ["d=2 lam=4,0 lam'=2,2 k=1: overlap 1/144 != 0"],
        "padded_product_equals_partial_trace_pairing": ["d=2 lam=4,0 k=1 lam'=2,2: 1/144 != 0"],
    }


@perturbs(
    "padded_product_equals_partial_trace_pairing",
    "fast_path_equals_oracle_twirl_spectra",
    "fast_path_equals_oracle_channel_spectra",
)
def test_perturbed_paired_pairing_fails_with_exact_text(monkeypatch):
    bump_pairing(monkeypatch, "paired", frame(3, 1), 1, frame(2, 2))
    assert run_checks() == {
        "padded_product_equals_partial_trace_pairing": ["d=2 lam=3,1 k=1 lam'=2,2: 3/2 != 73/48"],
        "fast_path_equals_oracle_twirl_spectra": [
            "d=2 lam=3,1 k=1 lam'=2,2: 3/2 != 73/48",
            "normalized d=2 lam=3,1 k=1 lam'=2,2: 1/6 != 73/432",
        ],
        "fast_path_equals_oracle_channel_spectra": [
            "d=2 lam=3,1 q=1/2 lam'=2,2: 17/128 != 461/3456",
            "d=2 lam=3,1 q=1/3 lam'=2,2: 235/1944 != 2131/17496",
        ],
    }


@perturbs("fast_path_equals_oracle_twirl_spectra", "engine_weight_zero_outside_window")
def test_perturbed_fast_path_numerator_fails_with_exact_text(monkeypatch):
    # the numerator of lam' = (2,2) in the k = 1 twirl of lam = (4), wherever the fast path reads it;
    # the channel spectra push on their own route, so only the twirl and support checks see it
    real = spectra.twirl_spectra

    def bumped(lam, ks, d):
        ks = list(ks)
        out = real(lam, ks, d)
        if (lam, d) == (frame(4), 2):
            for table, k in zip(out, ks):
                if k == 1:
                    table.numerators[2] += dim_unitary(lam, d)  # one more in the sum over mu
        return out

    monkeypatch.setattr(spectra, "twirl_spectra", bumped)
    monkeypatch.setattr(verify, "twirl_spectra", bumped)
    assert run_checks() == {
        "fast_path_equals_oracle_twirl_spectra": [
            "d=2 lam=4,0 k=1 lam'=2,2: 5/8 != 0",
            "normalized d=2 lam=4,0 k=1 lam'=2,2: 1/8 != 0",
        ],
        "engine_weight_zero_outside_window": ["d=2 lam=4,0 lam'=2,2 k=1: engine weight nonzero"],
    }


@perturbs(
    "fast_path_equals_oracle_twirl_spectra",
    "fast_path_equals_oracle_channel_spectra",
    "engine_weight_zero_outside_window",
)
def test_bumped_packed_field_fails_only_its_own_k_and_q(monkeypatch):
    # one unit in field 1 of lam' = (2,2) in every push from lam = (4) that packs more than one field,
    # added between the push and its unpacking: field 1 is k = 1 of the all-k twirl and q = 1/3 of the
    # channel grid; field 0 (k = 0, q = 1/2) stays exact, so nothing bleeds between fields
    real_push, real_unpack = spectra._push, spectra._unpack
    from_source = []

    def pushed(lam, d, injections):
        values = real_push(lam, d, injections)
        if (lam, d) == (frame(4), 2):
            from_source.append(values)
        return values

    def bumped(width, fields, values):
        if fields > 1 and any(values is v for v in from_source):
            values[2] += 1 << width
        return real_unpack(width, fields, values)

    monkeypatch.setattr(spectra, "_push", pushed)
    monkeypatch.setattr(spectra, "_unpack", bumped)
    assert run_checks() == {
        "fast_path_equals_oracle_twirl_spectra": ["d=2 lam=4,0 k=1 lam'=2,2: 5/8 != 0"],
        "fast_path_equals_oracle_channel_spectra": [
            # one unit of the field is 1 / (L b^n d^n f_lam) = 1 / (60 * 81 * 16)
            "total d=2 4,0 q=1/3: 77761/77760 != 1",
            "d=2 lam=4,0 q=1/3 lam'=2,2: 3001/77760 != 25/648",
        ],
        "engine_weight_zero_outside_window": ["d=2 lam=4,0 lam'=2,2 k=1: engine weight nonzero"],
    }


@perturbs("branching_chains_disjoint_outside_window", "xy_empty_iff_chains_disjoint")
def test_connected_chain_outside_window_fails_with_exact_text(monkeypatch):
    # lam' = (2,2) lies outside the k = 1 window of lam = (4); a chain search that claims a
    # common middle frame there fails the chain check and disagrees with the empty X
    real = verify.branching_disjoint

    def joined(lam, lam_p, l, k, d):
        return False if (lam, lam_p, k, d) == (frame(4), frame(2, 2), 1, 2) else real(lam, lam_p, l, k, d)

    monkeypatch.setattr(verify, "branching_disjoint", joined)
    assert failures([verify.check_chains_disjoint_outside_window([(2, 4)])]) == {
        "branching_chains_disjoint_outside_window": ["d=2 lam=4,0 lam'=2,2 k=1: common chain exists"],
    }
    assert failures([verify.check_xy_empty_iff_chains_disjoint(4)]) == {
        "xy_empty_iff_chains_disjoint": ["n=4 lam=4,0 lam'=2,2 k=1: True != False"],
    }


@perturbs("xy_extrema_within_entropy_bound")
def test_inflated_extremal_product_fails_with_exact_text(monkeypatch):
    # X = 1 at lam' = (3,1), k = 2 from the source (4), under the bound 2**(2 h(1/2)) = 4;
    # a hundredfold X breaks the bound but not the emptiness of X, which the iff check reads
    real = spectra.xy_optimize

    def inflated(lam, lam_p, l, k, d):
        extrema = real(lam, lam_p, l, k, d)
        return dataclasses.replace(extrema, x=100 * extrema.x) if (lam_p, k) == (frame(3, 1), 2) else extrema

    monkeypatch.setattr(spectra, "xy_optimize", inflated)
    assert failures([verify.check_xy_entropy_bound(4)]) == {
        "xy_extrema_within_entropy_bound": ["n=4 lam'=3,1 k=2: X=100 bound=4.0"],
    }
    assert failures([verify.check_xy_empty_iff_chains_disjoint(4)]) == {}


@perturbs("projector_pair_domination_psd")
def test_dropped_dominating_pair_fails_with_exact_text(monkeypatch):
    # (2) x (1) is one of the two pairs whose projectors dominate P_(2,1) at the split
    # 2 + 1; without it the sum misses part of the range of P_(2,1), so the
    # difference has a negative direction and only that split fails
    real = verify.lr_nonzero_pairs

    def dropped(lam, k, d):
        pairs = real(lam, k, d)
        if (lam, k, d) == (frame(2, 1), 1, 2):
            assert (frame(2), frame(1)) in pairs
            pairs = [pair for pair in pairs if pair != (frame(2), frame(1))]
        return pairs

    monkeypatch.setattr(verify, "lr_nonzero_pairs", dropped)
    assert failures([verify.check_projector_domination(3)]) == {
        "projector_pair_domination_psd": ["lam=2,1 split 2+1: domination difference not PSD"],
    }


@perturbs("projector_algebra")
def test_wrong_projector_square_fails_with_exact_text(monkeypatch):
    # the product P_(2,1) @ P_(2,1) at (2, 3) comes back doubled; the trace, symmetry,
    # sum and orthogonality records read no product, so only idempotence fails
    p = oracle.isotypical_projectors(2, 3)[frame(2, 1)]
    real = oracle.TensorOperator.__matmul__

    def doubled(a, b):
        return 2 * real(a, b) if a is p and b is p else real(a, b)

    monkeypatch.setattr(oracle.TensorOperator, "__matmul__", doubled)
    assert failures([verify.check_projector_algebra([(2, 3)])]) == {
        "projector_algebra": ["d=2 n=3 2,1: not idempotent"],
    }


@perturbs("projector_algebra")
def test_raised_projector_pairing_fails_orthogonality_with_exact_text(monkeypatch):
    # the pairing of P_(3) with P_(2,1) at (2, 3) raised by 1: both scales are 1/3, so
    # tr(P Q) reads 1/9; the other records read no pairing
    p = oracle.isotypical_projectors(2, 3)[frame(3)]
    real = oracle.TensorOperator.pairings

    def raised(a, others):
        out = real(a, others)
        return [out[0] + 1, *out[1:]] if a is p else out

    monkeypatch.setattr(oracle.TensorOperator, "pairings", raised)
    assert failures([verify.check_projector_algebra([(2, 3)])]) == {
        "projector_algebra": ["d=2 n=3: 3,0 and 2,1 not orthogonal: 1/9 != 0"],
    }


@perturbs("pinsker_and_dimension_entropy_bound")
def test_shrunk_relative_entropy_fails_pinsker_with_exact_text(monkeypatch):
    # D(r||s) at 0.6 of its value drops below l1^2 / (2 ln 2) at 48 of the 81 pairs of
    # eighths; the 48 dimension bounds read no entropy and all pass
    real = verify.rel_entropy
    monkeypatch.setattr(verify, "rel_entropy", lambda r, s: 0.6 * real(r, s))
    result = verify.check_entropy_bounds(tuple(Fraction(i, 8) for i in range(9)), 12)
    assert (result.checked, result.failed) == (129, 48)
    assert result.failures == [
        "Pinsker fails at r0=0 s0=1/2",
        "Pinsker fails at r0=0 s0=5/8",
        "Pinsker fails at r0=0 s0=3/4",
        "Pinsker fails at r0=0 s0=7/8",
        "Pinsker fails at r0=1/8 s0=1/4",
    ]


@perturbs("tail_bound_dominates_measured_weight")
def test_lowered_tail_exponent_fails_with_exact_text(monkeypatch):
    # three bits off the exponent put the bound below the weight of lam' = (2,0) from (1,1)
    # at n = 2 for three q; every other far pair up to n = 12 has more margin than that
    real = verify._tail_exponent
    monkeypatch.setattr(verify, "_tail_exponent", lambda ratio, q, n: real(ratio, q, n) - 3)
    result = verify.check_tail_bound(12, verify.DEFAULT_Q_GRID)
    assert (result.checked, result.failed) == (316, 3)
    assert result.failures == [
        "n=2 q=1/5 lam=1,1 lam'=2,0: 0.27 > 2**-1.9344077139988707",
        "n=2 q=3/10 lam=1,1 lam'=2,0: 0.3825 > 2**-1.6458687058210781",
        "n=2 q=2/5 lam=1,1 lam'=2,0: 0.48 > 2**-1.4727453009144025",
    ]


@perturbs("schur_weyl_dimension_identity")
def test_raised_unitary_dimension_fails_the_dimension_identity(monkeypatch):
    # dim U of (2,1) at d = 3 one too high, as verify reads it: f_(2,1) = 2 extra on d^3 = 27,
    # and only the size that holds that frame fails
    real = verify.dim_unitary
    monkeypatch.setattr(verify, "dim_unitary", lambda lam, d: real(lam, d) + ((lam, d) == (frame(2, 1), 3)))
    result = verify.check_dimension_identity([(2, 6), (3, 6), (4, 6)])
    assert (result.checked, result.failures) == (21, ["d=3 n=3: 29 != 27"])


@perturbs("output_mode_matches_oracle")
def test_tripled_lattice_dimension_moves_the_fast_path_mode(monkeypatch):
    # dim U of (3,1) at (2, 4) tripled in the lattice level the fast path reads: the engine's
    # weight of (3,1) triples and overtakes (4) at three q; the oracle still reads (4)
    real = spectra._checked_level

    def tripled(d, m):
        level = real(d, m)
        if (d, m) != (2, 4):
            return level
        bumped = copy.copy(level)
        unitary = list(level.unitary)
        unitary[level.index[(3, 1)]] *= 3
        bumped.unitary = tuple(unitary)
        return bumped

    monkeypatch.setattr(spectra, "_checked_level", tripled)
    assert verify.check_output_mode(4, verify.DEFAULT_Q_GRID).failures == [
        "mode at n=4 q=3/10: 3,1 != 4,0",
        "mode at n=4 q=2/5: 3,1 != 4,0",
        "mode at n=4 q=1/2: 3,1 != 4,0",
    ]


@perturbs("branching_table_matches_dense_partial_trace", "twirl_pair_expansion")
def test_raised_lr_coefficient_fails_both_lr_route_checks(monkeypatch):
    # c^(2,1)_{(1),(1,1)} = 1 raised to 2 where spectra reads it: the branching table of (2,1) at
    # k = 2 and the pair expansion of (1) x (1,1) each gain a term the dense operators lack, at
    # every d; the reversed triple c^(2,1)_{(1,1),(1)} is left alone, so k = 1 passes
    real = spectra.lr_coefficient
    raised = (frame(2, 1), frame(1), frame(1, 1))
    monkeypatch.setattr(spectra, "lr_coefficient", lambda lam, mu, nu: real(lam, mu, nu) + ((lam, mu, nu) == raised))
    sizes = [(2, 3), (3, 3), (4, 3)]
    assert failures([verify.check_branching_table(sizes), verify.check_twirl_pair_expansion(sizes)]) == {
        "branching_table_matches_dense_partial_trace": [
            "d=2 lam=2,1 k=2",
            "d=3 lam=2,1,0 k=2",
            "d=4 lam=2,1,0,0 k=2",
        ],
        "twirl_pair_expansion": [
            "d=2 mu=1,0 gamma=1,1 (n=3)",
            "d=3 mu=1,0,0 gamma=1,1,0 (n=3)",
            "d=4 mu=1,0,0,0 gamma=1,1,0,0 (n=3)",
        ],
    }


@perturbs("lr_tableaux_vs_characters")
def test_raised_class_weight_fails_the_character_cross_check(monkeypatch):
    # S_1 x S_1 has one class pair, of weight 1; at 2 the character route doubles both
    # c^lam_{(1),(1)} of n = 2, and the checks that read no characters pass
    real = lr._class_pairs

    def raised(l, k):
        pairs = real(l, k)
        if (l, k) == (1, 1):
            [(c1, c2, merged, weight)] = pairs
            pairs = ((c1, c2, merged, weight + 1),)
        return pairs

    monkeypatch.setattr(lr, "_class_pairs", raised)
    assert failures(verify.check_lr_coefficients(2, 3)) == {
        "lr_tableaux_vs_characters": ["c^2,0_1,0,1,0: 1 != 2", "c^1,1_1,0,1,0: 1 != 2"],
    }


@perturbs("lr_tableaux_vs_characters", "lr_restriction_dimension_identity", "lr_symmetry")
def test_raised_ordered_lr_coefficient_fails_the_lr_checks(monkeypatch):
    # c^(2,1)_{(1),(1,1)} = 1 raised to 2 where verify reads it, the reversed triple left alone:
    # the characters disagree once, symmetry at both orders, and the restriction of (2,1) to
    # 1 + 2 gains f_(1) f_(1,1) = 1; feasibility reads only c > 0 and passes
    real = verify.lr_coefficient
    raised = (frame(2, 1), frame(1), frame(1, 1))
    monkeypatch.setattr(verify, "lr_coefficient", lambda lam, mu, nu: real(lam, mu, nu) + ((lam, mu, nu) == raised))
    assert failures(verify.check_lr_coefficients(2, 3)) == {
        "lr_tableaux_vs_characters": ["c^2,1_1,0,1,1: 2 != 1"],
        "lr_restriction_dimension_identity": ["restriction 2,1 split 1+2: 3 != 2"],
        "lr_symmetry": ["symmetry 2,1|1,0,1,1: 2 != 1", "symmetry 2,1|1,1,1,0: 1 != 2"],
    }


@perturbs("lr_two_row_multiplicity_free")
def test_coefficient_of_two_fails_the_two_row_check(monkeypatch):
    # the same ordered triple raised to 2 is the one two-row coefficient above 1 up to n = 4
    real = verify.lr_coefficient
    raised = (frame(2, 1), frame(1), frame(1, 1))
    monkeypatch.setattr(verify, "lr_coefficient", lambda lam, mu, nu: real(lam, mu, nu) + ((lam, mu, nu) == raised))
    result = verify.check_two_row_multiplicity_free(4)
    assert (result.checked, result.failures) == (71, ["c^2,1_1,0,1,1 = 2"])


@perturbs("horn_necessity_of_basic_inequalities")
def test_basic_inequalities_refused_on_a_feasible_triple_fail_necessity(monkeypatch):
    # c^(2,1)_{(1),(1,1)} = 1 > 0, yet the basic inequalities are read as failing there;
    # feasibility reads no inequality and passes
    real = verify.basic_horn_holds
    refused = (frame(2, 1), frame(1), frame(1, 1))
    monkeypatch.setattr(verify, "basic_horn_holds", lambda *triple: triple != refused and real(*triple))
    assert failures(verify.check_lr_coefficients(2, 3)) == {
        "horn_necessity_of_basic_inequalities": ["c>0 but basic inequalities fail: 2,1|1,0,1,1"],
    }


@perturbs("partial_trace_properties")
def test_doubled_trace_term_fails_partial_trace_properties(monkeypatch):
    # the trace over sites 0 and 2 of three sites reads the z = 0 terms in place of z = 3;
    # three of the four seeded draws change trace, the fourth happens to keep it, and
    # the full trace and the padded trace read other maps
    real = oracle._trace_maps

    def doubled(d, n, sites):
        maps = real(d, n, sites)
        if (d, n, sites) == (2, 3, (0, 2)):
            maps = maps.copy()
            maps[-1] = maps[0]
        return maps

    monkeypatch.setattr(oracle, "_trace_maps", doubled)
    result = verify.check_partial_trace_properties(4, random.Random(0))
    assert (result.checked, result.failures) == (13, [
        "trace preservation: 12/7 != 8/7",
        "trace preservation: -48/5 != -4",
        "trace preservation: 11 != 2",
    ])


@perturbs("twirl_properties")
def test_raised_orbit_factor_fails_twirl_properties(monkeypatch):
    # orbit 0 of (2, 3) is the pair (000, 000) alone, met n!/1 = 6 times by the group sum; met 7
    # times, it moves the trace of the draw, breaks idempotence and moves P_(3), the one
    # projector nonzero there, and its pairing; (3, 3) is left alone and passes
    real = oracle._pair_orbits

    def raised(d, n):
        orbit, by_orbit, starts, stabiliser = real(d, n)
        if (d, n) == (2, 3):
            assert stabiliser[0] == 6 and list(orbit).count(0) == 1
            stabiliser = stabiliser.copy()
            stabiliser[0] += 1
        return orbit, by_orbit, starts, stabiliser

    monkeypatch.setattr(oracle, "_pair_orbits", raised)
    assert failures([verify.check_twirl_properties([(2, 3), (3, 3)], random.Random(0))]) == {
        "twirl_properties": [
            "d=2: twirl trace: 4/3 != 8/7",
            "d=2: twirl not idempotent",
            "d=2 3,0: projector not twirl-invariant",
            "d=2 3,0: overlap changed by twirl: 16/7 != 44/21",
        ],
    }


@perturbs("depolarise_channel_identities")
def test_wrong_site_sum_fails_channel_identities(monkeypatch):
    # the one site map of (2, 3), which every pass of the channel reads, sums the letter-0
    # entries twice and the letter-1 entries never: q = 0 never reads the sum and the PSD record
    # still holds; the other seven records at d = 2 fail (five reported), and (3, 3) is left
    # alone and passes
    real = oracle._site_maps

    def wrong(d, n):
        agree, summed = real(d, n)
        if (d, n) == (2, 3):
            summed = summed.copy()
            summed[1] = summed[0]
        return agree, summed

    monkeypatch.setattr(oracle, "_site_maps", wrong)
    result = verify.check_channel_identities([(2, 3), (3, 3)], random.Random(0))
    assert (result.checked, result.failed) == (20, 7)
    assert result.failures == [
        "d=2: q=1 not fully mixing",
        "d=2 q=1/3: trace not preserved: 16/7 != 8/7",
        "d=2 q=1/2: trace not preserved: 20/7 != 8/7",
        "d=2 lam=3,0 q=1/4: channel != binomial twirl sum",
        "d=2 lam=3,0 q=2/3: channel != binomial twirl sum",
    ]


def test_channel_identities_twirl_each_padded_reduction_once(monkeypatch):
    # the n + 1 padded reductions of a projector are twirled once and mixed for each q, not once per q
    twirled = []
    real = oracle.twirl
    monkeypatch.setattr(oracle, "twirl", lambda a: twirled.append(a) or real(a))
    result = verify.check_channel_identities([(2, 3)], random.Random(0))
    assert result.passed
    assert len(twirled) == len(oracle.isotypical_projectors(2, 3)) * (3 + 1)


@perturbs("permutation_representation")
def test_transposition_read_as_identity_fails_permutation_representation(monkeypatch):
    # the word map behind B((1,0,2)) at d = 2 is the identity's: a pair of S_3 fails when
    # exactly one of s, t and st is that transposition (12 of 36); d = 3 and the random
    # pairs at n = 4 read other maps and pass
    real = oracle._word_map

    def as_identity(images, d):
        return real((0, 1, 2) if (images, d) == ((1, 0, 2), 2) else images, d)

    monkeypatch.setattr(oracle, "_word_map", as_identity)
    result = verify.check_permutation_representation(3, 4, random.Random(0))
    assert (result.checked, result.failed) == (78, 12)
    assert result.failures == [
        "d=2: B((0, 2, 1))B((1, 0, 2)) != B(product)",
        "d=2: B((0, 2, 1))B((2, 0, 1)) != B(product)",
        "d=2: B((1, 0, 2))B((0, 2, 1)) != B(product)",
        "d=2: B((1, 0, 2))B((1, 2, 0)) != B(product)",
        "d=2: B((1, 0, 2))B((2, 0, 1)) != B(product)",
    ]


@perturbs("projector_commutes_with_permutations")
def test_projector_plus_a_transposition_fails_projector_commutation(monkeypatch):
    # P_(2,1) of (2, 3) is served with B((1,0,2)) added: conjugating by tau moves that term to
    # B(tau (1,0,2) tau^-1), so the four tau that do not commute with it fail; (3, 3) passes
    real = oracle.isotypical_projectors

    def perturbed(d, n):
        family = real(d, n)
        if (d, n) == (2, 3):
            family = dict(family)
            family[frame(2, 1)] = family[frame(2, 1)] + oracle.perm_operator(Permutation((1, 0, 2)), 2)
        return family

    monkeypatch.setattr(oracle, "isotypical_projectors", perturbed)
    assert failures([verify.check_projector_commutation([(2, 3), (3, 3)], random.Random(0))]) == {
        "projector_commutes_with_permutations": [
            "d=2 n=3 2,1: fails for (0, 2, 1)",
            "d=2 n=3 2,1: fails for (1, 2, 0)",
            "d=2 n=3 2,1: fails for (2, 0, 1)",
            "d=2 n=3 2,1: fails for (2, 1, 0)",
        ],
    }


def test_failure_past_the_digit_limit_is_recorded(default_digit_limit, monkeypatch):
    # q = 0.1...1 with 5000 ones: numerator and denominator pass the interpreter's 4300-digit
    # int-to-str limit, so a failure that names q is written through frames.integer_text
    q = Fraction((10**5000 - 1) // 9, 10**5000)
    digits = "1" * 5000 + "/1" + "0" * 5000
    result = verify.CheckResult("x")
    result.expect_equal(q, Fraction(0), "q={}", q)
    result.expect_equal(Fraction(58, 2), 27, "whole")
    assert result.failures == [f"q={digits}: {digits} != 0", "whole: 29 != 27"]
    real = verify._tail_exponent
    monkeypatch.setattr(verify, "_tail_exponent", lambda ratio, q, n: real(ratio, q, n) - 30)
    tail = verify.check_tail_bound(3, (q,))
    # the four far pairs of n = 2 and 3 all fail, each described with every digit of q
    assert tail.checked == tail.failed == 4
    assert [text.split(" lam=")[0] for text in tail.failures] == [f"n={n} q={digits}" for n in (2, 2, 3, 3)]


def mutant(monkeypatch, module, old, new):
    """A fresh copy of ``module`` with the one occurrence of ``old`` in its source replaced by ``new``."""
    source = inspect.getsource(module)
    assert source.count(old) == 1, old
    name = f"{module.__name__}_mutant"
    copy = types.ModuleType(name)
    copy.__package__ = module.__package__
    monkeypatch.setitem(sys.modules, name, copy)
    exec(compile(source.replace(old, new), module.__file__, "exec"), copy.__dict__)
    return copy


FAST_PATH_CHECKS = {"fast_path_equals_oracle_twirl_spectra", "fast_path_equals_oracle_channel_spectra"}


@pytest.mark.parametrize(
    "module, old, new, failing",
    [
        # d^k left out of the dense scale s_i s_j / d^k: the two dense routes still
        # agree with each other, not with the fast path
        (verify, "math.factorial(self.n) ** 2 * self.d**k", "math.factorial(self.n) ** 2", FAST_PATH_CHECKS),
        # b^n left out of the dense channel weight's denominator
        (verify, "dim_unitary(lam, d) * q.denominator**n", "dim_unitary(lam, d)",
         {"fast_path_equals_oracle_channel_spectra"}),
        # d^k left out of the twirl's common denominator: the channel push does not read it
        (spectra, "commons[n - k] * d**k, list(", "commons[n - k], list(", {"fast_path_equals_oracle_twirl_spectra"}),
        # d^m left out of the channel push's level weight C(n,m) a^(n-m) ((b-a) d)^m: the twirl does not read it
        (spectra, "kept = (b - a) * d", "kept = (b - a)", {"fast_path_equals_oracle_channel_spectra"}),
    ],
)
def test_dropped_power_fails_a_check(monkeypatch, module, old, new, failing):
    copy = mutant(monkeypatch, module, old, new)
    if module is spectra:
        for name in ("twirl_spectra", "twirl_spectrum", "channel_output_spectra"):
            monkeypatch.setattr(verify, name, getattr(copy, name))
        copy = verify
    assert set(run_checks(copy)) == failing


def test_window_starts_match_the_window_at_every_k():
    # lam' lies outside the (d-1)k window of lam, read row by row, exactly for the k below its start
    for d in (1, 2, 3, 4):
        for n in range(0, 17):
            frames = enumerate_frames(d, n)
            for lam in frames:
                for lam_p, start in zip(frames, horn._window_starts(lam, frames, d)):
                    assert [k < start for k in range(n + 1)] == [
                        not within_window_by_rows(lam, lam_p, d, k) for k in range(n + 1)
                    ], (d, lam, lam_p)


def test_verify_all_counts_match_benchmark_reference():
    # the per-check counts the benchmark's verify-all workload expects of `verify all --cap-n 6`
    reference = json.loads(VERIFY_COUNTS.read_text())
    report = verify.run_suite("all", verify.RunConfig(n_max=6))
    assert report.passed
    assert {c.name: c.checked for c in report.checks} == reference
    assert sum(reference.values()) == 9708


def test_size_rows_above_the_default_cap_run_to_their_ends():
    # no reference pins a count past --cap-n 6: these two runs reach the ends of the chain row
    # {2: 7, 3: 7, 4: 7} and the xy row {2: 10}, so raising either row changes a count here
    support = verify.run_suite("support", verify.RunConfig(n_max=8, d_max=4))
    assert support.passed
    assert {c.name: c.checked for c in support.checks} == {
        "dense_overlap_zero_outside_window": 250,
        "engine_weight_zero_outside_window": 870,
        "branching_chains_disjoint_outside_window": 474,
        "support_growth_monotone_report": 678,
        "projector_pair_domination_psd": 77,
    }
    xybound = verify.run_suite("xybound", verify.RunConfig(n_max=11, d_max=2))
    assert xybound.passed
    assert {c.name: c.checked for c in xybound.checks} == {
        "xy_extrema_within_entropy_bound": 325,
        "xy_empty_iff_chains_disjoint": 594,
    }


def test_every_report_has_a_perturbation_test():
    # every report name of the registry has a test above that makes its check fail, or a stated reason why none can
    names = {check.name for check in verify.CHECKS}
    assert PERTURBED.isdisjoint(UNPERTURBED)
    assert PERTURBED | set(UNPERTURBED) == names, names - PERTURBED - set(UNPERTURBED)


def test_registry_lists_every_report_without_running_it():
    # the report names of `verify all`, in order, read from the records alone
    golden = [check["name"] for check in json.loads(GOLDEN_REPORT.read_text())["checks"]]
    names = [f"{check.suite}/{check.name}" for check in verify.CHECKS]
    assert names == golden and len(set(names)) == len(names) == 28
    assert list(verify.SUITES) == ["saturation", "support", "oracle", "tail", "xybound"]
    for a in verify.CHECKS:
        assert all(a.row is b.row for b in verify.CHECKS if a.call is b.call), a.name
    # the RunConfig bounds are the extent of the rows
    for field, bad, good in (("d_max", (1, 5), (2, 4)), ("n_max", (0, 65), (1, 64))):
        for value in bad:
            with pytest.raises(ValueError, match=f"{field} must lie in {good[0]}..{good[1]}"):
                verify.RunConfig(**{field: value})
        for value in good:
            assert getattr(verify.RunConfig(**{field: value}), field) == value


def test_each_job_runs_once(monkeypatch):
    # `verify all` sweeps the LR triples twice: once for the five LR and Horn reports, once for the
    # two-row check; the projector algebra pairs each projector with the later ones in one call; the
    # outside-window check reads a dense overlap as a weight only to describe a failure
    calls = {}

    def counting(owner, name):
        real = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    for owner, name in ((verify, "_lr_triples"), (oracle.TensorOperator, "pairings"),
                        (oracle.TensorOperator, "hs_product"), (verify.DenseOverlaps, "twirl")):
        counting(owner, name)
    assert verify.run_suite("all", verify.RunConfig(n_max=3)).passed
    assert calls["_lr_triples"] == 2
    calls.clear()
    sizes = [(2, 4), (3, 3)]
    assert verify.check_projector_algebra(sizes).passed
    assert calls == {"pairings": sum(len(enumerate_frames(d, n)) for d, n in verify._each_size(sizes))}
    assert verify.check_dense_overlap_outside_window([(2, 4)]).passed
    assert "twirl" not in calls
    bump_pairing(monkeypatch, "literal", frame(4), 1, frame(2, 2))
    assert not verify.check_dense_overlap_outside_window([(2, 4)]).passed
    assert calls["twirl"] == 1
