"""Acceptance criteria, one test per criterion, at their stated sizes.

Each test runs the ``verify`` suite checks that state its criterion, at the
criterion's sizes rather than a suite's ``RunConfig`` caps, so every check is
written once.  Assertions no suite makes (time budgets, the literal dense
channel, oracle weights summing to one) stay here.  Tolerances live in the
checks: exact equality for all rational quantities, 1e-12 log-domain slack
where a float bound meets an exact integer or rational.  Each test prints a
single pass line on success.
"""

import math
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from isotwirl import oracle as orc
from isotwirl import verify
from isotwirl.frames import dim_sym, dim_unitary, enumerate_frames, frame
from isotwirl.spectra import channel_output_spectrum

Q_ORACLE = (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1))
Q_TENTHS = tuple(Fraction(i, 10) for i in range(1, 10))
DENSE_SIZES = [(2, 8), (3, 6)]
GOLDEN_REPORT = Path(__file__).parent / "data" / "verify_all_cap5.json"


def report(num: int, text: str) -> None:
    print(f"[acceptance] criterion {num}: PASS - {text}")


def assert_passed(*results: verify.CheckResult) -> None:
    for result in results:
        assert result.passed, (result.name, result.failures)


def test_c01_schur_weyl_dimension_identity():
    start = time.monotonic()
    assert_passed(verify.check_dimension_identity([(2, 10), (3, 7)]))
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"identity sweep took {elapsed:.2f}s (budget 1s)"
    report(1, f"sum of dim products equals d**n for d=2 n<=10, d=3 n<=7 in {elapsed:.2f}s")


def test_c02_lr_cross_validation():
    start = time.monotonic()
    results = verify.check_lr_coefficients(3, 8)
    assert_passed(*results)
    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"LR sweep took {elapsed:.1f}s (budget 120s)"
    report(2, f"{results[0].checked} triples: tableau count = character oracle, "
              f"restriction identity, symmetry, {elapsed:.1f}s")


def test_c03_support_window_exact_zero():
    result = verify.check_dense_overlap_outside_window(DENSE_SIZES)
    assert_passed(result)
    report(3, f"dense overlap exactly 0 in all {result.checked} outside-window cases")


def test_c04_fast_path_equals_dense_oracle():
    # literal dense channel on flat states at small sizes
    for d, n_max in ((2, 5), (3, 3)):
        for n in range(1, n_max + 1):
            family = orc.isotypical_projectors(d, n)
            for lam in enumerate_frames(d, n):
                flat = Fraction(1, dim_sym(lam) * dim_unitary(lam, d)) * family[lam]
                for q in Q_ORACLE:
                    dense_out = orc.depolarise_n(flat, q)
                    table = channel_output_spectrum(lam, q, d)
                    for lam_p in enumerate_frames(d, n):
                        assert table.weight(lam_p) == family[lam_p].hs_product(dense_out)

    # the literal channel equals the binomial sum of twirled reductions
    # (the identity that lets the full-size check below use dense reductions)
    for d, n in ((2, 6), (3, 4)):
        family = orc.isotypical_projectors(d, n)
        for lam in enumerate_frames(d, n):
            p = family[lam]
            q = Fraction(1, 3)
            literal = orc.depolarise_n(p, q)
            recon = orc.TensorOperator.zero(d, n)
            for k in range(n + 1):
                w = math.comb(n, k) * q**k * (1 - q) ** (n - k)
                reduced = p.partial_trace(range(n - k, n))
                recon = recon + w * orc.twirl(orc.tensor_with_maximally_mixed(reduced, k))
            assert literal == recon, (d, str(lam))

    # full-size agreement of both spectra against literal dense overlaps
    assert_passed(*verify.check_fast_path_against_oracle(DENSE_SIZES, Q_ORACLE))
    report(4, "twirl and channel spectra equal the dense oracle as exact rationals "
              "(d=2 n<=8, d=3 n<=6, all k, q in {0,1/4,1/2,3/4,1})")


def test_c05_tail_bound_dominates():
    result = verify.check_tail_bound(64, Q_TENTHS)  # superset of the required n in {6, 8, 10}
    assert_passed(result)
    report(5, f"exponential bound dominates all {result.checked} far pairs (n <= 64, q in tenths)")


def test_c06_horn_necessity_and_saturation():
    assert_passed(*verify.check_horn_inequalities(3, 8))
    report(6, "basic inequalities necessary, feasibility = LR positivity (d<=3, n<=8)")


def test_c07_xy_entropy_bound_exhaustive():
    assert_passed(verify.check_xy_entropy_bound(10))
    report(7, "X <= 2**(k*h(lam'_2/k)) and X = 0 beyond the window (d=2, n<=10, exhaustive)")


def test_c08_projector_pair_domination_psd():
    assert_passed(verify.check_projector_domination(8))
    report(8, "sum of admitted projector pairs dominates P_lam (exact PSD factorization, d=2 n<=8)")


def test_c09_concentration_mode_matches_oracle():
    lines = []
    for n in (8, 10):
        result = verify.check_output_mode(n, Q_TENTHS, factorial_cap=n)
        assert_passed(result)
        # the dense weights of each q, mixed from the pairings the check read, total exactly 1
        overlaps = verify.dense_twirl_overlaps(2, n, factorial_cap=n)
        norm = dim_sym(frame(n)) * dim_unitary(frame(n), 2)
        totals = [
            sum(
                math.comb(n, k) * q**k * (1 - q) ** (n - k) * overlaps[frame(n), k, lam_p][1]
                for k in range(n + 1)
                for lam_p in enumerate_frames(2, n)
            ) / norm
            for q in Q_TENTHS
        ]
        assert totals == [1] * len(Q_TENTHS)
        for mode in result.info["modes"]:
            lines.append(
                f"n={n} q={mode['q']}: mode row1={mode['mode_row1']} "
                f"(half-weight reference n*q/2={mode['half_weight_reference']:.1f}, "
                f"complement n*(1-q/2)={mode['complement_reference']:.1f})"
            )
    orc.clear_projector_cache()
    for line in lines:
        print("[acceptance] criterion 9 report:", line)
    report(9, "output mode matches the dense oracle exactly (d=2, n in {8,10}); "
              "mode tracks n*(1-q/2), not n*q/2 (reported, not asserted)")


def test_c10_verify_all_deterministic(tmp_path):
    outputs = []
    for name in ("first.json", "second.json"):
        out = tmp_path / name
        res = subprocess.run(
            [sys.executable, "-m", "isotwirl.cli", "verify", "all",
             "--cap-n", "5", "--out", str(out)],
            capture_output=True, text=True,
        )
        assert res.returncode == 0, res.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    assert outputs[0] == GOLDEN_REPORT.read_bytes()
    report(10, "two `verify all` runs with identical config produced byte-identical reports, "
               "equal to the recorded report")
