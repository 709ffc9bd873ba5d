import math
from fractions import Fraction

import pytest

from bruteforce import (
    content_product_by_boxes,
    count_semistandard_tableaux,
    count_standard_tableaux,
    hook_product_by_boxes,
    partitions_of,
)
from isotwirl.frames import (
    MAX_BOXES,
    ProbabilityPair,
    YoungFrame,
    binary_entropy,
    depolarising_weight,
    dim_sym,
    dim_unitary,
    enumerate_frames,
    exact_rational,
    frame,
    format_frame,
    parse_frame,
    rel_entropy,
    _dim_sym,
    _dim_unitary,
    _hook_product,
    _skew_counts,
    within_entropy_bound,
)
from isotwirl import spectra
from isotwirl.verify import (
    check_dimension_identity,
    check_entropy_bounds,
    check_fast_path_against_oracle,
    check_tail_bound,
    check_twirl_support,
)


def test_frame_identity_ignores_trailing_zeros():
    assert frame(3, 1) == frame(3, 1, 0)
    assert hash(frame(3, 1)) == hash(frame(3, 1, 0, 0))
    assert frame(3, 1) != frame(3, 1, 1)
    assert frame() == frame(0, 0)


def test_frame_validation():
    with pytest.raises(ValueError):
        YoungFrame((1, 2))
    with pytest.raises(ValueError):
        YoungFrame((2, -1))


def test_frame_padding_and_rows():
    lam = frame(4, 2, 1)
    assert lam.padded(4) == (4, 2, 1, 0)
    assert lam.row(0) == 4 and lam.row(5) == 0
    assert lam.num_rows == 3 and lam.n == 7
    with pytest.raises(ValueError):
        lam.padded(2)


def test_parse_and_format():
    assert parse_frame("4,2,1") == frame(4, 2, 1)
    assert parse_frame("0") == frame()
    assert format_frame(frame(3, 1), 3) == "3,1,0"
    assert format_frame(frame()) == "0"
    with pytest.raises(ValueError, match="token 2"):
        parse_frame("1,2")
    with pytest.raises(ValueError, match="not an integer"):
        parse_frame("1,x")


def test_enumerate_frames_examples():
    assert enumerate_frames(2, 4) == [frame(4, 0), frame(3, 1), frame(2, 2)]
    assert enumerate_frames(1, 7) == [frame(7)]
    assert len(enumerate_frames(3, 6)) == 7
    assert enumerate_frames(2, 0) == [frame(0, 0)]


def test_enumerate_frames_matches_bruteforce():
    for d in (1, 2, 3, 4):
        for n in range(0, 21):
            got = {f.reduced for f in enumerate_frames(d, n)}
            expect = set(partitions_of(n, max_rows=d))
            if n == 0:
                expect = {()}
            assert got == expect, (d, n)


def test_enumerate_frames_order_is_decreasing_lex():
    for d in (2, 3):
        for n in (5, 7):
            padded = [f.padded(d) for f in enumerate_frames(d, n)]
            assert padded == sorted(padded, reverse=True)


def test_enumerate_frames_caps():
    with pytest.raises(ValueError):
        enumerate_frames(5, 3)
    for d, n in ((1, 129), (2, 129), (3, 37), (4, 25)):
        with pytest.raises(ValueError, match=f"n <= {n - 1} for d={d}"):
            enumerate_frames(d, n)
    with pytest.raises(ValueError):
        enumerate_frames(0, 1)


def test_skew_count_cache_serves_one_source_at_a_time():
    # a spectrum reads the lattice counts of its source frame alone
    grid = (Fraction(0), Fraction(1, 3), Fraction(1))
    lam = frame(5, 3, 1)
    _skew_counts.cache_clear()
    spectra.channel_output_spectra(lam, grid, 3)
    spectra._twirl_numerators(lam, 3, range(lam.n + 1))
    for k in range(lam.n + 1):
        spectra.twirl_spectrum(lam, k, 3)
    assert _skew_counts.cache_info().misses == 1
    # the verify loops finish one source before the next: a sweep over more
    # sources than the cache holds still misses once per source
    sources = lambda d, ns: len({f.reduced for n in ns for f in enumerate_frames(d, n)})  # noqa: E731
    assert sources(2, range(1, 25)) > _skew_counts.cache_info().maxsize
    for check, misses in (
        (lambda: check_twirl_support([(2, 24)]), sources(2, range(1, 25))),
        (lambda: check_tail_bound(24, grid), sources(2, range(2, 25))),
    ):
        _skew_counts.cache_clear()
        check()
        assert _skew_counts.cache_info().misses == misses
    # the cache holds every source of a run at n <= 8, so the later checks compute none again
    _skew_counts.cache_clear()
    check_twirl_support([(4, 8)])
    check_fast_path_against_oracle([(2, 4)], grid)
    check_tail_bound(8, grid)
    assert _skew_counts.cache_info().misses == sources(4, range(1, 9))


def test_dim_sym_examples():
    assert dim_sym(frame(6)) == 1
    assert dim_sym(frame(1, 1, 1)) == 1
    assert dim_sym(frame(2, 1)) == 2 == count_standard_tableaux(frame(2, 1))


def test_dim_sym_matches_tableau_count():
    for n in range(0, 9):
        for parts in partitions_of(n):
            lam = YoungFrame(parts)
            assert dim_sym(lam) == count_standard_tableaux(lam), parts


def test_dim_unitary_examples():
    for d in (1, 2, 3, 4):
        assert dim_unitary(frame(1), d) == d
    for n in range(0, 9):
        assert dim_unitary(frame(n), 2) == n + 1
    assert dim_unitary(frame(2, 2), 2) == 1
    assert dim_unitary(frame(1, 1, 1), 2) == 0


def test_dim_unitary_matches_tableau_count():
    for d in (2, 3):
        for n in range(0, 9):
            for lam in enumerate_frames(3, n):
                assert dim_unitary(lam, d) == count_semistandard_tableaux(lam, d), (str(lam), d)


def test_dimension_formulas_match_box_by_box_products():
    # Frobenius's hook product and the row-by-row content product against the
    # products over every box: each level up to the caps, and YF(n, n) for n <= 12
    shapes = {f.reduced for d, cap in MAX_BOXES.items() for n in range(cap + 1) for f in enumerate_frames(d, n)}
    shapes |= {parts for n in range(13) for parts in partitions_of(n)}
    for red in shapes:
        hooks = hook_product_by_boxes(red)
        assert _hook_product(red) == hooks, red
        assert _dim_sym(red) * hooks == math.factorial(sum(red)), red
        for d in range(1, 7):
            assert _dim_unitary(red, d) * hooks == content_product_by_boxes(red, d), (red, d)


def test_schur_weyl_completeness():
    result = check_dimension_identity([(2, 8), (3, 8)])
    assert result.passed, result.failures


def test_binary_entropy():
    assert binary_entropy(0) == 0.0
    assert binary_entropy(1) == 0.0
    assert binary_entropy(Fraction(1, 2)) == 1.0
    assert abs(binary_entropy(Fraction(1, 4)) - 0.8112781244591328) < 1e-15
    with pytest.raises(ValueError):
        binary_entropy(1.5)
    with pytest.raises(ValueError):
        binary_entropy(-0.1)


def test_rel_entropy():
    half = ProbabilityPair(Fraction(1, 2))
    point = ProbabilityPair(1)
    assert rel_entropy(half, half) == 0.0
    assert rel_entropy(point, ProbabilityPair(0)) == math.inf
    assert rel_entropy(point, half) == 1.0
    assert rel_entropy(ProbabilityPair(0), point) == math.inf


def test_pinsker_inequality_on_grid():
    result = check_entropy_bounds(tuple(Fraction(i, 10) for i in range(11)), 0)
    assert result.passed, result.failures


def test_dimension_entropy_bound():
    # dim F_gamma <= 2**(k*h(gamma_1/k)) for two-row frames with k boxes
    result = check_entropy_bounds((), 12)
    assert result.passed, result.failures


def test_entropy_bound_decided_on_integers():
    # X = 1 with a = 0 or b = 0 sits exactly at the bound 2**0 = 1
    for k in range(9):
        for b in (0, k):
            assert within_entropy_bound(1, b, k) and not within_entropy_bound(2, b, k), (b, k)
    # 2**(4 h(1/2)) = 16 and 2**(3 h(1/3)) = 27/4: at or just inside the bound, then just past it
    assert within_entropy_bound(16, 2, 4) and not within_entropy_bound(17, 2, 4)
    assert within_entropy_bound(6, 1, 3) and not within_entropy_bound(7, 1, 3)
    assert within_entropy_bound(0, 3, 7)
    for b, k in ((-1, 2), (3, 2)):
        with pytest.raises(ValueError):
            within_entropy_bound(1, b, k)


def test_probability_pair_validation():
    with pytest.raises(ValueError):
        ProbabilityPair(Fraction(3, 2))
    p = ProbabilityPair(Fraction(1, 4))
    assert p.p1 == Fraction(3, 4)
    assert p[0] == Fraction(1, 4) and p[1] == Fraction(3, 4)


def test_exact_rational_and_depolarising_weight():
    cases = ((Fraction(3, 10), Fraction(3, 10)), (2, Fraction(2)), ("0.3", Fraction(3, 10)), ("-1/4", Fraction(-1, 4)))
    for value, expect in cases:
        assert exact_rational(value) == expect
    for value in (0.1, 1.0, complex(1, 0), None, "1/0"):
        with pytest.raises(ValueError):
            exact_rational(value)
    assert depolarising_weight("1/3") == Fraction(1, 3) and depolarising_weight(0) == 0
    for value in (Fraction(-1, 3), "4/3", 0.25):
        with pytest.raises(ValueError):
            depolarising_weight(value)
