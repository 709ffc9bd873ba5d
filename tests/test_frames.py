import contextlib
import math
from fractions import Fraction

import numpy as np
import pytest

from bruteforce import (
    content_product_by_boxes,
    covers_by_removing_a_box,
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
    _lattice_level,
    _skew_counts,
    within_entropy_bound,
)
from isotwirl import spectra
from isotwirl.symmetric_group import cycle_types
from isotwirl.verify import check_dimension_identity, check_entropy_bounds


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
    # a non-integer row length is refused, not truncated: (2.5, 1) once read as frame(2, 1)
    for rows in ((2.5, 1), (2.0, 1), ("2", 1), (Fraction(2), 1), (np.float64(2), 1)):
        with pytest.raises(ValueError, match="row lengths must be integers"):
            YoungFrame(rows)
    assert YoungFrame((np.int64(2), True)) == frame(2, 1)
    assert [type(r) for r in YoungFrame((np.int64(2), True)).rows] == [int, int]


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


def test_each_spectrum_call_makes_one_pass_down_the_lattice(monkeypatch):
    # a spectrum reads the lattice counts of its source frame alone, in one pass down YF(d, .)
    calls = []
    real = spectra._skew_counts
    monkeypatch.setattr(spectra, "_skew_counts", lambda outer, d: calls.append((outer, d)) or real(outer, d))
    lam = frame(5, 3, 1)
    spectra.channel_output_spectra(lam, (Fraction(0), Fraction(1, 3), Fraction(1)), 3)
    spectra._twirl_numerators(lam, 3, range(lam.n + 1))
    for k in range(lam.n + 1):
        spectra.twirl_spectrum(lam, k, 3)
    assert calls == [((5, 3, 1), 3)] * (lam.n + 3)


def test_skew_counts_are_keyed_by_position_in_the_callers_lattice():
    # one outer frame passed down YF(3, .) and YF(4, .): the same counts, each by its own lattice's positions
    def by_rows(d):
        counts = _skew_counts((4, 2, 1), d)
        return [{_lattice_level(d, m).reduced[i]: f for i, f in level.items()} for m, level in enumerate(counts)]

    assert by_rows(3) == by_rows(4)
    assert by_rows(3)[0] == {(): dim_sym(frame(4, 2, 1))}


def test_lattice_levels_carry_the_closed_form_dimensions():
    # a level's f comes by the branching rule and its dim U from f and the box contents;
    # both equal the hook-length closed forms, frame by frame, in enumeration order
    for d, m_max in ((1, 24), (2, 40), (3, 24), (4, 18)):
        for m in range(m_max + 1):
            level = _lattice_level(d, m)
            frames = sorted(partitions_of(m, max_rows=d), reverse=True)
            assert list(level.index) == frames, (d, m)
            assert level.sym == tuple(map(_dim_sym, frames)), (d, m)
            assert level.unitary == tuple(_dim_unitary(red, d) for red in frames), (d, m)


def test_lattice_covers_are_the_corner_removals():
    # covers[i] lists, by position one level down, frame i with one corner removed, top row first
    assert _lattice_level(3, 0).covers == ((),)
    for d, m_max in ((1, 24), (2, 40), (3, 24), (4, 18)):
        for m in range(1, m_max + 1):
            level, below = _lattice_level(d, m), _lattice_level(d, m - 1)
            for red, covered in zip(level.reduced, level.covers):
                assert [below.reduced[j] for j in covered] == covers_by_removing_a_box(red), (d, red)


def test_the_lattice_decides_the_order_of_every_frame_list():
    # enumerate_frames and cycle_types list levels of Young's lattice: decreasing lexicographic order,
    # frames zero-padded to d rows and cycle types unpadded
    for d, n_max in ((1, 40), (2, 40), (3, 24), (4, 24)):
        for n in range(n_max + 1):
            expected = [red + (0,) * (d - len(red)) for red in sorted(partitions_of(n, max_rows=d), reverse=True)]
            assert [f.rows for f in enumerate_frames(d, n)] == expected, (d, n)
    for n in range(13):
        assert [c.rows for c in cycle_types(n)] == sorted(partitions_of(n), reverse=True), n


def _non_integer_size_calls():
    return (
        lambda: enumerate_frames(2, 3.0),
        lambda: enumerate_frames(2.5, 3),
        lambda: cycle_types(3.0),
        lambda: spectra.channel_output_spectrum(frame(3, 1), "1/2", 2.0),
        lambda: spectra.twirl_spectrum(frame(3, 1), 1.0, 2),
    )


def test_non_integer_sizes_are_refused():
    # a float d, n or k is refused, not read as the integer it equals; a numpy int or a bool is read as an int
    for call in _non_integer_size_calls():
        with pytest.raises(ValueError, match="must be integers"):
            call()
    assert enumerate_frames(np.int64(2), True) == enumerate_frames(2, 1)
    assert cycle_types(np.int64(3)) == cycle_types(3)
    assert spectra.twirl_spectrum(frame(3, 1), np.int64(1), np.int64(2)) == spectra.twirl_spectrum(frame(3, 1), 1, 2)


def test_a_refused_size_leaves_no_level_behind():
    # enumerate_frames(2, 3.0) once cached a level under a key equal to (2, 3), and a later
    # channel_output_spectrum(frame(3, 1), "1/2", 2) raised TypeError on its float entries
    def values():
        table = spectra.channel_output_spectrum(frame(3, 1), "1/2", 2)
        return enumerate_frames(2, 3), table.denominator, table.numerators

    _lattice_level.cache_clear()
    fresh = values()
    _lattice_level.cache_clear()
    try:
        for call in _non_integer_size_calls():
            with contextlib.suppress(Exception):  # whatever a refused call raises, it caches nothing
                call()
        assert values() == fresh
    finally:
        _lattice_level.cache_clear()


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


def test_exact_rational_reads_a_ratio_past_the_digit_limit(default_digit_limit):
    # each side of "a/b" has 5000 digits, past the 4300 that int() reads from text: decimal reads them,
    # and the value is their ratio; a Fraction is returned as it is
    ones, threes = (10**5000 - 1) // 9, (10**5000 - 1) // 3
    q = exact_rational("1" * 5000 + "/" + "3" * 5000)
    assert q == Fraction(ones, threes) == Fraction(1, 3)
    assert exact_rational(q) is q
