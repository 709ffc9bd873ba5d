from collections import Counter

import pytest

from bruteforce import is_lattice_word
from isotwirl.frames import frame
from isotwirl.lr import (
    SkewShape,
    lr_coefficient,
    lr_nonzero_pairs,
    lr_tableaux,
    lr_via_characters,
)
from isotwirl.verify import check_lr_coefficients, check_two_row_multiplicity_free


def test_pieri_examples():
    assert lr_coefficient(frame(2), frame(1), frame(1)) == 1
    assert lr_coefficient(frame(1, 1), frame(1), frame(1)) == 1
    assert lr_coefficient(frame(3, 1), frame(2), frame(1, 1)) == 1
    assert lr_coefficient(frame(2, 2), frame(2), frame(1, 1)) == 0


def test_size_and_containment_guards():
    assert lr_coefficient(frame(3), frame(1), frame(1)) == 0
    assert lr_coefficient(frame(2, 2), frame(3), frame(1)) == 0
    assert lr_coefficient(frame(), frame(), frame()) == 1


def test_character_oracle_examples():
    assert lr_via_characters(frame(2, 1), frame(1), frame(1, 1)) == 1
    assert lr_via_characters(frame(4), frame(2), frame(1, 1)) == 0
    assert lr_via_characters(frame(3, 1), frame(2), frame(1, 1)) == 1


def test_character_oracle_cap():
    with pytest.raises(ValueError):
        lr_via_characters(frame(6, 5), frame(6), frame(5))
    assert lr_via_characters(frame(6, 5), frame(6), frame(5), cap=11) == 1


def test_tableaux_vs_characters_exhaustive():
    cross, _, _ = check_lr_coefficients(3, 6)
    assert cross.passed, cross.failures


def test_restriction_dimension_identity():
    _, restrict, _ = check_lr_coefficients(3, 6)
    assert restrict.passed, restrict.failures


def test_symmetry():
    _, _, symmetry = check_lr_coefficients(3, 6)
    assert symmetry.passed, symmetry.failures


def test_two_row_coefficients_multiplicity_free():
    result = check_two_row_multiplicity_free(10)
    assert result.passed, result.failures


def test_nonzero_pairs():
    for n, l in ((4, 3), (5, 2)):
        assert lr_nonzero_pairs(frame(n), l, n - l, 2) == [(frame(l), frame(n - l))]
    pairs = set(lr_nonzero_pairs(frame(3, 1), 2, 2, 2))
    assert pairs == {(frame(2), frame(1, 1)), (frame(2), frame(2)), (frame(1, 1), frame(2))}
    with pytest.raises(ValueError):
        lr_nonzero_pairs(frame(3, 1), 1, 1, 2)


def test_witness_tableaux_are_valid():
    for lam, mu, nu in [
        (frame(3, 1), frame(2), frame(1, 1)),
        (frame(4, 2), frame(2, 1), frame(2, 1)),
        (frame(3, 2, 1), frame(2, 1), frame(2, 1)),
        (frame(2, 2), frame(1), frame(2, 1)),
    ]:
        tabs = lr_tableaux(lam, mu, nu)
        assert len(tabs) == lr_coefficient(lam, mu, nu)
        for t in tabs:
            entries = Counter(v for row in t.filling for v in row)
            assert sorted(entries.items()) == list(enumerate(nu.reduced, 1))  # content nu
            rows = t.filling
            for i, row in enumerate(rows):
                assert list(row) == sorted(row)  # weakly increasing rows
                for j, v in enumerate(row):
                    col = mu.row(i) + j
                    if i > 0 and col >= mu.row(i - 1):
                        above = rows[i - 1][col - mu.row(i - 1)]
                        assert v > above  # strictly increasing columns
            word = [v for row in rows for v in reversed(row)]
            assert is_lattice_word(word)


def test_witness_render():
    (tab,) = lr_tableaux(frame(3, 1), frame(2), frame(1, 1))
    assert tab.render() == ". . 1\n2"


def test_skew_shape_validation():
    with pytest.raises(ValueError):
        SkewShape(frame(2, 1), frame(3))
    shape = SkewShape(frame(3, 1), frame(2))
    assert shape.size == 2
    assert shape.cells_reading_order() == [(0, 2), (1, 0)]


def test_higher_multiplicity_cases():
    assert lr_coefficient(frame(3, 2, 1), frame(2, 1), frame(2, 1)) == 2
    assert lr_via_characters(frame(3, 2, 1), frame(2, 1), frame(2, 1)) == 2
    assert lr_coefficient(frame(4, 3, 2, 1), frame(3, 2, 1), frame(2, 1, 1)) == 3
    assert len(lr_tableaux(frame(4, 3, 2, 1), frame(3, 2, 1), frame(2, 1, 1))) == 3
