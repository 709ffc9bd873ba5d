from collections import Counter

import pytest

from bruteforce import class_pairs_by_enumeration, is_lattice_word, lr_by_group_sum
from isotwirl.frames import frame
from isotwirl.lr import (
    CHARACTER_ORACLE_CAP,
    _class_pairs,
    _reading_order,
    lr_coefficient,
    lr_nonzero_pairs,
    lr_tableaux,
    lr_via_characters,
)
from isotwirl.verify import _lr_triples, check_lr_coefficients, check_two_row_multiplicity_free


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
    # 11 boxes are refused, 10 (the cap) are summed; the tableau count holds at both
    assert CHARACTER_ORACLE_CAP == 10
    with pytest.raises(ValueError, match="11 boxes exceeds cap 10"):
        lr_via_characters(frame(6, 5), frame(6), frame(5))
    assert lr_coefficient(frame(6, 5), frame(6), frame(5)) == 1
    assert lr_via_characters(frame(5, 5), frame(5), frame(5)) == 1


def test_character_oracle_matches_group_sum():
    # n = 7 is the largest size at which the group sum stays under about 1 s
    for lam, mu, nu in _lr_triples(3, 7):
        assert lr_via_characters(lam, mu, nu) == lr_by_group_sum(lam, mu, nu), (lam, mu, nu)


def test_class_pair_table_matches_group_enumeration():
    # the merged cycle type is compared as stored, so an unsorted merge fails
    # here even though the characters it reads are the same
    for n in range(0, 8):
        for l in range(0, n + 1):
            assert sorted(_class_pairs(l, n - l)) == list(class_pairs_by_enumeration(l, n - l)), (l, n - l)


def test_tableaux_vs_characters_exhaustive():
    cross, _, _, _, _ = check_lr_coefficients(3, 6)
    assert cross.passed, cross.failures


def test_restriction_dimension_identity():
    _, restrict, _, _, _ = check_lr_coefficients(3, 6)
    assert restrict.passed, restrict.failures


def test_symmetry():
    _, _, symmetry, _, _ = check_lr_coefficients(3, 6)
    assert symmetry.passed, symmetry.failures


def test_two_row_coefficients_multiplicity_free():
    result = check_two_row_multiplicity_free(10)
    assert result.passed, result.failures


def test_nonzero_pairs():
    for n, l in ((4, 3), (5, 2)):
        assert lr_nonzero_pairs(frame(n), n - l, 2) == [(frame(l), frame(n - l))]
    pairs = set(lr_nonzero_pairs(frame(3, 1), 2, 2))
    assert pairs == {(frame(2), frame(1, 1)), (frame(2), frame(2)), (frame(1, 1), frame(2))}
    # k runs over 0..n, the other part of the split is n - k
    for k in (5, -1):
        with pytest.raises(ValueError) as refused:
            lr_nonzero_pairs(frame(3, 1), k, 2)
        assert str(refused.value) == f"k={k} outside 0..4"


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
    assert lr_tableaux(frame(2, 1), frame(3), frame()) == []
    assert _reading_order((3, 1), (2, 0)) == [(0, 2), (1, 0)]


def test_higher_multiplicity_cases():
    assert lr_coefficient(frame(3, 2, 1), frame(2, 1), frame(2, 1)) == 2
    assert lr_via_characters(frame(3, 2, 1), frame(2, 1), frame(2, 1)) == 2
    assert lr_coefficient(frame(4, 3, 2, 1), frame(3, 2, 1), frame(2, 1, 1)) == 3
    assert len(lr_tableaux(frame(4, 3, 2, 1), frame(3, 2, 1), frame(2, 1, 1))) == 3


def test_count_witnesses_and_characters_agree_on_every_small_triple():
    # every (lam, mu, nu) of YF(4, n <= 8) with |mu| + |nu| = n; its frames hold those of d <= 3
    for lam, mu, nu in _lr_triples(4, 8):
        c = lr_coefficient(lam, mu, nu)
        assert len(lr_tableaux(lam, mu, nu)) == c == lr_via_characters(lam, mu, nu), (lam, mu, nu)


def test_no_witness_for_triples_that_do_not_fit():
    # sizes that do not add up, or mu or nu outside lam, count 0 without a skew shape
    for lam, mu, nu in [
        (frame(3), frame(1), frame(1)),
        (frame(2, 2), frame(3), frame(1)),
        (frame(2, 2), frame(1), frame(3)),
        (frame(2, 1), frame(1, 1, 1), frame()),
    ]:
        assert lr_coefficient(lam, mu, nu) == 0 and lr_tableaux(lam, mu, nu) == []


def test_large_single_queries(capsys):
    # one targeted search each: a long horizontal strip and a four-row skew shape
    from isotwirl.cli import main

    for args in (("1000,1000", "1000", "1000"), ("60,45,30,15", "30,20,10,5", "30,25,20,10")):
        lam, mu, nu = (frame(*map(int, a.split(","))) for a in args)
        assert lr_coefficient(lam, mu, nu) == 1
        assert main(["lr", *args]) == 0
        assert capsys.readouterr().out.startswith("coefficient=1 ")
