import pytest

from bruteforce import basic_horn_by_full_loop, partitions_of
from isotwirl.frames import YoungFrame, frame
from isotwirl.horn import (
    HornTriple,
    basic_horn_holds,
    branching_disjoint,
    horn_feasible,
    within_support_window,
)
from isotwirl.verify import check_chains_disjoint_outside_window, check_lr_coefficients


def test_basic_horn_examples():
    assert basic_horn_holds(HornTriple(frame(2, 0), frame(1, 0), frame(1, 0), 2))
    # lam_2 = 2 > mu_2 + nu_1 = 0 + 1
    assert not basic_horn_holds(HornTriple(frame(2, 2), frame(2, 0), frame(1, 1), 2))
    # trace mismatch
    assert not basic_horn_holds(HornTriple(frame(3, 0), frame(1, 0), frame(1, 0), 2))


def test_basic_horn_reads_only_lams_rows_and_agrees_with_the_full_loop():
    # every triple of at most d rows and n <= 7 boxes, trace mismatches included, stored padded to d rows
    # and checked at d and d + 2: an inequality past lam's row count always holds, so skipping it changes no verdict
    verdicts = set()
    for d in range(1, 5):
        by_size = [[YoungFrame(rows + (0,) * (d - len(rows))) for rows in partitions_of(n, d)] for n in range(8)]
        for n in range(8):
            for lam in by_size[n]:
                for a in range(n + 1):
                    for b in {n - a, max(n - a - 1, 0)}:
                        for mu in by_size[a]:
                            for nu in by_size[b]:
                                for budget in (d, d + 2):
                                    verdict = basic_horn_holds(HornTriple(lam, mu, nu, budget))
                                    assert verdict == basic_horn_by_full_loop(lam, mu, nu, budget), (lam, mu, nu, budget)
                                    verdicts.add(verdict)
    assert verdicts == {False, True}


def test_horn_triple_validation():
    with pytest.raises(ValueError):
        HornTriple(frame(1, 1, 1), frame(2, 1), frame(0), 2)
    # d is kept as the int it reads
    assert type(HornTriple(frame(3), frame(2), frame(1), True).d) is int


def test_feasibility_examples():
    assert horn_feasible(HornTriple(frame(2, 0), frame(1, 0), frame(1, 0), 2))
    assert not horn_feasible(HornTriple(frame(2, 2), frame(2, 0), frame(1, 1), 2))
    assert horn_feasible(HornTriple(frame(2, 1), frame(1, 0), frame(1, 1), 2))


def test_basic_inequalities_necessary_for_feasibility():
    for d in (2, 3):
        for result in check_lr_coefficients(d, 6)[3:]:
            assert result.passed, (d, result.name, result.failures)


def test_support_window_examples():
    # k = 0 admits only the frame itself
    assert within_support_window(frame(3, 1), frame(3, 1), 2, 0)
    assert not within_support_window(frame(3, 1), frame(2, 2), 2, 0)
    assert not within_support_window(frame(3, 1), frame(4, 0), 2, 0)
    # d=2, k=1 around (4,0)
    assert within_support_window(frame(4, 0), frame(3, 1), 2, 1)
    assert not within_support_window(frame(4, 0), frame(2, 2), 2, 1)
    # d=3, k=1 around (6,3,0): all |delta| <= 2
    assert within_support_window(frame(6, 3, 0), frame(4, 4, 1), 3, 1)
    assert not within_support_window(frame(6, 3, 0), frame(3, 3, 3), 3, 1)
    # the window compares frames of one YF(d, n)
    with pytest.raises(ValueError, match="boxes"):
        within_support_window(frame(3, 1), frame(2, 1), 2, 1)
    for d, k, message in ((0, 0, "d must be >= 1, got d=0"), (2, -1, "k must be >= 0, got k=-1")):
        with pytest.raises(ValueError, match=message):
            within_support_window(frame(), frame(), d, k)


def test_branching_disjoint_examples():
    assert branching_disjoint(frame(4, 0), frame(2, 2), 3, 1, 2)
    assert not branching_disjoint(frame(4, 0), frame(3, 1), 3, 1, 2)
    # diagonal case: nu = gamma always connects
    for lam in (frame(3, 1), frame(2, 2), frame(4, 0)):
        for k in range(0, 5):
            assert not branching_disjoint(lam, lam, 4 - k, k, 2)
    with pytest.raises(ValueError, match="split 1\\+1"):
        branching_disjoint(frame(3, 1), frame(2, 2), 1, 1, 2)
    with pytest.raises(ValueError, match="frame 3,1 has more than 1 rows"):
        branching_disjoint(frame(4), frame(3, 1), 2, 2, 1)
    with pytest.raises(ValueError, match="frame 2,1,1 has more than 2 rows"):
        branching_disjoint(frame(2, 1, 1), frame(4), 2, 2, 2)


def test_window_violation_implies_disjoint_chains():
    result = check_chains_disjoint_outside_window([(2, 6), (3, 6)])
    assert result.passed, result.failures
