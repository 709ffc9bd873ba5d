import pytest

from isotwirl.frames import frame
from isotwirl.horn import (
    HornTriple,
    basic_horn_holds,
    branching_disjoint,
    horn_feasible,
    within_support_window,
)
from isotwirl.verify import check_chains_disjoint_outside_window, check_horn_inequalities


def test_basic_horn_examples():
    assert basic_horn_holds(HornTriple(frame(2, 0), frame(1, 0), frame(1, 0), 2))
    # lam_2 = 2 > mu_2 + nu_1 = 0 + 1
    assert not basic_horn_holds(HornTriple(frame(2, 2), frame(2, 0), frame(1, 1), 2))
    # trace mismatch
    assert not basic_horn_holds(HornTriple(frame(3, 0), frame(1, 0), frame(1, 0), 2))


def test_horn_triple_validation():
    with pytest.raises(ValueError):
        HornTriple(frame(1, 1, 1), frame(2, 1), frame(0), 2)


def test_feasibility_examples():
    assert horn_feasible(HornTriple(frame(2, 0), frame(1, 0), frame(1, 0), 2))
    assert not horn_feasible(HornTriple(frame(2, 2), frame(2, 0), frame(1, 1), 2))
    assert horn_feasible(HornTriple(frame(2, 1), frame(1, 0), frame(1, 1), 2))


def test_basic_inequalities_necessary_for_feasibility():
    for d in (2, 3):
        for result in check_horn_inequalities(d, 6):
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


def test_branching_disjoint_examples():
    assert branching_disjoint(frame(4, 0), frame(2, 2), 3, 1, 2)
    assert not branching_disjoint(frame(4, 0), frame(3, 1), 3, 1, 2)
    # diagonal case: nu = gamma always connects
    for lam in (frame(3, 1), frame(2, 2), frame(4, 0)):
        for k in range(0, 5):
            assert not branching_disjoint(lam, lam, 4 - k, k, 2)
    with pytest.raises(ValueError, match="split 1\\+1"):
        branching_disjoint(frame(3, 1), frame(2, 2), 1, 1, 2)
    with pytest.raises(ValueError, match="more than d=1 rows"):
        branching_disjoint(frame(4), frame(3, 1), 2, 2, 1)
    with pytest.raises(ValueError, match="more than d=2 rows"):
        branching_disjoint(frame(2, 1, 1), frame(4), 2, 2, 2)


def test_window_violation_implies_disjoint_chains():
    result = check_chains_disjoint_outside_window([(2, 6), (3, 6)])
    assert result.passed, result.failures
