import math
from fractions import Fraction

import numpy as np
import pytest

from bruteforce import (
    class_sign,
    class_sizes_by_enumeration,
    count_standard_tableaux,
    cycle_type_of,
    fixed_points_minus_one,
    partitions_of,
)
from isotwirl.frames import YoungFrame, dim_sym, frame
from isotwirl.symmetric_group import (
    CYCLE_TYPE_CAP,
    Permutation,
    _unrank_permutation,
    character,
    class_size,
    cycle_types,
    enumerate_group,
)


def test_permutation_validation_and_algebra():
    with pytest.raises(ValueError):
        Permutation((0, 0, 1))
    # a non-integer image is refused, not truncated: (0.0, 1.7) once read as the identity
    for images in ((0.0, 1.7), (0.0, 1.0), ("0", 1), (Fraction(0), 1)):
        with pytest.raises(ValueError, match="images must be integers"):
            Permutation(images)
    assert Permutation((np.int64(1), False)).images == (1, 0)
    s = Permutation((1, 2, 0))
    t = Permutation((1, 0, 2))
    assert (s * t).images == tuple(s.images[t.images[i]] for i in range(3))
    assert (s * s.inverse()) == Permutation((0, 1, 2))


def test_enumerate_group():
    assert list(enumerate_group(1)) == [Permutation((0,))]
    elems = list(enumerate_group(3))
    assert len(elems) == 6 and len(set(e.images for e in elems)) == 6
    assert sum(1 for _ in enumerate_group(8)) == math.factorial(8)
    assert next(iter(enumerate_group(10))) == Permutation(tuple(range(10)))  # the cap itself is served
    with pytest.raises(ValueError):
        next(iter(enumerate_group(11)))
    for n in range(8):
        assert [_unrank_permutation(n, r) for r in range(math.factorial(n))] == list(enumerate_group(n))


def test_cycle_types_enumeration():
    for n in range(1, 13):
        assert [c.reduced for c in cycle_types(n)] == partitions_of(n)
    assert [c.reduced for c in cycle_types(0)] == [()]
    assert str(cycle_types(3)[0]) == "3"  # unpadded
    with pytest.raises(ValueError, match="n must be >= 0"):
        cycle_types(-1)
    # the cap itself is served, one past it refused before any level is built
    assert len(cycle_types(CYCLE_TYPE_CAP)) == len(partitions_of(CYCLE_TYPE_CAP)) == 627
    with pytest.raises(ValueError, match=rf"^cycle_types\(n={CYCLE_TYPE_CAP + 1}\) exceeds cap {CYCLE_TYPE_CAP}$"):
        cycle_types(CYCLE_TYPE_CAP + 1)
    # every permutation's cycle type appears
    got = {cycle_type_of(p.images) for p in enumerate_group(5)}
    assert got == set(partitions_of(5))


def test_class_size_matches_enumeration():
    for n in range(1, 7):
        brute = class_sizes_by_enumeration(n)
        for ct in cycle_types(n):
            assert class_size(ct) == brute[ct.reduced], str(ct)


def test_character_trivial_and_sign():
    for n in range(1, 8):
        for ct in cycle_types(n):
            assert character(YoungFrame((n,)), ct) == 1
            assert character(YoungFrame((1,) * n), ct) == class_sign(ct)


def test_character_standard_representation():
    # the (n-1, 1) irrep is the fixed-point character minus one
    for n in range(2, 8):
        lam = YoungFrame((n - 1, 1))
        for ct in cycle_types(n):
            assert character(lam, ct) == fixed_points_minus_one(ct.reduced), str(ct)


def test_character_s3_table():
    classes = [frame(1, 1, 1), frame(2, 1), frame(3)]
    table = {
        frame(3): [1, 1, 1],
        frame(2, 1): [2, 0, -1],
        frame(1, 1, 1): [1, -1, 1],
    }
    for lam, values in table.items():
        assert [character(lam, c) for c in classes] == values


def test_character_at_identity_is_dimension():
    for n in range(1, 9):
        ident = YoungFrame((1,) * n)
        for parts in partitions_of(n):
            lam = YoungFrame(parts)
            assert character(lam, ident) == dim_sym(lam) == count_standard_tableaux(lam)


def test_character_row_orthogonality():
    for n in range(1, 9):
        cts = cycle_types(n)
        lams = [YoungFrame(p) for p in partitions_of(n)]
        for a in lams:
            for b in lams:
                total = sum(class_size(c) * character(a, c) * character(b, c) for c in cts)
                assert total == (math.factorial(n) if a == b else 0), (str(a), str(b))


def test_character_regular_representation_columns():
    for n in range(1, 9):
        for c in cycle_types(n):
            total = sum(dim_sym(YoungFrame(p)) * character(YoungFrame(p), c) for p in partitions_of(n))
            expected = math.factorial(n) if c == YoungFrame((1,) * n) else 0
            assert total == expected, str(c)


def test_character_size_mismatch():
    with pytest.raises(ValueError):
        character(frame(2, 1), frame(2, 2))
