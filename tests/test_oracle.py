import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bruteforce import (
    conjugate_by_full_matrices,
    depolarise_by_subsets,
    hs_product_by_full_matrices,
    partial_trace_by_sums,
    projectors_by_characters,
    psd_by_fraction_ldl,
    twirl_by_permutations,
)
from isotwirl.frames import MAX_BOXES, dim_sym, dim_unitary, enumerate_frames, frame
from isotwirl.symmetric_group import Permutation, character, class_size, enumerate_group
from isotwirl import oracle as orc
from isotwirl import verify


def rand_op(rng, d, n, den=7):
    dim = d**n
    mat = np.empty((dim, dim), dtype=object)
    for i in range(dim):
        for j in range(dim):
            mat[i, j] = rng.randint(-5, 5)
    return orc.TensorOperator(d, n, Fraction(1, den), mat)


def block_mask(d, n):
    """True exactly on the word pairs inside one letter-count block."""
    mask = np.zeros((d**n, d**n), dtype=bool)
    for words in orc._letter_blocks(d, n):
        mask[np.ix_(words, words)] = True
    return mask


def full_product(a, b):
    return orc.TensorOperator(a.d, a.n, a.scale * b.scale, a.mat @ b.mat)


def relabelled(mat, d, n):
    """``mat`` with the letters relabelled by each of the d! permutations, on all sites at once."""
    words = list(itertools.product(range(d), repeat=n))
    index = {w: i for i, w in enumerate(words)}
    for g in itertools.permutations(range(d)):
        moved = [index[tuple(g[a] for a in w)] for w in words]
        yield mat[np.ix_(moved, moved)]


def expected_kind(op):
    """The layout kind the constructor must pick for ``op``'s full matrix.

    Sorted when the matrix is invariant under every relabelling of the
    letters, letter-block when it is only zero outside the letter blocks,
    one-block otherwise.
    """
    mat = op.mat
    if np.count_nonzero(mat[~block_mask(op.d, op.n)]):
        return orc._WHOLE
    if all(np.array_equal(moved, mat) for moved in relabelled(mat, op.d, op.n)):
        return orc._SORTED
    return orc._LETTER


def layout_kind(op):
    """The kind of ``op``'s layout, checked to be the one layout of that kind for its (d, n)."""
    assert op._layout is orc._layout(op.d, op.n, op._layout.kind)
    return op._layout.kind


def blocked(op):
    """Whether ``op`` stores only letter blocks: all of them, or the sorted ones of an invariant operator."""
    return layout_kind(op) in (orc._SORTED, orc._LETTER)


@pytest.fixture
def exact_routes(monkeypatch):
    """The dtype each call of ``orc._exact`` hands back, in call order."""
    routes = []
    exact = orc._exact

    def recorded(bound, *arrays):
        out = exact(bound, *arrays)
        routes.append(out[0].dtype)
        return out

    monkeypatch.setattr(orc, "_exact", recorded)
    return routes


def test_perm_operator_examples():
    ident = orc.perm_operator(Permutation((0, 1)), 2)
    assert ident == orc.TensorOperator.identity(2, 2)
    swap = orc.perm_operator(Permutation((1, 0)), 2)
    expect = np.zeros((4, 4), dtype=object)
    expect[0, 0] = expect[3, 3] = expect[1, 2] = expect[2, 1] = 1
    assert np.array_equal(swap.mat, expect)
    cycle = orc.perm_operator(Permutation((1, 2, 0)), 3)
    assert cycle @ cycle @ cycle == orc.TensorOperator.identity(3, 3)
    assert not (cycle @ cycle == orc.TensorOperator.identity(3, 3))


def test_perm_operator_is_representation():
    for d in (2, 3):
        for s in enumerate_group(3):
            for t in enumerate_group(3):
                assert orc.perm_operator(s, d) @ orc.perm_operator(t, d) == orc.perm_operator(s * t, d)


def test_dimension_cap():
    with pytest.raises(ValueError):
        orc.perm_operator(Permutation(tuple(range(9))), 3)  # 3**9 > 6561
    with pytest.raises(ValueError):
        orc.isotypical_projectors(2, 9)  # factorial cap


def test_size_table_within_hard_caps():
    # dense rows inside the dense caps, fast-path rows inside MAX_BOXES, and a
    # projector cache that holds every family the dense rows build, (d, 0..n)
    top: dict[int, int] = {}
    for row in verify.DENSE_ROWS.values():
        for d, n in row.items():
            assert d**n <= orc.DIMENSION_CAP and n <= orc.FACTORIAL_LOOP_CAP, (d, n)
            top[d] = max(top.get(d, 0), n)
    for row in verify.FAST_ROWS.values():
        assert all(n <= MAX_BOXES[d] for d, n in row.items()), row
    assert sum(n + 1 for n in top.values()) <= orc._projector_family.cache_info().maxsize


def test_verify_all_at_d4_builds_each_projector_family_once():
    # every dense row at its largest size, d = 4 included; a family or an
    # overlap table evicted and rebuilt would count one more miss than its cache holds
    orc.clear_projector_cache()
    verify._twirl_overlaps.cache_clear()
    report = verify.run_suite("all", verify.RunConfig(d_max=4, n_max=8))
    info = orc._projector_family.cache_info()
    tables = verify._twirl_overlaps.cache_info()
    assert report.passed
    assert info.misses == info.currsize == sum(n + 1 for n in orc.DENSE_SWEEP_N.values())
    assert tables.misses == tables.currsize == sum(orc.DENSE_SWEEP_N.values())  # n = 1..N per d


def test_dense_twirl_overlaps_match_full_matrices():
    # both values of every table entry from full Python-int matrices: the trace
    # over the last k sites summed entry by entry, its padding by np.kron
    for d, n_max in ((2, 4), (3, 3)):
        for n in range(1, n_max + 1):
            family = orc.isotypical_projectors(d, n)
            table = verify.dense_twirl_overlaps(d, n)
            assert table.frames == tuple(family) and table.scales == tuple(p.scale for p in family.values())
            for levels in (table.literal, table.paired):  # k = 0..n, each a square over the frames
                assert [[len(row) for row in level] for level in levels] == [[len(family)] * len(family)] * (n + 1)
            reduced = {
                (lam, k): partial_trace_by_sums(p, tuple(range(n - k, n)))
                for lam, p in family.items()
                for k in range(n + 1)
            }
            for lam, k, lam_p in itertools.product(family, range(n + 1), family):
                red = reduced[lam, k]
                ones = np.identity(d**k, dtype=object)
                padded = orc.TensorOperator(d, n, red.scale / d**k, np.kron(red.mat, ones))
                literal = hs_product_by_full_matrices(family[lam_p], padded)
                paired = hs_product_by_full_matrices(reduced[lam_p, k], red) / d**k
                assert table.value(lam, k, lam_p) == (literal, paired), (d, str(lam), k, str(lam_p))


def test_dense_twirl_overlaps_factorial_cap():
    with pytest.raises(ValueError):
        verify.dense_twirl_overlaps(2, 9)
    assert verify.dense_twirl_overlaps(2, 3, factorial_cap=3) is verify.dense_twirl_overlaps(2, 3)


def test_projector_families_in_canonical_form():
    # == ignores the scale; the stored form is primitive int64 entries over the folded scale.
    # At (1, 21) the common scale 21! exceeds int64, so the build runs on Python ints.
    sizes = [(d, n) for d, n_max in orc.DENSE_SWEEP_N.items() for n in range(n_max + 1)] + [(2, 10), (1, 21)]
    for d, n in sizes:
        for lam, p in orc.isotypical_projectors(d, n, factorial_cap=n).items():
            assert p.reduced() is p and p._vec.dtype == np.int64, (d, n, str(lam))
    orc.clear_projector_cache()


def test_projectors_two_sites():
    fam = orc.isotypical_projectors(2, 2)
    sym, anti = fam[frame(2)], fam[frame(1, 1)]
    ident = orc.TensorOperator.identity(2, 2)
    swap = orc.perm_operator(Permutation((1, 0)), 2)
    assert sym == Fraction(1, 2) * (ident + swap)
    assert anti == Fraction(1, 2) * (ident - swap)
    assert sym.trace() == 3 and anti.trace() == 1
    assert sym.entry(1, 2) == Fraction(1, 2)


def test_projector_family_properties():
    # idempotent, symmetric, trace dim F dim U, summing to 1 and pairwise orthogonal
    # (the check pairs them); orthogonality is also checked here as products
    result = verify.check_projector_algebra([(2, 5), (3, 4)])
    assert result.passed and result.checked, result.failures
    for d, n_max in ((2, 5), (3, 4)):
        for n in range(1, n_max + 1):
            items = list(orc.isotypical_projectors(d, n).values())
            for i, p in enumerate(items):
                for q in items[i + 1 :]:
                    assert p @ q == orc.TensorOperator.zero(d, n)


def test_projector_family_properties_full_size():
    # the largest dense sizes: idempotence via the guarded int64 block products,
    # pairwise orthogonality via tr(PQ) = ||PQ||_F^2 for symmetric idempotents
    result = verify.check_projector_algebra(orc.DENSE_SWEEP_N.items())
    assert result.passed and result.checked, result.failures


def test_projector_family_matches_character_sum():
    # every dense size with d <= 4 and n <= 6 but (4, 6), whose reference holds
    # eleven 4096 x 4096 class sums (test_central_elements_separate_frames
    # checks the (4, 6) family's sum and traces instead)
    sizes = [(d, n) for d in range(1, 5) for n in range(7) if (d, n) != (4, 6)] + [(2, 7), (2, 8)]
    for d, n in sizes:
        fam, ref = orc.isotypical_projectors(d, n), projectors_by_characters(d, n)
        assert list(fam) == list(ref), (d, n)
        for lam, p in ref.items():
            assert fam[lam] == p, (d, n, str(lam))


def test_central_elements_separate_frames():
    # every YF(d, n) the frame and dense caps allow
    for d in range(1, 5):
        for n in range(17):
            if d**n > orc.DIMENSION_CAP:
                break
            frames = enumerate_frames(d, n)
            pairs = [orc.central_eigenvalues(lam) for lam in frames]
            assert len(set(pairs)) == len(frames), (d, n)
            # a class sum acts on the lam block as |C| chi_lam(C) / f_lam
            for lam, eigenvalues in zip(frames, pairs):
                for length, value in zip((2, 3), eigenvalues):
                    if n >= length:
                        ct = frame(length, *(1,) * (n - length))
                        assert class_size(ct) * character(lam, ct) == value * dim_sym(lam), (d, str(lam))
    # content sums alone collide at (3, 6), so the dense family there needs C3
    assert orc.central_eigenvalues(frame(4, 1, 1))[0] == orc.central_eigenvalues(frame(3, 3))[0]
    orc.clear_projector_cache()
    fam = orc.isotypical_projectors(4, 6)
    total = orc.TensorOperator.zero(4, 6)
    for lam, p in fam.items():
        assert p.trace() == dim_sym(lam) * dim_unitary(lam, 4)
        total = total + p
    assert total == orc.TensorOperator.identity(4, 6)
    orc.clear_projector_cache()


def test_projector_commutes_with_action():
    fam = orc.isotypical_projectors(2, 4)
    for tau in enumerate_group(4):
        for p in fam.values():
            assert orc.conjugate_by_permutation(p, tau) == p


def test_partial_trace_examples():
    fam = orc.isotypical_projectors(2, 2)
    sym = fam[frame(2)]
    assert sym.partial_trace([1]) == Fraction(3, 2) * orc.TensorOperator.identity(2, 1)
    rng = random.Random(1)
    a = rand_op(rng, 2, 3)
    assert a.partial_trace([]) is a
    assert a.partial_trace([0, 1, 2]).entry(0, 0) == a.trace()
    assert a.partial_trace([0, 2]).trace() == a.trace()
    with pytest.raises(ValueError):
        a.partial_trace([3])


def test_partial_trace_int64_and_object_routes(exact_routes):
    # entries near 2**60 overflow int64 once three qubit sites are traced and
    # entries near 2**62 once one is, so both routes meet the reference
    rng = random.Random(10)
    for d, n in ((2, 4), (3, 3)):
        for bound in (5, 2**60, 2**62):
            mat = np.array([[rng.randint(-bound, bound) for _ in range(d**n)] for _ in range(d**n)],
                           dtype=object)
            amax = max(abs(x) for x in mat.ravel())
            for stored in (mat, mat.astype(np.int64)):
                a = orc.TensorOperator(d, n, Fraction(1, 3), stored)
                for k in range(1, n + 1):
                    for sites in itertools.combinations(range(n), k):
                        exact_routes.clear()
                        out = a.partial_trace(sites)
                        assert exact_routes == [np.int64 if amax * d**k <= 2**63 - 1 else object]
                        assert out == partial_trace_by_sums(a, sites), (d, n, bound, sites)


def test_partial_trace_site_order():
    # tracing different single sites of a permutation-invariant operator agrees
    fam = orc.isotypical_projectors(2, 3)
    p = fam[frame(2, 1)]
    assert p.partial_trace([0]) == p.partial_trace([1]) == p.partial_trace([2])
    # non-invariant: product operator traces to the matching factors
    rng = random.Random(2)
    a, b = rand_op(rng, 2, 1), rand_op(rng, 2, 1)
    ab = a.kron(b)
    assert ab.partial_trace([1]) == b.trace() * a
    assert ab.partial_trace([0]) == a.trace() * b


def test_tensor_with_maximally_mixed():
    rng = random.Random(3)
    a = rand_op(rng, 2, 2)
    assert orc.tensor_with_maximally_mixed(a, 0) is a
    one = orc.TensorOperator(2, 0, Fraction(1), np.array([[1]], dtype=object))
    padded = orc.tensor_with_maximally_mixed(one, 1)
    assert padded == orc.TensorOperator.maximally_mixed(2, 1)
    assert orc.tensor_with_maximally_mixed(a, 2).trace() == a.trace()


def test_insert_maximally_mixed_positions():
    rng = random.Random(4)
    a = rand_op(rng, 2, 1)
    mixed_first = orc.insert_maximally_mixed(a, [0], 2)
    mixed_last = orc.insert_maximally_mixed(a, [1], 2)
    assert mixed_last == orc.tensor_with_maximally_mixed(a, 1)
    assert mixed_first == orc.TensorOperator.maximally_mixed(2, 1).kron(a)
    assert mixed_first.partial_trace([0]) == a
    # word pair by word pair: a's entry on the other sites, where the words agree at the insertions
    for d, positions in ((2, (1, 3)), (3, (0, 2))):
        b = rand_op(rng, d, 2)
        words = list(itertools.product(range(d), repeat=4))
        rest = [s for s in range(4) if s not in positions]
        expect = np.zeros((d**4, d**4), dtype=object)
        for (i, x), (j, y) in itertools.product(enumerate(words), repeat=2):
            if all(x[s] == y[s] for s in positions):
                expect[i, j] = b.mat[x[rest[0]] * d + x[rest[1]], y[rest[0]] * d + y[rest[1]]]
        assert orc.insert_maximally_mixed(b, positions, 4) == orc.TensorOperator(d, 4, b.scale / d**2, expect)


def test_twirl_properties():
    rng = random.Random(5)
    fam = orc.isotypical_projectors(2, 3)
    for p in fam.values():
        assert orc.twirl(p) == p
    a = rand_op(rng, 2, 3)
    tw = orc.twirl(a)
    assert orc.twirl(tw) == tw
    assert tw.trace() == a.trace()
    for tau in enumerate_group(3):
        assert orc.conjugate_by_permutation(tw, tau) == tw
    with pytest.raises(ValueError):
        orc.twirl(rand_op(rng, 2, 4), factorial_cap=3)


def test_twirl_equals_sum_over_all_permutations(exact_routes):
    rng = np.random.default_rng(11)
    cases = [(2, n) for n in range(0, 7)] + [(3, n) for n in range(0, 5)]
    for d, n in cases:
        a = orc.TensorOperator(d, n, Fraction(3, 7), rng.integers(-9, 10, size=(d**n, d**n)))
        exact_routes.clear()
        got, ref = orc.twirl(a), twirl_by_permutations(a)
        assert got.scale == ref.scale and np.array_equal(got.mat, ref.mat), (d, n)
        assert exact_routes == [np.int64]
    # Entries fit int64 but 4! max|a| does not: the orbit sums run on Python ints
    mat = rng.integers(-3, 4, size=(16, 16)) * 2**59
    mat[0, 0] = 3 * 2**59  # the orbit of (0000, 0000) has one member, met 4! times
    a = orc.TensorOperator(2, 4, Fraction(1, 5), mat)
    exact_routes.clear()
    got, ref = orc.twirl(a), twirl_by_permutations(a)
    assert got.scale == ref.scale and np.array_equal(got.mat, ref.mat)
    assert exact_routes == [object]


def test_twirl_two_term_example():
    mat = np.zeros((4, 4), dtype=object)
    mat[1, 1] = 1  # |01><01|
    out = orc.twirl(orc.TensorOperator(2, 2, Fraction(1), mat))
    expect = np.zeros((4, 4), dtype=object)
    expect[1, 1] = expect[2, 2] = 1
    assert out == orc.TensorOperator(2, 2, Fraction(1, 2), expect)


def test_depolarise_single_site():
    mat = np.zeros((2, 2), dtype=object)
    mat[0, 0] = 1
    rho = orc.TensorOperator(2, 1, Fraction(1), mat)
    out = orc.depolarise_n(rho, Fraction(1, 2))
    assert out.entry(0, 0) == Fraction(3, 4)
    assert out.entry(1, 1) == Fraction(1, 4)
    assert out.entry(0, 1) == 0


def test_depolarise_edges_and_trace():
    rng = random.Random(6)
    a = rand_op(rng, 2, 3)
    assert orc.depolarise_n(a, 0) == a
    assert orc.depolarise_n(a, 1) == a.trace() * orc.TensorOperator.maximally_mixed(2, 3)
    for q in (Fraction(1, 3), Fraction(2, 5)):
        assert orc.depolarise_n(a, q).trace() == a.trace()
    with pytest.raises(ValueError):
        orc.depolarise_n(a, Fraction(3, 2))


def test_depolarise_matches_subset_sum(exact_routes):
    # entries up to 5 and 10**15 fit the int64 bound for some (d, n, q), entries
    # near 2**62 never do, so both routes of the channel meet the reference
    rng = random.Random(8)
    qs = (Fraction(0), Fraction(1), Fraction(1, 3), Fraction(5, 7), Fraction(11, 12))
    for d, n_max in ((2, 5), (3, 3), (4, 2)):
        for n in range(1, n_max + 1):
            for bound in (5, 10**15, 2**62):
                dim = d**n
                mat = np.array([[rng.randint(-bound, bound) for _ in range(dim)] for _ in range(dim)],
                               dtype=object)
                amax = max(abs(x) for x in mat.ravel())
                a = orc.TensorOperator(d, n, Fraction(1, rng.randint(1, 9)), mat)
                for q in qs:
                    exact_routes.clear()
                    got = orc.depolarise_n(a, q)
                    fits = max(amax, 1) * (q.denominator * d) ** n <= 2**63 - 1
                    assert exact_routes == [np.int64 if fits else object], (d, n, bound, q)
                    assert got == depolarise_by_subsets(a, q), (d, n, bound, q)


def test_exact_route_boundary():
    # int64 inputs stay int64 up to a bound of 2**63 - 1; past it, or with any
    # Python-int input, every array comes back as Python ints
    small = np.arange(4, dtype=np.int64).reshape(2, 2)
    kept = orc._exact(2**63 - 1, small, -small)
    assert [x.dtype for x in kept] == [np.int64, np.int64] and kept[0] is small
    for bound, arrays in ((2**63, (small, -small)), (0, (small, small.astype(object)))):
        out = orc._exact(bound, *arrays)
        assert [x.dtype for x in out] == [object, object]
        assert all(np.array_equal(x, y) for x, y in zip(out, arrays))
        assert all(type(v) is int for x in out for v in x.ravel())


def test_stored_matrix_is_int64_exactly_when_entries_fit():
    for entry, stored in ((2**63 - 1, np.int64), (-(2**63), np.int64), (2**63, object), (-(2**63) - 1, object)):
        mat = np.array([[entry, 0], [0, 1]], dtype=object)
        a = orc.TensorOperator(2, 1, Fraction(1), mat)
        assert a._vec.dtype == stored and a.entry(0, 0) == entry
    a = orc.TensorOperator(2, 1, Fraction(1), np.array([[2**63, 0], [0, 1]], dtype=np.uint64))
    assert a._vec.dtype == object and a.entry(0, 0) == 2**63
    # ``mat`` is a fresh Python-int copy: writing to it leaves the operator alone
    copy = a.mat
    copy[1, 1] = 5
    assert a.mat is not copy and a.entry(1, 1) == 1


def test_int64_and_object_matrices_agree():
    rng = random.Random(9)
    for bound in (5, 2**62):
        obj = np.array([[rng.randint(-bound, bound) for _ in range(8)] for _ in range(8)], dtype=object)
        from_obj = orc.TensorOperator(2, 3, Fraction(2, 3), obj)
        from_i64 = orc.TensorOperator(2, 3, Fraction(2, 3), obj.astype(np.int64))
        assert from_obj == from_i64
        assert from_i64 + from_i64 == orc.TensorOperator(2, 3, Fraction(2, 3), 2 * obj)
        assert from_i64 - from_obj == orc.TensorOperator.zero(2, 3)
        assert from_obj.mat.dtype == object and from_i64.mat.dtype == object
        assert from_obj.reduced() == from_i64.reduced()
        assert orc.depolarise_n(from_obj, Fraction(1, 3)) == orc.depolarise_n(from_i64, Fraction(1, 3))


def test_letter_blocks_partition_words():
    for d, n in ((1, 3), (2, 0), (2, 4), (3, 3), (4, 2)):
        blocks = orc._letter_blocks(d, n)
        assert sorted(np.concatenate(blocks).tolist()) == list(range(d**n))
        words = list(itertools.product(range(d), repeat=n))
        hists = [{tuple(sorted(words[i])) for i in block} for block in blocks]
        assert all(len(h) == 1 for h in hists) and len(set.union(*hists)) == len(blocks)
        # a lone block lists every word in order, so its product needs no scatter
        assert len(blocks) > 1 or blocks[0].tolist() == list(range(d**n))


def test_matmul_matches_full_product(monkeypatch):
    # projector and permutation-operator pairs are block diagonal over letter counts
    for d, n in ((2, 4), (3, 3)):
        family = list(orc.isotypical_projectors(d, n).values())
        perms = [orc.perm_operator(s, d) for s in enumerate_group(n)][:8]
        for ops in (family, perms):
            for a, b in itertools.product(ops, repeat=2):
                assert layout_kind(a) == layout_kind(b) == orc._SORTED
                assert a @ b == full_product(a, b)
    # a random pair is nonzero outside the blocks, so it is one block of every index
    rng = random.Random(11)
    a, b = rand_op(rng, 2, 3), rand_op(rng, 2, 3)
    assert not (blocked(a) and blocked(b))
    assert a @ b == full_product(a, b)
    # so is a product with one sorted factor
    p = orc.isotypical_projectors(2, 3)[frame(2, 1)]
    assert layout_kind(p) == orc._SORTED and layout_kind(a) == orc._WHOLE
    assert p @ a == full_product(p, a) and a @ p == full_product(a, p)
    # entries near 2**28 in the first 4-word block of (2, 4) pass 2**53 there
    # only, and entries near 2**40 in the 6-word block overflow int64 there only
    routes = []
    int_matmul = orc._int_matmul

    def recorded(x, y):
        product = int_matmul(x, y)
        routes.append((orc._matmul_route(x, y), product.dtype))
        return product

    monkeypatch.setattr(orc, "_int_matmul", recorded)
    mat = np.where(block_mask(2, 4), np.array([[rng.randint(-5, 5) for _ in range(16)] for _ in range(16)]), 0)
    _, middle, big, _, _ = orc._letter_blocks(2, 4)
    assert np.count_nonzero(mat[np.ix_(middle, middle)])
    mat[np.ix_(middle, middle)] *= 2**28
    mat[np.ix_(big, big)] *= 2**40
    a = orc.TensorOperator(2, 4, Fraction(1, 3), mat)
    assert layout_kind(a) == orc._LETTER
    product = a @ a
    floats = ("float", np.int64)
    assert routes == [floats, ("int64", np.int64), ("object", object), floats, floats]
    assert product._vec.dtype == object and product == full_product(a, a)


def test_int_matmul_routes():
    # two int64 operands take float64 BLAS while m max|A| max|B| <= 2**53 and
    # int64 while it fits int64; a larger bound or a Python-int operand takes
    # Python ints; every route gives the exact product
    def check(a, b, route):
        a, b = np.array(a, dtype=np.int64), np.array(b, dtype=np.int64)
        assert orc._matmul_route(a, b) == route, (a, b)
        got = orc._int_matmul(a, b)
        assert got.dtype == (object if route == "object" else np.int64)
        assert got.tolist() == (a.astype(object) @ b.astype(object)).tolist(), (a, b)

    check([[2**26, -(2**26)]], [[2**26], [-(2**26)]], "float")  # bound exactly 2**53
    check([[2**25] * 4], [[2**26]] * 4, "float")  # product exactly 2**53
    check([[2**26 + 1, 2**26]], [[2**26], [2**26]], "int64")  # bound just above 2**53
    check([[2**52, 1]], [[2], [1]], "int64")  # 2**53 + 1: no float64 holds it
    check([[1, 1]], [[2**53], [1]], "int64")  # 2**53 + 1 again, max|A| = 1
    check([[7]], [[(2**63 - 1) // 7]], "int64")  # bound exactly 2**63 - 1
    check([[2]], [[2**62]], "object")  # 2**63 overflows int64
    check([[3, -3]], [[2**61], [-(2**61)]], "object")
    # a zero factor gives an exact zero, whatever the other holds
    zeros = np.zeros((2, 3), dtype=np.int64)
    huge = np.full((3, 2), 2**63 - 1, dtype=np.int64)
    check(zeros, huge, "float")
    check(-huge.T, zeros.T, "float")
    assert not orc._int_matmul(zeros, huge).any()
    # a Python-int operand on either side takes Python ints
    small = np.arange(4).reshape(2, 2)
    for a, b in ((small.astype(object), small), (small, small.astype(object))):
        assert orc._matmul_route(a, b) == "object"
        assert orc._int_matmul(a, b).dtype == object
        assert orc._int_matmul(a, b).tolist() == (small @ small).tolist()
    assert orc._int_matmul(zeros.astype(object), np.full((3, 2), 2**100, dtype=object)).tolist() == [[0, 0]] * 2
    # random products on both sides of 2**53 match the Python-int product
    rng = random.Random(13)
    for m in (1, 5, 40):
        for bits in (20, 24, 26, 28, 31):
            a = np.array([[rng.randint(-(2**bits), 2**bits) for _ in range(m)] for _ in range(3)], dtype=np.int64)
            b = np.array([[rng.randint(-(2**bits), 2**bits) for _ in range(4)] for _ in range(m)], dtype=np.int64)
            assert orc._int_matmul(a, b).tolist() == (a.astype(object) @ b.astype(object)).tolist()


def test_family_independent_of_blas_threads():
    # the (2, 10) family is built with one and with two BLAS threads, each in
    # a fresh process, and in this one: its vectors hash the same every time
    script = (
        "import hashlib\n"
        "from isotwirl import oracle\n"
        "h = hashlib.sha256()\n"
        "for lam, op in oracle.isotypical_projectors(2, 10, factorial_cap=10).items():\n"
        "    h.update(repr((lam, op.scale, str(op._vec.dtype))).encode() + op._vec.tobytes())\n"
        "digest = h.hexdigest()\n"
    )
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        out = subprocess.run([sys.executable, "-c", script + "print(digest)"], env=env, capture_output=True,
                             text=True, check=True)
        digests.append(out.stdout.strip())
    here = {}
    exec(script, here)
    orc.clear_projector_cache()
    assert len(here["digest"]) == 64 and digests == [here["digest"]] * 2


def test_clear_projector_cache_keeps_layouts():
    # operators built before a clear combine with operators built after it:
    # the site maps are dropped and rebuilt, the layouts they index stay
    def build():
        rng = random.Random(14)
        family = orc.isotypical_projectors(2, 3)
        mat = np.where(block_mask(2, 3), np.array([[rng.randint(-5, 5) for _ in range(8)] for _ in range(8)]), 0)
        return [family[frame(2, 1)], orc.TensorOperator(2, 3, Fraction(1, 3), mat), rand_op(rng, 2, 3)]

    def derived(op):
        return [op.kron(op), op.partial_trace([1]), orc.twirl(op), orc.depolarise_n(op, Fraction(1, 3))]

    maps = (orc._kron_maps, orc._trace_maps, orc._site_maps, orc._pair_orbits)
    before = build()
    assert [layout_kind(op) for op in before] == [orc._SORTED, orc._LETTER, orc._WHOLE]
    before_derived = [derived(op) for op in before]
    assert all(cached.cache_info().currsize for cached in maps)
    orc.clear_projector_cache()
    assert [cached.cache_info().currsize for cached in maps] == [0] * 4
    assert orc._projector_family.cache_info().currsize == 0
    after = build()
    for old, new, old_derived in zip(before, after, before_derived):
        assert old._layout is new._layout
        for x, y in ((old, new), (new, old)):
            assert x == y and x + y == 2 * new and x @ y == new @ new
            assert x.hs_product(y) == new.hs_product(new)
            assert x.kron(y) == new.kron(new) == old_derived[0]
        assert derived(old) == derived(new) == old_derived


def test_kron_int64_and_object_routes(exact_routes):
    # the int64 route runs exactly when max|A| max|B| fits, up to entries near 2**62
    rng = random.Random(12)
    for bound_a, bound_b, fits in ((5, 5, True), (2**31, 2**31, True), (2**62, 1, True), (2**62, 2, False)):
        mats = []
        for dim, bound in ((2, bound_a), (4, bound_b)):
            mat = np.array([[rng.randint(-bound, bound) for _ in range(dim)] for _ in range(dim)], dtype=object)
            mat[0, 0] = bound
            mats.append(mat)
        for stored in (mats, [m.astype(np.int64) for m in mats]):
            a = orc.TensorOperator(2, 1, Fraction(1, 3), stored[0])
            b = orc.TensorOperator(2, 2, Fraction(2, 5), stored[1])
            exact_routes.clear()
            out = a.kron(b)
            assert exact_routes == [np.int64 if fits else object]
            assert out == orc.TensorOperator(2, 3, Fraction(2, 15), np.kron(a.mat, b.mat))


def test_inexact_matrices_rejected():
    with pytest.raises(ValueError):
        orc.TensorOperator(2, 1, Fraction(1), np.array([[0.5, 0], [0, 0.5]]))
    for dtype in (np.float32, np.complex128, np.bool_):
        with pytest.raises(ValueError):
            orc.TensorOperator(2, 1, Fraction(1), np.identity(2, dtype=dtype))


def test_non_integer_entries_rejected():
    # an object matrix holding a fraction or a float once had it truncated to an integer
    with pytest.raises(ValueError):
        orc.TensorOperator(2, 1, Fraction(1), np.array([[Fraction(1, 2), 0], [0, 0.75]], dtype=object))
    for entry in (Fraction(1, 3), 0.75, Fraction(2), 2.0, "1"):
        for big in (0, 2**64):  # the int64 route and the route for entries past int64
            mat = np.array([[big, 0], [0, 1]], dtype=object)
            mat[1, 0] = entry
            with pytest.raises(ValueError):
                orc.TensorOperator(2, 1, Fraction(1), mat)
    # integers of any type are kept exactly
    mat = np.array([[np.int64(3), True], [2**64, -1]], dtype=object)
    a = orc.TensorOperator(2, 1, Fraction(1), mat)
    assert [a.entry(i, j) for i in range(2) for j in range(2)] == [3, 1, 2**64, -1]


def test_depolarise_preserves_psd():
    rng = random.Random(7)
    r = rand_op(rng, 2, 2)
    psd = orc.TensorOperator(2, 2, r.scale, r.mat.T) @ r
    assert orc.is_positive_semidefinite(psd)
    assert orc.is_positive_semidefinite(orc.depolarise_n(psd, Fraction(1, 3)))


def test_depolarise_binomial_twirl_decomposition():
    # On permutation-invariant input the channel collapses to binomial
    # weights times twirled contiguous reductions.
    result = verify.check_channel_identities([(2, 4), (3, 3)], random.Random(0))
    assert result.passed and result.checked, result.failures


def test_overlap_examples():
    fam = orc.isotypical_projectors(2, 4)
    for lam, p in fam.items():
        assert p.hs_product(p) == dim_sym(lam) * dim_unitary(lam, 2)
        for other in fam:
            if other != lam:
                assert fam[other].hs_product(p) == 0
    # support-window vanishing instance: |4 - 2| = 2 > (d-1)*k = 1
    padded = fam[frame(4, 0)].partial_trace([3]).kron(orc.TensorOperator.identity(2, 1))
    assert fam[frame(2, 2)].hs_product(padded) == 0
    assert fam[frame(3, 1)].hs_product(padded) != 0


PAIRING_SIZES = [(1, 2), (2, 1), (2, 3), (3, 2), (2, 4)]


LAYOUT_KINDS = st.sampled_from([orc._SORTED, orc._LETTER, orc._WHOLE])


@st.composite
def operator_pairs(draw):
    """(a, b) on one (d, n): each drawn for a layout kind, with entries near 2**40 in one block or not.

    A sorted draw sums a letter-block draw over every relabelling of the
    letters.  b is drawn on its own, or is a rescaled copy of a (an equal
    operator), possibly with one entry changed, which may change its kind.
    """
    d, n = draw(st.sampled_from(PAIRING_SIZES))
    dim = d**n
    mask = block_mask(d, n)

    def operator(kind, big):
        mat = np.array(draw(st.lists(st.integers(-3, 3), min_size=dim * dim, max_size=dim * dim)), dtype=object)
        mat = mat.reshape(dim, dim)
        if kind != orc._WHOLE:
            mat = np.where(mask, mat, 0)
        if big:
            words = max(orc._letter_blocks(d, n), key=len)
            mat[np.ix_(words, words)] *= 2**40
            mat[words[0], words[0]] = 2**40 + 1
        if kind == orc._SORTED:
            mat = sum(relabelled(mat, d, n))
        return orc.TensorOperator(d, n, Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 5))), mat)

    a = operator(draw(LAYOUT_KINDS), draw(st.booleans()))
    relation = draw(st.sampled_from(["independent", "rescaled", "perturbed"]))
    if relation == "independent":
        return a, operator(draw(LAYOUT_KINDS), draw(st.booleans()))
    c = draw(st.sampled_from([1, 2, -3]))
    mat = a.mat * c
    if relation == "perturbed":
        mat[draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1))] += 1
    return a, orc.TensorOperator(d, n, a.scale / c, mat)


@given(operator_pairs())
def test_pairing_and_equality_match_full_matrices(pair):
    a, b = pair
    for op in (a, b):
        assert layout_kind(op) == expected_kind(op)
    assert a.hs_product(b) == b.hs_product(a) == hs_product_by_full_matrices(a, b)
    full_equal = np.array_equal(a.scale * a.mat, b.scale * b.mat)
    assert (a == b) == (b == a) == full_equal


def check_site_operations(op, data):
    """Partial trace, conjugation, channel and twirl of ``op`` equal their full-matrix references.

    The trace, conjugation and twirl keep the operand's layout kind; the
    channel may fold a zero result into the sorted zero.
    """
    n = op.n
    sites = tuple(sorted(data.draw(st.sets(st.integers(0, n - 1)))))
    images = tuple(data.draw(st.permutations(range(n))))
    q = data.draw(st.fractions(0, 1, max_denominator=6))
    traced = op.partial_trace(sites)
    conjugated = orc.conjugate_by_permutation(op, Permutation(images))
    twirled = orc.twirl(op)
    assert traced == partial_trace_by_sums(op, sites)
    assert conjugated == conjugate_by_full_matrices(op, images)
    assert twirled == twirl_by_permutations(op)
    assert orc.depolarise_n(op, q) == depolarise_by_subsets(op, q)
    for out in (traced, conjugated, twirled):
        assert out._layout is orc._layout(out.d, out.n, layout_kind(op))


@given(operator_pairs(), st.data())
def test_operations_match_full_matrices(pair, data):
    # sorted, letter-block, one-block and mixed operands, with entries near 2**40 in one block or not
    a, b = pair
    assert a @ b == full_product(a, b) and b @ a == full_product(b, a)
    assert (a @ b)._layout is (b @ a)._layout is orc._layout(a.d, a.n, max(layout_kind(a), layout_kind(b)))
    product = a.kron(b)
    assert product == orc.TensorOperator(a.d, 2 * a.n, a.scale * b.scale, np.kron(a.mat, b.mat))
    assert product._layout is orc._layout(a.d, 2 * a.n, max(layout_kind(a), layout_kind(b)))
    for op in (a, b):
        check_site_operations(op, data)


def test_hs_product_int64_and_object_routes(exact_routes):
    # with either operand storing only letter blocks the pairing sums the 70 in-block
    # terms of (2, 4), else all 256; two sorted operands pair the 53 sorted entries, each
    # counted for the letter blocks it stands for, 70 terms in all.  It runs in int64
    # exactly when the number of terms times max|A| max|B| fits
    mask = block_mask(2, 4)
    assert orc._layout(2, 4, orc._LETTER).size == int(mask.sum()) == 70
    assert orc._layout(2, 4, orc._SORTED).size == 1 + 16 + 36 and orc._layout(2, 4, orc._SORTED).terms == 70
    for a_outside, b_outside in ((0, 0), (1, 0), (0, 1), (1, 1)):
        limit = (2**63 - 1) // (256 if a_outside and b_outside else 70)
        for entry in (limit, limit + 1):
            for a_sorted in (False, True):  # entry on 0000 alone, or on 0000 and 1111
                mat = np.where(mask, 1, a_outside).astype(object)
                mat[0, 0] = entry
                if a_sorted:
                    mat[15, 15] = entry
                a = orc.TensorOperator(2, 4, Fraction(1, 3), mat)
                b = orc.TensorOperator(2, 4, Fraction(-2), np.where(mask, 1, b_outside))
                kinds = [layout_kind(a), layout_kind(b)]
                assert kinds == [expected_kind(a), expected_kind(b)]
                assert kinds[0] == (orc._WHOLE if a_outside else orc._SORTED if a_sorted else orc._LETTER)
                assert kinds[1] == (orc._WHOLE if b_outside else orc._SORTED)
                exact_routes.clear()
                value = a.hs_product(b)
                assert exact_routes == [np.int64 if entry == limit else object]
                assert value == hs_product_by_full_matrices(a, b)


def test_pairings_against_a_list(exact_routes):
    # one operator of each kind against operators of every kind at once: each integer
    # pairing times the two scales is the full-matrix tr(AB), from one _exact call
    rng = random.Random(15)
    for d, n in ((2, 3), (3, 2)):
        mask = block_mask(d, n)
        ops = [
            orc.isotypical_projectors(d, n)[enumerate_frames(d, n)[1]],
            orc.TensorOperator(d, n, Fraction(1, 3), np.where(mask, rand_op(rng, d, n).mat, 0)),
            rand_op(rng, d, n),
        ]
        assert [layout_kind(op) for op in ops] == [orc._SORTED, orc._LETTER, orc._WHOLE]
        for a in ops:
            for others in (ops[:1], ops[:2], ops, ops[::-1]):
                exact_routes.clear()
                pairings = a.pairings(others)
                assert exact_routes == [np.int64]
                assert [a.scale * b.scale * p for b, p in zip(others, pairings)] == [
                    hs_product_by_full_matrices(a, b) for b in others
                ]
        assert ops[0].pairings([]) == []


def test_sorted_operand_pairs_with_every_kind():
    # a sorted operand against a non-invariant letter-block one and a one-block one:
    # the pairing runs on the letter blocks, as the other operand's entries outside
    # the sorted blocks differ from their relabelled images
    rng = random.Random(13)
    for d, n in ((2, 3), (3, 2), (3, 3)):
        mask = block_mask(d, n)
        sym = orc.isotypical_projectors(d, n)[enumerate_frames(d, n)[1]]
        letter = orc.TensorOperator(d, n, Fraction(1, 3), np.where(mask, rand_op(rng, d, n).mat, 0))
        whole = rand_op(rng, d, n)
        assert [layout_kind(op) for op in (sym, letter, whole)] == [orc._SORTED, orc._LETTER, orc._WHOLE]
        for other in (letter, whole):
            assert sym.hs_product(other) == other.hs_product(sym) == hs_product_by_full_matrices(sym, other)
            assert not (sym == other) and not (other == sym)
            # an invariant operator held in the other's layout equals the sorted one
            held = (other + sym) - other
            assert held._layout is other._layout
            assert sym == held and held == sym
            assert held.hs_product(other) == sym.hs_product(other)


def test_representative_match_is_not_invariance():
    # each letter block of diag(5, 1, 2, 5) matches its sorted block's entry under the
    # sorting relabelling, but swapping the letters moves 01 onto 10: not invariant
    a = orc.TensorOperator(2, 2, Fraction(1), np.diag([5, 1, 2, 5]).astype(object))
    assert layout_kind(a) == expected_kind(a) == orc._LETTER
    assert a.partial_trace([1]) == orc.TensorOperator(2, 1, Fraction(1), np.diag([6, 7]).astype(object))
    assert orc.TensorOperator(2, 2, Fraction(1), np.diag([5, 1, 1, 5])).hs_product(a) == 5 * 5 + 1 + 2 + 5 * 5
    # at d = 3 a sum over the relabellings of one generator alone is not invariant either
    rng = random.Random(14)
    letter = np.where(block_mask(3, 2), rand_op(rng, 3, 2).mat, 0)
    moves = list(relabelled(letter, 3, 2))  # identity, (1 2), (0 1), (0 1 2), (0 2 1), (0 2)
    for group in ((0, 3, 4), (0, 2)):
        b = orc.TensorOperator(3, 2, Fraction(1), sum(moves[i] for i in group))
        assert layout_kind(b) == expected_kind(b) == orc._LETTER, group
    assert layout_kind(orc.TensorOperator(3, 2, Fraction(1), sum(moves))) == orc._SORTED


def test_sorted_layout_storage():
    # the sum over sorted histograms of the squared multinomial, against every letter block
    for (d, n), size, letter in (((3, 6), 13262, 35169), ((2, 8), 8885, 12870), ((4, 5), 5026, 31504)):
        layout = orc._layout(d, n, orc._SORTED)
        assert layout.size == size and layout.terms == orc._layout(d, n, orc._LETTER).size == letter
        assert all(len(p._vec) == size for p in orc.isotypical_projectors(d, n).values())
    # one object for every kind where there is one letter block
    for d, n in ((1, 4), (3, 0)):
        assert orc._layout(d, n, orc._SORTED) is orc._layout(d, n, orc._LETTER) is orc._layout(d, n, orc._WHOLE)


def test_psd_checks():
    fam = orc.isotypical_projectors(2, 3)
    for p in fam.values():
        assert orc.is_positive_semidefinite(p)
    sym, anti = fam[frame(3)], fam[frame(2, 1)]
    assert not orc.is_positive_semidefinite(sym - anti)
    # zero diagonal with nonzero off-diagonal entry
    mat = np.zeros((2, 2), dtype=object)
    mat[0, 1] = mat[1, 0] = 1
    assert not orc.is_positive_semidefinite(orc.TensorOperator(2, 1, Fraction(1), mat))
    assert orc.is_positive_semidefinite(orc.TensorOperator.zero(2, 2))


PSD_SIZES = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]


@st.composite
def psd_cases(draw):
    """(operator, kind, masked): a rank-deficient Gram matrix, minus eps I, or with a zero-diagonal row."""
    d, n = draw(st.sampled_from(PSD_SIZES))
    dim = d**n
    rank = draw(st.integers(0, dim - 1))
    r = np.array(draw(st.lists(st.integers(-3, 3), min_size=rank * dim, max_size=rank * dim)), dtype=object)
    mat = r.reshape(rank, dim).T @ r.reshape(rank, dim) if rank else np.zeros((dim, dim), dtype=object)
    masked = draw(st.booleans())
    if masked:
        mat = np.where(block_mask(d, n), mat, 0)
    kind = draw(st.sampled_from(["gram", "minus_eps", "zero_diag"]))
    den = draw(st.integers(1, 40))
    if kind == "minus_eps":
        mat = den * mat - np.identity(dim, dtype=object)
    elif kind == "zero_diag":
        i = draw(st.integers(0, dim - 1))
        row = np.array(draw(st.lists(st.integers(-3, 3), min_size=dim, max_size=dim)), dtype=object)
        row[i], row[(i + 1) % dim] = 0, draw(st.sampled_from([-2, -1, 1, 2]))
        if masked:
            row = np.where(block_mask(d, n)[i], row, 0)
        mat[i, :] = mat[:, i] = row
    scale = Fraction(draw(st.integers(-2, 2)), den)
    return orc.TensorOperator(d, n, scale, mat), kind, masked


@given(psd_cases(), st.data())
def test_psd_matches_fraction_ldl(case, data):
    a, kind, masked = case
    verdict = orc.is_positive_semidefinite(a)
    assert verdict == psd_by_fraction_ldl(a)
    assert a @ a == full_product(a, a)
    check_site_operations(a, data)
    assert layout_kind(a) == expected_kind(a)
    if masked:
        assert blocked(a)
    if a.scale == 0 or (kind == "gram" and a.scale > 0):
        assert verdict
    elif not masked and kind == "minus_eps" and a.scale > 0:
        assert not verdict  # the Gram matrix has a null vector


def test_scale_representation_equality():
    ident = orc.TensorOperator.identity(2, 1)
    doubled = orc.TensorOperator(2, 1, Fraction(1, 2), 2 * np.identity(2, dtype=object))
    assert ident == doubled
    assert (Fraction(1, 3) * ident).reduced() == Fraction(1, 3) * ident
    # a zero scale makes any matrix the zero operator, in the letter blocks or not
    dense = orc.TensorOperator(2, 2, Fraction(0), np.ones((4, 4), dtype=np.int64))
    assert layout_kind(dense) == orc._WHOLE and layout_kind(orc.TensorOperator.zero(2, 2)) == orc._SORTED
    assert dense == orc.TensorOperator.zero(2, 2) == dense
